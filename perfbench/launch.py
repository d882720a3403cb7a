"""Run one command and write its time and resource use to a file.

    python3 launch.py RESULT_FILE STDOUT_FILE TIMEOUT_S PROGRAM [ARG...]

Linux carries the max RSS of the process that forks a child over into the
child's own rusage, so a command started straight from the benchmark would
report at least the benchmark's RSS.  This launcher imports almost nothing,
so the command's max RSS is its own.  RESULT_FILE receives one line:
exit code, seconds from start to exit, user+sys CPU seconds, max RSS in KiB.
A command still running after TIMEOUT_S seconds is killed."""

import os
import signal
import sys
import time


def main():
    result_path, out_path, timeout_s = sys.argv[1], sys.argv[2], int(sys.argv[3])
    argv = sys.argv[4:]
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(os.devnull, os.O_WRONLY)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                       (os.POSIX_SPAWN_DUP2, err, 2)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout_s)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.alarm(0)
    with open(result_path, "w") as fh:
        fh.write("%d %r %r %d\n" % (os.waitstatus_to_exitcode(status), seconds,
                                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss))


if __name__ == "__main__":
    main()
