"""End-to-end and per-layer benchmark of the phopf command line.

    python3 perfbench/run.py --workload {globalize,check,smash} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a phopf checkout.  A workload is a fixed list of
`phopf` commands run serially as a closed loop with one client: each
command is a fresh `python -m phopf.cli` process, started only after the
previous one has exited.  The inputs are generated from the seed during
set-up; the commands only see the written documents.

--trace 0 times whole passes over the command list for --seconds seconds
and reports end-to-end metrics built from each command's median over the
passes.  --trace 1 runs
the same commands in this process through `phopf.cli.main`, with every
public function of each phopf module wrapped in a span (see spans.py), and
reports per-layer metrics.  Both check every command's output against the
workload's invariants and print a sha256 digest of every command's JSON
output and written documents, so two commits can be compared for identical
output.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

# Times are reported at the machine speed at which calibration_s() takes
# this long; see ReferenceSpeed.
CALIBRATION_REF_S = 0.02
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
COMMAND_TIMEOUT_S = 120
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_cmd_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class Outcome:
    """Failures and output digest of one pass over a command list."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._sha = hashlib.sha256()

    def record(self, workdir, cmd, code, stdout):
        self.attempted += 1
        self._sha.update(("\0%s\0" % " ".join(cmd.argv)).encode())
        self._sha.update(stdout.encode())
        for path in cmd.writes:
            try:
                with open(os.path.join(workdir, path), "rb") as fh:
                    self._sha.update(fh.read())
            except OSError:
                self._sha.update(b"\0missing")
        bad = [] if code == 0 else ["exit code %r" % (code,)]
        try:
            bad += cmd.expect(json.loads(stdout.strip().splitlines()[-1]))
        except (ValueError, IndexError):
            bad.append("no JSON output")
        if bad:
            self.failures.append("%s: %s" % (cmd.name, "; ".join(bad)))

    @property
    def digest(self):
        return self._sha.hexdigest()


# ---------------------------------------------------------------------------
# end to end: one process per command


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(workdir, cmd, env):
    """Run one command to completion through launch.py.  Returns (exit
    code, stdout, seconds from start to exit, user+sys CPU seconds, max RSS
    in MB)."""
    out_path = os.path.join(workdir, ".stdout")
    result_path = os.path.join(workdir, ".result")
    subprocess.run([sys.executable, LAUNCHER, result_path, out_path, str(COMMAND_TIMEOUT_S),
                    sys.executable, "-m", "phopf.cli"] + cmd.argv,
                   cwd=workdir, env=env, check=True, timeout=COMMAND_TIMEOUT_S + 30)
    with open(result_path, encoding="utf-8") as fh:
        code, seconds, cpu_s, rss_kib = fh.read().split()
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return int(code), stdout, float(seconds), float(cpu_s), int(rss_kib) / 1024.0


def calibration_s():
    """Seconds taken by a fixed loop of Fraction arithmetic and dict
    updates: the kind of work phopf spends its time on, but no phopf code,
    so no change to phopf can move it."""
    start = time.perf_counter()
    acc = {}
    third = Fraction(1, 3)
    for i in range(6000):
        key = i * 7 % 97
        acc[key] = acc.get(key, 0) + third * Fraction(i % 5 + 1, 7)
    return time.perf_counter() - start


class ReferenceSpeed:
    """Scales times to the machine speed at which calibration_s() takes
    CALIBRATION_REF_S.  Each measured interval is scaled by the calibration
    runs just before and just after it."""

    def __init__(self):
        self.scales = []
        calibration_s()                 # warm-up, not used
        self._before = calibration_s()

    def scale(self):
        """The factor for the interval that ended just now."""
        after = calibration_s()
        factor = 2 * CALIBRATION_REF_S / (self._before + after)
        self._before = after
        self.scales.append(factor)
        return factor


def process_pass(workdir, commands, env, speed):
    """One pass; returns the outcome and, per command, (seconds, CPU
    seconds, max RSS in MB, factor to the reference speed)."""
    outcome = Outcome()
    samples = []
    for cmd in commands:
        code, stdout, seconds, cpu_s, rss_mb = run_command(workdir, cmd, env)
        factor = speed.scale()
        outcome.record(workdir, cmd, code, stdout)
        samples.append((seconds, cpu_s, rss_mb, factor))
    return outcome, samples


def repeat_within(seconds, step):
    """Call step() once, then again while one more call as long as the last
    one still ends within `seconds` of the first call's start."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def end_to_end(workload, seed, seconds, workdir):
    """Set up repeatedly, then run passes for `seconds`.  Times are taken at
    the reference speed (ReferenceSpeed), and a pass's figures are built
    from each command's median over the passes, so a neighbour's burst of
    load during one command does not move the result."""
    import workloads

    speed = ReferenceSpeed()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        start = time.perf_counter()
        commands = workloads.set_up(workload, seed, workdir)
        setups.append((time.perf_counter() - start) * speed.scale())
    env = _child_env()
    outcomes, passes = [], []

    def one_pass():
        outcome, samples = process_pass(workdir, commands, env, speed)
        outcomes.append(outcome)
        passes.append(samples)

    repeat_within(seconds, one_pass)
    metrics = {"setup_s": median(setups)}
    metrics.update(pass_figures(passes, scaled=True))
    measured = pass_figures(passes, scaled=False)
    notes = ["times at reference speed: measured times x %.3f (median; range %.3f-%.3f)"
             % (median(speed.scales), min(speed.scales), max(speed.scales)),
             "as measured: " + ", ".join("%s %.6g" % (k, v) for k, v in measured.items()
                                         if k != "peak_rss_mb")]
    return outcomes, metrics, END_TO_END, notes


def pass_figures(passes, scaled):
    """wall_s, slowest_cmd_s, cpu_s and peak_rss_mb of a pass built from
    each command's median over the passes."""
    per_cmd = [[median(p[c][k] * (p[c][3] if scaled and k < 2 else 1) for p in passes)
                for k in range(3)] for c in range(len(passes[0]))]
    return {
        "wall_s": sum(t for t, _, _ in per_cmd),
        "slowest_cmd_s": max(t for t, _, _ in per_cmd),
        "cpu_s": sum(c for _, c, _ in per_cmd),
        "peak_rss_mb": max(r for _, _, r in per_cmd),
    }


# ---------------------------------------------------------------------------
# per layer: the same commands in this process, with spans


def in_process_pass(workdir, commands):
    """Run every command through phopf.cli.main; returns the outcome and
    the summed wall time of the commands."""
    from phopf import cli

    outcome = Outcome()
    total = 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in commands:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code
            total += time.perf_counter() - start
            outcome.record(".", cmd, code, buf.getvalue())
    finally:
        os.chdir(cwd)
    return outcome, total


def fresh_import_seconds(env):
    probe = ("import time; t = time.perf_counter(); import phopf; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True,
                             timeout=COMMAND_TIMEOUT_S).stdout
        times.append(float(out.split()[-1]))
    return median(times)


def per_layer(workload, seed, seconds, workdir):
    import spans
    import workloads

    commands = workloads.set_up(workload, seed, workdir)
    import_s = fresh_import_seconds(_child_env())
    tracer = spans.Tracer()
    outcomes, plain, traced, layers = [], [], [], []

    def one_pair():
        outcome, wall = in_process_pass(workdir, commands)
        outcomes.append(outcome)
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            outcome, wall = in_process_pass(workdir, commands)
        finally:
            tracer.restore()
        outcomes.append(outcome)
        traced.append(wall)
        layers.append(tracer.layer_metrics())

    repeat_within(seconds, one_pair)
    counter = spans.ModPCounter()
    counter.install()
    try:
        outcome, _ = in_process_pass(workdir, commands)
    finally:
        counter.restore()
    outcomes.append(outcome)

    metrics = {"cli.import_s": import_s, "fields.modp_ops": counter.ops,
               "trace.overhead_s": median(traced) - median(plain)}
    for name, value in layers[0].items():
        if isinstance(value, int):
            if any(other[name] != value for other in layers):
                outcomes[0].failures.append("count %s differs between passes" % name)
            metrics[name] = value
        else:
            metrics[name] = median([other[name] for other in layers])
    return outcomes, metrics, spans.PER_LAYER, ["per-layer times are as measured"]


# ---------------------------------------------------------------------------


def report(workload, seed, outcomes, metrics, units, notes):
    digests = {o.digest for o in outcomes}
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    print("workload %s, seed %d, %d passes; nproc %d, Python %s"
          % (workload, seed, len(outcomes), os.cpu_count() or 0,
             platform.python_version()))
    for note in notes:
        print(note)
    for failure in failures[:10]:
        print("FAILED %s" % failure)
    if len(digests) > 1:
        print("FAILED output digest differs between passes")
    for name, unit in units.items():
        value = metrics[name]
        shown = "%14d" % value if isinstance(value, int) else "%14.6g" % value
        print("%-32s %s %s" % (name, shown, unit))
    print("%-32s %14.6g %s" % ("fail_frac", len(failures) / attempted, "fraction"))
    print("digest %s sha256 %s" % (workload, sorted(digests)[0]))
    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phopf", "cli.py")):
        print("error: no phopf sources under %s; run from a phopf checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    measure = per_layer if args.trace else end_to_end
    try:
        outcomes, metrics, units, notes = measure(args.workload, seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    report(args.workload, seed, outcomes, metrics, units, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
