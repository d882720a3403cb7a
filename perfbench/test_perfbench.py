"""Checks of the benchmark itself, on the tiny workload (H4 and kZ2 only)
and with no timing bounds: work counts repeat exactly across two traced
runs, and every metric BENCHMARK.json lists prints with its unit.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_UNITS = ("count", "bytes")


def run_tiny(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", "tiny", "--seconds", "0", *args],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=170).stdout
    lines = out.splitlines()
    return lines, json.loads(lines[-1])


def test_traced_work_counts_repeat_exactly():
    runs = [run_tiny("--seed", "3", "--trace", "1")[1] for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
    first, second = ({name: m["value"] for name, m in r["metrics"].items()
                      if m["unit"] in WORK_UNITS} for r in runs)
    assert first and first == second
    assert first["fields.modp_ops"] > 0 and first["algebras.ambient_dim"] == 128


def test_every_listed_metric_prints_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        lines, result = run_tiny("--trace", trace)
        want = {m["name"]: m["unit"] for m in bench[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line}
        for name, unit in want.items():
            assert printed.get(name) == unit, name
        assert printed.get("fail_frac") == "fraction"
        assert result["correct"] and result["attempted"] >= 4


def test_outputs_match_between_processes_and_in_process_runs():
    digests = [next(line for line in run_tiny("--seed", "5", "--trace", trace)[0]
                    if line.startswith("digest ")) for trace in ("0", "1")]
    assert digests[0] == digests[1]
