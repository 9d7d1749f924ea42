"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at reduced size (``run.py --quick``), untraced and
traced, and checks that

- the last output line holds exactly ``correct``, ``attempted``, ``failed``
  and ``metrics``, every check passes, and every end-to-end (untraced) or
  per-layer (traced) metric of BENCHMARK.json is printed with its unit;
- the traced work counters repeat across the two traced passes;
- a corrupted reference makes ``fail_frac`` nonzero on every workload;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.

It lives outside ``tests/`` so the package's test suite does not collect it.
Takes about two minutes on a 2-core machine.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import BENCH_DIR, ROOT, WORK_ROOT, WORKLOADS


def corrupt(name: str, ref: dict) -> dict:
    """A copy of the reference that the correct program no longer matches."""
    ref = json.loads(json.dumps(ref))
    if name == "pulse-sweep":
        for row in ref["sweep_csv"]:
            row[2] += 1.0
    elif name == "breaking-sweep":
        ref["t_star"] = [[r, None if t is None else t + 1.0] for r, t in ref["t_star"]]
    elif name == "affine-ensemble":
        ref["status"] = "terminal-event"
    else:
        for inv in ref["invocations"]:
            inv["report"]["tool_version"] = "0.0.0"
    return ref


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(proc, expected_units: dict) -> list[str]:
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks failed: {[ln for ln in lines if 'FAILED' in ln]}")
    if any("FLAG" in ln for ln in lines):
        problems.append(f"counters did not repeat: {[ln for ln in lines if 'FLAG' in ln]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_units:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected_units}")
    table = lines[:-1]
    for name, unit in list(expected_units.items()) + [("fail_frac", "1")]:
        if not any(ln.split()[:1] == [name] and unit in ln.split()[2:3] for ln in table):
            problems.append(f"{name} is not printed with its unit {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        bad_refs = Path(tmp) / "references"
        bad_refs.mkdir()
        for name in WORKLOADS:
            ref = json.loads((BENCH_DIR / "references" / f"{name}.json").read_text())
            (bad_refs / f"{name}.json").write_text(json.dumps(corrupt(name, ref)))

        for name in WORKLOADS:
            for trace in (0, 1):
                proc = run(ROOT, "--workload", name, "--trace", str(trace), "--quick")
                problems = check_output(proc, units[trace])
                print(f"{name} trace {trace}: {'ok' if not problems else problems}")
                failures += problems
            proc = run(ROOT, "--workload", name, "--trace", "0", "--quick",
                       "--references", str(bad_refs))
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            caught = result.get("failed", 0) > 0 and result.get("correct") is False
            print(f"{name} corrupted reference: {'caught' if caught else 'NOT CAUGHT'}")
            if not caught:
                failures.append(f"{name}: corrupted reference not caught")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "cli-modes", "--trace", "0")
        printed = any(ln.startswith("{") for ln in proc.stdout.splitlines())
        print(f"bare directory: exit {proc.returncode}, result printed: {printed}")
        if proc.returncode == 0 or printed:
            failures.append("bare directory run did not fail cleanly")

    print("selftest:", "PASS" if not failures else f"FAIL ({len(failures)} problems)")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
