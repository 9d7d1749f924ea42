"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  With ``--trace 0`` the run
measures the end-to-end metrics (wall_s, cpu_s, setup_s, peak_rss_mb) with
tracing off, times in reference-host seconds (see probe.py) with the raw
clock readings printed beside them; with ``--trace 1`` it reports the
per-layer metrics of a traced pass and the tracing overhead.  A human-readable table comes first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--quick`` shrinks every workload (used by ``selftest.py``) and
``--references DIR`` checks against another reference directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import BENCH_DIR, ROOT, WORK_ROOT, WORKLOADS, child_env

SETUP_SAMPLES = 5        # fresh interpreters timed per run; setup_s is their median
WORKER_TIMEOUT = 150.0   # seconds; a run must end within 180


def end_to_end_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def _worker(args, work: Path, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--references", str(args.references), *extra]
    if args.quick:
        cmd.append("--quick")
    # own process group, so a timeout also ends the CLI processes the worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    ap.add_argument("--references", type=Path, default=BENCH_DIR / "references")
    args = ap.parse_args()

    if not (ROOT / "src" / "coldplasma" / "__init__.py").is_file():
        print(f"error: no coldplasma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.references = args.references.resolve()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        res = _worker(args, work, timeout=WORKER_TIMEOUT)
        setups = [res] + [_worker(args, work, "--setup-only", timeout=10.0)
                          for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        values = res["metrics"]
    else:
        units = end_to_end_units()
        for key in ("setup_s", "raw_setup_s"):
            res[key] = statistics.median(s[key] for s in setups)
        values = res
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"quick {int(args.quick)}  passes {res['passes']}")
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:>16.10g} {m['unit']}")
    if not args.trace:
        for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s"):
            print(f"  {name:<56} {res[name]:>16.10g} s  (as read, host speed not taken out)")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':<56} {fail_frac:>16.10g} 1  ({res['failed']}/{res['attempted']} operations)")
    for err in res["errors"]:
        print(f"  FAILED: {err}")
    for flag in res.get("flags", ()):
        print(f"  FLAG: work counter did not repeat across two traced passes: {flag}")
    if args.trace:
        print(f"  spans written to {res['spans_file']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
