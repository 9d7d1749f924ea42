"""Measure every workload and write the baseline to perfbench/baseline.json.

    python3 perfbench/baseline.py [--runs 10] [--seed0 1]

Run from the root of a source checkout.  For each workload this makes
``--runs`` untraced runs, each with another seed, and two traced runs with
the same seed; it prints wall_s, cpu_s, setup_s, peak_rss_mb and fail_frac
with their units, the spread of each end-to-end metric (distance between
the first and third quartile over the median, as compared against the
bounds in BENCHMARK.json), and whether the traced work counters repeated.
Takes about 25 minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYER_METRICS, WORK_COUNTERS
from workloads import AFFINE_GRID, BENCH_DIR, ROOT

# ROADMAP aim 1, measured when the roadmap was written on a comparable 2-core box
ROADMAP = {"pulse_sweep_wall_s": 14.6, "import_coldplasma_s": 0.7, "us_per_dop853_step": 185.0,
           "pulse_sweep_value_calls": 4820882}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, plus the raw_* times of its table under "raw"."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {ln.split()[0]: float(ln.split()[1]) for ln in lines[:-1]
                     if ln.split()[:1] and ln.split()[0].startswith("raw_")}
    return result


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {
        "regenerate": "python3 perfbench/baseline.py --runs 10  (from the checkout root)",
        "references": "python3 perfbench/make_references.py rewrites perfbench/references/",
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "layers": [{"metric": n, "unit": u, "moves": mv} for n, u, _, mv in LAYER_METRICS],
        "workloads": {},
    }
    for wl in spec["workloads"]:
        name = wl["name"]
        seeds = list(range(args.seed0, args.seed0 + args.runs))
        runs = [bench(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = [bench(name, args.seed0, spec["run_seconds"], 1) for _ in range(2)]
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        e2e = {m: stats([r["metrics"][m]["value"] for r in runs]) for m in units}
        raw = {m: stats([r["raw"][m] for r in runs]) for m in runs[0]["raw"]}
        layer = {m: t["metrics"][m]["value"] for t in traced[:1] for m in t["metrics"]}
        repeat = {k: [t["metrics"][k]["value"] for t in traced] for k in WORK_COUNTERS}
        out["workloads"][name] = {
            "why": wl["why"], "seeds": seeds, "fail_frac": failed / attempted,
            "attempted": attempted, "failed": failed,
            "end_to_end": {m: dict(e2e[m], unit=units[m], bound=bounds[m]) for m in units},
            "raw": raw,
            "per_layer": layer,
            "work_counters_repeat": all(v[0] == v[1] for v in repeat.values()),
            "trace_overhead_s": [t["metrics"]["trace.overhead_s"]["value"] for t in traced],
        }
        print(f"{name}  ({len(runs)} runs, seeds {seeds[0]}..{seeds[-1]})")
        for m in units:
            s = e2e[m]
            flag = "" if m == "setup_s" or s["spread"] <= bounds[m] else "  SPREAD ABOVE BOUND"
            print(f"  {m:<12} median {s['median']:10.4f} {units[m]:<3} "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.3f} "
                  f"(bound {bounds[m]}){flag}")
        for m, s in raw.items():
            print(f"  {m:<12} median {s['median']:10.4f} s   "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.3f}")
        print(f"  {'fail_frac':<12} {failed / attempted:.4f} ({failed}/{attempted} operations)")
        print(f"  work counters repeat across two traced runs: "
              f"{out['workloads'][name]['work_counters_repeat']}")

    w = out["workloads"]
    pulse, affine = w["pulse-sweep"], w["affine-ensemble"]
    out["roadmap_cross_check"] = {
        "roadmap": ROADMAP,
        "pulse_sweep_raw_wall_s": pulse["raw"]["raw_wall_s"]["median"],
        "pulse_sweep_wall_s": pulse["end_to_end"]["wall_s"]["median"],
        "import_coldplasma_s": pulse["per_layer"]["import.coldplasma_s"],
        # raw untraced wall of a pass over the traced step count (seeds differ by a few %)
        "us_per_dop853_step_untraced": 1e6 * affine["raw"]["raw_wall_s"]["median"]
        / affine["per_layer"]["numerics.integrate.steps"],
        "us_per_dop853_step_traced": affine["per_layer"]["numerics.integrate.us_per_step"],
        "affine_starts": 2 * AFFINE_GRID ** 2,
        "pulse_sweep_value_calls": pulse["per_layer"][
            "spiral_counter.guaranteed_field_lifetime.value_calls"],
    }
    print(json.dumps(out["roadmap_cross_check"], indent=1))
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
