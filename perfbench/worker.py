"""One run of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work DIR [--setup-only] [--quick] [--references DIR]

Set-up (importing coldplasma and building the workload's inputs) is timed
from the top of this file, with the host probed around and during it (see
probe.py).  Untraced, the worker repeats passes of the workload's fixed
operation list until another pass would overrun ``--seconds``; traced, it
runs one untraced pass and two traced passes.
The last line of standard output is one JSON object for ``run.py``.
"""

import time

from probe import HostProbe

_PROBE = HostProbe()          # probes set-up, then the workload's passes
_PROBE.sample(HostProbe.NEAREST)
_T0 = time.perf_counter()
_PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SRC, WORKLOADS, child_env, load_references  # noqa: E402

_MAX_ERRORS = 5


def import_times(text: str) -> dict:
    """``import.coldplasma_s`` and ``import.scipy_s`` from ``-X importtime`` output.

    scipy's share is the cumulative time of the outermost scipy modules,
    i.e. those not imported from inside another scipy module.
    """
    entries = []                       # (level, name, cumulative seconds)
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cum) * 1e-6))

    def is_scipy(n):
        return n == "scipy" or n.startswith("scipy.")

    out = {"import.coldplasma_s": 0.0, "import.scipy_s": 0.0}
    for i, (level, name, cum) in enumerate(entries):
        if name == "coldplasma":
            out["import.coldplasma_s"] = cum
        if not is_scipy(name):
            continue
        # a module's importer is the next entry printed at a lower level
        lv, outermost = level, True
        for lj, nj, _ in entries[i + 1:]:
            if lj < lv:
                if is_scipy(nj):
                    outermost = False
                    break
                lv = lj
        if outermost:
            out["import.scipy_s"] += cum
    return out


def measure_imports(samples: int = 3) -> dict:
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coldplasma"],
                              env=child_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        runs.append(import_times(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def untraced(wl, seconds: float) -> dict:
    """Passes until another would overrun ``seconds``; medians over passes.

    wall_s and cpu_s are in reference-host seconds, raw_wall_s and
    raw_cpu_s as the clocks read them.
    """
    passes, ops_all = [], []
    start = time.perf_counter()
    while True:
        ops = wl.run_pass()
        ops_all += ops
        passes.append([sum(o.ref[0] for o in ops), sum(o.ref[1] for o in ops),
                       sum(o.raw[0] for o in ops), sum(o.raw[1] for o in ops)])
        elapsed = time.perf_counter() - start
        if (len(passes) >= wl.min_passes
                and elapsed + statistics.median(p[2] for p in passes) > seconds):
            break
    med = [statistics.median(p[i] for p in passes) for i in range(4)]
    return {
        "passes": len(passes),
        "wall_s": med[0], "cpu_s": med[1], "raw_wall_s": med[2], "raw_cpu_s": med[3],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        ).ru_maxrss / 1024.0,
        "ops": ops_all,
    }


def _traced_pass(wl, tr):
    """One traced pass (inputs rebuilt under the tracer): ops, summary, spans."""
    from tracer import merge

    tr.reset()
    wl.build()
    ops = wl.run_pass(tr)
    # cli-modes: one trace file per child process
    children = [json.loads(Path(f).read_text()) for f in getattr(wl, "trace_files", ())]
    summary = merge([tr.summary()] + [c["summary"] for c in children])
    return ops, summary, [tr.span_records()] + [c["spans"] for c in children]


def traced(wl, work_root: Path) -> dict:
    from tracer import WORK_COUNTERS, Tracer, layer_metrics

    ops_u = wl.run_pass()
    tr = Tracer()
    if wl.in_process:        # cli-modes traces inside each child, in cli_shim.py
        tr.install()
    ops1, sum1, spans = _traced_pass(wl, tr)
    ops2, sum2, _ = _traced_pass(wl, tr)
    flags = [f"{k}: {sum1.get(k, 0.0):.0f} then {sum2.get(k, 0.0):.0f}"
             for k in WORK_COUNTERS if sum1.get(k, 0.0) != sum2.get(k, 0.0)]
    metrics = layer_metrics(sum1)
    metrics.update(measure_imports())
    metrics["trace.overhead_s"] = sum(o.raw[0] for o in ops1) - sum(o.raw[0] for o in ops_u)
    metrics["trace.counter_mismatches"] = float(len(flags))
    spans_file = work_root / f"spans-{wl.name}.json"
    spans_file.write_text(json.dumps({"workload": wl.name, "seed": wl.seed, "spans": spans}))
    return {"passes": 3, "metrics": metrics, "flags": flags, "spans_file": str(spans_file),
            "ops": ops_u + ops1 + ops2}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--references", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import coldplasma

    if not Path(coldplasma.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"coldplasma imported from {coldplasma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.quick,
                                  load_references(args.references, args.workload), args.work,
                                  _PROBE)
    wl.build()
    t1 = time.perf_counter()
    _PROBE.stop()
    _PROBE.sample(HostProbe.NEAREST)
    raw_setup_s = t1 - _T0
    setup_s = (raw_setup_s - _PROBE.spent(_T0, t1)[0]) * _PROBE.factors(_T0, t1)[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    res = traced(wl, args.work.parent) if args.trace else untraced(wl, args.seconds)
    ops = res.pop("ops")
    errors = [o.error for o in ops if o.error]
    res.update(setup_s=setup_s, raw_setup_s=raw_setup_s, attempted=len(ops), failed=len(errors),
               errors=errors[:_MAX_ERRORS])
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
