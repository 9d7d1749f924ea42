"""The four benchmark workloads: inputs, operations and correctness checks.

Each workload builds its inputs once (``build``, timed as set-up), then runs
a fixed list of operations per pass (``run_pass``).  Every operation is
timed on its own and checked against the stored references right after it;
an operation that raises, exits nonzero or fails a check counts as failed.

Only ``affine-ensemble`` draws its inputs from the seed.  The other three
run the fixed README / ROADMAP invocations, so their inputs are the same for
every seed.

The package is called through module attributes (``oracle.blowup_sweep``,
never a name bound at import) so that a tracer installed later is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from probe import HostProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"     # scratch space inside the checkout

PULSE_ARGS = ["sweep", "--k", "0.222", "--r-min", "0", "--r-max", "3",
              "--n-r", "16", "--t-max", "150"]
PULSE_ARGS_QUICK = ["sweep", "--k", "0.222", "--r-min", "0", "--r-max", "3",
                    "--n-r", "4", "--t-max", "150"]

BREAKING_K = 0.45
BREAKING_GRID = (0.0, 3.0, 48)
BREAKING_T_MAX, BREAKING_TOL = 400.0, 1e-8

# criterion 10's distribution of spatially constant radial starts
AFFINE_F0 = (-0.4, 0.4)
AFFINE_G0_LOW, AFFINE_G0_HIGH_TIMES_D = -0.6, 0.85
AFFINE_GRID = 4            # starts per dimension d form a GRID x GRID jittered grid
AFFINE_R0, AFFINE_T_MAX, AFFINE_TOL = 1.0, 200.0, 1e-9

CLI_MODES = [
    ("gauss-pulse", ["gauss-pulse", "--k", "0.15"]),
    ("criterion-1d", ["criterion-1d", "--v0-prime", "0", "--e0-prime", "0.6"]),
    ("first-period", ["first-period", "--div-v0", "0", "--div-e0", "0.2"]),
    ("count-revolutions", ["count-revolutions", "--k", "0.1"]),
    ("count-revolutions-start", ["count-revolutions", "--k", "0.1", "--start-lambda", "0.1"]),
    ("lifetime", ["lifetime", "--k", "0.1"]),
    ("oracle-run", ["oracle-run", "--k", "0.1", "--r0", "0", "--t-max", "25", "--tol", "1e-10"]),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("COLDPLASMA_OUT", None)
    return env


def close(got, want, rel: float, abs_: float) -> bool:
    """Recursive comparison: numbers within rel/abs, everything else exact.

    Keys present in ``got`` but not in ``want`` are ignored, so a report may
    gain fields without breaking the reference.
    """
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and close(got[k], v, rel, abs_) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w, rel, abs_) for g, w in zip(got, want)))
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        if math.isnan(want):
            return math.isnan(got)
        return abs(got - want) <= abs_ + rel * abs(want)
    return got == want


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def _checked(check, *args) -> str | None:
    """Run a check on written outputs; unreadable outputs fail the check."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"outputs unreadable: {exc!r}"


class Op:
    """One operation: ``share`` of the work timed as ``span``, and its check's error.

    ``span`` is (start, end, wall, cpu) from ``Workload._timed``, or None for
    an operation that raised.  ``run_pass`` fills in ``raw`` (seconds as read)
    and ``ref`` (reference-host seconds, at the host speed of the whole
    pass), both (wall, cpu).
    """

    __slots__ = ("span", "error", "share", "raw", "ref")

    def __init__(self, span, error: str | None, share: float = 1.0):
        self.span, self.error, self.share = span, error, share
        self.raw = self.ref = (0.0, 0.0)


def _cpu_now() -> float:
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Workload:
    name = ""
    min_passes = 1
    in_process = True    # False: the operations run in child processes

    def __init__(self, seed: int, quick: bool, refs: dict, work: Path, probe: HostProbe):
        self.seed, self.quick, self.ref, self.work, self.probe = seed, quick, refs, work, probe
        self.pass_no = 0

    def build(self) -> None:
        """Build the inputs; timed as set-up."""

    def run_pass(self, tracer=None) -> list[Op]:
        """One pass; in-process work is probed throughout, except under the tracer."""
        self.pass_no += 1
        self.probe.sample(HostProbe.NEAREST)
        t0 = time.perf_counter()
        with (self.probe.sampling() if tracer is None and self.in_process
              else contextlib.nullcontext()):
            ops = self._ops(tracer)
        t1 = time.perf_counter()
        self.probe.sample(HostProbe.NEAREST)
        f_wall, f_cpu = self.probe.factors(t0, t1)
        for op in ops:
            if op.span is not None:
                start, end, wall, cpu = op.span
                p_wall, p_cpu = self.probe.spent(start, end)
                op.raw = (wall * op.share, cpu * op.share)
                op.ref = ((wall - p_wall) * f_wall * op.share, (cpu - p_cpu) * f_cpu * op.share)
        return ops

    @contextlib.contextmanager
    def _timed(self, box: list):
        """Time the block into box = [start, end, wall, CPU of this process and its children]."""
        if not self.in_process:      # no timer probes while a child runs
            self.probe.sample(HostProbe.NEAREST)
        w0, c0 = time.perf_counter(), _cpu_now()
        yield
        w1 = time.perf_counter()
        box[:] = [w0, w1, w1 - w0, _cpu_now() - c0]

    def _ops(self, tracer) -> list[Op]:
        raise NotImplementedError


class PulseSweep(Workload):
    """The README sweep through ``coldplasma.cli.main`` in-process."""

    name = "pulse-sweep"

    def build(self):
        import coldplasma.cli  # noqa: F401  (imported as part of set-up)
        self.args = PULSE_ARGS_QUICK if self.quick else PULSE_ARGS

    def _ops(self, tracer):
        from coldplasma import cli
        out = self.work / f"pulse-{self.pass_no}"
        box = []
        try:
            with self._timed(box), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(self.args + ["--out-dir", str(out)])
        except Exception as exc:
            return [Op(None, f"sweep raised {exc!r}")]
        error = f"sweep exited {rc}" if rc != 0 else _checked(self._check, out)
        if tracer is not None and out.is_dir():
            tracer.counts["cli.bytes_written"] += sum(map(len, dir_bytes(out).values()))
        return [Op(box, error)]

    def _check(self, out: Path) -> str | None:
        tol = self.ref["tolerance"]
        report = json.loads((out / "report.json").read_text())
        want = dict(self.ref["report"])
        if self.quick:
            want.pop("inputs")
        if not close(report, want, tol["rel"], tol["abs"]):
            return f"report.json differs from the reference: {report}"
        lines = (out / "sweep.csv").read_text().split()
        if lines[0] != "r0,blowup_time,T_lower":
            return f"sweep.csv header {lines[0]!r}"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        ref_rows = {round(r, 9): (b, t) for r, b, t in self.ref["sweep_csv"]}
        if not self.quick and len(rows) != len(ref_rows):
            return f"sweep.csv has {len(rows)} rows, reference {len(ref_rows)}"
        for r, b, t in rows:
            if round(r, 9) not in ref_rows:
                return f"sweep.csv row r0={r} has no reference"
            want_b, want_t = ref_rows[round(r, 9)]
            want_b = math.nan if want_b is None else want_b
            if not (close(b, want_b, tol["rel"], tol["abs"])
                    and close(t, want_t, tol["rel"], tol["abs"])):
                return f"sweep.csv row r0={r}: ({b}, {t}) vs reference ({want_b}, {want_t})"
        return None


class BreakingSweep(Workload):
    """``oracle.blowup_sweep`` over a large pulse: ODE work with blow-up lanes."""

    name = "breaking-sweep"

    def build(self):
        from coldplasma import core_dynamics
        self.profile = core_dynamics.gaussian_profile(BREAKING_K)
        grid = np.linspace(*BREAKING_GRID)
        self.grid = list(grid[::8] if self.quick else grid)

    def _ops(self, tracer):
        from coldplasma import oracle
        box = []
        try:
            with self._timed(box):
                res = oracle.blowup_sweep(self.profile, self.grid,
                                          t_max=BREAKING_T_MAX, tol=BREAKING_TOL)
        except Exception as exc:  # every radius of the sweep failed
            return [Op(None, f"blowup_sweep raised {exc!r}") for _ in self.grid]
        tol = self.ref["tolerance"]
        ref = {round(r, 9): t for r, t in self.ref["t_star"]}
        ops = []
        for r, t in res:
            want = ref.get(round(float(r), 9), "missing")
            if want == "missing":
                err = f"r0={r} has no reference"
            elif (t is None) != (want is None):
                err = f"r0={r}: blow-up {t} vs reference {want}"
            elif t is not None and not close(t, want, tol["rel"], tol["abs"]):
                err = f"r0={r}: t_star {t} vs reference {want}"
            else:
                err = None
            # one sweep call: its time is shared evenly among the radii
            ops.append(Op(box, err, 1.0 / len(res)))
        return ops


def affine_starts(seed: int, grid: int) -> list[tuple[float, float, int]]:
    """Seeded draw of (F0, G0, d) from criterion 10's distribution.

    For each d in {2, 3} the unit square is cut into grid x grid cells and
    one uniform point is drawn per cell (jittered sampling), so the total
    work varies little between seeds.  The result alternates d = 2, 3.
    """
    rng = np.random.default_rng(seed)
    per_d = {}
    for d in (2, 3):
        ii, jj = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
        u = (ii.ravel() + rng.random(grid * grid)) / grid
        v = (jj.ravel() + rng.random(grid * grid)) / grid
        lo, hi = AFFINE_F0
        g_hi = AFFINE_G0_HIGH_TIMES_D / d
        per_d[d] = [(float(lo + (hi - lo) * a), float(AFFINE_G0_LOW + (g_hi - AFFINE_G0_LOW) * b), d)
                    for a, b in zip(u, v)]
    return [s for pair in zip(per_d[2], per_d[3]) for s in pair]


class AffineEnsemble(Workload):
    """Seeded spatially constant radial starts, each run to t = 200."""

    name = "affine-ensemble"

    def build(self):
        from coldplasma import core_dynamics
        self.starts = affine_starts(self.seed, 1 if self.quick else AFFINE_GRID)
        self.profiles = [core_dynamics.constant_profile(*s) for s in self.starts]

    def _ops(self, tracer):
        from coldplasma import core_dynamics, oracle
        ref = self.ref
        ops = []
        for (F0, G0, d), profile in zip(self.starts, self.profiles):
            box = []
            try:
                with self._timed(box):
                    run = oracle.run_characteristic(profile, AFFINE_R0, AFFINE_T_MAX, tol=AFFINE_TOL)
                    rec = oracle.detect_blowup(run)
            except Exception as exc:
                ops.append(Op(None, f"start {(F0, G0, d)} raised {exc!r}"))
                continue
            traj = run.trajectory
            F, G = traj.final_state[:2]
            resid = core_dynamics.evaluate_first_integral(
                G, core_dynamics.first_integral_constant(F0, G0, d)) - F * F
            err = None
            if traj.status != ref["status"] or rec.detected != ref["blowup"]:
                err = f"start {(F0, G0, d)}: status {traj.status}, blow-up {rec.detected}"
            elif not abs(resid) <= ref["first_integral_tol"] * (1.0 + F * F):
                err = f"start {(F0, G0, d)}: first-integral residual {resid:.3e}"
            ops.append(Op(box, err))
        return ops


class CliModes(Workload):
    """The light README invocations, each a fresh ``python -m coldplasma.cli``."""

    name = "cli-modes"
    min_passes = 2           # reports are compared byte for byte across passes
    in_process = False

    def __init__(self, *args):
        super().__init__(*args)
        self.first_bytes = {}    # outputs of the first pass, by invocation
        self.trace_files = []    # shim trace summaries of the current pass

    def build(self):
        import coldplasma.cli  # noqa: F401  (imported as part of set-up)

    def _ops(self, tracer):
        self.trace_files = []
        tol = self.ref["tolerance"]
        ref = {inv["name"]: inv["report"] for inv in self.ref["invocations"]}
        env = child_env()
        ops = []
        for name, args in CLI_MODES:
            out = self.work / f"cli-{self.pass_no}" / name
            if tracer is None:
                cmd = [sys.executable, "-m", "coldplasma.cli"]
            else:
                trace_file = self.work / f"cli-{self.pass_no}-{name}.trace.json"
                self.trace_files.append(trace_file)
                cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(trace_file)]
            box = []
            with self._timed(box):
                proc = subprocess.run(cmd + args + ["--out-dir", str(out)], env=env, cwd=ROOT,
                                      capture_output=True, timeout=120)
            ops.append(Op(box, _checked(self._check, name, proc, out, ref.get(name), tol)))
            if tracer is not None and out.is_dir():
                tracer.counts["cli.bytes_written"] += sum(map(len, dir_bytes(out).values()))
        return ops

    def _check(self, name, proc, out: Path, want, tol) -> str | None:
        if proc.returncode != 0:
            return f"{name} exited {proc.returncode}: {proc.stderr.decode()[-300:]}"
        files = dir_bytes(out)
        report = json.loads(files["report.json"])
        if want is None or not close(report, want, tol["rel"], tol["abs"]):
            return f"{name}: report differs from the reference: {report}"
        first = self.first_bytes.setdefault(name, files)
        if files != first:
            changed = sorted(k for k in set(files) | set(first) if files.get(k) != first.get(k))
            return f"{name}: outputs not byte-identical across reruns: {changed}"
        return None


WORKLOADS = {w.name: w for w in (PulseSweep, BreakingSweep, AffineEnsemble, CliModes)}


def load_references(ref_dir: Path, name: str) -> dict:
    return json.loads((ref_dir / f"{name}.json").read_text())
