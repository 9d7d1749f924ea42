"""Regenerate the stored references in perfbench/references/.

    python3 perfbench/make_references.py

Run from the root of a source checkout.  Only needed when a change to the
program alters its results on purpose; the diff of the reference files then
shows what moved.  The tolerances below are part of the references.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from workloads import (
    BENCH_DIR, BREAKING_GRID, BREAKING_K, BREAKING_T_MAX, BREAKING_TOL, CLI_MODES, PULSE_ARGS,
    ROOT, SRC, WORK_ROOT, child_env,
)

# T_lower comes from adaptive quadrature whose own error estimate reaches
# ~3e-6 on small-amplitude arcs, so a correct quadrature may move it that far.
PULSE_TOL = {"rel": 1e-5, "abs": 1e-9}
# t_star is extrapolated from the integrator's last steps; tol 1e-8 and tol
# 1e-10 runs differ by up to 3.4e-5 (at t ~ 249).
BREAKING_TOL_REF = {"rel": 1e-5, "abs": 1e-4}
# report values: thresholds come from golden-section search at tol 1e-8
CLI_TOL = {"rel": 1e-6, "abs": 1e-9}
# F_end**2 against the first integral at G_end, scaled by 1 + F_end**2;
# tol 1e-9 runs stay below 4e-7 on criterion 10's distribution
AFFINE_REF = {"status": "completed", "blowup": False, "first_integral_tol": 1e-5}


def _write(name: str, data: dict) -> None:
    path = BENCH_DIR / "references" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def pulse_sweep() -> None:
    from coldplasma import cli

    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as out:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(PULSE_ARGS + ["--out-dir", out]) != 0:
                raise SystemExit("the reference sweep failed")
        report = json.loads((Path(out) / "report.json").read_text())
        rows = [[float(x) for x in line.split(",")]
                for line in (Path(out) / "sweep.csv").read_text().split()[1:]]
    rows = [[r, None if math.isnan(b) else b, t] for r, b, t in rows]
    _write("pulse-sweep", {"args": PULSE_ARGS, "tolerance": PULSE_TOL,
                           "report": report, "sweep_csv": rows})


def breaking_sweep() -> None:
    from coldplasma import gaussian_profile
    from coldplasma.oracle import blowup_sweep

    grid = list(np.linspace(*BREAKING_GRID))
    res = blowup_sweep(gaussian_profile(BREAKING_K), grid, t_max=BREAKING_T_MAX, tol=BREAKING_TOL)
    _write("breaking-sweep", {"k": BREAKING_K, "t_max": BREAKING_T_MAX, "tol": BREAKING_TOL,
                              "tolerance": BREAKING_TOL_REF,
                              "t_star": [[float(r), t] for r, t in res]})


def cli_modes() -> None:
    invocations = []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for name, args in CLI_MODES:
            out = Path(tmp) / name
            subprocess.run([sys.executable, "-m", "coldplasma.cli", *args, "--out-dir", str(out)],
                           env=child_env(), check=True, capture_output=True)
            invocations.append({"name": name, "args": args,
                                "report": json.loads((out / "report.json").read_text())})
    _write("cli-modes", {"tolerance": CLI_TOL, "invocations": invocations})


def main() -> None:
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    pulse_sweep()
    breaking_sweep()
    _write("affine-ensemble", AFFINE_REF)
    cli_modes()


if __name__ == "__main__":
    main()
