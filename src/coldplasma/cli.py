"""Batch command-line front end.

Scenario parameters come from subcommand flags, optionally seeded from a
JSON config file (flags override the file).  Every run validates its full
configuration before doing any work and, only once the mode has succeeded,
writes a deterministic ``report.json`` (stable key order, no timestamps)
plus CSV curve samples into the output directory.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.

Each mode imports the modules it runs when it runs, so a fresh process
compiles only those: only ``oracle-run`` and ``sweep`` integrate the
characteristic ODE, and they alone import the oracle, and with it numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .numerics import QuadratureError
from .pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

REQUIRED = object()   # default of a parameter that has to be given


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    # one %-format per row: the same bytes as f"{v:.15g}" per value
    fmt = ",".join(["%.15g"] * len(header))
    lines = [",".join(header)]
    lines.extend(fmt % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(out_dir: Path, report: dict) -> None:
    report = dict(report)
    report["tool_version"] = __version__
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# Each handler takes the validated configuration and returns its own report
# keys and its CSVs as {file name: (header, rows)}; ``main`` adds ``mode`` and
# ``inputs`` (the configuration itself) and writes nothing until it returns.

def _cmd_criterion_1d(cfg: dict):
    from .chaplygin_bounds import criterion_1d

    v = criterion_1d(cfg["v0_prime"], cfg["e0_prime"])
    return {"delta": v.value, "verdict": "satisfied" if v.satisfied else "violated"}, {}


def _cmd_first_period(cfg: dict):
    from .chaplygin_bounds import criterion_first_period

    v = criterion_first_period(cfg["div_v0"], cfg["curl_sq"], cfg["div_e0"])
    return {"delta_minus": v.value, "verdict": "satisfied" if v.satisfied else "violated"}, {}


def _cmd_gauss_pulse(cfg: dict):
    from .pulse_analysis import PulseScenario, classify_pulse, optimize_thresholds

    K = cfg["k"]
    scenario = PulseScenario(K)
    th = optimize_thresholds()
    verdict = classify_pulse(K)
    return {
        "lambda0_at_origin": scenario.lambda0_at_origin,
        "thresholds": {
            "sigma1": th.sigma1,
            "lambda1": th.lambda1,
            "sigma2": th.sigma2,
            "lambda2": th.lambda2,
            "smooth_K": th.smooth_K,
            "blowup_K": th.blowup_K,
        },
        "verdict": verdict.value,
    }, {}


def _spiral_pair(cfg: dict):
    """Outer and inner spirals from (lambda0, 0), with both CSVs.

    Resolves ``start_lambda`` (default 2K) in ``cfg`` so that the report's
    inputs show the start actually used; returns the spirals, the report
    keys the two spiral modes share and the CSVs.
    """
    from .pulse_analysis import PulseScenario
    from .spiral_counter import build_spiral

    K = cfg["k"]
    PulseScenario(K)
    if cfg["start_lambda"] is None:
        cfg["start_lambda"] = 2.0 * K
    lam0 = cfg["start_lambda"]
    sigma_pair = (cfg["sigma1"], cfg["sigma2"])
    spirals = {kind: build_spiral(kind, (lam0, 0.0), None, sigma_pair, 2, cfg["max_rev"])
               for kind in ("outer", "inner")}
    csvs = {
        f"spiral_{kind}.csv": (
            ("curve_id", "s", "lambda", "D"),
            [(float(i), s, s + 1.0, dv) for i, seg in enumerate(spiral.segments)
             for s, dv in zip(*seg.sample())],
        )
        for kind, spiral in spirals.items()
    }
    return spirals["outer"], spirals["inner"], {"start_point": [lam0, 0.0]}, csvs


def _cmd_count_revolutions(cfg: dict):
    from .spiral_counter import count_revolutions

    outer, inner, report, csvs = _spiral_pair(cfg)
    return {
        **report,
        "revolutions": count_revolutions(outer),
        "outer_crossings_lambda": outer.crossings_lambda,
        "inner_crossings_lambda": inner.crossings_lambda,
        "outer_stop_reason": outer.stop_reason,
    }, csvs


def _cmd_lifetime(cfg: dict):
    from .spiral_counter import lifetime

    outer, inner, report, csvs = _spiral_pair(cfg)
    est = lifetime(inner, outer)
    return {**report, "revolutions": est.revolutions,
            "T_lower": est.T_lower, "T_upper": est.T_upper}, csvs


def _cmd_oracle_run(cfg: dict):
    from .core_dynamics import gaussian_profile, profile_divergences
    from .oracle import count_revolutions_oracle, detect_blowup, run_characteristic, sandwich_check

    profile = gaussian_profile(cfg["k"])
    r0 = cfg["r0"]
    run = run_characteristic(profile, r0, cfg["t_max"], tol=cfg["tol"], d_cap=cfg["d_cap"])
    blow = detect_blowup(run)
    lam0, D0 = profile_divergences(profile, r0)
    violation = None
    if len(run.crossing_times) >= 1 and not blow.detected:
        violation = sandwich_check(run, max_arcs=6)
    F, G, lam, Dv, r = run.trajectory.y
    return {
        "start": {"lambda0": lam0, "div_v0": D0},
        "revolutions": count_revolutions_oracle(run),
        "crossing_times": [float(t) for t in run.crossing_times],
        "crossing_lambdas": [float(x) for x in run.crossing_lambdas],
        "blowup": {"detected": blow.detected, "t_star": blow.t_star,
                   "method": blow.method},
        "sandwich_violation": violation,
        "status": run.trajectory.status,
        "floquet": run.floquet,
    }, {"trajectory.csv": (("t", "lambda", "D", "F", "G", "r"),
                           zip(run.trajectory.t, lam, Dv, F, G, r))}


def _cmd_sweep(cfg: dict):
    from .core_dynamics import gaussian_profile
    from .numerics import linspace
    from .oracle import blowup_sweep
    from .spiral_counter import guaranteed_field_lifetime

    profile = gaussian_profile(cfg["k"])
    r_min, r_max, n_r = cfg["r_min"], cfg["r_max"], cfg["n_r"]
    if not (0.0 <= r_min < r_max) or n_r < 2:
        raise ConfigError("sweep requires 0 <= r_min < r_max and n_r >= 2")
    grid = linspace(r_min, r_max, n_r)
    blow = blowup_sweep(profile, grid, t_max=cfg["t_max"], tol=cfg["tol"])
    detected = [(r, t) for r, t in blow if t is not None]
    t_min = min((t for _, t in detected), default=None)
    r_at = next((r for r, t in detected if t == t_min), None)
    life = guaranteed_field_lifetime(profile, grid)
    rows = [(r, blow[i][1] if blow[i][1] is not None else math.nan, life.per_radius[i][1])
            for i, r in enumerate(grid)]
    caveat = None
    if t_min is None:
        caveat = (
            "no blow-up detected within t_max along exact characteristics; "
            "externally reported breaking times for this pulse may be in "
            "unscaled units and are not directly comparable"
        )
    return {
        "min_blowup_time": t_min,
        "r_at_min_blowup": r_at,
        "guaranteed_lifetime": life.T_star if math.isfinite(life.T_star) else None,
        "r_at_min_lifetime": life.r_at_min,
        "caveat": caveat,
    }, {"sweep.csv": (("r0", "blowup_time", "T_lower"), rows)}


_K = {"k": (float, REQUIRED, "pulse amplitude")}
_SPIRAL = {
    **_K,
    "start_lambda": (float, None, "start divergence override (default 2K)"),
    "sigma1": (float, DEFAULT_SIGMA1, "lower-family sigma"),
    "sigma2": (float, DEFAULT_SIGMA2, "upper-family sigma"),
    "max_rev": (int, 16, "revolution cap"),
}

# mode -> (handler, {parameter: (type, default, help)}); each parameter is
# both a flag (--name-with-dashes) and a config-file key.
_MODES = {
    "criterion-1d": (_cmd_criterion_1d, {
        "v0_prime": (float, REQUIRED, "initial velocity derivative"),
        "e0_prime": (float, REQUIRED, "initial field derivative"),
    }),
    "first-period": (_cmd_first_period, {
        "div_v0": (float, REQUIRED, "initial velocity divergence"),
        "curl_sq": (float, 0.0, "squared curl norm"),
        "div_e0": (float, REQUIRED, "initial field divergence"),
    }),
    "gauss-pulse": (_cmd_gauss_pulse, _K),
    "count-revolutions": (_cmd_count_revolutions, _SPIRAL),
    "lifetime": (_cmd_lifetime, _SPIRAL),
    "oracle-run": (_cmd_oracle_run, {
        **_K,
        "r0": (float, 0.0, "starting radius"),
        "t_max": (float, 40.0, "integration horizon"),
        "tol": (float, 1e-10, "integrator tolerance"),
        "d_cap": (float, 1e6, "a blow-up run's trajectory ends where lambda reaches -d_cap"),
    }),
    "sweep": (_cmd_sweep, {
        **_K,
        "r_min": (float, 0.0, "grid start"),
        "r_max": (float, 3.0, "grid end"),
        "n_r": (int, 16, "grid size"),
        "t_max": (float, 200.0, "integration horizon"),
        "tol": (float, 1e-8, "integrator tolerance"),
    }),
}


def _typed(key: str, value, typ: type, default):
    """A config-file value as the flag's type would give it.

    Only JSON numbers are accepted (no bool, no string), integral ones for
    integer parameters; ``null`` only where the default is ``null``.
    """
    if value is None and default is None:
        return None
    if type(value) is int or (type(value) is float and (typ is float or value.is_integer())):
        try:
            return typ(value)
        except OverflowError:   # an integer beyond the float range
            pass
    kind = "an integer" if typ is int else "a number"
    raise ConfigError(f"config value for {key} must be {kind}, got {value!r}")


def _load_config_file(path: str, mode: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    params = _MODES[mode][1]
    unknown = set(raw) - set(params) - {"mode"}
    if unknown:
        raise ConfigError(f"unknown config keys for {mode}: {sorted(unknown)}")
    file_mode = raw.pop("mode", mode)
    if file_mode != mode:
        raise ConfigError(f"config is for mode {file_mode!r}, invoked as {mode!r}")
    return {key: _typed(key, value, *params[key][:2]) for key, value in raw.items()}


def _config(ns: argparse.Namespace) -> dict:
    """Table defaults, then the config file, then the flags that were given."""
    params = _MODES[ns.mode][1]
    cfg = {name: default for name, (_, default, _) in params.items()}
    if ns.config:
        cfg.update(_load_config_file(ns.config, ns.mode))
    flags = vars(ns)
    cfg.update({name: flags[name] for name in params if flags[name] is not None})
    missing = [name for name, value in cfg.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"missing required parameter: {missing[0]}")
    for name, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coldplasma",
        description="Guaranteed smoothness/blow-up bounds for cold-plasma oscillations",
    )
    ap.add_argument("--version", action="version", version=f"coldplasma {__version__}")
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode, (_, params) in _MODES.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out-dir", help="output directory (default: $COLDPLASMA_OUT or '.')")
        for name, (typ, _, hlp) in params.items():
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, help=hlp)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    mode = ns.mode
    try:
        cfg = _config(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(ns.out_dir or os.environ.get("COLDPLASMA_OUT", "."))

    t0 = time.perf_counter()
    try:
        report, csvs = _MODES[mode][0](cfg)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {"mode": mode, "inputs": cfg, **report}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in csvs.items():
        _write_csv(out_dir / name, header, rows)
    _write_report(out_dir, report)
    elapsed = time.perf_counter() - t0
    print(f"{mode}: wrote {out_dir / 'report.json'} ({elapsed:.2f}s)", file=sys.stderr)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
