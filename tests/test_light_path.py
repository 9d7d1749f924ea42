"""numpy only where the ODE runs, scipy nowhere, and each module only where it runs.

The closed-form modes and the package import run on the standard library;
the oracle's ODE engine loads numpy on its first run, and every CLI mode
imports the package modules it runs.  The records are NamedTuples and plain
classes, so no process imports ``dataclasses`` to build them.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coldplasma

_SRC = str(Path(coldplasma.__file__).resolve().parents[1])

_LIGHT_RUNS = [
    ["criterion-1d", "--v0-prime", "0", "--e0-prime", "0.6"],
    ["first-period", "--div-v0", "0", "--div-e0", "0.2"],
    ["gauss-pulse", "--k", "0.15"],
    ["count-revolutions", "--k", "0.1"],
    ["lifetime", "--k", "0.1"],
]


def _loaded_after(code: str, packages=("numpy", "scipy")) -> dict:
    """The module names of each package in ``sys.modules`` after ``code``
    runs in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps({p: sorted(" \
        f"m for m in sys.modules if m == p or m.startswith(p + '.')) for p in {packages!r}}}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_runs(runs, out_dir) -> str:
    return "from coldplasma import cli\n" + "".join(
        f"assert cli.main({args + ['--out-dir', str(out_dir / str(i))]!r}) == 0\n"
        for i, args in enumerate(runs))


def test_import_loads_neither_numpy_nor_scipy():
    assert _loaded_after("import coldplasma") == {"numpy": [], "scipy": []}
    assert _loaded_after("import coldplasma.cli") == {"numpy": [], "scipy": []}


def test_light_cli_modes_load_neither_numpy_nor_scipy(tmp_path):
    assert _loaded_after(_cli_runs(_LIGHT_RUNS, tmp_path)) == {"numpy": [], "scipy": []}
    assert all((tmp_path / str(i) / "report.json").exists() for i in range(len(_LIGHT_RUNS)))


def test_cli_and_light_modes_leave_dataclasses_unloaded(tmp_path):
    # dataclasses also loads inspect, ast, dis and tokenize: about 10 ms of
    # each fresh process
    assert _loaded_after("import coldplasma.cli", ("dataclasses",)) == {"dataclasses": []}
    assert _loaded_after(_cli_runs(_LIGHT_RUNS, tmp_path), ("dataclasses",)) == {"dataclasses": []}


def test_pointwise_criteria_load_only_what_they_run(tmp_path):
    # each CLI mode imports its own modules: the two pointwise criteria need
    # chaplygin_bounds, not the spirals, the dynamics or the oracle
    loaded = _loaded_after(_cli_runs(_LIGHT_RUNS[:2], tmp_path), ("coldplasma",))["coldplasma"]
    assert "coldplasma.chaplygin_bounds" in loaded
    assert not {"coldplasma.spiral_counter", "coldplasma.core_dynamics", "coldplasma.oracle"} & set(loaded)
    assert _loaded_after("import coldplasma", ("coldplasma",)) == {"coldplasma": ["coldplasma"]}


def test_ode_runs_load_numpy_but_not_scipy(tmp_path):
    runs = [["oracle-run", "--k", "0.1", "--r0", "0", "--t-max", "25"],
            ["sweep", "--k", "0.222", "--n-r", "3", "--t-max", "30"]]
    for i, run in enumerate(runs):
        loaded = _loaded_after(_cli_runs([run], tmp_path / str(i)))
        assert "numpy" in loaded["numpy"] and loaded["scipy"] == [], run[0]
        assert (tmp_path / str(i) / "0" / "report.json").exists()


def test_blowup_sweep_leaves_numpy_ma_unloaded():
    code = ("import numpy as np\nfrom coldplasma import blowup_sweep, gaussian_profile\n"
            "sweep = blowup_sweep(gaussian_profile(0.45), np.linspace(0.0, 3.0, 48), 400.0, 1e-8)\n"
            "assert sum(t is not None for _, t in sweep) == 16")
    loaded = _loaded_after(code)["numpy"]
    assert "numpy" in loaded and "numpy.ma" not in loaded


def test_oracle_names_resolve_on_first_use():
    code = ("import sys, coldplasma\nassert 'numpy' not in sys.modules\n"
            "from coldplasma import run_characteristic, BlowupRecord\n"
            "assert run_characteristic.__module__ == 'coldplasma.oracle'\n"
            "assert coldplasma.sandwich_check is sys.modules['coldplasma.oracle'].sandwich_check\n"
            "assert 'blowup_sweep' in dir(coldplasma)")
    assert _loaded_after(code)["numpy"]


def _flat(r):
    return 0.1 * math.exp(-r * r)


# record -> (positional arguments, frozen)
_RECORDS = {
    "FirstIntegralConstant": ((0.25, 2), True),
    "OrbitExtremes": ((-0.1, 0.1, 0.1), True),
    "BoundCurve": ((-0.5, 0.1, 0.0, 1.0, 0.2, 0.3, 2.5), True),
    "CriterionVerdict": ((-0.2, True, "1d-global-smoothness"), True),
    "FixedPointResult": (("lambda1", 0.5, 0.3, 0.0), True),
    "Thresholds": ((0.5, 0.3, 0.9, 0.6), True),
    "SpiralSegment": ((coldplasma.BoundCurve(-0.5, 0.1, 0.0, 1.0, 0.2, 0.3, 2.5), -0.5, -1.2, True),
                      True),
    "LifetimeEstimate": ((1.0, 2.0, 1), True),
    "FieldLifetime": ((1.0, 0.2, ((0.2, 1.0),)), True),
    "BlowupRecord": ((True, 3.0, "inverse-density-zero"), True),
    "PulseScenario": ((0.2,), True),
    "OdeTrajectory": (([0.0, 1.0], [[1.0, 2.0]], abs, "singular-step"), False),
    "RadialProfile": ((_flat, abs, 3, _flat, abs, "flat"), False),
    "Spiral": (("inner", 0.2, 0.0, 2, (0.5, 0.9), [], [-1.2], "cap"), False),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_record_contract(name):
    # positional and keyword construction, attributes, value equality, a repr
    # that names the class, and assignment refused where the record is frozen
    cls, (args, frozen) = getattr(coldplasma, name), _RECORDS[name]
    names = list(inspect.signature(cls).parameters)
    rec = cls(*args)
    assert rec == cls(**dict(zip(names, args))) == cls(*args)
    assert all(getattr(rec, n) is a for n, a in zip(names, args))
    assert repr(rec).startswith(f"{name}({names[0]}=")
    for n, a in zip(names, args):
        if frozen:
            with pytest.raises(AttributeError):
                setattr(rec, n, a)
        else:
            setattr(rec, n, a)
    if frozen:
        assert hash(rec) == hash(cls(*args))


def test_record_defaults_and_checks():
    c = coldplasma
    assert c.BlowupRecord(False) == c.BlowupRecord(False, None, None)
    assert c.OdeTrajectory([0.0], [[1.0]], abs).status == "completed"
    profile = c.RadialProfile(_flat, abs)
    assert (profile.d, profile.dG0, profile.dF0, profile.label) == (2, None, None, "custom")
    a, b = (c.Spiral("outer", 0.2, 0.0, 2, (0.5, 0.9)) for _ in range(2))
    assert a == b and (a.segments, a.crossings, a.stop_reason) == ([], [], "")
    assert a.segments is not b.segments and a.crossings is not b.crossings
    assert c.PulseScenario(0.2) != c.PulseScenario(0.3)
    with pytest.raises(ValueError, match="inadmissible pulse"):
        c.PulseScenario(0.6)
    with pytest.raises(ValueError, match="inadmissible profile"):
        c.RadialProfile(lambda r: 0.6, lambda r: 0.0)
    with pytest.raises(ValueError, match="dimension"):
        c.RadialProfile(_flat, abs, 4)
