"""No code path of the package loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import coldplasma

_SRC = str(Path(coldplasma.__file__).resolve().parents[1])

_LIGHT_RUNS = [
    ["criterion-1d", "--v0-prime", "0", "--e0-prime", "0.6"],
    ["first-period", "--div-v0", "0", "--div-e0", "0.2"],
    ["gauss-pulse", "--k", "0.15"],
    ["count-revolutions", "--k", "0.1"],
    ["lifetime", "--k", "0.1"],
]


def _scipy_modules_after(code: str) -> list:
    """scipy module names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(" \
        "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import coldplasma.cli") == []


def test_light_cli_modes_load_no_scipy(tmp_path):
    code = "from coldplasma import cli\n" + "".join(
        f"assert cli.main({args + ['--out-dir', str(tmp_path / str(i))]!r}) == 0\n"
        for i, args in enumerate(_LIGHT_RUNS))
    assert _scipy_modules_after(code) == []
    assert all((tmp_path / str(i) / "report.json").exists() for i in range(len(_LIGHT_RUNS)))


def test_ode_runs_load_no_scipy(tmp_path):
    runs = [["oracle-run", "--k", "0.1", "--r0", "0", "--t-max", "25"],
            ["sweep", "--k", "0.222", "--n-r", "3", "--t-max", "30"]]
    code = "from coldplasma import cli\n" + "".join(
        f"assert cli.main({args + ['--out-dir', str(tmp_path / str(i))]!r}) == 0\n"
        for i, args in enumerate(runs))
    assert _scipy_modules_after(code) == []
    assert all((tmp_path / str(i) / "report.json").exists() for i in range(len(runs)))
