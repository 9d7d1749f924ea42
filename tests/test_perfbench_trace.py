"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` wraps package functions by name and reads fields of
the trajectories ``integrate`` returns, so a renamed function or a changed
``OdeTrajectory`` breaks ``perfbench/run.py --trace 1``.  This runs the
tracer on a small ODE sweep and a small field lifetime (the spiral layer:
``build_spiral``, ``segment_time`` and ``BoundCurve.value``) in a fresh
interpreter, so the wrappers it installs do not reach the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import coldplasma

_SRC = Path(coldplasma.__file__).resolve().parents[1]
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_TRACED_SWEEP = """
import json, sys
sys.path.insert(0, {perfbench!r})
import tracer
trace = tracer.Tracer()
trace.install()
from coldplasma import core_dynamics, oracle, spiral_counter
sweep = oracle.blowup_sweep(core_dynamics.gaussian_profile(0.45), [0.0, 0.9], t_max=50.0)
assert [r0 for r0, _ in sweep] == [0.0, 0.9]
pulse = core_dynamics.gaussian_profile(0.222)
spiral_counter.guaranteed_field_lifetime([oracle.run_characteristic(pulse, r0, 50.0) for r0 in (0.0, 1.5)])
print(json.dumps(tracer.layer_metrics(trace.summary())))
"""


def test_tracer_counts_the_ode_work_of_a_sweep():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_SWEEP.format(perfbench=str(_PERFBENCH))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["numerics.integrate.steps"] > 0
    assert metrics["numerics.integrate.rhs_evals"] > 0
    assert metrics["spiral_counter.build_spiral.segments"] > 0
    assert metrics["chaplygin_bounds.BoundCurve.value.calls"] > 0
    assert metrics["spiral_counter.segment_time.calls"] > 0
