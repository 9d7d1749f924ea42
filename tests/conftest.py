import mpmath
import numpy as np
import pytest

from coldplasma import (
    build_spiral,
    gaussian_profile,
    optimize_thresholds,
    run_characteristic,
)


@pytest.fixture(autouse=True)
def _mpmath_precision_unchanged():
    """Fail a test that leaves mpmath's global precision changed, and restore it,
    so no later test runs at a precision set by an earlier one."""
    dps = mpmath.mp.dps
    yield
    if mpmath.mp.dps != dps:
        left = mpmath.mp.dps
        mpmath.mp.dps = dps
        pytest.fail(f"the test left mpmath.mp.dps = {left} (was {dps}); use mpmath.workdps")


@pytest.fixture(scope="session")
def thresholds():
    return optimize_thresholds()


@pytest.fixture(scope="session")
def gauss_k01():
    return gaussian_profile(0.1)


@pytest.fixture(scope="session")
def center_run_k01(gauss_k01):
    """High-accuracy center characteristic of the K=0.1 pulse."""
    return run_characteristic(gauss_k01, 0.0, 25.0, tol=1e-12)


@pytest.fixture(scope="session")
def spirals_default_k01():
    """Spec-default spiral pair for K=0.1: start (2K, 0), crossing-refreshed F+."""
    outer = build_spiral("outer", (0.2, 0.0))
    inner = build_spiral("inner", (0.2, 0.0))
    return inner, outer


@pytest.fixture(scope="session")
def spirals_figure_k01():
    """Figure-literal spiral pair for K=0.1: start (K, 0)."""
    outer = build_spiral("outer", (0.1, 0.0))
    inner = build_spiral("inner", (0.1, 0.0))
    return inner, outer


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def count_integrand(monkeypatch):
    """``install(module)``: count the integrand evaluations of each
    ``integrate_singular`` call made by ``module``, one list entry per call."""

    def install(module):
        evals = []
        orig = module.integrate_singular

        def counting(f, a, b):
            evals.append(0)

            def g(end, h):
                evals[-1] += 1
                return f(end, h)

            return orig(g, a, b)

        monkeypatch.setattr(module, "integrate_singular", counting)
        return evals

    return install


@pytest.fixture()
def ode_steps(monkeypatch):
    """Count the DOP853 steps of every ``integrate`` run the oracle makes,
    one list entry per run."""
    from coldplasma import oracle

    steps = []
    orig = oracle.integrate

    def counting(*args, **kwargs):
        traj = orig(*args, **kwargs)
        steps.append(traj.t.size - 1)
        return traj

    monkeypatch.setattr(oracle, "integrate", counting)
    return steps


@pytest.fixture()
def floquet_reads(monkeypatch):
    """``install(*names)``: record, for each call of the named ``_Floquet``
    methods, the number of nodes it is given, one list entry per call.
    Every node value, bound, bracket polynomial and bracket root that the
    search for t* reads goes through ``_node``, ``_below`` and
    ``_polynomials``: ``_below`` bounds and roots its brackets on one
    gather of ``_polynomials``."""
    from coldplasma.oracle import _Floquet

    def install(*names):
        read = []
        for name in names:
            method = getattr(_Floquet, name)

            def counted(flow, f, *args, method=method, **kwargs):
                read.append(np.size(f))
                return method(flow, f, *args, **kwargs)

            monkeypatch.setattr(_Floquet, name, counted)
        return read

    return install
