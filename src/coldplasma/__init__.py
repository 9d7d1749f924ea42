"""Guaranteed smoothness and blow-up bounds for cold-plasma oscillations.

The package follows one dimensionless electron-plasma characteristic at a
time: the divergence pair (lambda, D) = (Div E, Div v) spirals clockwise
about the origin of its phase plane, and comparison curves sandwich the
squared divergence between axis crossings.  From those curves it counts the
oscillations guaranteed free of density blow-up, brackets the smooth
lifetime by quadrature, evaluates the pointwise smoothness/blow-up criteria,
and cross-checks everything against direct high-accuracy integration of the
exact characteristic systems.

Only the oracle integrates that ODE, and only its engine needs numpy.
Every name below resolves on first use (PEP 562), importing only the module
that defines it, so ``import coldplasma`` loads no submodule and every
closed-form computation runs on the standard library alone.
"""

import importlib as _importlib

__version__ = "1.0.0"

# every re-export and the module that defines it, imported on first use (PEP 562)
_EXPORTS = {name: module for module, names in {
    "chaplygin_bounds": """BoundCurve CriterionVerdict Side criterion_1d
        criterion_first_period irrotational_lower_curve plain_lower_curve sigma_curve""",
    "core_dynamics": """FirstIntegralConstant OrbitExtremes RadialProfile constant_profile
        evaluate_first_integral first_integral_constant g_at_maximum gaussian_profile
        orbit_extremes period profile_divergences rhs_radial""",
    "numerics": """BracketError OdeTrajectory QuadratureError find_root integrate
        integrate_singular lambert_w optimize_scalar""",
    "pulse_analysis": """DEFAULT_SIGMA1 DEFAULT_SIGMA2 FixedPointResult NoFixedPointError
        PulseScenario PulseVerdict Thresholds classify_pulse f_plus_of_lambda0 fixed_point
        lambda1_map lambda2_map optimize_thresholds""",
    "spiral_counter": """FieldLifetime LifetimeEstimate Spiral SpiralSegment build_spiral
        count_crossing_pairs count_revolutions guaranteed_field_lifetime lifetime segment_time""",
    "oracle": """BlowupRecord CharacteristicRun blowup_sweep count_revolutions_oracle
        detect_blowup run_characteristic sandwich_check""",
}.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
