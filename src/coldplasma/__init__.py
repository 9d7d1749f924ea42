"""Guaranteed smoothness and blow-up bounds for cold-plasma oscillations.

The package follows one dimensionless electron-plasma characteristic at a
time: the divergence pair (lambda, D) = (Div E, Div v) spirals clockwise
about the origin of its phase plane, and comparison curves sandwich the
squared divergence between axis crossings.  From those curves it counts the
oscillations guaranteed free of density blow-up, brackets the smooth
lifetime by quadrature, evaluates the pointwise smoothness/blow-up criteria,
and cross-checks everything against direct high-accuracy integration of the
exact characteristic systems.

Only the oracle integrates that ODE, and only its engine needs numpy: the
oracle's names below resolve on first use (PEP 562), so ``import coldplasma``
and every closed-form computation run on the standard library alone.
"""

from .chaplygin_bounds import (
    BoundCurve,
    BoundKind,
    CriterionVerdict,
    Side,
    anchor_root_S1,
    anchor_root_S2,
    criterion_1d,
    criterion_first_period,
    irrotational_lower_curve,
    plain_lower_curve,
    q_rhs,
    sigma_curve,
)
from .core_dynamics import (
    FirstIntegralConstant,
    OrbitExtremes,
    RadialProfile,
    constant_profile,
    evaluate_first_integral,
    first_integral_constant,
    g_at_maximum,
    gaussian_profile,
    j_exact_radial,
    orbit_extremes,
    period,
    profile_divergences,
    rhs_divergence,
    rhs_radial,
)
from .numerics import (
    BracketError,
    OdeTrajectory,
    QuadratureError,
    find_root,
    integrate,
    integrate_singular,
    lambert_w,
    optimize_scalar,
)
from .pulse_analysis import (
    DEFAULT_SIGMA1,
    DEFAULT_SIGMA2,
    FixedPointResult,
    NoFixedPointError,
    PulseScenario,
    PulseVerdict,
    Thresholds,
    classify_pulse,
    f_plus_of_lambda0,
    fixed_point,
    lambda1_map,
    lambda2_map,
    lambert_fixed_point,
    optimize_thresholds,
)
from .spiral_counter import (
    FieldLifetime,
    LifetimeEstimate,
    Spiral,
    SpiralSegment,
    build_spiral,
    count_crossing_pairs,
    count_revolutions,
    guaranteed_field_lifetime,
    lifetime,
    segment_time,
)

__version__ = "1.0.0"

_ORACLE_NAMES = frozenset({
    "BlowupRecord",
    "CharacteristicRun",
    "blowup_sweep",
    "count_revolutions_oracle",
    "detect_blowup",
    "run_characteristic",
    "sandwich_check",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
