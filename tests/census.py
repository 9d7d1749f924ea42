"""The certificate census: each printed certificate against the exact oracle.

Every output is classified as

- ``agrees``: the exact dynamics bear the certificate out;
- ``contradicted``: the exact dynamics contradict it;
- ``not covered``: it certifies nothing there (no revolution, say).

This is the census's first slice:

- ``lifetime`` at the pulse centre, as the CLI builds it: the spirals from
  (2K, 0) with ``f_plus=None``, the default sigma pair and ``max_rev`` 16.
  The centre characteristic of a d = 2 pulse at rest runs on the orbit
  through (F, G) = (0, K) with lambda = 2G, so its n revolutions take
  exactly n ``period(0, K, 2)``; a ``T_lower`` above that is contradicted.
  A K that certifies no revolution is not covered.
- ``criterion_1d`` as the control: its verdict (D0^2 + 2 lambda0 - 1 < 0,
  smooth for all time) against the closed-form oracle, on seeded d = 1
  starts off the critical line.

``tests/test_census.py`` pins the contradicted counts.  Run this file to
print the table: ``PYTHONPATH=src python tests/census.py``.
"""

import math
import random
from typing import NamedTuple

from coldplasma.chaplygin_bounds import criterion_1d
from coldplasma.core_dynamics import constant_profile, period
from coldplasma.oracle import run_characteristic
from coldplasma.spiral_counter import build_spiral, lifetime

LIFETIME_K = (0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.18, 0.2, 0.222, 0.25, 0.29, 0.35, 0.4, 0.45)
CRITERION_1D_STARTS, CRITERION_1D_SEED = 300, 20


class Row(NamedTuple):
    """One certificate, what it prints, the exact value and its class."""

    output: str
    case: str
    printed: object
    exact: object
    verdict: str


def lifetime_rows():
    """``lifetime`` at the centre of the d = 2 Gaussian pulse of each K."""
    rows = []
    for K in LIFETIME_K:
        inner, outer = (build_spiral(kind, (2.0 * K, 0.0), None, d=2, max_rev=16) for kind in ("inner", "outer"))
        est = lifetime(inner, outer)
        exact = est.revolutions * period(0.0, K, 2)
        if est.revolutions == 0:
            verdict = "not covered"
        else:
            verdict = "contradicted" if est.T_lower > exact else "agrees"
        rows.append(Row("lifetime", f"K={K} n={est.revolutions}", est.T_lower, exact, verdict))
    return rows


def criterion_1d_rows():
    """``criterion_1d`` on seeded d = 1 starts, F0 ~ U(-1.5, 1.5) and
    G0 ~ U(-1.5, 0.95) with |Delta| > 1e-9, against whether the oracle's
    run breaks at all (t_max = inf)."""
    rng, rows = random.Random(CRITERION_1D_SEED), []
    while len(rows) < CRITERION_1D_STARTS:
        F0, G0 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 0.95)
        run = run_characteristic(constant_profile(F0, G0, 1), 1.0, math.inf)
        lam0, D0 = run.start[:2]
        verdict = criterion_1d(D0, lam0)
        if abs(verdict.value) <= 1e-9:
            continue
        smooth = run.t_star is None
        rows.append(Row("criterion_1d", f"F0={F0:.4f} G0={G0:.4f}", verdict.satisfied, smooth,
                        "agrees" if verdict.satisfied == smooth else "contradicted"))
    return rows


def census():
    return lifetime_rows() + criterion_1d_rows()


def counts(rows):
    """{output: {class: count}} over ``rows``."""
    out = {}
    for row in rows:
        by_class = out.setdefault(row.output, {"agrees": 0, "contradicted": 0, "not covered": 0})
        by_class[row.verdict] += 1
    return out


def _cell(x):
    return f"{x:.6f}" if isinstance(x, float) else str(x)


def main():
    """Print every lifetime row and every criterion_1d row that is not
    borne out, then the counts per output."""
    rows = census()
    print(f"{'output':<14}{'case':<26}{'printed':>12}{'exact':>12}  class")
    for row in rows:
        if row.output == "lifetime" or row.verdict != "agrees":
            print(f"{row.output:<14}{row.case:<26}{_cell(row.printed):>12}{_cell(row.exact):>12}  {row.verdict}")
    print()
    for output, by_class in counts(rows).items():
        print(f"{output:<14}" + ", ".join(f"{n} {c}" for c, n in by_class.items()))


if __name__ == "__main__":
    main()
