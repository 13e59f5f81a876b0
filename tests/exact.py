"""An exact rational reference for the 27-pattern equilibrium table.

With ``Fraction`` fields, ``oracle._type_gaps`` gives each type's
route-cost gap exactly. It is affine in the profile, so its values at the
integer probe profiles (the origin and the three unit profiles) fix its
coefficients ``(g0, C)`` exactly. The reference reads them that way, not
through ``oracle._affine_gaps``, which works in float cost units.

Each pattern in {0, int, 1}^3 fixes some splits and asks the owners of the
others to be indifferent: a linear system of at most 3 x 3, solved here by
Gauss-Jordan elimination in ``Fraction``s. A singular system is checked for
consistency; its solutions are then a particular one plus the null space,
clipped to the box and to the fixed components' preferences. Only a line of
solutions is handled: a consistent system with a larger null space, which
only an empty population (lambda = 0 or 1) can give, raises
``NotImplementedError``. A pattern is
accepted by exact inequalities, with no tolerance: every interior split in
[0, 1], a split fixed at 0 whose owner weakly prefers route 2 (gap >= 0),
one fixed at 1 whose owner weakly prefers route 1 (gap <= 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from routeinfo import InfoEnvironment, NetworkParams, StrategyProfile
from routeinfo.model import _population_demands, _route_load
from routeinfo.oracle import _gap_weights, _type_gaps

#: The 27 patterns over (rho_L, rho_Hn, rho_Ha), in ``enumerate_profiles``'
#: order.
PATTERNS = tuple(itertools.product(("0", "int", "1"), repeat=3))

#: The pattern of each regime's closed form.
EXPECTED_PATTERN = {
    "R1": ("int", "1", "0"),
    "R2": ("int", "1", "int"),
    "R3": ("0", "1", "int"),
    "R4": ("0", "int", "int"),
}


@dataclass(frozen=True)
class Verdict:
    """One pattern's exact verdict.

    ``ends`` holds the accepted solutions' extreme profiles as (rho_L,
    rho_Hn, rho_Ha) tuples: one for a non-singular pattern, the two ends of
    the clipped segment for a singular one, none if it is rejected.
    """

    pattern: tuple
    singular: bool
    ends: tuple

    @property
    def accepted(self) -> bool:
        return bool(self.ends)


def affine_gaps(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """``(g0, C)`` with gap_t(rho) = g0[t] + sum_j C[t][j] * rho_j, exactly.

    Types and splits in (L, Hn, Ha) order. Every field must be a
    ``Fraction`` (or an int), so that no gap is rounded.
    """
    demands = _population_demands(params, env)
    weights = _gap_weights(env, 0)

    def gaps(*rho):
        values = list(_type_gaps(params, demands, weights, StrategyProfile(*rho)))
        if not all(isinstance(v, (Fraction, int)) for v in values):
            raise TypeError(f"inexact gaps {values!r}: the fields must be rational")
        return values

    g0 = gaps(0, 0, 0)
    at_unit = [gaps(*(int(i == j) for i in range(3))) for j in range(3)]
    return g0, [[at_unit[j][t] - g0[t] for j in range(3)] for t in range(3)]


def solve(a: list, b: list) -> tuple:
    """(x, null) for a x = b by Gauss-Jordan elimination in ``Fraction``s.

    ``x`` is a particular solution, None if the system is inconsistent, and
    ``null`` a basis of the null space of ``a``.
    """
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    null = []
    for free in (col for col in range(n) if col not in pivots):
        v = [Fraction(int(col == free)) for col in range(n)]
        for i, col in enumerate(pivots):
            v[col] = -rows[i][free]
        null.append(v)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None, null
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = rows[i][n]
    return x, null


def verdict(g0: list, coef: list, pattern: tuple) -> Verdict:
    """The exact verdict on ``pattern`` in the gaps ``(g0, coef)``."""
    interior = [j for j, s in enumerate(pattern) if s == "int"]
    fixed = {j: Fraction(int(s == "1")) for j, s in enumerate(pattern) if s != "int"}

    def slope(t, rho):
        return sum(c * r for c, r in zip(coef[t], rho))

    base = [fixed.get(j, Fraction(0)) for j in range(3)]
    x, null = solve(
        [[coef[i][j] for j in interior] for i in interior],
        [-g0[i] - slope(i, base) for i in interior],
    )
    singular = bool(null)
    if x is None:
        return Verdict(pattern, singular, ())
    if len(null) > 1:
        raise NotImplementedError(f"{pattern}: a null space of dimension {len(null)}")
    for j, v in zip(interior, x):
        base[j] = v
    step = [Fraction(0)] * 3
    for j, v in zip(interior, null[0] if null else ()):
        step[j] = v

    # Each requirement as c0 + c1 * s >= 0 along base + s * step.
    needs = []
    for j in interior:
        needs += [(base[j], step[j]), (1 - base[j], -step[j])]
    for j, value in fixed.items():
        sign = 1 if value == 0 else -1
        needs.append((sign * (g0[j] + slope(j, base)), sign * slope(j, step)))
    low, high = [], []
    for c0, c1 in needs:
        if c1 == 0:
            if c0 < 0:
                return Verdict(pattern, singular, ())
        else:
            (low if c1 > 0 else high).append(-c0 / c1)
    lo, hi = max(low, default=Fraction(0)), min(high, default=Fraction(0))
    if lo > hi:
        return Verdict(pattern, singular, ())
    ends = {tuple(b + s * d for b, d in zip(base, step)) for s in (lo, hi)}
    return Verdict(pattern, singular, tuple(sorted(ends)))


def table(params: NetworkParams, env: InfoEnvironment) -> list:
    """The exact verdict on each of the 27 patterns, in ``PATTERNS`` order."""
    g0, coef = affine_gaps(params, env)
    return [verdict(g0, coef, pattern) for pattern in PATTERNS]


def route1_loads(params: NetworkParams, env: InfoEnvironment, rho: tuple) -> tuple:
    """Route 1's load under each informed type's signal (Hn, Ha): these two
    loads set every route's load in every state."""
    demands = _population_demands(params, env)
    return tuple(_route_load(demands, rho[0], rho_h, 1) for rho_h in rho[1:])
