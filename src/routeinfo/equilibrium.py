"""Regime classification and the closed-form equilibrium.

With the low-accuracy service fixed at a coin flip, the game has three
positive-mass types (L, Hn, Ha) and its equilibria fall into four regimes of
the informed fraction lambda, separated by boundaries lambda_bar_1 <=
lambda_bar_2 <= lambda_bar_3. Qualitatively:

- R1 (lambda < lb1): informed players track their signal exactly (route 1 on
  the normal signal, route 2 on the incident signal); the uninformed split.
- R2 (lb1 <= lambda <= lb2): the informed population is too large to fit on
  route 2 after an incident signal, so it splits there ("concentration").
- R3 (lb2 < lambda < lb3): the uninformed abandon route 1 entirely.
- R4 (lb3 <= lambda): the informed split on both signals; route loads hit the
  per-state equalizing values and everyone faces the same costs.

``classify`` and ``solve_bwe`` broadcast over array-valued fields: the
regime is an index computed from the three boundaries, and ``solve_bwe``
evaluates every regime's closed form and keeps the classified one, so a
sweep is one call and each element equals the scalar call at that point.
The same code takes ``Fraction`` fields, and ``regime_boundaries``,
``classify`` and ``solve_bwe`` then answer in exact fractions. Scalar
fields run in plain Python, without numpy (see ``model``).

One private kernel, ``_evaluate``, computes the derived constants, the type
marginals and the three boundaries of an environment, each once;
``regime_boundaries``, ``classify``, ``solve_bwe`` and ``value.lambda_min``
read them, with the regime index of the environment's lambda, from
``_evaluation``. None of the three reads lambda: they are functions of the
network, p_incident and the two accuracies alone. So the last evaluation in
plain Python is kept under that lambda-free part of its environment (by the
rules of ``model._Kept``), and any environment that shares it, a point of a
lambda sweep or the lambda = 0 baseline of a cost report, reuses it and
computes only its regime index: a lambda sweep computes the evaluation
once, a sweep of p or eta_h at every point.

The closed forms read only ``model``: the derived constants K0..K4, the type
marginals P(Hn) and P(Ha) and the ``StrategyProfile`` they return. The
checks of a profile against the equilibrium definition (the Wardrop residual
and the 27-pattern table) are ``oracle``'s, built from the beliefs and
latencies alone.
"""

from __future__ import annotations

from .model import (
    InfoEnvironment,
    NetworkParams,
    StrategyProfile,
    _as_results,
    _choose,
    _clip,
    _derived_constants,
    _enforce,
    _ieee,
    _Kept,
    _lambda_free_key,
    _Record,
    _require_uninformative,
    _trusted,
    _where,
    _zeros_like,
    marginal_type_dist,
)

#: Ties against a regime boundary within this tolerance resolve to the
#: closed regime there: R2 at both of its ends, R4 at lambda_bar_3, also
#: where lambda_bar_2 lies within this tolerance of it.
BOUNDARY_TOL = 1e-12


class Regime(_Record):
    """Regime label (R1..R4) with the boundaries it was classified against."""

    label: str
    lambda_bar_1: float
    lambda_bar_2: float
    lambda_bar_3: float

    @property
    def bounds(self) -> tuple:
        return (self.lambda_bar_1, self.lambda_bar_2, self.lambda_bar_3)


#: lambda_bar_1 and lambda_bar_2 divide by these products, which validation
#: cannot see: at a subnormal demand, or at slopes near 1e-30 with demand
#: 1e-300, they underflow to 0.
_BOUNDARY_DENOMINATOR_RULE = (
    (
        "not_finite",
        lambda lb1_den, lb2_den, d: (lb1_den != 0) & (lb2_den != 0),
        lambda lb1_den, lb2_den, d: (
            f"need nonzero demand * P(Hn) * (a1_hat + slope2 * P(Ha)) and "
            f"demand * P(Hn), the denominators of lambda_bar_1 and lambda_bar_2, "
            f"got {lb1_den} and {lb2_den} at demand {d}"
        ),
    ),
)


def _boundaries(params: NetworkParams, k, dist) -> tuple:
    """lambda_bar_1..3 from the derived constants and the type marginals.

    Raises ``not_finite`` where a denominator of lambda_bar_1 or
    lambda_bar_2 underflows to 0.
    """
    d, a2 = params.demand, params.slope2
    lb2_den = d * dist.p_Hn
    lb1_den = lb2_den * (k.a1_hat + a2 * dist.p_Ha)
    _enforce(_BOUNDARY_DENOMINATOR_RULE, lb1_den, lb2_den, d)
    lb1 = k.k1 * (k.a1_hat - k.a1_bar * dist.p_Ha) / lb1_den
    lb2 = (k.k1 - dist.p_Ha * k.k2) / lb2_den
    lb3 = k.k3 / d
    return (lb1, lb2, lb3)


def regime_boundaries(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """The three lambda thresholds separating the four regimes."""
    return _evaluation(params, env)[2]


_LABELS = ("R1", "R2", "R3", "R4")


def _regime_index(lam, bounds):
    """0..3 for R1..R4 at each lambda, by the membership rules of ``classify``.

    Each flag marks lambda below the closed start of the next regime; the
    cumulative ``|`` reads the flags in order, as an ``if``/``elif`` chain
    over the three boundaries would. lambda = 0 is R1 even when
    lambda_bar_1 lies within BOUNDARY_TOL of 0: no other closed form is
    defined there. Where lambda_bar_2 and lambda_bar_3 lie within
    BOUNDARY_TOL of each other, R4's closed start wins over R2's tolerance:
    R2's closed form is exact only up to lambda_bar_2.
    """
    lb1, lb2, lb3 = bounds
    below_r2 = (lam < lb1 - BOUNDARY_TOL) | (lam == 0)
    below_r3 = below_r2 | ((lam <= lb2 + BOUNDARY_TOL) & (lam < lb3 - BOUNDARY_TOL))
    below_r4 = below_r3 | (lam < lb3 - BOUNDARY_TOL)
    return 3 - below_r2 - below_r3 - below_r4


def _evaluate(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """(derived constants, type marginals, boundaries) at ``env``: everything
    the closed forms read but the regime index, each computed once, after
    the environment's scope check and with the errors of ``_boundaries``.
    None of it reads ``env.frac_informed``."""
    _require_uninformative(env)
    dist = marginal_type_dist(env)
    k = _derived_constants(params, env, dist)
    return k, dist, _boundaries(params, k, dist)


#: The last evaluation made in plain Python, kept under its network and the
#: lambda-free fields of its environment.
_EVALUATIONS = _Kept()


def _evaluation(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """``_evaluate(params, env)`` and the regime index of ``env``'s lambda.

    The evaluation is reused while ``params`` and the lambda-free fields of
    ``env`` are those last evaluated, by the rules of ``model._Kept``; the
    regime index is computed at every call.
    """
    evaluation = _EVALUATIONS.get(params, _lambda_free_key(env), _evaluate, params, env)
    return (*evaluation, _regime_index(env.frac_informed, evaluation[2]))


def classify(params: NetworkParams, env: InfoEnvironment) -> Regime:
    """The regime containing ``env.frac_informed``.

    Membership follows the half-open set definitions (R2 closed on both
    ends, R3 open, R4 closed at lambda_bar_3); ties within BOUNDARY_TOL go
    to the closed regime there (R2 at lambda_bar_1 and lambda_bar_2, R4 at
    lambda_bar_3, which wins where lambda_bar_2 lies within BOUNDARY_TOL of
    it), so the choice is deterministic. The split fractions are continuous
    across the boundaries, so the tie rule is cost-free, and lambda = 0 is
    always R1. Array-valued fields give arrays of labels and boundaries.
    """
    _, _, bounds, regime = _evaluation(params, env)
    return Regime(*_as_results(_choose(regime, _LABELS), *bounds))


def solve_bwe(params: NetworkParams, env: InfoEnvironment) -> StrategyProfile:
    """Closed-form Bayesian Wardrop equilibrium for the classified regime.

    Each regime's closed form is evaluated at every point and the classified
    one is kept, so array-valued fields solve a whole sweep in one call, and
    ``Fraction`` fields give exact fractions through the same code. At
    lambda = 1 the uninformed population is empty; rho_L is reported as 0
    with ``l_population_empty`` set, so downstream cost formulas never
    silently multiply an undefined fraction by zero demand.
    """
    k, dist, _, regime = _evaluation(params, env)
    lam, d, p_hn, p_ha = env.frac_informed, params.demand, dist.p_Hn, dist.p_Ha

    def table(uninformed, informed):
        """Every regime's closed form at every point, as a regime x (rho_L,
        rho_Hn, rho_Ha) table."""
        r34_rho_ha = k.k2 / (informed * d)
        zero = _zeros_like(r34_rho_ha)
        one = zero + 1
        return [
            [k.k1 / (uninformed * d) - p_hn * lam / uninformed, one, zero],
            [
                (k.k1 - lam * d * p_hn - p_ha * k.k2) / (uninformed * d * p_hn),
                one,
                (lam * d * p_hn + k.k2 - k.k1) / (informed * d * p_hn),
            ],
            [zero, one, r34_rho_ha],
            [zero, k.k3 / (informed * d), r34_rho_ha],
        ]

    # The denominator bases 1 - lambda (read in R1 and R2) and lambda (from
    # R2 on) are 1 where unread, so no unread branch divides by zero. A read
    # one may still overflow, or divide by a product that underflows to 0,
    # at extreme floats; ``_ieee`` gives numpy's inf or NaN there, clamped.
    uninformed = _where(regime <= 1, 1 - lam, 1)
    informed = _where(regime >= 1, lam, 1)
    rows = _ieee(table, uninformed, informed)
    rho_l, rho_hn, rho_ha = (_clip(r, 0, 1) for r in _choose(regime, rows))
    empty = (regime == 3) & (lam == 1)
    return _trusted(StrategyProfile, *_as_results(rho_l, rho_hn, rho_ha, empty))
