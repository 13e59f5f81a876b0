"""Interim beliefs and expected route costs.

A player's interim belief is a distribution over (network state, other
population's type) conditioned on the player's own type. Three constructions
are provided, differing in what each population knows about the other
service's signal technology:

- ``belief_conditional_ck``: the opponent service's conditional likelihoods
  are common knowledge, so the opponent-type factor is P(type | state).
- ``belief_marginal_ck``: only the opponent's marginal type distribution is
  common knowledge, so the factor is P(type).
- ``belief_uninformative``: the low-accuracy service is a coin flip (accuracy
  exactly 0.5). Its subscribers collapse to the single type L whose belief
  about the informed side is the product P(state) * P(informed type); an
  informed subscriber keeps only its state posterior and knows the opponent
  type is L.

All three are one construction: entry (state, t_opp) is P(state | own
type) times the treatment's opponent-type factor. The first two keep all
four signal-conditioned types (Ln, La, Hn, Ha); no equilibrium is computed
from them — they exist for completeness and testing. The equilibrium
analysis is that of the third, and the coin-flip precondition it shares
with them is checked here.

``expected_route_cost`` is the public definition of one type's interim cost
on one route, from ``model``'s load rule and signal likelihoods. Its sum is
written once, in ``_interim_cost``, which ``oracle._type_gaps`` also calls:
with one owner's weights for the Wardrop residual and the exact gap rows,
and with the three equilibrium types' weights stacked (``oracle._gap_weights``)
only in the fixed point.

Functions are pure; profile and environment fields may be numpy arrays of a
common broadcast shape, in which case belief entries and costs come back as
arrays, or ``fractions.Fraction`` values, in which case they come back exact.
"""

from __future__ import annotations

from functools import partial

from .model import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    _accuracy,
    _population_demands,
    _Record,
    _require_equilibrium_type,
    _require_splits,
    _require_uninformative,
    _route_load,
    _SIGNALS,
    _type_given_state,
    latency,
    marginal_type_dist,
)


class BeliefTable(_Record):
    """One type's interim belief: owner plus P(state, opponent type) entries.

    Entries are keyed by (State, opponent PlayerType) and sum to 1.
    """

    owner: PlayerType
    entries: dict


_H_TYPES = (PlayerType.HN, PlayerType.HA)
_L_TYPES = (PlayerType.LN, PlayerType.LA)


def posterior_state(env: InfoEnvironment, service: str, signal: State):
    """Posterior incident probability after observing ``signal``.

    P(incident | signal=a) = p*eta / (p*eta + (1-p)(1-eta)) and the mirrored
    expression for signal=n; an accuracy of 0.5 returns the prior.
    """
    p = env.p_incident
    eta = _accuracy(env, service)
    if signal == State.INCIDENT:
        return p * eta / (p * eta + (1 - p) * (1 - eta))
    return p * (1 - eta) / (p * (1 - eta) + (1 - p) * eta)


def _belief(env: InfoEnvironment, owner: PlayerType, opponents, opponent_prob):
    """Entries P(state | owner) * opponent_prob(t, state), incident state first.

    P(state | owner) is Bayes on the owner's signal, or the prior for L.
    """
    if owner == PlayerType.L:
        p_a = env.p_incident
    else:
        p_a = posterior_state(env, *_SIGNALS[owner])
    entries = {}
    for state, post in ((State.INCIDENT, p_a), (State.NORMAL, 1 - p_a)):
        for t in opponents:
            entries[(state, t)] = post * opponent_prob(t, state)
    return BeliefTable(owner=owner, entries=entries)


def _marginal(env: InfoEnvironment):
    """Opponent factor P(t), ignoring the state."""
    dist = marginal_type_dist(env)
    return lambda t, state: getattr(dist, f"p_{t.value}")


def _signal_opponents(owner: PlayerType) -> tuple:
    """The other population's signal-conditioned types."""
    if owner not in (*_H_TYPES, *_L_TYPES):
        raise ValueError(
            f"owner must be a signal-conditioned type (Ln/La/Hn/Ha), got {owner}"
        )
    return _L_TYPES if owner in _H_TYPES else _H_TYPES


def belief_conditional_ck(env: InfoEnvironment, owner: PlayerType) -> BeliefTable:
    """Interim belief when opponent conditional likelihoods are common knowledge.

    Entry (s, t_opp) = P(s | own type) * P(t_opp | s). The owner must be one
    of the four signal-conditioned types (Ln, La, Hn, Ha); the collapsed L is
    meaningless here because this treatment distinguishes the low-accuracy
    signals.
    """
    opponents = _signal_opponents(owner)
    return _belief(env, owner, opponents, partial(_type_given_state, env))


def belief_marginal_ck(env: InfoEnvironment, owner: PlayerType) -> BeliefTable:
    """Interim belief when only the opponent's marginal type split is known.

    Entry (s, t_opp) = P(s | own type) * P(t_opp); the opponent factor no
    longer depends on the state.
    """
    return _belief(env, owner, _signal_opponents(owner), _marginal(env))


def belief_uninformative(env: InfoEnvironment, owner: PlayerType) -> BeliefTable:
    """Interim belief with the low-accuracy service fixed at a coin flip.

    The uninformed population collapses to the single type L: its belief is
    P(state) * P(informed type), independent across the two coordinates. An
    informed type keeps its state posterior and is certain the opponent is L.
    """
    _require_uninformative(env)
    _require_equilibrium_type(owner)
    if owner == PlayerType.L:
        return _belief(env, owner, (PlayerType.HA, PlayerType.HN), _marginal(env))
    return _belief(env, owner, (PlayerType.L,), lambda t, state: 1)


def _informed_weights(belief: BeliefTable) -> dict:
    """``belief``'s entries summed by (state, informed type), in entry order.

    The informed type of an entry is the owner if the owner is informed and
    the opponent otherwise: the type whose split sets the route loads there.
    An informed owner's four-type belief has one entry per uninformed signal
    in each state, and both load the routes alike, so they add; no other
    table has two entries with one key, and its entries keep their bits.
    """
    owner = belief.owner
    weights = {}
    for (state, opp), prob in belief.entries.items():
        key = (state, owner if owner in _H_TYPES else opp)
        weights[key] = weights[key] + prob if key in weights else prob
    return weights


def _interim_cost(params: NetworkParams, demands: tuple, weights: dict, profile, route: int):
    """Sum of weight times the route's latency at the informed type's load,
    over ``weights``' (state, informed type) entries in their order.

    ``demands`` come from ``model._population_demands``. Each informed
    type's load is formed once. A weight may stack several owners' weights
    on a leading axis; the profile's fields may carry that axis too.
    """
    loads = {}
    total = 0
    for (state, informed), weight in weights.items():
        if informed not in loads:
            rho_h = profile.split(informed)
            loads[informed] = _route_load(demands, profile.rho_L, rho_h, route)
        total = total + weight * latency(params, route, state, loads[informed])
    return total


def expected_route_cost(
    params: NetworkParams,
    env: InfoEnvironment,
    belief: BeliefTable,
    route: int,
    profile,
):
    """Expected latency of a route for ``belief.owner`` under ``belief``.

    Each belief entry (state, opponent type) contributes its probability times
    the latency at the route's load while the informed population plays its
    type in that entry: the owner if the owner is informed, the opponent
    otherwise. Within a state each population receives one common signal, so
    its entire demand moves as one type realization. Split fractions come from
    ``profile.split``, which maps ``LN``/``LA`` to the uninformed split. The
    sum is ``_interim_cost`` over ``_informed_weights(belief)``. Every split
    must lie in [0, 1] or be NaN (which gives NaN); otherwise
    ``split_out_of_range`` names the first value outside, in (L, Hn, Ha)
    order, as in ``oracle.wardrop_residual``.
    """
    _require_splits(profile.rho_L, profile.rho_Hn, profile.rho_Ha)
    demands = _population_demands(params, env)
    return _interim_cost(params, demands, _informed_weights(belief), profile, route)
