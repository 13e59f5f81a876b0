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
from them — they exist for completeness and testing. Everything downstream
(equilibrium, costs, value) runs on the third, and the coin-flip
precondition it shares with them is checked here.

Functions are pure; profile and environment fields may be numpy arrays of a
common broadcast shape, in which case belief entries and costs come back as
arrays, or ``fractions.Fraction`` values, in which case they come back exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .model import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    ValidationError,
    _require_uninformative,
    latency,
)


@dataclass(frozen=True)
class BeliefTable:
    """One type's interim belief: owner plus P(state, opponent type) entries.

    Entries are keyed by (State, opponent PlayerType) and sum to 1.
    """

    owner: PlayerType
    entries: dict


@dataclass(frozen=True)
class MarginalTypeDist:
    """Marginal probabilities of the four signal-conditioned types."""

    p_Ha: float
    p_Hn: float
    p_La: float
    p_Ln: float


_H_TYPES = (PlayerType.HN, PlayerType.HA)
_L_TYPES = (PlayerType.LN, PlayerType.LA)


def _accuracy(env: InfoEnvironment, service: str) -> float:
    if service == "H":
        return env.accuracy_high
    if service == "L":
        return env.accuracy_low
    raise ValueError(f"service must be 'H' or 'L', got {service!r}")


def _signal_of(owner: PlayerType) -> tuple[str, State]:
    """Map a signal-conditioned type to (service, signal received)."""
    return {
        PlayerType.HN: ("H", State.NORMAL),
        PlayerType.HA: ("H", State.INCIDENT),
        PlayerType.LN: ("L", State.NORMAL),
        PlayerType.LA: ("L", State.INCIDENT),
    }[owner]


def _type_given_state(env: InfoEnvironment, t: PlayerType, state: State):
    """Likelihood P(type | state): accuracy if the signal matches the state."""
    service, signal = _signal_of(t)
    eta = _accuracy(env, service)
    return eta if signal == state else 1 - eta


def marginal_type_dist(env: InfoEnvironment) -> MarginalTypeDist:
    """Marginal type probabilities, e.g. P(Ha) = p*eta_H + (1-p)*(1-eta_H)."""
    p = env.p_incident
    p_ha = p * env.accuracy_high + (1 - p) * (1 - env.accuracy_high)
    p_la = p * env.accuracy_low + (1 - p) * (1 - env.accuracy_low)
    return MarginalTypeDist(p_Ha=p_ha, p_Hn=1 - p_ha, p_La=p_la, p_Ln=1 - p_la)


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
        p_a = posterior_state(env, *_signal_of(owner))
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
    if owner == PlayerType.L:
        return _belief(env, owner, (PlayerType.HA, PlayerType.HN), _marginal(env))
    if owner in _H_TYPES:
        return _belief(env, owner, (PlayerType.L,), lambda t, state: 1)
    raise ValueError(f"owner must be L, Hn, or Ha for this treatment, got {owner}")


def _population_demand(params: NetworkParams, env: InfoEnvironment, t: PlayerType):
    lam = env.frac_informed
    if t in (PlayerType.L, PlayerType.LN, PlayerType.LA):
        return (1 - lam) * params.demand
    return lam * params.demand


def expected_route_cost(
    params: NetworkParams,
    env: InfoEnvironment,
    belief: BeliefTable,
    owner: PlayerType,
    route: int,
    profile,
):
    """Expected latency of a route for ``owner`` under ``belief``.

    Each belief entry (state, opponent type) contributes its probability times
    the latency at the combined load of the owner's population and the
    opponent population playing that type's split fraction. Within a state
    each population receives one common signal, so its entire demand moves as
    one type realization. Split fractions come from ``profile.split``, which
    maps ``LN``/``LA`` to the uninformed split. Each opponent type's combined
    load is computed once, however many states its entries cover.
    """
    if belief.owner != owner:
        raise ValidationError(
            "belief_owner_mismatch",
            f"belief belongs to {belief.owner}, not {owner}",
        )
    own_rho = profile.split(owner)
    own_demand = _population_demand(params, env, owner)
    own_load = own_rho * own_demand if route == 1 else (1 - own_rho) * own_demand

    loads = {}
    total = 0
    for (state, opp), prob in belief.entries.items():
        if opp not in loads:
            opp_rho = profile.split(opp)
            opp_demand = _population_demand(params, env, opp)
            opp_load = opp_rho * opp_demand if route == 1 else (1 - opp_rho) * opp_demand
            loads[opp] = own_load + opp_load
        total = total + prob * latency(params, route, state, loads[opp])
    return total
