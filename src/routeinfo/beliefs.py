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

The first two keep all four signal-conditioned types (Ln, La, Hn, Ha); no
equilibrium is computed from them — they exist for completeness and testing.
Everything downstream (equilibrium, costs, value) runs on the third.

Functions are pure; profile and environment fields may be numpy arrays of a
common broadcast shape, in which case belief entries and costs come back as
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    ValidationError,
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


def _own_posterior(env: InfoEnvironment, owner: PlayerType, state: State):
    """P(state | own type) via Bayes on the owner's signal."""
    service, signal = _signal_of(owner)
    p_a = posterior_state(env, service, signal)
    return p_a if state == State.INCIDENT else 1 - p_a


def belief_conditional_ck(env: InfoEnvironment, owner: PlayerType) -> BeliefTable:
    """Interim belief when opponent conditional likelihoods are common knowledge.

    Entry (s, t_opp) = P(s | own type) * P(t_opp | s). The owner must be one
    of the four signal-conditioned types (Ln, La, Hn, Ha); the collapsed L is
    meaningless here because this treatment distinguishes the low-accuracy
    signals.
    """
    if owner not in (*_H_TYPES, *_L_TYPES):
        raise ValueError(
            f"owner must be a signal-conditioned type (Ln/La/Hn/Ha), got {owner}"
        )
    opponents = _L_TYPES if owner in _H_TYPES else _H_TYPES
    entries = {}
    for state in (State.INCIDENT, State.NORMAL):
        post = _own_posterior(env, owner, state)
        for t in opponents:
            entries[(state, t)] = post * _type_given_state(env, t, state)
    return BeliefTable(owner=owner, entries=entries)


def belief_marginal_ck(env: InfoEnvironment, owner: PlayerType) -> BeliefTable:
    """Interim belief when only the opponent's marginal type split is known.

    Entry (s, t_opp) = P(s | own type) * P(t_opp); the opponent factor no
    longer depends on the state.
    """
    if owner not in (*_H_TYPES, *_L_TYPES):
        raise ValueError(
            f"owner must be a signal-conditioned type (Ln/La/Hn/Ha), got {owner}"
        )
    dist = marginal_type_dist(env)
    marginals = {
        PlayerType.HN: dist.p_Hn,
        PlayerType.HA: dist.p_Ha,
        PlayerType.LN: dist.p_Ln,
        PlayerType.LA: dist.p_La,
    }
    opponents = _L_TYPES if owner in _H_TYPES else _H_TYPES
    entries = {}
    for state in (State.INCIDENT, State.NORMAL):
        post = _own_posterior(env, owner, state)
        for t in opponents:
            entries[(state, t)] = post * marginals[t]
    return BeliefTable(owner=owner, entries=entries)


def belief_uninformative(env: InfoEnvironment, owner: PlayerType) -> BeliefTable:
    """Interim belief with the low-accuracy service fixed at a coin flip.

    The uninformed population collapses to the single type L: its belief is
    P(state) * P(informed type), independent across the two coordinates. An
    informed type keeps its state posterior and is certain the opponent is L.
    """
    if np.any(np.asarray(env.accuracy_low) != 0.5):
        raise ValidationError(
            "unsupported_treatment",
            f"this belief construction requires accuracy_low == 0.5 exactly, "
            f"got {env.accuracy_low}",
        )
    p = env.p_incident
    dist = marginal_type_dist(env)
    if owner == PlayerType.L:
        entries = {
            (State.INCIDENT, PlayerType.HA): p * dist.p_Ha,
            (State.INCIDENT, PlayerType.HN): p * dist.p_Hn,
            (State.NORMAL, PlayerType.HA): (1 - p) * dist.p_Ha,
            (State.NORMAL, PlayerType.HN): (1 - p) * dist.p_Hn,
        }
        return BeliefTable(owner=owner, entries=entries)
    if owner in _H_TYPES:
        post = _own_posterior(env, owner, State.INCIDENT)
        entries = {
            (State.INCIDENT, PlayerType.L): post,
            (State.NORMAL, PlayerType.L): 1 - post,
        }
        return BeliefTable(owner=owner, entries=entries)
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
    total = 0.0
    for (state, opp), prob in belief.entries.items():
        if opp not in loads:
            opp_rho = profile.split(opp)
            opp_demand = _population_demand(params, env, opp)
            opp_load = opp_rho * opp_demand if route == 1 else (1 - opp_rho) * opp_demand
            loads[opp] = own_load + opp_load
        total = total + prob * latency(params, route, state, loads[opp])
    return total
