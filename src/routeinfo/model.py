"""Domain types, parameter validation, latencies, and derived scalar constants.

The physical model is a two-route network where route 1 is incident-prone:
its latency slope jumps from ``slope1_normal`` to ``slope1_incident`` when an
incident occurs. Route 2 is state-independent. Both latencies are affine in
the route load. Demand is carried in thousands of vehicles per hour, so the
default network reads ``demand=5`` with slopes in minutes per 10^3 veh/hr.

``NetworkParams`` and ``InfoEnvironment`` check the model's orderings when
they are constructed and raise ``ValidationError`` on any violation, so an
invalid network or environment never exists and no function downstream
re-checks one. All values are immutable after construction and every
operation is a pure function, so everything here is safe for unrestricted
concurrent use. Any field may be a numpy array, the fields broadcasting
against each other: the closed forms of ``equilibrium``, ``costs`` and
``value`` then answer a whole sweep in one call, and the numerical oracle
solves many environments at once, each stopping when it converges.
Construction then requires every element to satisfy the rules, and an
error names the first element that does not. Broadcasting functions return
Python scalars for scalar inputs and arrays of the common shape otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class State(str, Enum):
    """Network state: route 1 is either normal or carrying an incident."""

    NORMAL = "n"
    INCIDENT = "a"


class PlayerType(str, Enum):
    """Signal-conditioned player types.

    ``L`` is the uninformed population collapsed to a single type, which is
    how it enters every equilibrium-facing computation (its signal carries no
    information at accuracy 0.5). ``LN``/``LA`` keep the uninformed signal
    distinguished and appear only in the general belief tables, where the
    low-accuracy service may be better than a coin flip.
    """

    L = "L"
    HN = "Hn"
    HA = "Ha"
    LN = "Ln"
    LA = "La"


#: Types with positive mass in the equilibrium model (low-accuracy service
#: fixed at 0.5, so the L population needs no signal split).
EQUILIBRIUM_TYPES = (PlayerType.L, PlayerType.HN, PlayerType.HA)


class ValidationError(ValueError):
    """Raised for invalid parameters; ``code`` identifies the violated rule."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class NetworkParams:
    """Two-route network: per-state slopes, intercepts, and total demand.

    Required orderings: slope1_incident > slope2 >= slope1_normal > 0 and
    intercept2 >= intercept1 >= 0, i.e. route 1 is the cheaper free-flow
    road but degrades badly under an incident. Demand must exceed
    (intercept2 - intercept1) / slope1_normal so that route 2 is ever used.
    Construction raises ValidationError unless every ordering holds (for
    every element, when the fields are arrays).
    """

    slope1_normal: float
    slope1_incident: float
    slope2: float
    intercept1: float
    intercept2: float
    demand: float

    def __post_init__(self):
        validate(self, None)


@dataclass(frozen=True)
class InfoEnvironment:
    """Information side of the game: (p, lambda, eta_H, eta_L).

    p_incident: prior incident probability, strictly inside (0, 1).
    frac_informed: fraction of players subscribed to the accurate service.
    accuracy_high: probability the accurate service reports the true state,
        in (0.5, 1].
    accuracy_low: same for the other service; the equilibrium analysis fixes
        it at 0.5 (an uninformative signal), and only the general belief
        tables accept anything in [0.5, accuracy_high).

    Construction raises ValidationError unless every range holds (for every
    element, when the fields are arrays).
    """

    p_incident: float
    frac_informed: float
    accuracy_high: float
    accuracy_low: float = 0.5

    def __post_init__(self):
        validate(None, self)


@dataclass(frozen=True)
class DerivedConstants:
    """Averaged route-1 slopes and the load constants K0..K4.

    a1_bar is the prior-averaged route-1 slope; a1_hat and a1_tilde are the
    signal-weighted averages relevant to the informed types (incident signal
    and normal signal respectively). K1/K2/K3 are the route-1 loads that
    equalize the uninformed, incident-signal, and normal-signal expected
    costs; K4 is the route-1 load in the normal state wherever the informed
    population splits on the incident signal while fully using route 1 on the
    normal one.
    """

    a1_bar: float
    a1_hat: float
    a1_tilde: float
    k0: float
    k1: float
    k2: float
    k3: float
    k4: float


#: The model's rules in checking order: (code, holds, message), where
#: ``holds`` and ``message`` take the fields by keyword. ``abs(x) < inf``
#: tests finiteness for ``Fraction`` fields too, where ``np.isfinite`` raises.
_NETWORK_RULES = (
    (
        "not_finite",
        lambda a1n, a1a, a2, b1, b2, d: (
            (abs(a1n) < np.inf) & (abs(a1a) < np.inf) & (abs(a2) < np.inf)
            & (abs(b1) < np.inf) & (abs(b2) < np.inf) & (abs(d) < np.inf)
        ),
        lambda a1n, a1a, a2, b1, b2, d: (
            f"need finite slope1_normal, slope1_incident, slope2, intercept1, "
            f"intercept2 and demand, got ({a1n}, {a1a}, {a2}, {b1}, {b2}, {d})"
        ),
    ),
    (
        "slope_ordering",
        lambda a1n, a1a, a2, **_: (a1a > a2) & (a2 >= a1n) & (a1n > 0),
        lambda a1n, a1a, a2, **_: (
            f"need slope1_incident > slope2 >= slope1_normal > 0, "
            f"got ({a1a}, {a2}, {a1n})"
        ),
    ),
    (
        "intercept_ordering",
        lambda b1, b2, **_: (b2 >= b1) & (b1 >= 0),
        lambda b1, b2, **_: f"need intercept2 >= intercept1 >= 0, got ({b2}, {b1})",
    ),
    (
        "demand_too_small",
        lambda a1n, b1, b2, d, **_: d > (b2 - b1) / a1n,
        lambda a1n, b1, b2, d, **_: (
            f"demand {d} must exceed "
            f"(intercept2 - intercept1)/slope1_normal = {(b2 - b1) / a1n}"
        ),
    ),
)

_ENVIRONMENT_RULES = (
    (
        "probability_out_of_range",
        lambda p, **_: (p > 0) & (p < 1),
        lambda p, **_: f"p_incident must lie in (0, 1), got {p}",
    ),
    (
        "probability_out_of_range",
        lambda lam, **_: (lam >= 0) & (lam <= 1),
        lambda lam, **_: f"frac_informed must lie in [0, 1], got {lam}",
    ),
    (
        "accuracy_out_of_range",
        lambda eta_h, **_: (eta_h > 0.5) & (eta_h <= 1),
        lambda eta_h, **_: f"accuracy_high must lie in (0.5, 1], got {eta_h}",
    ),
    (
        "accuracy_out_of_range",
        lambda eta_h, eta_l, **_: (eta_l >= 0.5) & (eta_l < eta_h),
        lambda eta_l, **_: f"accuracy_low must lie in [0.5, accuracy_high), got {eta_l}",
    ),
)


def _enforce(rules, **fields) -> None:
    """Raise ValidationError unless every element of ``fields`` obeys ``rules``.

    ``rules`` holds (code, holds, message) triples in checking order. With
    array fields the error names the first element (in C order) that breaks
    any rule, at the first rule it breaks, with that element's values: the
    error a loop checking one element at a time would raise.
    """
    if all(np.asarray(holds(**fields)).all() for _, holds, _ in rules):
        return
    shape = np.broadcast_shapes(*(np.shape(v) for v in fields.values()))
    flat = {k: np.broadcast_to(v, shape).ravel() for k, v in fields.items()}
    with np.errstate(all="ignore"):
        broken = np.stack([~holds(**flat) for _, holds, _ in rules])
    i = int(np.flatnonzero(broken.any(axis=0))[0])
    code, _, message = rules[int(np.flatnonzero(broken[:, i])[0])]
    raise ValidationError(code, message(**{k: v[i].item() for k, v in flat.items()}))


def validate(params: NetworkParams | None, env: InfoEnvironment | None):
    """Check the model invariants of whichever argument is given.

    Network rules run first, then environment rules; a ``None`` argument is
    skipped. Returns the pair unchanged if all hold, else raises
    ValidationError with a distinct code per violated rule: ``not_finite``,
    ``slope_ordering``, ``intercept_ordering``, ``demand_too_small``,
    ``probability_out_of_range``, ``accuracy_out_of_range``. For array
    fields the message names the first offending element (see ``_enforce``).
    Construction of ``NetworkParams`` and ``InfoEnvironment`` calls this on
    itself.
    """
    if params is not None:
        _enforce(
            _NETWORK_RULES,
            a1n=params.slope1_normal,
            a1a=params.slope1_incident,
            a2=params.slope2,
            b1=params.intercept1,
            b2=params.intercept2,
            d=params.demand,
        )
    if env is not None:
        _enforce(
            _ENVIRONMENT_RULES,
            p=env.p_incident,
            lam=env.frac_informed,
            eta_h=env.accuracy_high,
            eta_l=env.accuracy_low,
        )
    return params, env


#: Costs that differ by less than this fraction of the cost scale
#: intercept2 + slope1_incident * demand, which bounds every route's latency,
#: count as equal. Relative to that scale, no comparison depends on the
#: time unit.
_COST_RTOL = 1e-11


def _cost_tol(params: NetworkParams):
    """Absolute slack for comparing two costs on ``params``'s network."""
    return _COST_RTOL * (params.intercept2 + params.slope1_incident * params.demand)


def _as_results(*values) -> list:
    """``values`` broadcast to one shape; Python scalars when that shape is ().

    Every broadcasting function returns through this, so scalar inputs give
    Python ``float``/``str``/``bool`` results and array inputs give arrays
    of their common shape.
    """
    shape = np.broadcast(*values).shape
    if shape == ():
        return [np.asarray(v).item() for v in values]
    return [np.broadcast_to(v, shape) for v in values]


def route_slope(params: NetworkParams, route: int, state: State) -> float:
    """Latency slope of a route in a given state (route 2 ignores the state)."""
    if route == 1:
        return (
            params.slope1_incident if state == State.INCIDENT else params.slope1_normal
        )
    if route == 2:
        return params.slope2
    raise ValueError(f"route must be 1 or 2, got {route}")


def latency(params: NetworkParams, route: int, state: State, load):
    """Travel time on a route carrying ``load``: slope(state) * load + intercept."""
    if (np.asarray(load) < 0).any():
        raise ValidationError("negative_load", f"route load must be >= 0, got {load}")
    if route == 1:
        return route_slope(params, 1, state) * load + params.intercept1
    if route == 2:
        return params.slope2 * load + params.intercept2
    raise ValueError(f"route must be 1 or 2, got {route}")


def derived_constants(params: NetworkParams, env: InfoEnvironment) -> DerivedConstants:
    """Averaged route-1 slopes and the equalizing loads K0..K4."""
    p, eta = env.p_incident, env.accuracy_high
    a1n, a1a, a2 = params.slope1_normal, params.slope1_incident, params.slope2
    d = params.demand

    a1_bar = (1 - p) * a1n + p * a1a
    a1_hat = (1 - p) * (1 - eta) * a1n + p * eta * a1a
    a1_tilde = (1 - p) * eta * a1n + p * (1 - eta) * a1a

    p_ha = p * eta + (1 - p) * (1 - eta)
    p_hn = 1 - p_ha

    k0 = a2 * d - params.intercept1 + params.intercept2
    k1 = k0 / (a1_bar + a2)
    k2 = k0 * p_ha / (a1_hat + p_ha * a2)
    k3 = k0 * p_hn / (a1_tilde + p_hn * a2)
    k4 = k2 * (1 + (a1a - a1n) / (a1_bar + a2))
    return DerivedConstants(a1_bar, a1_hat, a1_tilde, k0, k1, k2, k3, k4)
