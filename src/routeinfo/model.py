"""Domain types, parameter validation, the information structure, latencies,
the load rule, type marginals and masses, and derived scalar constants: the
definitions that the closed forms, the belief layer and the oracles share.

The physical model is a two-route network where route 1 is incident-prone:
its latency slope jumps from ``slope1_normal`` to ``slope1_incident`` when an
incident occurs. Route 2 is state-independent. Both latencies are affine in
the route load. Demand is carried in thousands of vehicles per hour, so the
default network reads ``demand=5`` with slopes in minutes per 10^3 veh/hr.

Every value type of the package is a record: a subclass of ``_Record``
that lists its fields as class annotations. A record is built from its
fields by position or keyword, compares and hashes as the tuple of its
fields, and cannot be changed after construction; ``fields`` names a
record's fields in order and ``replace(record, **changes)`` builds a copy
with some of them changed. ``NetworkParams``, ``InfoEnvironment`` and
``StrategyProfile`` check their rules whenever one is built, ``replace``
included, and raise ``ValidationError`` on any violation, so no invalid
one exists and no function downstream re-checks one. Every operation is
a pure function, so everything here is safe for unrestricted concurrent
use. Any field may be a numpy array, the fields broadcasting
against each other: the closed forms of ``equilibrium``, ``costs`` and
``value`` then answer a whole sweep in one call, and the numerical oracle
solves many environments at once, each stopping when it converges.
Construction then requires every element to satisfy the rules, and an
error names the first element that does not. Broadcasting functions return
Python scalars for scalar inputs and arrays of the common shape otherwise.

numpy is loaded on the first array operand, not at import. The closed forms
are written once, in plain arithmetic; the few array primitives they need
(``_where``, ``_choose``, ``_clip``, ``_ieee``, ``_as_results``, ...) take a
plain-Python branch when no operand has ``__array__``, so a call whose
fields are all Python scalars (``float``, ``int``, ``bool``, ``Fraction``)
never imports numpy, and give the same bits as numpy where one does.
"""

from __future__ import annotations

import math
import sys
from enum import Enum


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


class OracleConvergenceError(RuntimeError):
    """Fixed-point iteration hit max_iters; carries the last iterate (a
    ``StrategyProfile``) and its Wardrop residual."""

    def __init__(self, message: str, last_profile, residual):
        super().__init__(message)
        self.last_profile = last_profile
        self.residual = residual


class _Record:
    """Base of the value types: an immutable record of named fields.

    A subclass lists its fields as class annotations, in order, each with an
    optional default: a literal, which every record built without that field
    shares. They are read once, when the subclass is defined. Each instance
    keeps its fields as instance attributes, set in field order, so
    ``vars(record)`` maps every field name to its value. The base gives what
    ``@dataclass(frozen=True)`` gives:

    - ``__init__`` takes the fields by position, then by keyword, and raises
      the interpreter's ``TypeError`` on a missing, unknown or repeated one;
    - ``__repr__`` is ``Name(field=value, ...)``, and ``__eq__`` (records of
      the same class only) and ``__hash__`` act on the tuple of the fields;
    - assigning or deleting an attribute raises ``AttributeError``.

    A subclass that overrides ``_validate`` has it called at the end of
    every construction, ``replace`` included.
    """

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {}
        for name in names:
            if name in cls.__dict__:
                defaults[name] = cls.__dict__[name]
            elif defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        cls._fields = names
        cls.__init__, cls._fill = _record_init(cls, names, defaults)

    def _validate(self) -> None:
        """Check the fields of a new record; no rule by default."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _record_init(cls, names: tuple, defaults: dict) -> tuple:
    """``(cls.__init__, cls._fill)``, with one parameter per field, as
    ``collections.namedtuple`` and ``dataclasses`` write theirs: the
    interpreter binds the arguments and raises its own ``TypeError`` for a
    bad call. Both store the fields in field order by one update of the
    instance ``__dict__``, which ``__setattr__`` does not guard, so that the
    records of a class share one attribute layout and a field reads fast;
    ``__init__`` then calls an overridden ``_validate``."""
    scope, params = {}, ["self"]
    for i, name in enumerate(names):
        if name in defaults:
            scope[f"_d{i}"] = defaults[name]
            params.append(f"{name}=_d{i}")
        else:
            params.append(name)
    stored = ", ".join(f"{name}={name}" for name in names)
    store = f"    self.__dict__.update({stored})\n" if names else "    pass\n"
    check = "    self._validate()\n" if cls._validate is not _Record._validate else ""
    signature = ", ".join(params)
    exec(f"def __init__({signature}):\n{store}{check}\ndef _fill({signature}):\n{store}", scope)
    for name in ("__init__", "_fill"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return scope["__init__"], scope["_fill"]


def _trusted(cls, *values):
    """A ``cls`` record of ``values`` by position, its defaults after them,
    built by ``_fill`` without ``_validate``: for fields whose rules hold by
    construction, such as the exact images of a checked record's fields or
    the splits the library computes, and are not decided again."""
    record = object.__new__(cls)
    cls._fill(record, *values)
    return record


def fields(record) -> tuple:
    """The field names of a record or record class, in order."""
    cls = record if isinstance(record, type) else type(record)
    if not issubclass(cls, _Record):
        raise TypeError(f"fields() takes a record or record class, not {cls.__name__}")
    return cls._fields


def replace(record, **changes):
    """A new record of ``record``'s class: its fields with ``changes`` applied.

    It is built through the class's ``__init__``, so a record with rules is
    validated again, and a name that is no field raises ``TypeError``.
    """
    return record.__class__(**{**vars(record), **changes})


class NetworkParams(_Record):
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

    def _validate(self) -> None:
        validate(self, None)


class InfoEnvironment(_Record):
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

    def _validate(self) -> None:
        validate(None, self)


class DerivedConstants(_Record):
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


class MarginalTypeDist(_Record):
    """Marginal probabilities of the four signal-conditioned types."""

    p_Ha: float
    p_Hn: float
    p_La: float
    p_Ln: float


#: The ``StrategyProfile`` field of each type's split; the uninformed signal
#: types LN and LA play the uninformed split.
_SPLIT_FIELDS = {
    PlayerType.L: "rho_L",
    PlayerType.LN: "rho_L",
    PlayerType.LA: "rho_L",
    PlayerType.HN: "rho_Hn",
    PlayerType.HA: "rho_Ha",
}


class StrategyProfile(_Record):
    """Split fractions of each type's demand routed onto route 1.

    ``l_population_empty`` marks profiles produced for lambda = 1, where no
    uninformed players exist and ``rho_L`` is a 0.0 placeholder rather than
    an equilibrium quantity.

    Construction raises ``split_out_of_range`` unless every split lies in
    [0, 1] or is NaN, naming the first value outside in (L, Hn, Ha) order,
    and ``shape_mismatch`` unless the splits broadcast together.
    """

    rho_L: float
    rho_Hn: float
    rho_Ha: float
    l_population_empty: bool = False

    def _validate(self) -> None:
        rhos = self.rho_L, self.rho_Hn, self.rho_Ha
        _enforce((), *rhos)
        for rho in rhos:
            _enforce(_SPLIT_RULE, rho)

    def split(self, t: PlayerType):
        try:
            field = _SPLIT_FIELDS[t]
        except KeyError:
            raise ValueError(f"no split fraction for type {t}") from None
        return getattr(self, field)


#: The model's rules in checking order: (code, holds, message), where
#: ``holds`` and ``message`` take the table's fields by position, in the
#: order of their parameters. ``abs(x) < inf`` tests finiteness for
#: ``Fraction`` fields and arrays alike.
_NETWORK_RULES = (
    (
        "not_finite",
        lambda a1n, a1a, a2, b1, b2, d: (
            (abs(a1n) < math.inf) & (abs(a1a) < math.inf)
            & (abs(a2) < math.inf) & (abs(b1) < math.inf)
            & (abs(b2) < math.inf) & (abs(d) < math.inf)
        ),
        lambda a1n, a1a, a2, b1, b2, d: (
            f"need finite slope1_normal, slope1_incident, slope2, intercept1, "
            f"intercept2 and demand, got ({a1n}, {a1a}, {a2}, {b1}, {b2}, {d})"
        ),
    ),
    (
        # Route 1's incident latency at full demand, the network's largest.
        "not_finite",
        lambda a1n, a1a, a2, b1, b2, d: abs(b2 + a1a * d) < math.inf,
        lambda a1n, a1a, a2, b1, b2, d: (
            f"need a finite largest latency intercept2 + slope1_incident * demand, "
            f"got {b2} + {a1a} * {d}"
        ),
    ),
    (
        "slope_ordering",
        lambda a1n, a1a, a2, b1, b2, d: (a1a > a2) & (a2 >= a1n) & (a1n > 0),
        lambda a1n, a1a, a2, b1, b2, d: (
            f"need slope1_incident > slope2 >= slope1_normal > 0, "
            f"got ({a1a}, {a2}, {a1n})"
        ),
    ),
    (
        "intercept_ordering",
        lambda a1n, a1a, a2, b1, b2, d: (b2 >= b1) & (b1 >= 0),
        lambda a1n, a1a, a2, b1, b2, d: f"need intercept2 >= intercept1 >= 0, got ({b2}, {b1})",
    ),
    (
        "demand_too_small",
        lambda a1n, a1a, a2, b1, b2, d: d > (b2 - b1) / a1n,
        lambda a1n, a1a, a2, b1, b2, d: (
            f"demand {d} must exceed "
            f"(intercept2 - intercept1)/slope1_normal = {(b2 - b1) / a1n}"
        ),
    ),
)

_ENVIRONMENT_RULES = (
    (
        "probability_out_of_range",
        lambda p, lam, eta_h, eta_l: (p > 0) & (p < 1),
        lambda p, lam, eta_h, eta_l: f"p_incident must lie in (0, 1), got {p}",
    ),
    (
        "probability_out_of_range",
        lambda p, lam, eta_h, eta_l: (lam >= 0) & (lam <= 1),
        lambda p, lam, eta_h, eta_l: f"frac_informed must lie in [0, 1], got {lam}",
    ),
    (
        "accuracy_out_of_range",
        lambda p, lam, eta_h, eta_l: (eta_h > 0.5) & (eta_h <= 1),
        lambda p, lam, eta_h, eta_l: f"accuracy_high must lie in (0.5, 1], got {eta_h}",
    ),
    (
        "accuracy_out_of_range",
        lambda p, lam, eta_h, eta_l: (eta_l >= 0.5) & (eta_l < eta_h),
        lambda p, lam, eta_h, eta_l: f"accuracy_low must lie in [0.5, accuracy_high), got {eta_l}",
    ),
)


def _enforce(rules, *values) -> None:
    """Raise ValidationError unless every element of ``values`` obeys ``rules``.

    ``rules`` holds (code, holds, message) triples in checking order, whose
    ``holds`` and ``message`` take ``values`` by position. The error names
    the first element (in C order) that breaks any rule, at the first rule
    it breaks, with that element's values, as a loop over elements would.
    A rule is evaluated once, in the values' types, where those before it
    hold. Values that do not broadcast together raise ``shape_mismatch``;
    values of an empty shape have no element, so they break no rule.
    """
    np = _numpy(*values)
    if np is None:
        for code, holds, message in rules:
            if not holds(*values):
                raise ValidationError(code, message(*values))
        return
    try:
        shape = np.broadcast(*values).shape
    except ValueError:
        shapes = [np.shape(v) for v in values]
        raise ValidationError(
            "shape_mismatch", f"fields must broadcast to one shape, got shapes {shapes}"
        ) from None
    if 0 in shape:
        return
    # A rule may overflow on the values it rejects, where numpy would warn.
    with np.errstate(all="ignore"):
        verdicts = (np.asarray(holds(*values)) for _, holds, _ in rules)
        k, held = next(((k, v) for k, v in enumerate(verdicts) if not v.all()), (0, None))
        if held is None:
            return
        end, broken = int(np.argmin(np.broadcast_to(held, shape))), rules[k]
        flat = [np.broadcast_to(v, shape).ravel() if np.ndim(v) else v for v in values]
        for rule in rules[k + 1 :]:
            if end:
                held = np.broadcast_to(rule[1](*(f[:end] if np.ndim(f) else f for f in flat)), end)
                if not held.all():
                    end, broken = int(np.argmin(held)), rule
    # ``tolist`` also reads object arrays (``Fraction`` fields), unlike ``item``.
    element = [np.asarray(f[end] if np.ndim(f) else f).tolist() for f in flat]
    raise ValidationError(broken[0], broken[2](*element))


def validate(params: NetworkParams | None, env: InfoEnvironment | None):
    """Check the model invariants of whichever argument is given.

    Network rules run first, then environment rules; a ``None`` argument is
    skipped. Returns the pair unchanged if all hold, else raises
    ValidationError with a distinct code per violated rule: ``not_finite``,
    ``slope_ordering``, ``intercept_ordering``, ``demand_too_small``,
    ``probability_out_of_range``, ``accuracy_out_of_range``. For array
    fields the message names the first offending element, and fields that
    do not broadcast together raise ``shape_mismatch`` (see ``_enforce``).
    Construction of ``NetworkParams`` and ``InfoEnvironment`` calls this on
    itself.
    """
    if params is not None:
        _enforce(
            _NETWORK_RULES,
            params.slope1_normal, params.slope1_incident, params.slope2,
            params.intercept1, params.intercept2, params.demand,
        )
    if env is not None:
        _enforce(
            _ENVIRONMENT_RULES,
            env.p_incident, env.frac_informed, env.accuracy_high, env.accuracy_low,
        )
    return params, env


#: Scope rules, each written once: the equilibrium analysis needs a coin-flip
#: uninformed signal, the value analysis a perfect service.
_UNINFORMATIVE_RULE = (
    (
        "unsupported_treatment",
        lambda eta_l: eta_l == 0.5,
        lambda eta_l: f"equilibrium analysis requires accuracy_low == 0.5, got {eta_l}",
    ),
)
#: A split is a share of its type's demand: it lies in [0, 1], or is NaN,
#: which a residual reports as NaN. ``rho != rho`` is NaN's test on floats,
#: ``Fraction``s and arrays alike.
_SPLIT_RULE = (
    (
        "split_out_of_range",
        lambda rho: ((rho >= 0) & (rho <= 1)) | (rho != rho),
        lambda rho: f"split fractions must lie in [0, 1], got {rho}",
    ),
)
_PERFECT_ACCURACY_RULE = (
    (
        "not_analyzed",
        lambda eta_h: eta_h == 1,
        lambda eta_h: f"value analysis covers accuracy_high = 1 only, got {eta_h}",
    ),
)


def _require_uninformative(env: InfoEnvironment) -> None:
    _enforce(_UNINFORMATIVE_RULE, env.accuracy_low)


def _require_perfect_accuracy(env: InfoEnvironment) -> None:
    _enforce(_PERFECT_ACCURACY_RULE, env.accuracy_high)


def _require_equilibrium_type(owner: PlayerType) -> None:
    """Reject a type outside the coin-flip treatment's L, Hn and Ha."""
    if owner not in EQUILIBRIUM_TYPES:
        raise ValueError(f"owner must be L, Hn, or Ha for this treatment, got {owner}")


def _require_nonempty(env: InfoEnvironment, *populations) -> None:
    """Reject ``env`` if a named population ("L", "H") is empty at any point."""
    for population, empty_at in (("L", 1), ("H", 0)):
        if population in populations and _any(env.frac_informed == empty_at):
            message = f"population {population} is empty at frac_informed = {empty_at}"
            raise ValidationError("empty_population", message)


def _require_scalar(caller: str, *objs) -> None:
    """Reject array-valued fields of ``objs``, naming the first."""
    arrays = [name for obj in objs for name in fields(obj) if _ndim(getattr(obj, name))]
    if arrays:
        message = f"{caller} takes scalar fields only, {arrays[0]} is an array"
        raise ValidationError("scalar_only", message)


#: Costs that differ by less than this fraction of the cost scale
#: intercept2 + slope1_incident * demand, which bounds every route's latency,
#: count as equal. Relative to that scale, no comparison depends on the
#: time unit.
_COST_RTOL = 1e-11


def _cost_scale(params: NetworkParams):
    """The network's largest latency, intercept2 + slope1_incident * demand."""
    return params.intercept2 + params.slope1_incident * params.demand


def _cost_tol(params: NetworkParams):
    """Absolute slack for comparing two costs on ``params``'s network."""
    return _COST_RTOL * _cost_scale(params)


# ---------------------------------------------------------------------------
# Array primitives: numpy for array operands, plain Python otherwise
# ---------------------------------------------------------------------------


def _numpy(*values):
    """The numpy module if any of ``values`` is an array, else None.

    An operand is an array if it has ``__array__`` (numpy scalars do). numpy
    is imported here, on the first array operand, so a computation on Python
    scalars alone never loads it. Each primitive below takes its plain-Python
    branch on None and otherwise calls numpy as the closed forms always did.
    Until numpy is in ``sys.modules`` no operand is looked at: a numpy array
    or scalar is made by numpy, so none exists before numpy is loaded, and
    the fields take no other array type.
    """
    if "numpy" not in sys.modules:
        return None
    for v in values:
        if hasattr(v, "__array__"):
            import numpy

            return numpy
    return None


def _as_results(*values) -> list:
    """``values`` broadcast to one shape; Python scalars when that shape is ().

    Every broadcasting function returns through this, so scalar inputs give
    Python ``float``/``str``/``bool`` results and array inputs give arrays
    of their common shape.
    """
    np = _numpy(*values)
    if np is None:
        return list(values)
    shape = np.broadcast(*values).shape
    if shape == ():
        return [np.asarray(v).item() for v in values]
    return [np.broadcast_to(v, shape) for v in values]


def _where(cond, a, b):
    """``np.where(cond, a, b)``. An int picked against a float becomes a
    float, as numpy promotes the pair; a ``Fraction`` stays as it is."""
    np = _numpy(cond, a, b)
    if np is not None:
        return np.where(cond, a, b)
    picked, other = (a, b) if cond else (b, a)
    if isinstance(other, float) and isinstance(picked, int):
        return float(picked)
    return picked


def _choose(index, choices):
    """``np.choose(index, choices)``: ``choices[index]`` at each point."""
    np = _numpy(index, *choices)
    if np is None:
        return choices[index]
    return np.choose(index, choices)


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)``, whose rules the scalar branch follows: NaN
    stays NaN; a float at or beyond a bound becomes that bound as a float
    (so -0.0 becomes 0.0); other numbers (``Fraction``, whose arrays hold
    objects) keep a value equal to a bound and become the bound object only
    beyond it."""
    np = _numpy(x)
    if np is not None:
        return np.clip(x, lo, hi)
    if isinstance(x, float):
        return float(lo) if x <= lo else float(hi) if x >= hi else x
    return lo if x < lo else hi if x > hi else x


def _zeros_like(x):
    """``np.zeros_like(x)``: a float zero for a float, else the int 0 (an
    object array's zero, for ``Fraction``)."""
    np = _numpy(x)
    if np is not None:
        return np.zeros_like(x)
    return 0.0 if isinstance(x, float) else 0


def _any(x) -> bool:
    """``np.any(x)``, by the faster array method."""
    np = _numpy(x)
    return bool(x) if np is None else bool(np.asarray(x).any())


def _ndim(x) -> int:
    """``np.ndim(x)``: 0 for a Python scalar."""
    np = _numpy(x)
    return 0 if np is None else np.ndim(x)


def _ieee(fn, *args):
    """``fn(*args)`` under numpy's float rules with its warnings silenced:
    a division by zero gives inf or NaN instead of raising.

    Array arguments run under ``np.errstate(all="ignore")``. Python scalars
    run in Python, which gives the same bits but raises ZeroDivisionError
    where numpy would give inf or NaN; only then are they redone as numpy
    scalars. ``Fraction`` arguments stay exact and raise either way.
    """
    np = _numpy(*args)
    if np is None:
        try:
            return fn(*args)
        except ZeroDivisionError:
            import numpy as np

            args = [np.asarray(a)[()] for a in args]
    with np.errstate(all="ignore"):
        return fn(*args)


def _linspace(start: float, stop: float, n: int, endpoint: bool = True) -> list:
    """``np.linspace(start, stop, n, endpoint=endpoint).tolist()`` in plain
    Python, bit for bit: numpy's own arithmetic, i * step + start, with
    i / div * delta where the step underflows to 0, and ``stop`` itself last
    when ``endpoint`` and n > 1."""
    div = max(n - 1 if endpoint else n, 1)
    delta = stop - start
    step = delta / div
    if step == 0:
        values = [i / div * delta + start for i in range(n)]
    else:
        values = [i * step + start for i in range(n)]
    if endpoint and n > 1:
        values[-1] = stop
    return values


class _Kept:
    """The last result of a pure function, made in plain Python and kept
    under the network it read and a key of the other values it read.

    ``get(params, key, compute, *args)`` is ``compute(*args)``, reused while
    ``params`` and ``key`` are those of the kept result; ``_lambda_free_key``
    makes the key of a function of an environment's p_incident and
    accuracies. A result is kept only when no field of ``params`` and no
    value in ``key`` is an array: an array could change in place, and a
    sweep's arrays would be kept alive. The kept network is held, so no
    other network can match it, and the whole entry is replaced at once,
    so concurrent callers each read a consistent one.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = (None, None, None)

    def get(self, params, key: tuple, compute, *args):
        last_params, last_key, result = self._entry
        if params is last_params and key == last_key:
            return result
        result = compute(*args)
        # No array exists before numpy is loaded (see ``_numpy``).
        if "numpy" not in sys.modules or _numpy(*key, *vars(params).values()) is None:
            self._entry = (params, key, result)
        return result


def _lambda_free_key(env: InfoEnvironment) -> tuple:
    """The key of ``env``'s p_incident, accuracy_high and accuracy_low for
    ``_Kept``: their types, then their values. Types first: a ``Fraction``
    or an int never matches a float of equal value, and no array is
    compared, since its type never matches a scalar's."""
    p, eta_h, eta_l = env.p_incident, env.accuracy_high, env.accuracy_low
    return (type(p), type(eta_h), type(eta_l), p, eta_h, eta_l)


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
    if _any(load < 0):
        raise ValidationError("negative_load", f"route load must be >= 0, got {load}")
    intercept = params.intercept1 if route == 1 else params.intercept2
    return route_slope(params, route, state) * load + intercept


def _population_demands(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """(uninformed, informed) demand: (1 - lam) * d and lam * d."""
    lam, d = env.frac_informed, params.demand
    return (1 - lam) * d, lam * d


def _route_load(demands: tuple, rho_l, rho_h, route: int):
    """Load on ``route`` while the uninformed play ``rho_l`` and the informed
    population's realized type plays ``rho_h``.

    Each population's demand moves as one type realization, so this is
    share(rho_L) * (1 - lam) * d + share(rho_informed) * lam * d, where share
    is the split for route 1 and its complement for route 2, and ``demands``
    comes from ``_population_demands``. It is the one place a route load is
    formed, for interim and realized costs alike.
    """
    d_l, d_h = demands
    if route == 1:
        return rho_l * d_l + rho_h * d_h
    return (1 - rho_l) * d_l + (1 - rho_h) * d_h


#: K2 and K3 divide by these sums, which validation cannot see: at a
#: subnormal p_incident with slopes near 1e-9 one underflows to 0.
_DENOMINATOR_RULE = (
    (
        "not_finite",
        lambda hat, tilde, p, eta_h: (hat != 0) & (tilde != 0),
        lambda hat, tilde, p, eta_h: (
            f"need nonzero a1_hat + P(Ha) * slope2 and a1_tilde + P(Hn) * slope2, "
            f"the denominators of K2 and K3, got {hat} and {tilde} at "
            f"p_incident {p}, accuracy_high {eta_h}"
        ),
    ),
)


def marginal_type_dist(env: InfoEnvironment) -> MarginalTypeDist:
    """Marginal type probabilities, e.g. P(Ha) = p*eta_H + (1-p)*(1-eta_H)."""
    p = env.p_incident
    p_ha = p * env.accuracy_high + (1 - p) * (1 - env.accuracy_high)
    p_la = p * env.accuracy_low + (1 - p) * (1 - env.accuracy_low)
    return MarginalTypeDist(p_Ha=p_ha, p_Hn=1 - p_ha, p_La=p_la, p_Ln=1 - p_la)


def _type_masses(env: InfoEnvironment) -> dict:
    """Demand share of each equilibrium type: 1-lam, lam*P(Hn), lam*P(Ha)."""
    lam = env.frac_informed
    dist = marginal_type_dist(env)
    return {
        PlayerType.L: 1 - lam,
        PlayerType.HN: lam * dist.p_Hn,
        PlayerType.HA: lam * dist.p_Ha,
    }


def _accuracy(env: InfoEnvironment, service: str) -> float:
    if service == "H":
        return env.accuracy_high
    if service == "L":
        return env.accuracy_low
    raise ValueError(f"service must be 'H' or 'L', got {service!r}")


#: Each signal-conditioned type's (service, signal received).
_SIGNALS = {
    PlayerType.HN: ("H", State.NORMAL),
    PlayerType.HA: ("H", State.INCIDENT),
    PlayerType.LN: ("L", State.NORMAL),
    PlayerType.LA: ("L", State.INCIDENT),
}


def _type_given_state(env: InfoEnvironment, t: PlayerType, state: State):
    """Likelihood P(type | state): accuracy if the signal matches the state."""
    service, signal = _SIGNALS[t]
    eta = _accuracy(env, service)
    return eta if signal == state else 1 - eta


def derived_constants(params: NetworkParams, env: InfoEnvironment) -> DerivedConstants:
    """Averaged route-1 slopes and the equalizing loads K0..K4.

    Raises ``not_finite`` where a denominator of K2 or K3 underflows to 0.
    """
    return _derived_constants(params, env, marginal_type_dist(env))


def _derived_constants(params, env, dist) -> DerivedConstants:
    """``derived_constants`` at ``env``, whose type marginals are ``dist``."""
    p, eta = env.p_incident, env.accuracy_high
    a1n, a1a, a2 = params.slope1_normal, params.slope1_incident, params.slope2
    d = params.demand

    a1_bar = (1 - p) * a1n + p * a1a
    a1_hat = (1 - p) * (1 - eta) * a1n + p * eta * a1a
    a1_tilde = (1 - p) * eta * a1n + p * (1 - eta) * a1a

    p_ha, p_hn = dist.p_Ha, dist.p_Hn

    k0 = a2 * d - params.intercept1 + params.intercept2
    k1 = k0 / (a1_bar + a2)
    hat, tilde = a1_hat + p_ha * a2, a1_tilde + p_hn * a2
    _enforce(_DENOMINATOR_RULE, hat, tilde, p, eta)
    k2 = k0 * p_ha / hat
    k3 = k0 * p_hn / tilde
    k4 = k2 * (1 + (a1a - a1n) / (a1_bar + a2))
    return DerivedConstants(a1_bar, a1_hat, a1_tilde, k0, k1, k2, k3, k4)
