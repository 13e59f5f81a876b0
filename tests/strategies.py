"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

import hypothesis.strategies as st

from routeinfo import NetworkParams


@st.composite
def rescaled_networks(draw):
    """Valid networks, then a change of time unit and of flow unit (1e-3..1e3)."""
    a1n = draw(st.floats(min_value=0.1, max_value=5.0))
    a2 = a1n * draw(st.floats(min_value=1.0, max_value=4.0))
    a1a = a2 * draw(st.floats(min_value=1.05, max_value=4.0))
    b1 = draw(st.floats(min_value=0.0, max_value=1000.0))
    b2 = b1 + draw(st.floats(min_value=0.0, max_value=50.0))
    d = (b2 - b1) / a1n + draw(st.floats(min_value=0.1, max_value=1000.0))
    time = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    flow = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    slope = time / flow
    return NetworkParams(
        a1n * slope, a1a * slope, a2 * slope, b1 * time, b2 * time, d * flow
    )


@st.composite
def rational_networks(draw):
    """Valid networks with ``Fraction`` fields, drawn in hundredths as
    ``rescaled_networks`` draws floats, in time and flow units 10^-3..10^3."""

    def hundredths(low, high):
        return Fraction(draw(st.integers(min_value=low, max_value=high)), 100)

    a1n = hundredths(10, 500)
    a2 = a1n * hundredths(100, 400)
    a1a = a2 * hundredths(105, 400)
    b1 = hundredths(0, 100_000)
    b2 = b1 + hundredths(0, 5_000)
    d = (b2 - b1) / a1n + hundredths(10, 100_000)
    exponents = st.integers(min_value=-3, max_value=3)
    time, flow = Fraction(10) ** draw(exponents), Fraction(10) ** draw(exponents)
    slope = time / flow
    return NetworkParams(
        a1n * slope, a1a * slope, a2 * slope, b1 * time, b2 * time, d * flow
    )
