"""Property tests of the exact correlation kernel against independent oracles.

``is_gap`` and ``correlation_spectrum`` run on a cached numpy plan; these
properties compare them with the complex-float oracles of ``helpers`` and
with the coefficient-space route of ``genfun``, on arrays Hypothesis draws.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from golaypairs import (
    QaryArray,
    StandardParams,
    construct_standard,
    correlation_spectrum,
    correlation_via_coefficients,
    from_array,
    is_gap,
)

from helpers import cyc_to_complex, float_autocorrelation, float_is_gap


@st.composite
def array_pairs(draw):
    """Random (q, m, f, g); for even q, g may be forced to cancel f on every
    antipodal pair, so the full-support shell passes and the remaining
    shifts decide."""
    q = draw(st.integers(1, 12))
    m = draw(st.integers(0, 5))
    cells = st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
    f = draw(cells)
    g = draw(cells)
    if q % 2 == 0 and draw(st.booleans()):
        top = (1 << m) - 1
        for x in range(1 << (m - 1) if m else 0):
            g[top - x] = (g[x] + f[top - x] - f[x] + q // 2) % q
    return q, m, tuple(f), tuple(g)


@st.composite
def standard_params(draw, max_m=8):
    q = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    m = draw(st.integers(0, max_m))
    pi = draw(st.permutations(range(1, m + 1)))
    c = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    c0 = draw(st.integers(0, q - 1))
    c_prime = draw(st.integers(0, q - 1))
    return StandardParams(q, m, tuple(pi), tuple(c), c0, c_prime)


@settings(max_examples=300)
@given(array_pairs())
def test_is_gap_agrees_with_float_oracle(case):
    q, m, f, g = case
    assert is_gap(QaryArray(q, m, f), QaryArray(q, m, g)) == float_is_gap(q, m, f, g)


@settings(max_examples=100)
@given(standard_params())
def test_standard_pairs_are_gaps(params):
    assert is_gap(*construct_standard(params))


@settings(max_examples=100)
@given(standard_params(), st.data())
def test_one_moved_cell_breaks_a_standard_pair(params, data):
    # the moved cell no longer cancels its antipode on the full-support shell
    q, m = params.q, params.m
    if m == 0:
        return
    f, g = construct_standard(params)
    which = data.draw(st.booleans())
    cell = data.draw(st.integers(0, (1 << m) - 1))
    target = list((f if which else g).entries)
    target[cell] = (target[cell] + 1) % q
    moved = QaryArray(q, m, tuple(target))
    assert not (is_gap(moved, g) if which else is_gap(f, moved))


@settings(max_examples=150)
@given(st.integers(1, 12), st.integers(0, 3), st.data())
def test_spectrum_agrees_with_float_and_coefficient_routes(q, m, data):
    cells = st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
    f = QaryArray(q, m, tuple(data.draw(cells)))
    spectrum = correlation_spectrum(f)
    coefficient = correlation_via_coefficients(from_array(f))
    assert list(spectrum) == list(coefficient)
    for tau, value in spectrum.items():
        assert value == coefficient[tau]
        approx = float_autocorrelation(q, m, f.entries, tau)
        assert abs(cyc_to_complex(value) - approx) < 1e-9
