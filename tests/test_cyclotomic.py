"""Exact cyclotomic integer arithmetic, checked against sympy and floats."""

import random
import time

import numpy as np
import pytest
import sympy

from golaypairs import CycElement, VerificationError, cyclotomic_polynomial, get_context
from golaypairs.cyclotomic import CycContext

from helpers import cyc_to_complex, poly_divmod_exact


def test_polynomial_small_moduli():
    # ascending coefficient order: index d holds the x^d coefficient
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_polynomial_matches_sympy_up_to_30():
    x = sympy.symbols("x")
    for q in range(1, 31):
        ours = cyclotomic_polynomial(q)
        theirs = sympy.Poly(sympy.cyclotomic_poly(q, x), x).all_coeffs()
        assert list(ours) == list(reversed([int(c) for c in theirs])), q


def test_polynomial_is_monic_with_totient_degree():
    for q in range(1, 31):
        poly = cyclotomic_polynomial(q)
        assert poly[-1] == 1
        assert len(poly) - 1 == int(sympy.totient(q))


def test_polynomial_divides_x_q_minus_1():
    x = sympy.symbols("x")
    for q in range(1, 31):
        phi = sympy.Poly(list(reversed(cyclotomic_polynomial(q))), x)
        num = sympy.Poly(x**q - 1, x)
        quo, rem = num.div(phi)
        assert rem.is_zero, q


def test_root_exponent_reduction():
    ctx = get_context(4)
    assert ctx.root(0).counts == (1, 0, 0, 0)
    assert ctx.root(5).counts == (0, 1, 0, 0)
    assert get_context(2).root(1).counts == (0, 1)


def test_root_products_add_exponents():
    ctx = get_context(4)
    assert ctx.root(1) * ctx.root(3) == ctx.one()


def test_product_expansion_and_zero_test():
    ctx = get_context(4)
    one, z = ctx.one(), ctx.root(1)
    prod = (one + z) * (one - z)
    assert prod.counts == (1, 0, -1, 0)
    assert (prod - 2).is_zero()


def test_zero_is_absorbing():
    for q in (2, 3, 4, 6, 12):
        ctx = get_context(q)
        rng = random.Random(q)
        e = ctx.element([rng.randint(-5, 5) for _ in range(q)])
        assert (e * ctx.zero()).is_zero()
        assert (e * 0).is_zero()


def test_conjugation():
    ctx = get_context(4)
    assert ctx.root(1).conjugate() == ctx.root(3)
    sym = ctx.element((3, 2, 5, 2))  # counts[d] == counts[q-d]
    assert sym.conjugate() == sym
    ctx2 = get_context(2)
    for counts in ((1, 0), (0, 1), (2, -3)):
        e = ctx2.element(counts)
        assert e.conjugate() == e


def test_is_zero_examples():
    ctx = get_context(4)
    assert ctx.element((1, 1, 1, 1)).is_zero()
    assert ctx.element((1, 0, 1, 0)).is_zero()
    assert not ctx.element((1, 1, 0, 0)).is_zero()


def test_is_zero_matches_float_oracle():
    rng = random.Random(17)
    for q in range(2, 13):
        ctx = get_context(q)
        for _ in range(2000):
            counts = [rng.randint(-3, 3) for _ in range(q)]
            e = ctx.element(counts)
            assert e.is_zero() == (abs(cyc_to_complex(e)) < 1e-9), (q, counts)


def test_full_orbit_sums_to_zero():
    for q in range(2, 16):
        ctx = get_context(q)
        assert ctx.element((1,) * q).is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(23)
    for q in (2, 3, 4, 5, 6, 8, 12):
        ctx = get_context(q)
        for _ in range(200):
            a, b, c = (
                ctx.element([rng.randint(-4, 4) for _ in range(q)]) for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ctx.zero() == a
            assert a * ctx.one() == a
            assert (a + (-a)).is_zero()


def test_conjugation_is_a_ring_involution():
    rng = random.Random(29)
    for q in (3, 4, 5, 8, 12):
        ctx = get_context(q)
        for _ in range(100):
            a = ctx.element([rng.randint(-4, 4) for _ in range(q)])
            b = ctx.element([rng.randint(-4, 4) for _ in range(q)])
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_norm_like_products_are_float_consistent():
    rng = random.Random(31)
    for q in (4, 6, 12):
        ctx = get_context(q)
        for _ in range(100):
            a = ctx.element([rng.randint(-3, 3) for _ in range(q)])
            v = cyc_to_complex(a * a.conjugate())
            w = abs(cyc_to_complex(a)) ** 2
            assert abs(v - w) < 1e-6


def test_canonical_reduction_preserves_value():
    rng = random.Random(37)
    for q in (2, 4, 6, 9, 12):
        ctx = get_context(q)
        for _ in range(100):
            a = ctx.element([rng.randint(-4, 4) for _ in range(q)])
            can = list(a.canonical()) + [0] * (q - ctx.degree)
            assert ctx.element(can) == a
            assert abs(cyc_to_complex(ctx.element(can)) - cyc_to_complex(a)) < 1e-9


def test_integer_embedding_and_scalar_arithmetic():
    ctx = get_context(6)
    assert ctx.integer(5) == ctx.one() * 5
    assert 2 + ctx.root(1) == ctx.root(1) + 2
    assert (3 - ctx.integer(3)).is_zero()
    assert (ctx.integer(-2) + 2).is_zero()


def test_hash_consistent_with_semantic_equality():
    ctx = get_context(4)
    a = ctx.element((1, 0, 1, 0))  # equals zero
    assert hash(a) == hash(ctx.zero())
    b = ctx.element((3, 1, 1, 1))  # equals 2
    assert hash(b) == hash(ctx.integer(2))
    assert len({a, ctx.zero(), b, ctx.integer(2)}) == 2


def test_context_mismatch_rejected():
    a = get_context(4).root(1)
    b = get_context(6).root(1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_element_validates_counts_length():
    ctx = get_context(4)
    with pytest.raises(ValueError):
        ctx.element((1, 2, 3))


def test_invalid_modulus_rejected():
    with pytest.raises(ValueError):
        get_context(0)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(-1)
    # refused before the cyclotomic polynomial is built
    for q in (4097, 100003):
        with pytest.raises(ValueError, match="4096"):
            get_context(q)


@pytest.mark.parametrize("fn", [get_context, CycContext, cyclotomic_polynomial])
@pytest.mark.parametrize("q", [4.0, 4.5, "4"])
def test_a_modulus_that_is_not_an_integer_is_a_value_error(fn, q):
    fn(4)  # a cached int's entry is not the float's
    with pytest.raises(ValueError, match="expected integers"):
        fn(q)
    ctx = get_context(np.int64(4))
    assert type(ctx.q) is int and ctx == get_context(4)


_DIVISION_MODULI = [4, 6, 12, 105, 8, 9, 27, 64, 72, 100]


@pytest.mark.parametrize(
    "q",
    _DIVISION_MODULI
    + [q for q in range(1, 129) if q not in _DIVISION_MODULI]
    + [1155, 2310, 3465, 4093, 4095, 4096],
)
def test_canonical_is_exact_past_int64(q):
    # the remainder of the pure-Python long division in helpers; past 128
    # that oracle takes up to 0.5 s an element
    rng = random.Random(q)
    ctx = get_context(q)
    big = 1 << 70
    for _ in range(50 if q <= 128 else 2):
        counts = [rng.choice((big, -big, rng.randint(-big, big), 0)) for _ in range(q)]
        rem = poly_divmod_exact(counts, ctx.phi)[1]
        want = tuple(rem + [0] * (ctx.degree - len(rem)))
        assert ctx.element(counts).canonical() == want


@pytest.mark.parametrize("q", [1155, 2310, 3465, 4095, 4096])
def test_polynomial_matches_sympy_at_large_moduli(q):
    x = sympy.symbols("x")
    theirs = sympy.Poly(sympy.cyclotomic_poly(q, x), x).all_coeffs()
    assert list(cyclotomic_polynomial(q)) == [int(c) for c in reversed(theirs)]


def test_polynomial_at_a_large_modulus_is_fast():
    # 4095 = 3^2 * 5 * 7 * 13 has 24 divisors but only 4 distinct primes
    cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    assert len(cyclotomic_polynomial(4095)) == 1729  # phi(4095) + 1
    assert time.perf_counter() - start < 0.1


def test_context_cache_drops_tables_before_building_past_its_byte_cap():
    # the cap is a count of contexts; each holds one permutation of q int64
    # entries, so the cache holds at most maxsize * 8 * 4096 bytes of tables
    maxsize = get_context.cache_info().maxsize
    get_context.cache_clear()
    held = [get_context(q) for q in range(1, maxsize + 2)]
    assert get_context.cache_info().currsize == maxsize
    assert sum(c.order.nbytes for c in held[1:]) <= maxsize * 8 * 4096
    # the least recently used context, q = 1, was dropped; the rest stay
    assert get_context(2) is held[1]
    assert get_context(maxsize + 1) is held[-1]
    assert get_context(1) is not held[0]
    assert get_context.cache_info().currsize == maxsize


def test_context_cache_is_bounded_and_holds_a_cycle_of_four():
    assert get_context.cache_info().maxsize is not None
    contexts = {q: get_context(q) for q in (2, 4, 8, 10)}
    misses = get_context.cache_info().misses
    for q in (2, 4, 8, 10) * 3:
        assert get_context(q) is contexts[q]
    assert get_context.cache_info().misses == misses
    for q in (0, 4097):
        with pytest.raises(ValueError):
            get_context(q)
