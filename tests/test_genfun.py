"""Generating functions: coefficients, degree reversal, disjoint products."""

import random

import pytest

from golaypairs import (
    QaryArray,
    StandardParams,
    construct_standard,
    correlation_spectrum,
    correlation_via_coefficients,
    disjoint_product,
    embed,
    from_array,
    get_context,
    star,
)

from helpers import dict_star, random_entries


def test_from_array_coefficients_are_roots():
    ctx = get_context(4)
    f = from_array(QaryArray(4, 0, (3,)))
    assert f.coeffs == (ctx.root(3),)
    g = from_array(QaryArray(2, 1, (0, 1)))
    ctx2 = get_context(2)
    assert g.coeffs == (ctx2.root(0), ctx2.root(1))  # 1 - z1
    h = from_array(QaryArray(4, 2, (0, 1, 0, 3)))
    assert h.coeffs == (ctx.root(0), ctx.root(1), ctx.root(0), ctx.root(3))
    assert h.support == frozenset({1, 2})


def test_star_single_variable():
    ctx = get_context(4)
    f = from_array(QaryArray(4, 1, (0, 1)))  # 1 + zeta*z1
    s = star(f)
    assert s.coeffs == (ctx.root(1), ctx.root(0))  # zeta + z1


def test_star_on_constants():
    f = from_array(QaryArray(6, 0, (4,)))
    assert star(f) == f


def test_star_equals_reverse_exhaustive_small():
    for q, m in ((2, 1), (2, 2), (2, 3), (4, 2), (3, 2)):
        for ident in range(q ** (1 << m)):
            e = []
            w = ident
            for _ in range(1 << m):
                w, r = divmod(w, q)
                e.append(r)
            f = QaryArray(q, m, tuple(e))
            assert star(from_array(f)) == from_array(f.reverse())


def test_star_equals_reverse_random_large():
    rng = random.Random(83)
    for q, m in ((2, 10), (4, 8), (6, 7), (12, 5)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        assert star(from_array(f)) == from_array(f.reverse())


def test_star_general_degree_reference():
    # polynomial with per-variable degrees (2, 2); coefficients are labels
    poly = {(2, 1): "c0", (1, 1): "c1", (1, 0): "c2", (0, 2): "c3"}
    assert dict_star(poly) == {
        (0, 1): "c0",
        (1, 1): "c1",
        (1, 2): "c2",
        (2, 0): "c3",
    }


def test_star_agrees_with_general_degree_rule_on_multilinear():
    rng = random.Random(89)
    for _ in range(30):
        q = rng.choice((2, 4, 6))
        m = rng.randrange(1, 5)
        f = QaryArray(q, m, random_entries(rng, q, m))
        gf = from_array(f)
        poly = {
            tuple(t >> k & 1 for k in range(m)): gf.coeffs[t]
            for t in range(1 << m)
        }
        want = dict_star(poly)
        got = star(gf)
        for key, coeff in want.items():
            t = sum(b << k for k, b in enumerate(key))
            assert got.coeffs[t] == coeff


def test_star_is_an_involution_on_full_support():
    rng = random.Random(97)
    for q, m in ((2, 4), (4, 3)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        gf = from_array(f)
        assert star(star(gf)) == gf


def test_star_mask_must_cover_support():
    f = from_array(QaryArray(2, 2, (0, 1, 1, 0)))
    with pytest.raises(ValueError):
        star(f, (1,))
    with pytest.raises(ValueError):
        star(f, (1, 5))


def test_embed_moves_support():
    local = from_array(QaryArray(4, 1, (0, 2)))
    g = embed(local, (3,), 3)
    assert g.m == 3 and g.support == frozenset({3})
    ctx = get_context(4)
    assert g.coeffs[0] == ctx.root(0)
    assert g.coeffs[4] == ctx.root(2)
    assert all(g.coeffs[t].is_zero() for t in (1, 2, 3, 5, 6, 7))
    with pytest.raises(ValueError):
        embed(local, (1, 2), 3)
    with pytest.raises(ValueError):
        embed(local, (4,), 3)


def test_disjoint_product_expansion():
    ctx = get_context(4)
    a = embed(from_array(QaryArray(4, 1, (0, 1))), (1,), 2)  # 1 + zeta*z1
    b = embed(from_array(QaryArray(4, 1, (0, 0))), (2,), 2)  # 1 + z2
    p = disjoint_product(a, b)
    assert p.coeffs == (ctx.root(0), ctx.root(1), ctx.root(0), ctx.root(1))
    assert p.support == frozenset({1, 2})


def test_product_with_constant_scales_coefficients():
    ctx = get_context(6)
    a = from_array(QaryArray(6, 2, (0, 1, 2, 3)))
    const = embed(from_array(QaryArray(6, 0, (4,))), (), 2)
    p = disjoint_product(a, const)
    assert p.coeffs == tuple(c * ctx.root(4) for c in a.coeffs)


def test_disjoint_product_rejects_overlap():
    a = embed(from_array(QaryArray(2, 1, (0, 1))), (1,), 2)
    with pytest.raises(ValueError):
        disjoint_product(a, a)


def test_product_of_restrictions_rebuilds_separable_arrays():
    # f(x) = u(x1) + v(x2, x3) gives F = U * V on disjoint variables
    f = QaryArray.from_function(4, 3, lambda x: x[0] + 2 * x[1] * x[2] + 3 * x[2])
    from golaypairs import restrict

    u = embed(from_array(restrict(f, (1,))), (1,), 3)
    v = embed(from_array(restrict(f, (2, 3))), (2, 3), 3)
    assert disjoint_product(u, v) == from_array(f)


def test_correlation_via_coefficients_zero_shift():
    rng = random.Random(101)
    for q, m in ((2, 3), (4, 2), (5, 2)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        spec = correlation_via_coefficients(from_array(f))
        assert spec[(0,) * m] == get_context(q).integer(1 << m)


def test_correlation_via_coefficients_worked_value():
    f = QaryArray(2, 2, (0, 0, 0, 1))
    spec = correlation_via_coefficients(from_array(f))
    assert spec[(1, 1)] == get_context(2).integer(-1)


def test_two_correlation_routes_agree_on_randoms():
    rng = random.Random(103)
    for _ in range(25):
        q = rng.choice((2, 3, 4, 6))
        m = rng.randrange(0, 4)
        f = QaryArray(q, m, random_entries(rng, q, m))
        via_coeffs = correlation_via_coefficients(from_array(f))
        direct = correlation_spectrum(f)
        assert via_coeffs.keys() == direct.keys()
        for tau, v in direct.items():
            assert via_coeffs[tau] == v, (q, m, tau)


def test_complementary_pair_spectrum_sums():
    f, g = construct_standard(StandardParams(2, 2, (1, 2), (0, 0), 0, 0))
    sf = correlation_via_coefficients(from_array(f))
    sg = correlation_via_coefficients(from_array(g))
    for tau in sf:
        total = sf[tau] + sg[tau]
        if any(tau):
            assert total.is_zero()
        else:
            assert total == get_context(2).integer(2 ** (2 + 1))


def test_star_distributes_over_disjoint_products():
    rng = random.Random(107)
    for _ in range(50):
        q = rng.choice((2, 4, 6))
        ma = rng.randrange(0, 3)
        mb = rng.randrange(1, 3)
        m = ma + mb
        fa = QaryArray(q, ma, random_entries(rng, q, ma))
        fb = QaryArray(q, mb, random_entries(rng, q, mb))
        vars_all = list(range(1, m + 1))
        rng.shuffle(vars_all)
        va = tuple(sorted(vars_all[:ma]))
        vb = tuple(sorted(vars_all[ma:]))
        a = embed(from_array(fa), va, m)
        b = embed(from_array(fb), vb, m)
        prod = disjoint_product(a, b)
        assert star(prod) == disjoint_product(star(a), star(b))


def test_genfun_validates_support_and_contexts():
    ctx = get_context(2)
    from golaypairs import GenFun

    with pytest.raises(ValueError):
        GenFun(2, 1, frozenset({2}), (ctx.root(0), ctx.root(1)))
    with pytest.raises(ValueError):
        GenFun(2, 1, frozenset(), (ctx.root(0), ctx.root(1)))
    with pytest.raises(ValueError):
        GenFun(2, 1, frozenset({1}), (ctx.root(0),))
    with pytest.raises(ValueError):
        GenFun(4, 1, frozenset({1}), (ctx.root(0), ctx.root(1)))


@pytest.mark.parametrize(
    "args",
    [
        (2, 1, frozenset({1}), (1, -1)),
        (2, -1, frozenset(), ()),
        (2, 1.0, frozenset({1}), "roots"),
        (2.0, 1, frozenset({1}), "roots"),
        (2, 1, frozenset({1.5}), "roots"),
    ],
)
def test_genfun_rejects_fields_of_the_wrong_type(args):
    from golaypairs import GenFun

    ctx = get_context(2)
    q, m, support, coeffs = args
    if coeffs == "roots":
        coeffs = (ctx.root(0), ctx.root(1))
    with pytest.raises(ValueError):
        GenFun(q, m, support, coeffs)
