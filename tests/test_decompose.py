"""Constructive decomposition, certificates, and standard-form recognition."""

import dataclasses
import importlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from golaypairs import (
    DecompositionCertificate,
    GcdSplit,
    NotAGapError,
    OddModulusError,
    QaryArray,
    StandardParams,
    VerificationError,
    construct_standard,
    decompose,
    extract_d,
    gcd_normalized,
    is_gap,
    join_last,
    recognize_standard,
    replay,
    split_last,
    verify_certificate,
)

from helpers import (
    DEEPER_LEFT_BREAK,
    random_entries,
    random_params_tuple,
    reference_certify,
    reference_decompose,
    reference_walk,
)


def rand_params(rng, q, m):
    return StandardParams(*random_params_tuple(rng, q, m))


def test_split_last_worked_values():
    f = QaryArray(2, 2, (0, 0, 0, 1))  # x1*x2
    f0, f1 = split_last(f)
    assert f0.entries == (0, 0)
    assert f1.entries == (0, 1)
    c = QaryArray(5, 1, (3, 3))
    assert split_last(c) == (QaryArray(5, 0, (3,)), QaryArray(5, 0, (3,)))
    f = QaryArray.from_function(2, 3, lambda x: x[0] + x[1] + x[2])
    f0, f1 = split_last(f)
    assert f0 == QaryArray.from_function(2, 2, lambda x: x[0] + x[1])
    assert f1 == QaryArray.from_function(2, 2, lambda x: x[0] + x[1] + 1)


def test_split_last_rejects_dimension_zero():
    with pytest.raises(ValueError):
        split_last(QaryArray(2, 0, (1,)))


def test_join_last_inverts_split():
    rng = random.Random(127)
    for q, m in ((2, 1), (4, 3), (6, 5)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        assert join_last(*split_last(f)) == f
    with pytest.raises(ValueError):
        join_last(QaryArray(2, 1, (0, 0)), QaryArray(2, 2, (0, 0, 0, 1)))
    with pytest.raises(ValueError):
        join_last(QaryArray(2, 1, (0, 0)), QaryArray(4, 1, (0, 0)))


def test_gcd_split_mixed_blocks():
    f0 = QaryArray.from_function(4, 2, lambda x: x[0] + x[1])
    g0 = QaryArray.from_function(4, 2, lambda x: 3 * x[0] + x[1])
    s = gcd_normalized(f0, g0)
    assert s.z1_vars == (1,)
    assert s.z2_vars == (2,)
    assert s.a.entries == (0, 1)
    assert s.b.entries == (0, 3)
    assert s.c.entries == (0, 1)
    assert s.f0_const == 0 and s.g0_const == 0


def test_gcd_split_constant_difference_moves_everything():
    rng = random.Random(131)
    f0 = QaryArray(6, 3, random_entries(rng, 6, 3))
    g0 = f0 + 4
    s = gcd_normalized(f0, g0)
    assert s.z2_vars == (1, 2, 3)
    assert s.z1_vars == ()
    assert s.a.entries == (f0.entries[0],)
    assert s.b.entries == (g0.entries[0],)
    assert s.c == f0 + (-f0.entries[0])


def test_gcd_split_nothing_in_common():
    f0 = QaryArray(2, 1, (0, 0))
    g0 = QaryArray(2, 1, (0, 1))
    s = gcd_normalized(f0, g0)
    assert s.z2_vars == ()
    assert s.z1_vars == (1,)
    assert s.a == f0
    assert s.b == g0
    assert s.c.entries == (0,)


def test_gcd_split_is_maximal():
    rng = random.Random(137)
    for _ in range(60):
        q = rng.choice((2, 4, 6))
        m = rng.randrange(1, 6)
        f, g = construct_standard(rand_params(rng, q, m))
        f0, _ = split_last(f)
        g0, _ = split_last(g)
        s = gcd_normalized(f0, g0)
        # re-splitting the residual pair must find nothing further in common
        s2 = gcd_normalized(s.a, s.b)
        assert s2.z2_vars == ()


def test_gcd_split_normalization_invariants():
    rng = random.Random(139)
    for _ in range(60):
        q = rng.choice((2, 3, 4, 6))
        m = rng.randrange(1, 5)
        f0 = QaryArray(q, m, random_entries(rng, q, m))
        g0 = QaryArray(q, m, random_entries(rng, q, m))
        s = gcd_normalized(f0, g0)
        assert tuple(sorted(s.z1_vars + s.z2_vars)) == tuple(range(1, m + 1))
        assert s.a.entries[0] == f0.entries[0]
        assert s.b.entries[0] == g0.entries[0]
        assert s.c.entries[0] == 0


def test_extract_d_standard_pair_trace():
    f = QaryArray(2, 2, (0, 0, 0, 1))
    g = QaryArray(2, 2, (0, 1, 0, 0))
    f0, f1 = split_last(f)
    g0, g1 = split_last(g)
    s = gcd_normalized(f0, g0)
    d, ok = extract_d(f1, g1, s)
    assert ok
    assert d.m == 0
    assert d.entries == (1,)


def test_extract_d_with_empty_residual_side():
    # choose the path so the split variable sees f0 == g0
    f, g = construct_standard(StandardParams(2, 2, (2, 1), (0, 0), 0, 0))
    f0, f1 = split_last(f)
    g0, g1 = split_last(g)
    s = gcd_normalized(f0, g0)
    assert s.z1_vars == ()
    d, ok = extract_d(f1, g1, s)
    assert ok
    assert d == f1 + s.b.reverse().entries[0]


def test_extract_d_flags_non_pairs():
    z = QaryArray(2, 1, (0, 0))
    f0, f1 = split_last(z)
    g0, g1 = split_last(z)
    s = gcd_normalized(f0, g0)
    _, ok = extract_d(f1, g1, s)
    assert not ok


def test_extract_d_reads_only_a_b_and_the_halves():
    # d = f1(0_z1, x_z2) + b*(0_z1) and the forced forms do not involve c,
    # so a common part moved off its normalisation changes neither
    rng = random.Random(7)
    for _ in range(20):
        q, m = rng.choice((4, 6, 8)), rng.randint(1, 6)
        f, g = construct_standard(rand_params(rng, q, m))
        f0, f1 = split_last(f)
        g0, g1 = split_last(g)
        s = gcd_normalized(f0, g0)
        moved = dataclasses.replace(s, c=s.c + 1)
        assert extract_d(f1, g1, moved) == extract_d(f1, g1, s)


def _fitted(z1, z2, a, b, c):
    return GcdSplit(z1, z2, a, b, c, a.entries[0], b.entries[0])


ONE, TWO = QaryArray(4, 1, (2, 1)), QaryArray(4, 2, (2, 1, 0, 3))
HALVES = QaryArray(4, 2, (0, 1, 2, 3)), QaryArray(4, 2, (3, 0, 2, 1))


@pytest.mark.parametrize("halves, split", [
    pytest.param((HALVES[0], QaryArray(8, 2, (0,) * 4)), _fitted((1,), (2,), ONE, ONE, ONE),
                 id="g1-modulus"),
    pytest.param((HALVES[0], ONE), _fitted((1,), (2,), ONE, ONE, ONE), id="g1-dimension"),
    pytest.param(HALVES, _fitted((1,), (2,), TWO, TWO, ONE), id="a-b-wider-than-z1"),
    pytest.param(HALVES, _fitted((1, 2), (), ONE, ONE, QaryArray(4, 0, (0,))),
                 id="a-b-narrower-than-z1"),
    pytest.param(HALVES, _fitted((1,), (2,), ONE, ONE, TWO), id="c-wider-than-z2"),
    pytest.param(HALVES, _fitted((1,), (2,), QaryArray(6, 1, (2, 1)), ONE, ONE), id="a-modulus"),
    pytest.param(HALVES, _fitted((1,), (2,), ONE, ONE, QaryArray(8, 1, (0, 1))), id="c-modulus"),
    pytest.param(HALVES, _fitted((1,), (), ONE, ONE, QaryArray(4, 0, (0,))), id="z2-missing"),
    pytest.param(HALVES, _fitted((1,), (1,), ONE, ONE, ONE), id="z1-z2-overlap"),
    pytest.param(HALVES, _fitted((1,), (3,), ONE, ONE, ONE), id="z2-out-of-range"),
])
def test_extract_d_rejects_a_split_that_does_not_fit_its_halves(halves, split):
    # each case breaks one fit of the split to the halves; a fitting split
    # of these halves passes
    extract_d(*HALVES, _fitted((1,), (2,), ONE, ONE, ONE))
    with pytest.raises(ValueError):
        extract_d(*halves, split)


def test_gcd_split_refuses_float_split_variables():
    # a float variable never reaches extract_d: the split's own constructor
    # refuses it, while the same split with integers fits these halves
    extract_d(*HALVES, _fitted((1,), (2,), ONE, ONE, ONE))
    with pytest.raises(ValueError, match="integer"):
        _fitted((1.0,), (2,), ONE, ONE, ONE)


def test_decompose_worked_example():
    f = QaryArray(2, 2, (0, 0, 0, 1))
    g = QaryArray(2, 2, (0, 1, 0, 0))
    params, cert = decompose(f, g)
    assert params == StandardParams(2, 2, (1, 2), (0, 0), 0, 0)
    assert cert.split_var == 2
    assert cert.split.z1_vars == (1,)
    assert cert.split.z2_vars == ()
    assert cert.d.entries == (1,)
    assert cert.e == 0 and cert.e_prime == 1
    verify_certificate(f, g, cert)


def test_decompose_dimension_one_base():
    f = QaryArray(2, 1, (0, 1))
    g = QaryArray(2, 1, (0, 0))
    params, cert = decompose(f, g)
    assert params == StandardParams(2, 1, (1,), (1,), 0, 0)
    assert construct_standard(params) == (f, g)
    verify_certificate(f, g, cert)


def test_decompose_dimension_zero():
    for q in (2, 4, 10):
        for c in (0, 1, q - 1):
            for e in (0, q // 2, q - 1):
                f = QaryArray(q, 0, (c,))
                g = QaryArray(q, 0, ((c + e) % q,))
                params, cert = decompose(f, g)
                assert params.c0 == c and params.c_prime == e
                assert params.pi == () and params.c == ()
                assert construct_standard(params) == (f, g)
                verify_certificate(f, g, cert)


def test_decompose_round_trip_random_params():
    rng = random.Random(149)
    for q in (2, 4, 6, 8, 10, 12):
        for m in range(0, 7):
            for _ in range(5):
                p = rand_params(rng, q, m)
                f, g = construct_standard(p)
                p2, cert = decompose(f, g)
                assert construct_standard(p2) == (f, g), (p, p2)
                verify_certificate(f, g, cert)
                assert replay(cert) == (f, g)


def test_decompose_rejects_non_pairs():
    with pytest.raises(NotAGapError):
        decompose(QaryArray(2, 1, (0, 0)), QaryArray(2, 1, (0, 0)))
    rng = random.Random(151)
    rejected = 0
    for _ in range(30):
        q = rng.choice((2, 4, 6))
        m = rng.randrange(1, 5)
        f = QaryArray(q, m, random_entries(rng, q, m))
        # (f, f) is never complementary in positive dimension: at the all-ones
        # shift the correlation is a single root of unity, twice
        assert not is_gap(f, f)
        with pytest.raises(NotAGapError):
            decompose(f, f)
        rejected += 1
    assert rejected == 30


def test_not_a_gap_error_names_the_half_and_the_cell():
    # moving one cell of g's x_m = 1 half leaves f0, g0 and d alone, so only
    # g1 breaks its forced form, at the moved cell, at the top node
    rng = random.Random(163)
    for _ in range(20):
        q = rng.choice((2, 4, 6))
        m = rng.randrange(1, 6)
        f, g = construct_standard(rand_params(rng, q, m))
        cell = rng.randrange(1 << (m - 1))
        moved = list(g.entries)
        moved[(1 << (m - 1)) + cell] = (moved[(1 << (m - 1)) + cell] + 1) % q
        with pytest.raises(NotAGapError) as exc:
            decompose(f, QaryArray(q, m, tuple(moved)))
        assert str(exc.value).endswith(
            f"at dimension {m}: g1 differs from -a* + q/2 + d at cell {cell}"
        )


def test_decompose_rejection_matches_direct_check():
    # on a dense random sample, decompose succeeds exactly when is_gap holds
    rng = random.Random(157)
    successes = 0
    for _ in range(300):
        q = rng.choice((2, 4))
        m = rng.randrange(1, 3)
        f = QaryArray(q, m, random_entries(rng, q, m))
        g = QaryArray(q, m, random_entries(rng, q, m))
        direct = is_gap(f, g)
        try:
            params, cert = decompose(f, g)
            via_decompose = True
            assert construct_standard(params) == (f, g)
        except NotAGapError:
            via_decompose = False
        assert direct == via_decompose, (q, m, f.entries, g.entries)
        successes += direct
    assert successes > 0


def test_decompose_rejects_odd_modulus():
    f = QaryArray(3, 0, (1,))
    with pytest.raises(OddModulusError):
        decompose(f, f)


def test_decompose_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        decompose(QaryArray(2, 1, (0, 1)), QaryArray(2, 2, (0, 1, 0, 0)))


def test_certificate_json_round_trip():
    rng = random.Random(163)
    for q, m in ((2, 0), (2, 3), (4, 4), (10, 2)):
        f, g = construct_standard(rand_params(rng, q, m))
        _, cert = decompose(f, g)
        back = DecompositionCertificate.from_json_dict(cert.to_json_dict())
        assert back == cert
        assert replay(back) == (f, g)
        verify_certificate(f, g, back)
    with pytest.raises(ValueError):
        DecompositionCertificate.from_json_dict({"q": 2})
    data = cert.to_json_dict()
    for key, bad in (
        ("e", 1.0), ("split_var", True), ("q", "10"), ("z2_vars", [1.0]), ("z1_vars", [True]),
    ):
        with pytest.raises(ValueError, match="integer"):
            DecompositionCertificate.from_json_dict({**data, key: bad})


def test_certificate_rejects_tampering():
    rng = random.Random(167)
    f, g = construct_standard(rand_params(rng, 4, 3))
    params, cert = decompose(f, g)

    # wrong claimed pair
    with pytest.raises(VerificationError):
        verify_certificate(g, f, cert)

    # tampered stored residual array
    bad_split = dataclasses.replace(cert.split, a=cert.split.a + 1)
    bad = dataclasses.replace(cert, split=bad_split)
    with pytest.raises(VerificationError):
        verify_certificate(f, g, bad)

    # tampered offset
    bad = dataclasses.replace(cert, e_prime=(cert.e_prime + 1) % 4)
    with pytest.raises(VerificationError):
        verify_certificate(f, g, bad)

    # tampered recombined parameters
    bad_params = dataclasses.replace(params, c0=(params.c0 + 1) % 4)
    bad = dataclasses.replace(cert, params=bad_params)
    with pytest.raises(VerificationError):
        verify_certificate(f, g, bad)

    # tampered leaf
    node = cert
    while not node.left.is_leaf:
        node = node.left
    leaf_params = dataclasses.replace(
        node.left.params, c0=(node.left.params.c0 + 1) % 4
    )
    bad_leaf = dataclasses.replace(node.left, params=leaf_params)
    rebuilt = dataclasses.replace(node, left=bad_leaf)
    # splice the modified subtree back onto the path from the root
    path = []
    cur = cert
    while cur is not node:
        path.append(cur)
        cur = cur.left
    for parent in reversed(path):
        rebuilt = dataclasses.replace(parent, left=rebuilt)
    with pytest.raises(VerificationError):
        verify_certificate(f, g, rebuilt)


def test_reloaded_certificate_with_a_malformed_tree_fails_verification():
    # a root split of sizes 0 and 2, so swapping the variable sets breaks shapes
    f, g = construct_standard(rand_params(random.Random(4), 4, 3))
    _, cert = decompose(f, g)
    data = cert.to_json_dict()
    assert (data["z1_vars"], data["z2_vars"]) == ([], [1, 2])
    for bad in (
        {**data, "q": 0},
        {**data, "z1_vars": data["z2_vars"], "z2_vars": data["z1_vars"]},
        {**data, "left": {**data["left"], "q": 2}},
    ):
        with pytest.raises(VerificationError):
            verify_certificate(f, g, DecompositionCertificate.from_json_dict(bad))


def _python_built():
    # the root splits z1 = (1,), z2 = (2,) into two inner children of m = 1
    f, g = construct_standard(StandardParams(4, 3, (1, 3, 2), (1, 0, 3), 1, 2))
    cert = decompose(f, g)[1]
    assert (cert.split.z1_vars, cert.split.z2_vars, cert.left.m, cert.right.m) == (
        (1,), (2,), 1, 1,
    )
    return f, g, cert


@pytest.mark.parametrize("side", ["z1_vars", "z2_vars"])
def test_python_built_certificate_with_float_split_variables_fails_c3(side):
    # 1.0 hashes and compares equal to 1, so a shape cached by an integer
    # call must not let it through: the split's constructor refuses the
    # floats before and after that call, so no certificate can hold them
    from golaypairs import forest

    f, g, cert = _python_built()
    floats = tuple(float(v) for v in getattr(cert.split, side))
    forest._shape.cache_clear()
    with pytest.raises(ValueError, match="integer"):
        dataclasses.replace(cert.split, **{side: floats})
    verify_certificate(f, g, cert)
    with pytest.raises(ValueError, match="integer"):
        dataclasses.replace(cert.split, **{side: floats})


@pytest.mark.parametrize("field", ["split", "left", "right"])
@pytest.mark.parametrize("node", ["root", "child"])
def test_python_built_certificate_missing_a_part_fails_verification(field, node):
    # an inner node's constructor refuses a missing part, so no certificate
    # that reaches the certifier lacks one
    f, g, cert = _python_built()
    verify_certificate(f, g, cert)
    target = cert if node == "root" else cert.left
    assert not target.is_leaf
    with pytest.raises(ValueError, match="missing or of the wrong type"):
        dataclasses.replace(target, **{field: None})


# a field of a certificate object of the wrong type: each edit, made with
# dataclasses.replace, is refused by the edited object's constructor
WRONG_TYPES = {
    "split_var": lambda c: dataclasses.replace(c, split_var=float(c.split_var)),
    "m": lambda c: dataclasses.replace(c, m=float(c.m)),
    "q": lambda c: dataclasses.replace(c, q=float(c.q)),
    "e": lambda c: dataclasses.replace(c, e=float(c.e)),
    "e_prime": lambda c: dataclasses.replace(c, e_prime=float(c.e_prime)),
    "params": lambda c: dataclasses.replace(c, params=c.params.to_json_dict()),
    "d": lambda c: dataclasses.replace(c, d=c.d.entries),
    "f0_const": lambda c: dataclasses.replace(c.split, f0_const=float(c.split.f0_const)),
    "g0_const": lambda c: dataclasses.replace(c.split, g0_const=float(c.split.g0_const)),
    "a": lambda c: dataclasses.replace(c.split, a=c.split.a.entries),
    "z2_vars": lambda c: dataclasses.replace(c.split, z2_vars=None),
}


@pytest.mark.parametrize("field", sorted(WRONG_TYPES))
def test_certificate_objects_refuse_a_field_of_the_wrong_type(field):
    # the refusal does not depend on what an integer call cached first
    f, g, cert = _python_built()
    verify_certificate(f, g, cert)
    for node in (cert, cert.left):
        with pytest.raises(ValueError):
            WRONG_TYPES[field](node)


def test_certificate_objects_refuse_wrong_types_in_a_fresh_process():
    # no shape or plan cached by an earlier call in this process
    import golaypairs

    script = """
import dataclasses
from golaypairs import StandardParams, construct_standard, decompose
cert = decompose(*construct_standard(StandardParams(4, 3, (1, 3, 2), (1, 0, 3), 1, 2)))[1]
for edit in ({"split_var": 3.0}, {"m": 3.0}, {"q": 4.0}, {"split": None}, {"left": None},
             {"right": None}):
    try:
        dataclasses.replace(cert, **edit)
    except ValueError:
        print("ValueError")
    else:
        print("accepted")
"""
    src = os.path.dirname(os.path.dirname(golaypairs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["ValueError"] * 6


def test_certificate_objects_turn_numpy_integers_into_ints():
    f, g, cert = _python_built()
    split = dataclasses.replace(
        cert.split, z1_vars=np.array(cert.split.z1_vars), z2_vars=list(cert.split.z2_vars),
        f0_const=np.int64(cert.split.f0_const), g0_const=np.int8(cert.split.g0_const),
    )
    assert split == cert.split
    assert type(split.z1_vars) is tuple and type(split.z2_vars) is tuple
    numbers = (*split.z1_vars, *split.z2_vars, split.f0_const, split.g0_const)
    assert all(type(v) is int for v in numbers)
    bent = dataclasses.replace(
        cert, q=np.int64(cert.q), m=np.int32(cert.m), split_var=np.int64(cert.split_var),
        split=split, e=np.int64(cert.e), e_prime=np.uint8(cert.e_prime),
    )
    assert bent == cert
    assert all(type(v) is int for v in (bent.q, bent.m, bent.split_var, bent.e, bent.e_prime))
    verify_certificate(f, g, bent)
    assert replay(bent) == (f, g)


def test_certificate_worked_example_structure():
    f = QaryArray(2, 2, (0, 0, 0, 1))
    g = QaryArray(2, 2, (0, 1, 0, 0))
    _, cert = decompose(f, g)
    d = cert.to_json_dict()
    assert d["m"] == 2 and d["split_var"] == 2
    assert d["left"]["m"] == 1
    assert d["right"]["m"] == 0
    assert d["left"]["left"]["m"] == 0
    assert d["params"] == {
        "q": 2, "m": 2, "pi": [1, 2], "c": [0, 0], "c0": 0, "c_prime": 0,
    }


def test_recognize_standard_round_trip():
    rng = random.Random(173)
    for q in (2, 4, 8):
        for m in range(0, 8):
            p = rand_params(rng, q, m)
            f, g = construct_standard(p)
            got = recognize_standard(f, g)
            assert got is not None
            assert construct_standard(got) == (f, g)
            if m >= 2:
                assert got == p  # orientation is unique in dimension >= 2


def test_recognize_rejects_cubic():
    f = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] * x[2])
    g = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] * x[2] + x[0])
    assert recognize_standard(f, g) is None


def test_recognize_rejects_triangle():
    f = QaryArray.from_function(
        2, 3, lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    )
    g = QaryArray.from_function(
        2, 3, lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2] + x[0]
    )
    assert recognize_standard(f, g) is None


def test_recognize_rejects_broken_path():
    # disconnected quadratic graph: an edge plus an isolated vertex... with
    # m = 3 the single edge {1,2} leaves variable 3 off the path, so the
    # quadratic part is not a Hamiltonian path even though it is a path
    f = QaryArray.from_function(2, 3, lambda x: x[0] * x[1])
    g = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] + x[0])
    assert recognize_standard(f, g) is None


def test_recognize_rejects_wrong_quadratic_coefficient():
    f = QaryArray.from_function(4, 2, lambda x: x[0] * x[1])
    g = QaryArray.from_function(4, 2, lambda x: x[0] * x[1] + 2 * x[0])
    assert recognize_standard(f, g) is None


def test_recognize_rejects_offset_from_non_endpoint():
    # path 1-2-3; offset on the middle variable
    f = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] + x[1] * x[2])
    g = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] + x[1] * x[2] + x[1])
    assert recognize_standard(f, g) is None


def test_recognize_rejects_nonlinear_offset():
    f = QaryArray.from_function(2, 2, lambda x: x[0] * x[1])
    g = QaryArray.from_function(2, 2, lambda x: x[0] + x[1])
    assert recognize_standard(f, g) is None


def test_recognize_dimension_zero_and_one():
    f = QaryArray(4, 0, (1,))
    g = QaryArray(4, 0, (2,))
    assert recognize_standard(f, g) == StandardParams(4, 0, (), (), 1, 1)
    f = QaryArray(4, 1, (1, 2))
    g = QaryArray(4, 1, (2, 1))  # g - f = 2*x1 + 1
    assert recognize_standard(f, g) == StandardParams(4, 1, (1,), (1,), 1, 1)
    # offset missing the q/2 leading coefficient
    h = QaryArray(4, 1, (2, 3))  # h - f = 1
    assert recognize_standard(f, h) is None


def test_recognize_odd_modulus_raises():
    f = QaryArray(3, 1, (0, 1))
    with pytest.raises(OddModulusError):
        recognize_standard(f, f)


def test_recognized_pairs_are_exactly_the_census_standard_set():
    from golaypairs import enumerate_all_gaps

    for q, m in ((2, 2), (4, 1)):
        for f, g in enumerate_all_gaps(q, m):
            assert recognize_standard(f, g) is not None


def test_replay_uses_only_the_leaves():
    rng = random.Random(179)
    f, g = construct_standard(rand_params(rng, 6, 4))
    _, cert = decompose(f, g)
    # corrupting a stored intermediate array does not change replay output
    bad_split = dataclasses.replace(cert.split, a=cert.split.a + 1)
    bad = dataclasses.replace(cert, split=bad_split)
    assert replay(bad) == (f, g)
    # but verification catches the inconsistency
    with pytest.raises(VerificationError):
        verify_certificate(f, g, bad)


def failing_rows(monkeypatch, broken):
    """Make every row (dimension, f entries, g entries) of the certifier's
    correlation for which ``broken`` holds fail."""
    certify = importlib.import_module("golaypairs.certify")
    gaps = certify._gaps

    def patched(plan, q, rows):
        verdicts = gaps(plan, q, rows)
        dim = np.shape(rows)[2].bit_length() - 1
        for j, (fe, ge) in enumerate(np.asarray(rows).tolist()):
            if broken(dim, tuple(fe), tuple(ge)):
                verdicts[j] = False
        return verdicts

    monkeypatch.setattr(certify, "_gaps", patched)
    return certify


def test_mutated_rows_do_not_reach_a_later_pair_sharing_its_sub_nodes(monkeypatch):
    # the root row of (2,3) census pair 10 fails its correlation; later pairs
    # of the batch share its inner sub-pairs, which are one row each, and
    # still certify
    from golaypairs import enumerate_all_gaps

    pairs = enumerate_all_gaps(2, 3)
    target = (pairs[10][0].entries, pairs[10][1].entries)
    below = set(reference_walk(decompose(*pairs[10])[1], 3)[2][:-1])
    assert any(below & set(reference_walk(decompose(f, g)[1], 3)[2]) for f, g in pairs[11:])
    certify = failing_rows(monkeypatch, lambda dim, fe, ge: (fe, ge) == target)
    message = "certificate verification failed: a node pair of dimension 3 is not complementary"
    assert certify._certify(2, 3, pairs)[0] == {10: message}


def test_a_pair_fails_on_the_first_dimension_its_walk_met(monkeypatch):
    # every node pair of dimension 2 or 3 fails its correlation; the walk of
    # pair 0 meets dimensions 1, 3, 2 and 6 in that order, and that of pair 1
    # dimensions 1, 2, 3, 4 and 6, so they fail on dimensions 3 and 2
    params = [
        StandardParams(4, 6, (3, 5, 2, 6, 4, 1), (0, 1, 0, 1, 1, 1), 0, 0),
        StandardParams(4, 6, (5, 3, 2, 1, 6, 4), (3, 2, 3, 2, 1, 1), 2, 1),
    ]
    pairs = [construct_standard(p) for p in params]
    certs = [decompose(f, g)[1] for f, g in pairs]
    met = [list(dict.fromkeys(dim for dim, _, _ in reference_walk(c, 6)[2])) for c in certs]
    assert met == [[1, 3, 2, 6], [1, 2, 3, 4, 6]]
    certify = failing_rows(monkeypatch, lambda dim, fe, ge: dim in (2, 3))
    message = "certificate verification failed: a node pair of dimension {} is not"
    message += " complementary"
    want = {0: message.format(3), 1: message.format(2)}
    assert certify._certify(4, 6, pairs, certs)[0] == want
    assert certify._certify(4, 6, pairs)[0] == want
    for (f, g), cert, text in zip(pairs, certs, want.values()):
        with pytest.raises(VerificationError) as err:
            verify_certificate(f, g, cert, max_corr_dim=6)
        assert str(err.value) == text


def test_a_non_pair_reports_the_first_break_of_a_depth_first_walk():
    # a walk level by level would report the right sub-pair's break
    f, g = (QaryArray(4, 6, entries) for entries in DEEPER_LEFT_BREAK)
    (f0, f1), (g0, g1) = split_last(f), split_last(g)
    split = gcd_normalized(f0, g0)
    assert (split.z1_vars, split.z2_vars) == ((2, 3, 5), (1, 4))
    d, ok = extract_d(f1, g1, split)
    assert ok
    message = "not a complementary pair: residual halves violate the forced form at"
    left = f"{message} dimension 1: g1 differs from -a* + q/2 + d at cell 0"
    for pair, text in (
        ((split.a, split.b), left),
        ((split.c, d), f"{message} dimension 2: g1 differs from -a* + q/2 + d at cell 1"),
        ((f, g), left),
    ):
        with pytest.raises(NotAGapError) as err:
            decompose(*pair)
        assert str(err.value) == text
    certify = importlib.import_module("golaypairs.certify")
    assert certify._certify(4, 6, [(f, g)])[0] == {0: left}
    assert reference_certify(4, 6, [(f, g)])[0] == {0: left}


def test_separate_calls_share_no_sub_certificate():
    f, g = construct_standard(rand_params(random.Random(181), 4, 5))
    _, cert = decompose(f, g)
    _, again = decompose(f, g)
    verify_certificate(f, g, cert, max_corr_dim=5)
    assert replay(cert) == (f, g)
    # each call opens its own memo, so two decompositions of one pair are
    # equal but share no sub-certificate
    assert again == cert
    assert again.left is not cert.left and again.right is not cert.right


def test_a_failing_shared_subtree_raises_for_every_pair():
    certify = importlib.import_module("golaypairs.certify")
    f, g = construct_standard(rand_params(random.Random(191), 4, 4))
    _, cert = decompose(f, g)
    side = "left" if cert.left.m else "right"
    child = getattr(cert, side)
    bad_child = dataclasses.replace(child, e=(child.e + 1) % 4)
    bad = dataclasses.replace(cert, **{side: bad_child})
    # two roots share the failing subtree; the clean root between them passes
    failures = certify._certify(4, 4, [(f, g)] * 3, [bad, cert, bad])[0]
    message = "certificate verification failed: stored offsets disagree with sub-parameters"
    assert failures == {0: message, 2: message}
    with pytest.raises(VerificationError, match="offsets disagree"):
        verify_certificate(f, g, bad, max_corr_dim=4)


def _witness_base(q=4):
    # the root splits into a dimension-0 left and a dimension-2 right child
    f, g = construct_standard(StandardParams(q, 3, (3, 1, 2), (1, 0, 1), 1, 1))
    data = decompose(f, g)[1].to_json_dict()
    assert (data["z1_vars"], data["z2_vars"]) == ([], [1, 2])
    return f, g, data


def _bump(array, k=1):
    return {**array, "entries": [(v + k) % array["q"] for v in array["entries"]]}


def _foreign_leaf():
    params = StandardParams(2, 0, (), (), 1, 1)
    return (*construct_standard(params), {"q": 4, "m": 0, "params": params.to_json_dict()})


def _rerooted_modulus():
    from golaypairs.forest import _param_objects, _param_rows, _recombine, _shape

    f, g, data = _witness_base(2)
    left, right = (
        _param_rows(np.int64, [StandardParams.from_json_dict(data[side]["params"])])
        for side in ("left", "right")
    )
    (params,) = _param_objects(4, 3, _recombine(4, _shape((), (1, 2)), left, right))
    return f, g, {**data, "q": 4, "params": params.to_json_dict()}


def _moved_constant():
    # k = 1 moves from the left pair (a - k, b - k) to the right pair
    # (c + k, d - k): the node pair and the root parameters stay, c(0) = k
    f, g, data = _witness_base()
    a, b, c, d = (_bump(data[s], k) for s, k in (("a", -1), ("b", -1), ("c", 1), ("d", -1)))
    left_params, left = decompose(QaryArray.from_json_dict(a), QaryArray.from_json_dict(b))
    right_params, right = decompose(QaryArray.from_json_dict(c), QaryArray.from_json_dict(d))
    data = {
        **data, "a": a, "b": b, "c": c, "d": d,
        "f0_const": a["entries"][0], "g0_const": b["entries"][0],
        "e": left_params.c_prime, "e_prime": right_params.c_prime,
        "left": left.to_json_dict(), "right": right.to_json_dict(),
    }
    return f, g, data


def _edit(**changes):
    def tamper():
        f, g, data = _witness_base()
        return f, g, {**data, **{k: edit(data) for k, edit in changes.items()}}

    return tamper


def _swapped_claim():
    f, g, data = _witness_base()
    return g, f, data


# One row per check of the certificate walk that a certificate can fail: a
# tamper, edited through the JSON form, that this check rejects and that
# every other check lets through.  The factor-product and degree-reversal
# identities of genfun and the correlation rows have no such certificate.
WITNESSES = [
    ("C1", _foreign_leaf, "node parameters do not have the node's q=4 and m=0"),
    ("C2", _edit(split_var=lambda d: 2), "split variable 2 is not the highest (3)"),
    (
        "C3",
        _edit(z2_vars=lambda d: [1, 9]),
        "split variable sets do not partition the remaining variables",
    ),
    ("C4", _rerooted_modulus, "sub-certificates do not have the node's modulus"),
    (
        "C5",
        _edit(z1_vars=lambda d: d["z2_vars"], z2_vars=lambda d: d["z1_vars"]),
        "sub-certificate dimensions do not match the split variable sets",
    ),
    (
        "C6",
        _edit(a=lambda d: _bump(d["a"]), f0_const=lambda d: _bump(d["a"])["entries"][0]),
        "stored intermediate arrays disagree with sub-certificates",
    ),
    (
        "C7",
        _edit(f0_const=lambda d: d["f0_const"] + 1),
        "stored normalisation constants are inconsistent",
    ),
    ("C8", _moved_constant, "common part is not origin-normalised"),
    ("C9", _edit(e=lambda d: d["e"] + 1), "stored offsets disagree with sub-parameters"),
    (
        "C10",
        _edit(params=lambda d: {**d["params"], "c0": (d["params"]["c0"] + 1) % 4}),
        "node parameters are not the recombination of the children",
    ),
    ("C13", _swapped_claim, "replayed pair differs from the claimed pair"),
]


@pytest.mark.parametrize(
    "tamper, message", [row[1:] for row in WITNESSES], ids=[row[0] for row in WITNESSES]
)
def test_every_certificate_check_has_a_witness(tamper, message):
    f, g, data = tamper()
    cert = DecompositionCertificate.from_json_dict(data)
    with pytest.raises(VerificationError) as exc:
        verify_certificate(f, g, cert, max_corr_dim=cert.m)
    assert str(exc.value) == f"certificate verification failed: {message}"


@pytest.mark.parametrize("q", [(1 << 56) + 2, 1 << 70])
def test_decomposition_and_certification_past_int64(q):
    # past 2**56 the stacks hold Python integers: decompose, replay and the
    # certifier (without the correlations, which need q <= 4096) agree with
    # the node-by-node reference on pairs, tampered certificates and non-pairs;
    # m = 9 reaches shapes whose index arrays are stored narrow
    rng = random.Random(q % 997)
    for m in (*range(7), 9):
        for _ in range(3):
            params = rand_params(rng, q, m)
            f, g = construct_standard(params)
            got, cert = decompose(f, g)
            assert got == params
            assert cert.to_json_dict() == reference_decompose(f, g).to_json_dict()
            fe, ge, _ = reference_walk(cert, 0)
            assert (fe, ge) == (f.entries, g.entries)
            assert tuple(arr.entries for arr in replay(cert)) == (fe, ge)
            verify_certificate(f, g, cert, max_corr_dim=0)
            if not m:
                continue
            bent = dataclasses.replace(
                cert, params=dataclasses.replace(cert.params, c0=(cert.params.c0 + 1) % q)
            )
            with pytest.raises(VerificationError) as want:
                reference_walk(bent, 0)
            with pytest.raises(VerificationError) as got_error:
                verify_certificate(f, g, bent, max_corr_dim=0)
            assert str(got_error.value) == str(want.value)
            moved = list(f.entries)
            moved[rng.randrange(len(moved))] += q // 2
            moved = QaryArray(q, m, [v % q for v in moved])
            with pytest.raises(NotAGapError) as want:
                reference_decompose(moved, g)
            with pytest.raises(NotAGapError) as got_error:
                decompose(moved, g)
            assert str(got_error.value) == str(want.value)
