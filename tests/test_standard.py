"""The quadratic-path construction."""

import random

import numpy as np
import pytest

from golaypairs import (
    OddModulusError,
    QaryArray,
    StandardParams,
    construct_standard,
    is_gap,
    to_anf,
)


def test_zero_params_worked_example():
    f, g = construct_standard(StandardParams(2, 2, (1, 2), (0, 0), 0, 0))
    assert f.entries == (0, 0, 0, 1)
    assert g.entries == (0, 1, 0, 0)


def test_dimension_zero_degenerates_to_constants():
    f, g = construct_standard(StandardParams(6, 0, (), (), 4, 5))
    assert f.entries == (4,)
    assert g.entries == ((4 + 5) % 6,)


def test_dimension_one():
    f, g = construct_standard(StandardParams(2, 1, (1,), (1,), 0, 0))
    assert f.entries == (0, 1)
    assert g.entries == (0, 0)
    f, g = construct_standard(StandardParams(4, 1, (1,), (0,), 1, 3))
    assert f.entries == (1, 1)
    assert g.entries == (0, 2)  # g = f + 2*x1 + 3


def test_offset_relation_between_members():
    rng = random.Random(109)
    for _ in range(40):
        q = rng.choice((2, 4, 6, 8, 10, 12))
        m = rng.randrange(1, 6)
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        p = StandardParams(
            q, m, tuple(pi), tuple(rng.randrange(q) for _ in range(m)),
            rng.randrange(q), rng.randrange(q),
        )
        f, g = construct_standard(p)
        lead = QaryArray.from_function(q, m, lambda x: (q // 2) * x[p.pi[0] - 1])
        assert g == f + lead + p.c_prime


def test_anf_of_f_is_path_plus_linear():
    p = StandardParams(6, 4, (2, 4, 1, 3), (5, 0, 1, 2), 3, 1)
    f, _ = construct_standard(p)
    a = to_anf(f)
    expect = {
        frozenset({2, 4}): 3,
        frozenset({4, 1}): 3,
        frozenset({1, 3}): 3,
        frozenset({1}): 5,
        frozenset({3}): 1,
        frozenset({4}): 2,
        frozenset(): 3,
    }
    assert a.coeffs == expect


def test_construction_always_yields_complementary_pairs():
    rng = random.Random(113)
    for q in (2, 4, 6, 8, 10, 12):
        for m in range(0, 6):
            pi = list(range(1, m + 1))
            rng.shuffle(pi)
            p = StandardParams(
                q, m, tuple(pi), tuple(rng.randrange(q) for _ in range(m)),
                rng.randrange(q), rng.randrange(q),
            )
            f, g = construct_standard(p)
            assert is_gap(f, g), p


def test_odd_modulus_rejected():
    with pytest.raises(OddModulusError):
        StandardParams(3, 1, (1,), (0,), 0, 0)
    with pytest.raises(OddModulusError):
        StandardParams(1, 0, (), (), 0, 0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        StandardParams(2, 2, (1, 1), (0, 0), 0, 0)
    with pytest.raises(ValueError):
        StandardParams(2, 2, (1, 3), (0, 0), 0, 0)
    with pytest.raises(ValueError):
        StandardParams(2, 2, (1, 2), (0,), 0, 0)
    with pytest.raises(ValueError):
        StandardParams(2, 2, (1,), (0, 0), 0, 0)
    # non-integers are refused rather than truncated
    with pytest.raises(ValueError):
        StandardParams(4, 2, (1, 2), (1.9, 0), 2.5, 0)
    with pytest.raises(ValueError):
        StandardParams(4.0, 1, (1,), (0,), 0, 0)
    with pytest.raises(ValueError):
        StandardParams(4, 2, (1.0, 2), (0, 0), 0, 0)
    with pytest.raises(ValueError):
        StandardParams(4, 1, (1,), (0,), 0, "1")
    p = StandardParams(np.int64(4), 1, (np.int32(1),), (np.int64(7),), np.int8(5), 0)
    assert p == StandardParams(4, 1, (1,), (3,), 1, 0)
    assert all(type(v) is int for v in (p.q, p.m, *p.pi, *p.c, p.c0, p.c_prime))


@pytest.mark.parametrize("pi, c", [(None, (0,)), ((1,), None), (1, (0,)), ((1,), 5)])
def test_a_permutation_or_linear_part_that_is_not_a_sequence_is_a_value_error(pi, c):
    with pytest.raises(ValueError, match="expected integers"):
        StandardParams(4, 1, pi, c, 0, 0)


def test_constants_reduced_on_entry():
    p = StandardParams(4, 1, (1,), (7,), -1, 9)
    assert p.c == (3,)
    assert p.c0 == 3
    assert p.c_prime == 1


def test_json_round_trip():
    p = StandardParams(8, 3, (2, 3, 1), (1, 5, 7), 2, 6)
    assert StandardParams.from_json_dict(p.to_json_dict()) == p
    with pytest.raises(ValueError):
        StandardParams.from_json_dict({"q": 2, "m": 1})
    with pytest.raises(ValueError):
        StandardParams.from_json_dict(
            {"q": 2, "m": 1, "pi": None, "c": [0], "c0": 0, "c_prime": 0}
        )


def test_distinct_parameters_can_collide_only_as_documented():
    # the parameter map is injective on (pi, c, c0, c_prime) for m >= 2:
    # pairs built from different parameters differ as ordered pairs
    seen = {}
    q, m = 2, 2
    from itertools import permutations, product

    for pi in permutations((1, 2)):
        for c in product(range(q), repeat=2):
            for c0 in range(q):
                for cp in range(q):
                    f, g = construct_standard(StandardParams(q, m, pi, c, c0, cp))
                    key = (f.entries, g.entries)
                    assert key not in seen, (seen[key], (pi, c, c0, cp))
                    seen[key] = (pi, c, c0, cp)
    assert len(seen) == 2 * 4 * 2 * 2
