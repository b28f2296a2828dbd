"""Normal forms over the cube and variable separability."""

import random

import pytest

from golaypairs import (
    Anf,
    PartitionTooFineError,
    QaryArray,
    VarPartition,
    combine,
    from_anf,
    interaction_components,
    separate,
    to_anf,
)

from helpers import brute_finest_partition, random_entries


def test_to_anf_worked_values():
    a = to_anf(QaryArray(2, 2, (0, 0, 0, 1)))
    assert a.coeffs == {frozenset({1, 2}): 1}
    c = to_anf(QaryArray(5, 3, (3,) * 8))
    assert c.coeffs == {frozenset(): 3}
    assert to_anf(QaryArray(4, 2, (0, 1, 0, 3))).coeffs == {
        frozenset({1}): 1,
        frozenset({1, 2}): 2,
    }


def test_from_anf_worked_values():
    f = from_anf(Anf(2, 2, {frozenset({1, 2}): 1}))
    assert f.entries == (0, 0, 0, 1)
    assert from_anf(Anf(3, 2, {})).entries == (0, 0, 0, 0)
    # two-edge path on three variables
    f = from_anf(Anf(2, 3, {frozenset({1, 2}): 1, frozenset({2, 3}): 1}))
    expect = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] + x[1] * x[2])
    assert f == expect


def test_anf_round_trip_exhaustive_small():
    for q, m in ((2, 2), (3, 1), (4, 1)):
        for ident in range(q ** (1 << m)):
            e = []
            w = ident
            for _ in range(1 << m):
                w, r = divmod(w, q)
                e.append(r)
            f = QaryArray(q, m, tuple(e))
            assert from_anf(to_anf(f)) == f


def test_anf_round_trip_random_large():
    rng = random.Random(61)
    for q, m in ((2, 8), (4, 6), (6, 10), (12, 5)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        a = to_anf(f)
        assert from_anf(a) == f
        assert to_anf(from_anf(a)) == a


def test_anf_agrees_with_direct_evaluation():
    rng = random.Random(67)
    for _ in range(20):
        q = rng.choice((2, 3, 4, 6))
        m = rng.randrange(0, 5)
        f = QaryArray(q, m, random_entries(rng, q, m))
        a = to_anf(f)
        for t in range(1 << m):
            val = 0
            for subset, coeff in a.coeffs.items():
                if all(t >> (v - 1) & 1 for v in subset):
                    val += coeff
            assert val % q == f.entries[t]


def test_anf_normalization():
    a = Anf(4, 2, {frozenset({1}): 6, frozenset({2}): 4, frozenset(): -1})
    assert a.coeffs == {frozenset({1}): 2, frozenset(): 3}
    assert a.degree == 1
    assert Anf(2, 1, {}).degree == 0
    with pytest.raises(ValueError):
        Anf(2, 1, {frozenset({2}): 1})


def test_interaction_components_worked_values():
    f = QaryArray.from_function(2, 3, lambda x: x[0] * x[1] + x[1] * x[2])
    assert interaction_components(f).blocks == ((1, 2, 3),)
    f = QaryArray.from_function(2, 3, lambda x: x[0] + x[1] * x[2])
    assert interaction_components(f).blocks == ((1,), (2, 3))
    f = QaryArray.constant(2, 1, m=3)
    assert interaction_components(f).blocks == ((1,), (2,), (3,))


def test_interaction_components_match_brute_force():
    rng = random.Random(71)
    for q, m in ((2, 1), (2, 2), (2, 3), (3, 2), (4, 3), (6, 4)):
        for _ in range(60):
            f = QaryArray(q, m, random_entries(rng, q, m))
            got = interaction_components(f).blocks
            want = brute_finest_partition(q, m, f.entries)
            assert got == want, (q, m, f.entries)


def test_impossible_shapes_are_refused():
    for args in ((0, 1, {frozenset({1}): 1}), (2, -1, {})):
        with pytest.raises(ValueError):
            Anf(*args)
    with pytest.raises(ValueError):
        VarPartition(-1, ())


@pytest.mark.parametrize(
    "args",
    [
        (4, 2, {frozenset({1}): 1.5}),
        (4, 2, {frozenset({1.7}): 1}),
        (4, 2, {frozenset({1}): "3"}),
        (4.5, 2, {}),
        (4, 2.0, {}),
    ],
)
def test_anf_rejects_fields_that_are_not_integers(args):
    with pytest.raises(ValueError):
        Anf(*args)


@pytest.mark.parametrize("args", [(2, ((1.9, 2),)), (2.0, ((1, 2),)), (1, (("1",),))])
def test_var_partition_rejects_fields_that_are_not_integers(args):
    with pytest.raises(ValueError):
        VarPartition(*args)


@pytest.mark.parametrize("blocks", [None, 5, (1, 2), ((1,), None)])
def test_var_partition_blocks_that_are_not_sequences_are_a_value_error(blocks):
    with pytest.raises(ValueError, match="expected integers"):
        VarPartition(2, blocks)


def test_var_partition_validation():
    assert VarPartition(3, ((3, 1), (2,))).blocks == ((1, 3), (2,))
    with pytest.raises(ValueError):
        VarPartition(2, ((1,),))
    with pytest.raises(ValueError):
        VarPartition(2, ((1, 2), (2,)))
    with pytest.raises(ValueError):
        VarPartition(2, ((1, 2), ()))
    with pytest.raises(ValueError):
        VarPartition(1, ((1, 2),))


def test_separate_worked_example():
    f = QaryArray.from_function(2, 3, lambda x: x[0] + x[1] * x[2] + 1)
    parts, const = separate(f, VarPartition(3, ((1,), (2, 3))))
    assert const == 1
    assert parts[0] == QaryArray(2, 1, (0, 1))
    assert parts[1] == QaryArray.from_function(2, 2, lambda x: x[0] * x[1])


def test_separate_single_block_is_origin_pinned():
    rng = random.Random(73)
    f = QaryArray(5, 3, random_entries(rng, 5, 3))
    parts, const = separate(f, VarPartition(3, ((1, 2, 3),)))
    assert const == f.entries[0]
    assert parts[0] == f + (-f.entries[0])


def test_separate_linear_split():
    f = QaryArray.from_function(4, 2, lambda x: x[0] + 3 * x[1])
    parts, const = separate(f, VarPartition(2, ((1,), (2,))))
    assert const == 0
    assert parts[0].entries == (0, 1)
    assert parts[1].entries == (0, 3)


def test_separate_rejects_partitions_finer_than_interactions():
    f = QaryArray.from_function(2, 2, lambda x: x[0] * x[1])
    with pytest.raises(PartitionTooFineError):
        separate(f, VarPartition(2, ((1,), (2,))))


def test_separate_refusal_names_the_partition_and_first_differing_cell():
    # both origin-pinned parts of x1*x2 vanish, so the block sum misses cell 3
    f = QaryArray.from_function(2, 2, lambda x: x[0] * x[1])
    with pytest.raises(PartitionTooFineError, match=r"\(\(1,\), \(2,\)\).* cell 3$"):
        separate(f, VarPartition(2, ((1,), (2,))))


def test_separate_accepts_coarser_partitions():
    f = QaryArray.from_function(2, 3, lambda x: x[0] + x[1])
    parts, const = separate(f, VarPartition(3, ((1, 2), (3,))))
    assert parts[1].entries == (0, 0)
    rebuilt = combine(2, 3, [((1, 2), parts[0]), ((3,), parts[1])], const)
    assert rebuilt == f


def test_separate_reconstruction_on_random_arrays():
    rng = random.Random(79)
    for _ in range(40):
        q = rng.choice((2, 3, 4, 6))
        m = rng.randrange(1, 5)
        f = QaryArray(q, m, random_entries(rng, q, m))
        p = interaction_components(f)
        parts, const = separate(f, p)
        assert all(part.entries[0] == 0 for part in parts)
        rebuilt = combine(q, m, list(zip(p.blocks, parts)), const)
        assert rebuilt == f


def test_separate_dimension_mismatch():
    f = QaryArray(2, 2, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        separate(f, VarPartition(3, ((1, 2, 3),)))
