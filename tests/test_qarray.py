"""Arrays over the binary cube: storage, correlation, pairs, projections."""

import random
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from golaypairs import (
    Anf,
    BudgetExceededError,
    DecompositionCertificate,
    QaryArray,
    StandardParams,
    VarPartition,
    all_shifts,
    autocorrelation,
    combine,
    construct_standard,
    correlation_spectrum,
    decompose,
    from_array,
    get_context,
    half_shifts,
    is_gap,
    is_gcp,
    restrict,
    sequence_autocorrelation,
    to_anf,
)

from golaypairs import qarray
from golaypairs.qarray import _SLICE, _cube_plan, _sequence_plan

from helpers import float_autocorrelation, float_is_gap, random_entries

X1X2 = QaryArray(2, 2, (0, 0, 0, 1))


def test_entry_layout_lsb_first():
    f = QaryArray.from_function(3, 2, lambda x: x[0] + 2 * x[1])
    # t = x1 + 2*x2: cell (1,0) sits at index 1, cell (0,1) at index 2
    assert f.entries == (0, 1, 2, 0)
    assert f.value((1, 0)) == 1
    assert f.value((0, 1)) == 2


def test_validation():
    with pytest.raises(ValueError):
        QaryArray(2, 1, (0, 1, 0))
    with pytest.raises(ValueError):
        QaryArray(2, 1, (0, 2))
    with pytest.raises(ValueError):
        QaryArray(2, -1, ())
    with pytest.raises(ValueError):
        QaryArray(0, 0, (0,))
    assert QaryArray(5, 0, (3,)).m == 0
    # non-integers are refused rather than truncated
    for args in ((2, 1, (0, 1.7)), (2.5, 1, (0, 1)), (2, 1.0, (0, 1)), (2, 0, ("1",))):
        with pytest.raises(ValueError):
            QaryArray(*args)
    # numpy integers are accepted and stored as int
    f = QaryArray(np.int64(4), np.int8(1), np.array([3, 1]))
    assert f == QaryArray(4, 1, (3, 1))
    assert all(type(v) is int for v in (f.q, f.m, *f.entries))


@pytest.mark.parametrize(
    "fn, args",
    [
        (is_gcp, (2.0, (0, 1), (0, 0))),
        (sequence_autocorrelation, (2.0, (0, 1), 1)),
        (sequence_autocorrelation, (2, (0, 1), 1.0)),
        (combine, (2, 1.0, [])),
        (QaryArray.constant, (2, 1, 1.0)),
        (QaryArray.from_function, (2, 1.0, sum)),
        (all_shifts, (1.0,)),
        (half_shifts, (1.0,)),
        (restrict, (X1X2, [1.0])),
        (QaryArray.constant, (0, 1)),
        (QaryArray.from_function, (0, 1, sum)),
        (QaryArray.constant, (2, 1, -1)),
    ],
)
def test_public_entries_refuse_bad_moduli_dimensions_and_shifts(fn, args):
    # the integer versions are cached first: a float must not find their entry
    get_context(2)
    half_shifts(1)
    with pytest.raises(ValueError, match="expected integers|must be positive|nonnegative"):
        fn(*args)


@pytest.mark.parametrize("entries", [None, 7])
def test_entries_that_are_not_a_sequence_are_a_value_error(entries):
    with pytest.raises(ValueError, match="expected integers"):
        QaryArray(4, 1, entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_gcp(2, [0.5, 0], [0, 0]),
        lambda: sequence_autocorrelation(4, [0.7, 1, 2], 1),
        lambda: is_gcp(4, ["a", 0], [0, 0]),
        lambda: is_gcp(4, None, None),
    ],
    ids=["float", "float-shifted", "string", "none"],
)
def test_sequence_entries_that_are_not_integers_are_a_value_error(call):
    # they are refused rather than truncated by the cast to int64
    with pytest.raises(ValueError, match="expected integers"):
        call()


def _bool_edits():
    """Each integer field of each validating constructor, as a function that
    builds the object with a bool put into that field (or among its
    entries)."""
    f, g = construct_standard(StandardParams(4, 2, (2, 1), (1, 3), 2, 1))
    cert = decompose(f, g)[1]
    params, split = cert.params, cert.split
    leaf = DecompositionCertificate(4, 0, StandardParams(4, 0, (), (), 0, 0))
    gen = from_array(f)
    anf = to_anf(f)
    return {
        "QaryArray.q": lambda b: replace(f, q=b),
        "QaryArray.m": lambda b: replace(f, m=b),
        "QaryArray.entries": lambda b: replace(f, entries=(b,) + f.entries[1:]),
        "StandardParams.q": lambda b: replace(params, q=b),
        "StandardParams.m": lambda b: replace(params, m=b),
        "StandardParams.pi": lambda b: replace(params, pi=(2, b)),
        "StandardParams.c": lambda b: replace(params, c=(b, 0)),
        "StandardParams.c0": lambda b: replace(params, c0=b),
        "StandardParams.c_prime": lambda b: replace(params, c_prime=b),
        "GcdSplit.z1_vars": lambda b: replace(split, z1_vars=(b,)),
        "GcdSplit.z2_vars": lambda b: replace(split, z2_vars=(b,)),
        "GcdSplit.f0_const": lambda b: replace(split, f0_const=b),
        "GcdSplit.g0_const": lambda b: replace(split, g0_const=b),
        "DecompositionCertificate.q": lambda b: replace(cert, q=b),
        "DecompositionCertificate.m": lambda b: replace(cert, m=b),
        "DecompositionCertificate.leaf_q": lambda b: replace(leaf, q=b),
        "DecompositionCertificate.leaf_m": lambda b: replace(leaf, m=b),
        "DecompositionCertificate.split_var": lambda b: replace(cert, split_var=b),
        "DecompositionCertificate.e": lambda b: replace(cert, e=b),
        "DecompositionCertificate.e_prime": lambda b: replace(cert, e_prime=b),
        "Anf.q": lambda b: replace(anf, q=b),
        "Anf.m": lambda b: replace(anf, m=b),
        "Anf.monomial": lambda b: Anf(4, 2, {frozenset({b, 2}): 1}),
        "Anf.coefficient": lambda b: Anf(4, 2, {frozenset({1}): b}),
        "VarPartition.m": lambda b: VarPartition(b, ((1,),)),
        "VarPartition.blocks": lambda b: VarPartition(2, ((b, 2),)),
        "GenFun.q": lambda b: replace(gen, q=b),
        "GenFun.m": lambda b: replace(gen, m=b),
        "GenFun.support": lambda b: replace(gen, support=frozenset({b, 2})),
        "restrict": lambda b: restrict(f, [b]),
        "restrict.generator": lambda b: restrict(f, (v for v in (b,))),
        "all_shifts": lambda b: all_shifts(b),
    }


@pytest.mark.parametrize("field", list(_bool_edits()))
@pytest.mark.parametrize("flag", [True, False])
def test_constructors_refuse_bools_in_every_integer_field(field, flag):
    # operator.index reads True as 1, so each field is scanned for bools
    with pytest.raises(ValueError, match="integer"):
        _bool_edits()[field](flag)


def test_combine_reads_its_constant_as_an_integer():
    a = QaryArray(3, 1, (0, 2))
    out = combine(3, 2, [((2,), a)], np.int64(4))
    assert out.entries == (1, 1, 0, 0)
    assert all(type(v) is int for v in out.entries)
    for constant in (1.5, True, "1"):
        with pytest.raises(ValueError, match="integer"):
            combine(3, 2, [((2,), a)], constant)


def test_constant_and_arithmetic():
    c = QaryArray.constant(4, 6, m=2)
    assert c.entries == (2, 2, 2, 2)
    f = QaryArray(4, 1, (1, 3))
    assert (f + 2).entries == (3, 1)
    assert (f + f).entries == (2, 2)
    assert (-f).entries == (3, 1)
    assert (f - f).entries == (0, 0)
    with pytest.raises(ValueError):
        f + QaryArray(4, 2, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        f + QaryArray(2, 1, (0, 0))


def test_autocorrelation_at_zero_shift():
    for q, m in ((2, 0), (3, 1), (4, 2), (5, 3)):
        rng = random.Random(q * 10 + m)
        f = QaryArray(q, m, random_entries(rng, q, m))
        assert autocorrelation(f, (0,) * m) == get_context(q).integer(1 << m)


def test_autocorrelation_worked_values():
    assert autocorrelation(X1X2, (1, 0)).is_zero()
    assert autocorrelation(X1X2, (1, 1)) == get_context(2).root(1)


def test_autocorrelation_rejects_bad_shifts():
    with pytest.raises(ValueError):
        autocorrelation(X1X2, (1,))
    with pytest.raises(ValueError):
        autocorrelation(X1X2, (2, 0))
    with pytest.raises(ValueError):
        autocorrelation(X1X2, (0, -2))


def test_autocorrelation_matches_float_oracle():
    rng = random.Random(41)
    for q in (2, 3, 4, 5, 7):
        for m in range(0, 4):
            f = QaryArray(q, m, random_entries(rng, q, m))
            for tau in all_shifts(m):
                exact = autocorrelation(f, tau)
                approx = float_autocorrelation(q, m, f.entries, tau)
                from helpers import cyc_to_complex

                assert abs(cyc_to_complex(exact) - approx) < 1e-9


def test_spectrum_dimension_zero():
    f = QaryArray(3, 0, (2,))
    spec = correlation_spectrum(f)
    assert set(spec) == {()}
    assert spec[()] == get_context(3).one()


def test_spectrum_m1_constant():
    spec = correlation_spectrum(QaryArray(2, 1, (0, 0)))
    ctx = get_context(2)
    assert spec[(-1,)] == ctx.one()
    assert spec[(0,)] == ctx.integer(2)
    assert spec[(1,)] == ctx.one()


def test_spectrum_m2_quadratic():
    spec = correlation_spectrum(X1X2)
    assert len(spec) == 9
    ctx = get_context(2)
    assert spec[(1, 1)] == ctx.integer(-1)
    assert spec[(-1, -1)] == ctx.integer(-1)
    assert spec[(1, 0)].is_zero()
    for tau in all_shifts(2):
        assert spec[tau] == autocorrelation(X1X2, tau)


def test_spectrum_conjugate_symmetry():
    rng = random.Random(43)
    for q, m in ((4, 2), (3, 3), (6, 2)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        spec = correlation_spectrum(f)
        for tau, v in spec.items():
            neg = tuple(-t for t in tau)
            assert spec[neg] == v.conjugate()


def test_half_shifts_carry_one_of_each_opposite_pair():
    for m in range(0, 5):
        half = set(half_shifts(m))
        assert len(half) == (3**m - 1) // 2
        for tau in half:
            assert tuple(-t for t in tau) not in half
            nz = [t for t in tau if t]
            assert nz and nz[0] == 1


def test_is_gap_examples():
    g = QaryArray(2, 2, (0, 1, 0, 0))  # x1*x2 + x1
    assert is_gap(X1X2, g)
    f = QaryArray(2, 1, (0, 0))
    assert not is_gap(f, f)
    assert is_gap(QaryArray(7, 0, (3,)), QaryArray(7, 0, (5,)))


def test_is_gap_requires_matching_shapes():
    with pytest.raises(ValueError):
        is_gap(X1X2, QaryArray(2, 1, (0, 1)))
    with pytest.raises(ValueError):
        is_gap(X1X2, QaryArray(4, 2, (0, 0, 0, 1)))


def _standard_and_moved(rng, q, m):
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    c = tuple(rng.randrange(q) for _ in pi)
    f, g = construct_standard(StandardParams(q, m, tuple(pi), c, rng.randrange(q), 1))
    moved = list(f.entries)
    moved[rng.randrange(1 << m)] += rng.randrange(1, q)
    return f, g, QaryArray(q, m, tuple(v % q for v in moved))


def test_standard_pairs_at_large_moduli_are_gaps_and_a_moved_cell_breaks_them():
    # prime powers: one subtraction along the prime 2, with s = 32 and 2048
    rng = random.Random(64)
    for q in (64, 4096):
        f, g, moved = _standard_and_moved(rng, q, 10)
        assert is_gap(f, g) and not is_gap(moved, g), q


@pytest.mark.parametrize("q", [2310, 4090, 4092, 4094])
def test_composite_radicals_at_large_moduli_agree_with_the_float_oracle(q):
    # radicals 2*3*5*7*11, 2*5*409, 2*3*11*31 (s = 2) and 2*23*89
    rng = random.Random(q)
    for m in (1, 2, 3):
        for _ in range(3):
            f, g, moved = _standard_and_moved(rng, q, m)
            for a, b in ((f, g), (moved, g)):
                assert is_gap(a, b) == float_is_gap(q, m, a.entries, b.entries), (q, m)
    # a true pair at m = 8: minutes through a dense (phi(r), r) table product
    f, g, moved = _standard_and_moved(rng, q, 8)
    assert is_gap(f, g) and not is_gap(moved, g)


def test_reverse():
    assert X1X2.reverse().entries == (1, 0, 0, 0)
    c = QaryArray(5, 0, (4,))
    assert c.reverse() == c
    rng = random.Random(47)
    for q, m in ((2, 3), (4, 2), (6, 4)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        assert f.reverse().reverse() == f
        for x in range(1 << m):
            assert f.reverse().entries[x] == f.entries[(1 << m) - 1 - x]


def test_project_sequence():
    assert X1X2.project_sequence() == (0, 0, 0, 1)
    assert QaryArray.constant(3, 2, m=2).project_sequence() == (2, 2, 2, 2)
    f = QaryArray.from_function(4, 2, lambda x: 2 * x[0] * x[1] + x[0])
    assert f.project_sequence() == (0, 1, 0, 3)


def test_sequence_autocorrelation():
    ctx = get_context(2)
    assert sequence_autocorrelation(2, (0, 0, 0, 1), 2).is_zero()
    assert sequence_autocorrelation(2, (0, 0, 0, 1), 0) == ctx.integer(4)
    v = sequence_autocorrelation(2, (0, 0, 0, 1), -2)
    assert v == sequence_autocorrelation(2, (0, 0, 0, 1), 2).conjugate()
    with pytest.raises(ValueError):
        sequence_autocorrelation(3, (0, 1, 2), 3)
    with pytest.raises(ValueError):
        sequence_autocorrelation(2, (0, 1), -2)


def test_is_gcp_classic_length_four():
    assert is_gcp(2, (0, 0, 0, 1), (0, 1, 0, 0))
    assert not is_gcp(2, (0, 0, 0, 0), (0, 0, 0, 0))


def test_gap_projects_to_gcp():
    # complementary arrays read out as sequences stay complementary
    rng = random.Random(53)
    from golaypairs import StandardParams, construct_standard

    for q, m in ((2, 2), (2, 3), (4, 2), (6, 3)):
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        f, g = construct_standard(
            StandardParams(
                q,
                m,
                tuple(pi),
                tuple(rng.randrange(q) for _ in range(m)),
                rng.randrange(q),
                rng.randrange(q),
            )
        )
        assert is_gcp(q, f.project_sequence(), g.project_sequence())


def test_restrict_reads_the_zero_subcube():
    f = QaryArray.from_function(5, 3, lambda x: x[0] + 2 * x[1] + 3 * x[2])
    r = restrict(f, (1, 3))
    assert r.m == 2
    assert r.entries == (0, 1, 3, 4)
    assert restrict(f, ()).entries == (0,)
    with pytest.raises(ValueError):
        restrict(f, (3, 1))
    with pytest.raises(ValueError):
        restrict(f, (1, 1))
    with pytest.raises(ValueError):
        restrict(f, (0, 2))


def test_combine_inverts_restrict_on_separable_functions():
    f = QaryArray.from_function(6, 3, lambda x: x[0] + 4 * x[1] * x[2])
    a = restrict(f, (1,))
    b = restrict(f, (2, 3))
    rebuilt = combine(6, 3, [((1,), a), ((2, 3), b)], 0)
    assert rebuilt == f


def test_combine_validates_blocks():
    a = QaryArray(2, 1, (0, 1))
    with pytest.raises(ValueError):
        combine(2, 2, [((1,), a), ((1,), a)], 0)
    with pytest.raises(ValueError):
        combine(2, 1, [((1, 2), QaryArray(2, 2, (0, 0, 0, 1)))], 0)
    with pytest.raises(ValueError):
        combine(2, 2, [((1,), QaryArray(2, 2, (0, 0, 0, 1)))], 0)
    with pytest.raises(ValueError, match="expected integers"):
        combine(2, 1, [((1.0,), a)], 0)
    # the result is built unchecked, so a block must be a validated array
    fake = SimpleNamespace(q=2, m=1, entries=(0.5, 1))
    with pytest.raises(ValueError, match="block array"):
        combine(2, 1, [((1,), fake)], 0)


def test_combine_handles_uncovered_variables_and_constant():
    a = QaryArray(3, 1, (0, 2))
    out = combine(3, 2, [((2,), a)], 1)
    assert out.entries == (1, 1, 0, 0)


def test_json_round_trip():
    rng = random.Random(59)
    for q, m in ((2, 0), (4, 2), (7, 3)):
        f = QaryArray(q, m, random_entries(rng, q, m))
        assert QaryArray.from_json_dict(f.to_json_dict()) == f
    with pytest.raises(ValueError):
        QaryArray.from_json_dict({"q": 2, "m": 1})
    with pytest.raises(ValueError):
        QaryArray.from_json_dict({"q": 2, "m": 1, "entries": "xy"})
    for bad in (
        {"q": 2.0}, {"m": True}, {"m": "1"}, {"entries": [0, 1.0]}, {"entries": [0, True]},
    ):
        with pytest.raises(ValueError, match="integer"):
            QaryArray.from_json_dict({"q": 2, "m": 1, "entries": [0, 1], **bad})


def test_correlation_plan_over_memory_bound_is_refused():
    # m = 12 needs a plan of 4^12 cell combinations; refused before any is built
    f = QaryArray.constant(2, 0, 12)
    with pytest.raises(BudgetExceededError):
        correlation_spectrum(f)
    with pytest.raises(BudgetExceededError):
        is_gap(f, f)


def test_sequence_plan_over_memory_bound_is_refused_before_it_is_built():
    # L = 4097 has L(L-1)/2 overlap pairs, 32 bytes each over 256 MiB
    s = [0] * 4097
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        is_gcp(2, s, s)
    with pytest.raises(BudgetExceededError):
        sequence_autocorrelation(2, s, 1)
    assert time.perf_counter() - start < 1


def test_sequence_plans_are_cached_for_a_bounded_number_of_lengths():
    info = _sequence_plan.cache_info()
    assert info.maxsize is not None and info.maxsize <= 4
    for length in range(1, info.maxsize + 4):
        assert is_gcp(2, [0] * length, [0] * length) == (length == 1)
    assert _sequence_plan.cache_info().currsize <= info.maxsize


def test_cube_plan_batches_slice_whole_shifts_after_the_shell():
    plan = _cube_plan(10)
    counts = np.diff(plan.starts)
    assert plan.batches[0] == (0, 512)
    assert (counts[:512] == 1).all()
    assert len(plan.batches) > 2
    ends = [hi for _, hi in plan.batches]
    assert [lo for lo, _ in plan.batches] == [0] + ends[:-1]
    assert ends[-1] == len(plan.order) == (3**10 - 1) // 2
    for lo, hi in plan.batches[1:]:
        assert hi - lo == 1 or plan.starts[hi] - plan.starts[lo] <= _SLICE


@pytest.mark.parametrize("m", range(1, 11))
def test_cube_plan_is_one_batch_below_m6_and_cuts_the_shell_off_from_m6(m):
    # the full-support shifts, one overlap pair each, come first either way
    plan = _cube_plan(m)
    shell = 1 << (m - 1)
    counts = np.diff(plan.starts)
    assert (counts[:shell] == 1).all() and (counts[shell:] > 1).all()
    if m <= 5:
        assert plan.batches == ((0, (3**m - 1) // 2),)
    else:
        assert plan.batches[0] == (0, shell)


@pytest.mark.parametrize("q", [2, 4, 6])
@pytest.mark.parametrize("m", range(1, 8))
def test_is_gap_kernel_calls_one_below_m6_and_a_shell_break_stops_at_the_shell(q, m):
    # one _coords call decides a pair below m = 6; from m = 6 a non-pair
    # broken on the shell stops after the shell's call, a pair makes two
    f, g, moved = _standard_and_moved(random.Random(10 * q + m), q, m)
    whole, shell = (3**m - 1) // 2, 1 << (m - 1)
    coords, calls = qarray._coords, []

    def spy(plan, rows, q, lo, hi):
        calls.append((lo, hi))
        return coords(plan, rows, q, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qarray, "_coords", spy)
        assert is_gap(f, g)
        pair_calls, calls[:] = calls[:], []
        assert not is_gap(moved, g)
    if m <= 5:
        assert pair_calls == calls == [(0, whole)]
    else:
        assert pair_calls == [(0, shell), (shell, whole)]
        assert calls == [(0, shell)]
