"""Property tests of the package against independent oracles.

``is_gap``, the batched verdict kernel ``_gaps`` and
``correlation_spectrum`` run on a cached numpy plan; these properties
compare them with the complex-float oracles of ``helpers`` and with the
coefficient-space route of ``genfun``, on arrays Hypothesis draws.  The
kernel's histograms are compared count for count with the cell loops of
``helpers``, and the verdicts again with plans cut into tiny slices.
Cyclotomic equality is compared with the complex value of each side.
Interaction components, block separation, the common part of a restriction
pair and the decomposition are checked against the brute-force partitions of
``helpers`` and against the float complementarity test, a certificate's
correlation rows against the replayed pairs of its inner nodes, the
certification of a batch that shares its sub-certificates against fresh
per-pair calls and each pair's message against ``verify_certificate`` on
that pair alone, and
standard-form recognition against the cell-by-cell table of every standard
pair.  Block sums (``combine``, the common-part split) and the cell
placement of generating functions (``embed``, ``disjoint_product``) are
checked against ``helpers.block_sum`` and ``helpers._spread``.  Two
identities stand in for certificate checks that no certificate can fail:
recombined parameters expand to the pair rebuilt from the expansions of
the sub-pair parameters, and the factor product of two generating functions
is the generating function of their block sum.  Values that
internal code builds without validation are checked to be valid values.
"""

import dataclasses
import json
import random
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golaypairs import (
    CycElement,
    DecompositionCertificate,
    GenFun,
    NotAGapError,
    PartitionTooFineError,
    QaryArray,
    StandardParams,
    VarPartition,
    VerificationError,
    combine,
    construct_standard,
    correlation_spectrum,
    correlation_via_coefficients,
    decompose,
    disjoint_product,
    embed,
    enumerate_all_gaps,
    enumerate_standard,
    from_array,
    gcd_normalized,
    get_context,
    half_shifts,
    interaction_components,
    is_gap,
    join_last,
    recognize_standard,
    replay,
    restrict,
    separate,
    split_last,
    star,
    verify_certificate,
)
from golaypairs import certify, qarray
from golaypairs.certify import _certify
from golaypairs.forest import _join, _param_objects, _param_rows, _recombine, _shape, _sub_rows
from golaypairs.qarray import (
    _coords,
    _cube_plan,
    _gaps,
    _histograms,
    _sequence_plan,
    _two_block_fill,
)

from helpers import (
    DEEPER_LEFT_BREAK,
    _spread,
    block_sum,
    brute_finest_partition,
    brute_histograms,
    cyc_to_complex,
    float_autocorrelation,
    float_is_gap,
    join_partitions,
    random_entries,
    random_params_tuple,
    reference_certify,
    reference_decompose,
    reference_join,
    reference_walk,
    standard_table,
)

EVEN = st.sampled_from((2, 4, 6, 8, 10, 12))


@st.composite
def array_pairs(draw, qs=st.integers(1, 12), max_m=5):
    """Random (q, m, f, g); for even q, g may be forced to cancel f on every
    antipodal pair, so the full-support shell passes and the remaining
    shifts decide."""
    q = draw(qs)
    m = draw(st.integers(0, max_m))
    cells = st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
    f = draw(cells)
    g = draw(cells)
    if q % 2 == 0 and draw(st.booleans()):
        g = cancel_shell(q, m, f, g)
    return q, m, tuple(f), tuple(g)


def cancel_shell(q, m, f, g):
    """g changed so that (f, g) cancels on every antipodal pair of cells."""
    g = list(g)
    top = (1 << m) - 1
    for x in range(1 << (m - 1) if m else 0):
        g[top - x] = (g[x] + f[top - x] - f[x] + q // 2) % q
    return tuple(g)


def draw_params(draw, q, m):
    pi = draw(st.permutations(range(1, m + 1)))
    c = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    c0 = draw(st.integers(0, q - 1))
    c_prime = draw(st.integers(0, q - 1))
    return StandardParams(q, m, tuple(pi), tuple(c), c0, c_prime)


@st.composite
def standard_params(draw, max_m=8, qs=EVEN):
    q = draw(qs)
    return draw_params(draw, q, draw(st.integers(0, max_m)))


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


def standard_row(rng, q, m):
    f, g = construct_standard(StandardParams(*random_params_tuple(rng, q, m)))
    return f.entries, g.entries


def moved_row(rng, q, m, row):
    """``row`` with one cell of one side moved by 1: never a pair for m >= 1."""
    side, cell = rng.randrange(2), rng.randrange(1 << m)
    moved = list(row[side])
    moved[cell] = (moved[cell] + 1) % q
    return (tuple(moved), row[1]) if side == 0 else (row[0], tuple(moved))


@st.composite
def pair_stacks(draw):
    """(q, m, rows): standard pairs, one-cell-moved non-pairs and random pairs
    of one space, the random ones half the time cancelling on the shell.
    For even q, half the stacks are standard pairs with exactly one moved
    pair at a drawn position.  Odd q has no standard pairs, so its stacks
    are random pairs only."""
    q = draw(st.integers(2, 12))
    m = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if q % 2 == 0 and draw(st.booleans()):
        kinds = ["standard"] * draw(st.integers(1, 8))
        kinds[draw(st.integers(0, len(kinds) - 1))] = "moved"
    else:
        choices = ("standard", "moved", "random") if q % 2 == 0 else ("random",)
        kinds = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=8))
    rows = []
    for kind in kinds:
        if kind == "random":
            f, g = random_entries(rng, q, m), random_entries(rng, q, m)
            if q % 2 == 0 and rng.randrange(2):
                g = cancel_shell(q, m, f, g)
            rows.append((f, g))
        elif kind == "standard":
            rows.append(standard_row(rng, q, m))
        else:
            rows.append(moved_row(rng, q, m, standard_row(rng, q, m)))
    return q, m, rows


@settings(max_examples=200)
@given(pair_stacks())
def test_batched_verdicts_agree_with_float_oracle_row_by_row(case):
    q, m, rows = case
    expected = [float_is_gap(q, m, f, g) for f, g in rows]
    assert _gaps(_cube_plan(m), q, rows).tolist() == expected


@st.composite
def kernel_cases(draw):
    """(q, plan, shifts, rows): a cube plan with m <= 6 or a sequence plan of
    length 1 to 20, its shifts in plan order, and 1 to 5 groups of 1 or 2
    rows.  Entries lean on 0 and q - 1, and the first and last rows are
    pinned to them at both ends, so differences of +-(q - 1) occur."""
    q = draw(st.integers(1, 64))
    if draw(st.booleans()):
        m = draw(st.sampled_from(range(7)))
        plan, cells = _cube_plan(m), 1 << m
        shifts = [half_shifts(m)[h] for h in plan.order]
    else:
        cells = draw(st.integers(1, 20))
        plan = _sequence_plan(cells)
        shifts = [int(h) + 1 for h in plan.order]
    entry = st.one_of(st.sampled_from((0, q - 1)), st.integers(0, q - 1))
    row = st.lists(entry, min_size=cells, max_size=cells)
    per = draw(st.integers(1, 2))
    group = st.lists(row, min_size=per, max_size=per)
    rows = draw(st.lists(group, min_size=1, max_size=5))
    rows[0][0][0], rows[0][0][-1] = 0, q - 1
    rows[-1][-1][0], rows[-1][-1][-1] = q - 1, 0
    return q, plan, shifts, rows


@settings(max_examples=150)
@given(kernel_cases(), st.data())
def test_histograms_match_the_brute_oracle(case, data):
    q, plan, shifts, rows = case
    n = len(shifts)
    expected = np.array(brute_histograms(q, rows, shifts), dtype=np.int64)
    expected = expected.reshape(len(rows), q, n)
    ranges = [(n, n), *plan.batches]
    for _ in range(2 if n else 0):
        lo = data.draw(st.integers(0, n - 1))
        ranges.append((lo, data.draw(st.integers(lo + 1, n))))
    table = np.array(rows, dtype=np.int64)
    for lo, hi in ranges:
        assert (_histograms(plan, table, q, lo, hi) == expected[:, :, lo:hi]).all()


@settings(max_examples=100)
@given(kernel_cases(), st.data())
def test_coords_agree_with_canonical(case, data):
    # the kernel's product and CycElement.canonical read the one table
    q, plan, shifts, rows = case
    n = len(shifts)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    table = np.array(rows, dtype=np.int64)
    ctx = get_context(q)
    hist = _histograms(plan, table, q, lo, hi)
    coords = _coords(plan, table, q, lo, hi)
    assert coords.shape == (len(rows), ctx.degree, hi - lo)
    for k in range(len(rows)):
        for s in range(hi - lo):
            want = CycElement(ctx, tuple(hist[k, :, s].tolist())).canonical()
            assert tuple(coords[k, :, s].tolist()) == want


@contextmanager
def sliced_plans(size):
    """Plans rebuilt with ``_SLICE`` = size; cached plans are dropped before
    and after, so no other test sees them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qarray, "_SLICE", size)
        _cube_plan.cache_clear()
        _sequence_plan.cache_clear()
        try:
            yield
        finally:
            _cube_plan.cache_clear()
            _sequence_plan.cache_clear()


@st.composite
def sliced_stacks(draw):
    """(q, m, rows): standard pairs, one-cell-moved pairs, and pairs whose f
    has both cells of one antipodal pair moved by the same amount.  Those
    still cancel on the shell, so only a later slice can reject them."""
    q = draw(EVEN)
    m = draw(st.sampled_from(range(2, 7)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = st.sampled_from(("standard", "moved", "antipodal"))
    rows = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        row = standard_row(rng, q, m)
        if kind == "moved":
            row = moved_row(rng, q, m, row)
        elif kind == "antipodal":
            f, step = list(row[0]), rng.randrange(1, q)
            t = rng.randrange(1 << (m - 1))
            for cell in (t, (1 << m) - 1 - t):
                f[cell] = (f[cell] + step) % q
            row = (tuple(f), row[1])
        rows.append(row)
    return q, m, rows


@settings(max_examples=60)
@given(sliced_stacks(), st.sampled_from((1, 5, 17)))
def test_sliced_plans_agree_with_float_oracle_row_by_row(case, size):
    q, m, rows = case
    expected = [float_is_gap(q, m, f, g) for f, g in rows]
    with sliced_plans(size):
        plan = _cube_plan(m)
        starts = plan.starts
        for lo, hi in plan.batches[1:]:
            assert hi - lo == 1 or starts[hi] - starts[lo] <= size
        assert _gaps(plan, q, rows).tolist() == expected


@settings(max_examples=300)
@given(st.integers(2, 12), st.data())
def test_cyclotomic_equality_agrees_with_complex_values(q, data):
    # half the draws add a vanishing sum of roots, such as 1 + zeta**2 at
    # q = 4: an equal value with other counts
    ctx = get_context(q)
    a = ctx.element(data.draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q)))
    if data.draw(st.booleans()):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        j = data.draw(st.integers(0, q // p - 1))
        r = data.draw(st.integers(-2, 2).filter(bool))
        b = a + ctx.element(r if d % (q // p) == j else 0 for d in range(q))
        assert b.counts != a.counts
    else:
        b = ctx.element(data.draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q)))
    close = abs(cyc_to_complex(a) - cyc_to_complex(b)) < 1e-9
    assert (a == b) == (b == a) == close


@st.composite
def block_functions(draw, max_m=10):
    """Random (q, m, blocks, rng): a random block label per variable, so the
    blocks partition 1..m, and a seeded generator for their tables.  m runs
    on both sides of 7, where the subset transform switches to numpy."""
    q = draw(st.integers(2, 12))
    m = draw(st.one_of(st.integers(0, 6), st.integers(7, max_m)))
    labels = draw(st.lists(st.integers(0, m), min_size=m, max_size=m))
    blocks = [
        tuple(v for v in range(1, m + 1) if labels[v - 1] == label)
        for label in sorted(set(labels))
    ]
    return q, m, blocks, random.Random(draw(st.integers(0, 2**32)))


def random_table(rng, q, vars_):
    return [rng.randrange(q) for _ in range(1 << len(vars_))]


@settings(max_examples=60)
@given(block_functions())
def test_interaction_components_agree_with_brute_force(case):
    q, m, blocks, rng = case
    entries = block_sum(q, m, [(b, random_table(rng, q, b)) for b in blocks])
    got = interaction_components(QaryArray(q, m, entries)).blocks
    assert got == brute_finest_partition(q, m, entries)


@settings(max_examples=40)
@given(block_functions(), st.data())
def test_common_part_is_the_constant_difference_blocks_of_the_join(case, data):
    # f0 = A + C and g0 = B + C + const: blocks flagged common share a table
    q, m, blocks, rng = case
    f_blocks, g_blocks = [], []
    for b in blocks:
        table = random_table(rng, q, b)
        f_blocks.append((b, table))
        if data.draw(st.booleans()):
            shift = rng.randrange(q)
            g_blocks.append((b, [v + shift for v in table]))
        else:
            g_blocks.append((b, random_table(rng, q, b)))
    fe, ge = block_sum(q, m, f_blocks), block_sum(q, m, g_blocks)
    joined = join_partitions(
        brute_finest_partition(q, m, fe), brute_finest_partition(q, m, ge)
    )
    base = (ge[0] - fe[0]) % q
    z2 = sorted(
        v
        for block in joined
        if all(
            (ge[t] - fe[t]) % q == base
            for t in range(1 << m)
            if not any(t >> (v - 1) & 1 for v in range(1, m + 1) if v not in block)
        )
        for v in block
    )
    split = gcd_normalized(QaryArray(q, m, fe), QaryArray(q, m, ge))
    assert split.z2_vars == tuple(z2)
    assert split.z1_vars == tuple(v for v in range(1, m + 1) if v not in z2)


@st.composite
def separation_cases(draw):
    """Random (q, m, entries, blocks of a partition p): a random array, or a
    block sum along p or along another random partition, the block sum
    with or without one monomial that crosses two blocks of p."""
    q = draw(st.integers(2, 6))
    m = draw(st.integers(0, 5))

    def partition():
        labels = draw(st.lists(st.integers(0, m), min_size=m, max_size=m))
        return [
            tuple(v for v in range(1, m + 1) if labels[v - 1] == label)
            for label in sorted(set(labels))
        ]

    blocks = partition()
    kind = draw(st.sampled_from(("random", "block sum", "crossing")))
    if kind == "random":
        cells = st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
        return q, m, tuple(draw(cells)), blocks
    rng = random.Random(draw(st.integers(0, 2**32)))
    summed = blocks if draw(st.booleans()) else partition()
    entries = block_sum(q, m, [(b, random_table(rng, q, b)) for b in summed])
    if kind == "crossing" and len(blocks) > 1:
        i, j = draw(st.permutations(range(len(blocks))))[:2]
        u, w = draw(st.sampled_from(blocks[i])), draw(st.sampled_from(blocks[j]))
        mask = 1 << (u - 1) | 1 << (w - 1)
        coeff = draw(st.integers(1, q - 1))
        entries = tuple(
            (e + (coeff if t & mask == mask else 0)) % q for t, e in enumerate(entries)
        )
    return q, m, entries, blocks


@settings(max_examples=200)
@given(separation_cases())
def test_separate_refuses_exactly_partitions_that_split_an_interaction(case):
    q, m, entries, blocks = case
    p = VarPartition(m, blocks)
    owner = {v: i for i, b in enumerate(p.blocks) for v in b}
    finest = brute_finest_partition(q, m, entries)
    f = QaryArray(q, m, entries)
    if any(len({owner[v] for v in b}) > 1 for b in finest):
        with pytest.raises(PartitionTooFineError):
            separate(f, p)
        return
    parts, const = separate(f, p)
    assert all(part.entries[0] == 0 for part in parts)
    pieces = [(b, part.entries) for b, part in zip(p.blocks, parts)]
    assert block_sum(q, m, [((), (const,))] + pieces) == entries


RECOGNITION_SPACES = [
    (q, m) for q, top in ((2, 3), (4, 3), (6, 2)) for m in range(top + 1)
]


@st.composite
def recognition_cases(draw):
    """(q, m, f entries, g entries): a standard pair of the table, the same
    with one cell moved, with one monomial of degree 2 or 3 added to f, g or
    both, or a random pair."""
    q, m = draw(st.sampled_from(RECOGNITION_SPACES))
    kinds = ["standard", "moved", "random"] + (["monomial"] if m >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        cells = st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
        return q, m, tuple(draw(cells)), tuple(draw(cells))
    pair = [list(e) for e in draw(st.sampled_from(sorted(standard_table(q, m))))]
    if kind == "moved":
        target = pair[draw(st.integers(0, 1))]
        cell = draw(st.integers(0, (1 << m) - 1))
        target[cell] = (target[cell] + draw(st.integers(1, q - 1))) % q
    elif kind == "monomial":
        masks = [s for s in range(1 << m) if 2 <= bin(s).count("1") <= 3]
        monomial = draw(st.sampled_from(masks))
        coeff = draw(st.integers(1, q - 1))
        for target in draw(st.sampled_from(([pair[0]], [pair[1]], pair))):
            for t in range(1 << m):
                if t & monomial == monomial:
                    target[t] = (target[t] + coeff) % q
    return q, m, tuple(pair[0]), tuple(pair[1])


@settings(max_examples=300)
@given(recognition_cases())
def test_recognize_standard_agrees_with_the_standard_table(case):
    q, m, fe, ge = case
    got = recognize_standard(QaryArray(q, m, fe), QaryArray(q, m, ge))
    want = standard_table(q, m).get((fe, ge))
    assert (None if got is None else dataclasses.astuple(got)) == want


def _standard_case(params):
    f, g = construct_standard(params)
    return params.q, params.m, f.entries, g.entries


@settings(max_examples=150)
@given(st.one_of(array_pairs(EVEN, 4), standard_params(4).map(_standard_case)))
def test_decompose_succeeds_exactly_on_pairs(case):
    q, m, fe, ge = case
    f, g = QaryArray(q, m, fe), QaryArray(q, m, ge)
    try:
        params, cert = decompose(f, g)
    except NotAGapError:
        assert not float_is_gap(q, m, fe, ge)
        return
    assert float_is_gap(q, m, fe, ge)
    assert construct_standard(params) == (f, g)
    assert replay(cert) == (f, g)
    verify_certificate(f, g, cert, max_corr_dim=m)


def inner_nodes(cert):
    """Every inner node of a certificate tree, parents before children."""
    if cert.is_leaf:
        return []
    return [cert, *inner_nodes(cert.left), *inner_nodes(cert.right)]


def replayed_entries(cert):
    f, g = replay(cert)
    return f.entries, g.entries


@contextmanager
def correlated_rows():
    """The (f entries, g entries) rows that each call of the certifier's
    correlation gets while the block runs, by dimension."""
    gaps = certify._gaps
    seen: dict[int, list] = {}

    def spy(plan, q, rows):
        dim = rows.shape[2].bit_length() - 1
        seen.setdefault(dim, []).extend((tuple(f), tuple(g)) for f, g in rows.tolist())
        return gaps(plan, q, rows)

    certify._gaps = spy
    try:
        yield seen
    finally:
        certify._gaps = gaps


@settings(max_examples=100)
@given(standard_params(6, st.sampled_from((2, 4, 6, 8, 10))))
def test_walk_rows_are_the_inner_node_pairs(params):
    # the rows are the inner nodes' pairs, rebuilt here by replaying each
    # subtree: each distinct one is correlated once, each node is counted,
    # and none is of dimension 0
    f, g = construct_standard(params)
    _, cert = decompose(f, g)
    nodes = inner_nodes(cert)
    assert len(nodes) == params.m
    for max_corr_dim in range(params.m + 2):
        want: dict[int, Counter] = {}
        for node in nodes:
            if node.m <= max_corr_dim:
                want.setdefault(node.m, Counter())[replayed_entries(node)] += 1
        for certs in ([cert], None):
            with correlated_rows() as seen:
                failures, counts, *_ = _certify(params.q, max_corr_dim, [(f, g)], certs)
            assert not failures
            assert {dim: Counter(rows) for dim, rows in seen.items()} == {
                dim: Counter(set(pairs)) for dim, pairs in want.items()
            }
            assert counts == {dim: sum(pairs.values()) for dim, pairs in want.items()}


ROOT_TAMPERS = {
    "e": lambda c: dataclasses.replace(c, e=(c.e + 1) % c.q),
    "e_prime": lambda c: dataclasses.replace(c, e_prime=(c.e_prime + 1) % c.q),
    "split_var": lambda c: dataclasses.replace(c, split_var=c.m + 1),
    "a": lambda c: dataclasses.replace(
        c, split=dataclasses.replace(c.split, a=c.split.a + 1)
    ),
    "d": lambda c: dataclasses.replace(c, d=c.d + 1),
    "children": lambda c: dataclasses.replace(c, left=c.right, right=c.left),
    "params": lambda c: dataclasses.replace(
        c, params=dataclasses.replace(c.params, c0=(c.params.c0 + 1) % c.q)
    ),
}


def verdict(f, g, cert, depth=None):
    """None if ``cert`` certifies (f, g) up to dimension ``depth`` (full
    depth by default), else the message that rejects it."""
    try:
        verify_certificate(f, g, cert, max_corr_dim=f.m if depth is None else depth)
    except VerificationError as exc:
        return str(exc)
    return None


@settings(max_examples=150)
@given(standard_params(6), st.sampled_from((None, *ROOT_TAMPERS)))
# both children of this root are one sub-certificate object
@example(StandardParams(2, 3, (1, 3, 2), (0, 0, 1), 0, 0), None)
@example(StandardParams(2, 3, (1, 3, 2), (0, 0, 1), 0, 0), "children")
def test_shared_and_reloaded_certificates_get_the_same_verdict(params, tamper):
    # decompose shares equal sub-certificates within one tree; the JSON
    # round trip shares none
    f, g = construct_standard(params)
    _, cert = decompose(f, g)
    if tamper is not None and not cert.is_leaf:
        cert = ROOT_TAMPERS[tamper](cert)
    reloaded = DecompositionCertificate.from_json_dict(
        json.loads(json.dumps(cert.to_json_dict()))
    )
    assert reloaded == cert
    assert verdict(f, g, reloaded) == verdict(f, g, cert)
    if tamper is None or cert.is_leaf:
        assert verdict(f, g, cert) is None


@st.composite
def certification_batches(draw):
    """(q, rows, kinds, depth): one batch of pairs of dimensions up to 6, in
    drawn order, and for each row the kind of certificate it is given
    (clean, reloaded from JSON, or one of ``ROOT_TAMPERS`` at the root or at
    an inner child of the root), certified up to
    dimension ``depth``.  A row is a standard pair, an earlier row met
    again, a standard pair with one cell moved, or the node pair joined from
    two sub-pairs each of which may have a cell moved, which breaks below
    its root."""
    q = draw(st.sampled_from((2, 4, 6, 8)))
    dims = st.integers(0, 6) if draw(st.booleans()) else st.just(draw(st.integers(1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(("standard", "again", "moved", "joined")),
                          min_size=1, max_size=10))
    rows = []
    for kind in kinds:
        m = draw(dims)
        if kind == "again" and rows:
            rows.append(rng.choice(rows))
        elif kind == "moved" and m:
            rows.append(moved_row(rng, q, m, standard_row(rng, q, m)))
        elif kind == "joined" and m:
            z1, z2 = split_by([rng.random() < 0.5 for _ in range(m - 1)])
            subs = []
            for k in (len(z1), len(z2)):
                row = standard_row(rng, q, k)
                subs += moved_row(rng, q, k, row) if k and rng.random() < 0.5 else row
            rows.append(reference_join(q, z1, z2, *subs))
        else:
            rows.append(standard_row(rng, q, m))
    cert_kinds = st.sampled_from(
        ("clean", "reloaded", *ROOT_TAMPERS, *(f"child {name}" for name in ROOT_TAMPERS))
    )
    certs = draw(st.lists(cert_kinds, min_size=len(rows), max_size=len(rows)))
    return q, rows, certs, draw(st.integers(0, 6))


def arrays(q, row):
    m = len(row[0]).bit_length() - 1
    return QaryArray(q, m, row[0]), QaryArray(q, m, row[1])


def batch_certificates(q, rows, kinds):
    """One certificate per row, of the kind drawn for it.  A non-pair gets
    the certificate of a fixed standard pair of its dimension.  Equal rows
    share one clean certificate, and a tampered root shares its children
    with it."""
    clean: dict = {}
    certs = []
    for row, kind in zip(rows, kinds):
        if row not in clean:
            f, g = arrays(q, row)
            try:
                clean[row] = decompose(f, g)[1]
            except NotAGapError:
                fallback = StandardParams(q, f.m, tuple(range(1, f.m + 1)), (0,) * f.m, 0, 0)
                clean[row] = decompose(*construct_standard(fallback))[1]
        cert = clean[row]
        if kind == "reloaded":
            cert = DecompositionCertificate.from_json_dict(
                json.loads(json.dumps(cert.to_json_dict()))
            )
        elif kind.startswith("child ") and not cert.is_leaf:
            side = next((side for side in ("left", "right") if getattr(cert, side).m), None)
            if side is not None:
                tampered = ROOT_TAMPERS[kind[6:]](getattr(cert, side))
                cert = dataclasses.replace(cert, **{side: tampered})
        elif kind in ROOT_TAMPERS and not cert.is_leaf:
            cert = ROOT_TAMPERS[kind](cert)
        certs.append(cert)
    return certs


def outcome(decomposer, f, g):
    """The certificate JSON of (f, g), or the message that rejects it."""
    try:
        found = decomposer(f, g)
    except NotAGapError as exc:
        return str(exc)
    return (found[1] if isinstance(found, tuple) else found).to_json_dict()


@settings(max_examples=120)
@given(certification_batches())
# a non-pair that breaks deeper on the left than on the right, and the same
# pair swapped with the certificate of another pair, its root tampered
@example((4, [DEEPER_LEFT_BREAK, DEEPER_LEFT_BREAK[::-1]], ["clean", "a"], 6))
def test_stacked_certifier_agrees_with_the_reference_recursion(case):
    # the same certificate JSON or not-a-pair message per pair, and the same
    # failure message per pair and rows per dimension for the batch, as the
    # node-by-node recursion the stacked certifier replaced; a failure is
    # the first one that recursion's depth-first walk meets
    q, rows, kinds, depth = case
    pairs = [arrays(q, row) for row in rows]
    for f, g in pairs:
        assert outcome(decompose, f, g) == outcome(reference_decompose, f, g)
    assert _certify(q, depth, pairs)[:2] == reference_certify(q, depth, pairs)
    certs = batch_certificates(q, rows, kinds)
    assert _certify(q, depth, pairs, certs)[:2] == reference_certify(q, depth, pairs, certs)


def alone(f, g, depth):
    """The message that rejects (f, g) when it is decomposed and certified
    on its own up to dimension ``depth``, or None."""
    try:
        _, cert = decompose(f, g)
    except NotAGapError as exc:
        return str(exc)
    return verdict(f, g, cert, depth)


@settings(max_examples=80)
@given(certification_batches())
def test_batch_shared_certification_equals_fresh_per_pair_calls(case):
    q, rows, kinds, depth = case
    # the witnesses and rows per dimension, from each pair's own reference
    # walk judged by the float oracle
    want_witnesses, want_counts = set(), Counter()
    for row in rows:
        f, g = arrays(q, row)
        try:
            fe, ge, walked = reference_walk(reference_decompose(f, g), depth)
        except (NotAGapError, VerificationError):
            want_witnesses.add(row)
            continue
        assert (fe, ge) == row
        for dim, fe, ge in walked:
            want_counts[dim] += 1
            if not float_is_gap(q, dim, fe, ge):
                want_witnesses.add(row)
    pairs = [arrays(q, row) for row in rows]
    failures, counts, *_ = _certify(q, depth, pairs)
    assert {rows[i] for i in failures} == want_witnesses
    assert counts == want_counts
    # each pair of the batch gets the message it gets in a batch of one
    assert [failures.get(i) for i in range(len(pairs))] == [alone(f, g, depth) for f, g in pairs]
    certs = batch_certificates(q, rows, kinds)
    failures = _certify(q, depth, pairs, certs)[0]
    assert [failures.get(i) for i in range(len(pairs))] == [
        verdict(f, g, cert, depth) for (f, g), cert in zip(pairs, certs)
    ]


def split_by(on_left):
    """(z1, z2): the variables 1..len(on_left) with and without their flag."""
    z1 = tuple(v for v, side in enumerate(on_left, 1) if side)
    z2 = tuple(v for v, side in enumerate(on_left, 1) if not side)
    return z1, z2


@st.composite
def recombination_cases(draw):
    """(q, m, z1, z2, left, right): a partition of 1..m-1 and any standard
    parameters of its two blocks."""
    q = draw(EVEN)
    m = draw(st.integers(1, 7))
    z1, z2 = split_by(draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1)))
    return q, m, z1, z2, draw_params(draw, q, len(z1)), draw_params(draw, q, len(z2))


@settings(max_examples=300)
@given(recombination_cases())
def test_recombined_parameters_expand_to_the_rebuilt_pair(case):
    # why the certificate walk needs no check that the root parameters
    # regenerate the claimed pair: each walked node pair is their expansion
    q, m, z1, z2, left, right = case
    shape = _shape(z1, z2)
    (a, b), (c, d) = (construct_standard(p) for p in (left, right))
    subs = _sub_rows(np.int64, [(a.entries, b.entries, c.entries, d.entries)])
    packed = (_param_rows(np.int64, [p]) for p in (left, right))
    (params,) = _param_objects(q, m, _recombine(q, shape, *packed))
    f, g = construct_standard(params)
    assert [list(f.entries), list(g.entries)] == _join(q, shape, subs)[0].tolist()


@settings(max_examples=150)
@given(st.integers(2, 12), st.integers(0, 6), st.data())
def test_factor_product_is_the_generating_function_of_the_block_sum(q, m, data):
    # the identity behind the walk's "factor product does not rebuild the
    # restriction" check, for any arrays a on z1 and c on z2, and degree
    # reversal distributing over that product
    z1, z2 = split_by(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a = QaryArray(q, len(z1), random_entries(rng, q, len(z1)))
    c = QaryArray(q, len(z2), random_entries(rng, q, len(z2)))
    fa, fc = embed(from_array(a), z1, m), embed(from_array(c), z2, m)
    product = disjoint_product(fa, fc)
    filled = QaryArray(q, m, _two_block_fill(q, m, z1, a.entries, z2, c.entries))
    assert product == from_array(filled)
    assert star(product) == disjoint_product(star(fa), star(fc))


def assert_valid(value):
    """``value`` equals the validated value with the same fields, all ints."""
    fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
    assert type(value)(*fields) == value
    numbers = [
        v for field in fields for v in (field if type(field) is tuple else (field,))
    ]
    assert all(type(v) is int for v in numbers), value


@settings(max_examples=150)
@given(array_pairs(max_m=5), st.data())
def test_unvalidated_array_results_are_valid_arrays(case, data):
    q, m, fe, ge = case
    f, g = QaryArray(q, m, fe), QaryArray(q, m, ge)
    k = data.draw(st.integers(-3 * q, 3 * q))
    subset = tuple(v for v in range(1, m + 1) if data.draw(st.booleans()))
    results = [restrict(f, subset), f + g, f + k, k + f, f - g, f - k, -f, f.reverse()]
    if m:
        results += split_last(f)
    results.append(join_last(f, g))
    for value in results:
        assert_valid(value)


@settings(max_examples=60)
@given(standard_params(max_m=6))
def test_unvalidated_standard_results_are_valid(params):
    f, g = construct_standard(params)
    found, cert = decompose(f, g)
    values = [f, g, found, recognize_standard(f, g), *replay(cert)]
    nodes = [cert]
    while nodes:
        node = nodes.pop()
        values.append(node.params)
        if not node.is_leaf:
            values += [node.split.a, node.split.b, node.split.c, node.d]
            nodes += [node.left, node.right]
    for value in values:
        assert_valid(value)


@settings(max_examples=100)
@given(array_pairs(max_m=4), st.integers(0, 2), st.data())
def test_derived_generating_functions_are_valid(case, extra, data):
    # each equals its rebuild through the validating constructor
    q, m, fe, ge = case
    big = m + extra
    slots = data.draw(st.permutations(range(1, big + 1)))
    fun = from_array(QaryArray(q, m, fe))
    placed = embed(fun, slots[:m], big)
    k = data.draw(st.integers(0, min(m, extra)))
    other = embed(from_array(QaryArray(q, k, ge[: 1 << k])), slots[m : m + k], big)
    product = disjoint_product(placed, other)
    results = [fun, placed, other, product, star(fun), star(product)]
    results.append(star(placed, range(1, big + 1)))
    for value in results:
        assert GenFun(value.q, value.m, value.support, value.coeffs) == value
        assert all(type(v) is int for v in value.support), value.support


def test_census_arrays_are_valid_arrays():
    for f, g in enumerate_standard(4, 2) + enumerate_all_gaps(2, 2):
        assert_valid(f)
        assert_valid(g)


@st.composite
def combine_cases(draw):
    """Random (q, m, blocks, constant): tables on disjoint, unsorted variable
    tuples in random order, some variables covered by no block."""
    q = draw(st.integers(1, 7))
    m = draw(st.integers(0, 8))
    order = draw(st.permutations(range(1, m + 1)))
    labels = draw(st.lists(st.integers(-1, m), min_size=m, max_size=m))
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = []
    for label in sorted(set(labels) - {-1}):
        vt = tuple(v for v in order if labels[v - 1] == label)
        blocks.append((vt, random_table(rng, q, vt)))
    blocks = draw(st.permutations(blocks))
    return q, m, blocks, draw(st.integers(-3 * q, 3 * q))


@settings(max_examples=200)
@given(combine_cases())
def test_combine_is_the_block_sum_plus_the_constant(case):
    q, m, blocks, constant = case
    arrays = [(vt, QaryArray(q, len(vt), tuple(table))) for vt, table in blocks]
    want = tuple((v + constant) % q for v in block_sum(q, m, blocks))
    assert combine(q, m, arrays, constant).entries == want


@settings(max_examples=60)
@given(block_functions(), st.data())
def test_common_part_split_rebuilds_both_restrictions(case, data):
    # f0 = A + C and g0 = B + C + const on a random share of the blocks
    q, m, blocks, rng = case
    f_blocks, g_blocks = [], []
    for b in blocks:
        table = random_table(rng, q, b)
        f_blocks.append((b, table))
        if data.draw(st.booleans()):
            shift = rng.randrange(q)
            g_blocks.append((b, [v + shift for v in table]))
        else:
            g_blocks.append((b, random_table(rng, q, b)))
    fe, ge = block_sum(q, m, f_blocks), block_sum(q, m, g_blocks)
    split = gcd_normalized(QaryArray(q, m, fe), QaryArray(q, m, ge))
    z1, z2 = split.z1_vars, split.z2_vars
    assert block_sum(q, m, [(z1, split.a.entries), (z2, split.c.entries)]) == fe
    assert block_sum(q, m, [(z1, split.b.entries), (z2, split.c.entries)]) == ge


@settings(max_examples=150)
@given(st.integers(1, 8), st.integers(0, 7), st.data())
def test_embed_and_disjoint_product_place_coefficients_by_the_oracle_map(q, m, data):
    # factor a on the unsorted variables va, factor b on vb, disjoint from va
    ctx = get_context(q)
    slots = data.draw(st.permutations(range(1, m + 1)))
    k = data.draw(st.integers(0, m))
    va, vb = slots[:k], slots[k : data.draw(st.integers(k, m))]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b = random_table(rng, q, va), random_table(rng, q, vb)
    fa = embed(from_array(QaryArray(q, len(va), tuple(a))), va, m)
    fb = embed(from_array(QaryArray(q, len(vb), tuple(b))), vb, m)
    want = [ctx.zero()] * (1 << m)
    for t, cell in enumerate(_spread(va)):
        want[cell] = ctx.root(a[t])
    assert list(fa.coeffs) == want
    want = [ctx.zero()] * (1 << m)
    for s, cell_a in enumerate(_spread(va)):
        for t, cell_b in enumerate(_spread(vb)):
            want[cell_a | cell_b] = ctx.root(a[s]) * ctx.root(b[t])
    assert list(disjoint_product(fa, fb).coeffs) == want
