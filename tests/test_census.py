"""Exhaustive sweeps: signature matching against the quadratic oracle."""

import importlib
import json
import logging
import math
import time
from collections import Counter

import numpy as np
import pytest

from golaypairs import (
    BudgetExceededError,
    OddModulusError,
    QaryArray,
    construct_standard,
    decompose,
    enumerate_all_gaps,
    enumerate_standard,
    is_gap,
    verify_theorem,
)

from helpers import quadratic_all_gaps, reference_walk, standard_pairs_by_params


def ids_of(pairs, q):
    out = []
    for f, g in pairs:
        fid = sum(e * q**t for t, e in enumerate(f.entries))
        gid = sum(e * q**t for t, e in enumerate(g.entries))
        out.append((fid, gid))
    return out


def test_gap_enumeration_matches_quadratic_oracle(monkeypatch):
    # CHUNK = 7 divides none of the representative counts q^(2^m - 1) here
    import golaypairs.census as census

    spaces = ((2, 1), (3, 1), (4, 1), (2, 2), (5, 1), (6, 1), (3, 2), (4, 2), (2, 3))
    for q, m in spaces:
        slow = sorted(quadratic_all_gaps(q, m))
        assert ids_of(enumerate_all_gaps(q, m), q) == slow, (q, m)
        with monkeypatch.context() as patch:
            patch.setattr(census, "CHUNK", 7)
            assert ids_of(enumerate_all_gaps(q, m), q) == slow, (q, m, 7)


def test_known_small_counts():
    assert len(enumerate_all_gaps(2, 1)) == 4
    assert len(enumerate_all_gaps(3, 1)) == 0
    assert len(enumerate_all_gaps(2, 2)) == 16


def test_every_enumerated_pair_is_complementary():
    for q, m in ((2, 2), (4, 1), (6, 1)):
        for f, g in enumerate_all_gaps(q, m):
            assert is_gap(f, g)


def test_dimension_zero_spaces_are_all_pairs():
    for q in (2, 3, 5, 6):
        pairs = enumerate_all_gaps(q, 0)
        assert len(pairs) == q * (q + 1) // 2
        assert all(f.m == 0 for f, _ in pairs)


def test_standard_enumeration_counts():
    assert len(enumerate_standard(2, 1)) == 4
    assert len(enumerate_standard(2, 2)) == 16
    assert len(enumerate_standard(4, 1)) == 32
    assert len(enumerate_standard(2, 0)) == 3
    with pytest.raises(OddModulusError):
        enumerate_standard(3, 1)


def test_standard_set_equals_gap_set_on_small_even_spaces():
    for q, m in ((2, 2), (4, 1), (2, 3), (6, 1)):
        gaps = {(f.entries, g.entries) for f, g in enumerate_all_gaps(q, m)}
        std = {(f.entries, g.entries) for f, g in enumerate_standard(q, m)}
        assert gaps == std, (q, m)


def test_standard_pairs_come_in_census_order():
    # same intra-pair order and list order as the census, which the quadratic
    # oracle test pins to ascending ids
    for q, m in ((2, 2), (4, 1), (2, 3), (4, 2)):
        std = [(f.entries, g.entries) for f, g in enumerate_standard(q, m)]
        gaps = [(f.entries, g.entries) for f, g in enumerate_all_gaps(q, m)]
        assert std == gaps, (q, m)


def test_verify_theorem_even_q():
    r = verify_theorem(2, 3)
    assert r.all_standard
    assert r.gap_pair_count == r.standard_pair_count == 96
    assert r.nonstandard_witnesses == ()
    assert r.total_arrays == 256
    assert r.elapsed_seconds >= 0


def test_verify_theorem_odd_q():
    r = verify_theorem(3, 2)
    assert r.gap_pair_count == 0
    assert r.all_standard
    assert r.standard_pair_count == 0


def test_verify_theorem_dimension_zero_conventions():
    r = verify_theorem(2, 0)
    assert r.all_standard
    assert r.gap_pair_count == r.standard_pair_count == 3
    r = verify_theorem(5, 0)
    assert r.all_standard
    assert r.gap_pair_count == r.standard_pair_count == 15


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        enumerate_all_gaps(2, 5)
    with pytest.raises(BudgetExceededError):
        verify_theorem(2, 2, budget=10)
    # refusal happens before any enumeration work
    import time

    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        enumerate_all_gaps(12, 10, budget=1000)
    # 2^32 arrays pass this budget, but the join of 2^31 representatives x
    # 121 columns would need over 500 GB
    with pytest.raises(BudgetExceededError, match="memory budget"):
        enumerate_all_gaps(2, 5, budget=10_000_000_000)
    assert time.perf_counter() - t0 < 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_all_gaps(1, 1)
    with pytest.raises(ValueError):
        enumerate_all_gaps(2, -1)
    with pytest.raises(ValueError):
        enumerate_all_gaps(2, 1, workers=0)
    with pytest.raises(ValueError, match="budget"):
        enumerate_all_gaps(2, 1, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        verify_theorem(2, 1, budget=-1)
    # a zero budget is valid and refuses every space
    with pytest.raises(BudgetExceededError):
        enumerate_all_gaps(2, 0, budget=0)
    with pytest.raises(ValueError):
        enumerate_standard(2, -1)


@pytest.mark.parametrize("fn", [enumerate_all_gaps, enumerate_standard, verify_theorem])
@pytest.mark.parametrize("q, m", [(2.0, 1), (2, 1.0), ("2", 1), (4.5, 2)])
def test_a_modulus_or_dimension_that_is_not_an_integer_is_a_value_error(fn, q, m):
    with pytest.raises(ValueError, match="expected integers"):
        fn(q, m)


def test_numpy_integers_are_a_modulus_and_dimension():
    q, m = np.int64(2), np.int64(1)
    assert enumerate_all_gaps(q, m) == enumerate_all_gaps(2, 1)
    assert enumerate_standard(q, m) == enumerate_standard(2, 1)
    assert verify_theorem(q, m).to_json_dict() == verify_theorem(2, 1).to_json_dict()


def test_worker_count_is_clamped_to_chunks_and_cpus():
    import os

    from golaypairs.census import _pool_size

    cpus = os.cpu_count() or 1
    assert _pool_size(10**18, 10**18) == cpus
    assert _pool_size(10**18, 3) == min(3, cpus)
    assert _pool_size(10**18, 1) == 1
    assert _pool_size(1, 10**18) == 1


def test_worker_counts_do_not_change_reports():
    reports = [
        verify_theorem(2, 3, workers=w).to_json_dict() for w in (1, 2, 3)
    ]
    blobs = [json.dumps(r, sort_keys=True) for r in reports]
    assert blobs[0] == blobs[1] == blobs[2]


def test_multichunk_spaces_merge_in_order(monkeypatch):
    # (4,2) has 4^3 = 64 representatives: one default chunk, or ten of at most 7
    import golaypairs.census as census

    pairs_one = enumerate_all_gaps(4, 2)
    monkeypatch.setattr(census, "CHUNK", 7)
    pairs_many = enumerate_all_gaps(4, 2)
    pairs_pool = enumerate_all_gaps(4, 2, workers=2)
    assert len(pairs_one) == 256
    assert pairs_one == pairs_many == pairs_pool


def test_the_sweep_hashes_the_same_on_a_process_pool(monkeypatch):
    import golaypairs.census as census

    # (3,3) has 81 hi rows of 27 representatives: a CHUNK of 20 makes blocks
    # of one hi row, 108 blocks of four with a ragged last one; each worker
    # sweeps one span of whole blocks, and the spans join in order
    for q, m, chunk in ((3, 3, 20), (3, 3, 108), (5, 3, census.CHUNK), (4095, 1, 1000)):
        reps = q ** ((1 << m) - 1)
        with monkeypatch.context() as patch:
            patch.setattr(census, "CHUNK", chunk)
            one = census._sweep(q, m, reps, 1)
            assert np.array_equal(census._sweep(q, m, reps, 2), one), (q, m, chunk)
        assert np.array_equal(census._sweep(q, m, reps, 1), one), (q, m, chunk)


def test_census_logs_counters_and_stage_timings(caplog):
    with caplog.at_level(logging.DEBUG, logger="golaypairs"):
        assert len(enumerate_all_gaps(4, 2)) == 256
    (record,) = [r for r in caplog.records if r.name == "golaypairs"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "q=4 m=2: 64 representatives swept, 40 distinct fingerprints" in message
    assert "32 hash candidates, 0 rejected by the row check" in message
    assert "32 matched representative pairs, 256 pairs re-verified" in message
    for stage in ("sweep", "join", "expansion"):
        assert f"{stage} " in message


def census_counts(caplog, q, m):
    """The pair ids of (q, m) and its DEBUG counters before the stage timings."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="golaypairs"):
        pairs = ids_of(enumerate_all_gaps(q, m), q)
    (record,) = [r for r in caplog.records if r.name == "golaypairs"]
    counts = [int(w) for w in record.getMessage().split(";")[0].split() if w.isdigit()]
    return pairs, dict(zip(("reps", "distinct", "candidates", "rejected", "matched", "pairs"), counts))


@pytest.mark.parametrize(
    "weights",
    [lambda width: np.zeros(width, dtype=np.int64), lambda width: np.eye(1, width, dtype=np.int64)[0]],
    ids=["zero", "first column"],
)
def test_exactness_rests_on_the_row_check(monkeypatch, caplog, weights):
    # every row hashes to 0, or to its first coordinate, so hash runs hold
    # distinct rows and the row check has to reject most candidates
    import golaypairs.census as census

    spaces = ((2, 1), (3, 1), (4, 1), (2, 2), (5, 1), (6, 1), (3, 2), (4, 2), (2, 3))
    rejected = 0
    for q, m in spaces:
        slow = sorted(quadratic_all_gaps(q, m))
        pairs, exact = census_counts(caplog, q, m)
        assert pairs == slow and exact["rejected"] == 0, (q, m)
        for chunk in (census.CHUNK, 7):
            with monkeypatch.context() as patch:
                patch.setattr(census, "CHUNK", chunk)
                patch.setattr(census, "_weights", weights)
                pairs, counts = census_counts(caplog, q, m)
            assert pairs == slow, (q, m, chunk)
            assert counts["distinct"] == exact["distinct"], (q, m, chunk)
            assert counts["matched"] == exact["matched"], (q, m, chunk)
            assert counts["candidates"] - counts["rejected"] == counts["matched"], (q, m, chunk)
            rejected += counts["rejected"]
    assert rejected > 0


def test_verify_theorem_logs_certification_statistics(caplog):
    with caplog.at_level(logging.DEBUG, logger="golaypairs"):
        assert verify_theorem(4, 2).all_standard
    _, theorem = [r for r in caplog.records if r.name == "golaypairs"]
    assert theorem.levelno == logging.DEBUG
    message = theorem.getMessage()
    # one certificate per class representative, and one row per inner node:
    # the root pair and its dimension-1 child's pair; the dimension-0
    # sub-pairs have no shift to check
    assert "q=4 m=2: 256 pairs, 32 class representatives certified" in message
    assert "rows per dimension {1: 32, 2: 32}" in message
    assert "0 pairs certified after a representative failed" in message
    for stage in ("standard sweep", "certificate walks", "batched correlation", "peak RSS"):
        assert f"{stage} " in message


def break_rows(monkeypatch, broken):
    """Make every row (dimension, f entries, g entries) of the certifier's
    correlation that is in ``broken`` fail."""
    certify = importlib.import_module("golaypairs.certify")
    gaps = certify._gaps

    def patched(plan, q, rows):
        verdicts = gaps(plan, q, rows)
        dim = np.shape(rows)[2].bit_length() - 1
        for j, (fe, ge) in enumerate(np.asarray(rows).tolist()):
            if (dim, tuple(fe), tuple(ge)) in broken:
                verdicts[j] = False
        return verdicts

    monkeypatch.setattr(certify, "_gaps", patched)


def representative(q, pair):
    """The class representative (f - f(0), g - g(0)) of the entry pair (f, g)."""
    return tuple(tuple((v - e[0]) % q for v in e) for e in pair)


def in_census_order(keys):
    """Entry pairs sorted by id pair, ids comparing as reversed entries."""
    return sorted(keys, key=lambda key: (key[0][::-1], key[1][::-1]))


def certify_with_one_broken_pair(monkeypatch, q, m, index, workers, broken, whom):
    """``verify_theorem(q, m)`` with the certification of census pair
    ``index`` broken, or of its class representative (f - f(0), g - g(0))
    when ``whom`` is "representative", and the entries of the broken pair;
    certification runs in batches of 24 // (3 * m) pairs."""
    import golaypairs.census as census

    certify = importlib.import_module("golaypairs.certify")
    monkeypatch.setattr(census, "CHUNK", 24)
    f, g = enumerate_all_gaps(q, m)[index]
    target = (f.entries, g.entries)
    if whom == "representative":
        target = representative(q, target)
    if broken == "certificate":
        decomposition = certify._decomposition

        def tampered(q, claimed, n):
            # the stored d of the pair's root node, which C6 compares with
            # the pair rebuilt from its right sub-certificate
            forest = decomposition(q, claimed, n)
            idx, stack = claimed[m]
            for i, (fe, ge) in zip(idx.tolist(), stack.tolist()):
                if (tuple(fe), tuple(ge)) == target:
                    level, row = forest.roots[i]
                    for group in forest.levels[level].groups:
                        for j in np.flatnonzero(group.rows == row):
                            group.subs[j, 1, -1] = (group.subs[j, 1, -1] + 1) % q
            return forest

        monkeypatch.setattr(certify, "_decomposition", tampered)
    else:
        # the pair's own row, of dimension m, is one row of its batch
        break_rows(monkeypatch, {(m, *target)})
    return verify_theorem(q, m, workers=workers), target


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("broken", ("certificate", "correlation row"))
def test_witness_is_the_one_pair_whose_certification_fails(monkeypatch, workers, broken):
    # batches of 4 pairs.  The class representative of census pair 129
    # fails, so every census pair is certified, and the representative, a
    # census pair itself, is the one that fails again
    report, target = certify_with_one_broken_pair(
        monkeypatch, 4, 2, 129, workers, broken, "representative"
    )
    assert target == ((0, 3, 0, 1), (0, 1, 0, 3))
    assert report.nonstandard_witnesses == (target,)
    assert not report.all_standard
    assert report.gap_pair_count == report.standard_pair_count == 256


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("broken", ("certificate", "correlation row"))
def test_a_pair_that_is_no_representative_is_never_certified(monkeypatch, workers, broken):
    report, target = certify_with_one_broken_pair(
        monkeypatch, 4, 2, 129, workers, broken, "pair"
    )
    # the shift rule stands in for the certificate of pair 129: it carries
    # its representative's parameters (pi, c, c0, c') to (pi, c, c0 + a,
    # c' + b - a) for the member (r + a, s + b)
    assert target[0][0] or target[1][0]
    assert report.all_standard and report.nonstandard_witnesses == ()
    assert report.gap_pair_count == report.standard_pair_count == 256


@pytest.mark.parametrize("workers", (1, 2))
def test_witness_when_rows_and_pairs_do_not_line_up(monkeypatch, workers):
    # batches of 2 pairs; 32 of the 96 (2,3) certificates have two nodes of
    # dimension 1, among them pairs 52 and 53.  Each distinct node pair of a
    # batch is one row, so when the second dimension-1 row of pair 53 fails,
    # exactly the pairs whose certificates hold that node pair are witnesses
    import golaypairs.census as census

    monkeypatch.setattr(census, "CHUNK", 24)
    pairs = enumerate_all_gaps(2, 3)
    rows = [reference_walk(decompose(f, g)[1], 3)[2] for f, g in pairs]
    for pair_rows in rows[52:54]:
        assert [row[0] for row in pair_rows].count(1) == 2
    broken = [row for row in rows[53] if row[0] == 1][-1]
    want = tuple(sorted(
        (f.entries, g.entries) for (f, g), pair_rows in zip(pairs, rows) if broken in pair_rows
    ))
    assert (pairs[53][0].entries, pairs[53][1].entries) in want and len(want) < len(pairs)
    break_rows(monkeypatch, {broken})
    report = verify_theorem(2, 3, workers=workers)
    assert report.nonstandard_witnesses == want
    assert report.gap_pair_count == report.standard_pair_count == 96


def test_fingerprint_rows_are_narrow():
    import numpy as np

    from golaypairs.census import _row_layout

    # phi(8) = 4 coordinates per half shift, each within +-2^3
    assert _row_layout(8, 3) == (4 * 13, np.dtype(np.int8))
    assert _row_layout(2, 5) == (121, np.dtype(np.int8))
    # a dimension-0 row is padded to one column
    assert _row_layout(5, 0) == (1, np.dtype(np.int8))


def test_sweep_chunks_keep_the_histogram_bound(monkeypatch):
    import tracemalloc

    import golaypairs.census as census

    # a chunk's histogram holds at most _BINS counts: at (4095, 1) a whole
    # CHUNK of representatives would count 134 MB of them in one call
    enumerate_all_gaps(4095, 1)  # the context and plan, outside the trace
    tracemalloc.start()
    try:
        assert enumerate_all_gaps(4095, 1) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    sizes = []
    block_hashes = census._block_hashes

    def spy(split, start, digits, out):
        sizes.append(out.size)
        return block_hashes(split, start, digits, out)

    # a block is whole hi rows, at most CHUNK representatives unless one hi
    # row has more, and one block covers (4095, 1); it writes into the
    # sweep's hashes through one scratch array of its own size, so its
    # temporaries hold one int64 per representative, never one per
    # representative and cell or overlap pair
    monkeypatch.setattr(census, "_block_hashes", spy)
    for q, m, size in ((4095, 1, 4095), (5, 3, 4000), (4, 3, 4096), (2, 4, 4096), (3, 0, 1)):
        sizes.clear()
        enumerate_all_gaps(q, m)
        assert max(sizes) == size and sum(sizes) == q ** ((1 << m) - 1), (q, m)
        plan = census._cube_plan(m)
        split = census._split(q, plan.later, plan.earlier, census._hash_table(q, m), 1 << m)
        upper, _, n_lo = split.cross.shape
        digits = census._digits(q, np.arange(size // n_lo), np.empty((upper, size // n_lo), np.int64))
        out = np.empty((size // n_lo, n_lo), dtype=np.int64)
        tracemalloc.start()
        try:
            block_hashes(split, 0, digits, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * size + 4096, (q, m, peak)


def test_join_estimate_bounds_the_join_and_keeps_the_refusals():
    import tracemalloc

    from golaypairs.census import (
        _MAX_BYTES, _distinct, _join_bytes, _matches, _row_layout, _sweep,
    )

    # what the join holds, hashes plus its peak while it sorts, matches and
    # counts, rebuilding the rows it compares, on spaces of many chunks
    for q, m in ((5, 3), (6, 3), (2, 4)):
        reps = q ** (1 << m) // q
        width, dtype = _row_layout(q, m)
        hashes = _sweep(q, m, reps, 1)
        tracemalloc.start()
        try:
            order = np.argsort(hashes)
            keys = hashes[order]
            _matches(q, m, order, keys)
            _distinct(q, m, order, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = hashes.nbytes + peak
        assert held <= _join_bytes(reps, width * dtype.itemsize), (q, m)
    # a space is refused exactly when 2 * row + 8 bytes per representative
    # pass the cap, and the estimate is never below the join's row + 24
    for q in range(2, 65):
        for m in range(7):
            reps = q ** ((1 << m) - 1)
            width, dtype = _row_layout(q, m)
            row = width * dtype.itemsize
            estimate = _join_bytes(reps, row)
            assert (estimate > _MAX_BYTES) == (reps * (2 * row + 8) > _MAX_BYTES), (q, m)
            assert estimate >= reps * (row + 24), (q, m)


def test_the_sweep_and_join_hold_hashes_not_rows(monkeypatch):
    import tracemalloc

    import golaypairs.census as census

    # a hash, a sort index and a sorted hash per representative, plus one
    # sweep chunk's temporaries: no (reps, width) array, which would be
    # 7.3 MB of int8 rows at (6,3); pairs are not expanded
    monkeypatch.setattr(census, "_expand", lambda q, m, bases: [])
    for q, m in ((6, 3), (4, 3), (2, 4)):
        census._gap_classes(q, m, budget=census.DEFAULT_BUDGET, workers=1)
        tracemalloc.start()
        try:
            census._gap_classes(q, m, budget=census.DEFAULT_BUDGET, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reps = q ** ((1 << m) - 1)
        assert peak <= 24 * reps + ((1 << m) + 5) * 8 * census.CHUNK, (q, m, peak)


def test_report_serialization():
    r = verify_theorem(2, 1)
    d = r.to_json_dict()
    assert set(d) == {
        "q",
        "m",
        "total_arrays",
        "gap_pair_count",
        "standard_pair_count",
        "all_standard",
        "nonstandard_witnesses",
    }
    d2 = r.to_json_dict(include_elapsed=True)
    assert "elapsed_seconds" in d2
    assert json.dumps(d, sort_keys=True)  # serializable


def test_report_is_deterministic_across_runs():
    a = verify_theorem(4, 1).to_json_dict()
    b = verify_theorem(4, 1).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_certification_leaves_no_reference_cycles():
    import gc

    from golaypairs import QaryArray, verify_certificate
    from golaypairs.certify import _certify

    pairs = enumerate_all_gaps(4, 3)[:100]
    f, g = pairs[5]
    moved = QaryArray(4, 3, ((f.entries[0] + 1) % 4,) + f.entries[1:])
    pairs.append((moved, g))
    certs = [decompose(ff, gg)[1] for ff, gg in pairs[:100]]
    # the pair (moved, g) with the certificate of (f, g)
    certs.append(certs[5])
    _, cert = decompose(f, g)
    # warm the plan and table caches, so that only the calls themselves count
    verify_certificate(f, g, cert, max_corr_dim=3)
    failures = _certify(4, 3, pairs)[0]
    assert list(failures) == [100]
    assert failures[100].startswith("not a complementary pair")
    assert _certify(4, 3, pairs, certs)[0] == {
        100: "certificate verification failed: replayed pair differs from the"
        " claimed pair"
    }
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            verify_certificate(f, g, cert, max_corr_dim=3)
        assert gc.collect() == 0
        _certify(4, 3, pairs)
        assert gc.collect() == 0
        _certify(4, 3, pairs, certs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def shared_counters(pairs):
    """Distinct sub-pairs and reused inner sub-certificate walks of one
    batch, counted on certificates decomposed one pair at a time.

    Equal sub-pairs share one certificate in a batch, so a walk is reused
    at each inner child whose pair an earlier walk of the batch met."""
    from golaypairs import replay

    def key(node):
        f, g = replay(node)
        return f.entries, g.entries

    below, walked, reused = set(), set(), 0

    def collect(node):
        below.add(key(node))
        for child in (node.left, node.right) if node.m else ():
            collect(child)

    def walk_children(node):
        nonlocal reused
        for child in (node.left, node.right):
            if not child.m:
                continue
            if key(child) in walked:
                reused += 1
                continue
            walk_children(child)
            walked.add(key(child))

    for f, g in pairs:
        _, cert = decompose(f, g)
        collect(cert.left)
        collect(cert.right)
        walk_children(cert)
    return len(below), reused


@pytest.mark.parametrize("workers", (1, 2))
def test_verify_theorem_logs_shared_subcertificate_counters(monkeypatch, caplog, workers):
    import golaypairs.census as census

    # batches of 60 // 9 = 6 class representatives (f - f(0), g - g(0)) of
    # the census pairs, in census order
    monkeypatch.setattr(census, "CHUNK", 60)
    keys = {representative(2, (f.entries, g.entries)) for f, g in enumerate_all_gaps(2, 3)}
    pairs = [(QaryArray(2, 3, fe), QaryArray(2, 3, ge)) for fe, ge in in_census_order(keys)]
    assert len(pairs) == 48
    totals = [shared_counters(pairs[a : a + 6]) for a in range(0, len(pairs), 6)]
    decomposed, reused = (sum(column) for column in zip(*totals))
    assert reused > 0
    with caplog.at_level(logging.DEBUG, logger="golaypairs"):
        assert verify_theorem(2, 3, workers=workers).all_standard
    message = caplog.records[-1].getMessage()
    assert (
        f"{decomposed} distinct sub-pairs decomposed,"
        f" {reused} sub-certificate walks reused" in message
    )


@pytest.mark.parametrize(
    "q, m", [(q, m) for q in (2, 4, 6) for m in range(4)] + [(8, 2)]
)
def test_standard_sweep_matches_the_parameter_sweep(q, m):
    got = [(f.entries, g.entries) for f, g in enumerate_standard(q, m)]
    assert got == standard_pairs_by_params(q, m)


def test_standard_sweep_builds_only_the_base_pairs(monkeypatch):
    import golaypairs.census as census

    calls = []

    def counted(params):
        calls.append((params.c0, params.c_prime))
        return construct_standard(params)

    monkeypatch.setattr(census, "construct_standard", counted)
    for q, m, bases in ((2, 0, 1), (4, 2, 32), (6, 3, 1296)):
        calls.clear()
        enumerate_standard(q, m)
        assert len(calls) == bases and set(calls) == {(0, 0)}, (q, m)


def standard_count(q, m):
    return q * (q + 1) // 2 if m == 0 else math.factorial(m) * q ** (m + 2) // 2


@pytest.mark.parametrize("q", (2, 4, 6, 8))
def test_standard_count_has_its_closed_form(q):
    m = 0
    while standard_count(q, m) <= 50_000:
        keys = [(f.entries, g.entries) for f, g in enumerate_standard(q, m)]
        assert len(keys) == standard_count(q, m) == len(set(keys)), (q, m)
        m += 1


def test_census_without_matches_expands_to_no_pairs():
    import golaypairs.census as census

    assert census._expand(3, 2, []) == []
    for q, m in ((3, 1), (3, 2), (5, 2)):
        assert enumerate_all_gaps(q, m) == [], (q, m)


def test_standard_sweep_over_memory_budget_is_refused_before_any_work():
    for q, m in ((2, 12), (4, 6), (2, 10**9)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="memory budget"):
            enumerate_standard(q, m)
        assert time.perf_counter() - start < 1, (q, m)
    # the largest spaces the census itself admits
    assert len(enumerate_standard(8, 3)) == standard_count(8, 3) == 98_304
    assert len(enumerate_standard(512, 0)) == standard_count(512, 0) == 131_328


# every space the census tests reach with an even q
CLASS_SPACES = [(q, m) for q in (2, 4, 6) for m in range(4)] + [(8, 0), (8, 1), (8, 2), (2, 4)]


def class_size(q, r, s):
    """The census pairs of the class (r + a, s + b): those whose ids ascend."""
    return sum(
        tuple((v + a) % q for v in r)[::-1] <= tuple((v + b) % q for v in s)[::-1]
        for a in range(q)
        for b in range(q)
    )


@pytest.mark.parametrize("q, m", CLASS_SPACES)
def test_certified_representatives_are_the_classes_of_the_census(monkeypatch, q, m):
    import golaypairs.census as census

    certify, certified = census._certify, []

    def spy(q, max_corr_dim, pairs):
        certified.extend((f.entries, g.entries) for f, g in pairs)
        return certify(q, max_corr_dim, pairs)

    monkeypatch.setattr(census, "_certify", spy)
    report = verify_theorem(q, m)
    assert report.all_standard
    classes = Counter(representative(q, (f.entries, g.entries)) for f, g in enumerate_all_gaps(q, m))
    # one certificate per class, in census order, and nothing else
    assert certified == in_census_order(classes)
    sizes = {(r, s): class_size(q, r, s) for r, s in certified}
    assert sizes == classes
    assert sum(sizes.values()) == report.gap_pair_count


@pytest.mark.parametrize("q, m", CLASS_SPACES)
def test_every_census_pair_certifies_on_its_own(q, m):
    # the per-pair certification that the class route replaces, in its
    # batches, still fails nowhere
    import golaypairs.census as census
    from golaypairs.certify import _certify

    pairs = enumerate_all_gaps(q, m)
    size = census.CHUNK // max(3 * m, 1)
    for a in range(0, len(pairs), size):
        assert _certify(q, m, pairs[a : a + size])[0] == {}, (q, m, a)
