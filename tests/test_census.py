"""Exhaustive sweeps: signature matching against the quadratic oracle."""

import importlib
import json
import logging
import math
import time

import numpy as np
import pytest

from golaypairs import (
    BudgetExceededError,
    OddModulusError,
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


def test_census_logs_counters_and_stage_timings(caplog):
    with caplog.at_level(logging.DEBUG, logger="golaypairs"):
        assert len(enumerate_all_gaps(4, 2)) == 256
    (record,) = [r for r in caplog.records if r.name == "golaypairs"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "q=4 m=2: 64 representatives swept" in message
    assert "256 pairs re-verified" in message
    for stage in ("sweep", "join", "expansion"):
        assert f"{stage} " in message


def test_verify_theorem_logs_certification_statistics(caplog):
    with caplog.at_level(logging.DEBUG, logger="golaypairs"):
        assert verify_theorem(4, 2).all_standard
    _, theorem = [r for r in caplog.records if r.name == "golaypairs"]
    assert theorem.levelno == logging.DEBUG
    message = theorem.getMessage()
    # one row per inner node: the root pair and its dimension-1 child's pair;
    # the dimension-0 sub-pairs have no shift to check
    assert "q=4 m=2: 256 pairs certified" in message
    assert "rows per dimension {1: 256, 2: 256}" in message
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


def certify_with_one_broken_pair(monkeypatch, q, m, index, workers, broken):
    """``verify_theorem(q, m)`` with the certification of census pair
    ``index`` broken, and that pair's entries; certification runs in
    batches of 24 // (3 * m) pairs."""
    import golaypairs.census as census

    certify = importlib.import_module("golaypairs.certify")
    monkeypatch.setattr(census, "CHUNK", 24)
    f, g = enumerate_all_gaps(q, m)[index]
    target = (f.entries, g.entries)
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
    # batches of 4 pairs
    report, target = certify_with_one_broken_pair(
        monkeypatch, 4, 2, 129, workers, broken
    )
    assert report.nonstandard_witnesses == (target,)
    assert not report.all_standard
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

    # batches of 60 // 9 = 6 pairs
    monkeypatch.setattr(census, "CHUNK", 60)
    pairs = enumerate_all_gaps(2, 3)
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
