"""Exhaustive sweeps: signature matching against the quadratic oracle."""

import dataclasses
import importlib
import json
import logging

import pytest

from golaypairs import (
    BudgetExceededError,
    OddModulusError,
    decompose,
    enumerate_all_gaps,
    enumerate_standard,
    is_gap,
    verify_theorem,
)

from helpers import quadratic_all_gaps


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


def certify_with_one_broken_pair(monkeypatch, q, m, index, workers, broken):
    """``verify_theorem(q, m)`` with the certification of census pair
    ``index`` broken, and that pair's entries; certification runs in
    batches of 24 // (3 * m) pairs."""
    import golaypairs.census as census

    # the package's decompose function shadows the module of that name
    dec = importlib.import_module("golaypairs.decompose")
    monkeypatch.setattr(census, "CHUNK", 24)
    f, g = enumerate_all_gaps(q, m)[index]
    target = (f.entries, g.entries)
    if broken == "certificate":
        decompose_rec = dec._decompose_rec

        def tampered(ff, gg, memo):
            cert = decompose_rec(ff, gg, memo)
            if (ff.entries, gg.entries) == target:
                cert = dataclasses.replace(cert, e=(cert.e + 1) % q)
            return cert

        monkeypatch.setattr(dec, "_decompose_rec", tampered)
    else:
        walk = dec._walk

        def tampered(node, max_corr_dim, memo):
            ff, gg, rows = walk(node, max_corr_dim, memo)
            if (ff.entries, gg.entries) == target:
                # the last row of dimension 1; (e, e) is never a pair in
                # positive dimension
                last = max(k for k, row in enumerate(rows) if row[0] == 1)
                e = rows[last][1]
                rows = rows[:last] + ((1, e, e),) + rows[last + 1 :]
            return ff, gg, rows

        monkeypatch.setattr(dec, "_walk", tampered)
    return verify_theorem(q, m, workers=workers), target


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("broken", ("certificate", "correlation row"))
def test_witness_is_the_one_pair_whose_certification_fails(monkeypatch, workers, broken):
    # batches of 4 pairs; a (4,2) pair has one row of each dimension 1 and 2,
    # so here rows and pairs line up
    report, target = certify_with_one_broken_pair(
        monkeypatch, 4, 2, 129, workers, broken
    )
    assert report.nonstandard_witnesses == (target,)
    assert not report.all_standard
    assert report.gap_pair_count == report.standard_pair_count == 256


@pytest.mark.parametrize("workers", (1, 2))
def test_witness_when_rows_and_pairs_do_not_line_up(monkeypatch, workers):
    # batches of 2 pairs; 32 of the 96 (2,3) certificates have two nodes of
    # dimension 1, among them pairs 52 and 53, so the broken row is row 3 of
    # its batch and belongs to pair 1
    from golaypairs.decompose import _Memo, _walk

    for f, g in enumerate_all_gaps(2, 3)[52:54]:
        rows = _walk(decompose(f, g)[1], 3, _Memo())[2]
        assert [row[0] for row in rows].count(1) == 2
    report, target = certify_with_one_broken_pair(
        monkeypatch, 2, 3, 53, workers, "correlation row"
    )
    assert report.nonstandard_witnesses == (target,)
    assert not report.all_standard
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
    from golaypairs.decompose import _certify

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
