"""Exhaustive census of complementary pairs over small array spaces.

Every array over the space is fingerprinted by the exact canonical
coordinates of its autocorrelation at the kept half of the nonzero shifts
(the other half is determined by conjugate symmetry).  Two arrays form a
complementary pair exactly when their fingerprints are negatives of each
other, so matching is a hash join rather than a quadratic sweep.  The
canonical coordinates are integers and the sweep is carried out in int64
with a proven no-overflow bound, so the join is exact; every matched pair
is nevertheless re-verified with the literal cyclotomic correlation sums.
The sweep runs on the correlation kernel of :mod:`golaypairs.qarray` that
:func:`~golaypairs.qarray.is_gap` runs on, with one row group per array.

Fingerprints are computed in chunks of ``CHUNK`` arrays.  The kernel holds
a key per array and overlap pair, so a larger chunk raises peak memory:
``census 4 3`` peaks at 85 MB with 16384 arrays and at 74 MB with 4096.  With
``workers > 1`` the chunks are farmed out to a process pool and merged back
in input order, so reports are byte-for-byte identical for every worker
count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .decompose import decompose, verify_certificate
from .errors import (
    BudgetExceededError,
    NotAGapError,
    OddModulusError,
    VerificationError,
)
from .qarray import QaryArray, _cube_plan, _histograms, _reduction, _trusted, is_gap
from .standard import StandardParams, construct_standard

DEFAULT_BUDGET = 20_000_000
CHUNK = 4096


def _array_from_id(q: int, m: int, ident: int) -> QaryArray:
    """Array whose entry list is the little-endian base-q digits of ident."""
    entries = []
    for _ in range(1 << m):
        ident, r = divmod(ident, q)
        entries.append(r)
    return _trusted(QaryArray, q, m, tuple(entries))


def _id_from_entries(q: int, entries: tuple[int, ...]) -> int:
    ident = 0
    for e in reversed(entries):
        ident = ident * q + e
    return ident


def _chunk_signatures(
    q: int, m: int, start: int, stop: int
) -> tuple[list[bytes], list[bytes]]:
    """Fingerprints (and their negatives) for ids start..stop-1, in id order."""
    plan = _cube_plan(m)
    red_t = _reduction(q, 1 << m).T
    n = stop - start
    table = np.empty((n, 1, 1 << m), dtype=np.int64)
    work = np.arange(start, stop, dtype=np.int64)
    for t in range(1 << m):
        table[:, 0, t] = work % q
        work //= q
    hist = _histograms(plan, table, q, 0, len(plan.order))
    sig = (red_t @ hist).reshape(n, red_t.shape[0] * len(plan.order))
    neg = -sig
    return (
        [sig[r].tobytes() for r in range(n)],
        [neg[r].tobytes() for r in range(n)],
    )


def _space_size(q: int, m: int, budget: int) -> int | None:
    """q^(2^m) if it is at most ``budget``, else None.

    Squares q up to m times and stops as soon as the value passes the
    budget; with q >= 2 no number much beyond budget**2 is ever built.
    """
    size = q
    for _ in range(m):
        if size > budget:
            return None
        size *= size
    return size if size <= budget else None


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: at most one per chunk and per CPU."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def enumerate_all_gaps(
    q: int, m: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> list[tuple[QaryArray, QaryArray]]:
    """All unordered complementary pairs over the full q-ary space, exhaustively.

    Pairs are returned with the ids in ascending order (a pair may consist of
    an array and itself) and the list sorted by id pair, independent of the
    worker count, which is clamped to the number of chunks and CPUs.  Raises
    :class:`BudgetExceededError` before any work if the space holds more
    than ``budget`` arrays.
    """
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    if m < 0:
        raise ValueError(f"dimension must be nonnegative, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n_total = _space_size(q, m, budget)
    if n_total is None:
        raise BudgetExceededError(
            f"space holds q^(2^m) = {q}^(2^{m}) arrays, over the budget of {budget}"
        )
    tasks = [
        (q, m, start, min(start + CHUNK, n_total))
        for start in range(0, n_total, CHUNK)
    ]
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        results = [_chunk_signatures(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_signatures, *zip(*tasks)))
    sigs: list[bytes] = []
    negs: list[bytes] = []
    for sig_chunk, neg_chunk in results:
        sigs.extend(sig_chunk)
        negs.extend(neg_chunk)

    index: dict[bytes, list[int]] = {}
    for ident, sig in enumerate(sigs):
        index.setdefault(sig, []).append(ident)

    pairs: list[tuple[QaryArray, QaryArray]] = []
    for fid, neg in enumerate(negs):
        for gid in index.get(neg, ()):
            if gid < fid:
                continue
            f = _array_from_id(q, m, fid)
            g = _array_from_id(q, m, gid)
            if not is_gap(f, g):
                raise VerificationError(
                    "fingerprint match not confirmed by direct correlation sums"
                )  # pragma: no cover - internal guard
            pairs.append((f, g))
    return pairs


def enumerate_standard(q: int, m: int) -> list[tuple[QaryArray, QaryArray]]:
    """All unordered pairs produced by the standard construction.

    Sweeps every parameter choice and deduplicates the resulting pairs; the
    intra-pair order and the list order follow the same id convention as
    :func:`enumerate_all_gaps` so the two outputs are directly comparable.
    """
    if q < 2 or q % 2:
        raise OddModulusError(f"standard pairs require even q, got {q}")
    if m < 0:
        raise ValueError(f"dimension must be nonnegative, got {m}")
    seen: dict[tuple[int, int], tuple[QaryArray, QaryArray]] = {}
    for pi in permutations(range(1, m + 1)):
        for c in product(range(q), repeat=m):
            for c0 in range(q):
                for c_prime in range(q):
                    params = _trusted(StandardParams, q, m, pi, c, c0, c_prime)
                    f, g = construct_standard(params)
                    fid = _id_from_entries(q, f.entries)
                    gid = _id_from_entries(q, g.entries)
                    if gid < fid:
                        fid, gid, f, g = gid, fid, g, f
                    seen.setdefault((fid, gid), (f, g))
    return [seen[key] for key in sorted(seen)]


@dataclass(frozen=True)
class CensusReport:
    """Outcome of one exhaustive sweep of a (q, m) array space."""

    q: int
    m: int
    total_arrays: int
    gap_pair_count: int
    standard_pair_count: int
    all_standard: bool
    nonstandard_witnesses: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    elapsed_seconds: float

    def to_json_dict(self, include_elapsed: bool = False) -> dict:
        """Canonical report; timing is opt-in so serialized reports stay
        reproducible across runs and worker counts."""
        out = {
            "q": self.q,
            "m": self.m,
            "total_arrays": self.total_arrays,
            "gap_pair_count": self.gap_pair_count,
            "standard_pair_count": self.standard_pair_count,
            "all_standard": self.all_standard,
            "nonstandard_witnesses": [
                {"f": list(fe), "g": list(ge)}
                for fe, ge in self.nonstandard_witnesses
            ],
        }
        if include_elapsed:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


def verify_theorem(
    q: int, m: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> CensusReport:
    """Check that every complementary pair in the space is standard.

    For even q the census set is compared against the standard sweep, and
    every censused pair is additionally decomposed and its certificate
    re-verified with literal correlation checks at every node.  A standard
    pair missing from the census would mean the sweep itself is broken and
    raises :class:`VerificationError`.  For odd q the standard construction
    is empty in positive dimension, so every censused pair is a witness;
    in dimension 0 all pairs are degenerate and counted as standard.
    """
    t0 = time.perf_counter()
    gaps = enumerate_all_gaps(q, m, budget=budget, workers=workers)
    total = q ** (1 << m)
    gap_keys = {(f.entries, g.entries) for f, g in gaps}
    if q % 2 == 0:
        std = enumerate_standard(q, m)
        std_keys = {(f.entries, g.entries) for f, g in std}
        missing = std_keys - gap_keys
        if missing:
            raise VerificationError(
                f"{len(missing)} standard pairs missed by the census sweep"
            )  # pragma: no cover - internal guard
        witness_keys = gap_keys - std_keys
        for f, g in gaps:
            try:
                _, cert = decompose(f, g)
                verify_certificate(f, g, cert, max_corr_dim=m)
            except (NotAGapError, VerificationError):
                witness_keys.add((f.entries, g.entries))
        standard_count = len(std_keys)
    elif m == 0:
        witness_keys = set()
        standard_count = len(gap_keys)
    else:
        witness_keys = set(gap_keys)
        standard_count = 0
    witnesses = tuple(sorted(witness_keys))
    return CensusReport(
        q=q,
        m=m,
        total_arrays=total,
        gap_pair_count=len(gap_keys),
        standard_pair_count=standard_count,
        all_standard=not witnesses,
        nonstandard_witnesses=witnesses,
        elapsed_seconds=time.perf_counter() - t0,
    )
