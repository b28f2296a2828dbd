"""Exhaustive census of complementary pairs over small array spaces.

Every array is fingerprinted by the exact canonical coordinates of its
autocorrelation at the kept half of the nonzero shifts (the other half is
determined by conjugate symmetry).  Two arrays form a complementary pair
exactly when their fingerprints are negatives of each other.  The sweep
runs on the correlation kernel of :mod:`golaypairs.qarray` that
:func:`~golaypairs.qarray.is_gap` runs on, with one row group per array.

The sweep is quotiented by the additive constant.  An autocorrelation
depends only on differences of entries, so f and f + c share a
fingerprint, and only the q^(2^m - 1) representatives with f(0) = 0 are
swept: representative r has entries (0, base-q digits of r).  Nothing is
lost.  If (f, g) is a pair, then fp(f - f(0)) = fp(f) = -fp(g) =
-fp(g - g(0)), so the representatives of f and g match, and expanding that
match to (f0 + a, g0 + b) for all a, b in Z_q yields (f, g).  Every
expanded pair is re-verified with the literal correlation sums.
The standard set is expanded by the same routine: the standard pair of
(pi, c, c0, c') is the base pair of (pi, c, 0, 0) plus (c0, c0 + c'), so
only the m! q^m base pairs are built (see :func:`enumerate_standard`).

The join is a sorted search, not a hash table.  Fingerprint rows are held in
one contiguous array in representative order.  A canonical coordinate is at
most 2^m times the largest reduction entry in absolute value, so each row
is stored in the narrowest signed dtype holding that bound (int8 for every
space with m >= 2 inside ``DEFAULT_BUDGET``), where negation cannot
overflow.  The rows are sorted once by a fixed-width byte view, in which
equal views are equal rows.  The negated rows are then probed chunk by chunk
with ``searchsorted``, so no full negated copy is ever held.  The join holds
the rows twice (as swept and sorted) plus an int64 sort index, so a
representative costs 2 * width * itemsize + 8 bytes: 112 at (8,3), whose
2^21 representatives take 235 MB.
A space whose estimate is over ``_MAX_BYTES`` is refused with
:class:`BudgetExceededError` before any work.  The expanded pair list is
held to the same cap: after the join, the matched representatives bound the
number of pairs, and a census whose pairs would take more than
``_MAX_BYTES`` at ``_PAIR_BYTES`` each is refused before they are built.

Fingerprints are computed in chunks of ``CHUNK`` representatives.  Per
chunk the kernel holds one int64 key per representative and overlap pair and
one int64 count per representative, residue and half shift: 0.9 MB and
3.4 MB at (8,3).  With ``workers > 1`` the chunks are farmed out to a
process pool and merged back in order, so reports are byte-for-byte
identical for every worker count.  Each call logs one DEBUG record with its
counters and stage timings on the ``golaypairs`` logger, which is silent by
default.

:func:`verify_theorem` then decomposes and certifies every censused pair
of an even-q space at ``max_corr_dim = m`` with the stacked certifier of
:mod:`golaypairs.certify`, in batches of ``CHUNK // (3 * m)`` pairs: 455 at
m = 3, whose first batch at (4,3) holds 277 distinct sub-pairs in 7 node
shapes, each shape one set of numpy stacks.  The batches run in census
order, on a process pool when ``workers > 1``, and their witnesses are
merged into one sorted set, so reports are again identical for every
worker count.
"""

from __future__ import annotations

import logging
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .cyclotomic import get_context
from .certify import _certify
from .errors import BudgetExceededError, OddModulusError, VerificationError
from .qarray import QaryArray, _coords, _cube_plan, _trusted, is_gap
from .standard import StandardParams, construct_standard

DEFAULT_BUDGET = 20_000_000
CHUNK = 4096
# Refuse a join or a pair list whose estimate passes 1 GiB; the (8,3) join
# needs about 235 MB.
_MAX_BYTES = 1 << 30
# Peak memory of `census` per censused pair over its 32 MB baseline: 1.16 KB
# at (64,1) and (512,0), with about 131,000 pairs each, on Python 3.11.
_PAIR_BYTES = 1200

_log = logging.getLogger("golaypairs")


def _row_layout(q: int, m: int) -> tuple[int, np.dtype]:
    """Columns and dtype of one fingerprint row.

    A row has phi(q) coordinates per half shift; at m = 0 it is padded to
    one zero column so its byte view is never empty.  The dtype is the
    narrowest signed one holding -bound - 1, so it holds +-bound for the
    bound 2^m times the context's largest reduction entry, and negating a
    row cannot overflow.
    """
    ctx = get_context(q)
    width = max(ctx.degree * ((3**m - 1) // 2), 1)
    return width, np.min_scalar_type(-(ctx.max_entry << m) - 1)


def _entries(q: int, m: int, reps) -> np.ndarray:
    """Entries of representatives ``reps``, one int64 row each: 0, then
    the base-q digits of the representative, lowest first."""
    work = np.array(reps, dtype=np.int64)
    out = np.zeros((len(work), 1 << m), dtype=np.int64)
    for t in range(1, 1 << m):
        work, out[:, t] = np.divmod(work, q)
    return out


def _chunk_rows(
    q: int, m: int, start: int, stop: int, width: int, dtype: np.dtype
) -> np.ndarray:
    """Fingerprint rows of representatives start..stop-1, in order."""
    plan = _cube_plan(m)
    n = stop - start
    table = _entries(q, m, np.arange(start, stop))[:, None]
    sig = _coords(plan, table, q, 0, len(plan.order)).reshape(n, -1)
    if np.abs(sig).max(initial=0) > np.iinfo(dtype).max:
        raise VerificationError(
            "canonical coordinate outside its proven bound"
        )  # pragma: no cover - internal guard
    rows = np.zeros((n, width), dtype=dtype)
    rows[:, : sig.shape[1]] = sig
    return rows


def _sweep(
    q: int, m: int, reps: int, width: int, dtype: np.dtype, workers: int
) -> np.ndarray:
    """Fingerprint rows of every representative, in representative order."""
    starts = range(0, reps, CHUNK)
    tasks = [(q, m, a, min(a + CHUNK, reps), width, dtype) for a in starts]
    rows = np.empty((reps, width), dtype=dtype)
    chunks = _run(_chunk_rows, tasks, workers)
    for task in tasks:
        # unnamed, so each chunk is freed before the next one is built
        rows[task[2] : task[3]] = next(chunks)
    return rows


def _keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per row; equal keys are equal rows."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _matches(rows: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Representative pairs (r, s) with fp(s) = -fp(r), and the number of
    distinct fingerprints.

    ``rows`` are sorted by key and row i is representative ``order[i]``.
    Each chunk of rows is negated and probed for its run of equal keys.
    """
    keys = _keys(rows)
    f_parts, g_parts = [], []
    distinct = 1
    for start in range(0, len(rows), CHUNK):
        stop = min(start + CHUNK, len(rows))
        first = max(start, 1)
        distinct += int(np.count_nonzero(keys[first:stop] != keys[first - 1 : stop - 1]))
        probe = _keys(-rows[start:stop])
        lo = np.searchsorted(keys, probe, "left")
        counts = np.searchsorted(keys, probe, "right") - lo
        hit = np.flatnonzero(counts)
        c = counts[hit]
        offsets = np.repeat(lo[hit] - (np.cumsum(c) - c), c)
        f_parts.append(order[np.repeat(start + hit, c)])
        g_parts.append(order[offsets + np.arange(c.sum())])
    return np.concatenate(f_parts), np.concatenate(g_parts), distinct


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


def _standard_pair_count(q: int, m: int, limit: int) -> int | None:
    """The number of standard pairs, m! q^(m+2) / 2 for m >= 1 and
    q (q + 1) / 2 for m = 0, if it is at most ``limit``, else None.

    Multiplies in one factor k q at a time and stops as soon as the product
    passes ``limit``, so m! is never built for a huge m.
    """
    count = q * (q + 1) // 2 if m == 0 else q * q // 2
    for k in range(1, m + 1):
        if count > limit:
            return None
        count *= k * q
    return count if count <= limit else None


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: at most one per chunk and per CPU."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def _run(fn, tasks: list[tuple], workers: int):
    """``fn(*task)`` for every task, yielded in task order; on a process
    pool of ``_pool_size(workers, len(tasks))`` processes when that is over
    one."""
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        yield from (fn(*task) for task in tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*tasks))


def _expand(q: int, m: int, bases: list) -> list[tuple[QaryArray, QaryArray]]:
    """Pairs (f + a, g + b), a and b in Z_q, of the base pairs (f, g) of entry
    tuples with id(f + a) <= id(g + b), in census order: each unordered pair
    once if ``bases`` holds (g, f) with each (f, g) and no two base pairs
    share a class.  Each base array's q class members are built once and shared."""
    constants = np.arange(q)[:, None]
    members = {
        e: [(r[::-1], _trusted(QaryArray, q, m, r))
            for r in map(tuple, ((np.array(e) + constants) % q).tolist())]
        for e in {e for base in bases for e in base}
    }
    found = [
        (fk, gk, f, g)
        for fe, ge in bases
        for fk, f in members[fe]
        for gk, g in members[ge]
        if fk <= gk
    ]
    found.sort(key=lambda item: item[:2])
    return [(f, g) for _, _, f, g in found]


def enumerate_all_gaps(
    q: int, m: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> list[tuple[QaryArray, QaryArray]]:
    """All unordered complementary pairs over the full q-ary space, exhaustively.

    An array's id is its entries read as base-q digits, entry 0 lowest, so
    ids compare as the reversed entry tuples do.  Pairs are returned with
    the ids in ascending order (a pair may consist of an array and itself)
    and the list sorted by id pair, independent of the worker count, which
    is clamped to the number of chunks and CPUs.  Raises
    :class:`BudgetExceededError` before any work if the space holds more
    than ``budget`` arrays or its join would need more than ``_MAX_BYTES``,
    and after the join if its pairs might; :class:`ValueError` for a
    negative budget.
    """
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    if m < 0:
        raise ValueError(f"dimension must be nonnegative, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    n_total = _space_size(q, m, budget)
    if n_total is None:
        raise BudgetExceededError(
            f"space holds q^(2^m) = {q}^(2^{m}) arrays, over the budget of {budget}"
        )
    reps = n_total // q
    width, dtype = _row_layout(q, m)
    join_bytes = reps * (2 * width * dtype.itemsize + 8)
    if join_bytes > _MAX_BYTES:
        raise BudgetExceededError(
            f"the census join at q={q}, m={m} would need about {join_bytes >> 20} MiB,"
            f" over the memory budget of {_MAX_BYTES >> 20} MiB"
        )

    t0 = time.perf_counter()
    rows = _sweep(q, m, reps, width, dtype, workers)
    t1 = time.perf_counter()
    order = np.argsort(_keys(rows))
    rows = rows[order]
    f_reps, g_reps, distinct = _matches(rows, order)
    del rows
    t2 = time.perf_counter()
    # a match (r, s) expands to q^2 ordered pairs; when r != s, (s, r) gives
    # the same unordered ones, and when r = s, q(q + 1) / 2 are unordered
    max_pairs = len(f_reps) * q * (q + 1) // 2
    if max_pairs * _PAIR_BYTES > _MAX_BYTES:
        raise BudgetExceededError(
            f"the census at q={q}, m={m} would expand to up to {max_pairs} pairs,"
            f" about {max_pairs * _PAIR_BYTES >> 20} MiB, over the memory budget"
            f" of {_MAX_BYTES >> 20} MiB"
        )

    f_list, g_list = (map(tuple, _entries(q, m, reps).tolist()) for reps in (f_reps, g_reps))
    pairs = _expand(q, m, list(zip(f_list, g_list)))
    for f, g in pairs:
        if not is_gap(f, g):
            raise VerificationError(
                "fingerprint match not confirmed by direct correlation sums"
            )  # pragma: no cover - internal guard
    _log.debug(
        "census q=%d m=%d: %d representatives swept, %d distinct fingerprints,"
        " %d matched representative pairs, %d pairs re-verified;"
        " sweep %.3f s, join %.3f s, expansion %.3f s",
        q, m, reps, distinct, len(f_reps), len(pairs),
        t1 - t0, t2 - t1, time.perf_counter() - t2,
    )
    return pairs


def enumerate_standard(q: int, m: int) -> list[tuple[QaryArray, QaryArray]]:
    """All unordered pairs produced by the standard construction.

    Parameters (pi, c, c0, c') give the pair (f + c0, g + c0 + c') of the
    base pair (f, g) of (pi, c, 0, 0), so only the m! q^m base pairs are
    built, and :func:`_expand` adds the constants as it does for the census.
    Each ordered pair has one parameter set, and the swap (f, g) -> (g, f)
    is the parameter map (pi, c + (q/2) e_pi(1), c0 + c', -c'), so each
    unordered pair appears once: m! q^(m+2) / 2 for m >= 1, q (q + 1) / 2
    for m = 0.  Pair and list order follow :func:`enumerate_all_gaps`.
    Raises :class:`BudgetExceededError` before any work if that many pairs
    would pass ``_MAX_BYTES`` at ``_PAIR_BYTES`` each; no census that its
    own pair refusal admits is refused here.
    """
    if q < 2 or q % 2:
        raise OddModulusError(f"standard pairs require even q, got {q}")
    if m < 0:
        raise ValueError(f"dimension must be nonnegative, got {m}")
    if _standard_pair_count(q, m, _MAX_BYTES // _PAIR_BYTES) is None:
        raise BudgetExceededError(
            f"the standard pairs at q={q}, m={m} would take more than the"
            f" memory budget of {_MAX_BYTES >> 20} MiB"
        )
    bases = []
    for pi, c in product(permutations(range(1, m + 1)), product(range(q), repeat=m)):
        f, g = construct_standard(_trusted(StandardParams, q, m, pi, c, 0, 0))
        bases.append((f.entries, g.entries))
    return _expand(q, m, bases)


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
    re-verified with literal correlation checks at every inner node.  The
    pairs are certified in batches of ``CHUNK // (3 * m)`` in census order
    (see the module docstring); within a batch each distinct sub-pair is
    decomposed, checked and correlated once, so the batch size also sets
    how often one is met again in another batch; with ``workers > 1`` the
    batches run on a process pool and their witnesses are merged.  A standard pair missing from the census would mean the
    sweep itself is broken and raises :class:`VerificationError`.  For odd
    q the standard construction is empty in positive dimension, so every
    censused pair is a witness; in dimension 0 all pairs are degenerate and
    counted as standard.  One DEBUG record on the ``golaypairs`` logger
    gives the stage timings, the correlation rows per dimension (one per
    inner node of each certificate), the distinct sub-pairs decomposed, the
    sub-certificate walks reused (the inner sub-certificates met again, each
    of which is checked once per batch), and the peak RSS.
    """
    t0 = time.perf_counter()
    gaps = enumerate_all_gaps(q, m, budget=budget, workers=workers)
    total = q ** (1 << m)
    gap_keys = {(f.entries, g.entries) for f, g in gaps}
    std_s = walk_s = corr_s = 0.0
    certified = decomposed = reused = 0
    rows: Counter[int] = Counter()
    if q % 2 == 0:
        t_std = time.perf_counter()
        std_keys = {(f.entries, g.entries) for f, g in enumerate_standard(q, m)}
        std_s = time.perf_counter() - t_std
        missing = std_keys - gap_keys
        if missing:
            raise VerificationError(
                f"{len(missing)} standard pairs missed by the census sweep"
            )  # pragma: no cover - internal guard
        witness_keys = gap_keys - std_keys
        size = CHUNK // max(3 * m, 1)
        tasks = [(q, m, gaps[a : a + size]) for a in range(0, len(gaps), size)]
        results = _run(_certify, tasks, workers)
        for (_, _, batch), (failed, counts, shared, walk, corr) in zip(tasks, results):
            witness_keys.update(
                (batch[i][0].entries, batch[i][1].entries) for i in failed
            )
            rows.update(counts)
            decomposed += shared[0]
            reused += shared[1]
            walk_s += walk
            corr_s += corr
        standard_count = len(std_keys)
        certified = len(gaps)
    elif m == 0:
        witness_keys = set()
        standard_count = len(gap_keys)
    else:
        witness_keys = set(gap_keys)
        standard_count = 0
    witnesses = tuple(sorted(witness_keys))
    if _log.isEnabledFor(logging.DEBUG):
        import resource  # POSIX only, so imported only for this record

        _log.debug(
            "verify_theorem q=%d m=%d: %d pairs certified, correlation rows"
            " per dimension %s, %d distinct sub-pairs decomposed, %d"
            " sub-certificate walks reused; standard sweep %.3f s,"
            " decomposition and certificate walks %.3f s, batched correlation"
            " %.3f s (summed over batches); peak RSS %.1f MB (this process,"
            " so far)",
            q, m, certified, dict(sorted(rows.items())), decomposed, reused,
            std_s, walk_s, corr_s,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
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
