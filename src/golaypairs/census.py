"""Exhaustive census of complementary pairs over small array spaces.

Every array is fingerprinted by the exact coordinates, in the kernel's CRT
basis, of its autocorrelation at the kept half of the nonzero shifts (the
other half is determined by conjugate symmetry).  Two arrays form a
complementary pair exactly when their fingerprints are negatives of each
other.  Fingerprints are built by the correlation kernel of
:mod:`golaypairs.qarray` that :func:`~golaypairs.qarray.is_gap` runs on,
with one row group per array, and the sweep reads the kernel's shift plan
and CRT basis to hash them without building them.

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

The join is a sorted search on a linear hash, checked row by row, and it
holds hashes, not rows.  A coordinate is a +- sum of disjoint histogram
entries, so it is at most 2^m in absolute value, and a fingerprint row is
built in the narrowest signed dtype holding that bound (int8 for every
space with m >= 2 inside ``DEFAULT_BUDGET``), where negation cannot
overflow.  A row's hash is its dot product with fixed odd int64 weights,
wrapping; the hash is linear, so the negated row hashes to the negated
hash.  It is also linear in the histogram, so it is a sum of one table
entry per overlap pair, indexed by the pair's entry difference
(:func:`_hash_table`).  The sweep splits that sum at the cube's last
coordinate (:func:`_split`): representative hi * n_lo + lo has the digits
of lo on the lower half of the cells and the digits of hi on the upper
half, so its hash is one entry of a table of hi plus, per upper cell, one
entry of a (q, n_lo) table at that cell's entry and lo.  A block of whole
hi rows is one broadcast copy and one row gather and add per upper cell,
four at m = 3, with no histogram and no row.  The hashes are argsorted
once and walked in chunks; each chunk's negated hashes are probed with
``searchsorted``, the candidates' rows are rebuilt from their
representatives, and a candidate is kept only if its rows are negatives of
each other, so exactness never rests on the hash.  For the DEBUG record
only, distinct fingerprints are counted as the runs of equal hashes,
corrected inside any run whose rebuilt rows differ.  The join holds three
int64s per representative (hash, sort index, sorted hash), 24 bytes: 48 MiB
at (8,3), where its 2^21 rows would add 104 MiB.  A space whose estimate
(:func:`_join_bytes`, which still charges the rows) is over ``_MAX_BYTES``
is refused with :class:`BudgetExceededError` before any work.  The expanded
pair list is held to the same cap: after the join, the matched
representatives bound the number of pairs, and a census whose pairs would
take more than ``_MAX_BYTES`` at ``_PAIR_BYTES`` each is refused before
they are built.

The split's tables hold (2^(m-1) + 1) q n_lo int64 for q n_lo^2
representatives, n_lo = q^(2^(m-1) - 1): 160 KiB at (8,3), 810 KiB at
(12,3).  Hashes are computed in blocks of whole hi rows, at most ``CHUNK``
representatives unless one hi row has more, so a block's temporaries are
one scratch int64 per representative, and no array holds one key per
representative and cell or overlap pair.  Rows are rebuilt by the
correlation kernel in calls of at most ``_KEYS`` such keys and
``qarray._BINS`` histogram bins.  With ``workers > 1`` the hi rows are cut
into one span of whole blocks per worker process, so each is sent the
tables once and sends back only its hashes, and the spans are joined in
order, so reports are byte-for-byte identical for every worker count.
Each call logs one DEBUG record with its counters and stage timings on
the ``golaypairs`` logger, which is silent by default.

:func:`verify_theorem` then certifies one pair per constant class of an
even-q space.  The shift rule: if (f, g) is the standard pair of
(pi, c, c0, c'), then (f + a, g + b) is the standard pair of
(pi, c, c0 + a, c' + b - a) (Davis and Jedwab, IEEE Trans. IT 45, 1999;
Paterson, IEEE Trans. IT 46, 2000).  Proof: (f, g) is the base pair (f0, g0)
of (pi, c, 0, 0) plus (c0, c0 + c'), so (f + a, g + b) is (f0, g0) plus
(c0 + a, (c0 + a) + (c' + b - a)).  So a certificate of the class
representative (f - f(0), g - g(0)) proves every member of its class
standard, and the join's matched representative pairs, one per ordered
class, are decomposed and certified at ``max_corr_dim = m`` with the stacked
certifier of :mod:`golaypairs.certify`, in batches of ``CHUNK // (3 * m)``
pairs: 455 at m = 3, so the 384 representatives at (4,3) are one batch,
which decomposes 148 distinct sub-pairs, one set of numpy stacks per node
shape.  If any representative fails, every censused pair is certified in
the same batches, and that run's failures are the witnesses, so a failing
census names the pairs that fail their own certificates.  The batches run
in census order, on a process pool when ``workers > 1``, and their
witnesses are merged into one sorted set, so reports are again identical
for every worker count.
"""

from __future__ import annotations

import logging
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .cyclotomic import _integers, get_context
from .certify import _certify
from .errors import BudgetExceededError, OddModulusError, VerificationError
from .qarray import _BINS, QaryArray, _coords, _crt_adjoint, _cube_plan, _trusted, is_gap
from .standard import StandardParams, construct_standard

DEFAULT_BUDGET = 20_000_000
# Representatives per sweep block, unless one hi row of the split has more,
# and per probe of the join.  A sweep block holds one scratch int64 per
# representative.  In fresh processes on a 2-core Xeon (2 MiB L2 per core),
# blocks of at most 1,024, 2,048, 4,096, 8,192 and 16,384 took 22-27, 14-15,
# 12-24, 10-15 and 10-12 ms for the (8,3) sweep, and `census 5 3` ops took
# 7.3-7.4, 5.6-5.8, 5.1-5.5, 4.7-6.7 and 4.5-5.6 ms (median of 15 in one
# process, three rounds).  Past 4,096 the gain is within the host's drift,
# and the constant also sets the certification batches (CHUNK // (3 m)).
CHUNK = 4096
# Refuse a join or a pair list whose estimate passes 1 GiB; the (8,3) join
# holds 48 MiB of hashes and sort index.
_MAX_BYTES = 1 << 30
# Most (representative, overlap pair) keys in one kernel call that rebuilds
# fingerprint rows: the call holds two int64 arrays of that many keys, 512 KiB
# each, which keeps the rows that the join rebuilds at (2,4), 120 overlap
# pairs per representative, inside the join's estimate (_join_bytes).
_KEYS = 1 << 16
# Peak memory of `census` per censused pair over its 32 MB baseline: 1.16 KB
# at (64,1) and (512,0), with about 131,000 pairs each, on Python 3.11.
_PAIR_BYTES = 1200

_log = logging.getLogger("golaypairs")


def _row_layout(q: int, m: int) -> tuple[int, np.dtype]:
    """Columns and dtype of one fingerprint row.

    A row has phi(q) coordinates per half shift; at m = 0 it is padded to
    one zero column so it is never empty.  The dtype is the
    narrowest signed one holding -2^m - 1, so it holds the coordinates'
    bound +-2^m, and negating a row cannot overflow.
    """
    width = max(get_context(q).degree * ((3**m - 1) // 2), 1)
    return width, np.min_scalar_type(-(1 << m) - 1)


def _digits(q: int, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, its rows filled with the base-q digits of ``values``,
    lowest first."""
    for row in out:
        values, row[...] = np.divmod(values, q)
    return out


def _entries(q: int, m: int, reps) -> np.ndarray:
    """Entries of representatives ``reps``, one int64 row each: 0, then
    the base-q digits of the representative, lowest first.  The rows are a
    view of one C-ordered (cells, reps) array."""
    reps = np.asarray(reps, dtype=np.int64)
    out = np.zeros((1 << m, len(reps)), dtype=np.int64)
    _digits(q, reps, out[1:])
    return out.T


def _weights(width: int) -> np.ndarray:
    """Fixed odd int64 weights of the row hash: splitmix64 of 1 .. width."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> 30) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> 27) * np.uint64(0x94D049BB133111EB)
    return (z ^ z >> 31 | 1).view(np.int64)


def _hash_table(q: int, m: int) -> np.ndarray:
    """The row hash per overlap pair and entry difference: entry (p, d) is
    what pair p of the cube plan adds to the hash of a row whose entries at
    that pair differ by d mod q.

    The hash is linear in the histogram, so a histogram bin adds its CRT
    coordinates dotted with their weights: the weights taken back through
    the transpose of the CRT reduction (``qarray._crt_adjoint``), which
    wraps in int64 as the row hash does, so a sum of table entries is the
    row hash bit for bit.
    """
    plan = _cube_plan(m)
    shifts = len(plan.order)
    ctx = get_context(q)
    weights = _weights(ctx.degree * shifts).reshape(ctx.degree, shifts)
    return _crt_adjoint(weights, q).T[plan.shift][:, ctx.order]


def _pair_sums(table: np.ndarray, later, earlier, entries: np.ndarray) -> np.ndarray:
    """Per column of ``entries`` (one row per cell), the sum over pairs p of
    ``table[p]`` at the entry difference of cells ``later[p]`` and
    ``earlier[p]``, wrapped mod q."""
    sums = np.zeros(entries.shape[1], dtype=np.int64)
    diff = np.empty_like(sums)
    for row, i, j in zip(table, later, earlier):
        np.subtract(entries[i], entries[j], out=diff)
        row.take(diff, out=diff, mode="wrap")
        sums += diff
    return sums


class _Split(NamedTuple):
    """The row hash split at a cell ``half``: the cells below it hold 0,
    then the base-q digits of lo, and the cells from it on the digits of
    hi, for representative hi * n_lo + lo.  Its hash is ``high[hi]`` plus
    ``cross[u, e, lo]`` over the upper cells u, e being the entry of u
    (digit u of hi)."""

    high: np.ndarray  # the pairs within the upper cells, per hi
    cross: np.ndarray  # (upper cells, q, n_lo): the pairs across, per upper cell
    # and entry; the first also holds the pairs within the lower cells


def _split(q: int, later, earlier, table: np.ndarray, cells: int) -> _Split:
    """The :class:`_Split` of the hash whose pair p adds ``table[p]`` at the
    entry difference of cells ``later[p]`` and ``earlier[p]`` of ``cells``,
    split at half the cells (at cell 1 if there is one cell, which has no
    pairs).  Every pair lies in the lower cells, in the upper ones or
    across, so the parts sum to the hash, wrapping in int64 as it does."""
    half = max(cells // 2, 1)
    n_lo, n_hi = q ** (half - 1), q ** (cells - half)
    lower = np.zeros((half, n_lo), dtype=np.int64)
    _digits(q, np.arange(n_lo), lower[1:])
    upper = _digits(q, np.arange(n_hi), np.empty((cells - half, n_hi), dtype=np.int64))
    side = (later >= half).astype(np.int8) + (earlier >= half)  # upper cells per pair
    below, above, across = side == 0, side == 2, side == 1
    cross = np.zeros((cells - half, q, n_lo), dtype=np.int64)
    cross[:1] += _pair_sums(table[below], later[below], earlier[below], lower)
    value = np.arange(q)[:, None]
    for row, i, j in zip(table[across], later[across], earlier[across]):
        if i >= half:
            cross[i - half] += row.take(value - lower[j], mode="wrap")
        else:
            cross[j - half] += row.take(lower[i] - value, mode="wrap")
    high = _pair_sums(table[above], later[above] - half, earlier[above] - half, upper)
    return _Split(high, cross)


def _block_hashes(split: _Split, start: int, digits: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, shape (hi rows, n_lo), with the hashes of hi rows
    ``start`` on, whose upper entries are the columns of ``digits``: one
    broadcast copy, then one row gather and add per upper cell, through one
    scratch array of ``out``'s size."""
    out[...] = split.high[start : start + len(out), None]
    scratch = np.empty_like(out)
    for table, entry in zip(split.cross, digits):
        table.take(entry, axis=0, out=scratch, mode="clip")
        out += scratch


def _split_hashes(split: _Split, start: int, stop: int) -> np.ndarray:
    """Row hashes of hi rows start .. stop-1, the representatives
    start * n_lo .. stop * n_lo - 1 in order, in blocks of whole hi rows,
    as many as hold at most ``CHUNK`` representatives, and at least one."""
    upper, q, n_lo = split.cross.shape
    digits = np.empty((upper, stop - start), dtype=np.int64)
    _digits(q, np.arange(start, stop), digits)
    hashes = np.empty((stop - start, n_lo), dtype=np.int64)
    rows = max(1, CHUNK // n_lo)
    for a in range(0, stop - start, rows):
        _block_hashes(split, start + a, digits[:, a : a + rows], hashes[a : a + rows])
    return hashes.ravel()


def _sweep(q: int, m: int, reps: int, workers: int) -> np.ndarray:
    """Row hashes of every representative, in order, from the
    :func:`_split` of :func:`_hash_table` at the cube's last coordinate.
    The hi rows are cut into one span of whole blocks per worker process,
    so each process is sent the split's tables once."""
    plan = _cube_plan(m)
    split = _split(q, plan.later, plan.earlier, _hash_table(q, m), 1 << m)
    n_lo = split.cross.shape[2]
    n_hi = reps // n_lo
    rows = max(1, CHUNK // n_lo)
    blocks = -(-n_hi // rows)
    parts = _pool_size(workers, blocks)
    cuts = [min(rows * (blocks * k // parts), n_hi) for k in range(parts + 1)]
    tasks = [(split, a, b) for a, b in zip(cuts, cuts[1:])]
    hashes = list(_run(_split_hashes, tasks, workers))
    return hashes[0] if len(hashes) == 1 else np.concatenate(hashes)


def _rows(q: int, m: int, reps: np.ndarray) -> np.ndarray:
    """Fingerprint rows of representatives ``reps``, one row each in the
    layout of :func:`_row_layout`, built through ``qarray._coords`` in
    calls of at most ``_KEYS`` keys and ``_BINS`` histogram bins (one
    representative if it alone has more); each is checked against the
    coordinates' bound."""
    plan = _cube_plan(m)
    shifts = len(plan.order)
    width, dtype = _row_layout(q, m)
    rows = np.zeros((len(reps), width), dtype=dtype)
    size = max(1, min(_KEYS // max(len(plan.later), 1), _BINS // (q * max(shifts, 1))))
    for a in range(0, len(reps), size):
        sig = _coords(plan, _entries(q, m, reps[a : a + size])[:, None], q, 0, shifts)
        if max(int(sig.max(initial=0)), -int(sig.min(initial=0))) > np.iinfo(dtype).max:
            raise VerificationError(
                "fingerprint coordinate outside its proven bound"
            )  # pragma: no cover - internal guard
        sig = sig.reshape(len(sig), -1)
        rows[a : a + len(sig), : sig.shape[1]] = sig
    return rows


def _matches(
    q: int, m: int, order: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Representative pairs (r, s) with fp(s) = -fp(r), and the number of
    hash candidates.

    ``keys`` are the row hashes in ascending order and ``order`` their
    representatives.  Each chunk of negated keys is probed for its run of
    equal keys, and a candidate is kept only if its rows, rebuilt by
    :func:`_rows`, negate each other.
    """
    f_parts, g_parts, candidates = [], [], 0
    for start in range(0, len(keys), CHUNK):
        probe = -keys[start : start + CHUNK]
        lo = np.searchsorted(keys, probe)
        hit = np.flatnonzero(keys[np.minimum(lo, len(keys) - 1)] == probe)
        lo = lo[hit]
        c = np.searchsorted(keys, probe[hit], "right") - lo
        f = order[np.repeat(start + hit, c)]
        g = order[np.repeat(lo - (np.cumsum(c) - c), c) + np.arange(c.sum())]
        f_rows = np.repeat(_rows(q, m, order[start + hit]), c, axis=0)
        negates = (f_rows == -_rows(q, m, g)).all(axis=1)
        candidates += len(f)
        f_parts.append(f[negates])
        g_parts.append(g[negates])
    return np.concatenate(f_parts), np.concatenate(g_parts), candidates


def _distinct(q: int, m: int, order: np.ndarray, keys: np.ndarray) -> int:
    """The number of distinct rows, ``keys`` and ``order`` as for
    :func:`_matches`: the runs of equal keys, plus the extra distinct rows
    of any run in which a row differs from the run's first.  Only the rows
    of runs of two or more are rebuilt, a chunk of at least ``CHUNK`` keys
    at a time, cut at the end of a run."""
    distinct = start = 0
    while start < len(keys):
        stop = int(np.searchsorted(keys, keys[min(start + CHUNK, len(keys)) - 1], "right"))
        chunk = keys[start:stop]
        first = np.flatnonzero(np.concatenate(([True], chunk[1:] != chunk[:-1])))
        size = np.diff(first, append=len(chunk))
        multi = size[size > 1]
        lead = np.repeat(np.cumsum(multi) - multi, multi)  # each row's run's first
        rows = _rows(q, m, order[start:stop][np.repeat(size > 1, size)])
        mixed = np.unique(lead[(rows != rows[lead]).any(axis=1)])
        ends = np.searchsorted(lead, mixed, "right")
        distinct += len(first) + sum(
            len(np.unique(rows[a:b], axis=0)) - 1 for a, b in zip(mixed, ends)
        )
        start = stop
    return distinct


def _join_bytes(reps: int, row: int) -> int:
    """Join estimate for ``reps`` rows of ``row`` bytes: the documented
    refusals' 2 * row + 8 bytes per representative, or, for rows under 16
    bytes (at most 216 representatives, at (6,2)), row + 24 bytes, whichever
    is larger.  The join holds 24 bytes per representative and rebuilds rows
    only for its candidates, so this overstates it; it is kept as it is
    because it decides which spaces are refused."""
    return reps * max(row + 24, 2 * row + 8)


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
    negative budget or a q or m that is not an integer.
    """
    return _gap_classes(q, m, budget=budget, workers=workers)[0]


def _gap_classes(
    q: int, m: int, *, budget: int, workers: int
) -> tuple[list[tuple[QaryArray, QaryArray]], np.ndarray]:
    """The pairs of :func:`enumerate_all_gaps`, and the ids of the matched
    representative pairs (r, s), r(0) = s(0) = 0, one row each in census
    order: one pair per ordered class {(r + a, s + b)}, so both (r, s) and
    (s, r) for r != s."""
    q, m = _integers((q, m))
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
    join_bytes = _join_bytes(reps, width * dtype.itemsize)
    if join_bytes > _MAX_BYTES:
        raise BudgetExceededError(
            f"the census join at q={q}, m={m} would need about {join_bytes >> 20} MiB,"
            f" over the memory budget of {_MAX_BYTES >> 20} MiB"
        )

    t0 = time.perf_counter()
    hashes = _sweep(q, m, reps, workers)
    t1 = time.perf_counter()
    order = np.argsort(hashes)
    keys = hashes[order]
    del hashes
    f_reps, g_reps, candidates = _matches(q, m, order, keys)
    t2 = time.perf_counter()
    # counted only for the DEBUG record, and timed in no stage
    distinct = _distinct(q, m, order, keys) if _log.isEnabledFor(logging.DEBUG) else 0
    del order, keys
    t3 = time.perf_counter()
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
        " %d hash candidates, %d rejected by the row check,"
        " %d matched representative pairs, %d pairs re-verified;"
        " sweep %.3f s, join %.3f s, expansion %.3f s",
        q, m, reps, distinct, candidates, candidates - len(f_reps), len(f_reps), len(pairs),
        t1 - t0, t2 - t1, time.perf_counter() - t3,
    )
    return pairs, np.stack((f_reps, g_reps), axis=1)[np.lexsort((g_reps, f_reps))]


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
    q, m = _integers((q, m))
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
    each constant class of census pairs {(r + a, s + b)} is decomposed and
    certified through its representative (r, s), r(0) = s(0) = 0, with
    literal correlation checks at every inner node; the shift rule of the
    module docstring carries that certificate to the class's other members.
    The representatives are certified in batches of ``CHUNK // (3 * m)`` in
    census order; within a batch each distinct sub-pair is decomposed,
    checked and correlated once, so the batch size also sets how often one
    is met again in another batch; with ``workers > 1`` the batches run on
    a process pool and their witnesses are merged.  If any representative
    fails, every census pair is certified the same way, and the pairs that
    fail then are the witnesses.  A standard pair missing from the census
    would mean the sweep itself is broken and raises
    :class:`VerificationError`.  For odd q the standard construction is
    empty in positive dimension, so every censused pair is a witness; in
    dimension 0 all pairs are degenerate and counted as standard.  One DEBUG
    record on the ``golaypairs`` logger gives the census pairs, the class
    representatives certified, the correlation rows per dimension (one per
    inner node of each certificate), the distinct sub-pairs decomposed, the
    sub-certificate walks reused (the inner sub-certificates met again, each
    of which is checked once per batch), the pairs certified after a
    representative failed, summed over both runs when one did, the stage
    timings and the peak RSS.
    """
    t0 = time.perf_counter()
    q, m = _integers((q, m))
    gaps, matches = _gap_classes(q, m, budget=budget, workers=workers)
    total = q ** (1 << m)
    gap_keys = {(f.entries, g.entries) for f, g in gaps}
    std_s = walk_s = corr_s = 0.0
    certified = recertified = decomposed = reused = 0
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
        standard_count = len(std_keys)
        del std_keys  # so the certification reuses its memory
        entries = _entries(q, m, matches.ravel()).reshape(len(matches), 2, -1).tolist()
        reps = [tuple(_trusted(QaryArray, q, m, tuple(e)) for e in pair) for pair in entries]
        size = CHUNK // max(3 * m, 1)
        # every census pair only if some representative fails
        for pairs in (reps, gaps):
            tasks = [(q, m, pairs[a : a + size]) for a in range(0, len(pairs), size)]
            failed = set()
            results = _run(_certify, tasks, workers)
            for (_, _, batch), (failures, counts, shared, walk, corr) in zip(tasks, results):
                failed.update((batch[i][0].entries, batch[i][1].entries) for i in failures)
                rows.update(counts)
                decomposed += shared[0]
                reused += shared[1]
                walk_s += walk
                corr_s += corr
            if not failed:
                break
            recertified = len(gaps)
        witness_keys.update(failed)
        certified = len(reps)
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
            "verify_theorem q=%d m=%d: %d pairs, %d class representatives"
            " certified, correlation rows per dimension %s, %d distinct"
            " sub-pairs decomposed, %d sub-certificate walks reused, %d pairs"
            " certified after a representative failed; standard sweep %.3f s,"
            " decomposition and certificate walks %.3f s, batched correlation"
            " %.3f s (summed over batches); peak RSS %.1f MB (this process,"
            " so far)",
            q, m, len(gap_keys), certified, dict(sorted(rows.items())), decomposed,
            reused, recertified, std_s, walk_s, corr_s,
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
