"""q-ary arrays of size 2 x ... x 2 and their exact aperiodic autocorrelation.

An array of dimension m assigns a value in Z_q to every vertex of the m-cube.
Cell (x_1, ..., x_m) with x_k in {0, 1} is stored at index
t = sum(2**(k-1) * x_k), so coordinate 1 is the least significant bit.  A
dimension-0 array is a single constant and is a first-class citizen: every
operation below degenerates correctly to it.

Shift vectors are plain tuples with entries in {-1, 0, 1}; anything outside
that alphabet is rejected rather than treated as a zero-contribution shift.
Autocorrelation values are exact elements of Z[zeta_q] (see
:mod:`golaypairs.cyclotomic`).

Every correlation here, and the census sweep, runs on one numpy kernel
driven by a shift plan that is cached per dimension (per length for
sequences, the last two only).  The plan lists the overlapping cell pairs
of every kept half shift, grouped by shift, in the smallest unsigned
dtypes; plans over ``_MAX_PLAN_BYTES`` are refused with ``BudgetExceededError``.  The kernel
takes rows grouped as (groups, rows per group, cells) and, for a range of
plan shifts, gathers the entry differences with the later cell offset by
q, so every difference lies in 1 .. 2q-1.  One gather through a cached
2q-entry table turns a difference into its residue times the number of
shifts, so no key is ever reduced mod q, and one bincount counts the keys
into one histogram of root-of-unity multiplicities per group and shift.  A
correlation is one group of one or two rows; the census passes one group
per array.  The plan cuts its batches into runs of whole shifts of at most
``_SLICE`` (shift, cell) combinations, and the correlations pass one batch
per kernel call, so a call's temporaries hold at most
groups * rows * ``_SLICE`` keys (more only for a single longer shift): for
a pair, about 1 MiB each, which stays in cache.

Verdicts read exact coordinates in the CRT basis.  For the distinct
primes p_1, ..., p_k of q, r their product and q = r * s,
Phi_q(x) = Phi_r(x**s), and Z[zeta_r] is the tensor product of the
Z[zeta_p_i], with zeta_r**a the product of omega_i**(a mod p_i) (Lam and
Leung, J. Algebra 224, 2000; Lyubashevsky, Peikert and Regev, Eurocrypt
2013).  So the kernel counts the histograms in the context's ``order``,
reshapes them to (groups, p_1, ..., p_k, s * shifts) and, along each
prime's axis, subtracts the last slice from the rest and drops it:
omega**(p-1) = -(1 + ... + omega**(p-2)).  For a prime power that is the
power basis.  A coordinate is a +- sum of at most 2**k disjoint histogram
entries, so it is exact in int64, and the basis change is a fixed
bijection, so it vanishes exactly when the power-basis remainder does.

Complementarity verdicts come from one kernel, :func:`_gaps`, which takes
a stack of pairs and returns one verdict per pair; :func:`is_gap` and
:func:`is_gcp` pass a stack of one, and the census and certificate checks
pass one stack per dimension; a kernel call counts at most ``_BINS``
histogram bins.  The cube plan lists first the 2**(m-1) full-support
shifts, each of which overlaps in one antipodal pair of cells.  From m = 6
on they are a batch of their own, and the batches after it hold the rest.
Only the pairs that cancel on one batch are correlated on the next, so a
pair with one cell changed fails after 2**(m-1) pair lookups, while a true
pair pays for all (4**m - 2**m) / 2 of them.  Below m = 6 a kernel call is
mostly fixed cost, so the whole plan is one batch: one call decides a pair.

Validation happens at the boundary: public constructors and every
``from_json_dict`` check their input (those of ``DecompositionCertificate``
and ``GcdSplit`` check types and presence only).  Internal code builds a
value unchecked through :func:`_trusted` only when its q and m come from
validated objects and every entry is copied from one or reduced mod that q;
a certificate's other fields must be ints or values so built.  For a
:class:`~golaypairs.genfun.GenFun` the entries are its coefficients, which
must be built in the context of that q and vanish outside its support,
itself a frozenset of ints.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .cyclotomic import CycElement, _integers, get_context
from .errors import BudgetExceededError

# A cube plan build peaks at about 26 bytes per (shift, overlap cell)
# combination at m = 11; 32 bytes each bounds it, so m <= 11 is admitted.
_MAX_PLAN_BYTES = 1 << 28

# Most (shift, overlap cell) combinations in one plan batch unless the batch
# is a single shift.  Timed on one true pair at m = 8, 9, 10 and q = 2, 10
# (2-core Xeon, 2 MiB L2 per core): 2**14 to 2**16 ran within 3% of each
# other and 2**17, 2**18 up to 9% slower.  2**16 makes the fewest kernel
# calls of the fast sizes: nine batches at m = 10, none cut up to m = 8.
_SLICE = 1 << 16

# Most histogram bins, groups * q * shifts, in one kernel call of _gaps
# unless it is one shift: 2 MiB of int64 counts, one core's L2.  Timed on
# one true pair at m = 10 on the host above: at q = 4096, 2**16 to 2**18
# took 0.07 to 0.09 s, 2**20 0.12 s and no cut 0.21 s at 356 MB peak RSS
# (52 MB with the cut); at q = 4094, 2**18 was the fastest at 0.16 s.  A
# plan batch holds at most 6,315 shifts up to m = 11, so a single pair is
# cut only for q > 41.
_BINS = 1 << 18

# Least m at which the cube plan's full-support shell is a batch of its own.
# One _coords call on one pair at q = 4, best of 5 timeit runs on the host
# above, over the shell only against the whole plan: 7.6 against 8.0 us at
# m = 3 (28 overlap pairs), 7.7 against 13.0 us at m = 5 (496), 8.4 against
# 26.3 us at m = 6 (2,016) and 9.5 against 655 us at m = 8 (32,640).  Below
# m = 6 a call is mostly fixed cost: a separate shell batch would nearly
# double what a true pair pays and save a non-pair at most 5 us.
_SHELL_BATCH = 6


def _json_int(value) -> int:
    """``value`` if it is a JSON integer; floats, bools and strings raise."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _dims(q, m) -> tuple[int, int]:
    """q and m as ints, q positive and m nonnegative, else ``ValueError``."""
    q, m = _integers((q, m))
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return q, m


def _trusted(cls, *values):
    """``cls(*values)`` without ``__post_init__``; the module docstring says when.

    The values fill ``cls.__match_args__``, the positional field names that
    the dataclass decorator fixes once per class.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    return obj


@dataclass(frozen=True)
class QaryArray:
    """Immutable q-ary array over the m-dimensional binary cube."""

    q: int
    m: int
    entries: tuple[int, ...]

    def __post_init__(self):
        q, m = _dims(self.q, self.m)
        entries = _integers(self.entries)
        if len(entries) != 1 << min(m, 63):  # no tuple holds 2**63 entries
            count = 1 << m if m < 63 else f"2**{m}"
            raise ValueError(f"expected {count} entries for m={m}, got {len(entries)}")
        if min(entries) < 0 or max(entries) >= q:
            raise ValueError(f"entries must lie in [0, {q})")
        self.__dict__.update(q=q, m=m, entries=entries)

    @classmethod
    def constant(cls, q: int, value: int, m: int = 0) -> "QaryArray":
        q, m = _dims(q, m)
        return cls(q, m, ((value % q),) * (1 << m))

    @classmethod
    def from_function(cls, q: int, m: int, fn) -> "QaryArray":
        """Tabulate ``fn(bits)`` over all m-bit points; values reduced mod q."""
        q, m = _dims(q, m)
        ent = []
        for t in range(1 << m):
            bits = tuple((t >> k) & 1 for k in range(m))
            ent.append(fn(bits) % q)
        return cls(q, m, tuple(ent))

    def value(self, x: Sequence[int]) -> int:
        if len(x) != self.m:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.m}")
        t = 0
        for k, bit in enumerate(x):
            if bit not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            t |= bit << k
        return self.entries[t]

    def reverse(self) -> "QaryArray":
        """The array evaluated at the complemented point (1-x_1, ..., 1-x_m).

        Complementing every coordinate maps index t to 2**m - 1 - t, so this
        is exactly the entry tuple reversed.
        """
        return _trusted(QaryArray, self.q, self.m, self.entries[::-1])

    def project_sequence(self) -> tuple[int, ...]:
        """Read the array out as a length-2**m sequence.

        Under the index convention above, projection onto one axis is the
        identity on storage.  The boundary still exists as an explicit,
        documented operation so callers never rely on the layout silently.
        """
        return self.entries

    def __add__(self, other: object) -> "QaryArray":
        q = self.q
        if isinstance(other, int):
            entries = tuple((v + other) % q for v in self.entries)
        elif isinstance(other, QaryArray):
            if other.q != q or other.m != self.m:
                raise ValueError("shape or modulus mismatch")
            entries = tuple((a + b) % q for a, b in zip(self.entries, other.entries))
        else:
            return NotImplemented
        return _trusted(QaryArray, q, self.m, entries)

    __radd__ = __add__

    def __neg__(self) -> "QaryArray":
        q = self.q
        return _trusted(QaryArray, q, self.m, tuple((-v) % q for v in self.entries))

    def __sub__(self, other: object) -> "QaryArray":
        if isinstance(other, (int, QaryArray)):
            return self + (-other)
        return NotImplemented

    def to_json_dict(self) -> dict:
        return {"q": self.q, "m": self.m, "entries": list(self.entries)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QaryArray":
        try:
            q = _json_int(data["q"])
            m = _json_int(data["m"])
            entries = tuple(_json_int(v) for v in data["entries"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed array object: {exc}") from exc
        return cls(q, m, entries)


def _validate_shift(m: int, tau: Sequence[int]) -> tuple[int, ...]:
    tau = tuple(tau)
    if len(tau) != m:
        raise ValueError(f"shift has {len(tau)} coordinates, expected {m}")
    if any(t not in (-1, 0, 1) for t in tau):
        raise ValueError(f"shift entries must be -1, 0, or 1, got {tau}")
    return tau


def all_shifts(m: int) -> Iterable[tuple[int, ...]]:
    """All 3**m shift vectors, in deterministic lexicographic order."""
    return product((-1, 0, 1), repeat=_integers((m,))[0])


@lru_cache(maxsize=None, typed=True)  # typed, so a float m is checked, not found
def half_shifts(m: int) -> tuple[tuple[int, ...], ...]:
    """One representative from each {tau, -tau} pair of nonzero shifts.

    The kept representative is the one whose first nonzero coordinate is +1.
    Conjugate symmetry of the autocorrelation makes this half sufficient for
    complementarity tests.  In lexicographic order these are exactly the
    shifts after the zero shift, so ``half_shifts(m)[h]`` is shift number
    ``(3**m + 1) // 2 + h`` of :func:`all_shifts` and its negative is shift
    number ``(3**m - 3) // 2 - h``.
    """
    return tuple(all_shifts(m))[(3**m + 1) // 2 :]


class _ShiftPlan(NamedTuple):
    """Overlap pairs of a list of shifts, grouped by shift.

    Pair p joins cell ``later[p]`` with cell ``earlier[p]``, where
    ``later[p] = earlier[p] + tau`` for the shift tau of plan shift
    ``shift[p]``.  Plan shift s owns pairs ``starts[s]`` to
    ``starts[s + 1] - 1`` and is entry ``order[s]`` of the caller's shift
    list.  ``batches`` are the ranges of plan shifts that a complementarity
    test checks one after another; they are contiguous, cover every plan
    shift, and each holds at most ``_SLICE`` pairs unless it is one shift.
    All arrays are read-only.
    """

    later: np.ndarray
    earlier: np.ndarray
    shift: np.ndarray
    starts: np.ndarray
    order: np.ndarray
    batches: tuple[tuple[int, int], ...]


def _make_plan(later, earlier, shift, counts, order, batches, cells) -> _ShiftPlan:
    """Freeze a plan, storing indices in the smallest unsigned dtypes.

    Each of ``batches`` is cut, in order, into runs of whole shifts of at
    most ``_SLICE`` pairs; a shift with more pairs is a run of its own.
    """
    cell_dtype = np.min_scalar_type(max(cells - 1, 0))
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    arrays = (
        later.astype(cell_dtype),
        earlier.astype(cell_dtype),
        shift.astype(np.min_scalar_type(max(len(counts) - 1, 0))),
        starts,
        order.astype(np.intp),
    )
    for arr in arrays:
        arr.flags.writeable = False
    runs = []
    for lo, hi in batches:
        while lo < hi:
            end = min(max(bisect_right(starts, starts[lo] + _SLICE) - 1, lo + 1), hi)
            runs.append((lo, end))
            lo = end
    return _ShiftPlan(*arrays, tuple(runs))


@lru_cache(maxsize=None)
def _cube_plan(m: int) -> _ShiftPlan:
    """Plan of ``half_shifts(m)``: the full-support shell first, then the rest.

    Every (shift, overlap cell) combination is a base-4 number whose digit
    at coordinate k, 0 to 3, means (tau_k, x_k) = (-1, 1), (0, 0), (0, 1),
    (1, 0); coordinate 1 is the top digit, so the shift's position in
    :func:`all_shifts` follows from the digits.  A stable sort groups the
    combinations by plan shift.  A shift in {-1, 1}**m overlaps in one
    antipodal pair, and those 2**(m-1) shifts come first.  From m =
    ``_SHELL_BATCH`` on they form the first batch, so a broken antipodal pair
    is found almost for free, and the rest follow in slices of at most
    ``_SLICE`` combinations: one slice up to m = 8, eight at m = 10.  Below
    it the whole plan is one batch, in the same order.
    """
    if 32 * 4**m > _MAX_PLAN_BYTES:
        raise BudgetExceededError(
            f"the correlation plan at m={m} would exceed {_MAX_PLAN_BYTES >> 20} MiB"
        )
    cell = np.min_scalar_type((1 << m) - 1)
    position = np.min_scalar_type(3**m - 1)
    later = earlier = np.zeros(1, dtype=cell)
    index = np.zeros(1, dtype=position)
    for k in range(m):
        bit = 1 << k
        later = (later[:, None] + np.array([0, 0, bit, bit], dtype=cell)).ravel()
        earlier = (earlier[:, None] + np.array([bit, 0, bit, 0], dtype=cell)).ravel()
        index = (index[:, None] * 3 + np.array([0, 1, 1, 2], dtype=position)).ravel()
    zero = (3**m - 1) // 2
    kept = index > zero
    half = index[kept] - (zero + 1)
    counts = np.unique(half, return_counts=True)[1]  # every shift overlaps
    shell = counts == 1
    order = np.concatenate((np.flatnonzero(shell), np.flatnonzero(~shell)))
    rank = np.empty(zero, dtype=np.min_scalar_type(max(zero - 1, 0)))
    rank[order] = np.arange(zero)
    shift = rank[half]
    perm = np.argsort(shift, kind="stable")
    n_shell = int(shell.sum())
    batches = ((0, n_shell), (n_shell, zero)) if m >= _SHELL_BATCH else ((0, zero),)
    return _make_plan(
        later[kept][perm], earlier[kept][perm], shift[perm], counts[order],
        order, batches, 1 << m,
    )


@lru_cache(maxsize=2)
def _sequence_plan(length: int) -> _ShiftPlan:
    """Plan of the shifts 1 .. length-1 of a sequence, in order, one batch.

    Shift tau is plan shift tau - 1 and pairs t + tau with t.  At the cube
    plan's 32 bytes per overlap pair, length 4096 fits the budget; 4097
    does not.  Only the plans of the last two lengths are kept: one holds
    6 bytes per overlap pair, 50 MB at length 4096.
    """
    if 32 * length * (length - 1) // 2 > _MAX_PLAN_BYTES:
        raise BudgetExceededError(f"the correlation plan at length {length} is too large")
    n = max(length - 1, 0)
    counts = np.arange(n, 0, -1, dtype=np.int64)
    shift = np.repeat(np.arange(n), counts)
    starts = np.concatenate(([0], np.cumsum(counts)))
    earlier = np.arange(starts[-1]) - starts[shift]
    return _make_plan(
        earlier + shift + 1, earlier, shift, counts, np.arange(n), ((0, n),), length
    )


@lru_cache(maxsize=256)
def _residues(q: int, n: int, crt: bool) -> np.ndarray:
    """Read-only int64 table of length 2q whose entry v is d * n for
    d = v mod q, or with ``crt`` the position of d in the context's
    ``order`` times n."""
    table = np.tile((get_context(q).order if crt else np.arange(q)) * n, 2)
    table.flags.writeable = False
    return table


def _histograms(
    plan: _ShiftPlan, rows: np.ndarray, q: int, lo: int, hi: int, crt: bool = False
) -> np.ndarray:
    """Exponent histograms of plan shifts lo .. hi-1, one per row group.

    ``rows`` is an int64 array of shape (groups, rows per group, cells),
    entries in 0..q-1.  Entry (k, d, s - lo) counts the pairs (i, j) of plan
    shift s and the rows r of group k with r[i] - r[j] = d mod q: the
    multiplicity of zeta**d in the group's summed autocorrelations.  With
    ``crt`` that count sits at d's position in the context's ``order``
    instead.  One bincount over (k * q + d) * (hi - lo) + s - lo covers
    every group and shift.  The differences q + r[i] - r[j] lie in
    1 .. 2q-1, so one gather through :func:`_residues` gives d * (hi - lo)
    without a remainder.  The gather writes over the keys; clip mode, which
    never clips a key in range, is what lets numpy do that without a
    buffer.  Besides the result, the call allocates rows + q and two arrays
    of one key per row and pair.
    """
    n = hi - lo
    groups = len(rows)
    if not n:
        return np.zeros((groups, q, 0), dtype=np.int64)
    a, b = plan.starts[lo], plan.starts[hi]
    keys = (rows + q).take(plan.later[a:b], axis=2)
    keys -= rows.take(plan.earlier[a:b], axis=2)
    _residues(q, n, crt).take(keys, out=keys, mode="clip")
    keys += plan.shift[a:b]
    if groups > 1:
        keys += np.arange(-lo, groups * q * n - lo, q * n).reshape(groups, 1, 1)
    elif lo:
        keys -= lo
    return np.bincount(keys.ravel(), minlength=groups * q * n).reshape(groups, q, n)


def _crt_coords(hist: np.ndarray, q: int) -> np.ndarray:
    """Coordinates in the CRT basis (see the module docstring) of histograms
    of shape (groups, q, n) counted in the context's ``order``: entry
    (k, i, j) is coordinate i of histogram (k, :, j).  They are reduced in
    place, one slice subtraction per prime; unless q has two or more
    distinct primes the result is a view of ``hist``."""
    ctx = get_context(q)
    primes = ctx.primes
    groups, _, n = hist.shape
    coords = hist.reshape(groups, *primes, q // prod(primes) * n)
    head = ()
    for _ in primes:
        # omega**(p-1) = -(1 + omega + ... + omega**(p-2)) along the next axis
        head += (slice(None),)
        last = coords[head + (-1, None)]
        coords = coords[head + (slice(-1),)]
        coords -= last
    return coords.reshape(groups, ctx.degree, n)


def _crt_adjoint(weights: np.ndarray, q: int) -> np.ndarray:
    """The transpose of :func:`_crt_coords` for one group: for int64
    ``weights`` of shape (degree, n), the (q, n) array whose entry (a, j) is
    coordinate column j of the unit histogram at position a of the context's
    ``order``, dotted with ``weights[:, j]``, wrapping in int64.  Each prime
    axis is expanded back by appending minus its sum, the transpose of
    subtracting the last slice."""
    ctx = get_context(q)
    primes = ctx.primes
    n = weights.shape[1]
    out = weights.reshape(*(p - 1 for p in primes), q // prod(primes) * n)
    for axis in range(len(primes)):
        out = np.concatenate((out, -out.sum(axis=axis, keepdims=True)), axis=axis)
    return out.reshape(q, n)


def _coords(plan: _ShiftPlan, rows: np.ndarray, q: int, lo: int, hi: int) -> np.ndarray:
    """The :func:`_crt_coords` of the :func:`_histograms` of plan shifts
    lo .. hi-1: entry (k, i, s - lo) is coordinate i of row group k's summed
    autocorrelation at plan shift s."""
    return _crt_coords(_histograms(plan, rows, q, lo, hi, crt=True), q)


def _gaps(plan: _ShiftPlan, q: int, rows) -> np.ndarray:
    """Whether the autocorrelations of each row group sum to zero at every
    plan shift, as one bool per group.

    ``rows`` is array-like of shape (groups, rows per group, cells), entries
    in 0..q-1.  Batches run in plan order, each cut into runs of whole
    shifts of at most ``_BINS`` histogram bins (one shift if it alone has
    more), and only the groups that cancel on one run are passed into the
    next.  A run on which every group cancels, the common case in a census,
    costs one count of its coordinates and no indexing, and a run on which
    none cancels ends the call.
    """
    rows = np.asarray(rows, dtype=np.int64)
    total = len(rows)
    alive = None  # every group, until one fails
    for lo, hi in plan.batches:
        while lo < hi and len(rows):
            stop = hi
            if (hi - lo) * len(rows) * q > _BINS:
                stop = lo + max(_BINS // (len(rows) * q), 1)
            coords = _coords(plan, rows, q, lo, stop)
            if np.count_nonzero(coords):
                cancel = ~coords.any(axis=(1, 2))
                if not cancel.any():
                    return np.zeros(total, dtype=bool)
                alive = np.flatnonzero(cancel) if alive is None else alive[cancel]
                rows = rows[cancel]
            lo = stop
    if alive is None:
        return np.ones(total, dtype=bool)
    verdicts = np.zeros(total, dtype=bool)
    verdicts[alive] = True
    return verdicts


def _element(ctx, hist: np.ndarray, conjugate: bool) -> CycElement:
    """The single-shift histogram ``hist`` (shape (1, q, 1)) as a CycElement."""
    value = CycElement(ctx, tuple(hist[0, :, 0].tolist()))
    return value.conjugate() if conjugate else value


def _rows(q: int, *seqs: Sequence[int]) -> np.ndarray:
    """Sequences reduced mod q, one int64 row each, as one group."""
    return np.array([[[v % q for v in s] for s in seqs]], dtype=np.int64)


def autocorrelation(f: QaryArray, tau: Sequence[int]) -> CycElement:
    """Exact aperiodic autocorrelation of f at shift tau.

    The value is sum over x of zeta**(f(x+tau) - f(x)) with the sum running
    over the points where both x and x+tau lie inside the cube.  A shift of
    the negative half is the conjugate of its negation.
    """
    tau = _validate_shift(f.m, tau)
    ctx = get_context(f.q)
    index = 0
    for t in tau:
        index = 3 * index + t + 1
    zero = (3**f.m - 1) // 2
    if index == zero:
        return ctx.integer(1 << f.m)
    plan = _cube_plan(f.m)
    s = int(np.flatnonzero(plan.order == abs(index - zero) - 1)[0])
    hist = _histograms(plan, np.array(((f.entries,),), dtype=np.int64), f.q, s, s + 1)
    return _element(ctx, hist, index < zero)


def correlation_spectrum(f: QaryArray) -> dict[tuple[int, ...], CycElement]:
    """Autocorrelation at every shift in {-1,0,1}**m, keyed by shift vector.

    One kernel call per plan batch computes the half shifts; the negative
    half is their conjugates in reverse order and the zero shift is 2**m.
    """
    q = f.q
    ctx = get_context(q)
    plan = _cube_plan(f.m)
    rows = np.array(((f.entries,),), dtype=np.int64)
    hist = np.empty((q, len(plan.order)), dtype=np.int64)
    for lo, hi in plan.batches:
        hist[:, plan.order[lo:hi]] = _histograms(plan, rows, q, lo, hi)[0]
    half = [CycElement(ctx, tuple(c)) for c in hist.T.tolist()]
    mirror = hist[(-np.arange(q)) % q, ::-1]
    values = [CycElement(ctx, tuple(c)) for c in mirror.T.tolist()]
    values.append(ctx.integer(1 << f.m))
    values += half
    return dict(zip(all_shifts(f.m), values))


def is_gap(f: QaryArray, g: QaryArray) -> bool:
    """Whether (f, g) is a Golay complementary array pair.

    True iff the two autocorrelations cancel exactly at every nonzero shift.
    Work is halved via conjugate symmetry: checking one representative per
    {tau, -tau} pair is equivalent to checking all 3**m - 1 nonzero shifts.
    From m = 6 on, the full-support shell is checked first and the
    remaining half shifts only if it cancels; below that every half shift
    is checked in one kernel call.
    """
    if f.q != g.q or f.m != g.m:
        raise ValueError("shape or modulus mismatch")
    get_context(f.q)  # rejects q above 4096 before entries are cast to int64
    return bool(_gaps(_cube_plan(f.m), f.q, ((f.entries, g.entries),))[0])


def sequence_autocorrelation(q: int, s: Sequence[int], tau: int) -> CycElement:
    """Aperiodic autocorrelation of a q-ary sequence at integer shift tau."""
    (tau,) = _integers((tau,))
    length = len(s)
    if not -length < tau < length:
        raise ValueError(f"shift {tau} out of range for length {length}")
    ctx = get_context(q)
    if tau == 0:
        return ctx.integer(length)
    k = abs(tau) - 1
    hist = _histograms(_sequence_plan(length), _rows(q, s), q, k, k + 1)
    return _element(ctx, hist, tau < 0)


def is_gcp(q: int, s1: Sequence[int], s2: Sequence[int]) -> bool:
    """Whether two equal-length q-ary sequences are a complementary pair.

    Positive shifts suffice by the same conjugate symmetry used for arrays.
    """
    if len(s1) != len(s2):
        raise ValueError("sequences must have equal length")
    get_context(q)  # rejects q < 1 before residues mod q are taken
    return bool(_gaps(_sequence_plan(len(s1)), q, _rows(q, s1, s2))[0])


def _spread_masks(vars_: tuple[int, ...]) -> list[int]:
    """Global cell masks for every point of the subcube on ``vars_``.

    Entry i is the global index whose bits on ``vars_`` spell out i (in local
    little-endian order) and are zero elsewhere.
    """
    masks = [0]
    for v in vars_:
        bit = 1 << (v - 1)
        masks += [s | bit for s in masks]
    return masks


@lru_cache(maxsize=256)
def _block_index(m: int, vars_: tuple[int, ...]) -> np.ndarray:
    """Read-only array, in the smallest unsigned dtype, whose entry t is the
    point of the subcube on ``vars_`` that cube cell t of dimension m
    projects to: bit j of it is bit ``vars_[j] - 1`` of t.  It inverts
    :func:`_spread_masks` on that map's cells, so a block function reads its
    value at cell t through it."""
    cells = np.arange(1 << m)
    index = np.zeros(1 << m, dtype=np.intp)
    for j, v in enumerate(vars_):
        index |= (cells >> (v - 1) & 1) << j
    index = index.astype(np.min_scalar_type((1 << len(vars_)) - 1))
    index.flags.writeable = False
    return index


def restrict(f: QaryArray, vars_: Sequence[int]) -> QaryArray:
    """Restriction of f to the listed variables, all others pinned to 0.

    ``vars_`` must be strictly increasing 1-based variable indices; the result
    is an array of dimension len(vars_) in the induced local coordinates.
    """
    vt = _integers(vars_)
    if list(vt) != sorted(set(vt)) or vt and (vt[0] < 1 or vt[-1] > f.m):
        raise ValueError(f"bad variable subset {vt} for m={f.m}")
    entries = tuple(f.entries[s] for s in _spread_masks(vt))
    return _trusted(QaryArray, f.q, len(vt), entries)


def combine(
    q: int,
    m: int,
    blocks: Sequence[tuple[Sequence[int], QaryArray]],
    constant: int = 0,
) -> QaryArray:
    """Sum of block functions on disjoint variable sets, plus a constant.

    Inverse of block separation: each (vars, array) contributes its value at
    the projection of the global point onto ``vars``.  Blocks must be disjoint
    but need not cover all m variables.  Each block adds one gather through
    :func:`_block_index` to the constant, on Python integers, so the sum is
    exact for every q.
    """
    q, m = _dims(q, m)
    vars_: tuple[int, ...] = ()
    gathers = []
    for block_vars, arr in blocks:
        vt = tuple(block_vars)
        if arr.q != q or arr.m != len(vt):
            raise ValueError("block array does not match its variable list")
        vars_ += vt
        if any(v < 1 or v > m for v in vt) or len(set(vars_)) != len(vars_):
            raise ValueError(f"bad or overlapping block variables {vt}")
        gathers.append(np.array(arr.entries, dtype=object).take(_block_index(m, vt)))
    total = sum(gathers, np.full(1 << m, constant, dtype=object))
    return QaryArray(q, m, tuple((total % q).tolist()))
