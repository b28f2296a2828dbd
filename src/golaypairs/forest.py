"""A batch of decomposition certificates as numpy stacks: the forest.

The node pairs of one dimension m form one array of shape (n, 2, 2**m), a
level of the forest: int64 entries up to ``_INT64_MAX_Q``, Python integers
past it.  Each level holds every distinct node once, so a sub-pair that
repeats within a pair or across a census batch is one row, and its inner
nodes are grouped by shape (q, m, z1, z2).  Everything a node of one shape
does is a gather through index arrays cached per (z1, z2), built on the
map from a cube cell to its point on a block that
:func:`~golaypairs.qarray.combine` reads too: the split of its
x_m = 0 half into (a, b) and c, and the join of sub-pairs (a, b) and (c, d)
into the node pair, which is both the forced form that the decomposition
checks and the rebuild that the certifier checks (see
:mod:`golaypairs.decompose` for the identities).  Parameters are packed as
rows (pi, c, c0, c') and recombined through x_m as one product with a
mixing matrix cached per shape, and a gather for the path.  Both row
layouts are packed and unpacked only by the helpers here.

:func:`_decomposition` builds the forest of a batch of pairs top-down, one
level at a time.  Interaction components are computed once per distinct
ANF support pattern of a level, and a node whose forced form breaks keeps
its not-a-pair message and has no children.  A pair's first failure is the
first one that a depth-first walk of its tree meets
(:func:`_first_failure`); it is looked for only in the trees of the pairs
that failed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .boolfun import _components, _subset_transform
from .qarray import QaryArray, _block_index, _spread_masks, _trusted
from .standard import StandardParams

# Stacks hold int64 entries up to this modulus: the largest sum, the
# recombined linear coefficient of x_m, is below 4m moduli, and 2**m entries
# of an array cap m far below 2**6.  Larger moduli use Python integers.
_INT64_MAX_Q = 1 << 56

_FAILED = "certificate verification failed: "
# Messages of the value checks, by the code that the certifier records.
_VALUE_FAILURES = (
    None,
    "stored intermediate arrays disagree with sub-certificates",  # C6
    "stored normalisation constants are inconsistent",  # C7
    "common part is not origin-normalised",  # C8
    "stored offsets disagree with sub-parameters",  # C9
    "node parameters are not the recombination of the children",  # C10
    "factor product does not rebuild the restriction",  # C11
)


def _dtype(q: int):
    return np.int64 if q <= _INT64_MAX_Q else object


def _array(q: int, m: int, row) -> QaryArray:
    return _trusted(QaryArray, q, m, tuple(row))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, because caches share them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


# _distinct of no rows and of one row
_TRIVIAL = tuple(_frozen(np.arange(n), np.zeros(n, dtype=np.intp)) for n in (0, 1))


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of each distinct entry of ``rows`` along axis 0,
    in order, and the index of each entry among the distinct ones."""
    n = len(rows)
    if n <= 1:
        return _TRIVIAL[n]
    seen: dict = {}
    keys = map(tuple, rows.reshape(n, -1).tolist())
    inverse = np.fromiter((seen.setdefault(key, len(seen)) for key in keys), np.intp, n)
    firsts = np.empty(len(seen), dtype=np.intp)
    firsts[inverse[::-1]] = np.arange(n - 1, -1, -1)
    return firsts, inverse


def _members(which: np.ndarray, count: int) -> list:
    """The positions of each value 0 .. count-1 in ``which``: a slice over
    all of them when there is one value."""
    if count == 1:
        return [slice(None)]
    return [np.flatnonzero(which == j) for j in range(count)]


class _Shape(NamedTuple):
    """Read-only index arrays of a node of dimension m whose x_m = 0 half
    splits on z1 and z2.

    The node's sub-pairs are stacked as rows (a | c, b | d) of shape (2,
    points on z1 + points on z2).  Read as one row, the node's pair (f, g)
    gives that stack as its entries ``cut`` plus ``shift`` times its entries
    ``base``: a, b and c from the x_m = 0 halves, c less f0(0), and d from
    f1 plus b*(0).  Cell t of the pair, as (2, 2**m), is ``sign[t]`` times
    entry ``left[t]`` of the stack read as one row, plus entry ``right[t]``,
    plus q/2 on g's x_m = 1 half: f = (a + c, -b* + d) and g = (b + c, -a* +
    q/2 + d).

    The packed parameters of the two sub-pairs, side by side, give those of
    the node (see :func:`_recombine`) as their product with ``mix``, but for
    the path: its columns ``cols`` are ``lut`` at their entries ``src`` plus
    ``off``.
    """

    m: int
    z1: tuple[int, ...]
    z2: tuple[int, ...]
    cut: np.ndarray
    base: np.ndarray
    shift: np.ndarray
    left: np.ndarray
    sign: np.ndarray
    right: np.ndarray
    mix: np.ndarray
    src: np.ndarray
    off: np.ndarray
    cols: np.ndarray
    lut: np.ndarray


@lru_cache(maxsize=256)
def _shape(z1: tuple[int, ...], z2: tuple[int, ...]) -> _Shape:
    sp1 = np.array(_spread_masks(z1), dtype=np.intp)
    sp2 = np.array(_spread_masks(z2), dtype=np.intp)
    h1, h2 = len(sp1), len(sp2)
    half, row = h1 * h2, h1 + h2  # a, c in the first row of the stack, b, d in the second
    k = len(z1) + len(z2)
    i1, i2 = (_block_index(k, z).astype(np.intp) for z in (z1, z2))
    r1 = h1 - 1 - i1
    cut = np.array([np.concatenate((sp1, sp2)), np.concatenate((2 * half + sp1, half + sp2))])
    base = np.array([[0] * row, [2 * half + sp1[-1]] * row])
    # take reads intp indices and int64 factors without a cast, which small
    # nodes notice; large ones keep the narrowest types, so the cache stays small
    small = half <= 64
    factor = np.int64 if small else np.int8
    shift = np.array([[0] * h1 + [-1] * h2, [0] * h1 + [1] * h2], dtype=factor)
    left = np.array([np.concatenate((i1, row + r1)), np.concatenate((row + i1, r1))])
    sign = np.where(np.arange(2 * half) < half, 1, -1).astype(factor)
    right = np.concatenate((h1 + i2, row + h1 + i2))[None]
    index = np.intp if small else np.min_scalar_type(4 * half)
    return _Shape(k + 1, z1, z2,
                  *_frozen(cut.astype(index), base.astype(index), shift, left.astype(index),
                           sign, right.astype(index), *_mixing(z1, z2, factor)))


def _mixing(z1: tuple[int, ...], z2: tuple[int, ...], factor) -> tuple[np.ndarray, ...]:
    """``mix`` (of dtype ``factor``), ``src``, ``off``, ``cols`` and ``lut``
    of :class:`_Shape`."""
    k1, k2 = len(z1), len(z2)
    m, right = k1 + k2 + 1, 2 * k1 + 2  # the right sub-pair's first column
    mix = np.zeros((right + 2 * k2 + 2, 2 * m + 2), dtype=factor)
    for j, v in enumerate(z1):
        mix[k1 + j, m - 1 + v] = 1
    for j, v in enumerate(z2):
        mix[right + k2 + j, m - 1 + v] = 1
    # c of x_m: less the left c, c0 twice and c', plus the right c'
    mix[k1 : 2 * k1, 2 * m - 1] = -1
    mix[2 * k1, 2 * m - 1], mix[2 * k1 + 1, 2 * m - 1], mix[-1, 2 * m - 1] = -2, -1, 1
    mix[2 * k1, 2 * m] = mix[-2, 2 * m] = 1  # c0
    mix[2 * k1 + 1, 2 * m + 1] = 1  # c'
    src = np.array([*range(k1), *range(right, right + k2)], dtype=np.intp)
    off = np.array([-1] * k1 + [k1 - 1] * k2, dtype=np.intp)
    cols = np.array([*range(k1), *range(k1 + 1, m)], dtype=np.intp)
    return mix, src, off, cols, np.array(z1 + z2, dtype=np.intp)


def _join(q: int, shape: _Shape, subs: np.ndarray) -> np.ndarray:
    """The node pairs (n, 2, 2**m) of the sub-pairs ``subs``, stacked as
    (n, 2, points) rows (a | c, b | d)."""
    flat = subs.reshape(len(subs), -1)
    out = flat.take(shape.left, axis=1) * shape.sign + flat.take(shape.right, axis=1)
    out[:, 1, out.shape[2] // 2 :] += q // 2
    out %= q
    return out


def _parts(q: int, shape: _Shape, nodes: np.ndarray) -> np.ndarray:
    """The sub-pairs, as rows (a | c, b | d), of node pairs (n, 2, 2**m)
    split on the shape's z1 and z2: a, b and c from the x_m = 0 halves (see
    :func:`gcd_normalized`), d = f1(0_z1, x_z2) + b*(0_z1)."""
    flat = nodes.reshape(len(nodes), -1)
    return (flat.take(shape.cut, axis=1) + flat.take(shape.base, axis=1) * shape.shift) % q


@lru_cache(maxsize=None)
def _monomials(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell masks 0 .. 2**k - 1, and those of two or more variables."""
    t = np.arange(1 << k)
    return _frozen(t, np.flatnonzero(t & (t - 1)))


def _common_vars(q: int, k: int, halves: np.ndarray) -> np.ndarray:
    """The common part's variables z2, as a bit mask, of each restriction
    pair (f0, g0) on k variables, stacked as (n, 2, cells); see
    :func:`gcd_normalized`.

    A block of the interaction components of f0 and g0 joins z2 when g0 - f0
    is constant on its subcube, that is when no monomial inside it has
    different coefficients in f0 and g0.  Such a monomial is one of f0 or
    g0, so it never crosses blocks: the blocks that the union of those
    monomials meets are the others.  Components are found once per distinct
    set of monomials of two or more variables.
    """
    anf = _subset_transform(halves, q, -1)
    cells, multi = _monomials(k)
    f0, g0 = anf[:, 0], anf[:, 1]
    differ = np.bitwise_or.reduce((f0 != g0) * cells, axis=1)
    if not len(multi):  # every block is one variable
        return ~differ & ((1 << k) - 1)
    support = ((f0 != 0) | (g0 != 0)).take(multi, axis=1)
    firsts, which = _distinct(support)
    z2 = np.zeros(len(halves), dtype=np.int64)
    for pattern, rows in zip(support.take(firsts, axis=0), _members(which, len(firsts))):
        blocks = _components(k, multi[pattern].tolist())
        masks = np.array([sum(1 << (v - 1) for v in b) for b in blocks], dtype=np.int64)
        z2[rows] = ((differ[rows, None] & masks) == 0) @ masks
    return z2


@lru_cache(maxsize=1024)
def _split_shape(k: int, mask: int) -> _Shape:
    """The shape that splits variables 1..k into z1 and z2, the variables
    set in ``mask``."""
    z2 = tuple(v for v in range(1, k + 1) if mask >> (v - 1) & 1)
    return _shape(tuple(v for v in range(1, k + 1) if v not in z2), z2)


def _recombine(q: int, shape: _Shape, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Splice sub-pair parameters through the split variable x_m, row by row.

    Parameters of dimension k are packed as rows (pi, c, c0, c'), 2k + 2
    columns.  The combined path runs along the left path, through x_m, then
    along the right path; the linear coefficient attached to x_m absorbs
    the constants produced by complementing the left pair.
    """
    both = np.concatenate((left, right), axis=1)
    out = both @ shape.mix
    steps = both.take(shape.src, axis=1) + shape.off
    out[:, shape.cols] = shape.lut.take(steps if steps.dtype != object else steps.astype(np.intp))
    out[:, len(shape.z1)] = shape.m
    tail = out[:, -3:-1]  # c of x_m and c0
    tail[:, 0] += q // 2 * len(shape.z1)
    tail %= q
    return out


def _param_objects(q: int, m: int, rows: np.ndarray) -> list[StandardParams]:
    """Packed parameter rows of dimension m as :class:`StandardParams`."""
    values = rows.tolist()
    if rows.dtype == object:  # path steps come from int64 index arrays
        values = [[int(v) for v in row] for row in values]
    return [
        _trusted(StandardParams, q, m, tuple(row[:m]), tuple(row[m : 2 * m]), row[-2], row[-1])
        for row in values
    ]


def _param_rows(dtype, params) -> np.ndarray:
    """:class:`StandardParams` of one dimension packed as rows (pi, c, c0, c')."""
    return np.array([p.pi + p.c + (p.c0, p.c_prime) for p in params], dtype=dtype)


def _sub_rows(dtype, subs) -> np.ndarray:
    """Sub-pairs (a, b, c, d), given as entry tuples, stacked as (n, 2,
    points) rows (a | c, b | d)."""
    return np.array([(a + c, b + d) for a, b, c, d in subs], dtype=dtype)


def _sub_pairs(shape: _Shape, subs: np.ndarray) -> list[tuple[list, list, list, list]]:
    """The sub-pairs (a, b, c, d), as entry lists, of (n, 2, points) rows."""
    h1 = 1 << len(shape.z1)
    return [(ac[:h1], bd[:h1], ac[h1:], bd[h1:]) for ac, bd in subs.tolist()]


def _stack_subs(ab: np.ndarray, cd: np.ndarray) -> np.ndarray:
    """Rows (a | c, b | d) of the stacked sub-pairs (a, b) and (c, d)."""
    return np.concatenate((ab, cd), axis=2)


def _unstack_subs(shape: _Shape, subs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacks of the sub-pairs (a, b) and (c, d) of rows (a | c, b | d)."""
    h1 = 1 << len(shape.z1)
    return subs[:, :, :h1], subs[:, :, h1:]


def _gcd_split(q: int, m: int, f0: tuple, g0: tuple) -> tuple:
    """(z1, z2, a, b, c) of the common-part split of the restriction pair
    (f0, g0) on m variables, given as entries: the decomposition's split of
    a node whose x_m = 0 halves they are."""
    halves = np.array([(f0, g0)], dtype=_dtype(q))
    shape = _split_shape(m, int(_common_vars(q, m, halves)[0]))
    # a, b and c come from a node's x_m = 0 halves, whatever its x_m = 1 halves
    a, b, c, _ = _sub_pairs(shape, _parts(q, shape, np.concatenate((halves, halves), axis=2)))[0]
    k1, k2 = len(shape.z1), len(shape.z2)
    return shape.z1, shape.z2, _array(q, k1, a), _array(q, k1, b), _array(q, k2, c)


def _forced_d(q: int, shape: _Shape, a: tuple, b: tuple, f1: tuple, g1: tuple) -> tuple:
    """(d, whether the forced forms hold) for x_m = 1 halves (f1, g1) and
    the split's a and b, given as entries: the decomposition's forced-form
    check of one node."""
    zeros = (0,) * (1 << len(shape.z2))
    # the node whose x_m = 0 halves are a and b alone, from which _parts
    # reads a, b and b*(0) back, and whose x_m = 1 halves are the given ones
    node = _join(q, shape, _sub_rows(_dtype(q), [(a, b, zeros, zeros)]))
    node[0, :, len(f1) :] = f1, g1
    subs = _parts(q, shape, node)
    d = _sub_pairs(shape, subs)[0][3]
    return _array(q, len(shape.z2), d), bool((_join(q, shape, subs) == node).all())


class _Group(NamedTuple):
    """The inner nodes of one shape (q, m, z1, z2) in a level.

    ``rows`` are their rows in level m; ``left`` and ``right`` the rows of
    their sub-certificates in levels len(z1) and len(z2); ``subs`` their
    stored sub-pairs as (n, 2, points) rows (a | c, b | d).  ``params`` are
    the node parameters a certificate states, packed, or None for a
    decomposition, which states none.
    """

    q: int
    shape: _Shape
    rows: np.ndarray
    left: np.ndarray
    right: np.ndarray
    subs: np.ndarray
    params: np.ndarray | None


class _Level(NamedTuple):
    """The nodes of one dimension: inner groups, and leaves as (q, rows, c0, c')."""

    size: int
    groups: list[_Group]
    leaves: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


class _Forest(NamedTuple):
    """The distinct nodes of a batch's certificates, level by level.

    A node is named by (level, row); a node outside the levels by (-1, i).
    ``roots`` holds the node of each pair of the batch, as an (n, 2) array.
    ``failures`` maps (kind, node) to the message of a failure the node
    itself shows: kind 0 one that comes before its subtree (C1, C2, or a
    broken forced form of a decomposition), 1 one that comes after it (C3
    to C5, the sizes of C6) and 2 one of C7 to C9, which come after C6.
    ``kids`` maps a node outside the levels to its two children, if it has
    any; the groups give the children of the nodes in the levels.
    """

    dtype: object
    levels: list[_Level]
    roots: np.ndarray
    failures: dict
    kids: dict


def _split(q: int, k: int, nodes: np.ndarray) -> tuple[list[_Group], dict[int, str]]:
    """Decompose the distinct node pairs of level k >= 1 one step.

    Returns the groups of the nodes whose x_m = 1 halves have their forced
    form, their children's rows still to be filled, and the not-a-pair
    message of each other node by row.
    """
    h = 1 << (k - 1)
    masks = _common_vars(q, k - 1, nodes[:, :, :h])
    firsts, which = _distinct(masks)
    groups, broken = [], {}
    for mask, rows in zip(masks.take(firsts).tolist(), _members(which, len(firsts))):
        shape = _split_shape(k - 1, mask)
        part = nodes[rows]
        subs = _parts(q, shape, part)
        off = _join(q, shape, subs)[:, :, h:] != part[:, :, h:]
        rows = np.arange(len(nodes))[rows]
        if np.count_nonzero(off):
            ok = ~off.any(axis=(1, 2))
            for j in np.flatnonzero(~ok).tolist():
                cell = int(np.argmax(off[j].any(axis=0)))
                side = "f1 differs from -b* + d" if off[j, 0, cell] else (
                    "g1 differs from -a* + q/2 + d"
                )
                broken[int(rows[j])] = (
                    "not a complementary pair: residual halves violate the forced"
                    f" form at dimension {k}: {side} at cell {cell}"
                )
            rows, subs = rows[ok], subs[ok]
        if len(rows):
            kids = np.empty((2, len(rows)), dtype=np.intp)
            groups.append(_Group(q, shape, rows, kids[0], kids[1], subs, None))
    return groups, broken


def _decomposition(q: int, claimed: dict[int, tuple[np.ndarray, np.ndarray]], n: int) -> _Forest:
    """The forest of the ``n`` claimed pairs, given as (indices, stack) per
    dimension, decomposed top-down.  A node whose forced form breaks has no
    children, and its not-a-pair message as its failure of kind 0."""
    dtype = _dtype(q)
    top = max(claimed)
    pending: list[list] = [[] for _ in range(top + 1)]
    roots = np.empty((n, 2), dtype=np.intp)
    for k, (idx, stack) in claimed.items():
        roots[idx, 0] = k
        pending[k].append((stack, np.empty(len(idx), dtype=np.intp)))
    levels: list = [None] * (top + 1)
    failures = {}
    for k in range(top, -1, -1):
        parts = pending[k]
        if not parts:
            levels[k] = _Level(0, [], [])
            continue
        stack = parts[0][0] if len(parts) == 1 else np.concatenate([part for part, _ in parts])
        firsts, inverse = _distinct(stack)
        nodes = stack.take(firsts, axis=0)
        start = 0
        for part, sink in parts:
            sink[:] = inverse[start : start + len(part)]
            start += len(part)
        if k in claimed:
            roots[claimed[k][0], 1] = parts[0][1]
        if k == 0:
            c0 = nodes[:, 0, 0]
            levels[0] = _Level(len(nodes), [], [(q, np.arange(len(nodes)), c0,
                                                 (nodes[:, 1, 0] - c0) % q)])
            continue
        groups, broken = _split(q, k, nodes)
        failures.update({(0, (k, row)): message for row, message in broken.items()})
        for g in groups:
            ab, cd = _unstack_subs(g.shape, g.subs)
            pending[len(g.shape.z1)].append((ab, g.left))
            pending[len(g.shape.z2)].append((cd, g.right))
        levels[k] = _Level(len(nodes), groups, [])
    return _Forest(dtype, levels, roots, failures, {})


def _claimed(dtype, pairs) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The pairs whose two arrays share q and m, as (indices, stack) per m."""
    by_dim: dict[int, list[int]] = {}
    for i, (f, g) in enumerate(pairs):
        if (f.q, f.m) == (g.q, g.m):
            by_dim.setdefault(f.m, []).append(i)
    return {
        m: (np.array(idx, dtype=np.intp),
            np.array([(pairs[i][0].entries, pairs[i][1].entries) for i in idx], dtype=dtype))
        for m, idx in by_dim.items()
    }


def _children(forest: _Forest, node: tuple[int, int]) -> tuple:
    """The two children of ``node``, or none."""
    k, row = node
    if k < 0:
        return forest.kids.get(node, ())
    for g in forest.levels[k].groups:
        at = np.flatnonzero(g.rows == row)
        if len(at):
            j = int(at[0])
            return (len(g.shape.z1), int(g.left[j])), (len(g.shape.z2), int(g.right[j]))
    return ()


def _first_failure(forest: _Forest, codes: list, node: tuple[int, int]) -> str | None:
    """The first check that fails in a depth-first walk of ``node``'s
    subtree: its C1 or C2 (or broken forced form), then its children's
    subtrees, then its C3 to C11, ``codes`` holding per level the first of
    C6, C10 and C11 that each node failed."""
    failures = forest.failures
    if (0, node) in failures:
        return failures[0, node]
    for child in _children(forest, node):
        found = _first_failure(forest, codes, child)
        if found is not None:
            return found
    if (1, node) in failures:
        return failures[1, node]
    code = int(codes[node[0]][node[1]]) if node[0] >= 0 else 0
    if (2, node) in failures and code != 1:
        return failures[2, node]
    return _FAILED + _VALUE_FAILURES[code] if code else None
