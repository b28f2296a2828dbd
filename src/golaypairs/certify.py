"""The stacked certifier: certificates of a batch checked level by level.

:func:`_certify` certifies a batch of pairs, each by its own certificate or
by the one its decomposition states; :func:`~golaypairs.decompose.
verify_certificate` runs it on a batch of one, and the census on each batch
of its pairs.  A certificate, its types and parts checked by its constructors,
is converted into the forest of :mod:`golaypairs.forest` in one pass, children
first, and the checks that compare it with itself are made on the way: C1 and
C2, which come before a node's subtree; C3 to C5 and the sizes of C6, which
come after it; and C7 to C9.  An object that passes the first five, and
whose children are in the levels, takes the next row of its level at once;
any other is kept out of the levels, so every inner node in a level has
both children in them.  Each shape's rows are stacked once, at the end.

Then, bottom-up, each level rebuilds every node pair from its children's
and checks every node at once: C6, the stored sub-pairs against the rebuilt
ones, and C10, stated parameters against the recombined ones.  C11, the
factor product of generating functions, runs once per distinct input of a
node shape.  Each root is compared with its claimed pair (C13), and each
distinct inner node pair of dimension at most ``max_corr_dim`` that passed
everything below it is correlated once, with one ``_gaps`` call per
dimension (C15).  A pair's message is the first check that a depth-first
walk of its certificate fails (C1 and C2 before a node's subtree, the rest
after it), then C13, then its correlation failures in the order in which
that walk first met each dimension; that order is recovered only for the
pairs that fail.  No check is skipped, and every pair that meets a failing
node fails.  The checks count nothing: a decomposed batch's census counters
come from one pass of their own down its levels (:func:`_counters`).
"""
from __future__ import annotations

import time
from typing import NamedTuple, Sequence

import numpy as np

from .forest import (
    _FAILED,
    _VALUE_FAILURES,
    _array,
    _children,
    _claimed,
    _decomposition,
    _distinct,
    _dtype,
    _first_failure,
    _Forest,
    _Group,
    _join,
    _Level,
    _param_rows,
    _recombine,
    _Shape,
    _shape,
    _stack_subs,
    _sub_rows,
    _unstack_subs,
)
from .genfun import disjoint_product, embed, from_array
from .qarray import QaryArray, _cube_plan, _gaps


class _Conversion:
    """Certificate objects met so far, by id, with their nodes, and the level
    sizes, shape buckets, failures and children of the forest they make."""

    __slots__ = ("index", "sizes", "buckets", "failures", "kids")

    def __init__(self) -> None:
        self.index: dict = {}  # id -> (node, object); holding the object keeps its id
        self.sizes: list[int] = [0]
        self.buckets: dict = {}  # shape -> (row, children, stated values) per object
        self.failures: dict = {}
        self.kids: dict = {}


def _convert(conv: _Conversion, node) -> tuple[int, int]:
    """The forest node of ``node``, converting its subtree first if new.

    An object that passes C1 and C2 (which come before its subtree) and, if
    inner, C3 to C5 and the sizes of C6 (which come after it) takes the next
    row of level m, into the bucket of its shape with the values it states;
    any other object is (-1, i), the i-th met, and keeps its first failure.
    An object with a child outside the levels stays outside too: a
    depth-first walk meets the child's failure before any of its own.  C7 to
    C9 compare stated values with each other, so they are checked here too,
    and kept for after C6.  The objects' constructors have checked their
    types and parts, so every check compares what a certificate states.
    """
    found = conv.index.get(id(node))
    if found is not None:
        return found[0]
    q, m, params = node.q, node.m, node.params
    pre = bad = stated = kids = key = None
    if (params.q, params.m) != (q, m):
        pre = f"node parameters do not have the node's q={q} and m={m}"
    elif m == 0:
        key, values = (q, 0), (params.c0, params.c_prime)
    elif node.split_var != m:
        pre = f"split variable {node.split_var} is not the highest ({m})"
    else:
        kids = (_convert(conv, node.left), _convert(conv, node.right))
        split = node.split
        z1, z2 = split.z1_vars, split.z2_vars
        k1, k2 = len(z1), len(z2)
        if sorted(z1 + z2) != list(range(1, m)):
            bad = "split variable sets do not partition the remaining variables"
        elif node.left.q != q or node.right.q != q:
            bad = "sub-certificates do not have the node's modulus"
        elif (node.left.m, node.right.m) != (k1, k2):
            bad = "sub-certificate dimensions do not match the split variable sets"
        elif any((x.q, x.m) != (q, k) for x, k in ((split.a, k1), (split.b, k1),
                                                   (split.c, k2), (node.d, k2))):
            bad = _VALUE_FAILURES[1]
        else:
            a, b, c = split.a.entries, split.b.entries, split.c.entries
            key, values = (q, m, z1, z2), ((a, b, c, node.d.entries), params)
            if split.f0_const != a[0] or split.g0_const != b[0]:
                stated = _VALUE_FAILURES[2]
            elif c[0] != 0:
                stated = _VALUE_FAILURES[3]
            elif node.e != node.left.params.c_prime or node.e_prime != node.right.params.c_prime:
                stated = _VALUE_FAILURES[4]
    where = (-1, len(conv.index))
    if key is not None and (kids is None or min(kids[0][0], kids[1][0]) >= 0):
        conv.sizes += [0] * (m + 1 - len(conv.sizes))
        where = (m, conv.sizes[m])
        conv.sizes[m] += 1
        conv.buckets.setdefault(key, []).append((where[1], kids, values))
    conv.index[id(node)] = where, node
    for kind, message in enumerate((pre, bad, stated)):
        if message is not None:
            conv.failures[kind, where] = _FAILED + message
    if kids is not None and where[0] < 0:
        conv.kids[where] = kids
    return where


def _certificates(q: int, certs: Sequence) -> _Forest:
    """The forest of the certificates ``certs``, converted in one pass, each
    shape's bucket stacked once at the end."""
    conv = _Conversion()
    roots = np.array([_convert(conv, cert) for cert in certs], dtype=np.intp)
    dtype = _dtype(max([q] + [key[0] for key in conv.buckets]))
    levels = [_Level(size, [], []) for size in conv.sizes]
    for (gq, k, *split), bucket in conv.buckets.items():
        rows, kids, values = zip(*bucket)
        rows = np.array(rows, dtype=np.intp)
        if not k:  # values are (c0, c')
            levels[0].leaves.append((gq, rows, *np.array(values, dtype=dtype).T))
            continue
        left, right = np.array([[row for _, row in side] for side in zip(*kids)], dtype=np.intp)
        subs, params = zip(*values)
        levels[k].groups.append(_Group(gq, _shape(*split), rows, left, right,
                                       _sub_rows(dtype, subs), _param_rows(dtype, params)))
    return _Forest(dtype, levels, roots, conv.failures, conv.kids)


def _derive(forest: _Forest) -> list[np.ndarray]:
    """The packed parameters of every node (see :func:`_recombine`),
    recombined bottom-up from the leaves, per level."""
    out: list[np.ndarray] = []
    for k, level in enumerate(forest.levels):
        params = np.zeros((level.size, 2 * k + 2), dtype=forest.dtype)
        for _, rows, c0, cp in level.leaves:
            params[rows, 0], params[rows, 1] = c0, cp
        for g in level.groups:
            params[g.rows] = _recombine(g.q, g.shape, out[len(g.shape.z1)].take(g.left, axis=0),
                                        out[len(g.shape.z2)].take(g.right, axis=0))
        out.append(params)
    return out


class _Walk(NamedTuple):
    """The bottom-up pass over a forest, per level: ``pairs`` the node pairs
    rebuilt from the leaves, ``codes`` the first of C6, C10 and C11 that a
    row failed (0 for none), and ``alive`` whether its whole subtree
    passed."""

    pairs: list[np.ndarray]
    codes: list[np.ndarray]
    alive: list[np.ndarray]


def _factor_products_agree(q: int, shape: _Shape, a: np.ndarray, c: np.ndarray,
                           f0: np.ndarray) -> np.ndarray:
    """C11 of each row: the factor product of the generating functions of a
    on z1 and c on z2 is that of the restriction f0, their block sum.  It is
    an identity of ``genfun``, computed once per distinct (a, c); it stays
    because the census needs a caller of ``CycElement.is_zero``, which the
    benchmark's tracer test pins."""
    inverse = None
    if len(a) > 1:
        firsts, inverse = _distinct(np.concatenate((a, c), axis=1))
        a, c, f0 = (x.take(firsts, axis=0) for x in (a, c, f0))
    m, z1, z2 = shape.m, shape.z1, shape.z2
    k1, k2 = len(z1), len(z2)
    agree = np.array([
        disjoint_product(
            embed(from_array(_array(q, k1, ai)), z1, m - 1),
            embed(from_array(_array(q, k2, ci)), z2, m - 1),
        ) == from_array(_array(q, m - 1, fi))
        for ai, ci, fi in zip(a.tolist(), c.tolist(), f0.tolist())
    ], dtype=bool)
    return agree if inverse is None else agree.take(inverse)


def _check(forest: _Forest, params: list[np.ndarray] | None, max_corr_dim: int) -> _Walk:
    """Rebuild every node pair bottom-up and run the value checks C6, C10
    (where a certificate states parameters; ``params`` are the derived
    ones) and C11 (up to ``max_corr_dim``) on every inner node.  A node
    whose forced form broke has no group and keeps a zero row, from which
    the nodes above it are rebuilt; they fail through it."""
    stated = {node for kind, node in forest.failures if kind == 2}
    whole = not forest.failures  # so far every node passed
    pairs, codes, alive = [], [], []
    for k, level in enumerate(forest.levels):
        built = np.zeros((level.size, 2, 1 << k), dtype=forest.dtype)
        passed = np.zeros(level.size, dtype=bool)
        code = np.zeros(level.size, dtype=np.int8)
        for gq, rows, c0, cp in level.leaves:
            built[rows, 0, 0], built[rows, 1, 0] = c0, (c0 + cp) % gq
            passed[rows] = True
        for g in level.groups:
            k1, k2 = len(g.shape.z1), len(g.shape.z2)
            rebuilt = _stack_subs(pairs[k1].take(g.left, axis=0), pairs[k2].take(g.right, axis=0))
            pair = built[g.rows] = _join(g.q, g.shape, rebuilt)
            found = []  # (code, failing rows) of C6, C10 and C11
            differ = g.subs != rebuilt
            if np.count_nonzero(differ):
                found.append((1, differ.any(axis=(1, 2))))
            if g.params is not None:
                differ = g.params != params[k].take(g.rows, axis=0)
                if np.count_nonzero(differ):
                    found.append((5, differ.any(axis=1)))
            if k <= max_corr_dim:
                ab, cd = _unstack_subs(g.shape, rebuilt)
                agree = _factor_products_agree(g.q, g.shape, ab[:, 0], cd[:, 0],
                                               pair[:, 0, : 1 << (k - 1)])
                if np.count_nonzero(agree) < len(agree):
                    found.append((6, ~agree))
            if whole and not found:
                passed[g.rows] = True
            else:
                first = np.zeros(len(g.rows), dtype=np.int8)
                for value, failed in reversed(found):
                    first[failed] = value
                code[g.rows] = first
                passed[g.rows] = (first == 0) & alive[k1].take(g.left) & alive[k2].take(g.right)
                whole = False
        for level_of, row in stated:
            if level_of == k:
                passed[row] = False
        pairs.append(built)
        codes.append(code)
        alive.append(passed)
    return _Walk(pairs, codes, alive)


def _dimensions_met(forest: _Forest, broken: list, node: tuple[int, int], depth: int,
                    met: dict) -> dict:
    """Each dimension up to ``depth`` of an inner node of ``node``'s subtree,
    in the order a depth-first walk first meets it (children before their
    parent), with whether a node of it failed its correlation."""
    for child in _children(forest, node):
        _dimensions_met(forest, broken, child, depth, met)
    k, row = node
    if 1 <= k <= depth:
        met[k] = met.get(k, False) or bool(broken[k][row])
    return met


def _correlate(
    forest: _Forest, walk: _Walk, q: int, roots: np.ndarray, max_corr_dim: int
) -> dict[int, str]:
    """C15: each distinct inner node pair of dimension at most
    ``max_corr_dim`` that passed every check below it is correlated once.
    Returns the message of each of the passing ``roots`` (by position) that
    meets a node that failed."""
    depth = max(0, min(max_corr_dim, len(forest.levels) - 1))
    broken: list = []
    for k in range(1, depth + 1):
        nodes = np.flatnonzero(walk.alive[k])
        if len(nodes):
            verdicts = _gaps(_cube_plan(k), q, walk.pairs[k].take(nodes, axis=0))
            if np.count_nonzero(verdicts) < len(nodes):
                broken = broken or [np.zeros(len(alive), dtype=bool) for alive in walk.alive]
                broken[k][nodes] = ~verdicts
    failed = {}
    for j, root in enumerate(map(tuple, roots.tolist()) if broken else ()):
        met = _dimensions_met(forest, broken, root, depth, {})
        dim = next((d for d, bad in met.items() if bad), None)
        if dim is not None:
            failed[j] = f"{_FAILED}a node pair of dimension {dim} is not complementary"
    return failed


def _counters(
    forest: _Forest, roots: np.ndarray, max_corr_dim: int
) -> tuple[dict[int, int], tuple[int, int]]:
    """The census's counters of a decomposed forest, in one pass down its
    levels: the inner nodes of each dimension up to ``max_corr_dim`` below
    the passing ``roots``, each counted as often as a walk of them meets
    it; the distinct sub-pairs; and the walks of inner sub-certificates
    that a walk of all its roots sharing each distinct one would reuse:
    the inner children met from the roots and from each distinct inner
    sub-certificate, less those sub-certificates."""
    offsets = np.cumsum([0] + [level.size for level in forest.levels])
    met = np.zeros(offsets[-1], dtype=bool)
    inner_kids = np.zeros(offsets[-1], dtype=np.int64)
    walked = np.bincount(offsets[roots[:, 0]] + roots[:, 1], minlength=offsets[-1])
    for k in range(len(forest.levels) - 1, 0, -1):
        for g in forest.levels[k].groups:
            k1, k2 = len(g.shape.z1), len(g.shape.z2)
            rows, left, right = offsets[k] + g.rows, offsets[k1] + g.left, offsets[k2] + g.right
            met[left] = met[right] = True
            inner_kids[rows] = (k1 > 0) + (k2 > 0)
            np.add.at(walked, left, walked[rows])
            np.add.at(walked, right, walked[rows])
    depth = min(max_corr_dim, len(forest.levels) - 1)
    counts = {k: int(walked[offsets[k] : offsets[k + 1]].sum()) for k in range(1, depth + 1)}
    inner = np.flatnonzero(met[offsets[1] :]) + offsets[1]
    walks = inner_kids[offsets[forest.roots[:, 0]] + forest.roots[:, 1]].sum()
    shared = int(met.sum()), int(walks + inner_kids[inner].sum()) - len(inner)
    return {k: n for k, n in counts.items() if n}, shared


def _certify(
    q: int,
    max_corr_dim: int,
    pairs: Sequence[tuple[QaryArray, QaryArray]],
    certs: Sequence | None = None,
) -> tuple[dict[int, str], dict[int, int], tuple[int, int], float, float]:
    """Certify a batch of pairs; see the module docstring.

    Pair i is certified by ``certs[i]`` (a ``DecompositionCertificate``),
    or, when ``certs`` is None, by the certificate its decomposition
    states.  Returns the first failure message of each failing pair, keyed
    by its index; the counters of :func:`_counters` for a decomposed batch,
    {} and (0, 0) for given certificates; and the seconds spent decomposing
    and checking, and correlating.
    """
    t0 = time.perf_counter()
    if not pairs:
        return {}, {}, (0, 0), 0.0, 0.0
    if certs is None:
        claimed = _claimed(_dtype(q), pairs)
        forest = _decomposition(q, claimed, len(pairs))
        fits = np.ones(len(pairs), dtype=bool)
        walk = _check(forest, None, max_corr_dim)
    else:
        forest = _certificates(q, certs)
        claimed = _claimed(forest.dtype, pairs)
        fits = np.array([(f.q, f.m) == (g.q, g.m) == (cert.q, cert.m)
                         for (f, g), cert in zip(pairs, certs)], dtype=bool)
        walk = _check(forest, _derive(forest), max_corr_dim)
    failures: dict[int, str] = {}
    roots = forest.roots
    alive = np.zeros(len(pairs), dtype=bool)
    for k in set(roots[:, 0].tolist()) - {-1}:
        at = roots[:, 0] == k
        alive[at] = walk.alive[k][roots[at, 1]]
    for i in np.flatnonzero(~alive).tolist() if np.count_nonzero(alive) < len(alive) else ():
        failures[i] = _first_failure(forest, walk.codes, tuple(roots[i].tolist()))
    passed = alive & fits
    for k, (idx, stack) in claimed.items():
        at = passed.take(idx)
        if np.count_nonzero(at):
            same = walk.pairs[k].take(roots[idx[at], 1], axis=0) == stack[at]
            passed[idx[at]] = same.reshape(len(same), -1).all(axis=1)
    if np.count_nonzero(passed) < len(passed):
        for i in np.flatnonzero(alive & ~passed).tolist():
            failures[i] = _FAILED + "replayed pair differs from the claimed pair"
    passing = np.flatnonzero(passed)
    census = _counters(forest, roots[passing], max_corr_dim) if certs is None else ({}, (0, 0))
    t1 = time.perf_counter()
    for j, message in _correlate(forest, walk, q, roots[passing], max_corr_dim).items():
        failures[int(passing[j])] = message
    return failures, *census, t1 - t0, time.perf_counter() - t1
