"""The stacked certifier: certificates of a batch checked level by level.

:func:`_certify` certifies a batch of pairs, each by its own certificate or
by the one its decomposition states; :func:`~golaypairs.decompose.
verify_certificate` runs it on a batch of one, and the census on each batch
of its pairs.  A loaded certificate is converted into the forest of
:mod:`golaypairs.forest`, and the checks that compare what it states with
what it states are made on the way: C1 and C2, which come before a node's
subtree; C3 to C5 and the sizes of C6, which come after it; and C7 to C9.
A node that fails one of the first five is kept out of the levels.

Then, bottom-up, each level rebuilds its node pairs from its children's and
checks every node at once: C6, the stored sub-pairs against the rebuilt
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
node fails.
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
    """Certificate objects met so far, by id, with their shape checks."""

    __slots__ = ("index", "nodes", "failures", "kids", "place")

    def __init__(self) -> None:
        self.index: dict[int, int] = {}
        self.nodes: list = []  # keeps each object, so that its id stays its own
        self.failures: list = []  # (pre, bad, stated) messages of each node
        self.kids: list = []
        self.place: list = []


def _fits(array, q: int, m: int) -> bool:
    return isinstance(array, QaryArray) and (array.q, array.m) == (q, m)


def _convert(conv: _Conversion, node) -> int:
    """Index of ``node`` in ``conv``, converting its subtree first if new.

    A node is placed in the levels, as (q, m, z1, z2, entries of (a, b, c,
    d), stated parameters) or as a leaf (q, 0, c0, c'), when it passes C1 and
    C2 (which come before its subtree) and, if inner, C3 to C5 and the
    sizes of C6 (which come after it); otherwise its first failure is kept.
    C7 to C9 compare values the certificate states with each other, so they
    are checked here too, and kept for after C6.
    """
    i = conv.index.get(id(node))
    if i is not None:
        return i
    q, m, params = node.q, node.m, node.params
    pre = bad = stated = kids = place = None
    if (params.q, params.m) != (q, m):
        pre = f"node parameters do not have the node's q={q} and m={m}"
    elif m == 0:
        place = (q, 0, params.c0, params.c_prime)
    elif node.split_var != m:
        pre = f"split variable {node.split_var} is not the highest ({m})"
    else:
        kids = (_convert(conv, node.left), _convert(conv, node.right))
        split = node.split
        z1, z2 = tuple(split.z1_vars), tuple(split.z2_vars)
        k1, k2 = len(z1), len(z2)
        if sorted(z1 + z2) != list(range(1, m)):
            bad = "split variable sets do not partition the remaining variables"
        elif node.left.q != q or node.right.q != q:
            bad = "sub-certificates do not have the node's modulus"
        elif (node.left.m, node.right.m) != (k1, k2):
            bad = "sub-certificate dimensions do not match the split variable sets"
        elif not (_fits(split.a, q, k1) and _fits(split.b, q, k1) and _fits(split.c, q, k2)
                  and _fits(node.d, q, k2)):
            bad = _VALUE_FAILURES[1]
        else:
            a, b, c = split.a.entries, split.b.entries, split.c.entries
            place = (q, m, z1, z2, (a, b, c, node.d.entries), params)
            if split.f0_const != a[0] or split.g0_const != b[0]:
                stated = _VALUE_FAILURES[2]
            elif c[0] != 0:
                stated = _VALUE_FAILURES[3]
            elif node.e != node.left.params.c_prime or node.e_prime != node.right.params.c_prime:
                stated = _VALUE_FAILURES[4]
    conv.index[id(node)] = len(conv.nodes)
    conv.nodes.append(node)
    conv.failures.append((pre, bad, stated))
    conv.kids.append(kids)
    conv.place.append(place)
    return len(conv.nodes) - 1


def _certificates(q: int, certs: Sequence) -> _Forest:
    """The forest of the certificates ``certs``, converted into levels."""
    conv = _Conversion()
    roots = [_convert(conv, cert) for cert in certs]
    members: dict = {}  # the placed objects by shape, in order
    for i, p in enumerate(conv.place):
        if p is not None:
            members.setdefault(p[:4] if p[1] else p[:2], []).append(i)
    dtype = _dtype(max([q] + [key[0] for key in members]))
    sizes = [0] * (max([key[1] for key in members], default=0) + 1)
    where = [(-1, i) for i in range(len(conv.place))]  # the node of each object
    for key, nodes in members.items():
        k = key[1]
        for row, i in enumerate(nodes, sizes[k]):
            where[i] = (k, row)
        sizes[k] += len(nodes)
    levels = [_Level(size, [], []) for size in sizes]
    for key, nodes in members.items():
        gq, k = key[:2]
        start = where[nodes[0]][1]
        rows = np.arange(start, start + len(nodes))
        column = [conv.place[i] for i in nodes]
        if not k:
            c0, cp = np.array([p[2:] for p in column], dtype=dtype).T
            levels[0].leaves.append((gq, rows, c0, cp))
            continue
        left, right = np.array([[row if k >= 0 else -1 for k, row in
                                 (where[conv.kids[i][side]] for i in nodes)] for side in (0, 1)],
                               dtype=np.intp)
        levels[k].groups.append(_Group(gq, _shape(*key[2:]), rows, left, right,
                                       _sub_rows(dtype, [p[4] for p in column]),
                                       _param_rows(dtype, [p[5] for p in column])))
    failures = {(kind, where[i]): _FAILED + message
                for i, found in enumerate(conv.failures)
                for kind, message in enumerate(found) if message is not None}
    # the children of the nodes outside the levels, and of those with a child outside
    kids = {where[i]: (where[k[0]], where[k[1]]) for i, k in enumerate(conv.kids)
            if k is not None and (where[i][0] < 0 or where[k[0]][0] < 0 or where[k[1]][0] < 0)}
    return _Forest(dtype, levels, np.array([where[i] for i in roots], dtype=np.intp), failures, kids)


def _derive(forest: _Forest) -> list[np.ndarray]:
    """The packed parameters of every node (see :func:`_recombine`),
    recombined bottom-up from the leaves, per level with a spare last row
    for the children outside the levels."""
    out: list[np.ndarray] = []
    for k, level in enumerate(forest.levels):
        params = np.zeros((level.size + 1, 2 * k + 2), dtype=forest.dtype)
        for _, rows, c0, cp in level.leaves:
            params[rows, 0], params[rows, 1] = c0, cp
        for g in level.groups:
            params[g.rows] = _recombine(g.q, g.shape, out[len(g.shape.z1)].take(g.left, axis=0),
                                        out[len(g.shape.z2)].take(g.right, axis=0))
        out.append(params)
    return out


class _Walk(NamedTuple):
    """The bottom-up pass over a forest, per level with a spare last row:
    ``pairs`` the node pairs rebuilt from the leaves, ``done`` whether a row
    was rebuilt, ``rows`` the inner nodes of each dimension up to the
    correlation depth in a row's subtree, ``codes`` the first of C6, C10
    and C11 that a row failed (0 for none), and ``alive`` whether its whole
    subtree passed."""

    pairs: list[np.ndarray]
    done: list[np.ndarray]
    rows: list[np.ndarray]
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
    ones) and C11 (up to ``max_corr_dim``) on each node whose children were
    rebuilt."""
    depth = max(0, min(max_corr_dim, len(forest.levels) - 1))
    stated = {node for kind, node in forest.failures if kind == 2}
    whole = not forest.failures  # so far every node was rebuilt and passed
    unit = np.eye(depth + 1, dtype=np.int64)  # a node's own row, by dimension
    pairs, done, counts, codes, alive = [], [], [], [], []
    for k, level in enumerate(forest.levels):
        built = np.zeros((level.size + 1, 2, 1 << k), dtype=forest.dtype)
        ok, passed = np.zeros((2, level.size + 1), dtype=bool)
        below = np.zeros((level.size + 1, depth + 1), dtype=np.int64)
        code = np.zeros(level.size + 1, dtype=np.int8)
        for gq, rows, c0, cp in level.leaves:
            built[rows, 0, 0], built[rows, 1, 0] = c0, (c0 + cp) % gq
            ok[rows] = passed[rows] = True
        for g in level.groups:
            k1, k2 = len(g.shape.z1), len(g.shape.z2)
            rows, left, right, subs, claims = g.rows, g.left, g.right, g.subs, g.params
            if not whole:
                ready = done[k1].take(left) & done[k2].take(right)
                if np.count_nonzero(ready) < len(ready):
                    if not np.count_nonzero(ready):
                        continue
                    rows, left, right, subs = rows[ready], left[ready], right[ready], subs[ready]
                    claims = None if claims is None else claims[ready]
            rebuilt = _stack_subs(pairs[k1].take(left, axis=0), pairs[k2].take(right, axis=0))
            pair = built[rows] = _join(g.q, g.shape, rebuilt)
            found = []  # (code, failing rows) of C6, C10 and C11
            differ = subs != rebuilt
            if np.count_nonzero(differ):
                found.append((1, differ.any(axis=(1, 2))))
            if claims is not None:
                differ = claims != params[k].take(rows, axis=0)
                if np.count_nonzero(differ):
                    found.append((5, differ.any(axis=1)))
            if k <= max_corr_dim:
                ab, cd = _unstack_subs(g.shape, rebuilt)
                agree = _factor_products_agree(g.q, g.shape, ab[:, 0], cd[:, 0],
                                               pair[:, 0, : 1 << (k - 1)])
                if np.count_nonzero(agree) < len(agree):
                    found.append((6, ~agree))
            if whole and not found:
                passed[rows] = True
            else:
                first = np.zeros(len(rows), dtype=np.int8)
                for value, failed in reversed(found):
                    first[failed] = value
                code[rows] = first
                passed[rows] = (first == 0) & alive[k1].take(left) & alive[k2].take(right)
                whole = False
            ok[rows] = True
            mine = counts[k1].take(left, axis=0) + counts[k2].take(right, axis=0)
            below[rows] = mine + unit[k] if k <= depth else mine
        for level_of, row in stated:
            if level_of == k:
                passed[row] = False
        pairs.append(built)
        done.append(ok)
        counts.append(below)
        codes.append(code)
        alive.append(passed)
    return _Walk(pairs, done, counts, codes, alive)


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
) -> tuple[dict[int, int], dict[int, str]]:
    """C15: each distinct inner node pair of dimension at most
    ``max_corr_dim`` that passed every check below it is correlated once.
    Returns the rows per dimension below the passing ``roots``, each node
    counted as often as they meet it, and the message of each root (by
    position) that meets a node that failed."""
    depth = max(0, min(max_corr_dim, len(forest.levels) - 1))
    counts = np.zeros(depth + 1, dtype=np.int64)
    for k in set(roots[:, 0].tolist()):
        counts += walk.rows[k].take(roots[roots[:, 0] == k, 1], axis=0).sum(axis=0)
    broken: list = []
    for k in range(1, depth + 1):
        nodes = np.flatnonzero(walk.alive[k][:-1])
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
    return {dim: n for dim, n in enumerate(counts.tolist()) if dim and n}, failed


def _shared(forest: _Forest) -> tuple[int, int]:
    """The distinct sub-pairs of a decomposed forest, and the walks of inner
    sub-certificates that a walk of its roots sharing each distinct one
    would reuse: the inner children met from the roots and from each
    distinct inner sub-certificate, less those sub-certificates."""
    offsets = np.cumsum([0] + [level.size for level in forest.levels])
    met = np.zeros(offsets[-1], dtype=bool)
    inner_kids = np.zeros(offsets[-1], dtype=np.int64)
    for k, level in enumerate(forest.levels):
        for g in level.groups:
            k1, k2 = len(g.shape.z1), len(g.shape.z2)
            met[offsets[k1] + g.left] = met[offsets[k2] + g.right] = True
            inner_kids[offsets[k] + g.rows] = (k1 > 0) + (k2 > 0)
    inner = np.flatnonzero(met[offsets[1] :]) + offsets[1]
    walks = inner_kids[offsets[forest.roots[:, 0]] + forest.roots[:, 1]].sum()
    return int(met.sum()), int(walks + inner_kids[inner].sum()) - len(inner)


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
    by its index; the correlation rows per dimension, counted per pair; the
    distinct sub-pairs and reused sub-certificate walks of :func:`_shared`
    for a decomposed batch, (0, 0) for given certificates; and the seconds
    spent decomposing and checking, and correlating.
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
        if k < len(walk.pairs):  # roots that did not pass read the spare last row
            rows = np.where(passed.take(idx), roots[idx, 1], -1)
            same = walk.pairs[k].take(rows, axis=0) == stack
            passed[idx] &= same.reshape(len(idx), -1).all(axis=1)
    if np.count_nonzero(passed) < len(passed):
        for i in np.flatnonzero(alive & ~passed).tolist():
            failures[i] = _FAILED + "replayed pair differs from the claimed pair"
    shared = _shared(forest) if certs is None else (0, 0)
    t1 = time.perf_counter()
    passing = np.flatnonzero(passed)
    counts, broken = _correlate(forest, walk, q, roots[passing], max_corr_dim)
    for j, message in broken.items():
        failures[int(passing[j])] = message
    return failures, counts, shared, t1 - t0, time.perf_counter() - t1
