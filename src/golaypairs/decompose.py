"""Constructive decomposition of complementary array pairs into standard form.

The algorithm peels off the highest variable x_m, producing restriction pairs
(f0, g0) and (f1, g1) one dimension down.  For a complementary pair, f0 and
g0 share a maximal common additive part c on a variable subset z2 (the
combinatorial image of a polynomial gcd of their generating functions), and
the residual halves f1, g1 are then forced pointwise:

    f0 = a(x_z1) + c(x_z2)          f1 = -b*(x_z1) + d(x_z2)
    g0 = b(x_z1) + c(x_z2)          g1 = -a*(x_z1) + q/2 + d(x_z2)

where * is coordinate complementation (:meth:`QaryArray.reverse`).  The two
recovered pairs (a, b) and (c, d) are complementary pairs of strictly smaller
dimension and are decomposed recursively; their standard parameters are then
recombined into parameters for (f, g), splicing the two quadratic paths
together through x_m.

The left column of the diagram holds by construction of the split (see
:func:`gcd_normalized`); the right column, the forced form of the x_m = 1
halves, is checked pointwise at every node of the descent, and the
recursion bottoms out at dimension 0 where every pair of constants is
vacuously complementary.  Passing all checks is not merely necessary but
sufficient for the input to be a complementary pair, so a completed
recursion doubles as an exact complementarity certificate and a failed
pointwise check is reported as not-a-pair.

Sub-pairs repeat, within one pair and more so across the pairs of a
census, which are built from a small set of lower-dimensional standard
pairs.  The decomposition and the certificate walk take a :class:`_Memo`,
in which each distinct sub-pair is decomposed once and each shared inner
sub-certificate walked once.  :func:`decompose` and
:func:`verify_certificate` open a fresh memo per call; the census opens
one per batch of pairs.  No check is skipped, and a failure is never
stored, so it is raised again for every pair that meets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .boolfun import _components, _subset_transform
from .errors import NotAGapError, OddModulusError, VerificationError
from .genfun import disjoint_product, embed, from_array
from .qarray import (
    QaryArray,
    _cube_plan,
    _gaps,
    _json_int,
    _spread_masks,
    _trusted,
    _two_block_fill,
    restrict,
)
from .standard import StandardParams, construct_standard


def split_last(f: QaryArray) -> tuple[QaryArray, QaryArray]:
    """Restrictions of f to x_m = 0 and x_m = 1, as dimension m-1 arrays."""
    if f.m < 1:
        raise ValueError("cannot split a dimension-0 array")
    half = 1 << (f.m - 1)
    return (
        _trusted(QaryArray, f.q, f.m - 1, f.entries[:half]),
        _trusted(QaryArray, f.q, f.m - 1, f.entries[half:]),
    )


def join_last(f0: QaryArray, f1: QaryArray) -> QaryArray:
    """Inverse of :func:`split_last`."""
    if f0.q != f1.q or f0.m != f1.m:
        raise ValueError("halves must share shape and modulus")
    return _trusted(QaryArray, f0.q, f0.m + 1, f0.entries + f1.entries)


@dataclass(frozen=True)
class GcdSplit:
    """Maximal common additive part of a restriction pair.

    f0 = a + c and g0 = b + c with a, b on z1_vars and c on z2_vars, under the
    normalisation a(0) = f0(0), b(0) = g0(0), c(0) = 0.  No further block can
    be moved from (a, b) into c.
    """

    z1_vars: tuple[int, ...]
    z2_vars: tuple[int, ...]
    a: QaryArray
    b: QaryArray
    c: QaryArray
    f0_const: int
    g0_const: int


def _forced_halves(
    q: int, m: int, z1: tuple, z2: tuple, a: QaryArray, b: QaryArray, d: QaryArray
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Entries of the x_m = 1 halves f1 = -b* + d and g1 = -a* + q/2 + d."""
    half = q // 2
    neg_b_star = tuple((-v) % q for v in reversed(b.entries))
    g1_block = tuple((half - v) % q for v in reversed(a.entries))
    return (
        _two_block_fill(q, m, z1, neg_b_star, z2, d.entries),
        _two_block_fill(q, m, z1, g1_block, z2, d.entries),
    )


def gcd_normalized(f0: QaryArray, g0: QaryArray) -> GcdSplit:
    """Split off the maximal common additive part of f0 and g0.

    A candidate block is a union of interaction components of both arrays on
    which their origin-pinned restrictions agree up to an additive constant;
    z2 is the union of all such blocks (blockwise greediness is exact because
    distinct blocks never interact).  The split rebuilds both inputs by
    construction, so it is not re-filled here: no monomial of f0 or g0
    crosses z1 and z2, which gives f0 = a + c, and g0 - f0 is constant on
    the subcube of z2, which gives g0 = b + c.
    """
    if f0.q != g0.q or f0.m != g0.m:
        raise ValueError("shape or modulus mismatch")
    q, m = f0.q, f0.m
    lam_f = _subset_transform(list(f0.entries), m, q, -1)
    lam_g = _subset_transform(list(g0.entries), m, q, -1)

    fe, ge = f0.entries, g0.entries
    base_diff = (ge[0] - fe[0]) % q
    z2: list[int] = []
    for block in _components(m, lam_f, lam_g):
        if all((ge[s] - fe[s]) % q == base_diff for s in _spread_masks(block)):
            z2.extend(block)
    z2_vars = tuple(sorted(z2))
    z1_vars = tuple(v for v in range(1, m + 1) if v not in z2)

    a = restrict(f0, z1_vars)
    b = restrict(g0, z1_vars)
    c = restrict(f0, z2_vars) + (-fe[0])
    return GcdSplit(z1_vars, z2_vars, a, b, c, fe[0], ge[0])


def extract_d(
    f1: QaryArray, g1: QaryArray, split: GcdSplit
) -> tuple[QaryArray, bool]:
    """Recover the second factor-pair component d from the x_m = 1 halves.

    The candidate is d(x_z2) = f1(0_z1, x_z2) + b*(0_z1); the returned flag
    reports whether the forced forms f1 = -b* + d and g1 = -a* + q/2 + d hold
    at every point.  A false flag means the original pair cannot have been
    complementary.
    """
    z1, z2 = split.z1_vars, split.z2_vars
    d = restrict(f1, z2) + split.b.entries[-1]
    halves = _forced_halves(f1.q, f1.m, z1, z2, split.a, split.b, d)
    return d, halves == (f1.entries, g1.entries)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Recursion tree recording one full decomposition.

    A node of dimension 0 stores only its parameters.  An inner node stores
    the split variable (always the highest), the common-part split, the
    recovered d with the offsets e, e' of its sub-pairs, the two
    sub-certificates, and the recombined parameters for its own pair.
    Replaying the tree bottom-up rebuilds the pair exactly.
    """

    q: int
    m: int
    params: StandardParams
    split_var: int | None = None
    split: GcdSplit | None = None
    d: QaryArray | None = None
    e: int | None = None
    e_prime: int | None = None
    left: "DecompositionCertificate | None" = None
    right: "DecompositionCertificate | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.m == 0

    def to_json_dict(self) -> dict:
        out: dict = {"q": self.q, "m": self.m, "params": self.params.to_json_dict()}
        if not self.is_leaf:
            out.update(
                {
                    "split_var": self.split_var,
                    "z1_vars": list(self.split.z1_vars),
                    "z2_vars": list(self.split.z2_vars),
                    "a": self.split.a.to_json_dict(),
                    "b": self.split.b.to_json_dict(),
                    "c": self.split.c.to_json_dict(),
                    "f0_const": self.split.f0_const,
                    "g0_const": self.split.g0_const,
                    "d": self.d.to_json_dict(),
                    "e": self.e,
                    "e_prime": self.e_prime,
                    "left": self.left.to_json_dict(),
                    "right": self.right.to_json_dict(),
                }
            )
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DecompositionCertificate":
        try:
            q = _json_int(data["q"])
            m = _json_int(data["m"])
            params = StandardParams.from_json_dict(data["params"])
            if m == 0:
                return cls(q, 0, params)
            split = GcdSplit(
                tuple(_json_int(v) for v in data["z1_vars"]),
                tuple(_json_int(v) for v in data["z2_vars"]),
                QaryArray.from_json_dict(data["a"]),
                QaryArray.from_json_dict(data["b"]),
                QaryArray.from_json_dict(data["c"]),
                _json_int(data["f0_const"]),
                _json_int(data["g0_const"]),
            )
            return cls(
                q,
                m,
                params,
                _json_int(data["split_var"]),
                split,
                QaryArray.from_json_dict(data["d"]),
                _json_int(data["e"]),
                _json_int(data["e_prime"]),
                cls.from_json_dict(data["left"]),
                cls.from_json_dict(data["right"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate object: {exc}") from exc


def _recombine(
    q: int,
    m: int,
    z1: tuple[int, ...],
    z2: tuple[int, ...],
    left: StandardParams,
    right: StandardParams,
) -> StandardParams:
    """Splice sub-pair parameters through the split variable x_m.

    The combined path runs along the left path, through x_m, then along the
    right path; the linear coefficient attached to x_m absorbs the constants
    produced by complementing the left pair.
    """
    half = q // 2
    m1 = len(z1)
    path = (
        [z1[j - 1] for j in left.pi] + [m] + [z2[j - 1] for j in right.pi]
    )
    c_vars = [0] * m
    for local, gvar in enumerate(z1, start=1):
        c_vars[gvar - 1] = left.c[local - 1]
    for local, gvar in enumerate(z2, start=1):
        c_vars[gvar - 1] = right.c[local - 1]
    c_vars[m - 1] = (
        half * m1 - sum(left.c) - 2 * left.c0 + right.c_prime - left.c_prime
    ) % q
    return _trusted(
        StandardParams,
        q,
        m,
        tuple(path),
        tuple(c_vars),
        (left.c0 + right.c0) % q,
        left.c_prime,
    )


def _forced_form_break(
    f1: QaryArray, g1: QaryArray, split: GcdSplit, d: QaryArray
) -> str:
    """The first cell of f1 or g1 that breaks its forced form, f1 first.

    Only called once :func:`extract_d` has reported a break.
    """
    z1, z2 = split.z1_vars, split.z2_vars
    forced = _forced_halves(f1.q, f1.m, z1, z2, split.a, split.b, d)
    for cell, (want_f1, want_g1) in enumerate(zip(*forced)):
        if f1.entries[cell] != want_f1:
            return f"f1 differs from -b* + d at cell {cell}"
        if g1.entries[cell] != want_g1:
            return f"g1 differs from -a* + q/2 + d at cell {cell}"
    raise VerificationError(
        "no cell breaks the forced form"
    )  # pragma: no cover - internal guard


class _Memo:
    """Sub-certificates shared by the pairs decomposed and walked with it.

    One memo serves one modulus and one ``max_corr_dim``.  ``pairs`` maps a
    sub-pair's (f entries, g entries) to its certificate, so equal sub-pairs
    get the same certificate object, and ``walks`` maps id(node) of such an
    inner sub-certificate to (node, walk); the node is kept so that its id
    is not reused while the entry lives.  ``reused`` counts the walks taken
    from ``walks``.  Root pairs and leaf walks are not stored, and neither
    is a failure: a sub-pair or subtree that raises raises again for every
    pair that meets it.
    """

    def __init__(self) -> None:
        self.pairs: dict = {}
        self.walks: dict = {}
        self.reused = 0


def _decompose_rec(f: QaryArray, g: QaryArray, memo: _Memo) -> DecompositionCertificate:
    q, m = f.q, f.m
    if m == 0:
        f0, g0 = f.entries[0], g.entries[0]
        return DecompositionCertificate(
            q, 0, _trusted(StandardParams, q, 0, (), (), f0, (g0 - f0) % q)
        )
    f0, f1 = split_last(f)
    g0, g1 = split_last(g)
    split = gcd_normalized(f0, g0)
    d, ok = extract_d(f1, g1, split)
    if not ok:
        raise NotAGapError(
            f"not a complementary pair: residual halves violate the forced form "
            f"at dimension {m}: {_forced_form_break(f1, g1, split, d)}"
        )
    children = []
    for sub_f, sub_g in ((split.a, split.b), (split.c, d)):
        key = sub_f.entries, sub_g.entries
        child = memo.pairs.get(key)
        if child is None:
            child = memo.pairs[key] = _decompose_rec(sub_f, sub_g, memo)
        children.append(child)
    left, right = children
    params = _recombine(q, m, split.z1_vars, split.z2_vars, left.params, right.params)
    e, e_prime = left.params.c_prime, right.params.c_prime
    return DecompositionCertificate(q, m, params, m, split, d, e, e_prime, left, right)


def decompose(
    f: QaryArray, g: QaryArray
) -> tuple[StandardParams, DecompositionCertificate]:
    """Decompose a complementary pair into standard parameters, with certificate.

    Complementarity of the input is established by the decomposition itself:
    the pointwise residual verifications at every recursion node, together
    with the vacuous dimension-0 base case, hold if and only if (f, g) is a
    complementary pair, so no separate correlation sweep is run first.  A
    violated check raises :class:`NotAGapError`.  On success the returned
    parameters regenerate (f, g) exactly and the certificate records every
    intermediate object of the recursion.
    """
    if f.q != g.q or f.m != g.m:
        raise ValueError("shape or modulus mismatch")
    if f.q % 2:
        raise OddModulusError(
            f"decomposition is defined for even q only, got q={f.q}"
        )
    cert = _decompose_rec(f, g, _Memo())
    return cert.params, cert


def _rebuild(
    node: DecompositionCertificate, a: QaryArray, b: QaryArray, c: QaryArray, d: QaryArray
) -> tuple[QaryArray, QaryArray]:
    """The pair of an inner node from its sub-pairs, which fix its q and m."""
    q, m = a.q, a.m + c.m + 1
    z1, z2 = node.split.z1_vars, node.split.z2_vars
    f0 = _two_block_fill(q, m - 1, z1, a.entries, z2, c.entries)
    g0 = _two_block_fill(q, m - 1, z1, b.entries, z2, c.entries)
    f1, g1 = _forced_halves(q, m - 1, z1, z2, a, b, d)
    return _trusted(QaryArray, q, m, f0 + f1), _trusted(QaryArray, q, m, g0 + g1)


def replay(cert: DecompositionCertificate) -> tuple[QaryArray, QaryArray]:
    """Rebuild the pair a certificate describes, bottom-up, from leaves only.

    Uses nothing but array operations on the children's replayed pairs; the
    stored intermediate arrays are not consulted (they are cross-checked in
    :func:`verify_certificate`).
    """
    if cert.is_leaf:
        return construct_standard(cert.params)
    return _rebuild(cert, *replay(cert.left), *replay(cert.right))


def _fail(msg: str) -> None:
    raise VerificationError(f"certificate verification failed: {msg}")


_Rows = tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


def _walk(
    node: DecompositionCertificate, max_corr_dim: int, memo: _Memo
) -> tuple[QaryArray, QaryArray, _Rows]:
    """Check one node against its subtree; return the node's pair and rows.

    The rows are (dimension, f entries, g entries) of each inner node of the
    subtree of dimension at most ``max_corr_dim``, children before parents.
    An inner child already walked with ``memo`` is not walked again.
    """
    q, m = node.q, node.m
    if (node.params.q, node.params.m) != (q, m):
        _fail(f"node parameters do not have the node's q={q} and m={m}")
    if node.is_leaf:
        return (*construct_standard(node.params), ())
    if node.split_var != m:
        _fail(f"split variable {node.split_var} is not the highest ({m})")
    walked = []
    for child in (node.left, node.right):
        if child.is_leaf:
            walked.append(_walk(child, max_corr_dim, memo))
            continue
        hit = memo.walks.get(id(child))
        if hit is None:
            hit = memo.walks[id(child)] = (child, _walk(child, max_corr_dim, memo))
        else:
            memo.reused += 1
        walked.append(hit[1])
    (a, b, left_rows), (c, d, right_rows) = walked
    split = node.split
    if sorted(split.z1_vars + split.z2_vars) != list(range(1, m)):
        _fail("split variable sets do not partition the remaining variables")
    if node.left.q != q or node.right.q != q:
        _fail("sub-certificates do not have the node's modulus")
    if (node.left.m, node.right.m) != (len(split.z1_vars), len(split.z2_vars)):
        _fail("sub-certificate dimensions do not match the split variable sets")
    if (a, b) != (split.a, split.b) or c != split.c or d != node.d:
        _fail("stored intermediate arrays disagree with sub-certificates")
    if split.f0_const != split.a.entries[0] or split.g0_const != split.b.entries[0]:
        _fail("stored normalisation constants are inconsistent")
    if split.c.entries[0] != 0:
        _fail("common part is not origin-normalised")
    if node.e != node.left.params.c_prime or node.e_prime != node.right.params.c_prime:
        _fail("stored offsets disagree with sub-parameters")
    if node.params != _recombine(
        q, m, split.z1_vars, split.z2_vars, node.left.params, node.right.params
    ):
        _fail("node parameters are not the recombination of the children")
    ff, gg = _rebuild(node, a, b, c, d)
    rows = left_rows + right_rows
    if m <= max_corr_dim:
        rows += ((m, ff.entries, gg.entries),)
        # C11 is an identity of genfun once C3 and C5 hold; it stays only as
        # the census's one caller of CycElement.is_zero, which the perfbench
        # test test_tracer_patches_every_binding_and_restores_them pins
        fa = embed(from_array(a), split.z1_vars, m - 1)
        fc = embed(from_array(c), split.z2_vars, m - 1)
        if disjoint_product(fa, fc) != from_array(split_last(ff)[0]):
            _fail("factor product does not rebuild the restriction")
    return ff, gg, rows


def _certificate_rows(
    f: QaryArray,
    g: QaryArray,
    cert: DecompositionCertificate,
    max_corr_dim: int,
    memo: _Memo,
) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Every check of :func:`verify_certificate` except the correlation sums.

    Returns the entry pairs whose complementarity is still to be checked,
    keyed by dimension: the pair of each inner node of dimension at most
    ``max_corr_dim``.  Sub-pairs get no rows: each is a child's node pair,
    a row of its own, or of dimension 0, with no shift to check.  Raises
    :class:`VerificationError` on any other mismatch.  Each inner
    sub-certificate already walked with ``memo`` is not walked again, and
    its rows are returned again.
    """
    ff, gg, walked_rows = _walk(cert, max_corr_dim, memo)
    if (ff, gg) != (f, g):
        _fail("replayed pair differs from the claimed pair")
    rows: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for dim, fe, ge in walked_rows:
        rows.setdefault(dim, []).append((fe, ge))
    return rows


def verify_certificate(
    f: QaryArray,
    g: QaryArray,
    cert: DecompositionCertificate,
    max_corr_dim: int = 3,
) -> None:
    """Independently re-check a certificate against the pair it claims to prove.

    Replays the tree bottom-up, confirms every stored intermediate array and
    offset, re-derives each node's parameters from its children, and compares
    the root against (f, g).  Each walked pair is then the expansion of its
    node's parameters, so the root parameters regenerate (f, g).  On inner
    nodes of dimension at most ``max_corr_dim`` the node pair's
    complementarity is rechecked by literal correlation sums, which covers
    the sub-pairs (see :func:`_certificate_rows`).  The node pairs are
    gathered from the whole tree first and correlated in one stack per
    dimension.  Raises :class:`VerificationError` on any mismatch.
    """
    for dim, pairs in _certificate_rows(f, g, cert, max_corr_dim, _Memo()).items():
        if not _gaps(_cube_plan(dim), f.q, pairs).all():
            raise VerificationError(
                f"certificate verification failed: a node pair of dimension"
                f" {dim} is not complementary"
            )


def recognize_standard(f: QaryArray, g: QaryArray) -> StandardParams | None:
    """Standard parameters of (f, g) read off the pair, or None.

    The one candidate is built by construction and kept only if
    :func:`construct_standard` regenerates (f, g) from it.  c' = g(0) - f(0);
    the path starts at the only variable e with g - f = q/2 + c' on e's unit
    cell, then steps to the only unvisited variable that shares a nonzero
    quadratic coefficient of f's normal form with the current one; c and c0
    are that form's linear and constant coefficients.  A standard pair has
    exactly one such start and step, and its parameters are unique (the other
    orientation would need q/2 = 0 mod q); a pair without them is rejected
    early, as the comparison would reject it.  Independent of the
    decomposition.
    """
    if f.q != g.q or f.m != g.m:
        raise ValueError("shape or modulus mismatch")
    q, m = f.q, f.m
    if q % 2:
        raise OddModulusError(f"standard form requires even q, got {q}")
    fe, ge = f.entries, g.entries
    cp = (ge[0] - fe[0]) % q
    starts = [
        v
        for v in range(1, m + 1)
        if (ge[1 << (v - 1)] - fe[1 << (v - 1)]) % q == (q // 2 + cp) % q
    ]
    if len(starts) != min(m, 1):
        return None
    lam = _subset_transform(list(fe), m, q, -1)
    path = starts
    while len(path) < m:
        bit = 1 << (path[-1] - 1)
        nxt = [w for w in range(1, m + 1) if w not in path and lam[bit | 1 << (w - 1)]]
        if len(nxt) != 1:
            return None
        path += nxt
    linear = tuple(lam[1 << k] for k in range(m))
    params = _trusted(StandardParams, q, m, tuple(path), linear, lam[0], cp)
    return params if construct_standard(params) == (f, g) else None
