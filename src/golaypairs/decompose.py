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

Decomposition and certification run on stacks, never pair by pair: the
node pairs of a batch are the levels of a forest (:mod:`golaypairs.forest`),
decomposed top-down and certified bottom-up (:mod:`golaypairs.certify`).
:func:`decompose`, :func:`verify_certificate`, :func:`replay`,
:func:`gcd_normalized` and :func:`extract_d` run that code on a batch of
one, and a :class:`DecompositionCertificate` is built only when
:func:`decompose` returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .boolfun import _subset_transform
from .certify import _certificates, _certify, _check, _derive
from .cyclotomic import _integers
from .errors import NotAGapError, OddModulusError, VerificationError
from .forest import (
    _array,
    _claimed,
    _decomposition,
    _dtype,
    _first_failure,
    _forced_d,
    _gcd_split,
    _param_objects,
    _shape,
    _sub_pairs,
)
from .qarray import QaryArray, _json_int, _trusted
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
    be moved from (a, b) into c.  The constructor checks types only; whether
    the parts fit is for :func:`extract_d` and the certifier (C3 to C8).
    """

    z1_vars: tuple[int, ...]
    z2_vars: tuple[int, ...]
    a: QaryArray
    b: QaryArray
    c: QaryArray
    f0_const: int
    g0_const: int

    def __post_init__(self):
        z1, z2 = _integers(self.z1_vars), _integers(self.z2_vars)
        if not all(isinstance(x, QaryArray) for x in (self.a, self.b, self.c)):
            raise ValueError("a, b and c must be QaryArray values")
        f0, g0 = _integers((self.f0_const, self.g0_const))
        self.__dict__.update(z1_vars=z1, z2_vars=z2, f0_const=f0, g0_const=g0)


def gcd_normalized(f0: QaryArray, g0: QaryArray) -> GcdSplit:
    """Split off the maximal common additive part of f0 and g0.

    A candidate block is a union of interaction components of both arrays on
    which their origin-pinned restrictions agree up to an additive constant;
    z2 is the union of all such blocks (blockwise greediness is exact because
    distinct blocks never interact).  The split rebuilds both inputs by
    construction, so it is not re-filled here: no monomial of f0 or g0
    crosses z1 and z2, which gives f0 = a + c, and g0 - f0 is constant on
    the subcube of z2, which gives g0 = b + c.  This is the decomposition's
    split run on a batch of one.
    """
    if f0.q != g0.q or f0.m != g0.m:
        raise ValueError("shape or modulus mismatch")
    return _trusted(GcdSplit, *_gcd_split(f0.q, f0.m, f0.entries, g0.entries), f0.entries[0],
                    g0.entries[0])


def extract_d(
    f1: QaryArray, g1: QaryArray, split: GcdSplit
) -> tuple[QaryArray, bool]:
    """Recover the second factor-pair component d from the x_m = 1 halves.

    The candidate is d(x_z2) = f1(0_z1, x_z2) + b*(0_z1); the returned flag
    reports whether the forced forms f1 = -b* + d and g1 = -a* + q/2 + d hold
    at every point.  A false flag means the original pair cannot have been
    complementary.  This is the decomposition's forced-form check run on a
    batch of one; a split that does not fit the halves is a ``ValueError``.
    """
    q, m, z1, z2 = f1.q, f1.m, split.z1_vars, split.z2_vars
    if (g1.q, g1.m) != (q, m):
        raise ValueError("shape or modulus mismatch")
    if sorted(z1 + z2) != list(range(1, m + 1)):
        raise ValueError(f"z1={z1} and z2={z2} do not partition the variables 1..{m}")
    if any((x.q, x.m) != (q, len(z)) for x, z in ((split.a, z1), (split.b, z1), (split.c, z2))):
        raise ValueError(f"a, b and c do not have q={q} and the dimensions of z1 and z2")
    return _forced_d(q, _shape(z1, z2), split.a.entries, split.b.entries, f1.entries, g1.entries)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Recursion tree recording one full decomposition.

    A node of dimension 0 stores only its parameters.  An inner node stores
    the split variable (always the highest), the common-part split, the
    recovered d with the offsets e, e' of its sub-pairs, the two
    sub-certificates, and the recombined parameters for its own pair.
    Replaying the tree bottom-up rebuilds the pair exactly.  The constructor
    checks types and presence only; whether the values agree, down to their
    ranges, is for the certifier (C1 to C13, :mod:`golaypairs.certify`).
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

    def __post_init__(self):
        inner = ("split_var", "e", "e_prime") if self.m != 0 else ()
        values = _integers((self.q, self.m, *(getattr(self, name) for name in inner)))
        parts = (self.params,) + ((self.split, self.d, self.left, self.right) if inner else ())
        types = (StandardParams, GcdSplit, QaryArray) + (DecompositionCertificate,) * 2
        if not all(map(isinstance, parts, types)):
            raise ValueError("params, split, d, left or right is missing or of the wrong type")
        self.__dict__.update(zip(("q", "m") + inner, values))

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


def decompose(
    f: QaryArray, g: QaryArray
) -> tuple[StandardParams, DecompositionCertificate]:
    """Decompose a complementary pair into standard parameters, with certificate.

    Complementarity of the input is established by the decomposition itself:
    the pointwise residual verifications at every node, together with the
    vacuous dimension-0 base case, hold if and only if (f, g) is a
    complementary pair, so no separate correlation sweep is run first.  A
    violated check raises :class:`NotAGapError` naming the first node, in
    depth-first order, whose forced form breaks.  On success the returned
    parameters regenerate (f, g) exactly and the certificate records every
    intermediate object of the descent; equal sub-pairs share one
    sub-certificate.  This is the census's stacked decomposition run on a
    batch of one, and the certificate objects are built only here.
    """
    if f.q != g.q or f.m != g.m:
        raise ValueError("shape or modulus mismatch")
    if f.q % 2:
        raise OddModulusError(
            f"decomposition is defined for even q only, got q={f.q}"
        )
    q = f.q
    forest = _decomposition(q, _claimed(_dtype(q), [(f, g)]), 1)
    if forest.failures:
        codes = [np.zeros(level.size, dtype=np.int8) for level in forest.levels]
        raise NotAGapError(_first_failure(forest, codes, tuple(forest.roots[0].tolist())))
    built: list[list] = []
    for k, (level, params) in enumerate(zip(forest.levels, _derive(forest))):
        found = _param_objects(q, k, params)
        nodes: list = ([_trusted(DecompositionCertificate, q, 0, p) for p in found] if k == 0
                       else [None] * level.size)
        for grp in level.groups:
            z1, z2 = grp.shape.z1, grp.shape.z2
            subs = _sub_pairs(grp.shape, grp.subs)
            for row, left, right, (a, b, c, d) in zip(grp.rows.tolist(), grp.left.tolist(),
                                                       grp.right.tolist(), subs):
                lower, upper = built[len(z1)][left], built[len(z2)][right]
                split = _trusted(GcdSplit, z1, z2, _array(q, len(z1), a), _array(q, len(z1), b),
                                 _array(q, len(z2), c), a[0], b[0])
                nodes[row] = _trusted(
                    DecompositionCertificate, q, k, found[row], k, split, _array(q, len(z2), d),
                    lower.params.c_prime, upper.params.c_prime, lower, upper,
                )
        built.append(nodes)
    cert = built[f.m][int(forest.roots[0, 1])]
    return cert.params, cert


def replay(cert: DecompositionCertificate) -> tuple[QaryArray, QaryArray]:
    """Rebuild the pair a certificate describes, bottom-up, from leaves only.

    Uses nothing but the children's rebuilt pairs and the split variable
    sets; the stored intermediate arrays are not consulted (they are
    cross-checked in :func:`verify_certificate`).  This is the certifier's
    rebuild run on a batch of one.  Raises :class:`VerificationError` if a
    node fails one of the checks of its shape (C1 to C5, the sizes of C6),
    which leave no pair to rebuild.
    """
    forest = _certificates(cert.q, [cert])
    walk = _check(forest, _derive(forest), 0)
    k, row = forest.roots[0].tolist()
    if k < 0:
        raise VerificationError(_first_failure(forest, walk.codes, (k, row)))
    f, g = walk.pairs[k][row].tolist()
    return _array(cert.q, k, f), _array(cert.q, k, g)


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
    the sub-pairs.  This is the census's certifier run on a batch of one
    (see the module docstring).  Raises :class:`VerificationError` on any
    mismatch.
    """
    failures = _certify(f.q, max_corr_dim, [(f, g)], [cert])[0]
    if failures:
        raise VerificationError(failures[0])


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
    lam = _subset_transform(fe, q, -1).tolist()
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
