"""Algebraic normal form over Z_q and additive variable separability.

A q-ary array is a function {0,1}**m -> Z_q and has a unique expansion
f(x) = sum over subsets S of lambda_S * prod_{k in S} x_k (mod q), because
the subset zeta transform is unitriangular and therefore invertible over any
coefficient ring.  Two variables interact when some monomial with a nonzero
coefficient contains both; the connected components of that relation give the
finest partition of the variables across which f splits into an exact sum of
block functions.

The one subset transform, :func:`_subset_transform`, serves every caller:
these functions, standard form, its recognition and the decomposition's
split of a whole stack of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .cyclotomic import _integers
from .errors import PartitionTooFineError
from .qarray import QaryArray, combine, restrict

@lru_cache(maxsize=None)
def _subset_matrix(cells: int, sign: int) -> np.ndarray:
    """The subset transform on ``cells`` entries as a read-only int64
    matrix: entry (t, u) is sign**(|u| - |t|) when t is a subset of u."""
    t = np.arange(cells)
    odd = np.array([bin(x).count("1") & 1 for x in range(cells)])
    matrix = np.where((t[:, None] & t) == t[:, None], sign ** (odd[:, None] ^ odd), 0)
    matrix.flags.writeable = False
    return matrix


def _subset_transform(rows, q: int, sign: int) -> np.ndarray:
    """Subset Moebius (sign -1: values to ANF) or zeta (sign 1) transform
    mod q along the last axis of ``rows``, entries in 0..q-1.

    Up to 32 cells it is one product with :func:`_subset_matrix`, whose sums
    stay below q * cells.  Past that it is one step per variable, reduced
    once at the end while q * cells < 2**62 and at every step otherwise.
    Past q = 2**62 it works on Python integers.
    """
    out = np.array(rows, dtype=np.int64 if q <= 1 << 62 else object)
    cells = out.shape[-1]
    exact = out.dtype != object and q * cells < 1 << 62
    if exact and cells <= 32:
        return (out @ _subset_matrix(cells, sign)) % q
    bit = 1
    while bit < cells:
        blocks = out.reshape(-1, 2, bit)
        blocks[:, 1] += sign * blocks[:, 0]
        if not exact:
            blocks[:, 1] %= q
        bit <<= 1
    return out % q if exact else out


@dataclass(frozen=True, eq=True)
class Anf:
    """Algebraic normal form: subset -> coefficient map, zero entries omitted."""

    q: int
    m: int
    coeffs: Mapping[frozenset, int] = field(default_factory=dict)

    def __post_init__(self):
        q, m = _integers((self.q, self.m))
        if q < 1 or m < 0:
            raise ValueError(f"need q >= 1 and m >= 0, got q={q}, m={m}")
        clean = {}
        for subset, coeff in self.coeffs.items():
            s = frozenset(_integers(subset))
            if any(v < 1 or v > m for v in s):
                raise ValueError(f"monomial {set(s)} out of range for m={m}")
            c = _integers((coeff,))[0] % q
            if c:
                clean[s] = c
        self.__dict__.update(q=q, m=m, coeffs=clean)

    @property
    def degree(self) -> int:
        return max((len(s) for s in self.coeffs), default=0)


def to_anf(f: QaryArray) -> Anf:
    """Exact ANF of f via the subset Moebius transform."""
    lam = _subset_transform(f.entries, f.q, -1).tolist()
    coeffs = {}
    for mask, c in enumerate(lam):
        if c:
            coeffs[frozenset(k + 1 for k in range(f.m) if mask >> k & 1)] = c
    return Anf(f.q, f.m, coeffs)


def from_anf(a: Anf) -> QaryArray:
    """Tabulate an ANF back into a q-ary array (inverse of :func:`to_anf`)."""
    dense = [0] * (1 << a.m)
    for subset, coeff in a.coeffs.items():
        mask = 0
        for v in subset:
            mask |= 1 << (v - 1)
        dense[mask] = coeff
    return QaryArray(a.q, a.m, tuple(_subset_transform(dense, a.q, 1).tolist()))


@dataclass(frozen=True)
class VarPartition:
    """A partition of the variable set {1, ..., m} into disjoint blocks."""

    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        (m,) = _integers((self.m,))
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        norm = tuple(sorted(tuple(sorted(b)) for b in _integers(self.blocks, _integers)))
        seen: list[int] = []
        for b in norm:
            if not b:
                raise ValueError("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(1, m + 1)):
            raise ValueError(f"blocks {norm} do not partition 1..{m}")
        self.__dict__.update(m=m, blocks=norm)


def _components(m: int, monomials: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Sorted blocks of 1..m joined by the monomials, given as cell masks,
    that have a nonzero coefficient."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in monomials:
        rest = mask & (mask - 1)
        if rest:  # at least two bits set
            root = find((mask ^ rest).bit_length() - 1)
            while rest:
                low = rest & -rest
                parent[find(low.bit_length() - 1)] = root
                rest ^= low
    groups: dict[int, list[int]] = {}
    for v in range(m):
        groups.setdefault(find(v), []).append(v + 1)
    return tuple(sorted(tuple(g) for g in groups.values()))


def interaction_components(f: QaryArray) -> VarPartition:
    """Finest partition of the variables across which f is an exact sum.

    Variables i and j land in the same block iff some ANF monomial with a
    nonzero coefficient contains both.
    """
    lam = _subset_transform(f.entries, f.q, -1).tolist()
    return VarPartition(f.m, _components(f.m, (mask for mask, c in enumerate(lam) if c)))


def separate(f: QaryArray, p: VarPartition) -> tuple[list[QaryArray], int]:
    """Split f into per-block components along partition p, plus a constant.

    Each returned component is f restricted to its block, in the block's local
    coordinates, minus f(0), so it vanishes at the origin; the constant is
    f(0).  Their block sum is separable along p, so it equals f exactly when no
    monomial of f's normal form meets two blocks of p, i.e. when p is at least
    as coarse as :func:`interaction_components`.  Otherwise the split would
    break a genuine interaction and :class:`PartitionTooFineError` names the
    first cell where the block sum differs from f.
    """
    if p.m != f.m:
        raise ValueError("partition does not match array dimension")
    const = f.entries[0]
    parts = [restrict(f, block) + (-const) for block in p.blocks]
    rebuilt = combine(f.q, f.m, list(zip(p.blocks, parts)), const).entries
    if rebuilt != f.entries:
        cell = next(t for t, (r, v) in enumerate(zip(rebuilt, f.entries)) if r != v)
        raise PartitionTooFineError(
            f"partition {p.blocks} splits interacting variables: the block sum"
            f" differs from f at cell {cell}"
        )
    return parts, const
