"""Multilinear generating functions of q-ary arrays over Z[zeta_q].

The generating function of an array f is F(z) = sum_x zeta**f(x) * z**x, a
polynomial of degree at most one in each of the m variables.  Coefficients
are exact cyclotomic integers indexed by variable subsets (stored as bit
masks, same cell order as :class:`golaypairs.qarray.QaryArray`).

A GenFun also carries an explicit support: the set of variables it actually
uses.  Factors of array generating functions live on subsets of the global
variable space, and products of factors with disjoint supports are the only
polynomial products this module provides.  There is deliberately no general
multivariate multiplication or gcd here; structural factor recovery is done
combinatorially in :mod:`golaypairs.decompose`.

The public ``GenFun(...)`` constructor validates its fields.  The functions
below derive their results from validated values and build them unchecked,
under the rule stated in :mod:`golaypairs.qarray`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .cyclotomic import CycElement, _integers, get_context
from .qarray import QaryArray, _spread_masks, _trusted, all_shifts


@dataclass(frozen=True)
class GenFun:
    """Multilinear polynomial with cyclotomic integer coefficients."""

    q: int
    m: int
    support: frozenset
    coeffs: tuple[CycElement, ...]

    def __post_init__(self):
        q, m = _integers((self.q, self.m))
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        support = frozenset(_integers(self.support))
        if any(v < 1 or v > m for v in support):
            raise ValueError(f"support {set(support)} out of range for m={m}")
        coeffs = tuple(self.coeffs)
        if len(coeffs) != 1 << m:
            raise ValueError(f"expected {1 << m} coefficients")
        if not all(isinstance(c, CycElement) for c in coeffs):
            raise ValueError("coefficients must be CycElement values")
        if any(c.ctx.q != q for c in coeffs):
            raise ValueError("coefficient context mismatch")
        self.__dict__.update(q=q, m=m, support=support, coeffs=coeffs)
        mask = self.support_mask
        for t, c in enumerate(coeffs):
            if t & ~mask and not c.is_zero():
                raise ValueError(
                    f"nonzero coefficient at monomial {t:b} outside support"
                )

    @property
    def support_mask(self) -> int:
        mask = 0
        for v in self.support:
            mask |= 1 << (v - 1)
        return mask


def from_array(f: QaryArray) -> GenFun:
    """Generating function of an array; every coefficient is a root of unity."""
    ctx = get_context(f.q)
    return _trusted(
        GenFun,
        f.q,
        f.m,
        frozenset(range(1, f.m + 1)),
        tuple(ctx.root(v) for v in f.entries),
    )


def embed(fun: GenFun, vars_: Sequence[int], m: int) -> GenFun:
    """Re-index a GenFun onto the listed global variables inside m dimensions.

    Local variable j of ``fun`` becomes global variable ``vars_[j-1]``.
    """
    vt = tuple(int(v) for v in vars_)
    if len(vt) != fun.m or len(set(vt)) != len(vt):
        raise ValueError("variable list must match the local dimension")
    if any(v < 1 or v > m for v in vt):
        raise ValueError(f"target variables {vt} out of range for m={m}")
    ctx = get_context(fun.q)
    zero = ctx.zero()
    out = [zero] * (1 << m)
    for gmask, c in zip(_spread_masks(vt), fun.coeffs):
        out[gmask] = c
    support = frozenset(vt[v - 1] for v in fun.support)
    return _trusted(GenFun, fun.q, m, support, tuple(out))


def star(fun: GenFun, vars_: Sequence[int] | None = None) -> GenFun:
    """Degree-reversal: multiply by the top monomial and invert every variable.

    For a polynomial of degree d_k in variable z_k this maps the coefficient
    of a monomial to the coefficient of its complement within the degree
    mask.  For array generating functions (full degree one on the support)
    this is coefficient reversal.  When the intended degree mask differs from
    the stored support it must be passed explicitly via ``vars_``.
    """
    vt = tuple(sorted(fun.support)) if vars_ is None else tuple(int(v) for v in vars_)
    mask = 0
    for v in vt:
        if v < 1 or v > fun.m:
            raise ValueError(f"variable {v} out of range")
        mask |= 1 << (v - 1)
    if fun.support_mask & ~mask:
        raise ValueError("mask does not cover the support; degrees ambiguous")
    ctx = get_context(fun.q)
    zero = ctx.zero()
    out = [zero] * (1 << fun.m)
    for t, c in enumerate(fun.coeffs):
        out[mask ^ t] = c
    return _trusted(GenFun, fun.q, fun.m, frozenset(vt), tuple(out))


def disjoint_product(a: GenFun, b: GenFun) -> GenFun:
    """Product of two generating functions on disjoint variable sets."""
    if a.q != b.q or a.m != b.m:
        raise ValueError("shape or modulus mismatch")
    if a.support & b.support:
        raise ValueError(
            f"supports overlap on {sorted(a.support & b.support)}"
        )
    ctx = get_context(a.q)
    zero = ctx.zero()
    out = [zero] * (1 << a.m)
    sb = _spread_masks(sorted(b.support))
    for s in _spread_masks(sorted(a.support)):
        ca = a.coeffs[s]
        if ca.is_zero():
            continue  # one check saves a row of products
        for t in sb:
            out[s | t] = ca * b.coeffs[t]
    return _trusted(GenFun, a.q, a.m, a.support | b.support, tuple(out))


@lru_cache(maxsize=None)
def _overlap_pairs(m: int, tau: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j) with i = j + tau, both inside the cube.

    Built shift by shift, apart from the plan that :mod:`golaypairs.qarray`
    correlates with, so the coefficient route stays an independent check.
    """
    base = 0
    delta = 0
    free: list[int] = []
    for k, t in enumerate(tau):
        bit = 1 << k
        if t == 0:
            free.append(bit)
        elif t == 1:
            delta += bit
        else:
            base += bit
            delta -= bit
    idx = [base]
    for bit in free:
        idx += [s | bit for s in idx]
    return tuple((s + delta, s) for s in idx)


def correlation_via_coefficients(fun: GenFun) -> dict[tuple[int, ...], CycElement]:
    """Autocorrelation spectrum assembled from coefficient products.

    For each shift tau, the value is sum over overlapping cells x of
    coeff(x + tau) * conjugate(coeff(x)).  On array generating functions this
    reproduces the direct exponent-difference computation exactly, through an
    independent arithmetic route (generic ring products instead of exponent
    histograms).
    """
    ctx = get_context(fun.q)
    spectrum: dict[tuple[int, ...], CycElement] = {}
    coeffs = fun.coeffs
    for tau in all_shifts(fun.m):
        acc = ctx.zero()
        for i, j in _overlap_pairs(fun.m, tau):
            acc = acc + coeffs[i] * coeffs[j].conjugate()
        spectrum[tau] = acc
    return spectrum
