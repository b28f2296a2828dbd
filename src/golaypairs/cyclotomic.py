"""Exact arithmetic in Z[zeta_q], the ring of integer sums of q-th roots of unity.

Every correlation value computed by this package lives in this ring, so the
whole library can stay float-free.  An element is stored as a length-q vector
of signed integer multiplicities: ``counts[d]`` is the multiplicity of
``zeta**d`` where ``zeta = exp(2*pi*i/q)``.  The representation is not
canonical (for q = 4, ``1 + zeta**2`` and ``0`` denote the same value), but
zero testing is exact and decidable: a sum of q-th roots of unity vanishes
iff the q-th cyclotomic polynomial divides its exponent polynomial.  Equality
is zero testing of the difference.  :meth:`CycElement.canonical` divides
by that polynomial on Python integers, so it is exact for any
multiplicities and needs no table.  The correlation kernel reduces in
another Z-basis, whose order of exponents the context fixes.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import prod
from typing import Iterable

import numpy as np

# canonical divides in (q - phi(q)) times the nonzero coefficients of
# Phi_q Python steps: at q = 4095, 0.08 s for an element with q small
# multiplicities and 0.12 s with 70-bit ones.  A correlation histogram has
# q bins per group and shift, so at this cap one shift of a stack of 64
# pairs fills qarray._BINS.
_MAX_Q = 4096


def _integers(values, item=operator.index) -> tuple:
    """The sequence ``values`` as a tuple of ints, or of ``item(v)`` for
    each v; numpy integers pass, and a non-iterable, floats and strings
    raise ``ValueError``.  Every constructor reads its integer and sequence
    fields through it."""
    try:
        return tuple(map(item, values))
    except TypeError as exc:
        raise ValueError(f"expected integers: {exc}") from None


def _primes(q: int) -> list[int]:
    """The distinct primes of q >= 1, ascending."""
    primes, n, p = [], q, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients of the q-th cyclotomic polynomial, ascending degree.

    With r the product of the distinct primes of q, Phi_q(x) = Phi_r(x^(q/r)),
    and for r > 1 Phi_r(x) is the product of (1 - x^d)^mu(r/d) over the
    divisors d of r.  That product is a polynomial of degree phi(r), so it
    is computed exactly as a power series truncated past that degree, one
    pass over phi(r) + 1 coefficients per factor, 2^k passes for k distinct
    primes.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    (q,) = _integers((q,))
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1:
        return (-1, 1)
    primes = _primes(q)
    r, size = prod(primes), prod(p - 1 for p in primes) + 1  # phi(r) + 1
    factors = [(r, 1)]  # (d, mu(r / d)) for every divisor d of r
    for p in primes:
        factors += [(d // p, -mu) for d, mu in factors]
    series = [1] + [0] * (size - 1)
    for d, mu in factors:
        if mu > 0:  # multiply by 1 - x^d
            for i in range(size - 1, d - 1, -1):
                series[i] -= series[i - d]
        else:  # divide by 1 - x^d, that is, multiply by 1 + x^d + x^2d + ...
            for i in range(d, size):
                series[i] += series[i - d]
    poly = [0] * ((size - 1) * (q // r) + 1)
    poly[:: q // r] = series
    return tuple(poly)


class CycContext:
    """Shared arithmetic context for a fixed root order q.

    Holds the q-th cyclotomic polynomial ``phi``, its degree phi(q), the
    distinct ``primes`` of q in ascending order and ``order``, the read-only
    int64 position of every exponent in the correlation kernel's coordinate
    order.  With r the product of the primes and q = r * s, exponent
    a*s + b goes to c*s + b, where c has the mixed-radix digits
    (a mod p_1, ..., a mod p_k), the last prime's lowest, so the kernel
    reduces along one axis per prime (see :mod:`golaypairs.qarray`).
    Elements carry a reference to their context; mixing contexts raises.
    A modulus that is not an integer in 1..4096 is refused with
    ``ValueError``.
    """

    __slots__ = ("q", "phi", "degree", "primes", "order")

    def __init__(self, q: int):
        (q,) = _integers((q,))
        if not 1 <= q <= _MAX_Q:
            raise ValueError(f"q must lie in 1..{_MAX_Q}, got {q}")
        self.q = q
        self.phi = cyclotomic_polynomial(q)
        self.degree = len(self.phi) - 1
        self.primes = tuple(_primes(q))
        s = q // prod(self.primes)
        a, b = np.divmod(np.arange(q, dtype=np.int64), s)
        c = np.zeros(q, dtype=np.int64)
        for p in self.primes:
            c = c * p + a % p
        order = c * s + b
        order.flags.writeable = False
        self.order = order

    def zero(self) -> "CycElement":
        return CycElement(self, (0,) * self.q)

    def one(self) -> "CycElement":
        return self.integer(1)

    def integer(self, n: int) -> "CycElement":
        counts = [0] * self.q
        counts[0] = n
        return CycElement(self, tuple(counts))

    def root(self, d: int) -> "CycElement":
        """The root of unity zeta**d.  The exponent is reduced mod q."""
        counts = [0] * self.q
        counts[d % self.q] = 1
        return CycElement(self, tuple(counts))

    def element(self, counts: Iterable[int]) -> "CycElement":
        tup = tuple(int(v) for v in counts)
        if len(tup) != self.q:
            raise ValueError(f"expected {self.q} multiplicities, got {len(tup)}")
        return CycElement(self, tup)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycContext):
            return self.q == other.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("CycContext", self.q))

    def __repr__(self) -> str:
        return f"CycContext(q={self.q})"


@lru_cache(maxsize=256, typed=True)
def get_context(q: int) -> CycContext:
    """Shared per-q context; contexts are immutable and safe to cache.

    Raises ``ValueError`` for a q that is not an integer, for q < 1 and for
    q above 4096; ``typed`` keeps a float q from hitting an int's entry.
    """
    return CycContext(q)


class CycElement:
    """An exact element of Z[zeta_q]: an integer combination of roots of unity.

    Instances are immutable.  Arithmetic returns new elements; none of the
    operations normalise the multiplicity vector, only :meth:`is_zero` and
    :meth:`canonical` consult the cyclotomic reduction.
    """

    __slots__ = ("ctx", "counts")

    def __init__(self, ctx: CycContext, counts: tuple[int, ...]):
        self.ctx = ctx
        self.counts = counts

    def _coerce(self, other: object) -> "CycElement | None":
        if isinstance(other, CycElement):
            if other.ctx.q != self.ctx.q:
                raise ValueError(
                    f"context mismatch: q={self.ctx.q} vs q={other.ctx.q}"
                )
            return other
        if isinstance(other, int):
            return self.ctx.integer(other)
        return None

    def __add__(self, other: object) -> "CycElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElement(self.ctx, tuple(a + b for a, b in zip(self.counts, o.counts)))

    __radd__ = __add__

    def __sub__(self, other: object) -> "CycElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElement(self.ctx, tuple(a - b for a, b in zip(self.counts, o.counts)))

    def __rsub__(self, other: object) -> "CycElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycElement":
        return CycElement(self.ctx, tuple(-a for a in self.counts))

    def __mul__(self, other: object) -> "CycElement":
        if isinstance(other, int):
            return CycElement(self.ctx, tuple(a * other for a in self.counts))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = self.ctx.q
        out = [0] * q
        for i, av in enumerate(self.counts):
            if av:
                for j, bv in enumerate(o.counts):
                    if bv:
                        k = i + j
                        if k >= q:
                            k -= q
                        out[k] += av * bv
        return CycElement(self.ctx, tuple(out))

    __rmul__ = __mul__

    def conjugate(self) -> "CycElement":
        """Complex conjugation: the multiplicity of zeta**d moves to zeta**(q-d)."""
        q = self.ctx.q
        counts = self.counts
        return CycElement(self.ctx, tuple(counts[(q - d) % q] for d in range(q)))

    def canonical(self) -> tuple[int, ...]:
        """Remainder of the exponent polynomial modulo the cyclotomic polynomial.

        A canonical form of length phi(q); two elements are equal as complex
        numbers iff their canonical forms coincide.  Long division on Python
        integers, top exponent first: Phi_q is monic of degree phi(q), so the
        multiplicity of x**(phi(q) + j) is taken off x**(j + i) times each
        nonzero coefficient of x**i below the top.
        """
        phi, deg = self.ctx.phi, self.ctx.degree
        low = [(i, c) for i, c in enumerate(phi[:deg]) if c]
        out = list(self.counts)
        for top in range(len(out) - 1, deg - 1, -1):
            mult = out[top]
            if mult:
                for i, c in low:
                    out[top - deg + i] -= mult * c
        return tuple(out[:deg])

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycElement):
            if other.ctx.q != self.ctx.q:
                return False
            return self.counts == other.counts or (self - other).is_zero()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.q, self.canonical()))

    def __repr__(self) -> str:
        terms = [
            f"{mult}*z^{d}" for d, mult in enumerate(self.counts) if mult
        ]
        body = " + ".join(terms) if terms else "0"
        return f"CycElement(q={self.ctx.q}, {body})"
