"""Exact arithmetic in Z[zeta_q], the ring of integer sums of q-th roots of unity.

Every correlation value computed by this package lives in this ring, so the
whole library can stay float-free.  An element is stored as a length-q vector
of signed integer multiplicities: ``counts[d]`` is the multiplicity of
``zeta**d`` where ``zeta = exp(2*pi*i/q)``.  The representation is not
canonical (for q = 4, ``1 + zeta**2`` and ``0`` denote the same value), but
zero testing is exact and decidable: a sum of q-th roots of unity vanishes
iff the q-th cyclotomic polynomial divides its exponent polynomial.  Equality
is zero testing of the difference.  The one width check is made when the
int64 reduction table of a modulus is built; :meth:`CycElement.canonical`
reads its entries as Python integers, so it is exact for any multiplicities.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import prod
from typing import Iterable

import numpy as np

# The reduction table holds phi(q) * q int64 entries, 8 B each: 134 MB at
# q = 4093, built in about 0.1 s.  Larger moduli are refused before it is built.
_MAX_Q = 4096
# get_context keeps contexts whose tables together take at most this many
# bytes: one table of a modulus near 4096 and small ones.
_CACHE_BYTES = 1 << 28


@lru_cache(maxsize=None)
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
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1:
        return (-1, 1)
    primes, n, p = [], q, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
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

    Holds the q-th cyclotomic polynomial, its degree phi(q), the reduction
    ``table``, a read-only int64 (phi(q), q) array whose column d is x**d
    modulo that polynomial, and its largest absolute entry ``max_entry``.
    Elements carry a reference to their context; mixing contexts raises.
    Moduli above 4096 are refused with ``ValueError``.
    """

    __slots__ = ("q", "phi", "degree", "table", "max_entry")

    def __init__(self, q: int):
        _check_modulus(q)
        self.q = q
        self.phi = cyclotomic_polynomial(q)
        deg = self.degree = len(self.phi) - 1
        # column d < deg is x**d; each later one is x times the one before,
        # with x**deg replaced by -(phi[0] + ... + phi[deg-1] x**(deg-1))
        table = np.eye(deg, q, dtype=np.int64)
        low = np.array(self.phi[:-1], dtype=np.int64)
        for d in range(deg, q):
            table[1:, d] = table[:-1, d - 1]
            if table[-1, d - 1]:
                table[:, d] -= table[-1, d - 1] * low
        # every step's terms are at most this product, so no step overflowed
        self.max_entry = max(int(table.max()), -int(table.min()))
        if self.max_entry * (1 + max(map(abs, self.phi))) >= 1 << 63:
            raise ValueError(f"reduction table too large for int64 at q={q}")
        table.flags.writeable = False
        self.table = table

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


def _check_modulus(q: int) -> None:
    if not 1 <= q <= _MAX_Q:
        raise ValueError(f"q must lie in 1..{_MAX_Q}, got {q}")


_contexts: dict[int, CycContext] = {}  # oldest first
_misses = 0  # contexts built by get_context
_lock = threading.Lock()


def get_context(q: int) -> CycContext:
    """Shared per-q context; contexts are immutable and safe to cache.

    Contexts are kept while their reduction tables take at most
    ``_CACHE_BYTES`` together.  The oldest ones are dropped before a new
    table is built, so a process holds the cap plus the one table it
    builds, and a cycle through a few small moduli never rebuilds one.

    Raises ``ValueError`` for q < 1 and for q above 4096.
    """
    global _misses
    ctx = _contexts.get(q)
    if ctx is not None:
        return ctx
    with _lock:
        ctx = _contexts.get(q)
        if ctx is None:
            _check_modulus(q)
            held = (len(cyclotomic_polynomial(q)) - 1) * q * 8
            held += sum(c.table.nbytes for c in _contexts.values())
            while _contexts and held > _CACHE_BYTES:
                held -= _contexts.pop(next(iter(_contexts))).table.nbytes
            ctx = _contexts[q] = CycContext(q)
            _misses += 1
        return ctx


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
        numbers iff their canonical forms coincide.  Columns d < phi(q) of
        the reduction table are unit vectors and are not read.
        """
        ctx, counts = self.ctx, self.counts
        out = list(counts[: ctx.degree])
        for d in range(ctx.degree, ctx.q):
            mult = counts[d]
            if mult:
                for i, rv in enumerate(ctx.table[:, d].tolist()):
                    if rv:
                        out[i] += mult * rv
        return tuple(out)

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
