"""The standard quadratic-path construction of complementary array pairs.

For even q, a permutation pi of {1, ..., m} and constants c_1..c_m, c_0,
c' in Z_q define the pair

    f = (q/2) * sum_{k=1..m-1} x_{pi(k)} x_{pi(k+1)}
        + sum_{k=1..m} c_k x_k + c_0
    g = f + (q/2) * x_{pi(1)} + c'

whose quadratic part walks a Hamiltonian path over the variables.  Linear
constants are stored per variable index (c_k multiplies x_k), not per path
position; the two conventions differ only by re-indexing through pi.

Dimension 0 degenerates to the pair of constants (c_0, c_0 + c').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .boolfun import _subset_transform
from .cyclotomic import _integers
from .errors import OddModulusError
from .qarray import QaryArray, _json_int, _trusted


@dataclass(frozen=True)
class StandardParams:
    """Parameters of a standard pair.  Constants are reduced mod q on entry."""

    q: int
    m: int
    pi: tuple[int, ...]
    c: tuple[int, ...]
    c0: int
    c_prime: int

    def __post_init__(self):
        q, m, c0, c_prime = _integers((self.q, self.m, self.c0, self.c_prime))
        if q < 2 or q % 2:
            raise OddModulusError(f"standard pairs require even q, got {q}")
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        pi = _integers(self.pi)
        if len(pi) != m or sorted(pi) != list(range(1, m + 1)):
            raise ValueError(f"pi={pi} is not a permutation of 1..{m}")
        c = tuple(v % q for v in _integers(self.c))
        if len(c) != m:
            raise ValueError(f"expected {m} linear constants, got {len(c)}")
        self.__dict__.update(q=q, m=m, pi=pi, c=c, c0=c0 % q, c_prime=c_prime % q)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "pi": list(self.pi),
            "c": list(self.c),
            "c0": self.c0,
            "c_prime": self.c_prime,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "StandardParams":
        try:
            return cls(
                _json_int(data["q"]),
                _json_int(data["m"]),
                tuple(_json_int(v) for v in data["pi"]),
                tuple(_json_int(v) for v in data["c"]),
                _json_int(data["c0"]),
                _json_int(data["c_prime"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed parameter object: {exc}") from exc


def construct_standard(params: StandardParams) -> tuple[QaryArray, QaryArray]:
    """Build the pair (f, g) described by ``params``.

    The result is always a complementary array pair; tests enforce this, the
    constructor does not re-verify it.
    """
    q, m, pi = params.q, params.m, params.pi
    half = q // 2
    anf = [0] * (1 << m)  # coefficient of the monomial on each variable mask
    anf[0] = params.c0
    for k in range(m - 1):
        anf[(1 << (pi[k] - 1)) | (1 << (pi[k + 1] - 1))] = half
    for k, cv in enumerate(params.c):
        anf[1 << k] = cv
    fe = _subset_transform(anf, q, 1).tolist()
    start_bit = 1 << (pi[0] - 1) if m else 0
    ge = [
        (v + (half if t & start_bit else 0) + params.c_prime) % q
        for t, v in enumerate(fe)
    ]
    return _trusted(QaryArray, q, m, tuple(fe)), _trusted(QaryArray, q, m, tuple(ge))
