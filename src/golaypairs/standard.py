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

from .boolfun import Anf, from_anf
from .errors import OddModulusError
from .qarray import QaryArray, _json_int


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
        if self.q < 2 or self.q % 2:
            raise OddModulusError(f"standard pairs require even q, got {self.q}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        pi = tuple(int(v) for v in self.pi)
        if sorted(pi) != list(range(1, self.m + 1)):
            raise ValueError(f"pi={pi} is not a permutation of 1..{self.m}")
        c = tuple(int(v) % self.q for v in self.c)
        if len(c) != self.m:
            raise ValueError(f"expected {self.m} linear constants, got {len(c)}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c0", int(self.c0) % self.q)
        object.__setattr__(self, "c_prime", int(self.c_prime) % self.q)

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
    coeffs: dict[frozenset, int] = {frozenset(): params.c0}
    for k in range(m - 1):
        coeffs[frozenset((pi[k], pi[k + 1]))] = half
    for var in range(1, m + 1):
        cv = params.c[var - 1]
        if cv:
            coeffs[frozenset((var,))] = cv
    f = from_anf(Anf(q, m, coeffs))
    if m == 0:
        g = f + params.c_prime
    else:
        start_bit = 1 << (pi[0] - 1)
        ge = tuple(
            (v + (half if t & start_bit else 0) + params.c_prime) % q
            for t, v in enumerate(f.entries)
        )
        g = QaryArray(q, m, ge)
    return f, g
