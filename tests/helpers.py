"""Independent oracles for the test suite.

Everything in this file recomputes expected values from first principles
(complex floating point, brute-force subset sweeps) without calling into the
package internals it is checking, so agreement is meaningful.
"""

import cmath
import random
from functools import lru_cache
from itertools import permutations, product


@lru_cache(maxsize=None)
def root_table(q: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * d / q) for d in range(q))


def reduction_columns(phi, q: int):
    """x**d modulo the monic polynomial ``phi`` (ascending coefficients),
    for d = 0 .. q-1, as lists of Python ints.

    Each power is the previous one times x, with x**deg replaced by
    -(phi[0] + ... + phi[deg-1] x**(deg-1)).
    """
    deg = len(phi) - 1
    cur = [1] + [0] * (deg - 1)
    for _ in range(q):
        yield cur
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, phi)]


def cyc_to_complex(element) -> complex:
    """Numeric value of a cyclotomic integer, from its raw counts only."""
    tab = root_table(element.ctx.q)
    return sum(c * t for c, t in zip(element.counts, tab))


def float_autocorrelation(q: int, m: int, entries, tau) -> complex:
    """Aperiodic autocorrelation at shift tau, summed in complex floats.

    Cells are walked directly: x contributes iff every coordinate of x + tau
    stays in {0, 1}.  No index tricks shared with the package.
    """
    tab = root_table(q)
    acc = 0j
    for x in range(1 << m):
        y = 0
        ok = True
        for k in range(m):
            yk = (x >> k & 1) + tau[k]
            if yk < 0 or yk > 1:
                ok = False
                break
            y |= yk << k
        if ok:
            acc += tab[(entries[y] - entries[x]) % q]
    return acc


def brute_histograms(q: int, rows, shifts) -> list[list[list[int]]]:
    """Exponent counts by direct loops over cells, as [group][d][shift].

    ``rows`` holds groups of equally long entry rows.  A shift is a tuple
    in {-1, 0, 1}**m over an array of 2**m cells, or a positive int over a
    sequence.  Entry [k][d][j] counts the cells x of every row r of group k
    whose shift by ``shifts[j]`` stays inside, with r[x + tau] - r[x] = d
    mod q.
    """
    out = []
    for group in rows:
        hist = [[0] * len(shifts) for _ in range(q)]
        for j, tau in enumerate(shifts):
            for row in group:
                for x in range(len(row)):
                    if isinstance(tau, int):
                        y = x + tau if x + tau < len(row) else None
                    else:
                        y = 0
                        for k, t in enumerate(tau):
                            yk = (x >> k & 1) + t
                            if yk not in (0, 1):
                                y = None
                                break
                            y |= yk << k
                    if y is not None:
                        hist[(row[y] - row[x]) % q][j] += 1
        out.append(hist)
    return out


def float_is_gap(q: int, m: int, e1, e2, tol: float = 1e-9) -> bool:
    for tau in product((-1, 0, 1), repeat=m):
        if not any(tau):
            continue
        v = float_autocorrelation(q, m, e1, tau) + float_autocorrelation(q, m, e2, tau)
        if abs(v) > tol:
            return False
    return True


def digits(q: int, m: int, ident: int) -> tuple[int, ...]:
    out = []
    for _ in range(1 << m):
        ident, r = divmod(ident, q)
        out.append(r)
    return tuple(out)


def quadratic_all_gaps(q: int, m: int) -> list[tuple[int, int]]:
    """All unordered complementary id pairs by the O(N^2) definition-level sweep."""
    n = q ** (1 << m)
    shifts = [tau for tau in product((-1, 0, 1), repeat=m) if any(tau)]
    spectra = []
    for ident in range(n):
        e = digits(q, m, ident)
        spectra.append([float_autocorrelation(q, m, e, tau) for tau in shifts])
    pairs = []
    for i in range(n):
        si = spectra[i]
        for j in range(i, n):
            sj = spectra[j]
            if all(abs(a + b) < 1e-9 for a, b in zip(si, sj)):
                pairs.append((i, j))
    return pairs


def _spread(vars_):
    masks = [0]
    for v in vars_:
        bit = 1 << (v - 1)
        masks += [s | bit for s in masks]
    return masks


def brute_finest_partition(q: int, m: int, entries) -> tuple[tuple[int, ...], ...]:
    """Finest additive variable partition by trying every bipartition.

    A block splits as (S, T) when f restricted to the block's subcube equals
    f(x_S, 0) + f(0, x_T) - f(0) everywhere; recursion on any valid split
    reaches the finest partition because interactions never cross a valid
    split.
    """
    base = entries[0]

    def separable(side_mask: int, other_mask: int, cells) -> bool:
        return all(
            entries[t] % q
            == (entries[t & side_mask] + entries[t & other_mask] - base) % q
            for t in cells
        )

    def split(block: tuple[int, ...]):
        if len(block) <= 1:
            return [block] if block else []
        cells = _spread(block)
        first, rest = block[0], block[1:]
        for bits in range(1 << len(rest)):
            side = (first,) + tuple(v for i, v in enumerate(rest) if bits >> i & 1)
            if len(side) == len(block):
                continue
            other = tuple(v for v in block if v not in side)
            smask = sum(1 << (v - 1) for v in side)
            omask = sum(1 << (v - 1) for v in other)
            if separable(smask, omask, cells):
                return split(side) + split(other)
        return [block]

    return tuple(sorted(split(tuple(range(1, m + 1)))))


def join_partitions(*partitions) -> tuple[tuple[int, ...], ...]:
    """Finest partition coarser than every given one, by merging blocks that
    share a variable until none do."""
    merged: list[set] = []
    for block in (set(b) for p in partitions for b in p):
        for other in [o for o in merged if o & block]:
            merged.remove(other)
            block |= other
        merged.append(block)
    return tuple(sorted(tuple(sorted(b)) for b in merged))


def block_sum(q: int, m: int, blocks) -> tuple[int, ...]:
    """Entries of x -> sum of table[x restricted to vars] over (vars, table)."""
    out = []
    for x in range(1 << m):
        total = 0
        for vars_, table in blocks:
            local = sum(1 << i for i, v in enumerate(vars_) if x >> (v - 1) & 1)
            total += table[local]
        out.append(total % q)
    return tuple(out)


@lru_cache(maxsize=None)
def standard_table(q: int, m: int) -> dict:
    """Every standard pair of even q and dimension m, keyed by entries.

    Maps (f entries, g entries) to (q, m, pi, c, c0, c') for every parameter
    set, evaluating f = (q/2) sum x_pi(k) x_pi(k+1) + sum c_k x_k + c0 and
    g = f + (q/2) x_pi(1) + c' cell by cell.  Asserts that no pair arises
    from two parameter sets.
    """
    half = q // 2
    cells = [tuple(x >> k & 1 for k in range(m)) for x in range(1 << m)]
    table: dict = {}
    for pi in permutations(range(1, m + 1)):
        path = [(pi[k] - 1, pi[k + 1] - 1) for k in range(m - 1)]
        for c in product(range(q), repeat=m):
            for c0 in range(q):
                f = tuple(
                    (half * sum(x[u] * x[v] for u, v in path)
                     + sum(ck * xk for ck, xk in zip(c, x)) + c0) % q
                    for x in cells
                )
                for cp in range(q):
                    g = tuple(
                        (fv + (half * x[pi[0] - 1] if m else 0) + cp) % q
                        for fv, x in zip(f, cells)
                    )
                    params = (q, m, pi, c, c0, cp)
                    assert table.setdefault((f, g), params) == params, (f, g)
    return table


def standard_pairs_by_params(q: int, m: int) -> list:
    """Every unordered standard pair of even q and dimension m, as
    (f entries, g entries) in census order, by the direct sweep.

    Runs every parameter set (pi, c, c0, c') through ``construct_standard``,
    orders each pair by id (reversed entries), drops repeats and sorts, with
    no quotient by the additive constants.
    """
    from golaypairs import StandardParams, construct_standard

    seen = set()
    for pi in permutations(range(1, m + 1)):
        for c in product(range(q), repeat=m):
            for c0, cp in product(range(q), repeat=2):
                f, g = construct_standard(StandardParams(q, m, pi, c, c0, cp))
                pair = sorted((f.entries, g.entries), key=lambda e: e[::-1])
                seen.add(tuple(pair))
    return sorted(seen, key=lambda pair: (pair[0][::-1], pair[1][::-1]))


def dict_star(poly: dict) -> dict:
    """Degree-reversal for small polynomials of arbitrary per-variable degree.

    Keys are degree tuples; the image of a monomial is its complement within
    the per-variable maximum degrees.  Mirrors the defining substitution
    z_k -> 1/z_k followed by multiplication with the full-degree monomial.
    """
    if not poly:
        return {}
    nvars = len(next(iter(poly)))
    top = tuple(max(k[i] for k in poly) for i in range(nvars))
    return {tuple(t - d for t, d in zip(top, key)): c for key, c in poly.items()}


def random_entries(rng: random.Random, q: int, m: int) -> tuple[int, ...]:
    return tuple(rng.randrange(q) for _ in range(1 << m))


def random_params_tuple(rng: random.Random, q: int, m: int):
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    return (
        q,
        m,
        tuple(pi),
        tuple(rng.randrange(q) for _ in range(m)),
        rng.randrange(q),
        rng.randrange(q),
    )
