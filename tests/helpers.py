"""Independent oracles for the test suite.

Everything in this file recomputes expected values from first principles
(complex floating point, brute-force subset sweeps) without calling into the
package internals it is checking, so agreement is meaningful.
"""

import cmath
import random
from functools import lru_cache
from itertools import permutations, product
from math import gcd, prod

import numpy as np


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


def crt_exponents(q: int) -> list[int]:
    """The exponent d of the root zeta**d that each coordinate of the CRT
    basis of Z[zeta_q] stands for, in coordinate order.

    For the distinct primes p_1 < ... < p_k of q, r their product and
    q = r * s, the coordinate with mixed-radix digits (j_1, ..., j_k, b),
    j_i < p_i - 1 and b < s, is zeta**(a * s + b) for the a < r with
    a = j_i mod p_i for every i.
    """
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
    s = q // prod(primes)
    by_digits = {tuple(a % p for p in primes): a for a in range(q // s)}
    digits = product(*(range(p - 1) for p in primes))
    return [by_digits[js] * s + b for js in digits for b in range(s)]


def embeddings_vanish(counts) -> np.ndarray:
    """Whether each sum of counts[..., d] zeta**d is zero, q the length of
    the last axis, from its values under every embedding zeta -> zeta**u,
    u a unit mod q, in complex floats (a discrete Fourier transform).

    A nonzero algebraic integer has a norm, the product of those values,
    of absolute value at least 1, so one of the values is at least 1 in
    absolute value; the float error on small counts is far below 1/2.
    """
    counts = np.asarray(counts)
    q = counts.shape[-1]
    units = [u for u in range(q) if gcd(u, q) == 1]
    return (np.abs(np.fft.fft(counts)[..., units]) < 0.5).all(axis=-1)


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


def poly_divmod_exact(num, den) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials (ascending coefficients); den
    must be monic."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    if dd == 0:
        return list(num), []
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        coeff = rem[i]
        if coeff:
            quo[i - dd] = coeff
            for j, dv in enumerate(den):
                rem[i - dd + j] -= coeff * dv
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


# A reference certifier: the per-pair recursion that the package replaced
# with its stacked one, a node at a time in plain Python.  It shares only the
# public value types (arrays, parameters, certificates), the standard
# construction, the genfun identity C11 and ``is_gap`` with the package.


def _moebius(vals, q: int) -> list[int]:
    out = list(vals)
    bit = 1
    while bit < len(out):
        for t in range(len(out)):
            if t & bit:
                out[t] = (out[t] - out[t ^ bit]) % q
        bit <<= 1
    return out


def _blocks(m: int, *anfs) -> tuple[tuple[int, ...], ...]:
    """Variables 1..m grouped by the monomials with a nonzero coefficient
    in any of ``anfs``, as sorted blocks."""
    blocks = [{v} for v in range(1, m + 1)]
    for anf in anfs:
        for mask, coeff in enumerate(anf):
            if coeff and mask & (mask - 1):
                joined = {v for v in range(1, m + 1) if mask >> (v - 1) & 1}
                for block in [b for b in blocks if b & joined]:
                    blocks.remove(block)
                    joined |= block
                blocks.append(joined)
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _fill(q: int, m: int, z1, vals1, z2, vals2) -> tuple[int, ...]:
    out = [0] * (1 << m)
    for s1, v1 in zip(_spread(z1), vals1):
        for s2, v2 in zip(_spread(z2), vals2):
            out[s1 | s2] = (v1 + v2) % q
    return tuple(out)


def _halves(q: int, m: int, z1, z2, a, b, d):
    """Entries of the forced x_m = 1 halves -b* + d and -a* + q/2 + d."""
    return (
        _fill(q, m, z1, [(-v) % q for v in reversed(b)], z2, d),
        _fill(q, m, z1, [(q // 2 - v) % q for v in reversed(a)], z2, d),
    )


def reference_join(q: int, z1, z2, a, b, c, d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Entries of the node pair f = (a + c, -b* + d), g = (b + c, -a* + q/2
    + d), split on x_m = 1 + len(z1) + len(z2), of sub-pairs given as
    entries on the variables z1 and z2."""
    m = len(z1) + len(z2)
    f1, g1 = _halves(q, m, z1, z2, a, b, d)
    return _fill(q, m, z1, a, z2, c) + f1, _fill(q, m, z1, b, z2, c) + g1


def _recombined(q: int, m: int, z1, z2, left, right):
    from golaypairs import StandardParams

    c = [0] * m
    for local, var in enumerate(z1):
        c[var - 1] = left.c[local]
    for local, var in enumerate(z2):
        c[var - 1] = right.c[local]
    c[m - 1] = q // 2 * len(z1) - sum(left.c) - 2 * left.c0 + right.c_prime - left.c_prime
    path = [z1[j - 1] for j in left.pi] + [m] + [z2[j - 1] for j in right.pi]
    return StandardParams(q, m, tuple(path), tuple(c), left.c0 + right.c0, left.c_prime)


def reference_decompose(f, g):
    """The certificate of (f, g), decomposed node by node; raises
    ``NotAGapError`` at the first node, depth first, whose forced form
    breaks."""
    from golaypairs import (
        DecompositionCertificate, GcdSplit, NotAGapError, QaryArray, StandardParams,
    )

    q, m = f.q, f.m
    fe, ge = f.entries, g.entries
    if m == 0:
        return DecompositionCertificate(q, 0, StandardParams(q, 0, (), (), fe[0], ge[0] - fe[0]))
    h = 1 << (m - 1)
    f0, f1, g0, g1 = fe[:h], fe[h:], ge[:h], ge[h:]
    base = (g0[0] - f0[0]) % q
    z2 = [
        v
        for block in _blocks(m - 1, _moebius(f0, q), _moebius(g0, q))
        if all((g0[s] - f0[s]) % q == base for s in _spread(block))
        for v in block
    ]
    z2 = tuple(sorted(z2))
    z1 = tuple(v for v in range(1, m) if v not in z2)
    a = [f0[s] for s in _spread(z1)]
    b = [g0[s] for s in _spread(z1)]
    c = [(f0[s] - f0[0]) % q for s in _spread(z2)]
    d = [(f1[s] + b[-1]) % q for s in _spread(z2)]
    want = _halves(q, m - 1, z1, z2, a, b, d)
    for cell, (wf, wg) in enumerate(zip(*want)):
        for name, have, wanted in (("f1 differs from -b* + d", f1, wf),
                                   ("g1 differs from -a* + q/2 + d", g1, wg)):
            if have[cell] != wanted:
                raise NotAGapError(
                    "not a complementary pair: residual halves violate the forced form"
                    f" at dimension {m}: {name} at cell {cell}"
                )
    arrays = [QaryArray(q, len(z), tuple(e)) for z, e in ((z1, a), (z1, b), (z2, c), (z2, d))]
    left = reference_decompose(arrays[0], arrays[1])
    right = reference_decompose(arrays[2], arrays[3])
    params = _recombined(q, m, z1, z2, left.params, right.params)
    split = GcdSplit(z1, z2, arrays[0], arrays[1], arrays[2], a[0], b[0])
    return DecompositionCertificate(
        q, m, params, m, split, arrays[3], left.params.c_prime, right.params.c_prime, left, right
    )


def reference_walk(node, max_corr_dim: int):
    """(f entries, g entries, rows) of a certificate checked bottom-up; rows
    are (dimension, f entries, g entries) of its inner nodes up to
    ``max_corr_dim``, children first.  Raises ``VerificationError`` at the
    first failing check."""
    from golaypairs import (
        QaryArray, VerificationError, construct_standard, disjoint_product, embed, from_array,
    )

    def fail(message):
        raise VerificationError(f"certificate verification failed: {message}")

    q, m = node.q, node.m
    if (node.params.q, node.params.m) != (q, m):
        fail(f"node parameters do not have the node's q={q} and m={m}")
    if m == 0:
        f, g = construct_standard(node.params)
        return f.entries, g.entries, ()
    if node.split_var != m:
        fail(f"split variable {node.split_var} is not the highest ({m})")
    a, b, left_rows = reference_walk(node.left, max_corr_dim)
    c, d, right_rows = reference_walk(node.right, max_corr_dim)
    split = node.split
    z1, z2 = tuple(split.z1_vars), tuple(split.z2_vars)
    if sorted(z1 + z2) != list(range(1, m)):
        fail("split variable sets do not partition the remaining variables")
    if node.left.q != q or node.right.q != q:
        fail("sub-certificates do not have the node's modulus")
    if (node.left.m, node.right.m) != (len(z1), len(z2)):
        fail("sub-certificate dimensions do not match the split variable sets")
    stored = (split.a, split.b, split.c, node.d)
    walked = [QaryArray(q, len(z), e) for z, e in ((z1, a), (z1, b), (z2, c), (z2, d))]
    if list(stored) != walked:
        fail("stored intermediate arrays disagree with sub-certificates")
    if split.f0_const != split.a.entries[0] or split.g0_const != split.b.entries[0]:
        fail("stored normalisation constants are inconsistent")
    if split.c.entries[0] != 0:
        fail("common part is not origin-normalised")
    if node.e != node.left.params.c_prime or node.e_prime != node.right.params.c_prime:
        fail("stored offsets disagree with sub-parameters")
    if node.params != _recombined(q, m, z1, z2, node.left.params, node.right.params):
        fail("node parameters are not the recombination of the children")
    f, g = reference_join(q, z1, z2, a, b, c, d)
    rows = left_rows + right_rows
    if m <= max_corr_dim:
        rows += ((m, f, g),)
        product = disjoint_product(
            embed(from_array(walked[0]), z1, m - 1), embed(from_array(walked[2]), z2, m - 1)
        )
        if product != from_array(QaryArray(q, m - 1, f[: 1 << (m - 1)])):
            fail("factor product does not rebuild the restriction")
    return f, g, rows


def reference_replay(node):
    """(f entries, g entries) that a certificate's leaves rebuild, its stored
    arrays unread.  If some node fails a check of its shape (C1 to C5, the
    sizes of C6), which leaves no pair to rebuild, raises the first failure
    of the walk, ``reference_walk(node, 0)``'s."""
    from golaypairs import QaryArray, construct_standard

    def rebuild(node):
        q, m = node.q, node.m
        if (node.params.q, node.params.m) != (q, m):
            return None
        if m == 0:
            f, g = construct_standard(node.params)
            return f.entries, g.entries
        if node.split_var != m:
            return None
        left, right = rebuild(node.left), rebuild(node.right)
        split = node.split
        z1, z2 = tuple(split.z1_vars), tuple(split.z2_vars)
        sized = [
            isinstance(arr, QaryArray) and (arr.q, arr.m) == (q, len(z))
            for arr, z in ((split.a, z1), (split.b, z1), (split.c, z2), (node.d, z2))
        ]
        if (left is None or right is None or sorted(z1 + z2) != list(range(1, m))
                or (node.left.q, node.right.q) != (q, q)
                or (node.left.m, node.right.m) != (len(z1), len(z2)) or not all(sized)):
            return None
        return reference_join(q, z1, z2, *left, *right)

    pair = rebuild(node)
    if pair is None:
        reference_walk(node, 0)
        raise AssertionError("the walk meets no failure below a node that fails its shape")
    return pair


def reference_certify(q: int, max_corr_dim: int, pairs, certs=None):
    """(failures, rows per dimension) of a batch, pair by pair: the first
    failure message of each failing pair by index, a walk failure before
    C13 before the correlation failures, which name the first dimension the
    pair's walk met among those with a non-complementary row."""
    from golaypairs import NotAGapError, QaryArray, VerificationError, is_gap

    failures, counts = {}, {}
    for i, (f, g) in enumerate(pairs):
        try:
            cert = reference_decompose(f, g) if certs is None else certs[i]
            ff, gg, rows = reference_walk(cert, max_corr_dim)
            if (cert.q, cert.m, ff, gg) != (f.q, f.m, f.entries, g.entries) or g.m != f.m or g.q != f.q:
                raise VerificationError(
                    "certificate verification failed: replayed pair differs from the claimed pair"
                )
        except (NotAGapError, VerificationError) as exc:
            failures[i] = str(exc)
            continue
        broken = {}
        for dim, fe, ge in rows:
            counts[dim] = counts.get(dim, 0) + 1
            ok = is_gap(QaryArray(q, dim, fe), QaryArray(q, dim, ge))
            broken[dim] = broken.get(dim, False) or not ok
        dim = next((d for d, bad in broken.items() if bad), None)
        if dim is not None:
            failures[i] = (
                f"certificate verification failed: a node pair of dimension {dim}"
                " is not complementary"
            )
    return failures, counts


# A non-pair whose decomposition breaks deeper on the left than on the right:
# the root's x_m = 1 halves (q = 4, m = 6) have their forced form, its left
# sub-pair (dimension 3) breaks at dimension 1, and its right sub-pair
# (dimension 2) at its own top.
DEEPER_LEFT_BREAK = (
    (0, 1, 1, 2, 3, 0, 0, 1, 0, 3, 1, 0, 3, 2, 0, 3, 0, 1, 0, 1, 1, 2, 1, 2, 0, 3, 0, 3,
     1, 0, 1, 0, 2, 1, 3, 2, 3, 2, 0, 3, 2, 0, 3, 1, 3, 1, 0, 2, 2, 1, 2, 1, 1, 0, 1, 0,
     2, 0, 2, 0, 1, 3, 1, 3),
    (2, 3, 2, 3, 1, 2, 1, 2, 2, 1, 2, 1, 1, 0, 1, 0, 3, 0, 0, 1, 0, 1, 1, 2, 3, 2, 0, 3,
     0, 3, 1, 0, 0, 3, 0, 3, 1, 0, 1, 0, 0, 2, 0, 2, 1, 3, 1, 3, 1, 0, 2, 1, 0, 3, 1, 0,
     1, 3, 2, 0, 0, 2, 1, 3),
)
