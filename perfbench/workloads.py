"""Seeded inputs, ops and output checks of the benchmark workloads.

Every op goes through the surface users call: ``golaypairs.cli.main`` on
JSON files the benchmark generated, plus ``DecompositionCertificate.
from_json_dict`` and ``verify_certificate`` for the round trip.  Package
functions are looked up on their module at call time, so a tracer that
rebinds them sees every call.

Expected outputs come from the benchmark's own generator and from closed
forms, never from the package: standard pairs are built here from their
parameters, and the census pair count of an even-q space is the number of
standard pairs, m!/2 * q^(m+2).
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def random_params(rng: random.Random, q: int, m: int) -> dict:
    """Uniform standard parameters in the package's JSON form."""
    pi = list(range(1, m + 1))
    rng.shuffle(pi)
    return {
        "q": q,
        "m": m,
        "pi": pi,
        "c": [rng.randrange(q) for _ in range(m)],
        "c0": rng.randrange(q),
        "c_prime": rng.randrange(q),
    }


def standard_pair(params: dict) -> tuple[list[int], list[int]]:
    """Entries of the standard pair, m >= 1, evaluated cell by cell.

    f(x) = (q/2) sum_k x_pi(k) x_pi(k+1) + sum_v c_v x_v + c0 and
    g(x) = f(x) + (q/2) x_pi(1) + c', with cell index t = sum 2^(v-1) x_v.
    """
    q, m, pi, c = params["q"], params["m"], params["pi"], params["c"]
    half = q // 2
    f, g = [], []
    for t in range(1 << m):
        x = [(t >> k) & 1 for k in range(m)]
        v = params["c0"] + sum(cv * xv for cv, xv in zip(c, x))
        v += half * sum(x[pi[k] - 1] * x[pi[k + 1] - 1] for k in range(m - 1))
        f.append(v % q)
        g.append((v + half * x[pi[0] - 1] + params["c_prime"]) % q)
    return f, g


def census_report_text(q: int, m: int) -> str:
    """The canonical census report of (q, m), m >= 1: every pair standard."""
    pairs = math.factorial(m) * q ** (m + 2) // 2 if q % 2 == 0 else 0
    report = {
        "all_standard": True,
        "gap_pair_count": pairs,
        "m": m,
        "nonstandard_witnesses": [],
        "q": q,
        "standard_pair_count": pairs,
        "total_arrays": q ** (1 << m),
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _write_pair(path: Path, q: int, m: int, f: list[int], g: list[int]) -> str:
    pair = {
        "f": {"q": q, "m": m, "entries": f},
        "g": {"q": q, "m": m, "entries": g},
    }
    path.write_text(json.dumps(pair), encoding="utf-8")
    return str(path)


class Census:
    """One fixed census per op; the space itself is the input, so the seed
    changes nothing."""

    trace_ops = 1

    def __init__(self, gp, q: int, m: int, flags: list[str]):
        self.gp = gp
        self.argv = ["census", str(q), str(m), *flags]
        self.expected = census_report_text(q, m)

    def setup(self, seed: int, workdir: Path) -> None:
        pass

    def run(self, k: int):
        return call_cli(self.gp.cli, self.argv)

    def check(self, k: int, record) -> bool:
        return record == (0, self.expected)


class Roundtrip:
    """decompose a seeded standard pair, reload the certificate from the
    CLI's JSON, verify it and compare the parameters with the source."""

    Q_CYCLE = (2, 4, 8, 10)
    M = 10
    POOL = 64
    trace_ops = POOL

    def __init__(self, gp):
        self.gp = gp

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        QaryArray = self.gp.qarray.QaryArray
        self.items = []
        for k in range(self.POOL):
            q = self.Q_CYCLE[k % len(self.Q_CYCLE)]
            params = random_params(rng, q, self.M)
            f, g = standard_pair(params)
            path = _write_pair(workdir / f"rt{k}.json", q, self.M, f, g)
            arrays = (QaryArray(q, self.M, tuple(f)), QaryArray(q, self.M, tuple(g)))
            self.items.append((path, params, arrays))

    def run(self, k: int):
        path, _params, (f, g) = self.items[k % self.POOL]
        dec = self.gp.decompose
        code, out = call_cli(self.gp.cli, ["decompose", path])
        data = json.loads(out)
        cert = dec.DecompositionCertificate.from_json_dict(data["certificate"])
        dec.verify_certificate(f, g, cert, max_corr_dim=3)
        return code, out, data["params"]

    def check(self, k: int, record) -> bool:
        code, _out, params = record
        return code == 0 and params == self.items[k % self.POOL][1]


class Verify:
    """verify --format json on one standard pair, then three non-pairs.

    A non-pair is a standard pair with one entry of f or g moved by +1 mod q.
    That flips the sum at the shift whose only overlap is that cell and its
    antipode, so it can never be a pair; setup confirms it with is_gap.
    """

    Q_CYCLE = (2, 10)
    M = 10
    POOL = 32
    trace_ops = POOL

    def __init__(self, gp):
        self.gp = gp

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        qa = self.gp.qarray
        self.items = []
        for k in range(self.POOL):
            positive = k % 4 == 0
            index = k // 4 if positive else k - k // 4 - 1
            q = self.Q_CYCLE[index % len(self.Q_CYCLE)]
            f, g = standard_pair(random_params(rng, q, self.M))
            if not positive:
                e = f if rng.randrange(2) else g
                i = rng.randrange(len(e))
                e[i] = (e[i] + 1) % q
                if qa.is_gap(qa.QaryArray(q, self.M, tuple(f)), qa.QaryArray(q, self.M, tuple(g))):
                    raise RuntimeError(f"generated non-pair {k} is a pair")
            path = _write_pair(workdir / f"v{k}.json", q, self.M, f, g)
            self.items.append((path, positive, f, g))

    def run(self, k: int):
        path = self.items[k % self.POOL][0]
        return call_cli(self.gp.cli, ["verify", path, "--format", "json"])

    def check(self, k: int, record) -> bool:
        _path, positive, f, g = self.items[k % self.POOL]
        code, out = record
        payload = json.loads(out)
        if not positive:
            return code == 1 and payload == {
                "gap": False, "standard": None, "verdict": "not a GAP",
            }
        params = payload["standard"]
        return (
            code == 0
            and payload["gap"] is True
            and payload["verdict"] == "GAP; standard; pi=[" + ",".join(map(str, params["pi"])) + "]"
            and standard_pair(params) == (f, g)
        )


WORKLOADS = {
    "census-sweep": lambda gp: Census(gp, 5, 3, ["--workers", "1"]),
    "census-pairs": lambda gp: Census(gp, 4, 3, []),
    "roundtrip": Roundtrip,
    "verify": Verify,
}
