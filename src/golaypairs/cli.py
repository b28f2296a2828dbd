"""Command-line front end over the JSON interchange formats.

Subcommands:

    construct PARAMS.json        parameters -> pair JSON {"f": ..., "g": ...}
    verify PAIR.json             complementarity verdict (+ standard form if even q)
    decompose PAIR.json          pair -> {"params": ..., "certificate": ...}
    project ARRAY.json           array -> its sequence, one comma-separated line
    census Q M                   exhaustive sweep -> census report JSON

Inputs are file paths, with ``-`` for stdin.  ``--output PATH`` redirects the
result (default stdout).  Exit codes: 0 success, 1 negative verdict (not a
pair / not standard), 2 malformed input, 3 budget refusal.  Outputs are
byte-identical for identical inputs and flags; census timing goes to stderr
so it never contaminates the report.  ``golaypairs --debug COMMAND ...``
also writes the DEBUG records of the ``golaypairs`` logger (the census's
counters and stage timings) to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Sequence

from .census import _MAX_BYTES, DEFAULT_BUDGET, verify_theorem
from .decompose import decompose, recognize_standard
from .errors import BudgetExceededError, NotAGapError, OddModulusError
from .qarray import QaryArray, is_gap
from .standard import StandardParams, construct_standard

_JSON_KW = {"sort_keys": True, "indent": 2}
# Peak memory of `construct` per array cell: 209 B between m = 18 and m = 20
# (83 and 240 MB), on Python 3.11; so m = 22 fits under `_MAX_BYTES` and
# m = 23 does not.
_CELL_BYTES = 210


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _write_output(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_pair(data) -> tuple[QaryArray, QaryArray]:
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise ValueError('a pair object must have the form {"f": ..., "g": ...}')
    f = QaryArray.from_json_dict(data["f"])
    g = QaryArray.from_json_dict(data["g"])
    if f.q != g.q or f.m != g.m:
        raise ValueError("pair members disagree in shape or modulus")
    return f, g


def _cmd_construct(args) -> int:
    params = StandardParams.from_json_dict(_read_json(args.input))
    need = _CELL_BYTES << params.m
    if need > _MAX_BYTES:
        raise BudgetExceededError(
            f"the pair at m={params.m} would need about {need >> 20} MiB,"
            f" over the memory budget of {_MAX_BYTES >> 20} MiB"
        )
    f, g = construct_standard(params)
    _write_output(
        json.dumps({"f": f.to_json_dict(), "g": g.to_json_dict()}, **_JSON_KW),
        args.output,
    )
    return 0


def _cmd_verify(args) -> int:
    f, g = _load_pair(_read_json(args.input))
    gap = is_gap(f, g)
    params = None
    if gap and f.q % 2 == 0:
        params = recognize_standard(f, g)
    if not gap:
        verdict = "not a GAP"
        code = 1
    elif f.q % 2:
        verdict = "GAP"
        code = 0
    elif params is None:
        verdict = "GAP; nonstandard"
        code = 1
    else:
        verdict = "GAP; standard; pi=[" + ",".join(map(str, params.pi)) + "]"
        code = 0
    if args.format == "json":
        payload = {
            "gap": gap,
            "standard": params.to_json_dict() if params is not None else None,
            "verdict": verdict,
        }
        _write_output(json.dumps(payload, **_JSON_KW), args.output)
    else:
        _write_output(verdict, args.output)
    return code


def _cmd_decompose(args) -> int:
    f, g = _load_pair(_read_json(args.input))
    params, cert = decompose(f, g)
    payload = {
        "params": params.to_json_dict(),
        "certificate": cert.to_json_dict(),
    }
    _write_output(json.dumps(payload, **_JSON_KW), args.output)
    return 0


def _cmd_project(args) -> int:
    arr = QaryArray.from_json_dict(_read_json(args.input))
    seq = arr.project_sequence()
    if args.format == "json":
        _write_output(json.dumps(list(seq), **_JSON_KW), args.output)
    else:
        _write_output(",".join(map(str, seq)), args.output)
    return 0


def _cmd_census(args) -> int:
    report = verify_theorem(
        args.q, args.m, budget=args.budget, workers=args.workers
    )
    print(f"census elapsed: {report.elapsed_seconds:.3f} s", file=sys.stderr)
    if args.format == "text":
        d = report.to_json_dict()
        lines = [
            f"q: {d['q']}",
            f"m: {d['m']}",
            f"total arrays: {d['total_arrays']}",
            f"complementary pairs: {d['gap_pair_count']}",
            f"standard pairs: {d['standard_pair_count']}",
            f"all standard: {'yes' if d['all_standard'] else 'no'}",
        ]
        for w in d["nonstandard_witnesses"]:
            lines.append(
                "witness: f=" + ",".join(map(str, w["f"]))
                + " g=" + ",".join(map(str, w["g"]))
            )
        _write_output("\n".join(lines), args.output)
    else:
        _write_output(json.dumps(report.to_json_dict(), **_JSON_KW), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golaypairs",
        description="Exact complementary array pair toolkit.",
    )
    parser.add_argument("--debug", action="store_true",
                        help="write the package's DEBUG records to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, with_format: bool) -> None:
        p.add_argument("input", help="input JSON file, or - for stdin")
        p.add_argument("--output", default=None, help="write result here")
        if with_format:
            p.add_argument(
                "--format", choices=("json", "text"), default="text",
                help="output rendering",
            )

    p = sub.add_parser("construct", help="expand parameters into a pair")
    add_io(p, with_format=False)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="complementarity and standard-form verdict")
    add_io(p, with_format=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("decompose", help="pair to parameters plus certificate")
    add_io(p, with_format=False)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("project", help="read an array out as a sequence")
    add_io(p, with_format=True)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("census", help="exhaustive sweep of one array space")
    p.add_argument("q", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="refuse spaces larger than this many arrays")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default=None, help="write report here")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output rendering")
    p.set_defaults(fn=_cmd_census)
    return parser


def _run(args) -> int:
    try:
        return args.fn(args)
    except NotAGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OddModulusError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.debug:
        return _run(args)
    logger = logging.getLogger("golaypairs")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
