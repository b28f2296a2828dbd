"""A seeded corpus of certifier outcomes, printed as digests.

    python tests/tamper_corpus.py SRC SEED N [--records PATH]

imports ``golaypairs`` from the directory SRC (a checkout's ``src``), so two
trees can be compared on the same corpus: equal digests mean every outcome
and message is the same.  The corpus of one SEED has five parts:

- ``tampered``: N certificates of standard pairs (q in {2, 4, 6, 8, 10}, m 1
  to 6), each dumped to JSON with one to three random edits (none, one time
  in ten), reloaded, and run through ``verify_certificate`` (at a random
  depth, against the pair or, one time in ten, the pair with a cell moved)
  and ``replay``;
- ``batches``: N // 15 batches of standard pairs, one-cell-moved non-pairs
  and pairs joined from sub-pairs with a cell moved, decomposed and certified
  together: their messages, rows per dimension and sharing counters;
- ``decompose``: each of those pairs' ``decompose`` outcome;
- ``built``: N // 3 certificates of standard pairs edited in Python, not
  through JSON: at a random node, one field of the node or of its split is
  set with ``dataclasses.replace`` to None, a float, a numpy integer or a
  value of another type, and the edited node is spliced back into the tree.
  Its record is the outcome of that construction and, if it succeeds, of
  ``verify_certificate`` and ``replay``;
- ``typed``: N // 3 certificates of standard pairs dumped to JSON, with one
  integer of one random node swapped for a bool, a float, a numeric string,
  null or a list: a node's own integer, a split constant, a variable set or
  one of its entries, a ``params`` field or entry, or the ``q``, ``m``,
  ``entries`` or one entry of an array.  Its record is the outcome of the
  reload and, if that succeeds, of ``verify_certificate``.

Each record is the JSON of an outcome; a part's digest is the SHA-256 of its
records, one a line.  The corpus digest covers the first three parts, so it
stays comparable with trees from before ``built`` and ``typed``, which are
drawn last, in that order, and do not move the others.  ``--records``
writes every record to PATH as well.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import random
import sys


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return ["ok", fn(*args)]
    except Exception as exc:  # every failure is an outcome to compare
        return ["raised", type(exc).__name__, str(exc)]


def _nodes(data: dict) -> list[dict]:
    """The certificate objects of a certificate's JSON, root first."""
    out, todo = [], [data]
    while todo:
        node = todo.pop()
        out.append(node)
        todo += [node[side] for side in ("left", "right") if isinstance(node.get(side), dict)]
    return out


def _edit_array(rng: random.Random, arr: dict) -> None:
    how = rng.randrange(4)
    if how == 0 and arr["entries"]:
        cell = rng.randrange(len(arr["entries"]))
        arr["entries"][cell] = (arr["entries"][cell] + rng.randrange(1, 3)) % arr["q"]
    elif how == 1 and arr["m"]:  # a valid array one dimension down
        arr["m"] -= 1
        arr["entries"] = arr["entries"][: len(arr["entries"]) // 2]
    elif how == 2:  # a valid array one dimension up
        arr["m"] += 1
        arr["entries"] = arr["entries"] * 2
    else:
        arr["q"] = rng.choice((arr["q"] + 2, max(1, arr["q"] - 2)))


def _edit(rng: random.Random, data: dict) -> None:
    """One random edit of a random object of the certificate JSON ``data``."""
    nodes = _nodes(data)
    inner = [node for node in nodes if "left" in node]
    node = rng.choice(inner if inner and rng.random() < 0.8 else nodes)
    key = rng.choice(("q", "m") if rng.random() < 0.1 else sorted(set(node) - {"q", "m"}))
    value = node[key]
    q = node["q"] if isinstance(node["q"], int) and node["q"] > 0 else 2
    if key in ("left", "right"):
        how = rng.randrange(3)
        if how == 0:
            node["left"], node["right"] = node["right"], node["left"]
        elif how == 1:
            node[key] = copy.deepcopy(rng.choice(nodes))
        else:
            node[key] = copy.deepcopy(node["left" if key == "right" else "right"])
    elif key in ("z1_vars", "z2_vars"):
        other = node["z2_vars" if key == "z1_vars" else "z1_vars"]
        how = rng.randrange(3)
        if how == 0 and value:
            other.append(value.pop(rng.randrange(len(value))))
        elif how == 1 and len(value) > 1:
            value.reverse()
        else:
            value.append(rng.randrange(1, node["m"] + 2))
    elif key in ("a", "b", "c", "d"):
        _edit_array(rng, value)
    elif key == "params":
        field = rng.choice(("q", "m", "pi", "c", "c0", "c_prime"))
        if field in ("pi", "c") and not value[field]:
            value[field].append(1)
        elif field in ("pi", "c"):
            j = rng.randrange(len(value[field]))
            value[field][j] = (value[field][j] + 1) % (value["m"] + 1 if field == "pi" else q)
        elif field in ("q", "m"):
            value[field] += rng.choice((-1, 1))
        else:
            value[field] = (value[field] + 1) % q
    elif key in ("q", "m", "split_var"):
        node[key] = value + rng.choice((-1, 1))
    else:  # f0_const, g0_const, e, e_prime
        node[key] = (value + rng.randrange(1, q)) % q if q > 1 else value + 1


def _standard_pair(rng: random.Random, q: int, m: int):
    from golaypairs import StandardParams, construct_standard
    from helpers import random_params_tuple

    return construct_standard(StandardParams(*random_params_tuple(rng, q, m)))


def _moved(rng: random.Random, q: int, entries: tuple) -> tuple:
    cell = rng.randrange(len(entries))
    out = list(entries)
    out[cell] = (out[cell] + 1) % q
    return tuple(out)


def _tampered(rng: random.Random, records: list) -> None:
    from golaypairs import (
        DecompositionCertificate, QaryArray, decompose, replay, verify_certificate,
    )

    q, m = rng.choice((2, 4, 6, 8, 10)), rng.randint(1, 6)
    f, g = _standard_pair(rng, q, m)
    data = decompose(f, g)[1].to_json_dict()
    for _ in range(0 if rng.random() < 0.1 else rng.randint(1, 3)):
        _edit(rng, data)
    if rng.random() < 0.1:
        f = QaryArray(q, m, _moved(rng, q, f.entries))
    depth = rng.randint(0, m + 1)
    loaded = _outcome(DecompositionCertificate.from_json_dict, data)
    record = [loaded if loaded[0] == "raised" else "loaded"]
    if loaded[0] == "ok":
        cert = loaded[1]
        record.append(_outcome(verify_certificate, f, g, cert, depth))
        rebuilt = _outcome(replay, cert)
        if rebuilt[0] == "ok":
            rebuilt[1] = [arr.to_json_dict() for arr in rebuilt[1]]
        record.append(rebuilt)
    records.append(record)


def _paths(cert) -> list[tuple[tuple[str, ...], object]]:
    """Each node of a decomposed certificate with the sides that lead to it."""
    out, todo = [], [((), cert)]
    while todo:
        path, node = todo.pop()
        out.append((path, node))
        if node.m:
            todo += [(path + (side,), getattr(node, side)) for side in ("left", "right")]
    return out


def _splice(root, path: tuple[str, ...], node):
    """``root`` with its node at ``path`` replaced by ``node``."""
    if not path:
        return node
    return dataclasses.replace(root, **{path[0]: _splice(getattr(root, path[0]), path[1:], node)})


def _wrong(how: str, field: str, node, value):
    """The value that edit ``how`` puts into ``field`` in place of ``value``."""
    import numpy as np

    if how == "none":
        return None
    if field in ("z1_vars", "z2_vars"):
        if how == "numpy":
            return np.array(value, dtype=np.int64)
        return tuple(map(float if how == "float" else str, value))
    if how == "float":
        return float(value)
    if how == "numpy":
        return np.int64(value)
    if field == "params":
        return value.to_json_dict()
    if field in ("a", "b", "c", "d"):
        return value.entries
    if field == "split":
        return node.d
    if field in ("left", "right"):
        return value.params
    return str(value)


def _built(rng: random.Random, records: list) -> None:
    from golaypairs import decompose, replay, verify_certificate

    q, m = rng.choice((2, 4, 6, 8, 10)), rng.randint(1, 6)
    f, g = _standard_pair(rng, q, m)
    cert = decompose(f, g)[1]
    path, node = rng.choice(_paths(cert))
    how = rng.choice(("none", "float", "numpy", "type"))
    on_split = node.m > 0 and rng.random() < 0.4
    if on_split:
        ints, parts = ("z1_vars", "z2_vars", "f0_const", "g0_const"), ("a", "b", "c")
    elif node.m:
        ints, parts = ("q", "m", "split_var", "e", "e_prime"), ("params", "split", "d", "left",
                                                                "right")
    else:
        ints, parts = ("q", "m"), ("params",)
    field = rng.choice(ints + parts if how in ("none", "type") else ints)
    depth = rng.randint(0, m + 1)
    obj = node.split if on_split else node
    new = _wrong(how, field, node, getattr(obj, field))

    def build():
        edited = dataclasses.replace(obj, **{field: new})
        return _splice(cert, path, dataclasses.replace(node, split=edited) if on_split else edited)

    made = _outcome(build)
    record = [[how, field, on_split, list(path)], made if made[0] == "raised" else "built"]
    if made[0] == "ok":
        record.append(_outcome(verify_certificate, f, g, made[1], depth))
        rebuilt = _outcome(replay, made[1])
        if rebuilt[0] == "ok":
            rebuilt[1] = [arr.to_json_dict() for arr in rebuilt[1]]
        record.append(rebuilt)
    records.append(record)


_TYPED_FIELDS = {
    "node": ("q", "m", "split_var", "e", "e_prime", "f0_const", "g0_const", "z1_vars",
             "z2_vars"),
    "params": ("q", "m", "pi", "c", "c0", "c_prime"),
    **dict.fromkeys("abcd", ("q", "m", "entries")),
}


def _retyped(rng: random.Random, how: str, value):
    """The value of type ``how`` that takes the place of ``value``, an int
    or a list of ints."""
    if how == "bool":
        return rng.random() < 0.5
    if how == "float":
        return float(value if isinstance(value, int) else len(value))
    if how == "string":
        return str(value) if isinstance(value, int) else "".join(map(str, value))
    if how == "null":
        return None
    return [value]


def _typed(rng: random.Random, records: list) -> None:
    from golaypairs import DecompositionCertificate, decompose, verify_certificate

    q, m = rng.choice((2, 4, 6, 8, 10)), rng.randint(1, 6)
    f, g = _standard_pair(rng, q, m)
    data = decompose(f, g)[1].to_json_dict()
    nodes = _nodes(data)
    at = rng.randrange(len(nodes))
    node = nodes[at]
    slots = [(name, field) for name, fields in _TYPED_FIELDS.items() for field in fields
             if field in (node if name == "node" else node.get(name, ()))]
    name, field = rng.choice(slots)
    obj, key = (node if name == "node" else node[name]), field
    entry = None
    if isinstance(obj[key], list) and obj[key] and rng.random() < 0.5:
        entry = rng.randrange(len(obj[key]))
        obj, key = obj[key], entry
    how = rng.choice(("bool", "float", "string", "null", "list"))
    obj[key] = _retyped(rng, how, obj[key])
    depth = rng.randint(0, m + 1)
    loaded = _outcome(DecompositionCertificate.from_json_dict, data)
    record = [[how, at, name, field, entry], loaded if loaded[0] == "raised" else "loaded"]
    if loaded[0] == "ok":
        record.append(_outcome(verify_certificate, f, g, loaded[1], depth))
    records.append(record)


def _batch(rng: random.Random, batches: list, decomposed: list) -> None:
    from golaypairs import QaryArray, decompose
    from golaypairs.certify import _certify
    from helpers import reference_join

    q, m = rng.choice((2, 4, 6, 8)), rng.randint(1, 5)
    pairs = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(3)
        f, g = _standard_pair(rng, q, m)
        if kind == 1:
            f = QaryArray(q, m, _moved(rng, q, f.entries))
        elif kind == 2:
            on_left = [rng.random() < 0.5 for _ in range(m - 1)]
            z1 = tuple(v for v, side in enumerate(on_left, 1) if side)
            z2 = tuple(v for v, side in enumerate(on_left, 1) if not side)
            subs = []
            for k in (len(z1), len(z2)):
                a, b = (arr.entries for arr in _standard_pair(rng, q, k))
                subs += [_moved(rng, q, a) if k and rng.random() < 0.5 else a, b]
            f, g = (QaryArray(q, m, e) for e in reference_join(q, z1, z2, *subs))
        pairs.append((f, g))
    failures, counts, shared = _certify(q, rng.randint(0, m + 1), pairs)[:3]
    batches.append([sorted(failures.items()), sorted(counts.items()), list(shared)])
    for f, g in pairs:
        found = _outcome(decompose, f, g)
        if found[0] == "ok":
            found[1] = [found[1][0].to_json_dict(), found[1][1].to_json_dict()]
        decomposed.append(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the directory to import golaypairs from")
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int, help="tampered certificates; batches are n // 15")
    parser.add_argument("--records", default=None, help="also write every record here")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.dirname(os.path.abspath(__file__))]
    rng = random.Random(args.seed)
    parts: dict[str, list] = {
        "tampered": [], "batches": [], "decompose": [], "built": [], "typed": [],
    }
    for _ in range(args.n):
        _tampered(rng, parts["tampered"])
    for _ in range(args.n // 15):
        _batch(rng, parts["batches"], parts["decompose"])
    for _ in range(args.n // 3):
        _built(rng, parts["built"])
    for _ in range(args.n // 3):
        _typed(rng, parts["typed"])
    whole = hashlib.sha256()
    out = open(args.records, "w", encoding="utf-8") if args.records else None
    try:
        for name, records in parts.items():
            # repr shows a value that is not JSON, such as a numpy integer
            lines = [json.dumps([name, r], sort_keys=True, default=repr) + "\n" for r in records]
            digest = hashlib.sha256("".join(lines).encode()).hexdigest()
            if name not in ("built", "typed"):
                whole.update(digest.encode())
            print(f"{name}: {len(records)} records, sha256 {digest[:16]}")
            if out is not None:
                out.writelines(lines)
    finally:
        if out is not None:
            out.close()
    accepted = sum(1 for r in parts["tampered"] if r[1:2] == [["ok", None]])
    print(f"accepted certificates: {accepted}; corpus sha256 {whole.hexdigest()[:16]}")
    accepted = sum(1 for r in parts["built"] if r[2:3] == [["ok", None]])
    print(f"accepted built edits: {accepted}")
    loaded = sum(1 for r in parts["typed"] if r[1] == "loaded")
    print(f"loaded typed swaps: {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
