"""Per-layer tracing of golaypairs, applied from outside the package.

The tracer wraps public functions and methods of the package's modules.
Several modules bind functions with ``from .x import f``, so every module of
the package that holds the original object gets the wrapper, not only the
defining module; methods are wrapped on their class.  ``uninstall`` puts the
originals back.

Span targets record one span per call: an id, the id of the enclosing traced
span (0 at top level), the op id, the target name, start and end in
nanoseconds, and a tag.  Count targets only count calls, because they are
called so often that a span would cost more than the call itself.  Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) -> metric name.  The attribute path is a module
# function or Class.method.
SPAN_TARGETS = {
    ("cli", "main"): "cli.main",
    ("census", "enumerate_all_gaps"): "census.enumerate_all_gaps",
    ("census", "verify_theorem"): "census.verify_theorem",
    ("census", "enumerate_standard"): "census.enumerate_standard",
    ("decompose", "decompose"): "decompose.decompose",
    ("decompose", "gcd_normalized"): "decompose.gcd_normalized",
    ("decompose", "extract_d"): "decompose.extract_d",
    ("decompose", "verify_certificate"): "decompose.verify_certificate",
    ("decompose", "recognize_standard"): "decompose.recognize_standard",
    ("standard", "construct_standard"): "standard.construct_standard",
    ("boolfun", "to_anf"): "boolfun.to_anf",
    ("boolfun", "from_anf"): "boolfun.from_anf",
    ("genfun", "from_array"): "genfun.from_array",
    ("genfun", "embed"): "genfun.embed",
    ("genfun", "disjoint_product"): "genfun.disjoint_product",
    ("genfun", "star"): "genfun.star",
    ("qarray", "is_gap"): "qarray.is_gap",
    ("qarray", "QaryArray.__post_init__"): "qarray.QaryArray.post_init",
}
COUNT_TARGETS = {
    ("cyclotomic", "CycElement.is_zero"): "cyclotomic.CycElement.is_zero",
    ("cyclotomic", "CycElement.canonical"): "cyclotomic.CycElement.canonical",
    ("cyclotomic", "CycContext.element"): "cyclotomic.CycContext.element",
}
# Targets whose spans are tagged by their result: is_gap spans split into
# positive and negative verdicts.
TAGGERS = {"qarray.is_gap": lambda result: "pos" if result else "neg"}

PACKAGE = "golaypairs"


class Tracer:
    """Wraps the targets, keeps spans and call counts for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack = [0]
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        del self._stack[1:]
        self._next_id = 1

    def _span_wrapper(self, fn, name: str):
        tagger = TAGGERS.get(name)
        spans = self.spans
        calls = self.calls
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            tag = ""
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if tagger is not None:
                    tag = tagger(result)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                calls[name] += 1
                spans.append((sid, parent, self.op_id, name, t0, t1, tag))

        return wrapper

    def _count_wrapper(self, fn, name: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if modname == PACKAGE or modname.startswith(PACKAGE + ".")
        ]
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (COUNT_TARGETS, self._count_wrapper),
        ):
            for (modname, path), name in targets.items():
                owner = sys.modules[f"{PACKAGE}.{modname}"]
                if "." in path:
                    clsname, attr = path.split(".")
                    cls = getattr(owner, clsname)
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, make(original, name))
                    continue
                original = getattr(owner, path)
                wrapper = make(original, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds (id, parent, op, name, start, end, tag) tuples.  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _op, _name, t0, t1, _tag in spans:
        if parent:
            children[parent].append((t0, t1))
    out = []
    for sid, _parent, _op, _name, t0, t1, _tag in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(t1 - t0 - covered)
    return out


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op calls and self milliseconds of every target, by metric name."""
    self_ns: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, tag = span[3], span[6]
        self_ns[name] += own
        if tag:
            self_ns[f"{name}.{tag}"] += own
    out: dict[str, float] = {}
    for name in SPAN_TARGETS.values():
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n_ops
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / n_ops
    for name in TAGGERS:
        for tag in ("pos", "neg"):
            out[f"{name}.{tag}_self_ms"] = self_ns.get(f"{name}.{tag}", 0) / 1e6 / n_ops
    for name in COUNT_TARGETS.values():
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n_ops
    return out
