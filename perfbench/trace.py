"""Spans around the program's public functions, and the per-layer metrics.

`Tracer.install` replaces each traced function by a wrapper under every
name the program looks it up by: the attribute of its own module, and any
`from module import name` copy bound in another baxter module.  A span
records (name, start, end, parent, case, work, tag); spans are kept in a
list and written out by the caller.  Nothing here runs while tracing is
off: the untraced runs never call `install`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    case: str
    work: int = 0        # a count the wrapper computed from the call
    tag: str = ""        # a short result label (the kind classify chose)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(args, kwargs, result):
    return args[0].size


def _madds(args, kwargs, result):
    a, b = args[0], args[1]
    return a.shape[0] * a.shape[1] * b.shape[1]


def _grid_points(args, kwargs, result):
    grid = result.grid_size or ()
    return grid[0] * grid[1] if len(grid) == 2 else 0


def _text_bytes(args, kwargs, result):
    return len(result if isinstance(result, str) else args[0])


# (module, attribute, span name, work, tag the result)
TRACED = [
    ("linalg", "matmul", "linalg.matmul", _madds, False),
    ("linalg", "classify", "linalg.classify", None, True),
    ("linalg", "scale_to_int", "linalg.scale_to_int", _size, False),
    ("linalg", "int_matmul", "linalg.int_matmul", None, False),
    ("linalg", "rref", "linalg.rref", None, False),
    ("tensor", "TensorMatrix.__init__", "tensor.construct", None, False),
    ("tensor", "kron", "tensor.embed", None, False),
    ("tensor", "embed_pair", "tensor.embed", None, False),
    ("tensor", "embed_two_leg", "tensor.embed", None, False),
    ("verify", "evaluate_matrix", "verify.evaluate", None, False),
    ("verify", "uniform_int_scale", "verify.int_scale", None, False),
    ("verify", "grid_report", "verify.grid", _grid_points, False),
    ("verify", "interpolate_grid", "verify.interpolate", None, False),
    ("verify", "check_ybe", "verify.check", None, False),
    ("verify", "check_cybe", "verify.check", None, False),
    ("verify", "check_unitarity", "verify.check", None, False),
    ("verify", "check_regularity", "verify.check", None, False),
    ("verify", "check_classical_limit", "verify.check", None, False),
    ("spin_chain", "transfer_matrix", "spin_chain.transfer", None, False),
    ("spin_chain", "check_commutation", "spin_chain.commute", None, False),
    ("spin_chain", "calibrate", "spin_chain.calibrate", None, False),
    ("serialize", "encode", "serialize.encode", _text_bytes, False),
    ("serialize", "decode", "serialize.decode", _text_bytes, False),
    ("cli", "main", "cli.main", None, False),
]

# Every public constructor in baxter.solutions is one "solutions.build" span.
SOLUTIONS = ["realization_form", "example1_r", "example1_R", "baxterize", "yangian_sl_R",
             "orthogonal_half_level", "yangian_so_R", "conjugator_T", "so_jordanian_data",
             "apply_twist", "example2_solution"]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name, work=None, tag=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.case)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            if tag:
                span.tag = str(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "baxter") -> None:
        """Wrap every traced function under each name it is bound to."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        targets = {}
        for mod, attr, name, work, tag in TRACED + [
                ("solutions", f, "solutions.build", None, False) for f in SOLUTIONS]:
            owner = sys.modules[f"{package}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, name, work, tag))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            targets[id(original)] = (original, self.wrap(original, name, work, tag))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append((module, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# -- span arithmetic -----------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(kids) for span, kids in zip(spans, children)]


def outermost(spans, index: int, name: str) -> bool:
    """True when no ancestor of spans[index] has the same name."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(spans) -> dict:
    """The per-layer metrics of BENCHMARK.json from a list of spans."""
    own = self_times(spans)
    kind = {}
    for span in spans:
        if span.name == "linalg.classify" and span.parent >= 0:
            kind[span.parent] = span.tag
    metrics: dict[str, float] = {}

    def add(key, value):
        metrics[key] = metrics.get(key, 0) + value

    for index, span in enumerate(spans):
        name = span.name
        top = outermost(spans, index, name)
        if name == "linalg.matmul":
            add("linalg.matmul_calls", 1)
            add("linalg.matmul_self_s", own[index])
            if kind.get(index) == "ext":
                add("linalg.ext_matmul_s", span.duration)
                add("linalg.ext_matmul_calls", 1)
            else:
                add("linalg.matmul_madds", span.work)
            if kind.get(index) == "poly":
                add("linalg.poly_matmul_s", span.duration)
        elif name == "linalg.scale_to_int":
            add("linalg.scale_to_int_s", span.duration)
            add("linalg.scaled_entries", span.work)
        elif name == "linalg.classify":
            add("linalg.classify_s", span.duration)
        elif name == "linalg.int_matmul":
            add("linalg.int_matmul_s", span.duration)
            add("linalg.int_matmul_calls", 1)
        elif name == "linalg.rref":
            add("linalg.rref_s", span.duration)
            add("linalg.rref_calls", 1)
        elif name == "tensor.construct":
            add("tensor.construct_s", own[index])
            add("tensor.matrices_built", 1)
        elif name == "tensor.embed" and top:
            add("tensor.embed_s", span.duration)
        elif name == "verify.evaluate":
            add("verify.evaluate_s", span.duration)
            add("verify.evaluate_calls", 1)
        elif name == "verify.int_scale":
            add("verify.int_scale_s", span.duration)
        elif name == "verify.grid":
            add("verify.grid_self_s", own[index])
            add("verify.grid_points", span.work)
        elif name == "verify.interpolate":
            add("verify.interpolate_s", span.duration)
        elif name == "verify.check":
            add("verify.check_self_s", own[index])
        elif name in ("spin_chain.transfer", "spin_chain.commute", "spin_chain.calibrate"):
            add(name + "_self_s", own[index])
        elif name == "serialize.encode":
            add("serialize.encode_s", span.duration)
            add("serialize.bytes", span.work)
        elif name == "serialize.decode":
            add("serialize.decode_s", span.duration)
            add("serialize.bytes", span.work)
        elif name == "solutions.build" and top:
            add("solutions.build_s", span.duration)
        elif name == "cli.main":
            add("cli.main_self_s", own[index])
    return metrics
