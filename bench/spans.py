"""Outside-in spans: wrappers around finhtop's public functions and methods.

A span is (name, start, end, parent).  Spans stay in memory until the
runner aggregates them; a layer's self time is its spans' durations minus
the durations of their child spans.  Wrapping a function rebinds it in every
loaded finhtop module that imported it by name, so calls from other modules
are seen too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from finhtop.simplicial import SimplicialComplex

_simplices_by_dim = SimplicialComplex.simplices_by_dim  # unwrapped, for counting


def _points(counts, result, args):
    counts["diagram.hocolim.points"] += len(result)


def _simplices(counts, result, args):
    counts["simplicial.simplices"] += sum(map(len, _simplices_by_dim(args[0])))


def _snf_input(counts, result, args):
    rows, cols = args[0].shape
    counts["homology.snf.entries"] += rows * cols
    counts["homology.snf.max_side"] = max(counts["homology.snf.max_side"], rows, cols)


def _removed(counts, result, args):
    counts["reduction.core.removed"] += len(result[1])


def _found(counts, result, args):
    counts["reduction.search.found"] += result is not None


def _unknown(counts, result, args):
    counts["reduction.oracle.unknown"] += result.verdict == "Unknown"


def _bytes(counts, result, args):
    counts["io.bytes"] += len(result.encode())


# (module, attribute, span name, counter hook); "Class.method" names a method.
LAYER_TARGETS = [
    ("finhtop.poset", "FinitePoset.from_closure", "poset.from_closure", None),
    ("finhtop.poset", "FinitePoset.subposet", "poset.subposet", None),
    ("finhtop.poset", "FinitePoset.linear_extension", "poset.linear_extension", None),
    ("finhtop.poset", "PosetMap.__init__", "poset.map", None),
    ("finhtop.diagram", "hocolim", "diagram.hocolim", _points),
    ("finhtop.diagram", "synthesize_transitions", "diagram.synthesize", None),
    ("finhtop.simplicial", "order_complex", "simplicial.order_complex", None),
    ("finhtop.simplicial", "face_poset", "simplicial.face_poset", None),
    ("finhtop.simplicial", "SimplicialComplex.simplices_by_dim", "simplicial.enumerate", None),
    # homology_profile's self time is the boundary build and profile assembly.
    ("finhtop.homology", "homology_profile", "homology.boundary", _simplices),
    ("finhtop.homology", "smith_normal_form", "homology.snf", _snf_input),
    ("finhtop.reduction", "core", "reduction.core", _removed),
    ("finhtop.reduction", "collapse_search", "reduction.search", _found),
    ("finhtop.reduction", "triviality_oracle", "reduction.oracle", _unknown),
    ("finhtop.reduction", "verify_removal_sequence", "reduction.replay", None),
    ("finhtop.verify.suite", "run_family", "verify.suite", None),
    ("finhtop.io", "dumps", "io.dumps", _bytes),
    *(
        ("finhtop.io", f"{kind}_to_obj", "io.to_obj", None)
        for kind in ("poset", "map", "complex", "diagram", "complex_diagram", "morphism", "profile")
    ),
    ("finhtop.cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.ends.append(0.0)
            tracer.stack.append(i)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counts, result, args)
            return result

        return traced

    def install(self, targets) -> list:
        """Wrap every target; returns the undo list for ``uninstall``."""
        undo = []
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                setattr(cls, method, new)
                undo.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            new = self.wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "finhtop":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, new)
                        undo.append((mod, key, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    def item_spans(self, first: int, names: set[str]) -> list[tuple[str, float]]:
        """(name, duration) of spans named in ``names`` not nested in another such span."""
        out = []
        for i in range(first, len(self.names)):
            if self.names[i] in names:
                p = self.parents[i]
                while p >= 0 and self.names[p] not in names:
                    p = self.parents[p]
                if p < 0:
                    out.append((self.names[i], self.ends[i] - self.starts[i]))
        return out

    def aggregate(self) -> dict[str, list[float]]:
        """name -> [calls, self seconds, total seconds] over the recorded spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            a = agg[name]
            a[0] += 1
            a[1] += d - child[i]
            a[2] += d
        return agg
