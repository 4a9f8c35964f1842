"""The names the benchmark in ``bench/`` hooks into must keep existing.

The benchmark traces library functions by module and attribute name, rebinds
the checkers by name, and reads two lru caches.  A rename in the library
would only show up when the benchmark runs; these tests catch it in tier 1.
"""

import importlib
from pathlib import Path

import pytest

from finhtop import reduction
from finhtop.poset import chain, product
from finhtop.homology import poset_homology
from finhtop.verify import checks
from finhtop.verify.suite import w_poset

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_tracer_installs_over_every_layer_target(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    undo = tracer.install(spans.LAYER_TARGETS)
    try:
        reduction.triviality_oracle(w_poset())
    finally:
        spans.Tracer.uninstall(undo)
    assert {"reduction.oracle", "reduction.core", "reduction.search"} <= set(tracer.names)
    assert reduction.core.__name__ == "core" and not hasattr(reduction.core, "__wrapped__")


def test_tracer_sees_the_poset_kernel(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    undo = tracer.install(spans.LAYER_TARGETS)
    try:
        # W is already a core; the product has beat points, so core deletes.
        reduction.core(w_poset())
        reduction.core(product(chain(2), chain(3)))
    finally:
        spans.Tracer.uninstall(undo)
    assert {"poset.from_closure", "poset.subposet", "poset.linear_extension"} <= set(tracer.names)


def test_deletions_take_the_trusted_path(bench):
    spans, _ = bench
    grid, w = product(chain(2), chain(3)), w_poset()
    tracer = spans.Tracer()
    undo = tracer.install(spans.LAYER_TARGETS)
    try:
        reduction.core(grid)
        reduction.collapse_search(w)
    finally:
        spans.Tracer.uninstall(undo)
    # Every deletion is still a subposet span, and none re-validates.
    assert "poset.subposet" in tracer.names
    assert "poset.from_closure" not in tracer.names


def test_benchmark_checkers_exist(bench):
    _, workloads = bench
    for name in workloads.CHECKERS:
        assert callable(getattr(checks, name)), name


def test_benchmark_caches_exist():
    for fn in (poset_homology, reduction.is_contractible):
        assert callable(fn.cache_clear) and callable(fn.cache_info)
