"""The names the benchmark in ``bench/`` hooks into must keep existing.

The benchmark traces library functions by module and attribute name, rebinds
the checkers by name, and reads two lru caches.  A rename in the library
would only show up when the benchmark runs; these tests catch it in tier 1.
"""

import importlib
from pathlib import Path

import pytest

from finhtop import reduction
from finhtop.poset import chain, new_poset, product
from finhtop.homology import poset_homology
from finhtop.simplicial import order_complex
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
        grid = product(chain(2), chain(3))
        reduction.core(grid)
        # core scans live masks; the extension stays a target for the checkers.
        grid.linear_extension()
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
    # Deletions clear bits of a live mask: the returned core is the only
    # subposet built, the search builds none, and nothing re-validates.
    assert "poset.subposet" in tracer.names
    assert tracer.names.count("poset.subposet") == 1
    assert tracer.names.index("poset.subposet") < tracer.names.index("reduction.search")
    assert "poset.from_closure" not in tracer.names


def test_homology_spans_per_call(bench):
    spans, _ = bench
    # Minimal finite model of S^4: five levels of two points.
    levels = [(f"a{i}", f"b{i}") for i in range(5)]
    sphere = new_poset(
        [e for level in levels for e in level],
        [(x, y) for lo, hi in zip(levels, levels[1:]) for x in lo for y in hi],
    )
    sizes = [len(b) for b in order_complex(sphere).simplices_by_dim()]
    dim = len(sizes) - 1
    poset_homology.cache_clear()
    tracer = spans.Tracer()
    undo = tracer.install(spans.LAYER_TARGETS)
    try:
        profile = poset_homology(sphere)
    finally:
        spans.Tracer.uninstall(undo)
        poset_homology.cache_clear()
    assert dim == 4 and profile.betti == (1, 0, 0, 0, 1)
    # The check of boundary of boundary calls nothing traced, and SNF still
    # receives one array per boundary operator.
    assert tracer.names.count("homology.boundary") == 1
    assert tracer.names.count("homology.snf") == dim
    assert tracer.counts["homology.snf.entries"] == sum(
        rows * cols for rows, cols in zip(sizes, sizes[1:])
    )


def test_benchmark_checkers_exist(bench):
    _, workloads = bench
    for name in workloads.CHECKERS:
        assert callable(getattr(checks, name)), name


def test_benchmark_caches_exist():
    for fn in (poset_homology, reduction.is_contractible):
        assert callable(fn.cache_clear) and callable(fn.cache_info)
