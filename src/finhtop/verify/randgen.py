"""Seeded random generators for posets, maps, complexes and diagrams.

Everything is reproducible from the seed.  Diagram transitions are built by
composing one random monotone map per consecutive pair of a linear
extension, so functoriality holds by construction instead of by rejection.
"""

from __future__ import annotations

import random
from itertools import combinations

from ..diagram import Diagram, new_diagram
from ..poset import FinitePoset, PosetMap, compose, new_poset
from ..simplicial import (
    SimplicialComplex,
    SimplicialMap,
    compose_simplicial,
    new_complex_diagram,
)


def _random_poset(rng: random.Random, n: int, density: float, prefix: str) -> FinitePoset:
    els = [f"{prefix}{i}" for i in range(n)]
    rels = [
        (els[i], els[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return new_poset(els, rels)


def random_poset(n: int, density: float, seed) -> FinitePoset:
    """Random poset on elements x0..x{n-1}; density 0 gives an antichain, 1 a chain."""
    return _random_poset(random.Random(seed), n, density, "x")


def random_monotone_map(p: FinitePoset, q: FinitePoset, rng: random.Random) -> PosetMap:
    """Uniform-ish random order-preserving map, found by shuffled backtracking.

    Constant maps are always monotone, so the search cannot fail.
    """
    ext = p.linear_extension()
    assign: dict[str, str] = {}

    def backtrack(i: int) -> bool:
        if i == len(ext):
            return True
        x = ext[i]
        floors = [assign[z] for z in p.covers_below(x)]
        cands = [y for y in q.elements if all(q.leq(f, y) for f in floors)]
        rng.shuffle(cands)
        for y in cands:
            assign[x] = y
            if backtrack(i + 1):
                return True
            del assign[x]
        return False

    if not backtrack(0):
        raise AssertionError("monotone map search failed; this cannot happen")
    return PosetMap(p, q, assign)


def draw_along_extension(index: FinitePoset, draw_fiber, draw_step, compose_step):
    """Fibers and cover transitions drawn along a linear extension of the index.

    draw_fiber(p) is called for every extension element in order, then
    draw_step(fibers, a, b) for every consecutive pair (a, b).  Each cover
    transition composes the steps between its ends with compose_step, so
    every transition is a composite of the same global chain of maps and
    functoriality holds by construction.  Returns (fibers, cover transitions).
    """
    ext = index.linear_extension()
    pos = {e: i for i, e in enumerate(ext)}
    fibers = {p: draw_fiber(p) for p in ext}
    steps = [draw_step(fibers, ext[i], ext[i + 1]) for i in range(len(ext) - 1)]
    maps = {}
    for (a, b) in index.covers:
        m = steps[pos[a]]
        for i in range(pos[a] + 1, pos[b]):
            m = compose_step(m, steps[i])
        maps[(a, b)] = m
    return fibers, maps


def _random_diagram_over(
    rng: random.Random, index: FinitePoset, fiber_size: int, density: float
) -> Diagram:
    """Fibers of 1..fiber_size points and random monotone steps along the index."""
    fibers, maps = draw_along_extension(
        index,
        lambda p: _random_poset(rng, rng.randint(1, fiber_size), density, "x"),
        lambda f, a, b: random_monotone_map(f[a], f[b], rng),
        compose,
    )
    return new_diagram(index, fibers, maps)


def random_diagram(index_size: int, fiber_size: int, seed) -> Diagram:
    """Random diagram; fibers have 1..fiber_size points."""
    rng = random.Random(seed)
    index = _random_poset(rng, index_size, 0.5, "p")
    return _random_diagram_over(rng, index, fiber_size, 0.5)


def _random_complex(rng: random.Random, v: int) -> SimplicialComplex:
    verts = [f"v{i}" for i in range(v)]
    facets = []
    for size in (2, 3):
        for combo in combinations(verts, size):
            if rng.random() < 0.35:
                facets.append(list(combo))
    return SimplicialComplex(verts, facets)


def random_complex(v: int, seed) -> SimplicialComplex:
    """Random complex on v vertices; dimension kept at most 2."""
    return _random_complex(random.Random(seed), v)


def random_simplicial_map(
    k: SimplicialComplex, l: SimplicialComplex, rng: random.Random
) -> SimplicialMap:
    """Random vertex map validated to be simplicial; a constant map after 40 misses."""
    for _ in range(40):
        assign = {v: rng.choice(l.vertices) for v in k.vertices}
        if all(l.has_simplex({assign[v] for v in f}) for f in k.facets):
            return SimplicialMap(k, l, assign)
    v0 = l.vertices[0]
    return SimplicialMap(k, l, {v: v0 for v in k.vertices})


def random_complex_diagram(index_size: int, v: int, seed) -> Diagram:
    rng = random.Random(seed)
    index = _random_poset(rng, index_size, 0.5, "p")
    fibers, maps = draw_along_extension(
        index,
        lambda p: _random_complex(rng, rng.randint(1, v)),
        lambda f, a, b: random_simplicial_map(f[a], f[b], rng),
        compose_simplicial,
    )
    return new_complex_diagram(index, fibers, maps)


def random_dismantlable_poset(n: int, rng: random.Random) -> FinitePoset:
    """Grown one beat point at a time, so removal in reverse order dismantles it."""
    els = ["d0"]
    rels: list[tuple[str, str]] = []
    for i in range(1, n):
        new = f"d{i}"
        anchor = rng.choice(els)
        if rng.random() < 0.5:
            rels.append((new, anchor))
        else:
            rels.append((anchor, new))
        els.append(new)
    return new_poset(els, rels)
