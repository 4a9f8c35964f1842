"""Seeded instance families for every checker, the theorem table, and the runners.

Instance construction is deterministic in (seed, instance number), so the
whole battery is reproducible byte for byte.  Families mix planted
instances (hypothesis guaranteed) with the named examples: the minimal
circle model, its non-Hausdorff suspension, and the 11-point collapsible
but non-contractible index poset W.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .. import io
from ..diagram import (
    Diagram,
    DiagramMorphism,
    constant_diagram,
    cylinder_diagram,
    mapping_cylinder,
    new_diagram,
)
from ..errors import FinhtopError
from ..poset import (
    FinitePoset,
    PosetMap,
    chain,
    compose,
    constant_map,
    identity,
    new_poset,
    product,
)
from ..reduction import DEFAULT_BUDGET
from ..simplicial import SimplicialComplex, identity_simplicial, new_complex, new_complex_diagram
from . import checks
from .randgen import (
    _random_diagram_over,
    _random_poset,
    draw_along_extension,
    random_complex_diagram,
    random_diagram,
    random_dismantlable_poset,
    random_monotone_map,
)
from .report import CheckReport


def circle_poset() -> FinitePoset:
    """The minimal 4-point model of the circle."""
    return new_poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def w_poset() -> FinitePoset:
    """The 11-point collapsible but non-contractible poset."""
    els = [str(i) for i in range(1, 12)]
    rels = [
        ("1", "5"), ("1", "6"), ("2", "5"), ("2", "7"),
        ("3", "6"), ("3", "8"), ("4", "7"), ("4", "8"),
        ("5", "9"), ("5", "10"), ("6", "9"), ("6", "10"),
        ("7", "10"), ("7", "11"), ("8", "10"), ("8", "11"),
    ]
    return new_poset(els, rels)


def point_poset() -> FinitePoset:
    return new_poset(["pt"], [])


def suspension_diagram(p: FinitePoset) -> Diagram:
    """The pushout diagram pt <- p -> pt (non-Hausdorff suspension)."""
    index = new_poset(["0", "1", "2"], [("0", "1"), ("0", "2")])
    pt = point_poset()
    c = constant_map(p, pt, "pt")
    return new_diagram(index, {"0": p, "1": pt, "2": pt}, {("0", "1"): c, ("0", "2"): c})


def edge_complex() -> SimplicialComplex:
    return new_complex(["x", "y"], [["x", "y"]])


def circle_complex() -> SimplicialComplex:
    return new_complex(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])


def _chain_projection(x: FinitePoset) -> PosetMap:
    """The projection from the product of x with the chain c0 < c1 onto x."""
    two = chain(2)
    assignment = {f"({e},{c})": e for e in x.elements for c in two.elements}
    return PosetMap(product(x, two), x, assignment)


def _constant_complex_diagram(index: FinitePoset, fiber: SimplicialComplex) -> Diagram:
    return new_complex_diagram(
        index,
        {p: fiber for p in index.elements},
        {pq: identity_simplicial(fiber) for pq in index.covers},
    )


def _seed(master, family: str, i: int) -> str:
    return f"{master}/{family}/{i}"


# -- instance families -----------------------------------------------------------


def ubp_instance(master, i: int) -> tuple[Diagram, str]:
    """Random diagram whose index has a planted up beat point "u"."""
    rng = random.Random(_seed(master, "ubp", i))
    base = _random_poset(rng, rng.randint(1, 4), 0.5, "p")
    anchor = rng.choice(base.elements)
    index = new_poset(list(base.elements) + ["u"], [("u", anchor)] + sorted(base.covers))
    return _random_diagram_over(rng, index, 4, 0.5), "u"


def cylinder_instance(master, i: int) -> Diagram:
    """Cylinder of a random monotone map between posets of at most 6 points."""
    rng = random.Random(_seed(master, "cyl", i))
    src = _random_poset(rng, rng.randint(1, 6), 0.5, "s")
    tgt = _random_poset(rng, rng.randint(1, 6), 0.5, "t")
    return cylinder_diagram(random_monotone_map(src, tgt, rng))


def maximum_instance(master, i: int) -> Diagram:
    """Random diagram over an index with a planted maximum."""
    rng = random.Random(_seed(master, "max", i))
    base = _random_poset(rng, rng.randint(1, 4), 0.5, "p")
    rels = sorted(base.covers) + [(m, "top") for m in base.maximal_elements()]
    index = new_poset(list(base.elements) + ["top"], rels)
    return _random_diagram_over(rng, index, 4, 0.5)


def homotopy_instance(master, i: int) -> DiagramMorphism:
    """Source diagram included fiberwise into its product with a 2-chain."""
    d = random_diagram(rng_size(master, i, 4), 3, _seed(master, "hlm", i))
    if i % 3 == 0:
        return DiagramMorphism(d, d, {p: identity(d.fibers[p]) for p in d.index.elements})
    two = chain(2)
    fibers = {p: product(d.fibers[p], two) for p in d.index.elements}
    maps = {}
    for (a, b) in d.index.covers:
        t = d.transitions[(a, b)]
        maps[(a, b)] = PosetMap(
            fibers[a],
            fibers[b],
            {
                f"({x},{cc})": f"({t(x)},{cc})"
                for x in d.fibers[a].elements
                for cc in two.elements
            },
        )
    target = new_diagram(d.index, fibers, maps)
    components = {
        p: PosetMap(
            d.fibers[p], fibers[p], {x: f"({x},c0)" for x in d.fibers[p].elements}
        )
        for p in d.index.elements
    }
    return DiagramMorphism(d, target, components)


def rng_size(master, i: int, bound: int) -> int:
    return random.Random(_seed(master, "size", i)).randint(1, bound)


def _planted_down_beat_instance(rng: random.Random, into_p) -> tuple[Diagram, str, str]:
    """Diagram whose index has "p" covering exactly the maximal element "q" of a random base.

    The fiber at p is a random poset xp; into_p(xp) is the transition q -> p,
    and its source is the fiber at q.
    """
    base = _random_poset(rng, rng.randint(1, 3), 0.5, "r")
    rels = sorted(base.covers) + [(m, "q") for m in base.maximal_elements()]
    rels += [("q", "p")]
    index = new_poset(list(base.elements) + ["q", "p"], rels)
    step = into_p(_random_poset(rng, rng.randint(1, 3), 0.5, "x"))
    planted = {"q": step.source, "p": step.target}

    def draw_fiber(e):
        # Drawn at p and q as well, so the seeded stream does not depend on the plant.
        drawn = _random_poset(rng, rng.randint(1, 3), 0.5, "z")
        return planted.get(e, drawn)

    def draw_step(f, a, b):
        return step if b == "p" else random_monotone_map(f[a], f[b], rng)

    fibers, maps = draw_along_extension(index, draw_fiber, draw_step, compose)
    return new_diagram(index, fibers, maps), "p", "q"


def dbp_instance(master, i: int) -> tuple[Diagram, str, str]:
    """Fiber at the dominator is a mapping cylinder onto the dominated fiber.

    The transition is the cylinder retraction, so every preimage of a basic
    open set is a cone.
    """
    rng = random.Random(_seed(master, "dbp", i))

    def retraction(xp: FinitePoset) -> PosetMap:
        if i % 3 == 0:
            return identity(xp)
        y = _random_poset(rng, rng.randint(1, 3), 0.5, "y")
        g = random_monotone_map(y, xp, rng)
        assignment = {f"0::{v}": g(v) for v in y.elements}
        assignment.update({f"1::{x}": x for x in xp.elements})
        return PosetMap(mapping_cylinder(g), xp, assignment)

    return _planted_down_beat_instance(rng, retraction)


def dbpgen_instance(master, i: int) -> tuple[Diagram, str, str]:
    """Transition into the removed point is a projection from a product with a chain."""
    rng = random.Random(_seed(master, "dbpgen", i))
    return _planted_down_beat_instance(rng, _chain_projection)


def up_wp_instance(master, i: int) -> tuple[Diagram, str]:
    """Index point "u" whose strict up-set is the W poset or a planted cone."""
    rng = random.Random(_seed(master, "upwp", i))
    if i % 2 == 0:
        w = w_poset()
        index = new_poset(
            list(w.elements) + ["u"],
            sorted(w.covers) + [("u", m) for m in w.minimal_elements()],
        )
    else:
        # The strict up-set of "u" is the base coned off by a common top.
        base = _random_poset(rng, rng.randint(1, 4), 0.5, "p")
        rels = sorted(base.covers)
        rels += [(m, "top") for m in base.maximal_elements()]
        rels += [("u", m) for m in base.minimal_elements()]
        index = new_poset(list(base.elements) + ["top", "u"], rels)
    fiber = _random_poset(rng, rng.randint(1, 3), 0.5, "x")
    return constant_diagram(index, fiber), "u"


def cofinality_instance(master, i: int) -> tuple[PosetMap, Diagram]:
    """Four planted families, all with homotopically trivial preimages."""
    rng = random.Random(_seed(master, "cof", i))
    kind = i % 4
    if kind == 0:
        d = random_diagram(rng.randint(1, 4), 3, _seed(master, "cofd", i))
        return identity(d.index), d
    if kind == 1:
        d = random_diagram(rng.randint(1, 3), 3, _seed(master, "cofd", i))
        return _chain_projection(d.index), d
    if kind == 2:
        single = point_poset()
        fiber = _random_poset(rng, rng.randint(1, 4), 0.5, "x")
        d = constant_diagram(single, fiber)
        return constant_map(w_poset(), single, "pt"), d
    d = random_diagram(rng.randint(1, 3), 3, _seed(master, "cofd", i))
    q = d.index
    anchor = rng.choice(q.elements)
    p = new_poset(list(q.elements) + ["u"], sorted(q.covers) + [("u", anchor)])
    phi = PosetMap(p, q, {**{x: x for x in q.elements}, "u": anchor})
    return phi, d


def thomason_instance(master, i: int) -> Diagram:
    return random_diagram(rng_size(master, i, 4), 4, _seed(master, "thom", i))


def barycentric_instance(master, i: int) -> Diagram:
    return random_complex_diagram(rng_size(master, i, 3), 4, _seed(master, "bary", i))


def index_contractible_instance(master, i: int) -> Diagram:
    rng = random.Random(_seed(master, "idxc", i))
    index = random_dismantlable_poset(rng.randint(1, 5), rng)
    fiber = circle_complex() if i % 2 == 0 else edge_complex()
    return _constant_complex_diagram(index, fiber)


def gamma_index_instance(master, i: int) -> Diagram:
    rng = random.Random(_seed(master, "gidx", i))
    if i % 2 == 0:
        index = w_poset()
    else:
        index = random_dismantlable_poset(rng.randint(1, 5), rng)
    fiber = edge_complex() if i % 3 else circle_complex()
    return _constant_complex_diagram(index, fiber)


# -- the theorem table --------------------------------------------------------------


def _poset_diagram(obj) -> Diagram:
    io.require_fiber_kind(obj, "poset")
    return io.diagram_from_obj(obj)


def _complex_diagram(obj) -> Diagram:
    io.require_fiber_kind(obj, "complex")
    return io.diagram_from_obj(obj)


def _cofinality_input(obj) -> tuple[PosetMap, Diagram]:
    return io.map_from_obj(obj["map"]), _poset_diagram(obj["diagram"])


@dataclass(frozen=True)
class Theorem:
    """One checked result: its seeded instances, its input file, its checker.

    An instance is what ``instance(seed, i)`` draws, or what ``load`` reads
    from an input file followed by the values of the ``flags`` options;
    ``check(instance, budget)`` runs the checker on it.  ``check`` reaches
    the checker through the ``checks`` module on every call, so a checker
    rebound there (to trace or time it) is the one that runs.
    """

    id: str
    count: int
    instance: Callable[[object, int], object]
    load: Callable[[object], object]
    check: Callable[[object, int], CheckReport]
    flags: tuple[str, ...] = ()

    def read_input(self, obj, options: Mapping[str, str | None]):
        """The instance in an input file's JSON, completed by the options it needs."""
        missing = [f"--{f}" for f in self.flags if options.get(f) is None]
        if missing:
            raise FinhtopError(f"check {self.id} --input needs {' and '.join(missing)}")
        loaded = self.load(obj)
        return (loaded, *(options[f] for f in self.flags)) if self.flags else loaded


THEOREMS = {
    t.id: t
    for t in (
        Theorem("ubp", 10, ubp_instance, _poset_diagram,
                lambda a, budget: checks.check_ubp(*a), ("point",)),
        Theorem("maximum", 10,
                lambda seed, i: (cylinder_instance if i % 2 == 0 else maximum_instance)(seed, i),
                _poset_diagram, lambda d, budget: checks.check_maximum(d)),
        Theorem("homotopy", 8, homotopy_instance, io.morphism_from_obj,
                lambda alpha, budget: checks.check_homotopy_lemma(alpha)),
        Theorem("dbp", 8, dbp_instance, _poset_diagram,
                lambda a, budget: checks.check_dbp(*a), ("point", "dominator")),
        Theorem("dbpgen", 8, dbpgen_instance, _poset_diagram,
                lambda a, budget: checks.check_dbpgen(*a), ("point", "dominator")),
        Theorem("up-wp", 4, up_wp_instance, _poset_diagram,
                lambda a, budget: checks.check_up_wp(*a, budget), ("point",)),
        Theorem("cofinality", 8, cofinality_instance, _cofinality_input,
                lambda a, budget: checks.check_cofinality(*a, budget)),
        Theorem("thomason", 10, thomason_instance, _poset_diagram,
                lambda d, budget: checks.check_thomason_roundtrip(d)),
        Theorem("barycentric", 5, barycentric_instance, _complex_diagram,
                lambda c, budget: checks.check_barycentric(c)),
        Theorem("index-contractible", 5, index_contractible_instance, _complex_diagram,
                lambda c, budget: checks.check_index_contractible(c)),
        Theorem("gamma-index", 4, gamma_index_instance, _complex_diagram,
                lambda c, budget: checks.check_gamma_index(c, budget)),
    )
}


# -- runners -----------------------------------------------------------------------


def run_family(theorem: str, n: int, seed, budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    t = THEOREMS[theorem]
    return [t.check(t.instance(seed, i), budget) for i in range(n)]


def run_all(seed, budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """The full deterministic battery, theorem by theorem."""
    reports = []
    for t in THEOREMS.values():
        reports.extend(run_family(t.id, t.count, seed, budget))
    return reports
