"""Finite simplicial complexes and the bridge functors to posets.

The order complex K(-) turns a poset into the complex of its nonempty
chains; the face poset X(-) turns a complex into the poset of its simplices
under inclusion (the opposite convention X(-)^op is what the natural
comparison map uses).  Composing the two gives barycentric subdivision.
Both functors lift fiberwise to diagrams.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .diagram import Diagram, new_diagram
from .errors import DomainMismatch, EmptyComplex, NotSimplicial, UnknownElement
from .poset import FinitePoset, PosetMap, preimage, require_nonempty


class SimplicialComplex:
    """Finite abstract simplicial complex, stored by its facet list.

    Facets (maximal simplices) are kept as identifier-sorted tuples, sorted
    lexicographically; membership of an arbitrary simplex is answered by
    subset-of-facet tests.  Every vertex occurs in at least one facet
    (isolated vertices are kept as singleton facets).
    """

    __slots__ = ("vertices", "facets", "_vertex_set", "_facet_sets", "_simplices")

    def __init__(self, vertices: Iterable[str], facets: Iterable[Iterable[str]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        self._vertex_set = set(self.vertices)
        norm = set()
        for f in facets:
            fs = frozenset(f)
            if not fs:
                continue
            for v in fs:
                if v not in self._vertex_set:
                    raise UnknownElement(f"facet vertex {v!r} not declared")
            norm.add(fs)
        covered = set().union(*norm) if norm else set()
        for v in self.vertices:
            if v not in covered:
                norm.add(frozenset([v]))
        maximal = [f for f in norm if not any(f < g for g in norm)]
        self.facets = tuple(sorted(tuple(sorted(f)) for f in maximal))
        self._facet_sets = [set(f) for f in self.facets]
        self._simplices = None

    def is_empty(self) -> bool:
        return not self.vertices

    def dimension(self) -> int:
        if self.is_empty():
            raise EmptyComplex("empty complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def has_simplex(self, simplex: Iterable[str]) -> bool:
        s = set(simplex)
        if not s:
            return False
        return any(s <= f for f in self._facet_sets)

    def simplices_by_dim(self) -> list[list[tuple[str, ...]]]:
        """All simplices grouped by dimension, each list lexicographic."""
        if self._simplices is None:
            seen: set[frozenset[str]] = set()
            for f in self._facet_sets:
                fl = sorted(f)
                k = len(fl)
                for mask in range(1, 1 << k):
                    seen.add(frozenset(fl[i] for i in range(k) if mask >> i & 1))
            by_dim: list[list[tuple[str, ...]]] = [[] for _ in range(self.dimension() + 1)]
            for s in seen:
                by_dim[len(s) - 1].append(tuple(sorted(s)))
            for bucket in by_dim:
                bucket.sort()
            self._simplices = by_dim
        return self._simplices

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.vertices, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"


def new_complex(vertices: Iterable[str], facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    return SimplicialComplex(vertices, facets)


class SimplicialMap:
    """Vertex map sending every simplex of the source onto a target simplex."""

    __slots__ = ("source", "target", "assignment")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        assignment: Mapping[str, str],
    ):
        missing = [v for v in source.vertices if v not in assignment]
        if missing:
            raise UnknownElement(f"vertex map not total; missing {missing[:3]}")
        for v, w in assignment.items():
            if v not in source._vertex_set:
                raise UnknownElement(f"vertex {v!r} not in source")
            if w not in target._vertex_set:
                raise UnknownElement(f"vertex {w!r} not in target")
        for f in source.facets:
            image = {assignment[v] for v in f}
            if not target.has_simplex(image):
                raise NotSimplicial(f"image of facet {f!r} is not a simplex")
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def __call__(self, v: str) -> str:
        try:
            return self.assignment[v]
        except KeyError:
            raise UnknownElement(f"{v!r} is not a source vertex") from None

    def image_simplex(self, simplex: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted({self.assignment[v] for v in simplex}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __repr__(self) -> str:
        return f"SimplicialMap({len(self.source.vertices)} -> {len(self.target.vertices)} vertices)"


def identity_simplicial(k: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(k, k, {v: v for v in k.vertices})


def compose_simplicial(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The composite "f then g"."""
    if f.target != g.source:
        raise DomainMismatch("compose requires f.target == g.source")
    return SimplicialMap(f.source, g.target, {v: g(f(v)) for v in f.source.vertices})


# -- order complex -----------------------------------------------------------


def _maximal_chains(p: FinitePoset) -> list[tuple[str, ...]]:
    # An explicit stack of partial chains, so depth does not grow with p.
    chains: list[tuple[str, ...]] = []
    stack = [(x,) for x in p.minimal_elements()]
    while stack:
        chain = stack.pop()
        ups = p.covers_above(chain[-1])
        if ups:
            stack.extend(chain + (y,) for y in ups)
        else:
            chains.append(chain)
    return chains


def order_complex(p: FinitePoset) -> SimplicialComplex:
    """The complex of nonempty chains of p; facets are the maximal chains."""
    require_nonempty(p)
    return SimplicialComplex(p.elements, _maximal_chains(p))


def order_complex_map(f: PosetMap) -> SimplicialMap:
    """K is functorial: monotone images of chains are chains."""
    return SimplicialMap(
        order_complex(f.source), order_complex(f.target), f.assignment
    )


# -- face poset --------------------------------------------------------------


def simplex_name(simplex: Iterable[str]) -> str:
    return "{" + ",".join(sorted(simplex)) + "}"


def face_poset(k: SimplicialComplex) -> FinitePoset:
    """Poset of simplices of k ordered by inclusion."""
    if k.is_empty():
        raise EmptyComplex("face poset of the empty complex")
    by_dim = k.simplices_by_dim()
    simplices: list[tuple[str, ...]] = [s for bucket in by_dim for s in bucket]
    names = [simplex_name(s) for s in simplices]
    sets = [frozenset(s) for s in simplices]
    n = len(sets)
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            leq[i, j] = sets[i] <= sets[j]
    return FinitePoset.from_closure(names, leq)


def face_poset_op(k: SimplicialComplex) -> FinitePoset:
    return face_poset(k).opposite()


def _simplex_images(f: SimplicialMap) -> dict[str, str]:
    """Every source simplex, by name, to the name of its image simplex."""
    return {
        simplex_name(s): simplex_name(f.image_simplex(s))
        for bucket in f.source.simplices_by_dim()
        for s in bucket
    }


def face_poset_map(f: SimplicialMap) -> PosetMap:
    return PosetMap(face_poset(f.source), face_poset(f.target), _simplex_images(f))


def face_poset_map_op(f: SimplicialMap) -> PosetMap:
    # Set images preserve inclusion, so the same assignment is order
    # preserving between the opposite posets.
    return PosetMap(face_poset_op(f.source), face_poset_op(f.target), _simplex_images(f))


def barycentric(k: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision K' = K(X(K)); vertices are named "{...}"."""
    if k.is_empty():
        raise EmptyComplex("barycentric subdivision of the empty complex")
    return order_complex(face_poset(k))


def barycentric_map(f: SimplicialMap) -> SimplicialMap:
    """The subdivided map: the barycenter of s goes to the barycenter of f(s)."""
    return order_complex_map(face_poset_map(f))


def preimage_poset(fop: PosetMap, sigma: str) -> FinitePoset:
    """Preimage of the basic open set U_sigma under a map of opposite face posets.

    Concretely: all simplices of the source complex whose image contains
    sigma, in reverse-inclusion order.  May be empty.
    """
    return preimage(fop, fop.target.down_set(sigma).elements)


# -- diagrams of complexes ----------------------------------------------------


def new_complex_diagram(index, fibers, cover_transitions) -> Diagram:
    """A diagram of simplicial complexes."""
    return Diagram(index, fibers, cover_transitions, identity_simplicial, compose_simplicial)


def lift_order_complex(d: Diagram) -> Diagram:
    """Apply K fiberwise to a poset diagram; functoriality is re-validated."""
    fibers = {p: order_complex(d.fibers[p]) for p in d.index.elements}
    maps = {
        (p, q): SimplicialMap(fibers[p], fibers[q], d.transitions[(p, q)].assignment)
        for (p, q) in d.index.covers
    }
    return new_complex_diagram(d.index, fibers, maps)


def lift_face_poset_op(c: Diagram) -> Diagram:
    """Apply X(-)^op fiberwise to a complex diagram."""
    fibers = {p: face_poset_op(c.fibers[p]) for p in c.index.elements}
    maps = {
        (p, q): PosetMap(fibers[p], fibers[q], _simplex_images(c.transitions[(p, q)]))
        for (p, q) in c.index.covers
    }
    return new_diagram(c.index, fibers, maps)


def barycentric_diagram(c: Diagram) -> Diagram:
    """Fiberwise barycentric subdivision, with functorially subdivided maps."""
    fibers = {p: barycentric(c.fibers[p]) for p in c.index.elements}
    maps = {
        (p, q): SimplicialMap(fibers[p], fibers[q], _simplex_images(c.transitions[(p, q)]))
        for (p, q) in c.index.covers
    }
    return new_complex_diagram(c.index, fibers, maps)
