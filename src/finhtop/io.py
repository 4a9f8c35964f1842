"""JSON serialization of posets, complexes, maps and diagrams, plus DOT export.

Serialization is canonical: elements in stored order, covers sorted
lexicographically, objects dumped with sorted keys.  Identical values
serialize to identical bytes, which the deterministic-report guarantees
rely on.  Loading accepts '::' in identifiers so that serialized composite
constructions (hocolim output) round-trip.
"""

from __future__ import annotations

import json

from .diagram import Diagram, DiagramMorphism, new_diagram
from .errors import DiagramError
from .homology import HomologyProfile
from .poset import FinitePoset, PosetMap, poset_from_relations_unchecked_names
from .simplicial import SimplicialComplex, SimplicialMap, new_complex_diagram


# -- posets -------------------------------------------------------------------


def poset_to_obj(p: FinitePoset) -> dict:
    return {
        "elements": list(p.elements),
        "relations": sorted([a, b] for (a, b) in p.covers),
    }


def poset_from_obj(obj) -> FinitePoset:
    return poset_from_relations_unchecked_names(
        obj["elements"], [tuple(r) for r in obj["relations"]]
    )


def map_to_obj(f: PosetMap) -> dict:
    return {
        "source": poset_to_obj(f.source),
        "target": poset_to_obj(f.target),
        "assignment": dict(sorted(f.assignment.items())),
    }


def map_from_obj(obj) -> PosetMap:
    return PosetMap(
        poset_from_obj(obj["source"]),
        poset_from_obj(obj["target"]),
        obj["assignment"],
    )


# -- complexes ------------------------------------------------------------------


def complex_to_obj(k: SimplicialComplex) -> dict:
    return {
        "vertices": list(k.vertices),
        "facets": [list(f) for f in k.facets],
    }


def complex_from_obj(obj) -> SimplicialComplex:
    return SimplicialComplex(obj["vertices"], obj["facets"])


# -- diagrams -------------------------------------------------------------------


def _cover_key(p: str, q: str) -> str:
    return f"{p}->{q}"


def _split_cover_key(key: str, covers) -> tuple[str, str]:
    """The cover pair that "p->q" names; p and q may themselves contain "->"."""
    pairs = [
        (key[:i], key[i + 2 :])
        for i in range(len(key))
        if key.startswith("->", i) and (key[:i], key[i + 2 :]) in covers
    ]
    if len(pairs) != 1:
        found = "no" if not pairs else "more than one"
        raise DiagramError(f"transition key {key!r} names {found} cover pair of the index")
    return pairs[0]


def _fiber_to_obj(fiber) -> dict:
    if isinstance(fiber, FinitePoset):
        return poset_to_obj(fiber)
    return complex_to_obj(fiber)


def diagram_to_obj(d: Diagram) -> dict:
    return {
        "index": poset_to_obj(d.index),
        "fibers": {p: _fiber_to_obj(d.fibers[p]) for p in d.index.elements},
        "transitions": {
            _cover_key(p, q): dict(sorted(d.transitions[(p, q)].assignment.items()))
            for (p, q) in sorted(d.index.covers)
        },
    }


def complex_diagram_to_obj(c: Diagram) -> dict:
    # The former name, kept because bench/spans.py looks it up; a def, not an
    # alias, so that the tracer does not wrap diagram_to_obj twice.
    return diagram_to_obj(c)


def _fiber_kind(obj) -> str:
    """"complex" if the fibers have "vertices", "poset" if they have "elements"."""
    kinds = {"complex" if "vertices" in o else "poset" for o in obj["fibers"].values()}
    if len(kinds) > 1:
        raise DiagramError("diagram fibers mix posets and complexes")
    return kinds.pop() if kinds else "poset"


def require_fiber_kind(obj, kind: str) -> None:
    """Reject a serialized diagram whose fibers are not of the given kind."""
    found = _fiber_kind(obj)
    if found != kind:
        raise DiagramError(f"expected a diagram of {kind} fibers, got {found} fibers")


def diagram_from_obj(obj) -> Diagram:
    """A diagram of posets or of complexes, as the fibers' keys say."""
    if _fiber_kind(obj) == "poset":
        load_fiber, make_map, make = poset_from_obj, PosetMap, new_diagram
    else:
        load_fiber, make_map, make = complex_from_obj, SimplicialMap, new_complex_diagram
    index = poset_from_obj(obj["index"])
    fibers = {p: load_fiber(o) for p, o in obj["fibers"].items()}
    maps = {}
    for key, assignment in obj["transitions"].items():
        p, q = _split_cover_key(key, index.covers)
        maps[(p, q)] = make_map(fibers[p], fibers[q], assignment)
    return make(index, fibers, maps)


def morphism_to_obj(alpha: DiagramMorphism) -> dict:
    return {
        "source": diagram_to_obj(alpha.source),
        "target": diagram_to_obj(alpha.target),
        "components": {
            p: dict(sorted(alpha.components[p].assignment.items()))
            for p in alpha.source.index.elements
        },
    }


def morphism_from_obj(obj) -> DiagramMorphism:
    """A morphism of diagrams of posets."""
    require_fiber_kind(obj["source"], "poset")
    require_fiber_kind(obj["target"], "poset")
    source = diagram_from_obj(obj["source"])
    target = diagram_from_obj(obj["target"])
    components = {
        p: PosetMap(source.fibers[p], target.fibers[p], a)
        for p, a in obj["components"].items()
    }
    return DiagramMorphism(source, target, components)


# -- homology -------------------------------------------------------------------


def profile_to_obj(h: HomologyProfile) -> dict:
    return {
        "betti": list(h.betti),
        "torsion": [list(t) for t in h.torsion],
    }


# -- text/bytes -----------------------------------------------------------------


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def to_dot(p: FinitePoset) -> str:
    """Hasse diagram in DOT, covers only, nodes ranked by poset height."""
    heights = p._heights()
    by_height: dict[int, list[str]] = {}
    for e, h in zip(p.elements, heights):
        by_height.setdefault(h, []).append(e)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for h in sorted(by_height):
        row = " ".join(f'"{e}";' for e in by_height[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for (a, b) in sorted(p.covers):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
