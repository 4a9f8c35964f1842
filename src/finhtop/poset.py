"""Finite posets as finite topological spaces, and order-preserving maps.

A finite poset is handled as a finite T0 space whose open sets are the
down-sets; a function between posets is continuous iff it is order
preserving.  Elements are opaque strings.  The order is stored once, as a
dense boolean closure matrix, so every ``leq`` query is a single lookup;
the Hasse diagram is derived from it once, as per-element cover lists.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CycleError,
    DomainMismatch,
    EmptyPoset,
    NotOrderPreserving,
    ReservedIdentifier,
    SizeLimitExceeded,
    UnknownElement,
)

# Separator used to namespace elements of composite constructions (hocolim).
NAMESPACE_SEP = "::"


class FinitePoset:
    """Immutable finite poset.

    ``elements`` is an ordered tuple of distinct identifiers and the cached
    closure matrix answers reachability.  The Hasse diagram is kept as up and
    down lists of element indices, in stored element order; ``covers`` is the
    same relation as a frozenset of (lower, upper) name pairs.
    ``from_closure`` validates outside input and derives the lists by
    transitive reduction; ``subposet`` trusts its parent and derives them
    from the parent's lists.  Values are safe to share across threads; no
    operation mutates its inputs.
    """

    __slots__ = ("elements", "_index", "_leq", "_up", "_down", "_covers", "_hash")

    def __init__(self, elements, leq_matrix, up):
        # Internal constructor: trusts its arguments, and ``up[i]`` lists the
        # indices covering element i in increasing order.  Outside input goes
        # through new_poset() or from_closure(), which validate it; subposet()
        # and opposite() call this directly on orders already known valid.
        self.elements: tuple[str, ...] = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._leq = leq_matrix
        self._leq.flags.writeable = False
        self._up = up
        self._down = [[] for _ in up]
        for i, ups in enumerate(up):
            for j in ups:
                self._down[j].append(i)
        self._covers = None
        self._hash = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_closure(cls, elements: Sequence[str], leq: np.ndarray) -> "FinitePoset":
        """Build from a reflexive-transitive-antisymmetric boolean matrix.

        Covers are recovered by transitive reduction.  Reflexivity,
        antisymmetry and transitivity of ``leq`` are validated.
        """
        n = len(elements)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError("closure matrix shape does not match element count")
        if not leq.diagonal().all():
            raise ValueError("closure must be reflexive")
        both = leq & leq.T
        if both.sum() != n:
            i, j = np.argwhere(both & ~np.eye(n, dtype=bool))[0]
            raise CycleError(f"antisymmetry fails: {elements[i]!r} and {elements[j]!r}")
        strict = leq & ~np.eye(n, dtype=bool)
        # Paths of length two; float32 BLAS matmul is exact for counts < 2^24.
        two = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0
        if (two & ~strict).any():
            raise ValueError("closure is not transitive")
        up: list[list[int]] = [[] for _ in range(n)]
        rows, cols = np.nonzero(strict & ~two)
        for i, j in zip(rows.tolist(), cols.tolist()):
            up[i].append(j)
        return cls(elements, leq, up)

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self._leq, other._leq)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.elements, self._leq.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements, {sum(map(len, self._up))} covers)"

    def is_empty(self) -> bool:
        return not self.elements

    def index_of(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is not an element") from None

    def leq(self, x: str, y: str) -> bool:
        """True iff x <= y."""
        return bool(self._leq[self.index_of(x), self.index_of(y)])

    def lt(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def closure_matrix(self) -> np.ndarray:
        """The cached reachability matrix (read-only view)."""
        return self._leq

    # -- cover-relation views ----------------------------------------------

    @property
    def covers(self) -> frozenset[tuple[str, str]]:
        """The Hasse relation as (lower, upper) pairs, built on first read."""
        if self._covers is None:
            els = self.elements
            self._covers = frozenset(
                (els[i], els[j]) for i, ups in enumerate(self._up) for j in ups
            )
        return self._covers

    def covers_above(self, x: str) -> list[str]:
        """Elements covering x, in stored element order."""
        return [self.elements[j] for j in self._up[self.index_of(x)]]

    def covers_below(self, x: str) -> list[str]:
        return [self.elements[j] for j in self._down[self.index_of(x)]]

    def maximal_elements(self) -> list[str]:
        return [e for e, ups in zip(self.elements, self._up) if not ups]

    def minimal_elements(self) -> list[str]:
        return [e for e, dns in zip(self.elements, self._down) if not dns]

    def maximum(self) -> str | None:
        """The greatest element if one exists, else None."""
        tops = self.maximal_elements()
        if len(tops) == 1 and bool(self._leq[:, self.index_of(tops[0])].all()):
            return tops[0]
        return None

    def minimum(self) -> str | None:
        bots = self.minimal_elements()
        if len(bots) == 1 and bool(self._leq[self.index_of(bots[0]), :].all()):
            return bots[0]
        return None

    # -- subposets ----------------------------------------------------------

    def subposet(self, keep: Iterable[str]) -> "FinitePoset":
        """Full induced subposet on ``keep``, in this poset's element order.

        Trusted: an induced suborder of a valid closure is valid, so nothing
        is re-checked.  The covers of a kept element are the minimal kept
        elements reached by walking up the Hasse lists through dropped ones;
        when every cover is kept they are just renumbered.
        """
        idx = sorted({self.index_of(x) for x in keep})
        new = [-1] * len(self.elements)
        for k, i in enumerate(idx):
            new[i] = k
        up: list[list[int]] = []
        for i in idx:
            ups = [new[j] for j in self._up[i]]
            if -1 in ups:
                ups = self._kept_covers(i, new)
            up.append(ups)
        leq = self._leq.take(idx, axis=0).take(idx, axis=1)
        return FinitePoset([self.elements[i] for i in idx], leq, up)

    def _kept_covers(self, i: int, new: list[int]) -> list[int]:
        """New indices of the minimal kept elements above i (``new[j]`` is -1
        for a dropped j), in increasing order."""
        reached: set[int] = set()
        seen: set[int] = set()
        stack = [i]
        while stack:
            for j in self._up[stack.pop()]:
                if new[j] >= 0:
                    reached.add(j)
                elif j not in seen:
                    seen.add(j)
                    stack.append(j)
        r = sorted(reached)
        if len(r) > 1:
            below = self._leq.take(r, axis=0).take(r, axis=1).sum(axis=0).tolist()
            r = [j for j, b in zip(r, below) if b == 1]
        return [new[j] for j in r]

    def without(self, x: str) -> "FinitePoset":
        self.index_of(x)
        return self.subposet(e for e in self.elements if e != x)

    def up_set(self, x: str) -> "FinitePoset":
        """Subposet of elements >= x (the basic closed set F_x)."""
        i = self.index_of(x)
        return self.subposet(e for e in self.elements if self._leq[i, self._index[e]])

    def down_set(self, x: str) -> "FinitePoset":
        """Subposet of elements <= x (the minimal basic open set U_x)."""
        i = self.index_of(x)
        return self.subposet(e for e in self.elements if self._leq[self._index[e], i])

    def strict_up_set(self, x: str) -> "FinitePoset":
        i = self.index_of(x)
        return self.subposet(
            e for e in self.elements if e != x and self._leq[i, self._index[e]]
        )

    def strict_down_set(self, x: str) -> "FinitePoset":
        i = self.index_of(x)
        return self.subposet(
            e for e in self.elements if e != x and self._leq[self._index[e], i]
        )

    # -- constructions -----------------------------------------------------

    def opposite(self) -> "FinitePoset":
        """Same elements with the order reversed; an involution."""
        return FinitePoset(self.elements, self._leq.T.copy(), self._down)

    def linear_extension(self) -> list[str]:
        """Deterministic topological order.

        Kahn's algorithm drawing the lexicographically smallest available
        identifier, so equal inputs give byte-identical output.
        """
        indeg = [len(dns) for dns in self._down]
        heap = [e for e, k in zip(self.elements, indeg) if k == 0]
        heapq.heapify(heap)
        out = []
        while heap:
            x = heapq.heappop(heap)
            out.append(x)
            for j in self._up[self._index[x]]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, self.elements[j])
        return out

    def _heights(self) -> list[int]:
        h = [0] * len(self.elements)
        for e in self.linear_extension():
            i = self._index[e]
            for d in self.covers_below(e):
                h[i] = max(h[i], h[self._index[d]] + 1)
        return h


def _check_identifiers(elements: Sequence[str], allow_reserved: bool) -> None:
    seen = set()
    for e in elements:
        if not isinstance(e, str):
            raise TypeError(f"element identifiers must be strings, got {e!r}")
        if e in seen:
            raise ValueError(f"duplicate element identifier {e!r}")
        seen.add(e)
        if not allow_reserved and NAMESPACE_SEP in e:
            raise ReservedIdentifier(
                f"{e!r} contains the reserved separator {NAMESPACE_SEP!r}"
            )


def _poset_from_relations(
    elements: Sequence[str],
    relations: Iterable[tuple[str, str]],
    allow_reserved: bool,
) -> FinitePoset:
    elements = list(elements)
    _check_identifiers(elements, allow_reserved)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    succ: list[set[int]] = [set() for _ in range(n)]
    for (a, b) in relations:
        if a not in index:
            raise UnknownElement(f"relation references unknown element {a!r}")
        if b not in index:
            raise UnknownElement(f"relation references unknown element {b!r}")
        if a != b:
            succ[index[a]].add(index[b])

    # Kahn toposort of the raw relation digraph; leftovers witness a cycle.
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) != n:
        stuck = sorted(elements[i] for i in range(n) if indeg[i] > 0)
        raise CycleError(f"relation contains a cycle through {stuck}")

    # Reachability by DP in reverse topological order.
    leq = np.eye(n, dtype=bool)
    for i in reversed(order):
        for j in succ[i]:
            leq[i] |= leq[j]
    return FinitePoset.from_closure(elements, leq)


def new_poset(
    elements: Sequence[str], relations: Iterable[tuple[str, str]] = ()
) -> FinitePoset:
    """Build a poset from identifiers and arbitrary (acyclic) order relations.

    The input relation is transitively reduced to the cover relation; the
    closure is cached.  Identifiers containing '::' are reserved for
    namespaced composite constructions and rejected here.
    """
    return _poset_from_relations(elements, relations, allow_reserved=False)


def poset_from_relations_unchecked_names(
    elements: Sequence[str], relations: Iterable[tuple[str, str]]
) -> FinitePoset:
    """Like new_poset but accepts '::' in identifiers.

    Used when reloading serialized composite constructions (hocolim output
    names elements "p::x"); everything else is validated identically.
    """
    return _poset_from_relations(elements, relations, allow_reserved=True)


def chain(n: int, prefix: str = "c") -> FinitePoset:
    """The chain c0 < c1 < ... < c{n-1}."""
    els = [f"{prefix}{i}" for i in range(n)]
    return new_poset(els, [(els[i], els[i + 1]) for i in range(n - 1)])


def antichain(n: int, prefix: str = "a") -> FinitePoset:
    return new_poset([f"{prefix}{i}" for i in range(n)], [])


def product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Product order; element (x, y) is named "(x,y)"."""
    elements = [f"({x},{y})" for x in p.elements for y in q.elements]
    return FinitePoset.from_closure(elements, np.kron(p.closure_matrix(), q.closure_matrix()))


class PosetMap:
    """Order-preserving (= continuous) map between finite posets."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: FinitePoset, target: FinitePoset, assignment: Mapping[str, str]):
        missing = [x for x in source.elements if x not in assignment]
        if missing:
            raise UnknownElement(f"assignment not total; missing {missing[:3]}")
        extra = [x for x in assignment if x not in source]
        if extra:
            raise UnknownElement(f"assignment defined on non-elements {extra[:3]}")
        for x, y in assignment.items():
            if y not in target:
                raise UnknownElement(f"assignment value {y!r} not in target")
        for (a, b) in source.covers:
            if not target.leq(assignment[a], assignment[b]):
                raise NotOrderPreserving(
                    f"{a!r} <= {b!r} but {assignment[a]!r} !<= {assignment[b]!r}"
                )
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def __call__(self, x: str) -> str:
        try:
            return self.assignment[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is not in the source") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PosetMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(sorted(self.assignment.items()))))

    def __repr__(self) -> str:
        return f"PosetMap({len(self.source)} -> {len(self.target)} elements)"

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            v == k for k, v in self.assignment.items()
        )


def new_map(source: FinitePoset, target: FinitePoset, assignment: Mapping[str, str]) -> PosetMap:
    return PosetMap(source, target, assignment)


def identity(p: FinitePoset) -> PosetMap:
    return PosetMap(p, p, {x: x for x in p.elements})


def compose(f: PosetMap, g: PosetMap) -> PosetMap:
    """The composite "f then g" (i.e. g after f)."""
    if f.target != g.source:
        raise DomainMismatch("compose requires f.target == g.source")
    return PosetMap(f.source, g.target, {x: g(f(x)) for x in f.source.elements})


def constant_map(source: FinitePoset, target: FinitePoset, value: str) -> PosetMap:
    target.index_of(value)
    return PosetMap(source, target, {x: value for x in source.elements})


def preimage(f: PosetMap, targets: Iterable[str]) -> FinitePoset:
    """Induced subposet of the source on f^{-1}(targets)."""
    wanted = set()
    for t in targets:
        f.target.index_of(t)
        wanted.add(t)
    return f.source.subposet(x for x in f.source.elements if f(x) in wanted)


def _invariant_signature(p: FinitePoset) -> dict[str, tuple]:
    heights = p._heights()
    op_heights = p.opposite()._heights()
    mat = p.closure_matrix()
    sig = {}
    for i, x in enumerate(p.elements):
        sig[x] = (
            len(p.covers_below(x)),
            len(p.covers_above(x)),
            heights[i],
            op_heights[i],
            int(mat[i].sum()),
            int(mat[:, i].sum()),
        )
    return sig


def is_isomorphic(p: FinitePoset, q: FinitePoset, max_size: int = 12) -> bool:
    """Exact isomorphism test by invariant-pruned backtracking.

    Intended for small posets; raises SizeLimitExceeded beyond ``max_size``.
    """
    if max(len(p), len(q)) > max_size:
        raise SizeLimitExceeded(
            f"isomorphism search limited to {max_size} elements"
        )
    if len(p) != len(q) or len(p.covers) != len(q.covers):
        return False
    sig_p = _invariant_signature(p)
    sig_q = _invariant_signature(q)
    if sorted(sig_p.values()) != sorted(sig_q.values()):
        return False
    candidates = {
        x: [y for y in q.elements if sig_q[y] == sig_p[x]] for x in p.elements
    }
    # Scarcest candidate lists first.
    order = sorted(p.elements, key=lambda x: (len(candidates[x]), x))

    assigned: dict[str, str] = {}
    used: set[str] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        for y in candidates[x]:
            if y in used:
                continue
            ok = True
            for x2, y2 in assigned.items():
                if p.leq(x, x2) != q.leq(y, y2) or p.leq(x2, x) != q.leq(y2, y):
                    ok = False
                    break
            if ok:
                assigned[x] = y
                used.add(y)
                if extend(k + 1):
                    return True
                del assigned[x]
                used.remove(y)
        return False

    return extend(0)


def require_nonempty(p: FinitePoset, what: str = "poset") -> None:
    if p.is_empty():
        raise EmptyPoset(f"operation requires a nonempty {what}")
