"""Reduction methods for finite posets.

Beat points (strong deformation retractions), weak points (elementary
collapses), gamma points (simple equivalences), the Stong core, a bounded
collapse search and a three-valued homotopical-triviality oracle.  The
oracle is never wrong but may answer Unknown; every positive verdict
carries a replayable removal sequence and every negative one a homology
certificate or emptiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import UnknownElement
from .homology import poset_homology
from .poset import FinitePoset, require_nonempty

DEFAULT_BUDGET = 100_000
DEFAULT_GAMMA_DEPTH = 3

UP_BEAT = "up-beat"
DOWN_BEAT = "down-beat"
UP_WEAK = "up-weak"
DOWN_WEAK = "down-weak"
GAMMA_UP = "gamma-up"
GAMMA_DOWN = "gamma-down"

KINDS = (UP_BEAT, DOWN_BEAT, UP_WEAK, DOWN_WEAK, GAMMA_UP, GAMMA_DOWN)

TRIVIAL = "Trivial"
NONTRIVIAL = "NonTrivial"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RemovalSequence:
    """Ordered removals (element, kind); each kind must hold at removal time."""

    steps: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for _, kind in self.steps:
            if kind not in KINDS:
                raise ValueError(f"unknown removal kind {kind!r}")

    def __len__(self) -> int:
        return len(self.steps)

    def to_obj(self) -> list[dict]:
        return [{"element": e, "kind": k} for e, k in self.steps]

    @classmethod
    def from_obj(cls, obj) -> "RemovalSequence":
        return cls(tuple((d["element"], d["kind"]) for d in obj))


@dataclass(frozen=True)
class Triviality:
    """Three-valued homotopical-triviality verdict with evidence.

    Trivial   -> evidence["sequence"] replays the poset down to one point.
    NonTrivial-> evidence carries nonzero reduced homology, or emptiness.
    Unknown   -> evidence reports the exhausted budget/depth.
    """

    verdict: str
    evidence: dict

    def is_trivial(self) -> bool:
        return self.verdict == TRIVIAL

    def to_obj(self) -> dict:
        ev = dict(self.evidence)
        if isinstance(ev.get("sequence"), RemovalSequence):
            ev["sequence"] = ev["sequence"].to_obj()
        return {"verdict": self.verdict, "evidence": ev}


# -- the kind test and the replay loop -----------------------------------------

_BEATS = (UP_BEAT, DOWN_BEAT)


def holds(
    p: FinitePoset,
    x: str,
    kind: str,
    budget: int = DEFAULT_BUDGET,
    gamma_depth: int = DEFAULT_GAMMA_DEPTH,
) -> bool:
    """Whether x is removable from p as a point of the given kind right now.

    Beat: x has a unique cover on that side.  Weak: the strict set on that
    side is nonempty and contractible.  Gamma: the oracle certifies that
    strict set homotopically trivial; Unknown counts as no.  Empty strict
    sets never qualify, so minimal points are never down weak or gamma-down.
    """
    if kind == UP_BEAT:
        return len(p.covers_above(x)) == 1
    if kind == DOWN_BEAT:
        return len(p.covers_below(x)) == 1
    if kind not in KINDS:
        raise ValueError(f"unknown removal kind {kind!r}")
    side = p.strict_up_set(x) if kind in (UP_WEAK, GAMMA_UP) else p.strict_down_set(x)
    if side.is_empty():
        return False
    if kind in (UP_WEAK, DOWN_WEAK):
        return is_contractible(side)
    return triviality_oracle(side, budget, gamma_depth).is_trivial()


def is_up_beat(p: FinitePoset, x: str) -> bool:
    """x has a unique cover above, i.e. its strict up-set has a minimum."""
    return holds(p, x, UP_BEAT)


def is_down_beat(p: FinitePoset, x: str) -> bool:
    return holds(p, x, DOWN_BEAT)


def is_up_weak(p: FinitePoset, x: str) -> bool:
    return holds(p, x, UP_WEAK)


def is_down_weak(p: FinitePoset, x: str) -> bool:
    return holds(p, x, DOWN_WEAK)


def replay(p: FinitePoset, steps, budget: int = DEFAULT_BUDGET):
    """Remove the (element, kind) steps in order, checking each kind when its
    element is removed.

    Returns (the poset left, None), or (the poset at the failing step, that
    step).  Raises UnknownElement when a step's element is not present.
    """
    current = p
    for x, kind in steps:
        if x not in current:
            raise UnknownElement(f"removal of {x!r} which is not present")
        if not holds(current, x, kind, budget):
            return current, (x, kind)
        current = current.without(x)
    return current, None


def _removable(p: FinitePoset, kinds, budget=DEFAULT_BUDGET, gamma_depth=DEFAULT_GAMMA_DEPTH):
    """Yield (x, first of ``kinds`` that holds) for x in linear-extension order."""
    for x in p.linear_extension():
        for kind in kinds:
            if holds(p, x, kind, budget, gamma_depth):
                yield x, kind
                break


# -- beat points --------------------------------------------------------------


def core(p: FinitePoset) -> tuple[FinitePoset, RemovalSequence]:
    """Remove beat points greedily (linear-extension scan order) to a fixed point.

    By Stong's theorem the result is independent of the order up to
    isomorphism, and p is contractible iff the core is a single point.
    """
    require_nonempty(p)
    steps: list[tuple[str, str]] = []
    current = p
    while len(current) > 1:
        found = next(_removable(current, _BEATS), None)
        if found is None:
            break
        steps.append(found)
        current = current.without(found[0])
    return current, RemovalSequence(tuple(steps))


@lru_cache(maxsize=65536)
def is_contractible(p: FinitePoset) -> bool:
    """True iff p is dismantlable (beat-point removal reaches a point)."""
    require_nonempty(p)
    return len(core(p)[0]) == 1


# -- weak points --------------------------------------------------------------


def collapse_search(p: FinitePoset, budget: int = DEFAULT_BUDGET) -> RemovalSequence | None:
    """Bounded DFS for a sequence of weak-point deletions down to one point.

    Greedy deletion can strand, so failed states are memoized and the
    search backtracks.  Candidates are tried beat points first, so that
    contractible posets come out with all-beat sequences, each group in
    linear-extension order.  Returns None when no sequence was found within
    the budget (inconclusive).
    """
    require_nonempty(p)
    dead: set[frozenset[str]] = set()
    visited = 0
    # frames[i] is a live state with an iterator over its untried candidates;
    # steps[i] removes a point of frames[i] to reach the next state.
    frames: list[tuple[FinitePoset, Iterator[tuple[str, str]]]] = []
    steps: list[tuple[str, str]] = []
    current = p
    while len(current) > 1:
        if frozenset(current.elements) in dead:
            steps.pop()
        else:
            visited += 1
            if visited > budget:
                return None
            candidates = _removable(current, _BEATS + (UP_WEAK, DOWN_WEAK))
            ordered = sorted(candidates, key=lambda step: step[1] not in _BEATS)
            frames.append((current, iter(ordered)))
        while (step := next(frames[-1][1], None)) is None:
            dead.add(frozenset(frames.pop()[0].elements))
            if not frames:
                return None
            steps.pop()
        steps.append(step)
        current = frames[-1][0].without(step[0])
    return RemovalSequence(tuple(steps))


# -- gamma points and the oracle ----------------------------------------------


def triviality_oracle(
    p: FinitePoset,
    budget: int = DEFAULT_BUDGET,
    gamma_depth: int = DEFAULT_GAMMA_DEPTH,
) -> Triviality:
    """Layered decision procedure for weak contractibility.

    empty -> NonTrivial; dismantlable -> Trivial; nonzero reduced homology
    -> NonTrivial; otherwise search collapse sequences and gamma-point
    removals within the budget; else Unknown.  Sound in both directions,
    never claims what it cannot certify.
    """
    if p.is_empty():
        return Triviality(NONTRIVIAL, {"empty": True})
    current, seq = core(p)
    steps = list(seq.steps)
    if len(current) > 1:
        profile = poset_homology(current)
        if not profile.is_trivial():
            return Triviality(
                NONTRIVIAL,
                {
                    "nonzero_homology": {
                        "betti": list(profile.betti),
                        "torsion": [list(t) for t in profile.torsion],
                    }
                },
            )
    # current is a core at the top of every pass.
    while len(current) > 1:
        found = collapse_search(current, budget)
        if found is not None:
            steps.extend(found.steps)
            break
        if gamma_depth <= 0:
            return Triviality(UNKNOWN, {"budget": budget, "gamma_depth_exhausted": True})
        gamma = next(_removable(current, (GAMMA_DOWN, GAMMA_UP), budget, gamma_depth - 1), None)
        if gamma is None:
            return Triviality(UNKNOWN, {"budget": budget, "no_gamma_point_found": True})
        steps.append(gamma)
        current, seq = core(current.without(gamma[0]))
        steps.extend(seq.steps)
    return Triviality(TRIVIAL, {"sequence": RemovalSequence(tuple(steps))})


def is_gamma_point(p: FinitePoset, x: str, budget: int = DEFAULT_BUDGET) -> Triviality:
    """Verdict on whether the strict up- or down-set of x is homotopically trivial."""
    p.index_of(x)
    down = triviality_oracle(p.strict_down_set(x), budget)
    if down.is_trivial():
        return Triviality(TRIVIAL, {"side": "down", "inner": down.evidence})
    up = triviality_oracle(p.strict_up_set(x), budget)
    if up.is_trivial():
        return Triviality(TRIVIAL, {"side": "up", "inner": up.evidence})
    if down.verdict == NONTRIVIAL and up.verdict == NONTRIVIAL:
        return Triviality(NONTRIVIAL, {"down": down.evidence, "up": up.evidence})
    return Triviality(UNKNOWN, {"down": down.verdict, "up": up.verdict})


def verify_removal_sequence(
    p: FinitePoset, seq: RemovalSequence, budget: int = DEFAULT_BUDGET
) -> bool:
    """Replay the sequence, checking the claimed kind at every removal time.

    Gamma kinds are checked with the triviality oracle; an Unknown verdict
    fails the verification (the claim cannot be certified).
    """
    return replay(p, seq.steps, budget)[1] is None
