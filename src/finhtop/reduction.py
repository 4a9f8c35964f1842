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


# -- the mask kernel -------------------------------------------------------------

_BEATS = (UP_BEAT, DOWN_BEAT)
_COLLAPSES = _BEATS + (UP_WEAK, DOWN_WEAK)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _has_least(m: int, down: list[int], up: list[int]) -> bool:
    """Whether m has a least element in the order whose strict down- and
    up-masks are ``down`` and ``up``: walk down to a minimal element of m,
    then ask whether all of m lies above it."""
    if not m:
        return False
    i = (m & -m).bit_length() - 1
    while lower := down[i] & m:
        i = (lower & -lower).bit_length() - 1
    return m & ~up[i] == 1 << i


class _Live:
    """Removals on one root poset, whose live elements form an int mask.

    Bit i of a mask is element i of the root.  ``up[i]`` and ``down[i]`` are
    the root's strict up- and down-sets of i; restricted to a live mask s
    they are the strict sets of i in the induced subposet on s, so deleting
    an element clears one bit and no poset is built in between.
    """

    __slots__ = ("root", "up", "down", "full", "by_rank", "rank", "_dismantles")

    def __init__(self, root: FinitePoset):
        self.root = root
        self.up, self.down = root._strict_masks()
        self.full = (1 << len(root)) - 1
        # by_rank lists the element indices by identifier; rank inverts it.
        self.by_rank = sorted(range(len(root)), key=root.elements.__getitem__)
        self.rank = [0] * len(root)
        for r, i in enumerate(self.by_rank):
            self.rank[i] = r
        self._dismantles: dict[int, bool] = {}

    def poset(self, s: int) -> FinitePoset:
        """The induced subposet on s (the root itself when nothing was removed)."""
        if s == self.full:
            return self.root
        return self.root.subposet([self.root.elements[i] for i in _bits(s)])

    def is_beat(self, i: int, kind: str, s: int) -> bool:
        """Exactly one cover of i inside s on the kind's side: the live strict
        set on that side has a least (up) or greatest (down) element."""
        if kind == UP_BEAT:
            return _has_least(self.up[i] & s, self.down, self.up)
        return _has_least(self.down[i] & s, self.up, self.down)

    def dismantles(self, m: int) -> bool:
        """Whether the nonempty induced subposet on m beat-dismantles to a
        point.  By Stong the core is unique up to isomorphism, so the order
        of removals here does not matter."""
        known = self._dismantles.get(m)
        if known is None:
            rest, changed = m, True
            while changed and rest & (rest - 1):
                changed = False
                for i in _bits(rest):
                    if self.is_beat(i, UP_BEAT, rest) or self.is_beat(i, DOWN_BEAT, rest):
                        rest &= ~(1 << i)
                        changed = True
            known = self._dismantles[m] = rest & (rest - 1) == 0
        return known

    def holds(self, i: int, kind: str, s: int, budget: int, gamma_depth: int) -> bool:
        if kind in _BEATS:
            return self.is_beat(i, kind, s)
        if kind not in KINDS:
            raise ValueError(f"unknown removal kind {kind!r}")
        side = (self.up if kind in (UP_WEAK, GAMMA_UP) else self.down)[i] & s
        if not side:
            return False
        if kind in (UP_WEAK, DOWN_WEAK):
            return self.dismantles(side)
        return triviality_oracle(self.poset(side), budget, gamma_depth).is_trivial()

    def first_kind(self, i, s, kinds, budget=DEFAULT_BUDGET, gamma_depth=DEFAULT_GAMMA_DEPTH):
        """The first of ``kinds`` that holds for i in s, or None."""
        for kind in kinds:
            if self.holds(i, kind, s, budget, gamma_depth):
                return kind
        return None

    def first(self, s, kinds, budget, gamma_depth) -> tuple[int, str] | None:
        """The first element of s in scan order for which one of ``kinds``
        holds, with the first such kind."""
        for i in self.scan(s):
            kind = self.first_kind(i, s, kinds, budget, gamma_depth)
            if kind is not None:
                return i, kind
        return None

    def scan(self, s: int) -> Iterator[int]:
        """The elements of s in scan order, lazily: Kahn's algorithm drawing
        the smallest identifier among the minimal elements not yet drawn.
        This is ``linear_extension()`` of the induced subposet on s.  The
        minimal elements are kept as a mask over name ranks, so the smallest
        identifier is its lowest bit."""
        up, down, rank, by_rank = self.up, self.down, self.rank, self.by_rank
        ready = 0
        for i in _bits(s):
            if not down[i] & s:
                ready |= 1 << rank[i]
        rest = s
        while ready:
            low = ready & -ready
            ready ^= low
            i = by_rank[low.bit_length() - 1]
            rest ^= 1 << i
            yield i
            above = up[i] & rest
            while above:
                bit = above & -above
                above ^= bit
                j = bit.bit_length() - 1
                if not down[j] & rest:
                    ready |= 1 << rank[j]

    def core(self, s: int) -> tuple[int, list[tuple[int, str]]]:
        """Remove the first beat point in scan order until none is left.

        ``clean`` holds the live elements known not to be beat points.  A
        removal changes the live strict sets only of the elements comparable
        to the removed one, so only those are tested again.
        """
        steps: list[tuple[int, str]] = []
        clean = 0
        while s & (s - 1):
            for i in self.scan(s):
                if not clean >> i & 1:
                    kind = self.first_kind(i, s, _BEATS)
                    if kind is not None:
                        break
                    clean |= 1 << i
            else:
                break
            steps.append((i, kind))
            s &= ~(1 << i)
            clean &= ~(self.up[i] | self.down[i])
        return s, steps

    def search(self, s: int, budget: int) -> list[tuple[int, str]] | None:
        """Bounded DFS over live masks for weak-point deletions down to one
        point; exhausted masks are dead and never expanded again."""
        dead: set[int] = set()
        visited = 0
        # frames[i] is a live mask with an iterator over its untried
        # candidates; steps[i] removes a point of frames[i] to reach the next.
        frames: list[tuple[int, Iterator[tuple[int, str]]]] = []
        steps: list[tuple[int, str]] = []
        while s & (s - 1):
            if s in dead:
                steps.pop()
            else:
                visited += 1
                if visited > budget:
                    return None
                candidates = [
                    (i, kind)
                    for i in self.scan(s)
                    if (kind := self.first_kind(i, s, _COLLAPSES)) is not None
                ]
                candidates.sort(key=lambda step: step[1] not in _BEATS)
                frames.append((s, iter(candidates)))
            while (step := next(frames[-1][1], None)) is None:
                dead.add(frames.pop()[0])
                if not frames:
                    return None
                steps.pop()
            steps.append(step)
            s = frames[-1][0] & ~(1 << step[0])
        return steps

    def replay(self, steps, budget: int) -> tuple[int, tuple[str, str] | None]:
        """The live mask after the steps, and the first step that fails (or None)."""
        s = self.full
        for x, kind in steps:
            i = self.root.index_of(x) if x in self.root else None
            if i is None or not s >> i & 1:
                raise UnknownElement(f"removal of {x!r} which is not present")
            if not self.holds(i, kind, s, budget, DEFAULT_GAMMA_DEPTH):
                return s, (x, kind)
            s &= ~(1 << i)
        return s, None

    def sequence(self, steps: list[tuple[int, str]]) -> RemovalSequence:
        return RemovalSequence(tuple((self.root.elements[i], kind) for i, kind in steps))


# -- the kind test and the replay loop -----------------------------------------


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
    live = _Live(p)
    return live.holds(p.index_of(x), kind, live.full, budget, gamma_depth)


def is_up_beat(p: FinitePoset, x: str) -> bool:
    """x has a unique cover above, i.e. its strict up-set has a minimum."""
    return holds(p, x, UP_BEAT)


def is_down_beat(p: FinitePoset, x: str) -> bool:
    return holds(p, x, DOWN_BEAT)


def replay(p: FinitePoset, steps, budget: int = DEFAULT_BUDGET):
    """Remove the (element, kind) steps in order, checking each kind when its
    element is removed.

    Returns (the poset left, None), or (the poset at the failing step, that
    step).  Raises UnknownElement when a step's element is not present.
    """
    live = _Live(p)
    s, failed = live.replay(steps, budget)
    return live.poset(s), failed


# -- beat points --------------------------------------------------------------


def core(p: FinitePoset) -> tuple[FinitePoset, RemovalSequence]:
    """Remove beat points greedily to a fixed point, each time the first one
    in linear-extension order of what is left.

    By Stong's theorem the result is independent of the order up to
    isomorphism, and p is contractible iff the core is a single point.
    """
    require_nonempty(p)
    live = _Live(p)
    s, steps = live.core(live.full)
    return live.poset(s), live.sequence(steps)


@lru_cache(maxsize=65536)
def is_contractible(p: FinitePoset) -> bool:
    """True iff p is dismantlable (beat-point removal reaches a point)."""
    require_nonempty(p)
    live = _Live(p)
    return live.dismantles(live.full)


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
    live = _Live(p)
    steps = live.search(live.full, budget)
    return None if steps is None else live.sequence(steps)


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
        live = _Live(current)
        gamma = live.first(live.full, (GAMMA_DOWN, GAMMA_UP), budget, gamma_depth - 1)
        if gamma is None:
            return Triviality(UNKNOWN, {"budget": budget, "no_gamma_point_found": True})
        s, more = live.core(live.full & ~(1 << gamma[0]))
        steps.extend(live.sequence([gamma] + more).steps)
        current = live.poset(s)
    return Triviality(TRIVIAL, {"sequence": RemovalSequence(tuple(steps))})


def verify_removal_sequence(
    p: FinitePoset, seq: RemovalSequence, budget: int = DEFAULT_BUDGET
) -> bool:
    """Replay the sequence, checking the claimed kind at every removal time.

    Gamma kinds are checked with the triviality oracle; an Unknown verdict
    fails the verification (the claim cannot be certified).
    """
    return _Live(p).replay(seq.steps, budget)[1] is None
