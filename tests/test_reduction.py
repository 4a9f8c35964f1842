import os
import random
import subprocess
import sys

import numpy as np
import pytest

import finhtop
from finhtop import EmptyPoset, chain, new_poset, product
from finhtop.homology import poset_homology
from finhtop.reduction import (
    DOWN_WEAK,
    KINDS,
    UP_WEAK,
    RemovalSequence,
    Triviality,
    collapse_search,
    core,
    holds,
    is_contractible,
    is_down_beat,
    is_up_beat,
    replay,
    triviality_oracle,
    verify_removal_sequence,
)
from finhtop.simplicial import face_poset, new_complex
from finhtop.verify.randgen import random_poset
from finhtop.verify.suite import circle_poset, w_poset


def shuffled_dismantle(p, rng):
    """Independent greedy beat removal in a shuffled order."""
    current = p
    while len(current) > 1:
        candidates = [
            x
            for x in current.elements
            if is_up_beat(current, x) or is_down_beat(current, x)
        ]
        if not candidates:
            return False
        current = current.without(rng.choice(candidates))
    return True


@pytest.fixture
def cone():
    return new_poset(["m", "a", "b"], [("m", "a"), ("m", "b")])


class TestBeatPoints:
    def test_chain_middle_is_both(self):
        p = chain(3)
        assert is_up_beat(p, "c1")
        assert is_down_beat(p, "c1")

    def test_s1_has_no_beat_points(self, s1):
        for x in s1.elements:
            assert not is_up_beat(s1, x)
            assert not is_down_beat(s1, x)

    def test_edge_face_poset_top_not_down_beat(self):
        fp = face_poset(new_complex(["1", "2"], [["1", "2"]]))
        # the strict down-set of {1,2} is the antichain {1},{2}
        assert not is_down_beat(fp, "{1,2}")
        assert is_up_beat(fp, "{1}")


class TestCore:
    def test_chain_collapses_to_point(self):
        c, seq = core(chain(5))
        assert len(c) == 1
        assert len(seq) == 4
        assert verify_removal_sequence(chain(5), seq)

    def test_s1_is_its_own_core(self, s1):
        c, seq = core(s1)
        assert c == s1
        assert len(seq) == 0

    def test_w_is_its_own_core(self, w):
        c, _ = core(w)
        assert len(c) == 11

    def test_core_idempotent(self):
        for seed in range(6):
            p = random_poset(9, 0.4, 1100 + seed)
            c, _ = core(p)
            again, seq = core(c)
            assert again == c
            assert len(seq) == 0

    def test_empty(self):
        with pytest.raises(EmptyPoset):
            core(new_poset([], []))


class TestContractible:
    def test_cone_is_contractible(self, cone):
        assert is_contractible(cone)

    def test_any_poset_with_maximum(self):
        for seed in range(4):
            base = random_poset(6, 0.4, 1200 + seed)
            coned = new_poset(
                list(base.elements) + ["top"],
                sorted(base.covers) + [(m, "top") for m in base.maximal_elements()],
            )
            assert is_contractible(coned)

    def test_s1_not_contractible(self, s1):
        assert not is_contractible(s1)

    def test_w_not_contractible(self, w):
        assert not is_contractible(w)

    def test_greedy_order_independent(self):
        rng = random.Random(5)
        for seed in range(10):
            p = random_poset(8, 0.4, 1300 + seed)
            assert is_contractible(p) == shuffled_dismantle(p, rng)


class TestWeakPoints:
    def test_beat_points_are_weak(self):
        for seed in range(5):
            p = random_poset(8, 0.4, 1400 + seed)
            for x in p.elements:
                if is_up_beat(p, x):
                    assert holds(p, x, UP_WEAK)
                if is_down_beat(p, x):
                    assert holds(p, x, DOWN_WEAK)

    def test_w_element_9_is_down_weak(self, w):
        # its strict down-set {1,2,3,5,6} dismantles (2 and 3 are up beat
        # points there), so 9 is a weak point even though W has no beat points
        down = w.strict_down_set("9")
        assert set(down.elements) == {"1", "2", "3", "5", "6"}
        assert is_contractible(down)
        assert holds(w, "9", DOWN_WEAK)
        assert not holds(w, "9", UP_WEAK)

    def test_minimum_of_cone_not_down_weak(self, cone):
        # the empty strict down-set is not contractible
        assert not holds(cone, "m", DOWN_WEAK)

    def test_s1_has_no_weak_points(self, s1):
        for x in s1.elements:
            assert not holds(s1, x, UP_WEAK)
            assert not holds(s1, x, DOWN_WEAK)


class TestCollapseSearch:
    def test_contractible_gives_all_beat_sequence(self):
        for seed in range(5):
            base = random_poset(5, 0.4, 1500 + seed)
            coned = new_poset(
                list(base.elements) + ["top"],
                sorted(base.covers) + [(m, "top") for m in base.maximal_elements()],
            )
            seq = collapse_search(coned)
            assert seq is not None
            assert all(kind in ("up-beat", "down-beat") for _, kind in seq.steps)
            assert verify_removal_sequence(coned, seq)

    def test_w_collapses_within_default_budget(self, w):
        seq = collapse_search(w)
        assert seq is not None
        assert len(seq) == 10
        assert verify_removal_sequence(w, seq)

    def test_s1_has_no_collapse(self, s1):
        assert collapse_search(s1) is None

    def test_budget_exhaustion_returns_none(self, w):
        assert collapse_search(w, budget=0) is None

    def test_long_chain_needs_no_recursion(self):
        # one removal per point: 199 steps must not grow the Python stack
        code = (
            "import sys\n"
            "from finhtop import chain\n"
            "from finhtop.reduction import collapse_search\n"
            "sys.setrecursionlimit(150)\n"
            "print('steps:', len(collapse_search(chain(200))))\n"
        )
        src = os.path.dirname(os.path.dirname(finhtop.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "steps: 199\n"


class TestTrivialityOracle:
    def test_singleton(self):
        v = triviality_oracle(new_poset(["x"], []))
        assert v.verdict == "Trivial"
        assert len(v.evidence["sequence"]) == 0

    def test_empty_is_nontrivial(self):
        v = triviality_oracle(new_poset([], []))
        assert v.verdict == "NonTrivial"
        assert v.evidence == {"empty": True}

    def test_s1_nontrivial_with_homology_certificate(self, s1):
        v = triviality_oracle(s1)
        assert v.verdict == "NonTrivial"
        assert v.evidence["nonzero_homology"]["betti"] == [1, 1]

    def test_w_trivial_with_replayable_sequence(self, w):
        v = triviality_oracle(w)
        assert v.verdict == "Trivial"
        assert verify_removal_sequence(w, v.evidence["sequence"])

    def test_oracle_never_lies(self):
        # soundness audit on a batch of random posets
        for seed in range(25):
            p = random_poset(7, 0.35, 1600 + seed)
            v = triviality_oracle(p)
            profile = poset_homology(p)
            if v.verdict == "Trivial":
                assert profile.is_trivial()
                assert verify_removal_sequence(p, v.evidence["sequence"])
            if v.verdict == "NonTrivial":
                assert not profile.is_trivial()


class TestGammaPoints:
    def test_weak_point_is_gamma(self, w):
        v = triviality_oracle(w.strict_down_set("9"))
        assert v.verdict == "Trivial"

    def test_s1_points_nontrivial(self, s1):
        for x in s1.elements:
            assert triviality_oracle(s1.strict_down_set(x)).verdict == "NonTrivial"
            assert triviality_oracle(s1.strict_up_set(x)).verdict == "NonTrivial"

    def test_planted_w_down_set(self, w):
        coned = new_poset(
            list(w.elements) + ["z"],
            sorted(w.covers) + [(m, "z") for m in w.maximal_elements()],
        )
        v = triviality_oracle(coned.strict_down_set("z"))
        assert v.verdict == "Trivial"


class TestVerifyRemovalSequence:
    def test_cores_replay(self):
        for seed in range(5):
            p = random_poset(8, 0.45, 1700 + seed)
            c, seq = core(p)
            assert verify_removal_sequence(p, seq)

    def test_wrong_kind_rejected(self, s1):
        bad = RemovalSequence((("a", "up-beat"),))
        assert not verify_removal_sequence(s1, bad)

    def test_gamma_kind_verified_via_oracle(self, w):
        coned = new_poset(
            list(w.elements) + ["z"],
            sorted(w.covers) + [(m, "z") for m in w.maximal_elements()],
        )
        seq = RemovalSequence((("z", "gamma-down"),))
        assert verify_removal_sequence(coned, seq)
        assert not verify_removal_sequence(coned, RemovalSequence((("z", "gamma-up"),)))

    def test_unknown_element(self, s1):
        from finhtop import UnknownElement

        with pytest.raises(UnknownElement):
            verify_removal_sequence(s1, RemovalSequence((("zzz", "up-beat"),)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RemovalSequence((("a", "sideways"),))


class TestHomologyPreservation:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_removal_step_preserves_profile(self, seed):
        p = random_poset(8, 0.4, 1800 + seed)
        v = triviality_oracle(p)
        sequences = []
        c, seq = core(p)
        sequences.append(seq)
        if v.verdict == "Trivial":
            sequences.append(v.evidence["sequence"])
        for seq in sequences:
            current = p
            before = poset_homology(current)
            for (x, kind) in seq.steps:
                current = current.without(x)
                after = poset_homology(current)
                assert before == after, (x, kind)
                before = after

    def test_product_with_chain_preserves_profile(self, s1):
        assert poset_homology(product(s1, chain(2))) == poset_homology(s1)


def _covers(strict):
    """The Hasse relation of a strict order given as a boolean matrix."""
    s = strict.astype(np.int64)
    return strict & ~((s @ s) > 0)


def _dismantles(strict, keep):
    """Whether the subposet on ``keep`` beat-dismantles to one point; any
    order of beat removals reaches the same core up to isomorphism."""
    keep = list(keep)
    while len(keep) > 1:
        cov = _covers(strict[np.ix_(keep, keep)])
        beats = np.flatnonzero((cov.sum(axis=1) == 1) | (cov.sum(axis=0) == 1))
        if not beats.size:
            return False
        del keep[beats[0]]
    return len(keep) == 1


def independent_kinds(p):
    """The beat and weak kinds of every element, from the closure matrix alone."""
    n = len(p)
    strict = p.closure_matrix() & ~np.eye(n, dtype=bool)
    cov = _covers(strict)
    out = {}
    for i, x in enumerate(p.elements):
        above, below = np.flatnonzero(strict[i]), np.flatnonzero(strict[:, i])
        out[x] = {
            "up-beat": cov[i].sum() == 1,
            "down-beat": cov[:, i].sum() == 1,
            "up-weak": above.size > 0 and _dismantles(strict, above),
            "down-weak": below.size > 0 and _dismantles(strict, below),
        }
    return out


class TestKindTestDifferential:
    """holds() against an implementation that shares none of its code."""

    POSETS = [
        (f"random{k}", lambda k=k: random_poset(1 + k % 12, (0.2, 0.35, 0.5)[k % 3], 3100 + k))
        for k in range(200)
    ] + [("W", w_poset), ("circle", circle_poset)]

    def test_beat_and_weak_kinds_agree(self):
        for label, make in self.POSETS:
            p = make()
            for x, expected in independent_kinds(p).items():
                for kind, value in expected.items():
                    assert holds(p, x, kind) == value, (label, x, kind)

    def test_unknown_kind_raises(self, s1):
        assert "sideways" not in KINDS
        with pytest.raises(ValueError):
            holds(s1, "a", "sideways")


# -- the pre-kernel path, as a reference -----------------------------------------
# Every removal builds a new poset with ``without``; scans follow the current
# poset's ``linear_extension``; beat tests count ``covers_above``/``covers_below``.

_REF_BEATS = ("up-beat", "down-beat")


def _ref_holds(p, x, kind, budget, gamma_depth=3):
    if kind == "up-beat":
        return len(p.covers_above(x)) == 1
    if kind == "down-beat":
        return len(p.covers_below(x)) == 1
    side = p.strict_up_set(x) if kind in ("up-weak", "gamma-up") else p.strict_down_set(x)
    if side.is_empty():
        return False
    if kind in ("up-weak", "down-weak"):
        return len(_ref_core(side)[0]) == 1
    return _ref_oracle(side, budget, gamma_depth).is_trivial()


def _ref_removable(p, kinds, budget=100_000, gamma_depth=3):
    for x in p.linear_extension():
        for kind in kinds:
            if _ref_holds(p, x, kind, budget, gamma_depth):
                yield x, kind
                break


def _ref_core(p):
    steps, current = [], p
    while len(current) > 1:
        found = next(_ref_removable(current, _REF_BEATS), None)
        if found is None:
            break
        steps.append(found)
        current = current.without(found[0])
    return current, tuple(steps)


def _ref_search(p, budget):
    dead, visited, frames, steps, current = set(), 0, [], [], p
    while len(current) > 1:
        if frozenset(current.elements) in dead:
            steps.pop()
        else:
            visited += 1
            if visited > budget:
                return None
            kinds = _REF_BEATS + ("up-weak", "down-weak")
            ordered = sorted(_ref_removable(current, kinds), key=lambda st: st[1] not in _REF_BEATS)
            frames.append((current, iter(ordered)))
        while (step := next(frames[-1][1], None)) is None:
            dead.add(frozenset(frames.pop()[0].elements))
            if not frames:
                return None
            steps.pop()
        steps.append(step)
        current = frames[-1][0].without(step[0])
    return tuple(steps)


def _ref_oracle(p, budget=100_000, gamma_depth=3):
    if p.is_empty():
        return Triviality("NonTrivial", {"empty": True})
    current, steps = _ref_core(p)
    steps = list(steps)
    if len(current) > 1:
        profile = poset_homology(current)
        if not profile.is_trivial():
            betti, torsion = list(profile.betti), [list(t) for t in profile.torsion]
            return Triviality(
                "NonTrivial", {"nonzero_homology": {"betti": betti, "torsion": torsion}}
            )
    while len(current) > 1:
        found = _ref_search(current, budget)
        if found is not None:
            steps.extend(found)
            break
        if gamma_depth <= 0:
            return Triviality("Unknown", {"budget": budget, "gamma_depth_exhausted": True})
        kinds = ("gamma-down", "gamma-up")
        gamma = next(_ref_removable(current, kinds, budget, gamma_depth - 1), None)
        if gamma is None:
            return Triviality("Unknown", {"budget": budget, "no_gamma_point_found": True})
        steps.append(gamma)
        current, more = _ref_core(current.without(gamma[0]))
        steps.extend(more)
    return Triviality("Trivial", {"sequence": RemovalSequence(tuple(steps))})


def _ref_replay(p, steps, budget=100_000):
    current = p
    for x, kind in steps:
        if not _ref_holds(current, x, kind, budget):
            return current, (x, kind)
        current = current.without(x)
    return current, None


def _relabeled(p, rng):
    """p under shuffled names, so that name order, stored order and the
    order of the extension all differ."""
    names = dict(zip(p.elements, rng.sample([f"e{i}" for i in range(len(p))], len(p))))
    return new_poset([names[x] for x in p.elements], [(names[a], names[b]) for a, b in p.covers])


def _suspension(p, k):
    """k-fold non-Hausdorff suspension: two new points above every maximal one."""
    for level in range(k):
        tops, pair = p.maximal_elements(), [f"n{level}a", f"n{level}b"]
        p = new_poset(list(p.elements) + pair, sorted(p.covers) + [(t, q) for t in tops for q in pair])
    return p


def _doubled_square():
    """A square v0 v1 v2 v3 with each side doubled, and five square cells
    each taking one edge of every side.  It is acyclic and simply
    connected, yet no point is weak, so the search strands at once and
    the oracle answers Unknown."""
    sides = {"v0v1": ("e4", "e6"), "v1v2": ("e0", "e7"), "v2v3": ("e1", "e5"), "v3v0": ("e2", "e3")}
    cells = {
        "f0": ("e4", "e0", "e5", "e3"),
        "f1": ("e4", "e7", "e5", "e2"),
        "f2": ("e6", "e7", "e1", "e3"),
        "f3": ("e6", "e0", "e1", "e3"),
        "f4": ("e4", "e7", "e1", "e2"),
    }
    relations = [(v, e) for side, edges in sides.items() for e in edges for v in (side[:2], side[2:])]
    relations += [(e, f) for f, edges in cells.items() for e in edges]
    elements = [f"v{i}" for i in range(4)] + [f"e{i}" for i in range(8)] + list(cells)
    return new_poset(elements, relations)


class TestMaskKernelDifferential:
    """The mask kernel against the pre-kernel path, step for step."""

    # An exhaustive search of a sparse 14-point poset that does not collapse
    # visits tens of thousands of states, seconds each on the reference
    # path; random posets above this size get the two small budgets only.
    EXHAUSTIVE_MAX = 11

    @staticmethod
    def posets():
        rng = random.Random(12)
        out = [
            (f"random{k}", random_poset(1 + k % 14, (0.2, 0.35, 0.5)[k % 3], 7100 + k))
            for k in range(100)
        ]
        out += [
            (f"relabeled{k}", _relabeled(random_poset(1 + k % 14, (0.2, 0.35, 0.5)[k % 3], 7300 + k), rng))
            for k in range(100)
        ]
        w, s1 = w_poset(), circle_poset()
        named = [("W", w), ("circle", s1), ("grid", product(chain(2), chain(3)))]
        named += [("circle x chain", product(s1, chain(2))), ("circle x point", product(s1, chain(1)))]
        named += [(f"S^{k}(W)", _suspension(w, k)) for k in (1, 2)]
        # Removals here free elements whose names sort before elements
        # already scanned, so the scan of what is left is not the root's
        # extension restricted to it.
        freed = new_poset(
            ["e0", "e4", "e6", "e7", "e2", "e5", "e3", "e1"],
            [("e0", "e6"), ("e0", "e7"), ("e2", "e5"), ("e4", "e2"),
             ("e4", "e6"), ("e6", "e1"), ("e7", "e2"), ("e7", "e3")],
        )
        named.append(("freed", freed))
        named.append(("no weak points", _doubled_square()))
        return out, named

    def test_core_replay_search_and_oracle_agree(self):
        rng = random.Random(7)
        drawn, named = self.posets()
        assert len(drawn) + len(named) >= 200
        cases = [(label, p, len(p) <= self.EXHAUSTIVE_MAX) for label, p in drawn]
        for label, p, exhaustive in cases + [(label, p, True) for label, p in named]:
            c, seq = core(p)
            ref_c, ref_steps = _ref_core(p)
            assert (c, seq.steps) == (ref_c, ref_steps), label
            for budget in (3, 20, 100_000) if exhaustive else (3, 20):
                found = collapse_search(p, budget)
                expected = _ref_search(p, budget)
                assert (None if found is None else found.steps) == expected, (label, budget)
            # Small budgets make the oracle's searches give up, so it goes on
            # to gamma points, and at budget 0 it can run out of depth.
            for budget in (0, 3, 100_000):
                v = triviality_oracle(p, budget)
                assert v.to_obj() == _ref_oracle(p, budget).to_obj(), (label, budget)
            # A sequence that holds, and a random one that usually fails part way.
            draw = [(x, rng.choice(KINDS)) for x in rng.sample(p.elements, min(4, len(p)))]
            for steps in (seq.steps, draw):
                left, failed = replay(p, steps)
                assert (left, failed) == _ref_replay(p, steps), (label, steps)
                assert verify_removal_sequence(p, RemovalSequence(tuple(steps))) == (failed is None)
