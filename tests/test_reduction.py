import random

import pytest

from finhtop import EmptyPoset, chain, new_poset, product
from finhtop.homology import poset_homology
from finhtop.reduction import (
    RemovalSequence,
    collapse_search,
    core,
    is_contractible,
    is_down_beat,
    is_down_weak,
    is_gamma_point,
    is_up_beat,
    is_up_weak,
    triviality_oracle,
    verify_removal_sequence,
)
from finhtop.simplicial import face_poset, new_complex
from finhtop.verify.randgen import random_poset
from finhtop.verify.suite import w_poset


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
                    assert is_up_weak(p, x)
                if is_down_beat(p, x):
                    assert is_down_weak(p, x)

    def test_w_element_9_is_down_weak(self, w):
        # its strict down-set {1,2,3,5,6} dismantles (2 and 3 are up beat
        # points there), so 9 is a weak point even though W has no beat points
        down = w.strict_down_set("9")
        assert set(down.elements) == {"1", "2", "3", "5", "6"}
        assert is_contractible(down)
        assert is_down_weak(w, "9")
        assert not is_up_weak(w, "9")

    def test_minimum_of_cone_not_down_weak(self, cone):
        # the empty strict down-set is not contractible
        assert not is_down_weak(cone, "m")

    def test_s1_has_no_weak_points(self, s1):
        for x in s1.elements:
            assert not is_up_weak(s1, x)
            assert not is_down_weak(s1, x)


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
        v = is_gamma_point(w, "9")
        assert v.verdict == "Trivial"
        assert v.evidence["side"] == "down"

    def test_s1_points_nontrivial(self, s1):
        for x in s1.elements:
            assert is_gamma_point(s1, x).verdict == "NonTrivial"

    def test_planted_w_down_set(self, w):
        coned = new_poset(
            list(w.elements) + ["z"],
            sorted(w.covers) + [(m, "z") for m in w.maximal_elements()],
        )
        v = is_gamma_point(coned, "z")
        assert v.verdict == "Trivial"
        assert v.evidence["side"] == "down"


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
