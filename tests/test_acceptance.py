"""Acceptance criteria, one test per criterion, exact assertions throughout.

Each test prints a single PASS/FAIL line (visible under pytest -s); the
population of randomized instances is derived deterministically from fixed
seeds, so the whole module is reproducible.
"""

import time
from contextlib import contextmanager

from finhtop import io as fio
from finhtop.diagram import hocolim
from finhtop.homology import poset_homology
from finhtop.reduction import (
    collapse_search,
    core,
    triviality_oracle,
    verify_removal_sequence,
)
from finhtop.verify import checks, run_all
from finhtop.verify.randgen import random_poset
from finhtop.verify.suite import (
    barycentric_instance,
    cofinality_instance,
    cylinder_instance,
    suspension_diagram,
    thomason_instance,
    circle_poset,
    w_poset,
)

SEED = 20260810


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_w_poset_facts():
    with criterion(1, "W poset: own core, collapsible, trivial homology"):
        w = w_poset()
        c, _ = core(w)
        assert len(c) == 11
        seq = collapse_search(w)
        assert seq is not None
        assert len(seq) == 10
        assert verify_removal_sequence(w, seq)
        profile = poset_homology(w)
        assert profile.betti == (1,)
        assert all(not t for t in profile.torsion)


def test_criterion_2_mapping_cylinders():
    with criterion(2, "50 random mapping cylinders collapse onto the target, all-beat"):
        for i in range(50):
            d = cylinder_instance(SEED, i)
            rep = checks.check_maximum(d)
            assert rep.conclusion_status == "Verified", (i, rep.describe())
            assert rep.evidence["all_steps_beat"], i


def test_criterion_3_thomason_roundtrip():
    with criterion(3, "100 random diagrams: face-poset roundtrip preserves profiles"):
        start = time.time()
        for i in range(100):
            rep = checks.check_thomason_roundtrip(thomason_instance(SEED, i))
            assert rep.conclusion_status == "Verified", (i, rep.describe())
        assert time.time() - start < 120


def test_criterion_4_pushout_sphere():
    with criterion(4, "pushout of pt <- circle -> pt has the 2-sphere profile"):
        h = hocolim(suspension_diagram(circle_poset()))
        assert len(h) == 6
        profile = poset_homology(h)
        # frozen from the independent pre-build computation (octahedron boundary)
        assert profile.betti == (1, 0, 1)
        assert all(not t for t in profile.torsion)


def _criterion_5_posets():
    return [random_poset(12, 0.3, f"{SEED}/red/{i}") for i in range(200)]


def test_criterion_5_reduction_soundness():
    with criterion(5, "200 random posets: every removal step preserves homology"):
        for p in _criterion_5_posets():
            sequences = [core(p)[1]]
            verdict = triviality_oracle(p)
            if verdict.verdict == "Trivial":
                sequences.append(verdict.evidence["sequence"])
            for seq in sequences:
                current = p
                before = poset_homology(current)
                for (x, kind) in seq.steps:
                    current = current.without(x)
                    after = poset_homology(current)
                    assert before == after, (x, kind)
                    before = after


def test_criterion_6_cofinality():
    with criterion(6, "50 cofinal maps: pullback hocolim and hocolim agree"):
        for i in range(50):
            phi, d = cofinality_instance(SEED, i)
            rep = checks.check_cofinality(phi, d)
            assert rep.hypothesis_status == "Established", (i, rep.describe())
            assert rep.conclusion_status == "Verified", (i, rep.describe())


def test_criterion_7_barycentric_invariance():
    with criterion(7, "30 complex diagrams: subdivision preserves profiles and chi"):
        for i in range(30):
            c = barycentric_instance(SEED, i)
            rep = checks.check_barycentric(c)
            assert rep.conclusion_status == "Verified", (i, rep.describe())
            for a, b in rep.evidence["fiber_euler_characteristics"].values():
                assert a == b


def _criterion_8_population():
    posets = [w_poset(), hocolim(suspension_diagram(circle_poset()))]
    posets.extend(_criterion_5_posets())
    for i in range(10):
        posets.append(hocolim(cylinder_instance(SEED, i)))
    for i in range(10):
        posets.append(hocolim(thomason_instance(SEED, i)))
    for i in range(10):
        phi, d = cofinality_instance(SEED, i)
        posets.append(d.index)
        posets.append(phi.source)
    return posets


def test_criterion_8_oracle_consistency():
    with criterion(8, "oracle never contradicts homology or achieved reductions"):
        for p in _criterion_8_population():
            if p.is_empty():
                continue
            verdict = triviality_oracle(p)
            profile = poset_homology(p)
            if verdict.verdict == "Trivial":
                assert profile.is_trivial()
                assert verify_removal_sequence(p, verdict.evidence["sequence"])
            if verdict.verdict == "NonTrivial":
                # a reduction to a point would contradict the verdict
                assert len(core(p)[0]) > 1
                assert not profile.is_trivial()


def test_criterion_9_determinism():
    with criterion(9, "the full check suite is byte-identical across reruns"):
        first = fio.dumps([r.to_obj() for r in run_all(SEED)])
        second = fio.dumps([r.to_obj() for r in run_all(SEED)])
        assert first == second
        assert len(first) > 100
