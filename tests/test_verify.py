import pytest

from finhtop import (
    DomainMismatch,
    chain,
    constant_map,
    identity,
    new_map,
    new_poset,
    product,
)
from finhtop.diagram import (
    DiagramMorphism,
    constant_diagram,
    cylinder_diagram,
    hocolim,
    new_diagram,
)
from finhtop.homology import poset_homology
from finhtop.simplicial import (
    SimplicialMap,
    identity_simplicial,
    new_complex,
    new_complex_diagram,
)
from finhtop.verify import (
    THEOREMS,
    check_barycentric,
    check_cofinality,
    check_dbp,
    check_dbpgen,
    check_gamma_index,
    check_homotopy_lemma,
    check_index_contractible,
    check_maximum,
    check_thomason_roundtrip,
    check_ubp,
    check_up_wp,
    random_complex,
    random_diagram,
    random_poset,
    run_family,
)
from finhtop.verify.suite import (
    circle_complex,
    circle_poset,
    point_poset,
    w_poset,
)
from finhtop import io as fio


@pytest.fixture
def two():
    return new_poset(["0", "1"], [("0", "1")])


class TestCheckUbp:
    def test_chain_bottom_verified(self, two, s1, pt):
        d = new_diagram(two, {"0": s1, "1": pt}, {("0", "1"): constant_map(s1, pt, "pt")})
        rep = check_ubp(d, "0")
        assert rep.conclusion_status == "Verified"
        assert all(step["kind"] == "up-beat" for step in rep.evidence["sequence"])

    def test_non_up_beat_skipped(self, two, s1, pt):
        d = new_diagram(two, {"0": s1, "1": pt}, {("0", "1"): constant_map(s1, pt, "pt")})
        rep = check_ubp(d, "1")
        assert rep.hypothesis_status == "NotEstablished"
        assert rep.conclusion_status == "Skipped"

    def test_planted_family(self):
        reports = run_family("ubp", 12, seed=3)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckMaximum:
    def test_cylinder_collapses_to_target(self, s1, pt):
        rep = check_maximum(cylinder_diagram(constant_map(s1, pt, "pt")))
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["all_steps_beat"]
        # the target fiber is a point, so the whole cylinder is contractible
        assert rep.evidence["hocolim_contractible"]

    def test_singleton_index(self, s1):
        rep = check_maximum(constant_diagram(point_poset(), s1))
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["sequence"] == []

    def test_contractible_top_fiber_over_chain(self):
        three = chain(3)
        fiber = chain(2)
        rep = check_maximum(constant_diagram(three, fiber))
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["hocolim_contractible"]

    def test_no_maximum_skipped(self, sphere_diagram):
        rep = check_maximum(sphere_diagram)
        assert rep.conclusion_status == "Skipped"


class TestCheckHomotopyLemma:
    def test_identity(self, sphere_diagram):
        alpha = DiagramMorphism(
            sphere_diagram,
            sphere_diagram,
            {p: identity(sphere_diagram.fibers[p]) for p in sphere_diagram.index.elements},
        )
        rep = check_homotopy_lemma(alpha)
        assert rep.conclusion_status == "Verified"
        assert "necessary-condition" in rep.evidence["evidence_regime"]

    def test_product_with_chain_target(self, two):
        s1 = circle_poset()
        d = new_diagram(two, {"0": s1, "1": s1}, {("0", "1"): identity(s1)})
        c2 = chain(2)
        fibers = {p: product(s1, c2) for p in two.elements}
        t = {
            ("0", "1"): new_map(
                fibers["0"],
                fibers["1"],
                {e: e for e in fibers["0"].elements},
            )
        }
        target = new_diagram(two, fibers, t)
        components = {
            p: new_map(s1, fibers[p], {x: f"({x},c0)" for x in s1.elements})
            for p in two.elements
        }
        rep = check_homotopy_lemma(DiagramMorphism(d, target, components))
        assert rep.conclusion_status == "Verified"

    def test_fiber_mismatch_not_established(self, two, s1, pt):
        # constant components to point fibers are a valid morphism, but the
        # fiberwise weak-equivalence hypothesis fails at homology level
        d_src = new_diagram(two, {"0": s1, "1": s1}, {("0", "1"): identity(s1)})
        d_tgt = new_diagram(two, {"0": pt, "1": pt}, {("0", "1"): identity(pt)})
        alpha = DiagramMorphism(
            d_src, d_tgt, {p: constant_map(s1, pt, "pt") for p in two.elements}
        )
        rep = check_homotopy_lemma(alpha)
        assert rep.hypothesis_status == "NotEstablished"
        assert rep.conclusion_status == "Skipped"

    def test_random_family(self):
        reports = run_family("homotopy", 8, seed=4)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckDbp:
    def test_identity_transition(self, two, s1):
        d = new_diagram(two, {"0": s1, "1": s1}, {("0", "1"): identity(s1)})
        rep = check_dbp(d, "1", "0")
        assert rep.conclusion_status == "Verified"

    def test_noncontractible_preimage_not_established(self, two, s1, pt):
        d = new_diagram(two, {"0": s1, "1": pt}, {("0", "1"): constant_map(s1, pt, "pt")})
        rep = check_dbp(d, "1", "0")
        assert rep.hypothesis_status == "NotEstablished"
        assert "preimage" in rep.hypothesis_reason

    def test_planted_family(self):
        reports = run_family("dbp", 10, seed=5)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckDbpgen:
    def test_pushout_example(self, s1):
        # pushout with both legs weak equivalences: hocolim profile equals X0's
        index = new_poset(["0", "1", "2"], [("0", "1"), ("0", "2")])
        c2 = chain(2)
        x1 = product(s1, c2)
        inc = new_map(s1, x1, {x: f"({x},c0)" for x in s1.elements})
        d = new_diagram(index, {"0": s1, "1": x1, "2": x1}, {("0", "1"): inc, ("0", "2"): inc})
        rep1 = check_dbpgen(d, "1", "0")
        assert rep1.conclusion_status == "Verified"
        assert poset_homology(hocolim(d)) == poset_homology(s1)

    def test_constant_map_not_weak_equivalence(self, two, s1, pt):
        d = new_diagram(two, {"0": s1, "1": pt}, {("0", "1"): constant_map(s1, pt, "pt")})
        rep = check_dbpgen(d, "1", "0")
        assert rep.hypothesis_status == "NotEstablished"

    def test_planted_family(self):
        reports = run_family("dbpgen", 8, seed=6)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckUpWp:
    def test_up_beat_specialization(self, two, s1, pt):
        d = new_diagram(two, {"0": s1, "1": pt}, {("0", "1"): constant_map(s1, pt, "pt")})
        rep = check_up_wp(d, "0")
        assert rep.conclusion_status == "Verified"

    def test_w_shaped_up_set(self):
        reports = run_family("up-wp", 2, seed=7)
        assert all(r.conclusion_status == "Verified" for r in reports)

    def test_circle_up_set_not_established(self, s1):
        index = new_poset(
            list(s1.elements) + ["u"], sorted(s1.covers) + [("u", "a"), ("u", "b")]
        )
        d = constant_diagram(index, point_poset())
        rep = check_up_wp(d, "u")
        assert rep.hypothesis_status == "NotEstablished"


class TestCheckCofinality:
    def test_identity(self, sphere_diagram):
        rep = check_cofinality(identity(sphere_diagram.index), sphere_diagram)
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["mixed_down_phase"]

    def test_contractible_p_over_singleton(self):
        single = point_poset()
        d = constant_diagram(single, circle_poset())
        p = chain(3)
        rep = check_cofinality(constant_map(p, single, "pt"), d)
        assert rep.conclusion_status == "Verified"

    def test_w_over_singleton(self):
        single = point_poset()
        d = constant_diagram(single, circle_poset())
        rep = check_cofinality(constant_map(w_poset(), single, "pt"), d)
        assert rep.conclusion_status == "Verified"
        assert len(rep.evidence["mixed_up_phase"]) == 1
        assert len(rep.evidence["mixed_down_phase"]) == 11

    def test_noncofinal_not_established(self, two):
        # P = antichain of two points mapping to the two tops of a V shape:
        # the preimage of F_bottom is the 2-point antichain, not trivial
        v = new_poset(["b", "l", "r"], [("b", "l"), ("b", "r")])
        p = new_poset(["x", "y"], [])
        phi = new_map(p, v, {"x": "l", "y": "r"})
        d = constant_diagram(v, point_poset())
        rep = check_cofinality(phi, d)
        assert rep.hypothesis_status == "NotEstablished"

    def test_domain_mismatch(self, sphere_diagram, s1):
        with pytest.raises(DomainMismatch):
            check_cofinality(identity(s1), sphere_diagram)


class TestCheckThomason:
    def test_point_diagram(self, pt):
        d = constant_diagram(pt, pt)
        rep = check_thomason_roundtrip(d)
        assert rep.conclusion_status == "Verified"

    def test_sphere(self, sphere_diagram):
        rep = check_thomason_roundtrip(sphere_diagram)
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["profile_direct"]["betti"] == [1, 0, 1]

    def test_random_family(self):
        reports = run_family("thomason", 10, seed=8)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckBarycentric:
    def test_constant_edge_diagram(self, two):
        edge = new_complex(["x", "y"], [["x", "y"]])
        c = new_complex_diagram(
            two, {p: edge for p in two.elements}, {("0", "1"): identity_simplicial(edge)}
        )
        rep = check_barycentric(c)
        assert rep.conclusion_status == "Verified"

    def test_circle_identity_profile(self, two):
        k = circle_complex()
        c = new_complex_diagram(
            two, {p: k for p in two.elements}, {("0", "1"): identity_simplicial(k)}
        )
        rep = check_barycentric(c)
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["profile_original"]["betti"] == [1, 1]

    def test_random_family(self):
        reports = run_family("barycentric", 5, seed=9)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckIndexContractible:
    def test_chain_index_circle_fibers(self):
        k = circle_complex()
        three = chain(3)
        c = new_complex_diagram(
            three,
            {p: k for p in three.elements},
            {pq: identity_simplicial(k) for pq in three.covers},
        )
        rep = check_index_contractible(c)
        assert rep.conclusion_status == "Verified"
        assert rep.evidence["profile_hocolim"]["betti"] == [1, 1]

    def test_w_index_not_established(self):
        k = new_complex(["x", "y"], [["x", "y"]])
        w = w_poset()
        c = new_complex_diagram(
            w, {p: k for p in w.elements}, {pq: identity_simplicial(k) for pq in w.covers}
        )
        rep = check_index_contractible(c)
        assert rep.hypothesis_status == "NotEstablished"
        assert "dismantlable" in rep.hypothesis_reason

    def test_random_family(self):
        reports = run_family("index-contractible", 5, seed=10)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestCheckGammaIndex:
    def test_w_index_identity_transitions(self):
        k = new_complex(["x", "y"], [["x", "y"]])
        w = w_poset()
        c = new_complex_diagram(
            w, {p: k for p in w.elements}, {pq: identity_simplicial(k) for pq in w.covers}
        )
        rep = check_gamma_index(c)
        assert rep.conclusion_status == "Verified"

    def test_failing_preimage_criterion_names_locus(self):
        # "b" is removed on the down side and its incoming transition kills
        # the circle, so the preimage criterion must fail
        index = new_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
        s1c = circle_complex()
        ptc = new_complex(["z"], [["z"]])
        collapse = SimplicialMap(s1c, ptc, {v: "z" for v in s1c.vertices})
        c = new_complex_diagram(
            index,
            {"a": s1c, "b": ptc, "c": s1c},
            {("a", "b"): collapse, ("a", "c"): identity_simplicial(s1c)},
        )
        rep = check_gamma_index(c)
        assert rep.conclusion_status == "Skipped"
        assert rep.hypothesis_status == "NotEstablished"
        assert "preimage criterion" in rep.hypothesis_reason

    def test_random_family(self):
        reports = run_family("gamma-index", 4, seed=11)
        assert all(r.conclusion_status == "Verified" for r in reports)


class TestReplayInvariant:
    def test_checker_sequences_replay_on_the_hocolim(self, two, s1, pt):
        from finhtop.reduction import RemovalSequence, verify_removal_sequence

        d = new_diagram(two, {"0": s1, "1": pt}, {("0", "1"): constant_map(s1, pt, "pt")})
        h = hocolim(d)
        for rep in (check_ubp(d, "0"), check_maximum(d), check_up_wp(d, "0")):
            seq = RemovalSequence.from_obj(rep.evidence["sequence"])
            assert verify_removal_sequence(h, seq), rep.theorem

        d2 = new_diagram(two, {"0": s1, "1": s1}, {("0", "1"): identity(s1)})
        rep = check_dbp(d2, "1", "0")
        seq = RemovalSequence.from_obj(rep.evidence["sequence"])
        assert verify_removal_sequence(hocolim(d2), seq)

    def test_refuted_reports_carry_a_bundle(self):
        from finhtop.verify.report import refuted

        rep = refuted("demo", {"profile": [1]}, {"diagram": {"index": {}}})
        assert rep.conclusion_status == "Refuted"
        assert not rep.ok()
        assert rep.to_obj()["evidence"]["counterexample"]["diagram"] == {"index": {}}


class TestGenerators:
    def test_random_poset_determinism(self):
        assert random_poset(7, 0.4, 12345) == random_poset(7, 0.4, 12345)

    def test_random_poset_boundaries(self):
        assert random_poset(1, 0.5, 1).elements == ("x0",)
        assert random_poset(6, 0.0, 2).covers == frozenset()
        total = random_poset(6, 1.0, 3)
        assert len(total.covers) == 5  # reduced chain

    def test_random_diagram_determinism_and_functoriality(self):
        d1 = random_diagram(4, 3, 777)
        d2 = random_diagram(4, 3, 777)
        assert d1 == d2  # construction validates functoriality

    def test_random_complex_determinism(self):
        assert random_complex(5, 99) == random_complex(5, 99)


class TestSuite:
    def test_run_all_green_and_deterministic(self):
        reports = [r for t in THEOREMS for r in run_family(t, 2, 0)]
        assert all(r.conclusion_status != "Refuted" for r in reports)
        again = [r for t in THEOREMS for r in run_family(t, 2, 0)]
        blob1 = fio.dumps([r.to_obj() for r in reports])
        blob2 = fio.dumps([r.to_obj() for r in again])
        assert blob1 == blob2

    def test_report_invariant(self):
        from finhtop.verify.report import CheckReport

        with pytest.raises(ValueError):
            CheckReport("x", "Established", "Skipped")
        with pytest.raises(ValueError):
            CheckReport("x", "NotEstablished", "Verified")

    def test_timing_excluded_from_json(self, sphere_diagram):
        rep = check_thomason_roundtrip(sphere_diagram)
        assert set(rep.to_obj()) == {
            "theorem", "hypothesis_status", "conclusion_status", "evidence"
        }
