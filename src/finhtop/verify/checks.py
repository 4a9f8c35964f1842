"""Executable checkers for the weak-equivalence results about hocolims.

Each checker validates the hypotheses of one result on a concrete
instance, replays the constructive content of its proof (removal
sequences over the actual hocolim or index), and confirms the conclusion
by exact homology-profile equality.  Hypotheses the source results state
homotopically are checked at homology level; such reports carry an
explicit necessary-condition flag.  Oracle-Unknown is always Skipped,
never assumed.
"""

from __future__ import annotations

import numpy as np

from .. import io
from ..diagram import (
    Diagram,
    DiagramMorphism,
    hocolim,
    hocolim_name,
    new_diagram,
    pullback,
    restrict,
)
from ..errors import DomainMismatch
from ..homology import euler_characteristic, homology_profile, poset_homology
from ..poset import FinitePoset, PosetMap
from ..reduction import (
    DEFAULT_BUDGET,
    DOWN_BEAT,
    DOWN_WEAK,
    GAMMA_DOWN,
    GAMMA_UP,
    NONTRIVIAL,
    UNKNOWN,
    UP_BEAT,
    RemovalSequence,
    core,
    is_contractible,
    is_down_beat,
    is_down_weak,
    is_up_beat,
    triviality_oracle,
)
from ..simplicial import (
    barycentric_diagram,
    face_poset_map_op,
    lift_face_poset_op,
    lift_order_complex,
    preimage_poset,
)
from .report import (
    NOT_ESTABLISHED,
    ORACLE_UNKNOWN,
    CheckReport,
    refuted,
    skipped,
    verified,
)

NECESSARY_CONDITION = "necessary-condition (homology profiles)"


def _oracle_hypothesis(theorem: str, poset: FinitePoset, budget: int, what: str):
    """The oracle's verdict on the hypothesis that ``what`` is homotopically
    trivial, and the Skipped report to return unless it is Trivial."""
    v = triviality_oracle(poset, budget)
    if v.verdict == NONTRIVIAL:
        return v, skipped(theorem, NOT_ESTABLISHED, f"{what} is not homotopically trivial")
    if v.verdict == UNKNOWN:
        return v, skipped(theorem, ORACLE_UNKNOWN, f"oracle undecided on the {what}")
    return v, None


# -- up beat points ------------------------------------------------------------


def _remove_fiber_up_beats(current: FinitePoset, d: Diagram, p: str):
    """Delete the fiber over p point by point, most of X_p^op first.

    Returns (steps, remaining poset) or (None, failing element); every
    deleted point must be an up beat point at the moment of its removal.
    """
    steps = []
    for x in d.fibers[p].opposite().linear_extension():
        name = hocolim_name(p, x)
        if not is_up_beat(current, name):
            return None, name
        steps.append((name, UP_BEAT))
        current = current.without(name)
    return (steps, current), None


def _conclude_point_removal(theorem, d: Diagram, p: str, full, remainder, steps, bundle):
    """The shared end of ubp, dbp and up-wp.

    Removing the fiber over p from the full hocolim must leave exactly the
    hocolim restricted away from p, with the same homology profile.
    """
    rest = hocolim(restrict(d, [e for e in d.index.elements if e != p]))
    if remainder != rest:
        return refuted(theorem, {"mismatch": "remainder is not the restricted hocolim"}, bundle)
    pa, pb = poset_homology(full), poset_homology(rest)
    if pa != pb:
        return refuted(
            theorem,
            {"profile_full": io.profile_to_obj(pa), "profile_restricted": io.profile_to_obj(pb)},
            bundle,
        )
    return verified(
        theorem,
        {"sequence": RemovalSequence(tuple(steps)).to_obj(), "profile": io.profile_to_obj(pa)},
    )


def check_ubp(d: Diagram, p: str) -> CheckReport:
    """Up-beat index point: the hocolim collapses onto the restricted hocolim."""
    d.index.index_of(p)
    if not is_up_beat(d.index, p):
        return skipped("ubp", NOT_ESTABLISHED, f"{p!r} is not an up beat point of the index")
    full = hocolim(d)
    result, failing = _remove_fiber_up_beats(full, d, p)
    bundle = {"diagram": io.diagram_to_obj(d), "point": p}
    if result is None:
        return refuted("ubp", {"failing_element": failing}, bundle)
    steps, remainder = result
    return _conclude_point_removal("ubp", d, p, full, remainder, steps, bundle)


def check_maximum(d: Diagram) -> CheckReport:
    """Index with a maximum: the hocolim strongly collapses onto the top fiber."""
    p = d.index.maximum()
    if p is None:
        return skipped("maximum", NOT_ESTABLISHED, "index has no maximum element")
    full = hocolim(d)
    bundle = {"diagram": io.diagram_to_obj(d)}
    order = d.index.opposite().linear_extension()
    # The maximum is the unique minimum of the opposite, hence listed first.
    if order[0] != p:
        raise RuntimeError(
            "invariant broken: the maximum is not first in the opposite's extension"
        )
    steps: list[tuple[str, str]] = []
    current = full
    current_d = d
    for pi in order[1:]:
        if not is_up_beat(current_d.index, pi):
            return refuted("maximum", {"failing_index_point": pi}, bundle)
        result, failing = _remove_fiber_up_beats(current, current_d, pi)
        if result is None:
            return refuted("maximum", {"failing_element": failing}, bundle)
        fiber_steps, current = result
        steps.extend(fiber_steps)
        current_d = restrict(current_d, [e for e in current_d.index.elements if e != pi])
        if current != hocolim(current_d):
            return refuted(
                "maximum", {"mismatch": f"remainder after {pi!r} is not the restricted hocolim"}, bundle
            )
    pa, pb = poset_homology(full), poset_homology(current)
    if pa != pb:
        return refuted(
            "maximum",
            {"profile_full": io.profile_to_obj(pa), "profile_top_fiber": io.profile_to_obj(pb)},
            bundle,
        )
    evidence = {
        "sequence": RemovalSequence(tuple(steps)).to_obj(),
        "profile": io.profile_to_obj(pa),
        "all_steps_beat": all(kind == UP_BEAT for _, kind in steps),
    }
    if is_contractible(d.fibers[p]):
        # Strong collapses transport contractibility of the top fiber.
        evidence["top_fiber_contractible"] = True
        if not is_contractible(full):
            return refuted("maximum", evidence, bundle)
        evidence["hocolim_contractible"] = True
    return verified("maximum", evidence)


def check_homotopy_lemma(alpha: DiagramMorphism) -> CheckReport:
    """Fiberwise weak equivalences induce a weak equivalence of hocolims.

    Both hypothesis and conclusion are checked at homology level.
    """
    src, tgt = alpha.source, alpha.target
    fiber_profiles = {}
    for p in src.index.elements:
        a = poset_homology(src.fibers[p])
        b = poset_homology(tgt.fibers[p])
        fiber_profiles[p] = io.profile_to_obj(a)
        if a != b:
            return skipped(
                "homotopy",
                NOT_ESTABLISHED,
                f"fiber profiles differ at {p!r}",
                {"evidence_regime": NECESSARY_CONDITION},
            )
    pa = poset_homology(hocolim(src))
    pb = poset_homology(hocolim(tgt))
    evidence = {
        "evidence_regime": NECESSARY_CONDITION,
        "fiber_profiles": fiber_profiles,
        "profile_source": io.profile_to_obj(pa),
        "profile_target": io.profile_to_obj(pb),
    }
    if pa != pb:
        return refuted("homotopy", evidence, io.morphism_to_obj(alpha))
    return verified("homotopy", evidence)


# -- down beat points ------------------------------------------------------------


def _down_beat_dominated(index: FinitePoset, p: str, q: str) -> bool:
    index.index_of(p)
    index.index_of(q)
    return is_down_beat(index, p) and index.covers_below(p) == [q]


def check_dbp(d: Diagram, p: str, q: str) -> CheckReport:
    """Down-beat index point with contractible transition preimages of basic opens."""
    if not _down_beat_dominated(d.index, p, q):
        return skipped(
            "dbp", NOT_ESTABLISHED, f"{p!r} is not a down beat point dominated by {q!r}"
        )
    f = d.transitions[(q, p)]
    fiber_p = d.fibers[p]
    for x in fiber_p.elements:
        pre = f.source.subposet(
            z for z in f.source.elements if fiber_p.leq(f(z), x)
        )
        if pre.is_empty() or not is_contractible(pre):
            return skipped(
                "dbp",
                NOT_ESTABLISHED,
                f"preimage of the basic open set at {x!r} is not contractible",
            )
    full = hocolim(d)
    bundle = {"diagram": io.diagram_to_obj(d), "point": p, "dominator": q}
    steps = []
    current = full
    for x in fiber_p.linear_extension():
        name = hocolim_name(p, x)
        if not is_down_weak(current, name):
            return refuted("dbp", {"failing_element": name}, bundle)
        steps.append((name, DOWN_WEAK))
        current = current.without(name)
    return _conclude_point_removal("dbp", d, p, full, current, steps, bundle)


def check_dbpgen(d: Diagram, p: str, q: str) -> CheckReport:
    """Down-beat index point whose incoming transition is a weak equivalence.

    The weak-equivalence hypothesis is evidenced by homology equality of
    the two fibers; the proof's comparison morphism is constructed and its
    naturality validated.
    """
    if not _down_beat_dominated(d.index, p, q):
        return skipped(
            "dbpgen", NOT_ESTABLISHED, f"{p!r} is not a down beat point dominated by {q!r}"
        )
    pa_q = poset_homology(d.fibers[q])
    pa_p = poset_homology(d.fibers[p])
    if pa_q != pa_p:
        return skipped(
            "dbpgen",
            NOT_ESTABLISHED,
            f"fiber profiles at {q!r} and {p!r} differ",
            {"evidence_regime": NECESSARY_CONDITION},
        )
    bundle = {"diagram": io.diagram_to_obj(d), "point": p, "dominator": q}
    # The retraction sending p to its dominator, composed with the inclusion.
    ir = PosetMap(
        d.index, d.index, {x: (q if x == p else x) for x in d.index.elements}
    )
    gamma_source = pullback(ir, d)
    components = {
        x: (d.transitions[(q, p)] if x == p else d.transitions[(x, x)])
        for x in d.index.elements
    }
    # Construction validates naturality; DomainMismatch guards the index.
    DiagramMorphism(gamma_source, d, components)
    pa = poset_homology(hocolim(d))
    pb = poset_homology(hocolim(restrict(d, [e for e in d.index.elements if e != p])))
    evidence = {
        "evidence_regime": NECESSARY_CONDITION,
        "gamma_natural": True,
        "fiber_profile": io.profile_to_obj(pa_p),
        "profile_full": io.profile_to_obj(pa),
        "profile_restricted": io.profile_to_obj(pb),
    }
    if pa != pb:
        return refuted("dbpgen", evidence, bundle)
    return verified("dbpgen", evidence)


def check_up_wp(d: Diagram, p: str, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Index point whose strict up-set is homotopically trivial."""
    d.index.index_of(p)
    up = d.index.strict_up_set(p)
    _, skip = _oracle_hypothesis("up-wp", up, budget, f"strict up-set of {p!r}")
    if skip:
        return skip
    full = hocolim(d)
    bundle = {"diagram": io.diagram_to_obj(d), "point": p}
    steps = []
    current = full
    for x in d.fibers[p].opposite().linear_extension():
        name = hocolim_name(p, x)
        v = triviality_oracle(current.strict_up_set(name), budget)
        if v.verdict == NONTRIVIAL:
            return refuted("up-wp", {"failing_element": name, "oracle": v.to_obj()}, bundle)
        if v.verdict == UNKNOWN:
            return skipped(
                "up-wp", ORACLE_UNKNOWN, f"oracle undecided at removal of {name!r}"
            )
        steps.append((name, GAMMA_UP))
        current = current.without(name)
    return _conclude_point_removal("up-wp", d, p, full, current, steps, bundle)


# -- cofinality -------------------------------------------------------------------


def _mixed_poset(phi: PosetMap) -> FinitePoset:
    """The poset on Q + P gluing q below p when q <= phi(p') for some p' <= p."""
    q_poset, p_poset = phi.target, phi.source
    nq, np_ = len(q_poset), len(p_poset)
    names = [f"Q::{q}" for q in q_poset.elements] + [f"P::{p}" for p in p_poset.elements]
    leq = np.zeros((nq + np_, nq + np_), dtype=bool)
    leq[:nq, :nq] = q_poset.closure_matrix()
    leq[nq:, nq:] = p_poset.closure_matrix()
    for j, p in enumerate(p_poset.elements):
        below = [
            q_poset.index_of(phi(p2))
            for p2 in p_poset.elements
            if p_poset.leq(p2, p)
        ]
        mask = np.zeros(nq, dtype=bool)
        for b in below:
            mask |= q_poset.closure_matrix()[:, b]
        leq[:nq, nq + j] = mask
    return FinitePoset.from_closure(names, leq)


def _mixed_diagram(phi: PosetMap, d: Diagram, r: FinitePoset) -> Diagram:
    fibers = {}
    for name in r.elements:
        side, _, e = name.partition("::")
        fibers[name] = d.fibers[e] if side == "Q" else d.fibers[phi(e)]
    maps = {}
    for (a, b) in r.covers:
        sa, _, ea = a.partition("::")
        sb, _, eb = b.partition("::")
        qa = ea if sa == "Q" else phi(ea)
        qb = eb if sb == "Q" else phi(eb)
        maps[(a, b)] = d.transitions[(qa, qb)]
    return new_diagram(r, fibers, maps)


def check_cofinality(phi: PosetMap, d: Diagram, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Preimages of the basic closed sets trivial: the canonical map is a w.e.

    The proof's mixed poset over Q + P is built and both removal phases are
    replayed at the index level: the Q-phase removes gamma points, the
    P-phase down beat points dominated by their phi-image with identity
    transition.
    """
    if phi.target != d.index:
        raise DomainMismatch("check_cofinality requires phi.target == diagram index")
    q_poset, p_poset = phi.target, phi.source
    for q in q_poset.elements:
        pre = p_poset.subposet(
            x for x in p_poset.elements if q_poset.leq(q, phi(x))
        )
        _, skip = _oracle_hypothesis("cofinality", pre, budget, f"preimage of F_{q!r}")
        if skip:
            return skip
    bundle = {"map": io.map_to_obj(phi), "diagram": io.diagram_to_obj(d)}
    pa = poset_homology(hocolim(pullback(phi, d)))
    pb = poset_homology(hocolim(d))
    evidence: dict = {
        "profile_pullback": io.profile_to_obj(pa),
        "profile_diagram": io.profile_to_obj(pb),
    }
    if pa != pb:
        return refuted("cofinality", evidence, bundle)

    r = _mixed_poset(phi)
    mixed = _mixed_diagram(phi, d, r)
    up_steps = []
    current = r
    for qj in q_poset.opposite().linear_extension():
        name = f"Q::{qj}"
        above = current.strict_up_set(name)
        expected = {f"P::{x}" for x in p_poset.elements if q_poset.leq(qj, phi(x))}
        if set(above.elements) != expected:
            return refuted(
                "cofinality",
                {"mismatch": f"strict up-set of {name!r} is not the preimage of F_{qj!r}"},
                bundle,
            )
        v = triviality_oracle(above, budget)
        if v.verdict == NONTRIVIAL:
            return refuted("cofinality", {"failing_index_point": name}, bundle)
        if v.verdict == UNKNOWN:
            return skipped(
                "cofinality", ORACLE_UNKNOWN, f"oracle undecided at mixed-poset removal of {name!r}"
            )
        up_steps.append((name, GAMMA_UP))
        current = current.without(name)
    down_steps = []
    current = r
    for pi in p_poset.linear_extension():
        name = f"P::{pi}"
        below = current.strict_down_set(name)
        dominator = f"Q::{phi(pi)}"
        if below.maximum() != dominator:
            return refuted(
                "cofinality",
                {"mismatch": f"{name!r} is not dominated by {dominator!r} in the mixed poset"},
                bundle,
            )
        if not mixed.transitions[(dominator, name)].is_identity():
            return refuted(
                "cofinality",
                {"mismatch": f"mixed transition {dominator!r} -> {name!r} is not the identity"},
                bundle,
            )
        down_steps.append((name, DOWN_BEAT))
        current = current.without(name)
    evidence["mixed_up_phase"] = RemovalSequence(tuple(up_steps)).to_obj()
    evidence["mixed_down_phase"] = RemovalSequence(tuple(down_steps)).to_obj()
    return verified("cofinality", evidence)


# -- Thomason-style round trips -----------------------------------------------------


def check_thomason_roundtrip(d: Diagram) -> CheckReport:
    """hocolim of a poset diagram vs hocolim of the lifted face-poset diagram."""
    pa = poset_homology(hocolim(d))
    lifted = lift_face_poset_op(lift_order_complex(d))
    pb = poset_homology(hocolim(lifted))
    evidence = {
        "profile_direct": io.profile_to_obj(pa),
        "profile_roundtrip": io.profile_to_obj(pb),
    }
    if pa != pb:
        return refuted("thomason", evidence, {"diagram": io.diagram_to_obj(d)})
    return verified("thomason", evidence)


def check_barycentric(c: Diagram) -> CheckReport:
    """hocolim of a complex diagram vs hocolim of its barycentric subdivision."""
    pa = poset_homology(hocolim(lift_face_poset_op(c)))
    sd = barycentric_diagram(c)
    pb = poset_homology(hocolim(lift_face_poset_op(sd)))
    chi = {
        p: [euler_characteristic(c.fibers[p]), euler_characteristic(sd.fibers[p])]
        for p in c.index.elements
    }
    evidence = {
        "profile_original": io.profile_to_obj(pa),
        "profile_subdivided": io.profile_to_obj(pb),
        "fiber_euler_characteristics": chi,
    }
    bundle = {"diagram": io.diagram_to_obj(c)}
    if any(a != b for a, b in chi.values()) or pa != pb:
        return refuted("barycentric", evidence, bundle)
    return verified("barycentric", evidence)


def check_index_contractible(c: Diagram) -> CheckReport:
    """Dismantlable index and transitions that are homotopy equivalences.

    Transition hypotheses are evidenced by fiber homology equality; the
    dismantling of the index is replayed step by step, checking that the
    hocolim profile never moves.
    """
    if not is_contractible(c.index):
        return skipped("index-contractible", NOT_ESTABLISHED, "index poset is not dismantlable")
    for (p, q) in c.index.covers:
        if homology_profile(c.fibers[p]) != homology_profile(c.fibers[q]):
            return skipped(
                "index-contractible",
                NOT_ESTABLISHED,
                f"fiber profiles differ along the cover {p!r} -> {q!r}",
                {"evidence_regime": NECESSARY_CONDITION},
            )
    bundle = {"diagram": io.diagram_to_obj(c)}
    target = poset_homology(hocolim(lift_face_poset_op(c)))
    evidence: dict = {
        "evidence_regime": NECESSARY_CONDITION,
        "profile_hocolim": io.profile_to_obj(target),
    }
    for p in c.index.elements:
        if target != homology_profile(c.fibers[p]):
            evidence["failing_fiber"] = p
            return refuted("index-contractible", evidence, bundle)
    _, seq = core(c.index)
    current = c
    for (x, kind) in seq.steps:
        if kind == DOWN_BEAT:
            dominator = current.index.covers_below(x)[0]
            if homology_profile(current.fibers[dominator]) != homology_profile(current.fibers[x]):
                evidence["failing_step"] = [x, kind]
                return refuted("index-contractible", evidence, bundle)
        current = restrict(current, [e for e in current.index.elements if e != x])
        step_profile = poset_homology(hocolim(lift_face_poset_op(current)))
        if step_profile != target:
            evidence["failing_step"] = [x, kind]
            return refuted("index-contractible", evidence, bundle)
    evidence["sequence"] = RemovalSequence(seq.steps).to_obj()
    return verified("index-contractible", evidence)


def check_gamma_index(c: Diagram, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Index reducible by gamma points, transitions contractible mappings.

    Down-side removals require the combinatorial contractible-mapping
    criterion: preimages of basic opens in the opposite face posets are
    homotopically trivial.
    """
    verdict, skip = _oracle_hypothesis("gamma-index", c.index, budget, "index poset")
    if skip:
        return skip
    seq: RemovalSequence = verdict.evidence["sequence"]
    bundle = {"diagram": io.diagram_to_obj(c)}
    current = c
    for (x, kind) in seq.steps:
        if kind in (DOWN_BEAT, DOWN_WEAK, GAMMA_DOWN):
            for q in current.index.elements:
                if not current.index.lt(q, x):
                    continue
                fop = face_poset_map_op(current.transitions[(q, x)])
                for sigma in fop.target.elements:
                    pre = preimage_poset(fop, sigma)
                    v = triviality_oracle(pre, budget)
                    if v.verdict == NONTRIVIAL:
                        return skipped(
                            "gamma-index",
                            NOT_ESTABLISHED,
                            f"transition {q!r} -> {x!r} fails the preimage criterion at {sigma!r}",
                        )
                    if v.verdict == UNKNOWN:
                        return skipped(
                            "gamma-index",
                            ORACLE_UNKNOWN,
                            f"oracle undecided for transition {q!r} -> {x!r} at {sigma!r}",
                        )
        current = restrict(current, [e for e in current.index.elements if e != x])
    last = current.index.elements[0]
    pa = poset_homology(hocolim(lift_face_poset_op(c)))
    pb = homology_profile(c.fibers[last])
    evidence = {
        "sequence": seq.to_obj(),
        "profile_hocolim": io.profile_to_obj(pa),
        "profile_fiber": io.profile_to_obj(pb),
        "remaining_fiber": last,
    }
    if pa != pb:
        return refuted("gamma-index", evidence, bundle)
    return verified("gamma-index", evidence)
