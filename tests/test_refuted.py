"""Refuted reports of every checker, pinned byte for byte.

The checked results are theorems, so no honest instance refutes them.  Each
test plants a fault by rebinding a name that ``finhtop.verify.checks``
imports (``hocolim`` or ``poset_homology``), runs the checker on a seeded
instance whose report is Verified without the fault, and pins the sha256 of
the report's canonical JSON.  The removal checkers (ubp, maximum, dbp,
up-wp) are also driven down their failing-element path.
"""

import hashlib
import itertools

import numpy as np
import pytest

from finhtop import io as fio
from finhtop.diagram import hocolim, hocolim_name
from finhtop.homology import HomologyProfile, poset_homology
from finhtop.poset import FinitePoset
from finhtop.reduction import DEFAULT_BUDGET
from finhtop.verify import checks
from finhtop.verify.suite import THEOREMS


def _instance(theorem: str):
    return THEOREMS[theorem].instance(0, 0)


def _check(theorem: str, instance):
    return THEOREMS[theorem].check(instance, DEFAULT_BUDGET)


def _digest(report) -> str:
    return hashlib.sha256(fio.dumps(report.to_obj()).encode()).hexdigest()


def _with_extra(p: FinitePoset, name: str, above: bool) -> FinitePoset:
    """p plus one new point "extra" that covers ``name`` (or is covered by it)
    and is comparable to nothing else beyond what that forces."""
    n = len(p)
    leq = np.zeros((n + 1, n + 1), dtype=bool)
    leq[:n, :n] = p.closure_matrix()
    leq[n, n] = True
    i = p.index_of(name)
    if above:
        leq[:n, n] = leq[:n, i]
    else:
        leq[n, :n] = leq[i, :n]
    return FinitePoset.from_closure(p.elements + ("extra",), leq)


def _plant_extra_point(monkeypatch, name: str, above: bool) -> None:
    """The first hocolim the checker builds gets a stray point next to ``name``:
    above it, ``name`` is neither an up beat point nor has a trivial strict
    up-set; below it, its strict down-set is disconnected."""
    first = [True]

    def planted(d):
        h = hocolim(d)
        if first[0]:
            first[0] = False
            return _with_extra(h, name, above)
        return h

    monkeypatch.setattr(checks, "hocolim", planted)


def _plant_profiles(monkeypatch) -> None:
    """Every hocolim (the posets named with '::') gets a profile of its own."""
    calls = itertools.count(100)

    def planted(p):
        if any("::" in e for e in p.elements):
            return HomologyProfile.make([1, next(calls)], [(), ()])
        return poset_homology(p)

    monkeypatch.setattr(checks, "poset_homology", planted)


def _first_removed(fiber: FinitePoset, top_down: bool) -> str:
    return (fiber.opposite() if top_down else fiber).linear_extension()[0]


class TestFailingElement:
    def test_ubp(self, monkeypatch):
        d, p = _instance("ubp")
        name = hocolim_name(p, _first_removed(d.fibers[p], top_down=True))
        _plant_extra_point(monkeypatch, name, above=True)
        rep = _check("ubp", (d, p))
        assert rep.conclusion_status == "Refuted"
        assert rep.evidence["failing_element"] == name
        assert rep.evidence["counterexample"]["point"] == p
        assert _digest(rep) == "61e3ee517ead2542d82e4e52cf25cf94d2c31875545c198145a3a8b7d5db5d31"

    def test_maximum(self, monkeypatch):
        d = _instance("maximum")
        pi = d.index.opposite().linear_extension()[1]
        name = hocolim_name(pi, _first_removed(d.fibers[pi], top_down=True))
        _plant_extra_point(monkeypatch, name, above=True)
        rep = _check("maximum", d)
        assert rep.conclusion_status == "Refuted"
        assert rep.evidence["failing_element"] == name
        assert _digest(rep) == "ccb1113a6759da12e2ce5d4527eeff6c7e2ed8ef28207e866b65f92a6465f17d"

    def test_dbp(self, monkeypatch):
        d, p, q = _instance("dbp")
        name = hocolim_name(p, _first_removed(d.fibers[p], top_down=False))
        _plant_extra_point(monkeypatch, name, above=False)
        rep = _check("dbp", (d, p, q))
        assert rep.conclusion_status == "Refuted"
        assert rep.evidence["failing_element"] == name
        assert rep.evidence["counterexample"]["dominator"] == q
        assert _digest(rep) == "77af4a2d9c02bdb8b75cf68e1b36b53d9a9af3f8a8f4a65ae723d1c8a63bfd73"

    def test_up_wp(self, monkeypatch):
        d, p = _instance("up-wp")
        name = hocolim_name(p, _first_removed(d.fibers[p], top_down=True))
        _plant_extra_point(monkeypatch, name, above=True)
        rep = _check("up-wp", (d, p))
        assert rep.conclusion_status == "Refuted"
        assert rep.evidence["failing_element"] == name
        assert rep.evidence["oracle"]["verdict"] == "NonTrivial"
        assert _digest(rep) == "c9abb0f7672ca490de7dfa6a70d8fa2c0fc4d7f3ef923099f820d5b7c0d4957c"


PROFILE_PINS = {
    "ubp": "d4492816d688ed5de7df6e4837bd24b5153536ae4ab596bf7eea0bd42d27c7e3",
    "maximum": "c8d5262ddc6e81ae76bf196fd22d6d1116b810c44f01adf43bb818d38019ecf3",
    "homotopy": "3dd6a1b3dcc42e96dd53f716d08e0b437cdd636f01c274731a8fb0fe3521db8a",
    "dbp": "38fe16972825807c815602bdcdcbed339de86627a30ec0edece869d9efbe230a",
    "dbpgen": "8653ba755e0f17f0f4767689a921caa16139f5d139116e5561d073a8001a338d",
    "up-wp": "d85cdd2f676ce696a4e38b74bd197e22b657b40053ac0ba7f02fe4bcea866170",
    "cofinality": "e689e85122fc15994f7de6febf048cec148798338b6c2130baaf2e67044311d3",
    "thomason": "2e280f165d140b28d57ea699f29b4ec80fc1814581630cdf4a0873154e57f5b1",
    "barycentric": "049b342723453cb349db83a67b5125d6e50583642646f59992b86e1cde41960a",
    "index-contractible": "a81deebf5e1c97abf4078a924ca55e24577188d3a1502b58f679a617787a30b8",
    "gamma-index": "4aefcf437fa0918c4e83902ff0ea76d5be8bf3e24ed12ecf7baa1292ad969af7",
}


@pytest.mark.parametrize("theorem", sorted(PROFILE_PINS))
def test_profile_mismatch_is_refuted(monkeypatch, theorem):
    instance = _instance(theorem)
    _plant_profiles(monkeypatch)
    rep = _check(theorem, instance)
    assert rep.conclusion_status == "Refuted"
    assert rep.hypothesis_status == "Established"
    assert "counterexample" in rep.evidence
    assert _digest(rep) == PROFILE_PINS[theorem]
