import random

import numpy as np
import pytest

from finhtop import (
    CycleError,
    NotOrderPreserving,
    ReservedIdentifier,
    SizeLimitExceeded,
    UnknownElement,
    antichain,
    chain,
    compose,
    constant_map,
    identity,
    is_isomorphic,
    new_map,
    new_poset,
    preimage,
    product,
)
from finhtop.poset import FinitePoset
from finhtop.verify.randgen import random_poset
from finhtop.verify.suite import circle_poset, w_poset

from conftest import brute_closure


class TestNewPoset:
    def test_singleton(self):
        p = new_poset(["a"], [])
        assert p.elements == ("a",)
        assert p.covers == frozenset()
        assert p.leq("a", "a")

    def test_transitive_reduction_of_chain(self):
        p = new_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert p.covers == {("a", "b"), ("b", "c")}
        assert p.leq("a", "c")

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            new_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            new_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            new_poset(["a"], [("a", "b")])

    def test_reserved_separator(self):
        with pytest.raises(ReservedIdentifier):
            new_poset(["a::b"], [])

    def test_duplicate_elements(self):
        with pytest.raises(ValueError):
            new_poset(["a", "a"], [])

    def test_idempotent_on_own_output(self):
        p = random_poset(8, 0.4, 17)
        again = new_poset(list(p.elements), sorted(p.covers))
        assert again == p

    def test_reflexive_pairs_ignored(self):
        p = new_poset(["a", "b"], [("a", "a"), ("a", "b")])
        assert p.covers == {("a", "b")}


class TestLeq:
    def test_chain(self):
        p = chain(3)
        assert p.leq("c0", "c2")
        assert not p.leq("c2", "c0")

    def test_antichain(self):
        p = antichain(2)
        assert not p.leq("a0", "a1")

    def test_reflexive(self, s1):
        for x in s1.elements:
            assert s1.leq(x, x)

    def test_unknown(self, s1):
        with pytest.raises(UnknownElement):
            s1.leq("a", "nope")

    @pytest.mark.parametrize("seed", range(8))
    def test_closure_matches_brute_force(self, seed):
        p = random_poset(9, 0.35, seed)
        oracle = brute_closure(p.elements, p.covers)
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == ((x, y) in oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_order_axioms(self, seed):
        p = random_poset(8, 0.4, 100 + seed)
        els = p.elements
        for x in els:
            assert p.leq(x, x)
            for y in els:
                if p.leq(x, y) and p.leq(y, x):
                    assert x == y
                for z in els:
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)


class TestUpDownSets:
    def test_strict_up_of_s1_bottom(self, s1):
        up = s1.strict_up_set("a")
        assert up.elements == ("c", "d")
        assert up.covers == frozenset()

    def test_down_set_of_chain(self):
        p = chain(3)
        d = p.down_set("c1")
        assert d.elements == ("c0", "c1")
        assert d.covers == {("c0", "c1")}

    def test_strict_up_of_maximal_is_empty(self, s1):
        assert s1.strict_up_set("c").is_empty()

    def test_membership(self, s1):
        assert "a" in s1.down_set("a").elements
        assert "a" in s1.up_set("a").elements
        assert "a" not in s1.strict_down_set("a").elements

    @pytest.mark.parametrize("seed", range(4))
    def test_up_set_matches_scan(self, seed):
        p = random_poset(8, 0.4, 200 + seed)
        for x in p.elements:
            expected = tuple(y for y in p.elements if p.leq(x, y))
            assert p.up_set(x).elements == expected


class TestSubposet:
    def test_chain_minus_middle(self):
        p = chain(3).without("c1")
        assert p.covers == {("c0", "c2")}

    def test_identity(self, s1):
        assert s1.subposet(s1.elements) == s1

    def test_s1_minus_c(self, s1):
        p = s1.without("c")
        assert p.elements == ("a", "b", "d")
        assert p.covers == {("a", "d"), ("b", "d")}

    def test_unknown(self, s1):
        with pytest.raises(UnknownElement):
            s1.subposet(["a", "zzz"])


class TestOpposite:
    def test_chain_reversed(self):
        p = chain(2).opposite()
        assert p.covers == {("c1", "c0")}

    def test_involution(self, s1, w):
        assert s1.opposite().opposite() == s1
        assert w.opposite().opposite() == w

    def test_antichain_self_dual(self):
        a = antichain(3)
        assert a.opposite() == a


class TestLinearExtension:
    def test_chain(self):
        assert chain(3).linear_extension() == ["c0", "c1", "c2"]

    def test_antichain_lexicographic(self):
        p = new_poset(["b", "a"], [])
        assert p.linear_extension() == ["a", "b"]

    def test_s1(self, s1):
        assert s1.linear_extension() == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("seed", range(6))
    def test_extension_property(self, seed):
        p = random_poset(9, 0.4, 300 + seed)
        ext = p.linear_extension()
        pos = {e: i for i, e in enumerate(ext)}
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y):
                    assert pos[x] <= pos[y]


class TestProduct:
    def test_with_singleton(self, s1, pt):
        p = product(s1, pt)
        assert len(p) == len(s1)
        assert is_isomorphic(p, s1)

    def test_square_of_chain2(self):
        p = product(chain(2), chain(2))
        assert len(p) == 4
        assert len(p.covers) == 4

    def test_product_order(self, s1):
        p = product(s1, chain(2))
        assert p.leq("(a,c0)", "(c,c1)")
        assert not p.leq("(a,c1)", "(c,c0)")


class TestMaps:
    def test_constant_always_valid(self, s1, pt):
        m = constant_map(s1, pt, "pt")
        assert m("a") == "pt"

    def test_two_to_one(self, s1):
        tgt = new_poset(["a", "c"], [("a", "c")])
        m = new_map(s1, tgt, {"a": "a", "b": "a", "c": "c", "d": "c"})
        assert m("b") == "a"

    def test_not_order_preserving(self):
        with pytest.raises(NotOrderPreserving):
            new_map(chain(2), antichain(2), {"c0": "a0", "c1": "a1"})

    def test_compose_and_identity(self, s1):
        tgt = new_poset(["a", "c"], [("a", "c")])
        m = new_map(s1, tgt, {"a": "a", "b": "a", "c": "c", "d": "c"})
        assert compose(identity(s1), m) == m
        assert compose(m, identity(tgt)) == m

    def test_compose_mismatch(self, s1, pt):
        m = constant_map(s1, pt, "pt")
        from finhtop import DomainMismatch

        with pytest.raises(DomainMismatch):
            compose(m, m)

    def test_partial_assignment_rejected(self, s1, pt):
        with pytest.raises(UnknownElement):
            new_map(s1, pt, {"a": "pt"})


class TestPreimage:
    def test_identity_map_basic_open(self, s1):
        m = identity(s1)
        assert preimage(m, s1.down_set("c").elements) == s1.down_set("c")

    def test_constant(self, s1, pt):
        m = constant_map(s1, pt, "pt")
        assert preimage(m, ["pt"]) == s1

    def test_two_to_one_fiber(self, s1):
        tgt = new_poset(["a", "c"], [("a", "c")])
        m = new_map(s1, tgt, {"a": "a", "b": "a", "c": "c", "d": "c"})
        fiber = preimage(m, ["a"])
        assert fiber.elements == ("a", "b")
        assert fiber.covers == frozenset()


class TestIsomorphism:
    def test_self(self, s1):
        assert is_isomorphic(s1, s1)

    def test_chain_vs_antichain(self):
        assert not is_isomorphic(chain(3), antichain(3))

    def test_s1_vs_opposite(self, s1):
        # a<->c, b<->d is an explicit isomorphism
        assert is_isomorphic(s1, s1.opposite())

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            is_isomorphic(chain(13), chain(13))

    def test_relabelled(self, w):
        relabelled = new_poset(
            [f"n{e}" for e in w.elements],
            [(f"n{a}", f"n{b}") for (a, b) in w.covers],
        )
        assert is_isomorphic(w, relabelled, max_size=12)

    def test_same_counts_not_isomorphic(self):
        # both have 4 elements and 3 covers
        p = new_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        q = new_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
        assert not is_isomorphic(p, q)


class TestMaximumMinimum:
    def test_chain(self):
        p = chain(3)
        assert p.maximum() == "c2"
        assert p.minimum() == "c0"

    def test_s1_has_neither(self, s1):
        assert s1.maximum() is None
        assert s1.minimum() is None


# -- the kernel against brute force on the closure matrix -----------------------


def ref_covers(p):
    """Transitive reduction of closure_matrix() by an O(n^3) scan."""
    m, els, n = p.closure_matrix(), p.elements, len(p)
    return {
        (els[i], els[j])
        for i in range(n)
        for j in range(n)
        if i != j
        and m[i, j]
        and not any(k not in (i, j) and m[i, k] and m[k, j] for k in range(n))
    }


def ref_linear_extension(p):
    """Repeatedly place the smallest identifier whose strict down-set is placed."""
    placed, out = set(), []
    while len(out) < len(p):
        x = min(
            y
            for y in p.elements
            if y not in placed and all(z in placed for z in p.elements if p.lt(z, y))
        )
        placed.add(x)
        out.append(x)
    return out


SMALL = [random_poset(1 + k % 5, 0.5, 4300 + k) for k in range(40)]
PAIRS = [(SMALL[k], SMALL[k + 1]) for k in range(0, 40, 2)]


def _kernel_posets():
    randoms = [
        random_poset(1 + k % 14, (0.15, 0.3, 0.45, 0.6)[k % 4], 4100 + k) for k in range(150)
    ]
    subs = [p.subposet(p.elements[::2]) for p in randoms[::5]]
    base = randoms + [w_poset(), circle_poset()] + [product(a, b) for a, b in PAIRS] + subs
    return base + [p.opposite() for p in base[::3]]


class TestKernelDifferential:
    """Cover lists, extrema and extension order against the closure alone."""

    POSETS = _kernel_posets()

    def test_covers_and_cover_lists(self):
        for p in self.POSETS:
            rc = ref_covers(p)
            assert p.covers == rc, p.elements
            for x in p.elements:
                assert p.covers_above(x) == [y for y in p.elements if (x, y) in rc]
                assert p.covers_below(x) == [y for y in p.elements if (y, x) in rc]

    def test_extremal_elements(self):
        for p in self.POSETS:
            assert p.minimal_elements() == [
                x for x in p.elements if not any(p.lt(y, x) for y in p.elements)
            ]
            assert p.maximal_elements() == [
                x for x in p.elements if not any(p.lt(x, y) for y in p.elements)
            ]

    def test_linear_extension(self):
        for p in self.POSETS:
            assert p.linear_extension() == ref_linear_extension(p), p.elements

    def test_product_covers(self):
        for a, b in PAIRS:
            expected = {
                (f"({x},{y})", f"({x},{y2})") for x in a.elements for (y, y2) in ref_covers(b)
            } | {(f"({x},{y})", f"({x2},{y})") for (x, x2) in ref_covers(a) for y in b.elements}
            assert product(a, b).covers == expected

    def test_equality_and_hash_across_routes(self):
        for p in self.POSETS:
            els = list(p.elements)
            bigger = FinitePoset.from_closure(
                els + ["extra"],
                np.pad(p.closure_matrix(), ((0, 1), (0, 1)), constant_values=False)
                | np.eye(len(els) + 1, dtype=bool),
            )
            routes = [
                FinitePoset.from_closure(els, p.closure_matrix()),
                new_poset(els, sorted(p.covers)),
                bigger.subposet(els),
                p.opposite().opposite(),
            ]
            for q in routes:
                assert q == p and hash(q) == hash(p) and q.covers == p.covers
            assert (p.opposite() == p) == (not p.covers)


# -- the trusted subposet path against validation from scratch -----------------


def _trusted_cases():
    """(parent, kept names, subposet) from every route into ``subposet``."""
    rng = random.Random(4500)
    parents = [
        random_poset(2 + k % 13, (0.2, 0.35, 0.5, 0.7)[k % 4], 4500 + k) for k in range(120)
    ] + [w_poset(), circle_poset()]
    cases = []
    for p in parents:
        els = list(p.elements)
        for _ in range(4):
            keep = [x for x in els if rng.random() < 0.5]
            cases.append((p, keep, p.subposet(keep)))
        cases += [(p, [y for y in els if y != x], p.without(x)) for x in els]
        for x in els[::3]:
            above = [y for y in els if p.leq(x, y)]
            below = [y for y in els if p.leq(y, x)]
            cases += [
                (p, above, p.up_set(x)),
                (p, below, p.down_set(x)),
                (p, [y for y in above if y != x], p.strict_up_set(x)),
                (p, [y for y in below if y != x], p.strict_down_set(x)),
            ]
        q = p
        for x in rng.sample(els, len(els) - 1):
            sub = q.without(x)
            cases.append((q, [y for y in q.elements if y != x], sub))
            q = sub
    return cases


class TestTrustedSubposet:
    """``subposet`` validates nothing; it must agree with ``from_closure``."""

    CASES = _trusted_cases()

    def test_agrees_with_from_closure_and_brute_force(self):
        for p, keep, sub in self.CASES:
            idx = [p.index_of(x) for x in keep]
            ref = FinitePoset.from_closure(keep, p.closure_matrix()[np.ix_(idx, idx)])
            assert sub == ref and hash(sub) == hash(ref)
            rc = ref_covers(ref)
            assert sub.covers == ref.covers == rc, (p.elements, keep)
            for x in keep:
                assert sub.covers_above(x) == ref.covers_above(x)
                assert sub.covers_below(x) == ref.covers_below(x)
                assert sub.covers_above(x) == [y for y in keep if (x, y) in rc]
