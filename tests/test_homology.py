import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import finhtop
from finhtop import chain, new_poset
from finhtop.diagram import hocolim
from finhtop.errors import SizeLimitExceeded
from finhtop.homology import (
    MAX_CHAINS,
    HomologyProfile,
    _snf_diagonal,
    boundary_matrices,
    chain_count,
    euler_characteristic,
    homology_profile,
    poset_homology,
    smith_normal_form,
)
from finhtop.simplicial import barycentric, new_complex, order_complex
from finhtop.verify.randgen import random_complex, random_poset
from finhtop.verify.suite import circle_complex


def rational_betti(k):
    """Independent Betti computation over Q by floating-point rank."""
    arrays = [a.astype(float) for a in boundary_matrices(k)]
    by_dim = k.simplices_by_dim()
    dim = len(by_dim) - 1
    betti = []
    for deg in range(dim + 1):
        nk = len(by_dim[deg])
        rk = np.linalg.matrix_rank(arrays[deg - 1]) if deg >= 1 else 0
        rk1 = np.linalg.matrix_rank(arrays[deg]) if deg < dim else 0
        betti.append(nk - rk - rk1)
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def rp2():
    return new_complex(
        [str(i) for i in range(6)], [[str(v) for v in f] for f in RP2_FACETS]
    )


def sympy_factors(m):
    d = sympy_snf(sympy.Matrix(m))
    return sorted(abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i] != 0)


def unimodular(rng, n):
    """A random integer matrix of determinant +-1: eight elementary moves on I."""
    u = np.eye(n, dtype=np.int64)
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        u[i] += rng.choice([-2, -1, 1, 2]) * u[j]
        if rng.random() < 0.3:
            u[[i, j]] = u[[j, i]]
    return u


class TestBoundary:
    def test_single_edge_column(self):
        k = new_complex(["1", "2"], [["1", "2"]])
        (d1,) = boundary_matrices(k)
        assert d1.tolist() == [[-1], [1]]

    def test_triangle_boundary_column_sums_vanish(self):
        (d1,) = boundary_matrices(circle_complex())
        assert d1.shape == (3, 3)
        assert (d1.sum(axis=0) == 0).all()

    def test_four_cycle_rank(self, s1):
        (d1,) = boundary_matrices(order_complex(s1))
        assert len(smith_normal_form(d1)) == 3

    def test_boundary_squared_is_zero(self):
        for seed in range(4):
            k = random_complex(5, 800 + seed)
            arrays = boundary_matrices(k)
            for lower, upper in zip(arrays, arrays[1:]):
                assert not (lower.astype(np.int64) @ upper).any()


class TestSmith:
    def test_scalar(self):
        assert smith_normal_form([[2]]) == [2]

    def test_rank_one(self):
        # hand elimination: both rows equal, one invariant factor 1
        assert smith_normal_form([[1, 1], [1, 1]]) == [1]

    def test_zero_matrix(self):
        assert smith_normal_form(np.zeros((3, 2), dtype=np.int64)) == []

    def test_divisibility_chain_and_positivity(self):
        rng = random.Random(1)
        for _ in range(50):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            factors = smith_normal_form(m)
            assert all(d > 0 for d in factors)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_against_sympy(self, seed):
        rng = random.Random(1000 + seed)
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-12, 12) for _ in range(c)] for _ in range(r)]
        assert sorted(smith_normal_form(m)) == sympy_factors(m)

    def test_exact_fallback_beyond_int64_comfort(self):
        big = 2**40
        m = [[big, 3], [5, big]]
        assert sorted(smith_normal_form(m)) == sympy_factors(m)

    def test_entry_growth_forces_fallback(self):
        # starts under the guard; elimination products cross it
        m = [[2**29, 1], [1, 2**29]]
        assert smith_normal_form(m) == [1, 2**58 - 1]

    def test_integer_matrix_input(self):
        m = np.array([[2, 0], [0, 4]], dtype=object)
        assert smith_normal_form(m) == [2, 4]

    def test_int64_minimum_is_positive(self):
        # abs wraps at -2**63, so the int64 path must not see this entry
        assert smith_normal_form(np.array([[-(2**63)]])) == [2**63]


class TestSmithPathsDifferential:
    """The int64 path of smith_normal_form against the exact object path,
    and both against sympy on matrices of side at most 20."""

    def factors(self, a):
        fast = smith_normal_form(a)
        assert fast == _snf_diagonal(a.astype(object), guard=False)
        if max(a.shape) <= 20:
            assert sorted(fast) == sympy_factors(a.tolist())
        return fast

    def test_rp2_boundaries(self):
        d1, d2 = boundary_matrices(rp2())
        assert self.factors(d1) == [1] * 5
        assert self.factors(d2) == [1] * 9 + [2]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_complex_boundaries(self, seed):
        k = random_complex(5, 1100 + seed)
        by_dim = k.simplices_by_dim()
        factors = [self.factors(a) for a in boundary_matrices(k)]
        assert all(len(f) <= len(by_dim[deg]) for deg, f in enumerate(factors))

    @pytest.mark.parametrize("seed", range(10))
    def test_z3_presentation(self, seed):
        rng = random.Random(1200 + seed)
        d = np.diag([1, 3, 0]).astype(np.int64)
        m = unimodular(rng, 3) @ d @ unimodular(rng, 3)
        assert self.factors(m) == [1, 3]


class TestProfiles:
    def test_chain_poset_is_point_like(self):
        p = poset_homology(chain(4))
        assert p.betti == (1,)
        assert p.is_trivial()

    def test_s1(self, s1):
        p = poset_homology(s1)
        assert p.betti == (1, 1)
        assert p.torsion == ((), ())

    def test_pushout_sphere(self, sphere_diagram):
        # frozen from the independent pre-build SNF/rank computation
        p = poset_homology(hocolim(sphere_diagram))
        assert p.betti == (1, 0, 1)
        assert all(not t for t in p.torsion)

    def test_rp2_torsion(self):
        p = homology_profile(rp2())
        assert p.betti == (1, 0)
        assert p.torsion_at(1) == (2,)

    def test_w_is_homologically_trivial(self, w):
        assert poset_homology(w).is_trivial()

    @pytest.mark.parametrize("seed", range(6))
    def test_betti_matches_rational_rank_oracle(self, seed):
        k = random_complex(5, 900 + seed)
        assert homology_profile(k).betti == rational_betti(k)

    def test_profile_equality_and_padding(self, s1):
        a = poset_homology(s1)
        assert a == a
        assert a != poset_homology(chain(2))
        padded = HomologyProfile.make([1, 1, 0, 0], [(), (), (), ()])
        assert a == padded

    def test_relabel_invariance(self):
        for seed in range(4):
            p = random_poset(7, 0.4, 950 + seed)
            relabelled = new_poset(
                [f"z{e}" for e in p.elements],
                [(f"z{a}", f"z{b}") for (a, b) in p.covers],
            )
            assert poset_homology(p) == poset_homology(relabelled)

    def test_opposite_invariance(self):
        for seed in range(4):
            p = random_poset(7, 0.4, 970 + seed)
            assert poset_homology(p) == poset_homology(p.opposite())

    def test_describe(self):
        p = homology_profile(rp2())
        text = p.describe()
        assert "H_0 = Z" in text
        assert "Z/2" in text


class TestChainCount:
    def test_matches_the_enumerated_order_complex(self, w, s1, sphere_diagram):
        posets = [random_poset(1 + k % 13, 0.15 + 0.05 * (k % 9), 5100 + k) for k in range(60)]
        for p in posets + [w, s1, hocolim(sphere_diagram)]:
            assert chain_count(p) == sum(map(len, order_complex(p).simplices_by_dim()))

    def test_exact_up_to_the_limit(self):
        assert chain_count(chain(15)) == 2**15 - 1 <= MAX_CHAINS
        assert MAX_CHAINS < chain_count(chain(16)) <= 2**16 - 1

    def test_huge_order_complex_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded, match="more than 50000 simplices"):
            poset_homology(chain(30))
        assert time.perf_counter() - start < 1.0


class TestEuler:
    def test_counts(self):
        assert euler_characteristic(circle_complex()) == 0
        assert euler_characteristic(new_complex(["a", "b", "c"], [["a", "b", "c"]])) == 1

    def test_subdivision_invariance(self):
        for seed in range(4):
            k = random_complex(4, 990 + seed)
            assert euler_characteristic(k) == euler_characteristic(barycentric(k))

    def test_alternating_betti_sum(self):
        for seed in range(4):
            k = random_complex(5, 995 + seed)
            p = homology_profile(k)
            chi = sum((-1) ** d * b for d, b in enumerate(p.betti))
            assert chi == euler_characteristic(k)

    @pytest.mark.parametrize(
        "plant, message",
        [
            (
                "real = h.euler_characteristic\n"
                "h.euler_characteristic = lambda k: real(k) + 1\n"
                "k = circle_complex()\n",
                "Betti numbers disagree",
            ),
            (
                "real = h.boundary_matrices\n"
                "def flipped(k):\n"
                "    arrays = real(k)\n"
                "    arrays[-1][np.nonzero(arrays[-1])[0][0], 0] *= -1\n"
                "    return arrays\n"
                "h.boundary_matrices = flipped\n"
                "k = new_complex(['a', 'b', 'c'], [['a', 'b', 'c']])\n",
                "boundary of boundary is nonzero",
            ),
        ],
        ids=["euler", "boundary"],
    )
    def test_invariant_survives_optimized_mode(self, plant, message):
        # The invariant must be an explicit raise, which -O does not strip.
        code = (
            "import numpy as np\n"
            "import finhtop.homology as h\n"
            "from finhtop.simplicial import new_complex\n"
            "from finhtop.verify.suite import circle_complex\n"
            "assert False, 'asserts are on'\n"
            + plant
            + "try:\n"
            "    h.homology_profile(k)\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(finhtop.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert f"raised: invariant broken: {message}" in proc.stdout
