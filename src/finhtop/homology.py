"""Exact integral simplicial homology via Smith normal form.

This is the verification currency for "weak equivalent" throughout the
package: two finite spaces with different homology profiles cannot be weak
equivalent.  Coefficients are the integers, so torsion is seen.  The SNF
runs on int64 with vectorized row/column operations and falls back to
exact unbounded integers if entries ever approach the overflow guard, so
results are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyComplex, SizeLimitExceeded
from .poset import FinitePoset, require_nonempty
from .simplicial import SimplicialComplex, order_complex

# Entries beyond this trigger a rerun with exact Python integers; below it,
# one full pivot round (column update then row update, each adding a product
# of two sub-guard values) stays under 2^62 and cannot overflow int64.
_GUARD = 2**30

# poset_homology refuses order complexes with more simplices than this.  Dense
# SNF does not finish at 17,180; the check battery and the benchmark's inputs
# stay below 3,500.
MAX_CHAINS = 50_000


class _Overflow(Exception):
    pass


def _snf_diagonal(a: np.ndarray, guard: bool) -> list[int]:
    """Diagonalize by unimodular row/column moves; returns the diagonal.

    Pivot rule: smallest nonzero magnitude, then lowest row, then lowest
    column.  A unit pivot (the common case for boundary matrices) clears
    its row and column in one vectorized pass; otherwise quotient reduction
    repeats until the pivot divides everything left, so the diagonal comes
    out as the invariant-factor chain d1 | d2 | ... | dr.  Works in place
    on a, which callers pass as a fresh copy.
    """
    m, n = a.shape
    r = 0
    diag: list[int] = []
    while r < min(m, n):
        sub = a[r:, r:]
        nz_i, nz_j = np.nonzero(sub)
        if len(nz_i) == 0:
            break
        while True:
            # np.nonzero is row-major, so the first minimum has the lowest
            # row index, then the lowest column index.
            vals = abs(sub[nz_i, nz_j])
            if guard and vals.max() >= _GUARD:
                # Entries below the guard cannot overflow int64 in one more
                # quotient update; at the guard, redo exactly.
                raise _Overflow
            k = int(np.argmin(vals))
            pi, pj = int(nz_i[k]) + r, int(nz_j[k]) + r
            if pi != r:
                a[[r, pi], :] = a[[pi, r], :]
            if pj != r:
                a[:, [r, pj]] = a[:, [pj, r]]
            if a[r, r] < 0:
                a[r, :] = -a[r, :]
            piv = a[r, r]
            col = a[r + 1 :, r]
            if col.any():
                qs = col // piv
                a[r + 1 :, r:] -= np.outer(qs, a[r, r:])
            row = a[r, r + 1 :]
            if row.any():
                qs = row // piv
                a[r:, r + 1 :] -= np.outer(a[r:, r], qs)
            if piv == 1:
                # Unit pivots leave no remainders and divide everything.
                break
            sub = a[r:, r:]
            if not a[r + 1 :, r].any() and not a[r, r + 1 :].any():
                # Pivot must divide everything left; otherwise mix the
                # offending row in and keep reducing.
                rest = a[r + 1 :, r + 1 :]
                if rest.size:
                    bad = np.nonzero(rest % a[r, r])
                    if len(bad[0]):
                        a[r, :] += a[r + 1 + int(bad[0][0]), :]
                        nz_i, nz_j = np.nonzero(sub)
                        continue
                break
            nz_i, nz_j = np.nonzero(sub)
        diag.append(int(a[r, r]))
        r += 1
    return diag


def smith_normal_form(m) -> list[int]:
    """Invariant factors d1 | d2 | ... | dr (positive) of an integer matrix.

    Takes a numpy array or a nested sequence of integers.  Runs on int64
    while every entry stays strictly inside the guard, exactly otherwise.
    """
    a = np.asarray(m)
    if a.size == 0:
        return []
    # min/max rather than abs: abs wraps at the int64 minimum.
    if -_GUARD < a.min() and a.max() < _GUARD:
        try:
            return _snf_diagonal(a.astype(np.int64), guard=True)
        except _Overflow:
            pass
    return _snf_diagonal(a.astype(object), guard=False)


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree Betti numbers and torsion coefficients (invariant factors > 1).

    Stored in canonical form: trailing degrees with Betti 0 and no torsion
    are dropped, so weak-equivalent spaces of different dimensions compare
    equal degree-wise.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, betti, torsion) -> "HomologyProfile":
        betti = list(betti)
        torsion = [tuple(sorted(t)) for t in torsion]
        while betti and betti[-1] == 0 and not torsion[-1]:
            betti.pop()
            torsion.pop()
        return cls(tuple(betti), tuple(torsion))

    def betti_at(self, k: int) -> int:
        return self.betti[k] if 0 <= k < len(self.betti) else 0

    def torsion_at(self, k: int) -> tuple[int, ...]:
        return self.torsion[k] if 0 <= k < len(self.torsion) else ()

    def is_trivial(self) -> bool:
        """Profile of a weakly contractible space: one component, nothing else."""
        return (
            self.betti_at(0) == 1
            and all(b == 0 for b in self.betti[1:])
            and all(not t for t in self.torsion)
        )

    def describe(self) -> str:
        if not self.betti:
            return "H_* = 0"
        lines = []
        for k in range(len(self.betti)):
            parts = []
            if self.betti[k] == 1:
                parts.append("Z")
            elif self.betti[k] > 1:
                parts.append(f"Z^{self.betti[k]}")
            parts.extend(f"Z/{d}" for d in self.torsion_at(k))
            lines.append(f"H_{k} = " + (" ⊕ ".join(parts) if parts else "0"))
        return "\n".join(lines)


def boundary_matrices(k: SimplicialComplex) -> list[np.ndarray]:
    """Boundary operators [d_1, ..., d_dim] in lexicographic simplex order.

    Each is an int8 array, since every entry is 0 or +-1.  The sign of
    deleting the i-th vertex (under the sorted vertex order of the simplex)
    is (-1)^i.
    """
    if k.is_empty():
        raise EmptyComplex("boundary matrices of the empty complex")
    by_dim = k.simplices_by_dim()
    arrays: list[np.ndarray] = []
    for deg in range(1, len(by_dim)):
        rows = {s: i for i, s in enumerate(by_dim[deg - 1])}
        a = np.zeros((len(by_dim[deg - 1]), len(by_dim[deg])), dtype=np.int8)
        for j, s in enumerate(by_dim[deg]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                a[rows[face], j] = (-1) ** i
        arrays.append(a)
    return arrays


def euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating sum of simplex counts."""
    if k.is_empty():
        raise EmptyComplex("Euler characteristic of the empty complex")
    return sum((-1) ** d * len(b) for d, b in enumerate(k.simplices_by_dim()))


def homology_profile(k: SimplicialComplex) -> HomologyProfile:
    """Integral homology of the complex, from Smith normal forms."""
    if k.is_empty():
        raise EmptyComplex("homology of the empty complex")
    by_dim = k.simplices_by_dim()
    dim = len(by_dim) - 1
    arrays = boundary_matrices(k)
    for lower, upper in zip(arrays, arrays[1:]):
        # Exact int64 product: an int8 one wraps.
        if (lower.astype(np.int64) @ upper).any():
            raise RuntimeError("invariant broken: boundary of boundary is nonzero")
    factors = [smith_normal_form(m) for m in arrays]
    betti = []
    torsion = []
    for deg in range(dim + 1):
        nk = len(by_dim[deg])
        rk = len(factors[deg - 1]) if deg >= 1 else 0
        rk1 = len(factors[deg]) if deg < dim else 0
        betti.append(nk - rk - rk1)
        tors = [d for d in factors[deg]] if deg < dim else []
        torsion.append(tuple(d for d in tors if abs(d) > 1))
    if sum((-1) ** d * b for d, b in enumerate(betti)) != euler_characteristic(k):
        raise RuntimeError(
            "invariant broken: Betti numbers disagree with the Euler characteristic"
        )
    return HomologyProfile.make(betti, torsion)


def chain_count(p: FinitePoset) -> int:
    """Number of nonempty chains of p, i.e. simplices of its order complex.

    Exact up to MAX_CHAINS; past it, counting stops and some larger number
    is returned.  The chains topped by x number 1 + the sum over y < x of
    those topped by y, filled in along a linear extension: sorting by
    down-set size is one, since y < x has the smaller down-set.
    """
    strict = p.closure_matrix() & ~np.eye(len(p), dtype=bool)
    ending = np.zeros(len(p), dtype=np.int64)
    total = 0
    for x in np.argsort(strict.sum(axis=0), kind="stable").tolist():
        ending[x] = 1 + ending[strict[:, x]].sum()
        total += int(ending[x])
        if total > MAX_CHAINS:
            break
    return total


@lru_cache(maxsize=8192)
def poset_homology(p: FinitePoset) -> HomologyProfile:
    """Homology of the order complex of p (the computable shadow of its weak
    homotopy type).

    Raises SizeLimitExceeded, before enumerating anything, when the order
    complex has more than MAX_CHAINS simplices.
    """
    require_nonempty(p)
    if chain_count(p) > MAX_CHAINS:
        raise SizeLimitExceeded(
            f"order complex has more than {MAX_CHAINS} simplices; "
            "dense homology cannot finish at that size"
        )
    return homology_profile(order_complex(p))
