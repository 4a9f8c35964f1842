"""Exact integral homology via Smith normal form.

Homology-profile equality is the currency every checker settles in: two
finite spaces with different profiles cannot be weak equivalent.  Integer
coefficients keep torsion visible, as the projective plane shows.
"""

from finhtop.homology import (
    boundary_matrices,
    euler_characteristic,
    homology_profile,
    smith_normal_form,
)
from finhtop.simplicial import barycentric, new_complex

# Invariant factors of small matrices.
print("snf [[2]]          =", smith_normal_form([[2]]))
print("snf [[1,1],[1,1]]  =", smith_normal_form([[1, 1], [1, 1]]))
print("snf of a zero 3x2  =", smith_normal_form([[0, 0], [0, 0], [0, 0]]))

# Boundary operator of a single edge.
edge = new_complex(["1", "2"], [["1", "2"]])
(d1,) = boundary_matrices(edge)
print("\nboundary of an edge:", d1.tolist())

# The 6-vertex triangulation of the projective plane carries Z/2 torsion.
rp2 = new_complex(
    [str(i) for i in range(6)],
    [
        [str(a), str(b), str(c)]
        for (a, b, c) in [
            (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
        ]
    ],
)
print("\nprojective plane:")
print(homology_profile(rp2).describe())
print("euler characteristic:", euler_characteristic(rp2))

# Barycentric subdivision changes the triangulation but nothing homological.
sd = barycentric(rp2)
print("\nsubdivided:", len(sd.vertices), "vertices,",
      sum(len(b) for b in sd.simplices_by_dim()), "simplices")
print(homology_profile(sd).describe())
print("euler characteristic:", euler_characteristic(sd))
