"""{1,2}-inverses of maps between plain finite sets.

No norms here: the two degrees of freedom are which source to pick for
each image element and where to retract the rest of the codomain. The
enumeration counts every inverse; the double-inverse construction lands
exactly back on the original map.
"""

import numpy as np

from geninv import (FiniteOperator, OneTwoInverseSpec, build_one_two_inverse,
                    double_inverse, check_mp_axioms,
                    enumerate_one_two_inverses, one_two_inverse_count, compose)

T = FiniteOperator(3, 2, (1, 1, 0))
print("T: {0,1,2} -> {0,1} with table", T.table.tolist())

spec = OneTwoInverseSpec(v0=(0, 2), p0=(0, 1))
G = build_one_two_inverse(T, spec)
print("sources {0,2} + identity retraction give the inverse table", G.table.tolist())
print("MP1 (TGT=T) and MP2 (GTG=G):", check_mp_axioms(T, G))
print("double inverse returns T exactly:", double_inverse(T, G) == T)

found = enumerate_one_two_inverses(T)
print("\nall {1,2}-inverses of T:", [tuple(int(x) for x in r) for r in found],
      "-- count formula gives", one_two_inverse_count(T))

E = FiniteOperator(4, 4, (0, 0, 2, 2))
print("\nan idempotent operator is always one of its own {1,2}-inverses:")
print("  E =", E.table.tolist(), "E in E{1,2}:", check_mp_axioms(E, E))
print("  but with image size > 1 it is not the only one:",
      len(enumerate_one_two_inverses(E)), "inverses exist")

rng = np.random.default_rng(0)
T = FiniteOperator(6, 4, rng.integers(0, 4, size=6))
G = build_one_two_inverse(T)
TG, GT = compose(T, G), compose(G, T)
print("\nfor a random map, T G and G T are generalized projections:")
print("  (TG)^2 = TG:", compose(TG, TG) == TG, "  (GT)^2 = GT:",
      compose(GT, GT) == GT)
