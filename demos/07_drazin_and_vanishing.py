"""Drazin inverses of endofunctions and inversion by forward applications.

Iterating a finite endofunction shrinks its image onto a cyclic core; the
Drazin inverse runs the core permutation backwards. Over a prime field
every operator, linear or not, has a vanishing polynomial, which turns
inversion into a linear combination of forward applications.
"""

import numpy as np

from geninv import (FiniteOperator, compose, image_chain, drazin_inverse,
                    drazin_loop_formula, left_drazin_inverse,
                    FpVectorOperator, find_vanishing_poly, minimal_poly,
                    poly_left_inverse, left_drazin_from_poly,
                    companion_embedding_check, cayley_hamilton_inverse,
                    fp_invert, OperatorPolynomial)

T = FiniteOperator(6, 6, (1, 2, 1, 2, 0, 3))
chain = image_chain(T)
print("image chain of", T.table.tolist(), ":", [[int(i) for i in s] for s in chain.sets])
res = drazin_inverse(T)
print("Drazin inverse:", res.inverse.table.tolist(), " index:", res.index)
print("commutation T G = G T:",
      compose(T, res.inverse) == compose(res.inverse, T))

E = FiniteOperator(4, 4, (0, 0, 2, 2))
print("\nidempotent operators satisfy T^2 = T, so the loop formula gives")
print("  Drazin inverse = T itself:", drazin_loop_formula(E, 2, 1) == E)

shrink = FiniteOperator(4, 4, (0, 0, 1, 2))
print("\na collapsing shift has Drazin inverse 0 (the nilpotent case):",
      drazin_inverse(shrink).inverse.table.tolist())
ld = left_drazin_inverse(shrink)
print("its left-Drazin inverse is freer: parameter m=%d, table %s"
      % (ld.parameter, ld.inverse.table.tolist()))

print("\n-- vanishing polynomials over F_p --")
rng = np.random.default_rng(5)
Top = FpVectorOperator(3, 2, rng.integers(0, 9, size=9))
q = find_vanishing_poly(Top)
pm = minimal_poly(Top)
print("random operator on F_3^2: vanishing coeffs", q.coeffs.tolist(),
      " minimal", pm.coeffs.tolist(), " divides:", pm.divides(q))
print("companion embedding holds:", companion_embedding_check(Top, pm).ok)

A = np.array([[1, 1], [0, 1]])
Tlin = FpVectorOperator.from_matrix(A, 5)
p = OperatorPolynomial([1, -2, 1], 5)            # (x-1)^2 vanishes in A
S = poly_left_inverse(p, Tlin)
print("\nmatrix [[1,1],[0,1]] over F_5: polynomial left inverse equals"
      " Gaussian inverse:", S == FpVectorOperator.from_matrix(fp_invert(A, 5), 5))
print("Cayley-Hamilton inverse of A:", cayley_hamilton_inverse(A, 5).tolist())

G, m = left_drazin_from_poly(minimal_poly(Top), Top)
print("\nleft-Drazin from the minimal polynomial: parameter", m,
      " identity G T^%d = T^%d holds exhaustively" % (m + 1, m))
