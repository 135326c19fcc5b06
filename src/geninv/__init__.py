"""Generalized inverses of nonlinear operators.

Set-level {1,2}-inverses, best-approximate-solution pseudo-inverses on
normed spaces with closed forms and grid oracles, Drazin and left-Drazin
inverses of finite endofunctions, and vanishing-polynomial machinery for
inversion by forward applications only.
"""

from .core_ops import (FiniteOperator, VectorOperator, OperatorPolynomial,
                       compose, power, image, apply_polynomial,
                       DimensionMismatch)
from .numerics import (svd, mp_inverse, mp_residuals, SvdFactors,
                       fp_rref, fp_rank, fp_solve_kernel, fp_invert,
                       fp_matmul, fp_char_poly)
from .set_inverse import (OneTwoInverseSpec, InvalidSpec, default_spec,
                          build_one_two_inverse, double_inverse,
                          check_mp_axioms, enumerate_one_two_inverses,
                          one_two_inverse_count)
from .pseudo_inverse import (Scalar1DOperator, Pinv1D, closed_form_pinv,
                             pinv_table, pinv1d_operator, GridOracle, grid_bas_oracle,
                             check_pseudo_inverse, expanding_domain_pinv,
                             finite_bas_set, PseudoInverseReport)
from .structured_inverse import (Box, L2Ball, Halfspace, Intersection,
                                 ConvexSet, project, cascade_pinv,
                                 product_operator, product_inverse,
                                 sandwich_inverse, affine_pinv,
                                 projection_after_operator_pinv)
from .applied import (LeastNormQP, QPResult, solve_least_norm_qp,
                      NeuralLayer, tanh_layer_pinv, clipped_tanh_layer_pinv,
                      relu_layer_pinv, WaveletBasis, haar_basis,
                      wavelet_threshold_roundtrip)
from .endofunction import (ImageChain, image_chain, DrazinResult,
                           drazin_inverse, drazin_loop_formula,
                           LeftDrazinResult, left_drazin_inverse,
                           exhaustive_drazin_search)
from .vanishing import (FpVectorOperator, fp_apply_polynomial, poly_vanishes,
                        stabilization_profile, find_vanishing_poly,
                        minimal_poly, poly_left_inverse, left_drazin_from_poly,
                        reciprocal_poly, power_vanishing_poly,
                        affine_vanishing_poly, product_operator_fp,
                        product_vanishing_poly, companion_matrix,
                        companion_embedding_check, eigen_root_check,
                        cayley_hamilton_inverse)

__version__ = "0.1.0"
