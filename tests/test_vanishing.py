import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geninv import (OperatorPolynomial, FiniteOperator, power, image_chain,
                    FpVectorOperator, poly_vanishes,
                    stabilization_profile, find_vanishing_poly, minimal_poly,
                    poly_left_inverse, left_drazin_from_poly, reciprocal_poly,
                    power_vanishing_poly, affine_vanishing_poly,
                    product_operator_fp, product_vanishing_poly,
                    companion_matrix, companion_embedding_check,
                    eigen_root_check, cayley_hamilton_inverse,
                    fp_invert, fp_matmul)
from geninv import vanishing
from geninv.vanishing import encode

from helpers import (companion_blocks_loop, power_vanishing_poly_loop,
                     product_operator_fp_digits, run_optimized, traced_peak)


def random_fp_operator(rng, p, n):
    return FpVectorOperator(p, n, rng.integers(0, p ** n, size=p ** n))


SWAP = FpVectorOperator(2, 1, [1, 0])
IDEM_F3 = FpVectorOperator(3, 1, [0, 1, 1])      # 0->0, 1->1, 2->1


@pytest.mark.parametrize("p, n", [(2, 17), (4, 2), (2, -1)])
def test_from_callable_checks_the_space_before_calling_f(p, n):
    called = []
    with pytest.raises(ValueError):
        FpVectorOperator.from_callable(p, n, lambda V: called.append(V.shape) or V)
    assert called == []
    with pytest.raises(ValueError):
        FpVectorOperator(p, n, [])


def test_the_shared_digit_table_is_read_only():
    space = FpVectorOperator.identity(2, 3).space()
    with pytest.raises(ValueError, match="read-only"):
        space[0, 0] = 1

    def writes_into_its_argument(V):
        V[:, 0] = 1
        return V
    with pytest.raises(ValueError, match="read-only"):
        FpVectorOperator.from_callable(2, 3, writes_into_its_argument)
    assert FpVectorOperator.identity(2, 3).space()[0].tolist() == [0, 0, 0]
    assert np.array_equal(encode(FpVectorOperator.identity(2, 3).space(), 2), np.arange(8))


@pytest.mark.parametrize("A, b", [
    pytest.param(np.eye(2, dtype=int), [1], id="b-too-short"),
    pytest.param(np.eye(2, dtype=int), [1, 2, 0], id="b-too-long"),
    pytest.param(np.eye(2, dtype=int), [[1, 2]], id="b-a-matrix"),
    pytest.param([[1, 0, 0], [0, 1, 0]], None, id="A-not-square"),
    pytest.param([1, 0], None, id="A-a-vector"),
    pytest.param(3, None, id="A-a-scalar")])
def test_from_matrix_refuses_shapes_other_than_n_by_n_and_n(A, b):
    with pytest.raises(ValueError, match="n x n matrix A and n offsets b"):
        FpVectorOperator.from_matrix(A, 3, b=b)


@pytest.mark.parametrize("f", [
    pytest.param(lambda V: V[:, :1], id="too-few-columns"),
    pytest.param(lambda V: V[:-1], id="too-few-rows"),
    pytest.param(lambda V: V.T, id="transposed"),
    pytest.param(lambda V: V.ravel(), id="flat")])
def test_from_callable_refuses_an_output_that_is_not_p_to_the_n_by_n(f):
    with pytest.raises(ValueError, match="f must return a 9 x 2 array"):
        FpVectorOperator.from_callable(3, 2, f)


def test_cayley_hamilton_certificate_fires_on_a_corrupted_horner_evaluation(monkeypatch):
    A = np.array([[2, 1], [1, 1]])
    assert np.array_equal(cayley_hamilton_inverse(A, 7), fp_invert(A, 7))
    horner = vanishing._fp_matrix_poly
    monkeypatch.setattr(vanishing, "_fp_matrix_poly",
                        lambda coeffs, A, p: (horner(coeffs, A, p) + np.eye(len(A), dtype=int)) % p)
    with pytest.raises(AssertionError, match="certificate"):
        cayley_hamilton_inverse(A, 7)


def test_find_vanishing_idempotent_divisible_by_x2_minus_x():
    q = find_vanishing_poly(IDEM_F3)
    x2x = OperatorPolynomial([0, -1, 1], 3)
    assert poly_vanishes(q, IDEM_F3)
    assert x2x.divides(q)


def test_find_vanishing_swap():
    q = find_vanishing_poly(SWAP)
    assert poly_vanishes(q, SWAP)
    x2p1 = OperatorPolynomial([1, 0, 1], 2)
    assert poly_vanishes(x2p1, SWAP)
    assert minimal_poly(SWAP) == x2p1


def test_find_vanishing_nilpotent_shift():
    A = np.array([[0, 0], [1, 0]])
    T = FpVectorOperator.from_matrix(A, 2)
    assert minimal_poly(T) == OperatorPolynomial([0, 0, 1], 2)    # x^2
    q = find_vanishing_poly(T)
    assert poly_vanishes(q, T)


def test_find_vanishing_respects_supplied_l():
    rng = np.random.default_rng(0)
    T = random_fp_operator(rng, 2, 3)
    l0, m = stabilization_profile(T)
    assert l0 > 0
    q = find_vanishing_poly(T, l=l0 + 2)
    assert poly_vanishes(q, T)
    with pytest.raises(ValueError):
        find_vanishing_poly(T, l=0)


def test_vanishing_degree_bound_and_divisibility_random():
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4 if p == 3 else 5))
        T = random_fp_operator(rng, p, n)
        l, m = stabilization_profile(T)
        q = find_vanishing_poly(T)
        assert poly_vanishes(q, T)
        assert q.degree <= m * m + l
        pm = minimal_poly(T)
        assert pm.divides(q)


def test_minimal_poly_identity():
    I5 = FpVectorOperator.identity(5, 1)
    assert minimal_poly(I5) == OperatorPolynomial([-1, 1], 5)     # x - 1


def test_minimal_poly_is_minimal_swap():
    # degree-1 candidates all fail: c x + d with (c T + d)(v) = 0 for all v
    for c in range(2):
        for d in range(2):
            if (c, d) == (0, 0):
                continue
            cand = OperatorPolynomial([d, c], 2)
            assert not poly_vanishes(cand, SWAP)
    assert minimal_poly(SWAP).degree == 2


def test_minimal_poly_idempotent():
    assert minimal_poly(IDEM_F3) == OperatorPolynomial([0, -1, 1], 3)


def test_poly_left_inverse_identity():
    I = FpVectorOperator.identity(3, 1)
    S = poly_left_inverse(OperatorPolynomial([-1, 1], 3), I)
    assert S == I


def test_poly_left_inverse_matrix_example():
    A = np.array([[1, 1], [0, 1]])
    T = FpVectorOperator.from_matrix(A, 5)
    p = OperatorPolynomial([1, -2, 1], 5)         # x^2 - 2x + 1
    assert poly_vanishes(p, T)
    S = poly_left_inverse(p, T)
    expected = FpVectorOperator.from_matrix(np.array([[1, 4], [0, 1]]), 5)
    assert S == expected
    assert S.compose(T) == FpVectorOperator.identity(5, 2)


def test_poly_left_inverse_not_applicable():
    T = FpVectorOperator.from_matrix(np.array([[0, 0], [1, 0]]), 2)
    assert poly_left_inverse(minimal_poly(T), T) is None          # a0 = 0


def test_poly_left_inverse_random_invertible():
    rng = np.random.default_rng(2)
    for p, n in ((2, 3), (3, 2), (5, 2)):
        for _ in range(10):
            A = rng.integers(0, p, size=(n, n))
            if fp_invert(A, p) is None:
                continue
            T = FpVectorOperator.from_matrix(A, p)
            pm = minimal_poly(T)
            S = poly_left_inverse(pm, T)
            assert S is not None
            assert S.compose(T) == FpVectorOperator.identity(p, n)
            assert T.compose(S) == FpVectorOperator.identity(p, n)
            assert S == FpVectorOperator.from_matrix(fp_invert(A, p), p)


def test_left_drazin_from_poly_idempotent():
    p = OperatorPolynomial([0, -1, 1], 3)
    G, m = left_drazin_from_poly(p, IDEM_F3)
    assert m == 1
    assert G == FpVectorOperator.identity(3, 1)
    assert G.compose(IDEM_F3.power(2)) == IDEM_F3


def test_left_drazin_from_poly_invertible():
    T = FpVectorOperator.from_matrix(np.array([[1, 1], [0, 1]]), 5)
    p = minimal_poly(T)
    assert p.coeff(0) != 0
    G, m = left_drazin_from_poly(p, T)
    assert m == 1
    assert G.compose(T.power(2)) == T
    assert G == poly_left_inverse(p, T)


def test_left_drazin_from_poly_nilpotent_zero_operator():
    T = FpVectorOperator.from_matrix(np.array([[0, 0], [1, 0]]), 3)
    p = minimal_poly(T)                            # x^2
    G, m = left_drazin_from_poly(p, T)
    assert G == FpVectorOperator.zero(3, 2)
    assert m == p.degree == 2
    assert G.compose(T.power(3)) == T.power(2)


def test_left_drazin_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p_field = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        T = random_fp_operator(rng, p_field, n)
        q = find_vanishing_poly(T)
        G, m = left_drazin_from_poly(q, T)
        assert G.compose(T.power(m + 1)) == T.power(m)


def test_reciprocal_poly_examples():
    p = OperatorPolynomial([-1, 1], 7)             # x - 1
    assert reciprocal_poly(p) == OperatorPolynomial([1, -1], 7)
    q = OperatorPolynomial([1, -2, 1], 5)
    assert reciprocal_poly(q) == q                 # palindromic
    s = OperatorPolynomial([1, 0, 1], 2)
    assert reciprocal_poly(s) == s
    assert poly_vanishes(s, SWAP)                  # swap is its own inverse


def test_reciprocal_transports_minimal_poly():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.integers(0, 5, size=(2, 2))
        if fp_invert(A, 5) is None:
            continue
        T = FpVectorOperator.from_matrix(A, 5)
        Tinv = FpVectorOperator.from_matrix(fp_invert(A, 5), 5)
        pm = minimal_poly(T)
        transported = reciprocal_poly(pm).scale(pow(int(pm.coeff(0)), -1, 5)).monic()
        assert poly_vanishes(reciprocal_poly(pm), Tinv)
        assert transported == minimal_poly(Tinv)


def test_power_vanishing_poly_trivial():
    p = minimal_poly(IDEM_F3)
    q = power_vanishing_poly(p, 1, 1)
    assert poly_vanishes(q, IDEM_F3)


def test_power_vanishing_poly_idempotent_square():
    p = OperatorPolynomial([0, -1, 1], 3)
    q = power_vanishing_poly(p, 2, 1)              # T1 = T^2 = T
    assert q.degree <= p.degree * 1
    assert poly_vanishes(q, IDEM_F3)


def test_power_vanishing_poly_square_root_of_identity():
    p = OperatorPolynomial([1, 0, 1], 2)           # vanishes in swap, swap^2 = I
    q = power_vanishing_poly(p, 2, 2)              # any T1 with T1^2 = I
    assert q.degree <= 4
    assert poly_vanishes(q, SWAP)
    reflect = FpVectorOperator(2, 2, encode((np.array(
        [[0, 0], [0, 1], [1, 0], [1, 1]])[:, ::-1]), 2))
    assert reflect.power(2) == FpVectorOperator.identity(2, 2)
    assert poly_vanishes(q, reflect)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 31]), st.integers(1, 12), st.integers(0, 9),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_power_vanishing_poly_matches_one_division_per_power(p, m, k, l, seed):
    coeffs = np.random.default_rng(seed).integers(0, p, size=m + 1)
    coeffs[-1] = coeffs[-1] or 1
    poly = OperatorPolynomial(coeffs, p)
    assert power_vanishing_poly(poly, k, l) == power_vanishing_poly_loop(poly, k, l)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_product_operator_fp_matches_the_digit_table(p, dims, seed):
    rng = np.random.default_rng(seed)
    while p ** sum(dims) > 4096:
        dims = dims[:-1] or [0]
    parts = [random_fp_operator(rng, p, n) for n in dims]      # n = 0 included
    assert product_operator_fp(parts) == product_operator_fp_digits(parts)


def test_affine_vanishing_identity_plus_shift():
    p = OperatorPolynomial([-1, 1], 3)             # x - 1 vanishes in A = I
    q = affine_vanishing_poly(p, np.eye(2, dtype=int), 3)
    assert q == p.mul(p)                           # p(1) = 0
    for b in ([1, 0], [2, 2]):
        T = FpVectorOperator.from_matrix(np.eye(2, dtype=int), 3, b=b)
        assert poly_vanishes(q, T)


def test_affine_vanishing_nilpotent():
    A = np.array([[0, 0], [1, 0]])
    p = OperatorPolynomial([0, 0, 1], 3)           # x^2
    q = affine_vanishing_poly(p, A, 3)
    assert q == OperatorPolynomial([0, 0, -1, 0, 1], 3)      # x^4 - x^2
    for b in ([0, 1], [2, 1]):
        T = FpVectorOperator.from_matrix(A, 3, b=b)
        assert poly_vanishes(q, T)


def test_affine_vanishing_rejects_other_field():
    with pytest.raises(ValueError):
        affine_vanishing_poly(OperatorPolynomial([0, 1], 5), np.zeros((2, 2), int), 7)


def test_affine_vanishing_rejects_nonvanishing():
    with pytest.raises(ValueError):
        affine_vanishing_poly(OperatorPolynomial([0, 0, 1], 3),
                              np.eye(2, dtype=int), 3)


def test_product_vanishing_single_and_pairs():
    x2x_f2 = OperatorPolynomial([0, 1, 1], 2)
    idem_f2 = FpVectorOperator(2, 1, [0, 1])       # identity is idempotent
    proj = FpVectorOperator.from_matrix(np.diag([1, 0]), 2)   # keep first coord
    assert poly_vanishes(x2x_f2, proj)
    single = product_vanishing_poly([(x2x_f2, proj)])
    assert single == x2x_f2
    two = product_vanishing_poly([(x2x_f2, proj), (x2x_f2, idem_f2)])
    assert two == x2x_f2.mul(x2x_f2)
    assert poly_vanishes(two, product_operator_fp([proj, idem_f2]))
    x2p1 = OperatorPolynomial([1, 0, 1], 2)
    mixed = product_vanishing_poly([(x2x_f2, proj), (x2p1, SWAP)])
    assert mixed == x2x_f2.mul(x2p1)
    assert poly_vanishes(mixed, product_operator_fp([proj, SWAP]))


def test_product_operator_needs_a_factor():
    with pytest.raises(ValueError):
        product_operator_fp([])


def test_companion_degree_one_zero_operator():
    Z = FpVectorOperator.zero(3, 1)
    q = OperatorPolynomial([0, 1], 3)
    assert companion_embedding_check(Z, q).ok
    C = companion_matrix(q)
    assert C.shape == (1, 1) and C[0, 0] == 0


def test_companion_idempotent():
    q = OperatorPolynomial([0, -1, 1], 3)
    assert companion_embedding_check(IDEM_F3, q).ok
    assert np.array_equal(companion_matrix(q), np.array([[0, 0], [1, 1]]))


def test_companion_holds_for_minimal_polys():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        T = random_fp_operator(rng, p, n)
        assert companion_embedding_check(T, minimal_poly(T)).ok


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                        (7, 1), (7, 2)]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_companion_check_matches_the_block_loop(space, seed, permutation, perturb):
    rng = np.random.default_rng(seed)
    p, n = space
    T = FpVectorOperator(p, n, rng.permutation(p ** n) if permutation
                         else rng.integers(0, p ** n, p ** n))
    q = minimal_poly(T)
    if perturb:     # a lower coefficient: q + c x^j vanishes only if x^j, of lower degree, does
        coeffs = q.coeffs.copy()
        coeffs[rng.integers(q.degree)] += rng.integers(1, p)
        q = OperatorPolynomial(coeffs, p)
    rep = companion_embedding_check(T, q)
    assert (rep.ok, rep.violations) == companion_blocks_loop(T, companion_matrix(q))
    assert rep.ok != perturb


@pytest.mark.parametrize("q", [OperatorPolynomial([], 3), OperatorPolynomial([0, -2, 2], 3),
                               OperatorPolynomial([0, -1, 1], 5),
                               OperatorPolynomial([0.0, -1.0, 1.0])])
def test_companion_check_rejects_a_zero_non_monic_or_foreign_polynomial(q):
    # IDEM_F3 has minimal polynomial x^2 - x; each q here is a multiple or a
    # copy of it that is not a monic polynomial over F_3
    with pytest.raises(ValueError):
        companion_embedding_check(IDEM_F3, q)


def test_companion_check_stores_no_iterates():
    # neither the d+1 iterates of every vector ((d+1) p^n n int64, 1.6 GB
    # at d = 4034) nor the companion matrix (d^2 int64, 130 MB): one evaluation of q
    rng = np.random.default_rng(10)
    T = FpVectorOperator(2, 12, rng.permutation(2 ** 12))
    pm = minimal_poly(T)
    rep, peak = traced_peak(lambda: companion_embedding_check(T, pm))
    assert rep.ok and peak < 4 * 2 ** 20


def test_each_answer_evaluates_one_polynomial(monkeypatch):
    calls = []
    apply = vanishing.fp_apply_polynomial
    monkeypatch.setattr(vanishing, "fp_apply_polynomial",
                        lambda poly, T: calls.append(poly) or apply(poly, T))
    invertible = FpVectorOperator.from_matrix(np.array([[1, 1], [0, 1]]), 5)
    nilpotent = FpVectorOperator.from_matrix(np.array([[0, 0], [1, 0]]), 3)
    for T in (invertible, nilpotent):
        calls.clear()
        pm = minimal_poly(T)
        assert len(calls) == 1
        for answer, expected in ((lambda: left_drazin_from_poly(pm, T), 1),
                                 (lambda: poly_left_inverse(pm, T), 1),
                                 (lambda: companion_embedding_check(T, pm), 1)):
            calls.clear()
            answer()
            assert len(calls) == expected


def test_eigen_root_idempotent_fixed_point():
    rep = eigen_root_check(IDEM_F3, OperatorPolynomial([0, -1, 1], 3))
    assert rep.fixed_points > 0 and rep.p_at_1 == 0 and rep.ok


def test_eigen_root_indicator_operator():
    # T(v) = v when v is in A, else 0: both roots of x^2 - x show up
    table = np.array([0, 1, 0])                    # A = {1} inside F_3
    T = FpVectorOperator(3, 1, table)
    rep = eigen_root_check(T, minimal_poly(T))
    assert rep.homogeneous and not rep.one_homogeneous
    assert rep.fixed_points > 0 and rep.kernel_vectors > 0
    assert rep.p_at_1 == 0 and rep.p_at_0 == 0 and rep.ok


def test_eigen_root_vacuous_pass():
    T = FpVectorOperator.from_callable(3, 1, lambda V: (V + 1) % 3)   # no fixed points
    rep = eigen_root_check(T, minimal_poly(T))
    assert rep.fixed_points == 0 and rep.ok


def test_set_level_loop_for_plain_operators():
    import math
    rng = np.random.default_rng(6)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 8))
        T = FiniteOperator(n, n, rng.integers(0, n, size=n))
        chain = image_chain(T)
        m = len(chain.sets[-1])
        l = chain.stabilization_step
        if m > 6:
            continue
        done += 1
        assert power(T, math.factorial(m) + l) == power(T, l)


def test_partition_loop_minimal_divides_xm_minus_xk():
    # T^3 = T exactly: the minimal polynomial divides x^3 - x
    T = FpVectorOperator(2, 2, encode(np.array(
        [[1, 0], [0, 0], [1, 1], [0, 1]]), 2))
    assert T.power(3) == T.power(1)
    pm = minimal_poly(T)
    loop = OperatorPolynomial([0, -1, 0, 1], 2)    # x^3 - x
    assert pm.divides(loop)
    q = find_vanishing_poly(T)
    assert pm.divides(q)


def test_surjective_minimal_poly_nonzero_constant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        perm = rng.permutation(p ** n)
        T = FpVectorOperator(p, n, perm)           # bijective, hence surjective
        assert minimal_poly(T).coeff(0) != 0


def test_cayley_hamilton_inversion_matches_gauss():
    rng = np.random.default_rng(8)
    for p in (2, 3, 5, 7):
        done = 0
        while done < 50:
            n = int(rng.integers(1, 6))
            A = rng.integers(0, p, size=(n, n))
            gauss = fp_invert(A, p)
            ch = cayley_hamilton_inverse(A, p)
            if gauss is None:
                assert ch is None
                continue
            done += 1
            assert np.array_equal(ch, gauss)
            assert np.array_equal(fp_matmul(A, ch, p), np.eye(n, dtype=int))


def test_minimal_poly_brute_force_minimality():
    # independent oracle: no nonzero polynomial of any smaller degree
    # vanishes, checked by trying every coefficient vector
    import itertools
    rng = np.random.default_rng(9)
    for _ in range(12):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 3))
        T = random_fp_operator(rng, p, n)
        pm = minimal_poly(T)
        for d in range(pm.degree):
            for coeffs in itertools.product(range(p), repeat=d + 1):
                cand = OperatorPolynomial(coeffs, p)
                if not cand.is_zero:
                    assert not poly_vanishes(cand, T)


# ---------------------------------------------------------------------------
# one-homogeneity from one generator of F_p^* against the per-scalar loop
# ---------------------------------------------------------------------------

def equivariant_table(rng, p, n, scalars):
    """A map with T(0) = 0 and T(a v) = a T(v) for a in `scalars`, drawn
    one orbit of nonzero vectors at a time."""
    vecs = FpVectorOperator(p, n, np.zeros(p ** n, dtype=np.int64)).space()
    table = np.full(p ** n, -1, dtype=np.int64)
    table[0] = 0
    for i in range(1, p ** n):
        if table[i] < 0:
            target = vecs[rng.integers(p ** n)]
            for a in scalars:
                table[encode(vecs[i] * a % p, p)[0]] = encode(target * a % p, p)[0]
    return np.where(table < 0, rng.integers(0, p ** n, size=p ** n), table)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_eigen_root_one_homogeneity_matches_per_scalar_loop(p):
    from helpers import one_homogeneous_loop
    rng = np.random.default_rng(p)
    n_max = max(n for n in range(1, 8) if p ** n <= 150)
    seen = set()
    for trial in range(40):
        n = int(rng.integers(1, n_max + 1))
        shape = trial % 4
        if shape == 0:        # linear, so homogeneous of every degree
            A = rng.integers(0, p, size=(n, n))
            vecs = FpVectorOperator(p, n, np.zeros(p ** n, dtype=np.int64)).space()
            table = encode(vecs @ A.T % p, p)
        elif shape == 1:      # equivariant under all of F_p^*, not linear
            table = equivariant_table(rng, p, n, range(1, p))
        elif shape == 2:      # odd only: equivariant under -1
            table = equivariant_table(rng, p, n, sorted({1, p - 1}))
        else:                 # a random map, fixing 0 on odd trials
            table = rng.integers(0, p ** n, size=p ** n)
            table[0] = table[0] * (trial // 4 % 2)
        if trial % 5 == 4:    # one entry moved
            table = table.copy()
            table[rng.integers(1, p ** n)] = rng.integers(0, p ** n)
        T = FpVectorOperator(p, n, table)
        rep = eigen_root_check(T, find_vanishing_poly(T))
        assert rep.one_homogeneous == one_homogeneous_loop(T)
        seen.add(rep.one_homogeneous)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the minimal polynomial read off the functional graph, against the reducer
# ---------------------------------------------------------------------------

SPACES = [(p, n) for p, top in ((2, 9), (3, 6), (5, 4)) for n in range(1, top + 1)]


def relabeled(t, rng):
    perm = rng.permutation(len(t))
    out = np.empty(len(t), dtype=np.int64)
    out[perm] = perm[np.asarray(t)]
    return out


@st.composite
def random_maps(draw):
    p, n = draw(st.sampled_from(SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return FpVectorOperator(p, n, rng.integers(0, p ** n, size=p ** n))


@st.composite
def sparse_image_maps(draw):
    """Every vector maps into a few chains, so tails are deep: the image
    holds at most 24 vectors, among them a path of `height` steps into a
    short cycle."""
    p, n = draw(st.sampled_from(SPACES))
    size = p ** n
    height = draw(st.integers(0, min(size, 24) - 1))
    cycle = draw(st.integers(1, min(size, 24) - height))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = height + cycle
    t = rng.integers(0, k, size)                          # the rest hang on these k
    t[:height] = np.arange(1, height + 1)                 # a path of `height` steps
    t[height:k] = height + np.arange(1, cycle + 1) % cycle    # into a cycle
    return FpVectorOperator(p, n, relabeled(t, rng))


@st.composite
def cycle_type_permutations(draw):
    """Permutations with a drawn cycle type: a few distinct lengths, each
    repeated, the rest fixed points; labels drawn at random."""
    p, n = draw(st.sampled_from(SPACES))
    size = p ** n
    lengths = []
    for c in draw(st.lists(st.integers(2, 24), max_size=4, unique=True)):
        lengths += [c] * draw(st.integers(1, 3))
    while sum(lengths) > size:
        lengths.pop()
    lengths += [1] * (size - sum(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.permutation(size)
    t = np.empty(size, dtype=np.int64)
    start = 0
    for c in lengths:
        cycle = labels[start:start + c]
        t[cycle] = np.roll(cycle, -1)
        start += c
    return FpVectorOperator(p, n, t)


@st.composite
def affine_maps(draw):
    """v -> A v + b: periodic digit sequences with structure (geometric
    ones, for a start), which random maps seldom give."""
    p, n = draw(st.sampled_from(SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.integers(0, p, n) if draw(st.booleans()) else None
    return FpVectorOperator.from_matrix(rng.integers(0, p, (n, n)), p, b)


@settings(max_examples=160)
@given(st.one_of(random_maps(), sparse_image_maps(), cycle_type_permutations(),
                 affine_maps()))
def test_minimal_poly_matches_reducer(T):
    from helpers import minimal_poly_reducer
    assert list(minimal_poly(T).coeffs) == minimal_poly_reducer(T)


@example(24)             # the seed at which the forward digit order fails at F_5^2
@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_minimal_poly_matches_reducer_f5_squared(seed):
    from helpers import minimal_poly_reducer
    rng = np.random.default_rng(seed)
    T = FpVectorOperator(5, 2, rng.integers(0, 25, size=25))
    assert list(minimal_poly(T).coeffs) == minimal_poly_reducer(T)


def test_minimal_poly_random_permutation_f2_12():
    # correctness only; the reducer would take hours at this size
    rng = np.random.default_rng(12)
    T = FpVectorOperator(2, 12, rng.permutation(2 ** 12))
    pm = minimal_poly(T)
    q = find_vanishing_poly(T)
    assert pm.coeffs[-1] == 1 and pm.divides(q)
    assert poly_vanishes(pm, T) and poly_vanishes(q, T)


def test_cayley_hamilton_inverse_numpy_integer_prime():
    A = np.array([[1, 2], [3, 4]])
    for p in (np.int64(5), np.int32(7), np.uint16(65521)):
        assert np.array_equal(cayley_hamilton_inverse(A, p), fp_invert(A, int(p)))
    assert cayley_hamilton_inverse(np.array([[1, 2], [2, 4]]), np.int64(5)) is None


def test_certificates_survive_optimize_flag():
    # a failing certificate raises AssertionError under python -O too
    code = (
        "import numpy as np\n"
        "import geninv.vanishing as v\n"
        "T = v.FpVectorOperator(2, 1, [1, 0])\n"
        "v.fp_apply_polynomial = lambda q, T: np.ones((T.size, T.n), dtype=np.int64)\n"
        "for f in (v.find_vanishing_poly, v.minimal_poly):\n"
        "    try:\n"
        "        f(T)\n"
        "    except AssertionError:\n"
        "        print('raised')\n")
    out = run_optimized(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "raised"]
