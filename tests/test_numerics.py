import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geninv import (svd, mp_inverse, mp_residuals, fp_rank, fp_rref,
                    fp_solve_kernel, fp_invert, fp_matmul, fp_char_poly,
                    cayley_hamilton_inverse)
from geninv.numerics import (matrix_from_json, matrix_to_json, fp_matrix_from_json,
                             fp_check, is_prime)

from helpers import (fp_rref_object, fp_kernel_object, fp_invert_object,
                     fp_char_poly_cofactor, fp_matmul_object, is_prime_trial_division)

P31 = 2**31 - 1
PRIMES = [2, 3, 65521, P31]


def test_svd_identity():
    f = svd(np.eye(3))
    assert np.allclose(f.S, [1, 1, 1])


def test_svd_diagonal():
    f = svd(np.diag([3.0, 0.0]))
    assert np.allclose(f.S, [3.0, 0.0])


def test_svd_rank_one():
    # eigenvalues of A^T A are 2 and 0, so singular values are sqrt(2), 0
    f = svd(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(f.S, [np.sqrt(2.0), 0.0])


def test_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
        f = svd(A)
        assert np.linalg.norm(f.reconstruct() - A) <= 1e-10 * (1 + np.linalg.norm(A))
        assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_mp_inverse_idempotent_example():
    E = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.abs(mp_inverse(E) - np.array([[0.0, 0.5], [0.0, 0.5]])).max() <= 1e-12


def test_mp_inverse_identity_and_zero():
    assert np.allclose(mp_inverse(np.eye(4)), np.eye(4), atol=1e-12)
    assert np.allclose(mp_inverse(np.zeros((3, 5))), np.zeros((5, 3)), atol=0)


def test_mp_inverse_rank_deficient_warns_nothing():
    E = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])           # rank 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = mp_inverse(E)
    r = mp_residuals(E, G)
    assert max(r.values()) <= 1e-12


def test_mp_axioms_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        A = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
        G = mp_inverse(A)
        scale = 1.0 + np.linalg.norm(A)
        assert max(mp_residuals(A, G).values()) <= 1e-9 * scale


def test_mp_involution():
    rng = np.random.default_rng(2)
    for _ in range(50):
        A = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
        back = mp_inverse(mp_inverse(A))
        assert np.linalg.norm(back - A) <= 1e-8 * (1 + np.linalg.norm(A))


def test_mp_rank_deficient():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(6, 2))
    C = rng.normal(size=(2, 5))
    A = B @ C                      # rank 2
    G = mp_inverse(A)
    assert max(mp_residuals(A, G).values()) <= 1e-9 * (1 + np.linalg.norm(A))


def test_fp_kernel_full_rank_empty():
    assert fp_solve_kernel(np.eye(3, dtype=int), 5) == []


def test_fp_kernel_zero_matrix():
    basis = fp_solve_kernel(np.zeros((2, 2), dtype=int), 3)
    assert len(basis) == 2


def test_fp_kernel_line_exhaustive():
    A = np.array([[1, 1], [2, 2]])
    basis = fp_solve_kernel(A, 5)
    assert len(basis) == 1
    # exhaustive oracle over all 25 vectors
    truth = set()
    for x in range(5):
        for y in range(5):
            if (x + y) % 5 == 0 and (2 * x + 2 * y) % 5 == 0:
                truth.add((x, y))
    spanned = {tuple((a * basis[0]) % 5) for a in range(5)}
    assert spanned == truth
    assert (1, 4) in spanned


def test_fp_kernel_random_properties():
    rng = np.random.default_rng(4)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            A = rng.integers(0, p, size=(rng.integers(1, 6), rng.integers(1, 6)))
            basis = fp_solve_kernel(A, p)
            for v in basis:
                assert not (A @ v % p).any()
            assert fp_rank(A, p) + len(basis) == A.shape[1]
            if basis:
                M = np.stack(basis)
                assert fp_rank(M, p) == len(basis)


def test_fp_invert_examples():
    assert np.array_equal(fp_invert(np.eye(2, dtype=int), 5), np.eye(2, dtype=int))
    inv = fp_invert(np.array([[1, 1], [0, 1]]), 5)
    assert np.array_equal(inv, np.array([[1, 4], [0, 1]]))
    assert fp_invert(np.array([[1, 2], [2, 4]]), 5) is None


def test_fp_invert_random_roundtrip():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.integers(0, p, size=(n, n))
            inv = fp_invert(A, p)
            if inv is None:
                assert fp_rank(A, p) < n
            else:
                assert np.array_equal(fp_matmul(A, inv, p), np.eye(n, dtype=int))
                assert np.array_equal(fp_matmul(inv, A, p), np.eye(n, dtype=int))


def test_fp_char_poly_matches_det_and_trace():
    rng = np.random.default_rng(6)
    for p in (2, 5, 7):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = rng.integers(0, p, size=(n, n))
            coeffs = fp_char_poly(A, p)
            assert len(coeffs) == n + 1 and coeffs[-1] == 1
            # det(xI - A) at x=0 is det(-A)
            det = int(round(np.linalg.det(A.astype(float)))) % p
            assert coeffs[0] == (det if n % 2 == 0 else (-det) % p)
            assert coeffs[n - 1] == (-int(np.trace(A))) % p


def test_matrix_json_roundtrip():
    A = np.array([[1.5, 2.0], [0.0, -3.0], [4.0, 5.0]])
    assert np.array_equal(matrix_from_json(matrix_to_json(A)), A)


def test_matrix_json_accepts_int_and_float_entries():
    A = matrix_from_json('{"rows": 2, "cols": 2, "data": [1, 2.5, -3, 0]}')
    assert A.dtype == float
    assert np.array_equal(A, [[1.0, 2.5], [-3.0, 0.0]])
    assert matrix_from_json({"rows": 0, "cols": 3, "data": []}).shape == (0, 3)


@pytest.mark.parametrize("obj", [
    {"rows": 1, "cols": 2, "data": [True, 1.5]},          # a boolean entry
    {"rows": 1, "cols": 2, "data": [1.0, "1.5"]},         # a string entry
    {"rows": 1, "cols": 2, "data": [[1.0, 2.0]]},         # nested rows
    {"rows": 1, "cols": 2, "data": "12"},
    {"rows": 1, "cols": 2, "data": 1.0},
    {"rows": 1.7, "cols": 2, "data": [1.0, 2.0]},         # truncated to 1 before
    {"rows": 1.0, "cols": 2, "data": [1.0, 2.0]},
    {"rows": True, "cols": 2, "data": [1.0, 2.0]},
    {"rows": "1", "cols": 2, "data": [1.0, 2.0]},
    {"rows": 2, "cols": 2, "data": [1.0, 2.0]},           # too few entries
    {"rows": 1, "cols": 1, "data": [1.0, 2.0]},           # too many entries
    {"rows": -1, "cols": -2, "data": [1.0, 2.0]},
])
def test_matrix_json_rejects_coercions(obj):
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_fp_matrix_json_roundtrip():
    from geninv.numerics import fp_matrix_from_json, fp_matrix_to_json
    A = np.array([[1, 4], [0, 2]])
    obj = fp_matrix_to_json(A, 5)
    assert obj["prime"] == 5
    B, p = fp_matrix_from_json(obj)
    assert p == 5 and np.array_equal(A % 5, B)


# ---------------------------------------------------------------------------
# exact F_p routines against Python-int oracles
# ---------------------------------------------------------------------------

@st.composite
def fp_matrices(draw, square=False, min_n=0, max_n=6):
    """(A, p) with entries often 0, 1 or p-1, sometimes unreduced, and on
    some draws a last row that depends on the first two."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(min_n, max_n))
    cols = rows if square else draw(st.integers(min_n, max_n))
    entry = (st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1)
             | st.integers(-2 * p, 2 * p))
    A = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if rows >= 2 and draw(st.booleans()):
        A[-1] = (A[0] % p * draw(st.integers(0, p - 1)) + A[1] % p) % p
    return A, p


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
def test_fp_rref_matches_object_oracle(case):
    A, p = case
    R, pivots, rank = fp_rref(A, p)
    want_R, want_pivots, want_rank = fp_rref_object(A, p)
    assert R.dtype == np.int64 and np.array_equal(R, want_R)
    assert (pivots, rank) == (want_pivots, want_rank)
    assert np.array_equal(fp_rref(A, np.int64(p))[0], want_R)


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
def test_fp_solve_kernel_matches_object_oracle(case):
    A, p = case
    basis = fp_solve_kernel(A, p)
    assert [v.tolist() for v in basis] == fp_kernel_object(A, p)
    for v in basis:
        assert not fp_matmul_object(A, v[:, None], p).any()


@settings(max_examples=300, deadline=None)
@given(fp_matrices(square=True))
def test_fp_invert_matches_object_oracle(case):
    A, p = case
    got, want = fp_invert(A, p), fp_invert_object(A, p)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)
        assert np.array_equal(fp_matmul_object(A, got, p), np.eye(len(A), dtype=np.int64))


SWAP = np.array([[1, 2, 3], [0, 4, 5], [6, 0, 7]])         # H[1, 0] = 0 < H[2, 0]
SKIP = np.array([[1, 2, 0, 3], [4, 5, 6, 0], [0, 0, 7, 8],  # column 1 below row 2 is zero
                 [0, 0, 9, 1]])


@settings(max_examples=300, deadline=None)
@given(fp_matrices(square=True, min_n=1, max_n=7))
@example((SWAP, 65521))
@example((SWAP, P31))
@example((SKIP, 3))
@example((SKIP, P31))
@example((np.zeros((7, 7), dtype=np.int64), 2))
@example((np.full((7, 7), P31 - 1), P31))
def test_fp_char_poly_matches_cofactor_oracle(case):
    A, p = case
    got = fp_char_poly(A, p)
    assert all(type(c) is int for c in got)
    assert got == [int(c) for c in fp_char_poly_cofactor(A, p)]
    assert len(got) == len(A) + 1 and got[-1] == 1
    assert fp_char_poly(A, np.int64(p)) == got


def _fp_poly_of_matrix(coeffs, A, p):
    acc = np.zeros_like(A)
    for c in reversed(coeffs):
        acc = (fp_matmul(acc, A, p) + c * np.eye(len(A), dtype=np.int64)) % p
    return acc


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("p", PRIMES)
def test_fp_char_poly_large(n, p):
    rng = np.random.default_rng(1000 * n + p % 1000)
    L = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    sparse = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < 0.1)
    for A in (fp_matmul(L, U, p), sparse, rng.integers(0, p, (n, n))):
        coeffs = fp_char_poly(A, p)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        assert not _fp_poly_of_matrix(coeffs, A, p).any()           # Cayley-Hamilton
        assert coeffs[n - 1] == -int(np.trace(A % p)) % p
        inv = fp_invert(A, p)
        ch = cayley_hamilton_inverse(A, p)
        assert (ch is None) == (inv is None)
        if inv is not None:
            assert np.array_equal(ch, inv)
    assert fp_invert(fp_matmul(L, U, p), p) is not None


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,), (2, 2, 2), ()])
def test_fp_char_poly_rejects_non_square(shape):
    with pytest.raises(ValueError):
        fp_char_poly(np.ones(shape, dtype=np.int64), 5)


def test_fp_char_poly_empty_matrix():
    assert fp_char_poly(np.zeros((0, 0), dtype=np.int64), 5) == [1]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_trial_division(n) for n in range(-5, 10**5))
    # strong pseudoprimes to bases 2; 2, 3; 2, 3, 5; and a Carmichael number
    for n in (2047, 1373653, 25326001, 561):
        assert not is_prime(n) and not is_prime_trial_division(n)
    rng = np.random.default_rng(7)
    near = list(range(2**31 - 200, 2**31)) + [int(n) for n in rng.integers(2**30, 2**31, 200)]
    assert P31 in near
    assert all(is_prime(n) == is_prime_trial_division(n) for n in near)


def test_is_prime_refuses_past_its_exact_range():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
    assert is_prime(3_215_031_749) == is_prime_trial_division(3_215_031_749)
    with pytest.raises(ValueError):
        is_prime(3_215_031_751)


@pytest.mark.parametrize("p", [4, 1, 0, -7, 561, 2**31, 2**31 + 11, 5.0, 5.5, True,
                               np.float64(5.0), "5", None])
def test_fp_check_rejects(p):
    with pytest.raises(ValueError):
        fp_check(p)


def test_fp_check_accepts_integer_kinds():
    for p in (2, 3, 65521, P31, np.int64(P31), np.int32(7)):
        fp_check(p)


@pytest.mark.parametrize("obj", [
    {"rows": 1, "cols": 2, "data": [1.7, True], "prime": 5},
    {"rows": 1, "cols": 2, "data": [1.0, 2], "prime": 5},
    {"rows": 1, "cols": 2, "data": [False, 2], "prime": 5},
    {"rows": 1, "cols": 2, "data": [1, 2], "prime": 4},
    {"rows": 1, "cols": 2, "data": [1, 2], "prime": 5.0},
    {"rows": 1, "cols": 2, "data": [1, 2], "prime": True},
    {"rows": 1.5, "cols": 2, "data": [1, 2], "prime": 5},
    {"rows": 1, "cols": True, "data": [1], "prime": 5},
])
def test_fp_matrix_from_json_rejects(obj):
    with pytest.raises(ValueError):
        fp_matrix_from_json(obj)


def test_fp_matrix_from_json_reduces_integers():
    A, p = fp_matrix_from_json('{"rows": 1, "cols": 3, "data": [-1, 7, 2], "prime": 5}')
    assert p == 5 and A.tolist() == [[4, 2, 2]]
