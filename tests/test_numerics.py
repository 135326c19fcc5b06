import warnings

import numpy as np
import pytest

from geninv import (svd, mp_inverse, mp_residuals, fp_rank,
                    fp_solve_kernel, fp_invert, fp_matmul, fp_char_poly)
from geninv.numerics import matrix_from_json, matrix_to_json


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


def test_fp_matrix_json_roundtrip():
    from geninv.numerics import fp_matrix_from_json, fp_matrix_to_json
    A = np.array([[1, 4], [0, 2]])
    obj = fp_matrix_to_json(A, 5)
    assert obj["prime"] == 5
    B, p = fp_matrix_from_json(obj)
    assert p == 5 and np.array_equal(A % 5, B)
