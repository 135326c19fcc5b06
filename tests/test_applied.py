import numpy as np
import pytest

from geninv import (LeastNormQP, solve_least_norm_qp, NeuralLayer,
                    tanh_layer_pinv, clipped_tanh_layer_pinv, relu_layer_pinv,
                    haar_basis, wavelet_threshold_roundtrip, GridOracle)
from helpers import qp_oracle_enumerate


def test_qp_equality_only():
    qp = LeastNormQP(np.array([[1.0, 1.0]]), np.array([2.0]),
                     np.zeros((0, 2)), np.zeros(0))
    out = solve_least_norm_qp(qp)
    assert out.status == "optimal"
    assert np.allclose(out.v, [1.0, 1.0], atol=1e-12)


def test_qp_inequality_only_zero():
    qp = LeastNormQP(np.zeros((0, 2)), np.zeros(0),
                     np.array([[1.0, 1.0]]), np.array([0.0]))
    out = solve_least_norm_qp(qp)
    assert out.status == "optimal"
    assert np.allclose(out.v, [0.0, 0.0], atol=1e-12)


def test_qp_active_inequality():
    qp = LeastNormQP(np.array([[1.0, 0.0]]), np.array([1.0]),
                     np.array([[0.0, 1.0]]), np.array([-1.0]))
    out = solve_least_norm_qp(qp)
    assert out.status == "optimal"
    assert np.allclose(out.v, [1.0, -1.0], atol=1e-12)
    assert out.active == [0]
    assert max(out.kkt.values()) <= 1e-9


def test_qp_infeasible_detected():
    qp = LeastNormQP(np.array([[1.0, 1.0]]), np.array([2.0]),
                     np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
    out = solve_least_norm_qp(qp)
    assert out.status == "infeasible"
    assert out.v is None


def test_qp_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        neq = int(rng.integers(0, min(n, 3) + 1))
        # a few instances push the inequality count to 12 (4096 subsets)
        nin = int(rng.integers(7, 13)) if trial % 12 == 0 else int(rng.integers(0, 7))
        qp = LeastNormQP(rng.normal(size=(neq, n)), rng.normal(size=neq),
                         rng.normal(size=(nin, n)), rng.normal(size=nin))
        out = solve_least_norm_qp(qp)
        oracle = qp_oracle_enumerate(qp)
        if out.status == "optimal":
            assert oracle is not None
            assert np.linalg.norm(out.v - oracle[0]) <= 1e-8
            assert max(out.kkt.values()) <= 1e-8
        else:
            assert oracle is None


def test_layer_rejects_rank_deficient():
    with pytest.raises(ValueError):
        NeuralLayer(np.array([[1.0, 2.0], [2.0, 4.0]]), "tanh")
    with pytest.raises(ValueError):
        NeuralLayer(np.array([[1.0], [1.0]]), "relu")    # m > n


def test_tanh_layer_identity_weights():
    layer = NeuralLayer(np.eye(3), "tanh")
    w = np.array([0.5, -0.2, 0.9])
    assert np.allclose(tanh_layer_pinv(layer, w), np.arctanh(w), atol=1e-12)


def test_tanh_layer_least_norm():
    layer = NeuralLayer(np.array([[1.0, 1.0]]), "tanh")
    v = tanh_layer_pinv(layer, np.array([np.tanh(2.0)]))
    assert np.allclose(v, [1.0, 1.0], atol=1e-9)


def test_tanh_layer_undefined_at_boundary():
    layer = NeuralLayer(np.array([[1.0, 0.5]]), "tanh")
    assert tanh_layer_pinv(layer, np.array([1.0])) is None
    assert tanh_layer_pinv(layer, np.array([-1.2])) is None


def test_tanh_layer_axioms_and_oracle():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(1, 2))
    layer = NeuralLayer(A, "tanh")
    T = layer.operator()
    for w in rng.uniform(-0.85, 0.85, size=5):
        v = tanh_layer_pinv(layer, np.array([w]))
        Tv = T.apply(v)
        assert np.linalg.norm(Tv - [w]) <= 1e-10
        gtv = tanh_layer_pinv(layer, Tv)
        assert np.linalg.norm(gtv - v) <= 1e-8          # MP2 at sampled targets
        # grid oracle: no grid point may undercut the norm among residual ties
        oracle = GridOracle(T, [(-3.0, 3.0)] * 2, 0.01)
        _, (tie_norm,), (j,), _, _ = oracle.factors[0].scan([[w]], [np.linalg.norm(A) * 0.01])
        assert j >= 0 and np.linalg.norm(v) <= tie_norm + 0.03


def test_clipped_tanh_interior_matches_unclipped():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 4))
    layer = NeuralLayer(A, "tanh", clip=4)
    w = np.array([0.4, -0.2])                           # inside C_4 = [-.75, .75]^2
    assert np.allclose(clipped_tanh_layer_pinv(layer, w),
                       tanh_layer_pinv(layer, w), atol=1e-9)


def test_clipped_tanh_one_dimensional_routing():
    layer = NeuralLayer(np.array([[1.0]]), "tanh", clip=2)
    v = clipped_tanh_layer_pinv(layer, np.array([0.9]))  # clamps to 0.5
    assert np.allclose(v, [np.arctanh(0.5)], atol=1e-9)


def test_clipped_tanh_converges_to_unclipped():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 3))
    w = np.array([0.6, -0.35])
    base = tanh_layer_pinv(NeuralLayer(A, "tanh"), w)
    for k in (8, 64, 256):
        layer = NeuralLayer(A, "tanh", clip=k)
        vk = clipped_tanh_layer_pinv(layer, w)
        if k >= 256:
            assert np.linalg.norm(vk - base) <= 1e-6


def test_relu_layer_square_invertible():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    layer = NeuralLayer(A, "relu")
    w = np.array([3.0, 2.0])
    assert np.allclose(relu_layer_pinv(layer, w), np.linalg.solve(A, w), atol=1e-9)


def test_relu_layer_negative_target_clamps():
    layer = NeuralLayer(np.array([[1.0, 1.0]]), "relu")
    assert np.allclose(relu_layer_pinv(layer, np.array([-5.0])), [0.0, 0.0],
                       atol=1e-10)


def test_relu_layer_mixed_target():
    layer = NeuralLayer(np.eye(2), "relu")
    assert np.allclose(relu_layer_pinv(layer, np.array([3.0, -1.0])),
                       [3.0, 0.0], atol=1e-10)


def test_relu_layer_axioms():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        layer = NeuralLayer(rng.normal(size=(m, n)), "relu")
        T = layer.operator()
        w = np.where(rng.random(m) < 0.4, 0.0, np.abs(rng.normal(size=m)))
        v = relu_layer_pinv(layer, w)
        Tv = T.apply(v)
        assert np.linalg.norm(Tv - np.maximum(w, 0.0)) <= 1e-8 * (1 + np.linalg.norm(w))
        again = relu_layer_pinv(layer, Tv)
        assert np.linalg.norm(again - v) <= 1e-8          # MP2


def test_haar_basis_small():
    H2 = haar_basis(2).matrix
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(H2, [[r, r], [r, -r]])
    H4 = haar_basis(4).matrix
    assert np.abs(H4.T @ H4 - np.eye(4)).max() <= 1e-12
    H8 = haar_basis(8).matrix
    assert abs(abs(np.linalg.det(H8)) - 1.0) <= 1e-10


def test_haar_rejects_non_power_of_two():
    for n in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            haar_basis(n)


def test_wavelet_hard_roundtrip_worked_example():
    basis = haar_basis(2)
    rt = wavelet_threshold_roundtrip(basis, "hard", 2.0, np.array([3.0, 1.0]))
    # coefficients (2*sqrt2, sqrt2); threshold keeps the first only
    assert np.allclose(rt.denoised, [2.0, 2.0], atol=1e-12)
    assert rt.difference_norm <= 1e-12


def test_wavelet_zero_threshold_is_identity():
    basis = haar_basis(4)
    x = np.array([0.3, -1.0, 2.0, 0.7])
    rt = wavelet_threshold_roundtrip(basis, "hard", 0.0, x)
    assert np.allclose(rt.denoised, x, atol=1e-12)
    rt = wavelet_threshold_roundtrip(basis, "soft", 0.0, x)
    assert np.allclose(rt.denoised, x, atol=1e-12)
    assert rt.difference_norm <= 1e-12


def test_wavelet_hard_identity_random():
    rng = np.random.default_rng(5)
    basis = haar_basis(8)
    for a in (0.1, 0.5, 2.0):
        for _ in range(20):
            x = rng.normal(size=8)
            rt = wavelet_threshold_roundtrip(basis, "hard", a, x)
            assert rt.difference_norm <= 1e-10


def test_wavelet_soft_witness():
    basis = haar_basis(8)
    rng = np.random.default_rng(6)
    for a in (0.1, 0.5, 2.0):
        rt = wavelet_threshold_roundtrip(basis, "soft", a, rng.normal(size=8))
        assert rt.witness is not None
        assert rt.witness_difference_norm >= 0.9 * a
        # the witness splits the pipelines by exactly a (one coefficient past a)
        assert abs(rt.witness_difference_norm - a) <= 1e-10


def test_wavelet_soft_coefficient_identity():
    # soft pinv after soft threshold keeps large coefficients: x * 1{|x| > a}
    basis = haar_basis(2)
    a = 1.0
    x = basis.matrix.T @ np.array([3.0, 0.5])
    rt = wavelet_threshold_roundtrip(basis, "soft", a, x)
    coeffs_rt = basis.matrix @ rt.roundtrip
    assert np.allclose(coeffs_rt, [3.0, 0.0], atol=1e-12)
    coeffs_dn = basis.matrix @ rt.denoised
    assert np.allclose(coeffs_dn, [2.0, 0.0], atol=1e-12)
    assert abs(rt.difference_norm - a) <= 1e-12


def test_denoising_idempotent():
    rng = np.random.default_rng(7)
    basis = haar_basis(8)
    for kind, a in (("hard", 0.5), ("soft", 0.5)):
        x = rng.normal(size=8)
        rt1 = wavelet_threshold_roundtrip(basis, kind, a, x)
        rt2 = wavelet_threshold_roundtrip(basis, kind, a, rt1.roundtrip)
        assert np.linalg.norm(rt2.roundtrip - rt1.roundtrip) <= 1e-10


def test_clipped_tanh_axioms_outside_targets():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(2, 3))
    layer = NeuralLayer(A, "tanh", clip=4)
    T = layer.operator()                           # clipped forward map
    for _ in range(10):
        w = rng.uniform(-1.3, 1.3, size=2)
        v = clipped_tanh_layer_pinv(layer, w)
        Tv = T.apply(v)
        assert np.linalg.norm(Tv - np.clip(w, -0.75, 0.75)) <= 1e-8   # MP1 route
        again = clipped_tanh_layer_pinv(layer, Tv)
        assert np.linalg.norm(again - v) <= 1e-8                      # MP2


def test_tanh_layer_oracle_three_dims():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(2, 3))
    layer = NeuralLayer(A, "tanh")
    T = layer.operator()
    oracle = GridOracle(T, [(-2.0, 2.0)] * 3, 0.05)
    for _ in range(3):
        w = rng.uniform(-0.8, 0.8, size=2)
        v = tanh_layer_pinv(layer, w)
        best = oracle.query(w)
        assert np.linalg.norm(T.apply(v) - w) <= best.residual + 1e-9
        _, (tie,), (j,), _, _ = oracle.factors[0].scan([w], [np.linalg.norm(A) * 0.05])
        assert j >= 0 and np.linalg.norm(v) <= tie + 0.15
        assert tie <= np.linalg.norm(v) + 0.25
