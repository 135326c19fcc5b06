import numpy as np
import pytest

from geninv import (Box, L2Ball, Halfspace, Intersection, project,
                    cascade_pinv, product_inverse,
                    sandwich_inverse, affine_pinv,
                    projection_after_operator_pinv,
                    Scalar1DOperator, pinv1d_operator, VectorOperator,
                    check_pseudo_inverse, grid_bas_oracle)
from geninv import structured_inverse
from geninv.structured_inverse import convex_set_from_json


def test_box_projection_is_relu():
    C = Box(np.zeros(3), np.full(3, np.inf))
    x = np.array([-1.0, 2.0, -0.5])
    assert np.allclose(project(C, x), np.maximum(x, 0.0))


def test_ball_projection_radial():
    C = L2Ball(np.zeros(2), 1.0)
    x = np.array([3.0, 0.0])
    assert np.allclose(project(C, x), [1.0, 0.0])
    y = np.array([1.8, -2.4])           # norm 3
    assert np.allclose(project(C, y), y / 3.0)


def test_projection_fixes_members():
    sets = [Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            L2Ball(np.array([0.5, 0.5]), 2.0),
            Halfspace(np.array([1.0, 2.0]), 3.0)]
    rng = np.random.default_rng(0)
    for C in sets:
        for _ in range(20):
            x = rng.normal(size=2)
            px = project(C, x)
            assert np.linalg.norm(project(C, px) - px) <= 1e-10
            if C.contains(x):
                assert np.allclose(px, x)


def test_halfspace_formula():
    C = Halfspace(np.array([1.0, 1.0]), 1.0)
    x = np.array([2.0, 2.0])
    assert np.allclose(project(C, x), [0.5, 0.5])
    inside = np.array([-1.0, 0.5])
    assert np.allclose(project(C, inside), inside)


def test_dykstra_intersection_known_answer():
    C = Intersection([Box(np.zeros(2), np.full(2, 2.0)),
                      Halfspace(np.array([1.0, 1.0]), 1.0)],
                     feasible_point=np.array([0.25, 0.25]))
    got = project(C, np.array([2.0, 2.0]))
    assert np.linalg.norm(got - np.array([0.5, 0.5])) <= 1e-8


def _three_set_intersection():
    dim = 3
    return Intersection([Box(-np.ones(dim), np.ones(dim)),
                         L2Ball(np.full(dim, 0.3), 1.2),
                         Halfspace(np.ones(dim), 0.8)], np.zeros(dim))


# a far point that needs several hundred Dykstra sweeps to settle
FAR_POINT = 20 * np.array([0.8367, 0.5444, -0.0593])


def test_dykstra_raises_at_its_cap(monkeypatch):
    C = _three_set_intersection()
    got = C.project(FAR_POINT)
    assert all(part.contains(got, tol=1e-8) for part in C.parts)
    monkeypatch.setattr(structured_inverse, "DYKSTRA_CAP", 5)
    with pytest.raises(ArithmeticError):
        C.project_batch(FAR_POINT[None, :])


def test_dykstra_no_sampled_point_is_closer():
    C = Intersection([L2Ball(np.zeros(2), 1.5),
                      Halfspace(np.array([0.0, 1.0]), 0.5)],
                     feasible_point=np.zeros(2))
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(scale=2.0, size=2)
        px = project(C, x)
        d = np.linalg.norm(px - x)
        # dense sample of the intersection
        pts = rng.uniform(-1.5, 1.5, size=(4000, 2))
        mask = (np.linalg.norm(pts, axis=1) <= 1.5) & (pts[:, 1] <= 0.5)
        dists = np.linalg.norm(pts[mask] - x, axis=1)
        assert d <= dists.min() + 1e-8


def test_intersection_requires_feasible_point():
    with pytest.raises(ValueError):
        Intersection([Box(np.zeros(2), np.ones(2)),
                      Halfspace(np.array([1.0, 0.0]), -1.0)],
                     feasible_point=np.zeros(2))


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        L2Ball(np.zeros(2), -1.0)


def test_projection_lipschitz():
    kinds = [Box(np.array([-1.0, 0.0, -2.0]), np.array([2.0, 1.0, 0.0])),
             L2Ball(np.array([0.3, -0.2, 0.0]), 1.2),
             Halfspace(np.array([1.0, -1.0, 2.0]), 0.7),
             Intersection([L2Ball(np.zeros(3), 2.0),
                           Box(np.full(3, -1.5), np.full(3, 1.5))],
                          feasible_point=np.zeros(3))]
    rng = np.random.default_rng(2)
    for C in kinds:
        X = rng.normal(scale=3.0, size=(200, 3))
        Y = rng.normal(scale=3.0, size=(200, 3))
        lhs = np.linalg.norm(C.project_batch(X) - C.project_batch(Y), axis=1)
        rhs = np.linalg.norm(X - Y, axis=1)
        assert np.max(lhs - rhs) <= 1e-9


def test_cascade_single_set_self_inverse():
    C = L2Ball(np.zeros(2), 1.0)
    res = cascade_pinv([C])
    w = np.array([2.0, 1.0])
    assert np.allclose(res.pseudo_inverse.apply(w), res.cascade.apply(w))
    reports = check_pseudo_inverse(res.cascade, res.pseudo_inverse,
                                   [[2.0, 1.0], [0.2, -0.4], [-3.0, 0.1]],
                                   [(-2.0, 2.0)] * 2, 0.05)
    assert all(r.bas_ok and r.mp2_ok for r in reports)


def test_cascade_nested_boxes():
    outer = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    inner = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    res = cascade_pinv([outer, inner])
    w = np.array([1.7, -2.6])
    assert np.allclose(res.pseudo_inverse.apply(w), np.clip(w, -1, 1))
    reports = check_pseudo_inverse(res.cascade, res.pseudo_inverse,
                                   [[1.7, -2.6], [0.3, 0.4], [-1.4, 2.2]],
                                   [(-2.5, 2.5)] * 2, 0.05)
    assert all(r.bas_ok and r.mp2_ok for r in reports)


def test_cascade_ball_box():
    res = cascade_pinv([L2Ball(np.zeros(2), 2.0),
                        Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))])
    reports = check_pseudo_inverse(res.cascade, res.pseudo_inverse,
                                   [[1.5, 1.5], [-0.2, 0.8], [2.5, -0.3]],
                                   [(-2.5, 2.5)] * 2, 0.05)
    assert all(r.bas_ok and r.mp2_ok for r in reports)


def test_cascade_rejects_bad_nesting():
    inner = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    outer = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        cascade_pinv([inner, outer])          # wrong order
    with pytest.raises(ValueError):
        cascade_pinv([outer, Box(np.array([1.0, 1.0]), np.array([2.0, 2.0]))])


def test_cascade_norm_monotonicity():
    sets = [L2Ball(np.zeros(2), 2.0),
            Box(np.array([-1.5, -1.5]), np.array([1.5, 1.5])),
            L2Ball(np.zeros(2), 1.0)]
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.normal(scale=3.0, size=2)
        norms = [np.linalg.norm(u)]
        for C in sets:
            u = project(C, u)
            norms.append(np.linalg.norm(u))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_product_relu_self_inverse():
    relu = Scalar1DOperator("relu")
    parts = [(relu.as_vector_operator(), pinv1d_operator(relu))] * 3
    T, G = product_inverse(parts)
    w = np.array([1.0, -2.0, 0.5])
    assert np.allclose(G.apply(w), np.maximum(w, 0.0))
    reports = check_pseudo_inverse(T, G, [w, -w], [(-3.0, 3.0)] * 3, 0.1)
    assert all(r.bas_ok and r.mp2_ok for r in reports)


def test_product_square_and_hard_threshold():
    square = Scalar1DOperator("square")
    hard = Scalar1DOperator("hard_threshold", a=2.0)
    # one admissible BAS selection for v^2: the non-negative root
    sq_pinv = VectorOperator.from_scalar(lambda w: np.sqrt(np.maximum(w, 0.0)))
    parts = [(square.as_vector_operator(), sq_pinv),
             (hard.as_vector_operator(), pinv1d_operator(hard))]
    T, G = product_inverse(parts)
    w = np.array([4.0, 1.5])
    assert np.allclose(G.apply(w), [2.0, 2.0])
    got = T.apply(G.apply(w))
    assert np.allclose(got, [4.0, 2.0])
    # componentwise BAS against a 2-D oracle
    best = grid_bas_oracle(T, w, [(-3.0, 3.0)] * 2, 0.05)
    assert abs(abs(best.v[0]) - 2.0) <= 0.1 and abs(best.v[1] - 2.0) <= 0.1


def test_product_single_component_reduces():
    soft = Scalar1DOperator("soft_threshold", a=1.0)
    T, G = product_inverse([(soft.as_vector_operator(), pinv1d_operator(soft))])
    assert np.allclose(G.apply(np.array([2.0])), [3.0])


def test_product_rejects_bad_component():
    relu = Scalar1DOperator("relu")
    bad = VectorOperator.from_scalar(lambda w: np.maximum(w, 0.0) + 1.0)
    with pytest.raises(ValueError):
        product_inverse([(relu.as_vector_operator(), bad)])


def test_sandwich_identity_reduces_to_g():
    relu = Scalar1DOperator("relu")
    I = VectorOperator.identity(1)
    G = pinv1d_operator(relu)
    S = sandwich_inverse(I, I, relu.as_vector_operator(), I, I, G)
    assert np.allclose(S.apply(np.array([-3.0])), [0.0])
    assert np.allclose(S.apply(np.array([2.0])), [2.0])


def test_affine_sandwich_relu():
    # a T(b v) + w0 with T = relu, a=2, b=3, w0=1
    relu = Scalar1DOperator("relu")
    T = VectorOperator.affine_of(relu.as_vector_operator(), 2.0, 3.0,
                                 np.array([1.0]))
    G = affine_pinv(pinv1d_operator(relu), 2.0, 3.0, np.array([1.0]))
    for w in (5.0, 1.0, -2.0):
        v = G.apply(np.array([w]))
        expected = np.maximum((w - 1.0) / 2.0, 0.0) / 3.0
        assert np.allclose(v, expected)
        best = grid_bas_oracle(T, [w], [(-4.0, 4.0)], 1e-3)
        assert abs(v[0] - best.v[0]) <= 2e-3 or (w <= 1.0 and abs(v[0]) <= 2e-3)
    reports = check_pseudo_inverse(T, G, [[5.0], [1.5], [-2.0]],
                                   [(-4.0, 4.0)], 1e-3)
    assert all(r.bas_ok and r.mp2_ok for r in reports)


def test_sandwich_rejects_fake_inverse():
    relu = Scalar1DOperator("relu")
    I = VectorOperator.identity(1)
    doubler = VectorOperator.from_scalar(lambda v: 2.0 * v)
    with pytest.raises(ValueError):
        sandwich_inverse(doubler, doubler, relu.as_vector_operator(), I, I,
                         pinv1d_operator(relu))


def test_projection_after_identity_is_projection():
    C = L2Ball(np.zeros(2), 1.5)
    T = VectorOperator.identity(2)
    for w in (np.array([3.0, 0.0]), np.array([0.5, -0.5])):
        res = projection_after_operator_pinv(T, C, w, [(-2.0, 2.0)] * 2, 0.05,
                                             probes=[(np.zeros(2), np.zeros(2))])
        assert res.feasible
        assert np.linalg.norm(res.v - C.project(w)) <= 0.1


def test_projection_after_operator_routes_outside_targets():
    C = Box(np.array([-1.0]), np.array([1.0]))
    T = VectorOperator.identity(1)
    far = projection_after_operator_pinv(T, C, np.array([7.0]), [(-2.0, 2.0)], 0.01)
    at_edge = projection_after_operator_pinv(T, C, np.array([1.0]), [(-2.0, 2.0)], 0.01)
    assert far.feasible and at_edge.feasible
    assert np.linalg.norm(far.v - at_edge.v) <= 0.02


def test_projection_after_operator_rejects_bad_probe():
    C = Box(np.array([0.0]), np.array([1.0]))
    T = VectorOperator.from_scalar(lambda v: np.maximum(v, 0.0))
    with pytest.raises(ValueError):
        projection_after_operator_pinv(T, C, np.array([0.5]), [(-1.0, 1.0)], 0.1,
                                       probes=[(np.array([0.5]), np.array([-3.0]))])


def test_convex_set_json():
    obj = {"kind": "intersection",
           "parts": [{"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
                     {"kind": "l2_ball", "center": [0, 0], "radius": 1.2}],
           "feasible_point": [0, 0]}
    C = convex_set_from_json(obj)
    assert C.contains(np.array([0.5, 0.5]))
    assert not C.contains(np.array([1.1, 0.0]))


def test_convex_set_json_roundtrip():
    C = Intersection([Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                      L2Ball(np.array([0.0, 0.0]), 1.2)],
                     feasible_point=np.zeros(2))
    back = convex_set_from_json(C.to_json())
    x = np.array([2.0, -1.5])
    assert np.allclose(back.project(x), C.project(x), atol=1e-9)
