"""Dykstra's projection onto an intersection: the stopping rule and batches.

`Intersection.project_batch` settles a point when no correction moves by
more than DYKSTRA_TOL in a sweep and sweeps only the points still moving.
Checked against plain Dykstra run for a fixed, long number of sweeps
(helpers.py) and against the variational inequality of the projection.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import Box, L2Ball, Halfspace, Intersection
from geninv import structured_inverse

from helpers import dykstra_fixed_sweeps

DIM = 3
# the benchmark's intersection, on which a point can stand still for
# several sweeps while its corrections still change
BOX_BALL_HALF = Intersection([Box(-np.ones(DIM), np.ones(DIM)),
                              L2Ball(np.full(DIM, 0.3), 1.2),
                              Halfspace(np.ones(DIM), 0.8)], np.zeros(DIM))
BALL_HALF = Intersection([L2Ball(np.zeros(2), 1.5), Halfspace(np.array([0.0, 1.0]), 0.5)],
                         np.zeros(2))
FAR_POINT = 20 * np.array([0.8367, 0.5444, -0.0593])


def feasible_samples(C, n, rng):
    """Points of C, by rejection from the box around the ball."""
    X = rng.uniform(-2.0, 2.0, size=(n, C.dim))
    inside = np.all([np.linalg.norm(p.project_batch(X) - X, axis=1) <= 1e-12
                     for p in C.parts], axis=0)
    return X[inside]


points = st.lists(st.floats(-8.0, 8.0), min_size=DIM, max_size=DIM).map(np.array)


@given(points, st.floats(0.1, 3.0))
@settings(max_examples=25, deadline=None)
def test_single_point_matches_long_run_and_is_nearest(y, scale):
    y = y * scale
    x = BOX_BALL_HALF.project(y)
    assert np.abs(x - dykstra_fixed_sweeps(BOX_BALL_HALF.parts, y, 3000)).max() <= 1e-9
    # x is the projection: <y - x, q - x> <= 0 for every q in C
    Q = feasible_samples(BOX_BALL_HALF, 4000, np.random.default_rng(0))
    assert ((Q - x) @ (y - x)).max() <= 1e-9 * (1.0 + np.linalg.norm(y - x))
    assert all(p.contains(x, tol=1e-9) for p in BOX_BALL_HALF.parts)


def test_point_whose_iterate_stalls_is_projected_to_the_nearest_point():
    y = np.array([-1.658, -2.354, 2.246])
    x = BOX_BALL_HALF.project(y)
    # stopping on an unmoved iterate returned (-0.493, -0.493, 0.727) here
    assert np.allclose(x, [-0.3135, -0.5317, 0.9098], atol=1e-4)
    assert np.abs(x - dykstra_fixed_sweeps(BOX_BALL_HALF.parts, y, 3000)).max() <= 1e-9


def test_far_point_matches_long_run():
    x = BOX_BALL_HALF.project(FAR_POINT)
    assert np.abs(x - dykstra_fixed_sweeps(BOX_BALL_HALF.parts, FAR_POINT, 3000)).max() <= 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@settings(max_examples=15, deadline=None)
def test_batch_rows_equal_single_point_projections(seed, n):
    rng = np.random.default_rng(seed)
    for C in (BOX_BALL_HALF, BALL_HALF):
        Y = rng.normal(scale=3.0, size=(n, C.dim))
        if C is BOX_BALL_HALF:
            Y[rng.integers(n)] = FAR_POINT
        X = C.project_batch(Y)
        for y, x in zip(Y, X):
            assert np.array_equal(x, C.project(y))


def test_empty_batch_and_points_already_inside():
    assert BOX_BALL_HALF.project_batch(np.zeros((0, DIM))).shape == (0, DIM)
    inside = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
    assert np.array_equal(BOX_BALL_HALF.project_batch(inside), inside)


def test_cap_raises_only_for_points_still_moving(monkeypatch):
    monkeypatch.setattr(structured_inverse, "DYKSTRA_CAP", 20)
    near = np.array([[0.1, -0.2, 0.3], [-3.0, -3.0, -3.0]])     # 1 and 6 sweeps
    assert np.array_equal(BOX_BALL_HALF.project_batch(near)[0], near[0])
    with pytest.raises(ArithmeticError, match="1 of 3 points"):
        BOX_BALL_HALF.project_batch(np.vstack([near, FAR_POINT]))
