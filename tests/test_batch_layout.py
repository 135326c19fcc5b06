"""The row rule of the real-valued batch kernels: no layout changes a bit.

`Grid` writes each block of its points as coordinate columns (a
Fortran-ordered batch), and Box, L2Ball, Halfspace and `product_operator`
keep their input's memory order. A row must
get the same bits in a C-ordered batch, in a Fortran-ordered one and alone,
at every width; from 8 columns on the row sums take numpy's pairwise
branch, so widths up to 10 run both branches.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from geninv import (Box, Grid, L2Ball, Halfspace, Intersection, Scalar1DOperator,
                    cascade_pinv, product_operator)
from geninv.pseudo_inverse import GRID_CHUNK, _row_norms

from helpers import grid_dense
from test_dykstra import FAR_POINT
from test_grid_oracle import FLOAT_PARTS, bits, product_of


@st.composite
def batches(draw):
    """A width d in 1..10, a batch of 1..40 rows with signed zeros and the
    Dykstra far point among them, and the sets to project it onto."""
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Y = rng.normal(scale=3.0, size=(draw(st.integers(1, 40)), d))
    Y[rng.random(Y.shape) < 0.1] = 0.0
    Y[rng.random(Y.shape) < 0.1] = -0.0
    Y[rng.integers(len(Y))] = np.resize(FAR_POINT, d)
    lo = -rng.uniform(0.5, 2.0, size=d)
    lo[rng.random(d) < 0.2] = -0.0
    sets = [Box(lo, lo + rng.uniform(0.0, 3.0, size=d)),
            L2Ball(rng.normal(size=d), rng.uniform(0.1, 2.0)),
            L2Ball(rng.normal(size=d), 0.0),
            Halfspace(rng.normal(size=d), rng.normal()),
            Intersection([Box(-np.ones(d), np.ones(d)), L2Ball(np.full(d, 0.3), 1.2),
                          Halfspace(np.ones(d), 0.8)], np.zeros(d))]
    return Y, sets


@given(batches())
@settings(max_examples=25, deadline=None)
def test_projections_give_the_same_bits_in_either_order_and_alone(case):
    Y, sets = case
    F = np.asfortranarray(Y)
    for C in sets:
        X = C.project_batch(Y)
        assert bits(C.project_batch(F)) == bits(X)
        for y, x in zip(Y, X):
            assert bits(C.project(y)) == bits(x)
        if not isinstance(C, Intersection):
            assert C.project_batch(F).flags.f_contiguous


@given(batches())
@settings(max_examples=25, deadline=None)
def test_projections_match_their_formulas_on_c_ordered_rows(case):
    Y, sets = case
    box, ball = sets[:2]
    with np.errstate(all="ignore"):
        assert np.array_equal(box.project_batch(Y), np.clip(Y, box.lo, box.hi))
        d = Y - ball.center
        n = np.linalg.norm(d, axis=1)
        scale = np.where(n > ball.radius, ball.radius / n, 1.0)
    assert bits(ball.project_batch(Y)) == bits(ball.center + d * scale[:, None])


def test_ball_projects_its_center_and_onto_a_zero_radius_ball_without_warnings():
    # RuntimeWarnings are errors in this suite: no 0 / 0 may be evaluated
    c = np.array([0.5, -1.0, 2.0])
    assert bits(L2Ball(c, 1.0).project(c)) == bits(c)
    point = L2Ball(c, 0.0)
    assert bits(point.project_batch(np.vstack([c, c + 1.0, -c]))) == bits(np.vstack([c] * 3))


def assert_grid_is_dense(T, box, step, chunk=GRID_CHUNK):
    """The blocks of T's grid, each F-ordered, concatenated give the points,
    values and norms of the dense grid; returns the values of each block."""
    grid = Grid(T, box, step)
    points, values, norms = grid_dense(T, box, step)
    blocks = list(Grid._blocks(grid.axes, chunk))
    assert all(P.flags.f_contiguous for P in blocks)
    block_values = [T.apply_batch(P) for P in blocks]
    assert bits(np.concatenate(blocks)) == bits(points)
    assert bits(np.concatenate(block_values)) == bits(values)
    assert bits(np.concatenate([_row_norms(P) for P in blocks])) == bits(norms)
    return block_values


@given(st.lists(FLOAT_PARTS, min_size=1, max_size=3), st.sampled_from([GRID_CHUNK, 7]))
@settings(max_examples=30, deadline=None)
def test_grid_of_a_product_is_the_dense_grid(parts, chunk):
    step = {1: 0.01, 2: 0.05, 3: 0.25}[len(parts)]
    assert_grid_is_dense(product_of(parts), [(-2.0, 1.5)] * len(parts), step, chunk)


@given(st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0),
       st.sampled_from([0.02, 0.05]))
@settings(max_examples=15, deadline=None)
def test_grid_of_a_cascade_is_the_dense_grid_and_keeps_its_columns(radius, margin, shrink,
                                                                    step):
    outer, inner = radius + margin, shrink * radius / 2.0
    cas = cascade_pinv([Box(np.full(2, -outer), np.full(2, outer)),
                        L2Ball(np.zeros(2), radius),
                        Box(np.full(2, -inner), np.full(2, inner))])
    for values in assert_grid_is_dense(cas.cascade, [(-2.5, 2.5)] * 2, step):
        assert values.flags.f_contiguous


@given(st.lists(FLOAT_PARTS, min_size=1, max_size=4), st.integers(1, 30),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_product_keeps_its_batch_order_and_the_bits_of_its_joined_parts(parts, rows, seed):
    T = product_of(parts)
    X = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(rows, len(parts)))
    joined = np.concatenate([part.fn(X[:, [i]]) for i, part in enumerate(T.factors)], axis=1)
    for batch in (X, np.asfortranarray(X)):
        values = T.apply_batch(batch)
        assert bits(values) == bits(joined)
        assert np.isfortran(values) == np.isfortran(batch)


def test_grid_of_a_product_holds_its_values_once():
    # a product's values on a block are in columns already, so the scan
    # reads them without a column-major copy
    T = product_of([("relu", {}), ("tanh", {})])
    grid = Grid(T, [(-2.5, 2.5)] * 2, 0.01)
    assert math.prod(map(len, grid.axes)) == 251_001
    for P in Grid._blocks(grid.axes, GRID_CHUNK):
        values = T.apply_batch(P)
        assert values.flags.f_contiguous and np.asfortranarray(values) is values


def test_grid_of_a_nine_dimensional_product_is_the_dense_grid():
    kinds = ["relu", "tanh", "sine", "exp", "square", "relu", "sign", "tanh", "sine"]
    T = product_operator([Scalar1DOperator(k).as_vector_operator() for k in kinds])
    # 2 or 3 points per axis: 2^5 3^4 = 2592 points of 9 coordinates
    box = [(-1.0, 1.0 if i % 2 else 0.0) for i in range(9)]
    values = assert_grid_is_dense(T, box, 1.0)
    assert [v.shape for v in values] == [(2 ** 5 * 3 ** 4, 9)]
