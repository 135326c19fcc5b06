"""Dykstra's projection onto an intersection: the stopping rule and batches.

`Intersection.project_batch` extrapolates Dykstra's sweeps (Anderson, depth
one), settles a point when the plain sweep from its state moves no
correction by more than DYKSTRA_TOL, and sweeps only the points still
moving. Checked against plain Dykstra run for a fixed, long number of
sweeps (helpers.py) and against the variational inequality of the
projection, on fixed sets and on random intersections.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import Box, L2Ball, Halfspace, Intersection
from geninv import structured_inverse
from geninv.structured_inverse import DYKSTRA_TOL, convex_set_from_json

from helpers import dykstra_fixed_sweeps, dykstra_until_settled

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


def test_a_point_settles_on_the_first_plain_sweep_that_moves_nothing():
    # With a first part that never clips, that part's correction stays 0,
    # so a sweep's residual G(c) - c is the iterate's move at each later
    # part and can be read off the calls: the projection must return the
    # output of the first sweep whose moves are all within DYKSTRA_TOL.
    C = Intersection([Halfspace(np.eye(DIM)[0], 1e6),
                      *(convex_set_from_json(p.to_json()) for p in BOX_BALL_HALF.parts)],
                     np.zeros(DIM))
    calls = []
    for part in C.parts:
        def recorded(Z, project=part.project_batch):
            X = project(Z)
            calls.append(X[0].copy())
            return X
        part.project_batch = recorded
    rng = np.random.default_rng(11)
    for y in [FAR_POINT, *rng.normal(scale=3.0, size=(40, DIM))]:
        calls.clear()
        x = C.project(y)
        sweeps = np.array(calls).reshape(-1, len(C.parts), DIM)
        moves = np.abs(np.diff(sweeps, axis=1)).max(axis=(1, 2))
        assert moves[-1] <= DYKSTRA_TOL + 1e-14
        assert np.all(moves[:-1] > DYKSTRA_TOL - 1e-14)
        assert np.array_equal(x, sweeps[-1, -1])


def test_boxes_merge_into_one_box_at_the_first_box_place():
    # two boxes whose x faces lie 5.8e-4 apart: with the looser box first,
    # Dykstra's corrections traded mass between those faces until the cap
    lo, hi = np.array([-1.0, -2.0, -1.5]), np.array([2.0, 1.0, 1.5])
    tight = hi - 5.8e-4 * np.eye(DIM)[0]
    y = np.array([11.0, -3.80, -1.87])
    for boxes in ([Box(lo, hi), Box(lo, tight)], [Box(lo, tight), Box(lo, hi)]):
        C = Intersection(boxes, np.zeros(DIM))
        assert len(C.parts) == 1
        assert np.array_equal(C.project(y), np.clip(y, lo, tight))
    ball, half = L2Ball(np.zeros(DIM), 5.0), Halfspace(np.ones(DIM), 2.0)
    C = Intersection([ball, Box(lo, hi), half, Box(-hi, -lo)], np.zeros(DIM))
    assert C.parts[0] is ball and C.parts[2] is half and len(C.parts) == 3
    assert np.array_equal(C.parts[1].lo, np.maximum(lo, -hi))
    assert np.array_equal(C.parts[1].hi, np.minimum(hi, -lo))
    assert all(a is b for a, b in zip(BOX_BALL_HALF.parts,
                                      Intersection(BOX_BALL_HALF.parts, np.zeros(DIM)).parts))


# ---------------------------------------------------------------------------
# random intersections against plain Dykstra
# ---------------------------------------------------------------------------

SLACK = 0.2     # every part holds the ball of this radius around the shared point
reals = st.floats(-1.0, 1.0)


@st.composite
def part_containing(draw, q):
    """A Box, L2Ball or Halfspace that holds the ball of radius SLACK around q."""
    dim = len(q)
    kind = draw(st.sampled_from(["box", "ball", "halfspace"]))
    if kind == "box":
        below = np.array(draw(st.lists(st.floats(SLACK, 3.0), min_size=dim, max_size=dim)))
        above = np.array(draw(st.lists(st.floats(SLACK, 3.0), min_size=dim, max_size=dim)))
        return Box(q - below, q + above)
    direction = np.array(draw(st.lists(reals, min_size=dim, max_size=dim)))
    if np.linalg.norm(direction) < 0.1:
        direction = np.eye(dim)[0]
    direction = direction / np.linalg.norm(direction)
    if kind == "ball":
        radius = draw(st.floats(0.5, 3.0))
        return L2Ball(q + direction * (radius - SLACK) * draw(st.floats(0.0, 1.0)), radius)
    return Halfspace(direction, direction @ q + SLACK + draw(st.floats(0.0, 2.0)))


@st.composite
def intersections(draw):
    dim = draw(st.integers(1, 4))
    q = np.array(draw(st.lists(reals, min_size=dim, max_size=dim)))
    parts = draw(st.lists(part_containing(q), min_size=2, max_size=4))
    return Intersection(parts, q)


@given(intersections(), st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_random_intersections_match_plain_dykstra(C, seed, n):
    rng = np.random.default_rng(seed)
    Y = rng.normal(scale=3.0, size=(n, C.dim))
    Y[0] *= 5.0                                   # one far point per batch
    # plain Dykstra swept until its corrections stand still; a fixed 3000
    # sweeps can stop short of 1e-9 where two boundaries meet at a corner
    plain, plain_settled = dykstra_until_settled(C.parts, Y, 1e-12, 3000)
    singles = []
    for y, x_plain, settled in zip(Y, plain, plain_settled):
        try:
            x = C.project(y)
        except ArithmeticError:
            # the cap may stop a point only where plain Dykstra stalls too
            assert not settled
            singles.append(None)
            continue
        if settled:
            assert np.abs(x - x_plain).max() <= 1e-9
        assert all(p.contains(x, tol=1e-9) for p in C.parts)
        singles.append(x)
    if any(x is None for x in singles):
        with pytest.raises(ArithmeticError):
            C.project_batch(Y)
    else:
        assert np.array_equal(C.project_batch(Y), np.array(singles))


# Random intersections that tripped earlier extrapolation rules while plain
# Dykstra settles: on the first three, steps that barely lowered the
# residual walked the corrections back and forth for good; on the last, two
# nearly equal balls, the corrections drift by 7e-5 a sweep for about 8200
# sweeps and a secant fitted to that drift leapt far off each time.
TRIPPED = [
    ({"kind": "intersection", "parts": [
        {"kind": "box", "lo": [-3.2764327327732508, 0.058181349611964306, -3.927827356325793,
                               -2.076380614054186],
         "hi": [-0.1188009461676024, 1.7, -0.5000264115235031, -0.10492446525807231]},
        {"kind": "l2_ball", "center": [0.11380021126051776, 0.2674519499812993,
                                       -0.6957645093857103, -0.7193339233775906],
         "radius": 2.8325027709555806},
        {"kind": "box", "lo": [-2.364369183144958, -2.1464201383286836, -1.5, -1.8445826217229049],
         "hi": [-0.04089864617887973, 0.8667845741769996, 0.05544770662951004,
                0.6059618895714298]}],
      "feasible_point": [-0.4018315013686621, 0.5, -1.0, -0.9392020202777194]},
     [-23.491151069475738, 10.148790944463343, 1.0701180933985759, -6.409872071156677]),
    ({"kind": "intersection", "parts": [
        {"kind": "box", "lo": [-1.188332148195588, 0.560262412974721, -2.1862162943072434],
         "hi": [2.6768865745694495, 2.1442491559694874, 0.27034061141423676]},
        {"kind": "l2_ball", "center": [0.2864472025202875, 0.9350187646158368, -0.5731900753188898],
         "radius": 1.4536184964665742},
        {"kind": "l2_ball", "center": [2.8116130860533816e-14, 0.7602508488965323, 0.506620412870034],
         "radius": 2.247103261420351},
        {"kind": "box", "lo": [-1.249738859116977, 0.42692907964138777, -0.9453343449509513],
         "hi": [3.000000000000028, 2.9449285255725703, 1.8961686509790716]}],
      "feasible_point": [2.8116130860533816e-14, 0.7602624129747211, -0.10384134902092845]},
     [4.496382862078183, 1.4633574713891062, -1.8430024319727099]),
    ({"kind": "intersection", "parts": [
        {"kind": "box", "lo": [-1.800043476042685, -2.617661677796526, -2.122306067188031],
         "hi": [1.0959313857967474, -0.11921492347692475, 1.1141532940785792]},
        {"kind": "halfspace", "normal": [4.800779632634454e-290, 0.7589659219989495,
                                         -0.651130347353189],
         "offset": -0.3338862031556606},
        {"kind": "box", "lo": [-0.7018122866930039, -1.3741808518122722, -2.50761607228631],
         "hi": [1.0024003847679124, -0.18877563457848773, 1.4614652300631596]},
        {"kind": "box", "lo": [-1.8001155702179574, -0.7239557153166322, -0.7850672873522573],
         "hi": [2.3807544589298475, 0.577891032088179, 1.224311705335491]}],
      "feasible_point": [0.1999565239573149, -0.522108967911821, 0.21136058164079885]},
     [-1.3763433545151385, -5.996346979303477, -1.6419374835736813]),
    ({"kind": "intersection", "parts": [
        {"kind": "l2_ball", "center": [-0.20470956573806975, 0.00430001784608394,
                                       0.007068947284469613, -0.23848661730698548],
         "radius": 2.0632489279179427},
        {"kind": "l2_ball", "center": [-0.20453882991707642, 0.004299102652760225,
                                       0.007067442766676429, -0.23848665365324098],
         "radius": 2.0632489279179427}],
      "feasible_point": [-0.20470956573806975, 0.0, 0.0, -0.23865738947423432]},
     [-1.9688550327870935, -2.0160440419759675, 1.1405672767469752, -0.33017608583415475]),
]


@pytest.mark.parametrize("C, y", TRIPPED)
def test_points_that_tripped_extrapolation_settle_like_plain_dykstra(C, y):
    C = convex_set_from_json(C)
    plain, settled = dykstra_until_settled(C.parts, np.array([y]), 1e-12,
                                           structured_inverse.DYKSTRA_CAP)
    assert settled[0]
    assert np.abs(C.project(y) - plain[0]).max() <= 1e-9
