import zlib

import numpy as np
import pytest

from geninv import (Scalar1DOperator, closed_form_pinv, pinv1d_operator,
                    GridOracle, grid_bas_oracle, check_pseudo_inverse,
                    expanding_domain_pinv, finite_bas_set,
                    FiniteOperator, enumerate_one_two_inverses,
                    VectorOperator)

STEP = 1e-3
BOX = [(-10.0, 10.0)]


def test_closed_form_spot_values():
    assert closed_form_pinv(Scalar1DOperator("relu"), -3.0).values == (0.0,)
    assert closed_form_pinv(Scalar1DOperator("hard_threshold", a=2.0), 1.5).values == (2.0,)
    assert closed_form_pinv(Scalar1DOperator("soft_threshold", a=1.0), 2.0).values == (3.0,)
    assert closed_form_pinv(Scalar1DOperator("sign_eps", eps=0.5), 2.0).values == (0.5,)
    assert closed_form_pinv(Scalar1DOperator("shifted_square", a=3.0), 4.0).values == (1.0,)
    sq = closed_form_pinv(Scalar1DOperator("square"), 4.0)
    assert not sq.unique and set(sq.values) == {-2.0, 2.0}
    assert np.isclose(closed_form_pinv(Scalar1DOperator("sine"), 2.0).value, np.pi / 2)


def test_closed_form_undefined_values():
    assert not closed_form_pinv(Scalar1DOperator("exp"), -1.0).defined
    assert not closed_form_pinv(Scalar1DOperator("exp"), 0.0).defined
    assert not closed_form_pinv(Scalar1DOperator("tanh"), 1.0).defined
    assert not closed_form_pinv(Scalar1DOperator("sign"), 0.75).defined
    assert closed_form_pinv(Scalar1DOperator("sign"), 0.5).values == (0.0,)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Scalar1DOperator("hard_threshold", a=-1.0)
    with pytest.raises(ValueError):
        Scalar1DOperator("shifted_square", a=0.0)
    with pytest.raises(ValueError):
        Scalar1DOperator("sign_eps", eps=0.0)
    with pytest.raises(ValueError):
        Scalar1DOperator("no_such_kind")


@pytest.mark.parametrize("kind, param", [("hard_threshold", "a"), ("soft_threshold", "a"),
                                         ("shifted_square", "a"), ("sign_eps", "eps"),
                                         ("linear", "c"), ("relu", "c")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_parameters_must_be_finite(kind, param, value):
    with pytest.raises(ValueError, match="must be finite"):
        Scalar1DOperator(kind, **{param: value})


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -0.5])
def test_grid_oracle_rejects_a_bad_step(step):
    with pytest.raises(ValueError, match="step must be positive and finite"):
        GridOracle(Scalar1DOperator("relu").as_vector_operator(), [(-1.0, 1.0)], step)


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_grid_oracle_rejects_a_non_finite_target(w):
    oracle = GridOracle(Scalar1DOperator("relu").as_vector_operator(), [(-1.0, 1.0)], 0.5)
    with pytest.raises(ValueError, match="target must be finite"):
        oracle.query([w])


def test_grid_oracle_identity():
    T = Scalar1DOperator("linear", c=1.0).as_vector_operator()
    best = grid_bas_oracle(T, [0.7], BOX, STEP)
    assert abs(best.v[0] - 0.7) <= STEP


def test_grid_oracle_square_both_signs_tie():
    T = Scalar1DOperator("square").as_vector_operator()
    best = grid_bas_oracle(T, [4.0], BOX, STEP)
    assert abs(abs(best.v[0]) - 2.0) <= STEP


def test_grid_oracle_sign():
    T = Scalar1DOperator("sign").as_vector_operator()
    best = grid_bas_oracle(T, [0.3], BOX, STEP)
    assert abs(best.v[0]) <= STEP


def test_grid_oracle_rejects_bad_input():
    T = Scalar1DOperator("relu").as_vector_operator()
    with pytest.raises(ValueError):
        grid_bas_oracle(T, [1.0], BOX, -0.5)
    with pytest.raises(ValueError):
        grid_bas_oracle(T, [1.0], [(np.inf, 0)], STEP)


ROW_SAMPLERS = {
    "square": lambda rng: rng.uniform(-8, 8),
    "shifted_square": lambda rng: rng.uniform(-8, 8),
    "relu": lambda rng: rng.uniform(-8, 8),
    "hard_threshold": lambda rng: rng.uniform(-8, 8),
    "soft_threshold": lambda rng: rng.uniform(-8, 8),
    "tanh": lambda rng: rng.uniform(-0.99, 0.99),
    "sign": lambda rng: rng.uniform(-0.49, 0.49),
    "sign_eps": lambda rng: rng.uniform(-3, 3),
    "exp": lambda rng: rng.uniform(0.1, 20.0),
    "sine": lambda rng: rng.uniform(-1.4, 1.4),
}


def sample_w(op, rng, avoid=(), margin=5 * STEP):
    while True:
        w = ROW_SAMPLERS[op.kind](rng)
        if all(abs(w - b) > margin for b in avoid):
            return w


def row_break_points(op):
    """Targets where the closed form jumps; samples keep clear of them."""
    if op.kind == "hard_threshold":
        return (op.a / 2, -op.a / 2)
    if op.kind == "soft_threshold":
        return (0.0,)
    if op.kind in ("relu", "square"):
        return (0.0,)
    return ()


def oracle_box(op):
    if op.kind == "sine":
        # keep only the principal branch: the mirrored source pi - arcsin(w)
        # ties the residual exactly and would win on grid noise
        return [(-np.pi / 2, np.pi / 2)]
    if op.kind == "shifted_square":
        # same story: the source on the far side of the vertex ties the
        # residual; search the half-line holding the minimal-norm branch
        return [(-10.0, op.a)] if op.a > 0 else [(op.a, 10.0)]
    return BOX


TABLE1_ROWS = [
    Scalar1DOperator("square"),
    Scalar1DOperator("shifted_square", a=3.0),
    Scalar1DOperator("relu"),
    Scalar1DOperator("hard_threshold", a=2.0),
    Scalar1DOperator("soft_threshold", a=1.0),
    Scalar1DOperator("tanh"),
    Scalar1DOperator("sign"),
    Scalar1DOperator("sign_eps", eps=0.5),
    Scalar1DOperator("exp"),
    Scalar1DOperator("sine"),
]


@pytest.mark.parametrize("op", TABLE1_ROWS, ids=lambda o: o.kind)
def test_closed_form_matches_oracle(op):
    rng = np.random.default_rng(zlib.crc32(op.kind.encode()))
    oracle = GridOracle(op.as_vector_operator(), oracle_box(op), STEP)
    for _ in range(10):
        w = sample_w(op, rng, avoid=row_break_points(op))
        cf = closed_form_pinv(op, w)
        if not cf.defined:
            continue
        best = oracle.query(np.array([w]))
        assert min(abs(v - best.v[0]) for v in cf.values) <= 2 * STEP, \
            "%s at w=%r: closed form %r vs oracle %r" % (op.kind, w, cf.values, best.v)


@pytest.mark.parametrize("op", TABLE1_ROWS, ids=lambda o: o.kind)
def test_closed_form_mp2(op):
    rng = np.random.default_rng(1 + zlib.crc32(op.kind.encode()))
    for _ in range(20):
        w = sample_w(op, rng)
        cf = closed_form_pinv(op, w)
        if not cf.defined:
            continue
        for v in cf.values:
            gtv = closed_form_pinv(op, float(op.forward(np.array([v]))[0]))
            assert any(abs(u - v) <= 1e-9 for u in gtv.values)


@pytest.mark.parametrize("op", [r for r in TABLE1_ROWS if r.kind != "square"],
                         ids=lambda o: o.kind)
def test_unique_rows_reject_perturbation(op):
    # moving the closed form by 3 grid steps must be strictly worse in the
    # (residual, norm) lexicographic order
    rng = np.random.default_rng(2 + zlib.crc32(op.kind.encode()))
    for _ in range(10):
        w = sample_w(op, rng, avoid=row_break_points(op))
        cf = closed_form_pinv(op, w)
        if not cf.defined:
            continue
        v = cf.value
        res = abs(float(op.forward(np.array([v]))[0]) - w)
        for delta in (3 * STEP, -3 * STEP):
            u = v + delta
            res_u = abs(float(op.forward(np.array([u]))[0]) - w)
            worse = (res_u > res + 1e-12) or (res_u >= res - 1e-12
                                              and abs(u) > abs(v) + 1e-12)
            assert worse, "%s at w=%r tolerates perturbation %r" % (op.kind, w, delta)


def test_check_pseudo_inverse_tanh_bijection():
    op = Scalar1DOperator("tanh")
    T = op.as_vector_operator()
    G = pinv1d_operator(op)
    samples = [[w] for w in np.linspace(-0.9, 0.9, 7)]
    reports = check_pseudo_inverse(T, G, samples, BOX, STEP)
    for r in reports:
        assert r.residual <= 1e-12
        assert r.mp1_residual <= 1e-12
        assert r.mp2_residual <= 1e-12
        assert r.bas_ok and r.mp2_ok


def test_check_pseudo_inverse_flags_bad_candidate():
    op = Scalar1DOperator("relu")
    T = op.as_vector_operator()
    bad = VectorOperator.from_scalar(lambda w: np.maximum(w, 0.0) + 1.0)
    reports = check_pseudo_inverse(T, bad, [[2.0]], BOX, STEP)
    assert not reports[0].bas_ok


SUITE_BOX, SUITE_STEP = [(-6.0, 6.0)], 1e-2


def test_check_pseudo_inverse_accepts_an_exact_candidate_off_the_grid():
    # G(-1.9e-4) = -1.00019 has residual 0 up to rounding; every grid point
    # has residual >= 1.9e-4, so none may undercut its norm
    op = Scalar1DOperator("soft_threshold", a=1.0)
    report, = check_pseudo_inverse(op.as_vector_operator(), pinv1d_operator(op),
                                   [[-1.9e-4]], SUITE_BOX, SUITE_STEP)
    assert report.residual <= 1e-15 and report.bas_ok
    assert report.norm_gap == -np.inf


def _hard_threshold_branch_swapped(w):
    aw = np.abs(w)
    return np.sign(w) * (aw > 1.0) * np.where(aw > 2.0, 2.0, aw)


@pytest.mark.parametrize("op, mutant", [
    (Scalar1DOperator("soft_threshold", a=1.0),
     lambda w: np.sign(w) * (np.abs(w) + 1.0) + 0.1),
    (Scalar1DOperator("hard_threshold", a=2.0), _hard_threshold_branch_swapped),
    (Scalar1DOperator("relu"), lambda w: w),                 # no clamp at 0
    (Scalar1DOperator("sign_eps", eps=0.5), lambda w: 0.5 * w),   # no clip
])
def test_check_pseudo_inverse_rejects_mutated_closed_forms(op, mutant):
    targets = [[w] for w in (-3.0, -1.5, -0.4, -1.9e-4, 0.3, 1.2, 2.5)]
    T = op.as_vector_operator()
    good = check_pseudo_inverse(T, pinv1d_operator(op), targets, SUITE_BOX, SUITE_STEP)
    assert all(r.bas_ok for r in good)
    bad = check_pseudo_inverse(T, VectorOperator.from_scalar(mutant), targets,
                               SUITE_BOX, SUITE_STEP)
    assert not all(r.bas_ok for r in bad)


def test_mp2_counterexample_from_constant_operator():
    # V = {-1, 1}, W = {0, 1}, T constant 1; S(0) = -1, S(1) = 1 satisfies
    # BAS but violates MP2
    points = np.array([[-1.0], [1.0]])
    values = np.array([[1.0], [1.0]])
    S = {0.0: -1.0, 1.0: 1.0}
    for w in (0.0, 1.0):
        admissible = finite_bas_set(points, values, [w])
        assert set(admissible) == {0, 1}          # BAS allows either source
        assert S[w] in points[admissible]
    # MP2: S T S(0) = S(1) = 1 != -1 = S(0)
    T_of = lambda v: 1.0
    assert S[T_of(S[0.0])] != S[0.0]


def test_expanding_domain_exp():
    T = Scalar1DOperator("exp").as_vector_operator()
    res = expanding_domain_pinv(T, [np.exp(2.0)], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
                                stabilization_window=3, step=STEP)
    assert res.stabilized
    assert abs(res.value[0] - 2.0) <= 2 * STEP


def test_expanding_domain_identity():
    T = VectorOperator.identity(1)
    res = expanding_domain_pinv(T, [5.0], [1, 2, 3, 4, 5, 6, 7],
                                stabilization_window=3, step=STEP)
    assert res.stabilized
    assert abs(res.value[0] - 5.0) <= 2 * STEP


def test_expanding_domain_halving_never_stabilizes():
    T = Scalar1DOperator("linear", c=0.5).as_vector_operator()
    res = expanding_domain_pinv(T, [10.0], [1, 2, 3, 4, 5, 6],
                                stabilization_window=3, step=STEP)
    assert not res.stabilized
    # each restricted problem is solved at the boundary
    for r, v in zip([1, 2, 3, 4, 5, 6], res.history):
        assert abs(v[0] - r) <= 2 * STEP


def test_expanding_domain_rejects_bad_radii():
    T = VectorOperator.identity(1)
    with pytest.raises(ValueError):
        expanding_domain_pinv(T, [1.0], [2, 2, 3], 2, STEP)


def test_discontinuity_of_unique_pseudo_inverse():
    # T(v) = (v-2)^3 - (v-2) on [-4, 4]: the pseudo-inverse jumps past the
    # local maximum of T; locate the jump by bisection
    op = Scalar1DOperator("custom", fn=lambda v: (v - 2.0) ** 3 - (v - 2.0))
    oracle = GridOracle(op.as_vector_operator(), [(-4.0, 4.0)], STEP)

    def pinv(w):
        # three sources tie the residual exactly; group grid near-ties so
        # the norm tie-break picks among all of them
        w = np.array([w])
        grid = oracle.factors[0]
        _, _, (j,), _, _ = grid.scan([w], [oracle.query(w).residual + 5 * STEP])
        return grid.point(j)[0]

    lo, hi = 0.2, 0.6
    assert pinv(lo) < 2.0 < pinv(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if pinv(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    assert pinv(hi) - pinv(lo) > 1.0
    w_star = 2.0 / (3.0 * np.sqrt(3.0))          # image of the local max
    assert abs(0.5 * (lo + hi) - w_star) < 2e-2


def test_domain_restriction_divergence_exhaustive():
    # restricting the domain forces every {1,2}-inverse pair to differ on
    # image elements that the restriction no longer reaches
    T = FiniteOperator(4, 3, (0, 1, 2, 2))
    T1 = FiniteOperator(2, 3, (0, 1))            # restriction to ids {0, 1}
    lost = {2}                                   # T(V) minus T1(V1)
    inv_full = enumerate_one_two_inverses(T)
    inv_restr = enumerate_one_two_inverses(T1)
    assert len(inv_full) > 0 and len(inv_restr) > 0
    for g in inv_full:
        for g1 in inv_restr:
            for w in lost:
                assert g[w] != g1[w]


def test_injective_compact_inverse_is_lipschitz_like():
    # strictly increasing operator on a compact interval with convex image:
    # the pseudo-inverse (true inverse after projecting onto the image)
    # moves by at most 1/min-slope times the target move
    op = Scalar1DOperator("custom", fn=lambda v: v + 0.5 * np.sin(v))
    oracle = GridOracle(op.as_vector_operator(), [(-3.0, 3.0)], STEP)
    slope_bound = 2.0                            # 1 / (1 - 0.5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.uniform(-2.0, 2.0)
        h = rng.uniform(1e-3, 0.2)
        a = oracle.query(np.array([w])).v[0]
        b = oracle.query(np.array([w + h])).v[0]
        assert abs(b - a) <= slope_bound * h + 2 * STEP


def test_pinv_domain_metadata():
    lo, hi, closed = Scalar1DOperator("tanh").pinv_domain()
    assert (lo, hi, closed) == (-1.0, 1.0, False)
    lo, hi, closed = Scalar1DOperator("sign").pinv_domain()
    assert (lo, hi, closed) == (-0.5, 0.5, True)
    lo, hi, _ = Scalar1DOperator("relu").pinv_domain()
    assert np.isinf(lo) and np.isinf(hi)


def test_bas_selection_implies_mp1():
    # pick ANY admissible best-approximate value for each target on a finite
    # model: values on the image must be exact sources, which is the first
    # inverse axiom (and makes the second one immediate on the image; off
    # the image it can genuinely fail -- see the counterexample test)
    rng = np.random.default_rng(12)
    for _ in range(30):
        nv, nw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        points_v = rng.normal(scale=2.0, size=(nv, 2))
        points_w = rng.normal(scale=2.0, size=(nw, 2))
        table = rng.integers(0, nw, size=nv)
        values = points_w[table]                     # T(v_i)
        # a BAS selection: for each w pick a random admissible index
        sel = np.array([rng.choice(finite_bas_set(points_v, values, w))
                        for w in points_w])
        for j in set(int(t) for t in table):
            assert int(table[sel[j]]) == j           # T(S(w_j)) = w_j


def test_linear_kind_closed_forms():
    assert closed_form_pinv(Scalar1DOperator("linear", c=2.0), 3.0).values == (1.5,)
    # the zero map sends everything to 0; the least-norm of the full tie is 0
    zero = Scalar1DOperator("linear", c=0.0)
    assert closed_form_pinv(zero, 5.0).values == (0.0,)
    best = grid_bas_oracle(zero.as_vector_operator(), [5.0], BOX, STEP)
    assert abs(best.v[0]) <= STEP
