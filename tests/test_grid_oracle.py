"""The grid BAS oracle: one blockwise scan, per-factor search on products.

`Grid.scan` reads a grid in row-major blocks of GRID_CHUNK points and never
holds it whole. `GridOracle.query` scans each factor of a componentwise
product on its own grid, `check_pseudo_inverse` takes both of a sample's
bounds from one scan of the joint grid, and `expanding_domain_pinv` and
`projection_after_operator_pinv` scan one grid per search. The joint-grid
scans in helpers.py hold the grid whole, and the searches must give their
answers at any block size.
"""

import ast
import inspect
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from geninv import (Scalar1DOperator, Grid, GridOracle, VectorOperator, check_pseudo_inverse,
                    product_operator, pinv1d_operator, cascade_pinv, Box, L2Ball, Halfspace,
                    expanding_domain_pinv, projection_after_operator_pinv)
from geninv import cli, pseudo_inverse
from geninv.core_ops import DimensionMismatch

import helpers
from helpers import (grid_dense, grid_query_dense, check_pseudo_inverse_two_scan,
                     expanding_domain_dense, projection_after_operator_two_step, traced_peak)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# kinds and parameters on which every value, residual and square is an
# exact dyadic rational, so the joint and per-factor scans see the same ties
EXACT_PARTS = st.one_of(
    st.just(("relu", {})), st.just(("sign", {})), st.just(("square", {})),
    st.tuples(st.just("hard_threshold"), st.fixed_dictionaries(
        {"a": st.sampled_from([0.5, 1.0, 1.5, 2.0])})),
    st.tuples(st.just("soft_threshold"), st.fixed_dictionaries(
        {"a": st.sampled_from([0.25, 0.5, 1.0])})),
    st.tuples(st.just("sign_eps"), st.fixed_dictionaries(
        {"eps": st.sampled_from([0.5, 1.0, 2.0])})),
    st.tuples(st.just("linear"), st.fixed_dictionaries(
        {"c": st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 2.0])})),
    st.tuples(st.just("shifted_square"), st.fixed_dictionaries(
        {"a": st.sampled_from([-1.0, -0.5, 0.5, 1.0])})))

# every scalar kind with a closed form, with float parameters
FLOAT_PARTS = st.one_of(
    st.sampled_from([("relu", {}), ("sign", {}), ("square", {}), ("tanh", {}),
                     ("exp", {}), ("sine", {})]),
    st.tuples(st.sampled_from(["hard_threshold", "soft_threshold"]),
              st.fixed_dictionaries({"a": st.floats(0.0, 2.5)})),
    st.tuples(st.just("sign_eps"), st.fixed_dictionaries({"eps": st.floats(0.1, 3.0)})),
    st.tuples(st.just("linear"), st.fixed_dictionaries({"c": st.floats(-3.0, 3.0)})),
    st.tuples(st.just("shifted_square"), st.fixed_dictionaries(
        {"a": st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)})))


def product_of(parts):
    return product_operator([Scalar1DOperator(kind, **params).as_vector_operator()
                             for kind, params in parts])


@st.composite
def exact_cases(draw):
    parts = draw(st.lists(EXACT_PARTS, min_size=1, max_size=3))
    step = draw(st.sampled_from([0.5, 0.25, 0.125]))
    box = [(-draw(st.integers(0, 8)) / 2, draw(st.integers(0, 8)) / 2) for _ in parts]
    w = [draw(st.integers(-80, 80)) / 16 for _ in parts]
    return parts, box, step, w


@st.composite
def float_cases(draw):
    parts = draw(st.lists(FLOAT_PARTS, min_size=1, max_size=3))
    step = draw(st.sampled_from({1: [0.003, 0.01, 0.05], 2: [0.01, 0.02, 0.05],
                                 3: [0.05, 0.1]}[len(parts)]))
    box = [(lo, lo + draw(st.floats(0.0, 4.0)))
           for lo in draw(st.lists(st.floats(-3.0, 0.0), min_size=len(parts),
                                   max_size=len(parts)))]
    w = [draw(st.floats(-3.0, 3.0)) for _ in parts]
    return parts, box, step, w


@given(exact_cases())
@settings(max_examples=150, deadline=None)
def test_query_matches_joint_scan_on_exact_grids(case):
    parts, box, step, w = case
    T = product_of(parts)
    got = GridOracle(T, box, step).query(w)
    v, residual, norm, index, _, _ = grid_query_dense(T, box, step, w)
    assert bits(got.v) == bits(v)
    assert bits(got.residual) == bits(residual) and bits(got.norm) == bits(norm)
    assert got.index == index


@given(float_cases())
@example(([("linear", {"c": 1.0}), ("relu", {})], [(-2.0, 2.0)] * 2, 0.01,
          [-1.885, -2.2307702229625077]))        # a target between two grid points
@settings(max_examples=120, deadline=None)
def test_query_matches_joint_scan_up_to_collapsed_sums(case):
    parts, box, step, w = case
    T = product_of(parts)
    oracle = GridOracle(T, box, step)
    got = oracle.query(w)
    v, residual, norm, index, res, norms = grid_query_dense(T, box, step, w)
    # residual and norm at the chosen point come from the joint scan's expression
    assert bits(got.residual) == bits(res[got.index])
    assert bits(got.norm) == bits(norms[got.index])
    assert bits(got.v) == bits(grid_dense(T, box, step)[0][got.index])
    if got.index == index:
        assert bits(got.v) == bits(v) and bits(got.residual) == bits(residual)
        return
    # Only the documented float case may separate them: the joint sums of
    # squares of both points round to one residual, while per factor the
    # chosen point is no worse in residual, and where all tie, in norm.
    event("joint sums collapsed")
    assert res[got.index] == res[index]
    factors = [grid_dense(f.T, [b], step) for f, b in zip(oracle.factors, box)]
    sizes = [len(points) for points, _, _ in factors]
    mine, theirs = np.unravel_index(got.index, sizes), np.unravel_index(index, sizes)
    r_mine, r_theirs, n_mine, n_theirs = [], [], [], []
    for (_, values, norms), wf, i, j in zip(factors, w, mine, theirs):     # scalar factors
        r_mine.append(abs(values[i, 0] - wf))
        r_theirs.append(abs(values[j, 0] - wf))
        n_mine.append(norms[i])
        n_theirs.append(norms[j])
    assert all(a <= b for a, b in zip(r_mine, r_theirs))
    if r_mine == r_theirs:
        assert all(a <= b for a, b in zip(n_mine, n_theirs))


def test_query_on_bench_style_targets_is_byte_identical():
    """Two-factor products with targets whose answers lie inside the box,
    printed as `geninv oracle` prints them."""
    rng = np.random.default_rng(2024)
    samplers = {
        "relu": lambda: ({}, rng.uniform(-3, 3)),
        "soft_threshold": lambda: ({"a": rng.uniform(0.5, 1.5)}, rng.uniform(-2.3, 2.3)),
        "hard_threshold": lambda: ({"a": rng.uniform(1.0, 2.0)}, rng.uniform(-3.5, 3.5)),
        "sign_eps": lambda: ({"eps": rng.uniform(0.5, 2.0)}, rng.uniform(-1.5, 1.5)),
        "linear": lambda: ({"c": rng.uniform(0.5, 2.0)}, rng.uniform(-1.7, 1.7)),
    }
    kinds = sorted(samplers)
    for _ in range(12):
        pair = [kinds[i] for i in rng.choice(len(kinds), 2)]
        drawn = [samplers[k]() for k in pair]
        parts = [(k, params) for k, (params, _) in zip(pair, drawn)]
        w = [wi for _, wi in drawn]
        T = product_of(parts)
        got = GridOracle(T, [(-4.0, 4.0)] * 2, 0.01).query(w)
        v, residual, norm, _, _, _ = grid_query_dense(T, [(-4.0, 4.0)] * 2, 0.01, w)
        assert (json.dumps({"v": [float(x) for x in got.v], "residual": got.residual,
                            "norm": got.norm})
                == json.dumps({"v": [float(x) for x in v], "residual": residual,
                               "norm": norm}))


def test_product_operator_flattens_and_records_factors():
    relu, tanh, sine = (Scalar1DOperator(k).as_vector_operator()
                        for k in ("relu", "tanh", "sine"))
    inner = product_operator([relu, tanh])
    outer = product_operator([inner, sine])
    assert outer.factors == (relu, tanh, sine)
    assert relu.factors == (relu,)
    x = np.array([[-1.0, 0.5, 2.0], [3.0, -0.2, -1.0]])
    flat = product_operator([relu, tanh, sine])
    assert np.array_equal(outer.apply_batch(x), flat.apply_batch(x))


def test_the_factor_grid_is_the_joint_grid_for_a_single_factor():
    T = Scalar1DOperator("relu").as_vector_operator()
    factor, joint = GridOracle(T, [(-1.0, 1.0)], 0.5).factors[0], Grid(T, (-1.0, 1.0), 0.5)
    assert np.array_equal([factor.point(k)[0] for k in range(5)], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert factor.T is joint.T and len(factor.axes) == len(joint.axes) == 1
    assert bits(factor.axes[0]) == bits(joint.axes[0])
    targets = [[-0.75], [0.0], [0.3], [2.0]]
    for bounds in (None, [0.1, 0.0, 0.6, 0.5]):
        for a, b in zip(factor.scan(targets, bounds), joint.scan(targets, bounds)):
            assert bits(a) == bits(b)


def test_scan_with_bounds_reads_the_joint_grid():
    T = product_of([("relu", {}), ("soft_threshold", {"a": 1.0})])
    grid = Grid(T, [(-2.0, 2.0)] * 2, 0.25)
    points, values, _ = grid_dense(T, [(-2.0, 2.0)] * 2, 0.25)
    w = np.array([-0.5, 0.1])
    res = np.linalg.norm(values - w, axis=1)
    least, norm, index, residual, value = grid.scan([w] * 3, [res.min() + 0.2, 0.6,
                                                              res.min() - 1e-3])
    tie = np.flatnonzero(res <= res.min() + 0.2)
    j = tie[np.argmin(np.linalg.norm(points[tie], axis=1))]
    assert index[0] == j and np.array_equal(grid.point(index[0]), points[j])
    assert bits(residual[0]) == bits(res[j]) and bits(value[0]) == bits(values[j])
    assert norm[1] == np.linalg.norm(points[res <= 0.6], axis=1).min()
    assert norm[2] == np.inf and index[2] == -1           # no point qualifies
    assert bits(least) == bits([res.min()] * 3)
    oracle = GridOracle(T, [(-2.0, 2.0)] * 2, 0.25)
    for query in (oracle.query, lambda u: grid.scan([u], [1.0])):
        with pytest.raises(DimensionMismatch):
            query([0.5])


def test_the_oracle_holds_factor_grids_only():
    for T in (Scalar1DOperator("relu").as_vector_operator(),
              product_of([("relu", {}), ("sign", {})])):
        oracle = GridOracle(T, [(-1.0, 1.0)] * T.dim_in, 0.5)
        assert all(isinstance(f, Grid) for f in oracle.factors)
        for name in ("grid", "points", "values", "norms", "within"):
            assert not hasattr(oracle, name)


def test_a_grid_keeps_its_operator_and_axes_only():
    grid = Grid(product_of([("relu", {}), ("sign", {})]), [(-1.0, 1.0)] * 2, 0.5)
    assert sorted(vars(grid)) == ["T", "axes"]
    for name in ("points", "values", "norms", "residuals", "least_norm", "within"):
        assert not hasattr(Grid, name)


@st.composite
def single_factor_cases(draw):
    """An operator that is not a product (one scalar kind, or a small matrix,
    bare or under tanh), with a box, a step and a target."""
    if draw(st.booleans()):
        kind, params = draw(FLOAT_PARTS)
        T, step = Scalar1DOperator(kind, **params).as_vector_operator(), 0.01
    else:
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        data = draw(st.lists(st.floats(-2.0, 2.0), min_size=m * n, max_size=m * n))
        T = VectorOperator.from_matrix(np.reshape(data, (m, n)))
        step = {1: 0.02, 2: 0.1, 3: 0.25}[n]
        if draw(st.booleans()):
            T = VectorOperator.pointwise(np.tanh, m).compose(T)
    box = [(lo, lo + draw(st.floats(0.0, 3.0)))
           for lo in draw(st.lists(st.floats(-3.0, 0.0), min_size=T.dim_in,
                                   max_size=T.dim_in))]
    w = draw(st.lists(st.floats(-3.0, 3.0), min_size=T.dim_out, max_size=T.dim_out))
    return T, box, step, np.array(w)


@given(single_factor_cases())
@settings(max_examples=80, deadline=None)
def test_query_is_the_scan_at_the_least_residual_on_one_factor(case):
    T, box, step, w = case
    grid = Grid(T, box, step)
    got = GridOracle(T, box, step).query(w)
    least, norm, (index,), (residual,), _ = grid.scan([w])
    assert got.index == index
    assert bits(got.v) == bits(grid.point(index))
    assert bits(got.residual) == bits(residual) and bits(got.norm) == bits(norm)
    assert bits(residual) == bits(least)


def test_nine_output_columns_take_numpys_row_norm():
    # from 8 columns on the residuals are numpy's pairwise row sums
    A = np.random.default_rng(5).normal(size=(9, 2))
    T = VectorOperator.from_matrix(A)
    grid = Grid(T, [(-1.0, 1.0)] * 2, 0.25)
    w = np.random.default_rng(6).normal(size=9)
    (P,) = Grid._blocks(grid.axes, pseudo_inverse.GRID_CHUNK)     # 81 points, one block
    values = T.apply_batch(P)
    res = np.linalg.norm(values - w, axis=1)
    assert bits(pseudo_inverse._residuals(values, w)) == bits(res)
    least, _, (index,), (residual,), _ = grid.scan([w])
    assert bits(least) == bits(res.min()) and bits(residual) == bits(res[index])
    best = GridOracle(T, [(-1.0, 1.0)] * 2, 0.25).query(w)
    assert bits(best.residual) == bits(res[best.index])


def test_oracle_rejects_an_operator_that_is_nan_on_its_grid():
    # a NaN residual fails every bound, so no grid point could be chosen;
    # the grid is first read by a query
    T = Scalar1DOperator("custom", fn=lambda v: np.where(v < 0.0, np.nan, v))
    oracle = GridOracle(T.as_vector_operator(), [(-1.0, 1.0)], 0.5)
    with pytest.raises(ValueError, match="NaN"):
        oracle.query([0.5])
    GridOracle(T.as_vector_operator(), [(0.0, 1.0)], 0.5).query([0.5])


def test_cli_oracle_reports_an_operator_that_is_nan_on_its_grid(tmp_path, capsys, monkeypatch):
    T = Scalar1DOperator("custom", fn=lambda v: np.where(v < 0.0, np.nan, v))
    monkeypatch.setattr(cli, "load_vector_operator", lambda obj: T.as_vector_operator())
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"kind": "relu"}))
    rc = cli.main(["oracle", "--op", str(op), "--w", "0.5", "--box", "-1", "1", "--step", "0.5"])
    assert rc == 2 and capsys.readouterr() == ("", "input error: T is NaN at a grid point\n")


def test_three_factor_oracle_at_step_001():
    parts = [("relu", {}), ("soft_threshold", {"a": 1.0}), ("linear", {"c": 2.0})]
    oracle = GridOracle(product_of(parts), [(-4.0, 4.0)] * 3, 0.01)
    assert [[len(axis) for axis in f.axes] for f in oracle.factors] == [[801]] * 3
    best = oracle.query([1.5, -0.7, 1.0])
    assert np.allclose(best.v, [1.5, -1.7, 0.5], atol=0.01)
    assert best.index == int(np.ravel_multi_index([550, 230, 450], (801,) * 3))
    # the joint grid of 801^3 points is past MAX_GRID_POINTS: refused unallocated
    box = [(-4.0, 4.0)] * 3

    def refuse_both():
        for joint in (lambda: Grid(oracle.T, box, 0.01),
                      lambda: check_pseudo_inverse(oracle.T, oracle.T, [[0.0] * 3], box, 0.01)):
            with pytest.raises(ValueError, match="too large"):
                joint()
    _, peak = traced_peak(refuse_both)
    assert peak < 1 << 20


@pytest.mark.parametrize("half, points", [("100000", 200000001),
                                          ("1000000000", 2000000000001)])
def test_cli_oracle_refuses_a_long_axis_before_allocating_it(tmp_path, capsys, half, points):
    # np.arange of the axis alone would ask for 1.49 GiB, or 14.6 TiB
    op = tmp_path / "relu.json"
    op.write_text(json.dumps({"kind": "relu"}))
    rc, peak = traced_peak(lambda: cli.main(["oracle", "--op", str(op), "--w", "0.5",
                                              "--box", "-" + half, half, "--step", "0.001"]))
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "input error: grid of %d points is too large\n" % points
    assert peak < 1 << 20


def test_cli_oracle_on_a_three_dimensional_product(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"kind": "componentwise", "parts": [
        {"kind": "relu"}, {"kind": "hard_threshold", "a": 1.5}, {"kind": "sign_eps", "eps": 0.5}]}))
    rc = cli.main(["oracle", "--op", str(op), "--w=1.2,2.5,-0.3",
                   "--box", "-4", "4", "--step", "0.01"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["v"], [1.2, 2.5, -0.15], atol=1e-9)
    assert out["residual"] <= 1e-9


def test_cli_oracle_reports_a_grid_past_the_cap_as_an_input_error(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"kind": "matrix", "rows": 1, "cols": 3,
                              "data": [1.0, 2.0, 3.0]}))
    for box, step in ((["-4", "4"], "0.01"), (["-1", "1"], "-0.5")):
        rc = cli.main(["oracle", "--op", str(op), "--w=1.0", "--box", *box,
                       "--step", step])
        assert rc == 2 and capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# check_pseudo_inverse: one blockwise scan against two joint-grid scans per sample
# ---------------------------------------------------------------------------

UNIQUE_PARTS = st.one_of(
    st.sampled_from([("relu", {}), ("sine", {})]),
    st.tuples(st.sampled_from(["hard_threshold", "soft_threshold"]),
              st.fixed_dictionaries({"a": st.floats(0.0, 2.0)})),
    st.tuples(st.just("sign_eps"), st.fixed_dictionaries({"eps": st.floats(0.2, 2.0)})),
    st.tuples(st.just("linear"), st.fixed_dictionaries(
        {"c": st.floats(0.3, 2.0) | st.floats(-2.0, -0.3)})))


def assert_reports_equal(new, old):
    assert len(new) == len(old)
    for r, o in zip(new, old):
        fields = (r.w, r.v, r.residual, r.norm, r.mp1_residual, r.mp2_residual,
                  r.bas_ok, r.mp2_ok, r.residual_gap, r.norm_gap)
        for a, b in zip(fields, o):
            if isinstance(b, bool):
                assert a is b
            else:
                assert bits(a) == bits(b)


@given(st.lists(UNIQUE_PARTS, min_size=1, max_size=3), st.floats(0.5, 2.0),
       st.integers(0, 2 ** 32 - 1))
@example([("soft_threshold", {"a": 1.0})], 1.0, 0)   # exact off-grid candidates:
@settings(max_examples=40, deadline=None)            # norm gap -inf on every sample
def test_check_pseudo_inverse_matches_two_scans_on_products(parts, skew, seed):
    step = 0.02 if len(parts) < 3 else 0.1
    ops = [Scalar1DOperator(kind, **params) for kind, params in parts]
    T = product_operator([op.as_vector_operator() for op in ops])
    G = product_operator([pinv1d_operator(op) for op in ops])
    if skew != 1.0:                               # a wrong candidate too
        G = G.scale(skew)
    samples = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(5, len(ops)))
    box = [(-2.5, 2.5)] * len(ops)
    assert_reports_equal(check_pseudo_inverse(T, G, samples, box, step),
                         check_pseudo_inverse_two_scan(T, G, samples, box, step))


@given(st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0),
       st.sampled_from([0.02, 0.05]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_check_pseudo_inverse_matches_two_scans_on_cascades(radius, margin, shrink, step,
                                                             seed):
    outer, inner = radius + margin, shrink * radius / 2.0   # box, ball, box, nested
    sets = [Box(np.full(2, -outer), np.full(2, outer)), L2Ball(np.zeros(2), radius),
            Box(np.full(2, -inner), np.full(2, inner))]
    cas = cascade_pinv(sets)
    samples = np.random.default_rng(seed).normal(scale=2.0, size=(6, 2))
    box = [(-2.5, 2.5)] * 2
    for G in (cas.pseudo_inverse, VectorOperator.identity(2)):
        assert_reports_equal(check_pseudo_inverse(cas.cascade, G, samples, box, step),
                             check_pseudo_inverse_two_scan(cas.cascade, G, samples, box, step))


def test_the_certificate_does_not_pass_a_candidate_at_infinity():
    # tanh(inf) = 1 beats every grid residual, so no grid point is within
    # the candidate's bound: norm_gap is inf - inf, not -inf
    T = Scalar1DOperator("tanh").as_vector_operator()
    G = VectorOperator.from_scalar(lambda w: np.where(w >= 1.0, np.inf, 0.0))
    with np.errstate(invalid="ignore"):                 # MP2 takes inf - inf
        (report,) = check_pseudo_inverse(T, G, [1.0], (-4.0, 4.0), 0.01)
    assert report.residual == 0.0 and report.norm == np.inf
    assert np.isnan(report.norm_gap) and not report.bas_ok


def bench_cascade():
    """The benchmark's cascade: box [-2, 2]^2, ball of radius 1.5, box [-1, 1]^2."""
    return cascade_pinv([Box(np.full(2, -2.0), np.full(2, 2.0)), L2Ball(np.zeros(2), 1.5),
                         Box(np.full(2, -1.0), np.full(2, 1.0))])


def test_certificate_applies_each_operator_to_all_samples_at_once():
    cas, calls = bench_cascade(), []

    def counted(op, name):
        return VectorOperator(op.dim_in, op.dim_out,
                              lambda b: calls.append((name, b.copy(order="K"))) or op.fn(b))
    samples = np.random.default_rng(3).normal(scale=2.0, size=(16, 2))
    reports = check_pseudo_inverse(counted(cas.cascade, "T"), counted(cas.pseudo_inverse, "G"),
                                   samples, [(-2.5, 2.5)] * 2, 0.02)
    # G and T on the samples, four calls, then T once on each block of the grid
    chunk = pseudo_inverse.GRID_CHUNK
    full, rest = divmod(251 ** 2, chunk)
    assert [(name, len(b)) for name, b in calls] == (
        [("G", 16), ("T", 16), ("G", 16), ("T", 16)] + [("T", chunk)] * full + [("T", rest)])
    blocks = [b for _, b in calls[4:]]
    assert all(b.flags.f_contiguous for b in blocks)
    assert bits(np.concatenate(blocks)) == bits(grid_dense(cas.cascade, [(-2.5, 2.5)] * 2,
                                                           0.02)[0])
    assert all(r.bas_ok and r.mp2_ok for r in reports)


def test_certificate_peak_memory_on_the_bench_cascade():
    # one block of GRID_CHUNK points at a time: its two coordinate columns,
    # values, norms, one residual column and the projections' transients,
    # 1.87 MB; 4.10 MB with the whole 251^2-point grid held
    cas = bench_cascade()
    samples = np.random.default_rng(3).normal(scale=2.0, size=(16, 2))
    reports, peak = traced_peak(lambda: check_pseudo_inverse(
        cas.cascade, cas.pseudo_inverse, samples, [(-2.5, 2.5)] * 2, 0.02))
    assert len(reports) == 16 and peak < 2 * 2 ** 20


def test_certificate_peak_memory_on_a_three_dimensional_product():
    # 161^3 = 4,173,281 points: 434 MB as one joint grid with its values
    # and norms, 2.2 MB a block at a time
    ops = [Scalar1DOperator(kind) for kind in ("relu", "tanh", "sine")]
    T = product_operator([op.as_vector_operator() for op in ops])
    G = product_operator([pinv1d_operator(op) for op in ops])
    samples = np.random.default_rng(4).uniform(-0.9, 0.9, size=(4, 3))
    reports, peak = traced_peak(lambda: check_pseudo_inverse(T, G, samples,
                                                             [(-4.0, 4.0)] * 3, 0.05))
    assert len(reports) == 4 and all(r.bas_ok and r.mp2_ok for r in reports)
    assert peak < 16 * 2 ** 20


def in_blocks(chunk, T, box, step, call):
    """call() with GRID_CHUNK set to `chunk`; None: one point more than
    twice the length of the last axis of T's grid on box, so blocks end
    inside rows."""
    if chunk is None:
        chunk = 2 * len(Grid(T, box, step).axes[-1]) + 1
    with mock.patch.object(pseudo_inverse, "GRID_CHUNK", chunk):
        return call()


def certificate_in_blocks(chunk, T, G, samples, box, step):
    """check_pseudo_inverse with GRID_CHUNK set to `chunk`, as in_blocks."""
    return in_blocks(chunk, T, box, step, lambda: check_pseudo_inverse(T, G, samples, box, step))


@given(st.lists(UNIQUE_PARTS, min_size=1, max_size=3), st.floats(0.5, 2.0),
       st.sampled_from([1, 7, None]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_blockwise_certificate_matches_two_scans_on_products(parts, skew, chunk, seed):
    step = {1: 0.05, 2: 0.25, 3: 0.5}[len(parts)]
    ops = [Scalar1DOperator(kind, **params) for kind, params in parts]
    if len(ops) == 1:                             # a scalar kind, not a product
        T, G = ops[0].as_vector_operator(), pinv1d_operator(ops[0])
    else:
        T = product_operator([op.as_vector_operator() for op in ops])
        G = product_operator([pinv1d_operator(op) for op in ops])
    if skew != 1.0:                               # a wrong candidate too
        G = G.scale(skew)
    samples = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(5, len(ops)))
    box = [(-2.5, 2.5)] * len(ops)
    assert_reports_equal(certificate_in_blocks(chunk, T, G, samples, box, step),
                         check_pseudo_inverse_two_scan(T, G, samples, box, step))


@given(st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.floats(0.1, 1.0),
       st.sampled_from([1, 7, None]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_blockwise_certificate_matches_two_scans_on_cascades(radius, margin, shrink, chunk,
                                                             seed):
    outer, inner = radius + margin, shrink * radius / 2.0   # box, ball, box, nested
    sets = [Box(np.full(2, -outer), np.full(2, outer)), L2Ball(np.zeros(2), radius),
            Box(np.full(2, -inner), np.full(2, inner))]
    cas = cascade_pinv(sets)
    samples = np.random.default_rng(seed).normal(scale=2.0, size=(6, 2))
    box = [(-2.5, 2.5)] * 2
    for G in (cas.pseudo_inverse, VectorOperator.identity(2)):
        assert_reports_equal(certificate_in_blocks(chunk, cas.cascade, G, samples, box, 0.25),
                             check_pseudo_inverse_two_scan(cas.cascade, G, samples, box, 0.25))


# ---------------------------------------------------------------------------
# the oracle, the expanding domain and projection after operator, in blocks
# ---------------------------------------------------------------------------

CHUNKS = st.sampled_from([1, 7, None])


def assert_bas_up_to_rounding(res, norms, index, residual, bound=None):
    """Caveat (a): the point at `index`, picked from block values that may
    round a row differently than the joint batch, is the joint scan's pick
    up to a few ulps of the joint residuals `res`, and its `residual` is
    res[index] up to as many. Bound None: the least residual."""
    tol = 1e-12 * (1.0 + res.max())
    bound = res.min() if bound is None else bound
    assert abs(residual - res[index]) <= tol and res[index] <= bound + tol
    # every point before it in (norm, index) order was out of its bound
    earlier = (norms < norms[index]) | ((norms == norms[index]) & (np.arange(len(res)) < index))
    assert (res[earlier] > bound - tol).all()


@given(exact_cases(), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_query_in_blocks_matches_joint_scan_on_exact_grids(case, chunk):
    parts, box, step, w = case
    T = product_of(parts)
    got = in_blocks(chunk, T, box, step, lambda: GridOracle(T, box, step).query(w))
    v, residual, norm, index, _, _ = grid_query_dense(T, box, step, w)
    assert bits(got.v) == bits(v)
    assert bits(got.residual) == bits(residual) and bits(got.norm) == bits(norm)
    assert got.index == index


@given(single_factor_cases(), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_query_in_blocks_matches_joint_scan_on_one_factor(case, chunk):
    T, box, step, w = case
    got = in_blocks(chunk, T, box, step, lambda: GridOracle(T, box, step).query(w))
    v, residual, norm, index, res, norms = grid_query_dense(T, box, step, w)
    assert bits(got.v) == bits(grid_dense(T, box, step)[0][got.index])
    assert bits(got.norm) == bits(norms[got.index])
    if "matrix" in T.name and (got.index, bits(got.residual)) != (index, bits(residual)):
        event("caveat (a)")
        assert_bas_up_to_rounding(res, norms, got.index, got.residual)
        return
    assert got.index == index and bits(got.v) == bits(v)
    assert bits(got.residual) == bits(residual) and bits(got.norm) == bits(norm)


@given(st.lists(FLOAT_PARTS, min_size=1, max_size=2),
       st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=2, max_size=4, unique=True),
       st.integers(2, 3), CHUNKS, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_expanding_domain_in_blocks_matches_joint_scans(parts, radii, window, chunk, seed):
    T, radii = product_of(parts), sorted(radii)
    step = {1: 0.05, 2: 0.1}[len(parts)]
    w = np.random.default_rng(seed).uniform(-2.0, 2.0, size=len(parts))
    box = [(-radii[-1], radii[-1])] * len(parts)
    got = in_blocks(chunk, T, box, step, lambda: expanding_domain_pinv(T, w, radii, window, step))
    value, stabilized, history = expanding_domain_dense(T, w, radii, window, step)
    assert got.stabilized is stabilized and len(got.history) == len(history)
    assert all(bits(a) == bits(b) for a, b in zip(got.history, history))
    assert got.value is None if value is None else bits(got.value) == bits(value)


@given(st.sampled_from(["soft", "tanh", "product", "matrix"]),
       st.sampled_from(["box", "ball", "halfspace"]), CHUNKS, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_projection_after_operator_in_blocks_matches_joint_scan(op, kind, chunk, seed):
    rng = np.random.default_rng(seed)
    T = {"soft": lambda: Scalar1DOperator("soft", a=0.5).as_vector_operator(),
         "tanh": lambda: Scalar1DOperator("tanh").as_vector_operator(),
         "product": lambda: product_of([("relu", {}), ("sine", {})]),
         "matrix": lambda: VectorOperator.from_matrix(rng.normal(size=(2, 2)))}[op]()
    dim = T.dim_out
    C = {"box": lambda: Box(-rng.uniform(0.1, 1, dim), rng.uniform(0.1, 1, dim)),
         "ball": lambda: L2Ball(rng.normal(scale=0.2, size=dim), rng.uniform(0.2, 1)),
         "halfspace": lambda: Halfspace(rng.normal(size=dim), rng.uniform(-0.5, 0.5))}[kind]()
    w, box, step = rng.normal(size=dim), [(-1.5, 1.5)] * T.dim_in, 0.1
    got = in_blocks(chunk, T, box, step,
                    lambda: projection_after_operator_pinv(T, C, w, box, step))
    v, feasible, target, residual = projection_after_operator_two_step(T, C, w, box, step)
    assert np.array_equal(got.target, target)
    same = (got.feasible == feasible and got.residual == residual
            and (np.array_equal(got.v, v) if feasible else got.v is None))
    if op == "matrix" and not same:
        event("caveat (a)")
        points, values, norms = grid_dense(T, box, step)
        res = np.linalg.norm(C.project_batch(values) - target, axis=1)
        bound, tol = step * np.sqrt(T.dim_in), 1e-12 * (1.0 + res.max())
        if got.feasible:
            index = int(np.flatnonzero((points == got.v).all(axis=1))[0])
            assert_bas_up_to_rounding(res, norms, index, got.residual, bound)
        else:
            assert (res > bound - tol).all() and abs(got.residual - res.min()) <= tol
        return
    assert got.feasible == feasible
    assert np.array_equal(got.v, v) if feasible else got.v is None
    assert got.residual == residual


def custom(values):
    """The 1-D operator with the given values on the grid -2, -1, 0, 1, 2."""
    table = dict(zip([-2.0, -1.0, 0.0, 1.0, 2.0], values))
    return Scalar1DOperator("custom", fn=lambda v: np.vectorize(table.get)(v)).as_vector_operator()


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_a_later_block_that_ties_the_least_residual(chunk):
    # blocks of `chunk` points on -2, -1, 0, 1, 2; 5 is one block
    def scan(T, targets, bounds=None):
        grid = Grid(T, (-2.0, 2.0), 1.0)
        return in_blocks(chunk, T, (-2.0, 2.0), 1.0, lambda: grid.scan(targets, bounds))

    # the tie at 1.0 has the smaller norm: it wins
    T = custom([0.0, 5.0, 5.0, 0.0, 5.0])
    least, norm, index, residual, value = scan(T, [[0.0]])
    assert (least[0], norm[0], index[0], residual[0], value[0, 0]) == (0.0, 1.0, 3, 0.0, 0.0)
    assert in_blocks(chunk, T, (-2.0, 2.0), 1.0,
                     lambda: GridOracle(T, (-2.0, 2.0), 1.0).query([0.0])).index == 3
    # the tie at 1.0 has an equal norm: the first index, at -1.0, stays
    T = Scalar1DOperator("square").as_vector_operator()
    assert list(scan(T, [[1.0]])[2]) == [1]
    # a later block with a smaller residual replaces the bound and the point;
    # a bound that is given stays, and so does the least norm within it
    T = custom([0.5, 5.0, 5.0, 5.0, 0.0])
    least, norm, index, residual, _ = scan(T, [[0.0]])
    assert (least[0], norm[0], index[0], residual[0]) == (0.0, 2.0, 4, 0.0)
    least, norm, index, residual, _ = scan(T, [[0.0]], [0.6])
    assert (least[0], norm[0], index[0], residual[0]) == (0.0, 2.0, 0, 0.5)


def test_projection_after_operator_peak_memory_on_a_2001_squared_grid():
    # 4,004,001 points: 248 MB with the grid held whole, 1.9 MB a block at a time
    T = product_of([("relu", {}), ("tanh", {})])
    res, peak = traced_peak(lambda: projection_after_operator_pinv(
        T, L2Ball(np.zeros(2), 0.5), [0.3, -0.2], [(-1.0, 1.0)] * 2, 1e-3))
    assert res.feasible and np.allclose(res.v, [0.3, np.arctanh(-0.2)], atol=2e-3)
    assert peak < 4 * 2 ** 20


def test_expanding_domain_peak_memory_at_step_2e_3():
    # radii 1 and 2 on a 2-D product: 1001^2 and 2001^2 points, 229 MB with
    # each grid held whole, 1.6 MB a block at a time
    T = product_of([("exp", {}), ("soft_threshold", {"a": 0.5})])
    res, peak = traced_peak(lambda: expanding_domain_pinv(T, [0.5, 0.2], [1.0, 2.0], 2, 2e-3))
    assert res.stabilized and np.allclose(res.value, [np.log(0.5), 0.7], atol=2e-3)
    assert peak < 4 * 2 ** 20


# the joint-grid references in helpers.py, which must share no code with the
# module they check
JOINT_SCANS = ("grid_dense", "grid_query_dense", "check_pseudo_inverse_two_scan",
               "projection_after_operator_two_step", "expanding_domain_dense")


def test_the_joint_grid_scans_import_nothing_from_pseudo_inverse():
    module = ast.parse(inspect.getsource(helpers))
    imported = {alias.asname or alias.name for node in module.body
                if isinstance(node, ast.ImportFrom) and node.module == "geninv.pseudo_inverse"
                for alias in node.names}
    assert imported == {"Pinv1D", "UNDEFINED"}          # the walk sees the module's imports
    for name in JOINT_SCANS:
        for node in ast.walk(ast.parse(inspect.getsource(getattr(helpers, name)))):
            assert not isinstance(node, (ast.Import, ast.ImportFrom)), name
            assert not (isinstance(node, ast.Name) and node.id in imported | {"geninv"}), name
            assert not (isinstance(node, ast.Attribute) and node.attr == "pseudo_inverse"), name
