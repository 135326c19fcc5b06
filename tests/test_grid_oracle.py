"""The grid BAS oracle: per-factor search on products, one blockwise scan
for the certificate.

`GridOracle.query` searches each factor of a componentwise product on its
own grid, and `check_pseudo_inverse` takes both of a sample's bounds from
one scan of the joint grid, read in row-major blocks of GRID_CHUNK points
and never held whole. The joint-grid scans they replaced live in
helpers.py and must give the same answers, at any block size.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from geninv import (Scalar1DOperator, Grid, GridOracle, VectorOperator, check_pseudo_inverse,
                    product_operator, pinv1d_operator, cascade_pinv, Box, L2Ball)
from geninv import cli, pseudo_inverse
from geninv.core_ops import DimensionMismatch

from helpers import grid_dense, grid_query_dense, check_pseudo_inverse_two_scan, traced_peak


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
    assert bits(got.v) == bits(Grid(T, box, step).points[got.index])
    if got.index == index:
        assert bits(got.v) == bits(v) and bits(got.residual) == bits(residual)
        return
    # Only the documented float case may separate them: the joint sums of
    # squares of both points round to one residual, while per factor the
    # chosen point is no worse in residual, and where all tie, in norm.
    event("joint sums collapsed")
    assert res[got.index] == res[index]
    sizes = [len(f.points) for f in oracle.factors]
    mine, theirs = np.unravel_index(got.index, sizes), np.unravel_index(index, sizes)
    r_mine, r_theirs, n_mine, n_theirs = [], [], [], []
    for f, wf, i, j in zip(oracle.factors, w, mine, theirs):     # scalar factors
        r_mine.append(abs(f.values[i, 0] - wf))
        r_theirs.append(abs(f.values[j, 0] - wf))
        n_mine.append(f.norms[i])
        n_theirs.append(f.norms[j])
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


def test_joint_arrays_are_the_factor_grid_for_a_single_factor():
    T = Scalar1DOperator("relu").as_vector_operator()
    factor, joint = GridOracle(T, [(-1.0, 1.0)], 0.5).factors[0], Grid(T, (-1.0, 1.0), 0.5)
    assert np.array_equal(factor.points[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    for a, b in ((factor.points, joint.points), (factor.values, joint.values),
                 (factor.norms, joint.norms)):
        assert bits(a) == bits(b)


def test_within_reads_the_joint_grid():
    T = product_of([("relu", {}), ("soft_threshold", {"a": 1.0})])
    grid = Grid(T, [(-2.0, 2.0)] * 2, 0.25)
    points, values = grid.points, grid.values
    w = np.array([-0.5, 0.1])
    res = np.linalg.norm(values - w, axis=1)
    best = grid.within(w, res.min() + 0.2)
    tie = np.flatnonzero(res <= res.min() + 0.2)
    j = tie[np.argmin(np.linalg.norm(points[tie], axis=1))]
    assert best.index == j and np.array_equal(best.v, points[j])
    assert bits(best.residual) == bits(res[j])
    assert grid.within(w, 0.6).norm == np.linalg.norm(points[res <= 0.6], axis=1).min()
    assert grid.within(w, res.min() - 1e-3) is None
    oracle = GridOracle(T, [(-2.0, 2.0)] * 2, 0.25)
    for query in (oracle.query, lambda u: grid.within(u, 1.0)):
        with pytest.raises(DimensionMismatch):
            query([0.5])


def test_the_oracle_holds_factor_grids_only():
    for T in (Scalar1DOperator("relu").as_vector_operator(),
              product_of([("relu", {}), ("sign", {})])):
        oracle = GridOracle(T, [(-1.0, 1.0)] * T.dim_in, 0.5)
        assert all(isinstance(f, Grid) for f in oracle.factors)
        for name in ("grid", "points", "values", "norms", "within"):
            assert not hasattr(oracle, name)


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
def test_query_is_within_at_the_least_residual_on_one_factor(case):
    T, box, step, w = case
    grid = Grid(T, box, step)
    got = GridOracle(T, box, step).query(w)
    want = grid.within(w, grid.residuals(w).min())
    assert got.index == want.index
    assert bits(got.v) == bits(want.v)
    assert bits(got.residual) == bits(want.residual) and bits(got.norm) == bits(want.norm)


def test_nine_output_columns_take_numpys_row_norm():
    # from 8 columns on the residuals are numpy's pairwise row sums
    A = np.random.default_rng(5).normal(size=(9, 2))
    T = VectorOperator.from_matrix(A)
    grid = Grid(T, [(-1.0, 1.0)] * 2, 0.25)
    w = np.random.default_rng(6).normal(size=9)
    res = np.linalg.norm(grid.values - w, axis=1)
    assert bits(grid.residuals(w)) == bits(res)
    best = GridOracle(T, [(-1.0, 1.0)] * 2, 0.25).query(w)
    assert bits(best.residual) == bits(res[best.index])


def test_oracle_rejects_an_operator_that_is_nan_on_its_grid():
    # a NaN residual fails every bound, so no grid point could be chosen
    T = Scalar1DOperator("custom", fn=lambda v: np.where(v < 0.0, np.nan, v))
    with pytest.raises(ValueError, match="NaN"):
        GridOracle(T.as_vector_operator(), [(-1.0, 1.0)], 0.5)
    GridOracle(T.as_vector_operator(), [(0.0, 1.0)], 0.5).query([0.5])


def test_three_factor_oracle_at_step_001():
    parts = [("relu", {}), ("soft_threshold", {"a": 1.0}), ("linear", {"c": 2.0})]
    oracle = GridOracle(product_of(parts), [(-4.0, 4.0)] * 3, 0.01)
    assert [len(f.points) for f in oracle.factors] == [801] * 3
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


def certificate_in_blocks(chunk, T, G, samples, box, step):
    """check_pseudo_inverse with GRID_CHUNK set to `chunk`; None: one point
    more than twice the last axis's length, so blocks end inside rows."""
    if chunk is None:
        chunk = 2 * len(Grid._axes(T, box, step)[-1]) + 1
    with mock.patch.object(pseudo_inverse, "GRID_CHUNK", chunk):
        return check_pseudo_inverse(T, G, samples, box, step)


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
