"""The grid BAS oracle: per-factor search on products, one scan per sample.

`GridOracle.query` searches each factor of a componentwise product on its
own grid, and `check_pseudo_inverse` takes both of a sample's bounds from
one residual scan. The joint-grid scans they replaced live in helpers.py
and must give the same answers.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from geninv import (Scalar1DOperator, GridOracle, VectorOperator, check_pseudo_inverse,
                    product_operator, pinv1d_operator, cascade_pinv, Box, L2Ball)
from geninv import cli
from geninv.core_ops import DimensionMismatch

from helpers import grid_query_dense, check_pseudo_inverse_two_scan


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
    assert bits(got.v) == bits(oracle.points[got.index])
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
    oracle = GridOracle(T, [(-1.0, 1.0)], 0.5)
    assert oracle.grid is oracle.factors[0]
    assert np.array_equal(oracle.points[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_positive_tie_tol_and_min_norm_read_the_joint_grid():
    T = product_of([("relu", {}), ("soft_threshold", {"a": 1.0})])
    oracle = GridOracle(T, [(-2.0, 2.0)] * 2, 0.25)
    points, values = oracle.points, oracle.values
    w = np.array([-0.5, 0.1])
    res = np.linalg.norm(values - w, axis=1)
    best = oracle.query(w, tie_tol=0.2)
    tie = np.flatnonzero(res <= res.min() + 0.2)
    j = tie[np.argmin(np.linalg.norm(points[tie], axis=1))]
    assert best.index == j and np.array_equal(best.v, points[j])
    assert oracle.min_norm_within(w, 0.6) == np.linalg.norm(points[res <= 0.6], axis=1).min()
    with pytest.raises(ValueError):
        oracle.query(w, tie_tol=-1.0)
    with pytest.raises(DimensionMismatch):
        oracle.query([0.5])


def test_three_factor_oracle_at_step_001():
    parts = [("relu", {}), ("soft_threshold", {"a": 1.0}), ("linear", {"c": 2.0})]
    oracle = GridOracle(product_of(parts), [(-4.0, 4.0)] * 3, 0.01)
    assert [len(f.points) for f in oracle.factors] == [801] * 3
    best = oracle.query([1.5, -0.7, 1.0])
    assert np.allclose(best.v, [1.5, -1.7, 0.5], atol=0.01)
    assert best.index == int(np.ravel_multi_index([550, 230, 450], (801,) * 3))
    # the joint grid of 801^3 points is past MAX_GRID_POINTS: refused unallocated
    tracemalloc.start()
    try:
        for joint in (lambda: oracle.points, lambda: oracle.query([0.0] * 3, tie_tol=0.1),
                      lambda: oracle.min_norm_within([0.0] * 3, 1.0)):
            with pytest.raises(ValueError, match="too large"):
                joint()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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
# check_pseudo_inverse: one scan per sample against two
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
@settings(max_examples=40, deadline=None)
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
