"""The least-norm QP on an updated QR factorization of its working rows.

Differential tests against the lstsq solver it replaced
(`helpers.solve_least_norm_qp_lstsq`) and against an exhaustive SVD oracle
(`helpers.qp_oracle_enumerate_svd`), Farkas certificates, the verify-suite
seeds whose layers are nearly singular, and the clipped-tanh row split.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geninv import (LeastNormQP, NeuralLayer, clipped_tanh_layer_pinv,
                    relu_layer_pinv, solve_least_norm_qp)
from geninv import applied, cli
from helpers import (clipped_tanh_qp_loop, qp_oracle_enumerate_svd, run_optimized,
                     solve_least_norm_qp_lstsq)

# the 3x3 relu layers of verify-suite seeds 1249 and 1713 (smallest singular
# values 2.9e-5 and 3.7e-5) with their targets; both have exact preimages
SEED_1249 = ([[-1.0354676846119792, 0.4320549740632218, 0.9039449072827221],
              [-2.0653475813788105, 0.35037879254903365, 0.4780498547917631],
              [-1.6762943108398423, -0.3142559552153219, -1.1627113125889457]],
             [0.0, 0.29602873478262165, 0.0])
SEED_1713 = ([[-0.9611892327409294, -1.085915770802316, 2.2745397920938366],
              [0.4263954949300582, 0.07335235559729729, -0.07530168916931468],
              [0.6561229625575798, -0.36095495224014373, 0.9672264593109912]],
             [0.9006924522832692, 0.0, 0.823180878982422])


def farkas_ok(qp, y):
    """Independent check of a Farkas vector for {A v = b, C v <= d}: y >= 0
    on the inequality rows, ||sum_i y_i a_i|| <= 1e-9 sum_i |y_i| ||a_i||,
    and y^T [b; d] negative beyond its rounding error (1e-12 of the sum of
    the terms' sizes; the terms cancel when the rows are nearly
    dependent, so a larger margin would reject sound certificates)."""
    rows = np.concatenate([qp.a_eq, qp.c_ineq])
    rhs = np.concatenate([qp.b_eq, qp.d_ineq])
    ay = np.abs(y)
    return (np.all(y[len(qp.b_eq):] >= 0)
            and np.linalg.norm(y @ rows) <= 1e-9 * (ay @ np.linalg.norm(rows, axis=1))
            and y @ rhs < -1e-12 * (ay @ np.abs(rhs)))


def kkt_ok(qp, out, tol=1e-9, rel=1e-9):
    """Relative KKT check of an "optimal" answer: stationarity and the
    equalities to `rel` of the terms they sum, inequality slack at most the
    solver's `tol` plus that rounding, mu >= 0, slack ~ 0 where mu > 0."""
    A, b, C, d, v = qp.a_eq, qp.b_eq, qp.c_ineq, qp.d_ineq, out.v
    stat = v + A.T @ out.lam + C.T @ out.mu
    stat_scale = np.abs(v) + np.abs(A.T) @ np.abs(out.lam) + np.abs(C.T) @ np.abs(out.mu)
    slack = C @ v - d
    slack_scale = np.abs(C) @ np.abs(v) + np.abs(d)
    return (np.all(np.abs(stat) <= rel * (1 + stat_scale))
            and np.all(np.abs(A @ v - b) <= rel * (np.abs(A) @ np.abs(v) + np.abs(b)))
            and np.all(slack <= tol + rel * slack_scale)
            and np.all(out.mu >= 0)
            and np.all(np.abs(slack[out.mu > 0]) <= tol + rel * slack_scale[out.mu > 0]))


@st.composite
def well_conditioned(draw):
    n = draw(st.integers(1, 8))
    neq = draw(st.integers(0, min(n, 6)))
    nin = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(neq, n))
    if neq:
        s = np.linalg.svd(A, compute_uv=False)
        assume(s[-1] >= 1e-2 * s[0])
    return LeastNormQP(A, rng.normal(size=neq), rng.normal(size=(nin, n)),
                       rng.normal(size=nin))


@given(well_conditioned())
@settings(max_examples=300)
def test_matches_lstsq_solver_on_well_conditioned_programs(qp):
    out = solve_least_norm_qp(qp)
    ref = solve_least_norm_qp_lstsq(qp)
    assert (out.status, out.iterations, out.active) == (ref.status, ref.iterations, ref.active)
    if out.status == "optimal":
        assert np.linalg.norm(out.v - ref.v) <= 1e-9 * (1 + np.linalg.norm(out.v))
        mult, ref_mult = np.concatenate([out.lam, out.mu]), np.concatenate([ref.lam, ref.mu])
        assert np.abs(mult - ref_mult).max(initial=0) <= 1e-9 * (1 + np.abs(mult).max(initial=0))
        assert kkt_ok(qp, out)
    else:
        assert out.status == "infeasible" and farkas_ok(qp, out.farkas)


@st.composite
def ill_conditioned(draw):
    """A random program with one of: a row equal to a combination of other
    rows plus delta * noise (delta in [1e-9, 1e-3], right-hand side
    consistent or not), rows scaled by 1e-4 .. 1e4, or a duplicated
    equality row (consistent or not)."""
    kind = draw(st.sampled_from(["near", "scale", "duplicate"]))
    n = draw(st.integers(2, 8))
    neq = draw(st.integers(1 if kind == "duplicate" else 0, min(n, 6)))
    nin = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.normal(size=(neq + nin, n))
    rhs = rng.normal(size=neq + nin)
    if kind == "near":
        i = draw(st.integers(1, neq + nin - 1))
        k = draw(st.integers(1, min(i, n - 1)))
        others = rng.choice(i, size=k, replace=False)
        coef = rng.normal(size=k)
        delta = 10.0 ** draw(st.floats(-9.0, -3.0))
        rows[i] = coef @ rows[others] + delta * rng.normal(size=n)
        if draw(st.booleans()):
            rhs[i] = coef @ rhs[others] + delta * rng.normal()
    elif kind == "scale":
        s = 10.0 ** rng.uniform(-4.0, 4.0, size=neq + nin)
        rows, rhs = rows * s[:, None], rhs * s
    else:
        i = draw(st.integers(0, neq - 1))
        extra = rhs[i] + (rng.normal() if draw(st.booleans()) else 0.0)
        rows = np.insert(rows, neq, rows[i], axis=0)
        rhs = np.insert(rhs, neq, extra)
        neq += 1
    return LeastNormQP(rows[:neq], rhs[:neq], rows[neq:], rhs[neq:])


@given(ill_conditioned())
@settings(max_examples=300)
def test_ill_conditioned_programs_match_svd_oracle(qp):
    out = solve_least_norm_qp(qp)
    oracle = qp_oracle_enumerate_svd(qp)
    if out.status in ("numerical", "iteration_limit"):
        # the ratio test and the multiplier sign test keep their absolute
        # tol (1e-9): a blocker r_j <= tol on a row of norm 1e4 leaves an
        # uncertified "infeasible", and multipliers of a solution of norm
        # 1e9 can drop and re-enter forever; allowed only where the lstsq
        # solver did not solve the program either
        assert out.v is None and solve_least_norm_qp_lstsq(qp).status != "optimal"
        return
    assert out.status in ("optimal", "infeasible")
    if out.status == "infeasible":
        assert out.v is None and farkas_ok(qp, out.farkas)
        # y proves that no feasible v has ||v|| < |y^T [b; d]| / ||sum_i y_i a_i||
        res = out.farkas_residuals
        assert oracle is None or (
            res["combination"] * np.linalg.norm(oracle[0]) >= -res["rhs"] * (1 - 1e-6))
        return
    assert kkt_ok(qp, out)
    assert oracle is not None
    # v is fixed up to the slack both accept (tol = 1e-9, a distance of
    # tol / ||c_j||) and rounding, magnified by cond(M): M = the equality
    # rows and the inequalities either answer keeps active, at unit norm
    M = np.concatenate([qp.a_eq, qp.c_ineq[sorted(oracle[1] | set(out.active))]])
    norms = np.linalg.norm(M, axis=1)
    cond = np.linalg.cond(M / norms[:, None]) if len(M) else 1.0
    slack = 1e-9 / norms.min() if len(M) else 0.0
    gap = np.linalg.norm(out.v - oracle[0])
    assert gap <= cond * (slack + 1e-13 * (1 + np.linalg.norm(oracle[0])))


def test_dependent_equality_rows():
    # a consistent duplicate is left out; an inconsistent one is certified
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 0.0]])
    C = np.array([[1.0, 0.0, 0.0]])
    out = solve_least_norm_qp(LeastNormQP(A, [1.0, 2.0, 1.0], C, [0.0]))
    ref = solve_least_norm_qp(LeastNormQP(A[:2], [1.0, 2.0], C, [0.0]))
    assert out.status == "optimal" and out.active == ref.active
    assert np.array_equal(out.v, ref.v) and out.lam[2] == 0.0
    bad = LeastNormQP(A, [1.0, 2.0, 1.5], C, [0.0])
    out = solve_least_norm_qp(bad)
    assert (out.status, out.iterations, out.v) == ("infeasible", 0, None)
    assert farkas_ok(bad, out.farkas)
    assert out.farkas_residuals["rhs"] == pytest.approx(-0.5)


def test_infeasible_exit_reports_its_certificate():
    qp = LeastNormQP(np.array([[1.0, 1.0]]), np.array([2.0]),
                     np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
    out = solve_least_norm_qp(qp)
    ref = solve_least_norm_qp_lstsq(qp)
    assert (out.status, out.iterations, out.active) == (ref.status, ref.iterations, ref.active)
    assert out.status == "infeasible" and out.iterations == 4 and out.active == [0]
    assert np.allclose(out.farkas, [-1.0, 1.0, 1.0], atol=1e-12)
    assert out.farkas_residuals["combination"] <= 1e-15
    assert out.farkas_residuals["rhs"] == pytest.approx(-2.0)


def test_ratio_test_ties_go_to_the_first_minimum():
    # a program with integer rows on which the dual ratio test meets an
    # exact tie; taking the last minimum ends at 11 iterations and [0, 4]
    qp = LeastNormQP(np.zeros((0, 4)), np.zeros(0),
                     np.array([[1.0, -1.0, 2.0, -1.0], [-1.0, 0.0, 0.0, 2.0],
                               [2.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0],
                               [0.0, 0.0, 0.0, 1.0], [-1.0, -1.0, -1.0, 2.0],
                               [2.0, 2.0, 0.0, 0.0]]),
                     np.array([-2.0, 1.0, -1.0, 1.0, -1.0, -1.0, 0.0]))
    out = solve_least_norm_qp(qp)
    ref = solve_least_norm_qp_lstsq(qp)
    assert (out.status, out.iterations, out.active) == ("optimal", 10, [0, 4, 6])
    assert (ref.status, ref.iterations, ref.active) == ("optimal", 10, [0, 4, 6])
    assert np.allclose(out.v, ref.v, atol=1e-12) and np.allclose(out.mu, ref.mu, atol=1e-12)


def test_corrupted_certificate_is_numerical_under_optimize_flag():
    # "infeasible" needs a certificate that verifies, under python -O too
    code = (
        "import numpy as np\n"
        "import geninv.applied as a\n"
        "qp = a.LeastNormQP(np.array([[1.0, 1.0]]), np.array([2.0]),\n"
        "                   np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))\n"
        "print(a.solve_least_norm_qp(qp).status)\n"
        "good = a._farkas_vector\n"
        "a._farkas_vector = lambda *args: good(*args) * np.array([1.0, 1.0, 0.5])\n"
        "print(a.solve_least_norm_qp(qp).status)\n")
    out = run_optimized(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["infeasible", "numerical"]


@pytest.mark.parametrize("weights,w,norm", [(*SEED_1249, 6247.985730262392),
                                            (*SEED_1713, 3351.510918684962)])
def test_nearly_singular_relu_layers_solve(weights, w, norm):
    A, w = np.array(weights), np.array(w)
    v = relu_layer_pinv(NeuralLayer(A, "relu"), w)
    assert np.linalg.norm(v) == pytest.approx(norm, rel=1e-6)
    assert np.linalg.norm(np.maximum(A @ v, 0.0) - np.maximum(w, 0.0)) <= 1e-8
    pos = w > 0
    qp = LeastNormQP(A[pos], w[pos], A[~pos], np.zeros(int(np.sum(~pos))))
    assert solve_least_norm_qp(qp).status == "optimal"
    assert solve_least_norm_qp_lstsq(qp).status == "infeasible"    # the old defect


@pytest.mark.parametrize("seed", [1249, 1713])
def test_verify_suite_passes_on_nearly_singular_seeds(seed, capsys):
    assert cli.main(["verify-suite", "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 6))
@settings(max_examples=60)
def test_clipped_tanh_rows_match_the_loop(seed, m, k):
    rng = np.random.default_rng(seed)
    layer = NeuralLayer(rng.normal(size=(m, m + int(rng.integers(0, 3)))), "tanh", clip=k)
    hi = 1.0 - 1.0 / k
    w = rng.choice([-hi, hi, -1.2, 1.2, 0.0], size=m) * (rng.random(m) < 0.5)
    w = np.where(w == 0.0, rng.uniform(-hi, hi, size=m), w)
    built = []
    solve = applied.solve_least_norm_qp
    try:
        applied.solve_least_norm_qp = lambda qp, tol: built.append(qp) or solve(qp, tol)
        clipped_tanh_layer_pinv(layer, w)
    finally:
        applied.solve_least_norm_qp = solve
    ref = clipped_tanh_qp_loop(layer, w)
    for name in ("a_eq", "b_eq", "c_ineq", "d_ineq"):
        assert np.array_equal(getattr(built[0], name), getattr(ref, name)), name
