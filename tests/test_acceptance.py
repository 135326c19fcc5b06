"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np

import geninv as g
from geninv import (FiniteOperator, compose, power, image,
                    Scalar1DOperator, closed_form_pinv, GridOracle)
from helpers import qp_oracle_enumerate

STEP = 1e-3
BOX = [(-10.0, 10.0)]


def report(num, name, ok):
    print("ACCEPTANCE %-3s %-38s %s" % (num, name, "PASS" if ok else "FAIL"))
    return ok


# ---------------------------------------------------------------------------
# criterion 1: one-dimensional closed forms vs the grid oracle
# ---------------------------------------------------------------------------

C1_ROWS = [
    Scalar1DOperator("square"),
    Scalar1DOperator("shifted_square", a=9.8),
    Scalar1DOperator("relu"),
    Scalar1DOperator("hard_threshold", a=2.0),
    Scalar1DOperator("soft_threshold", a=1.0),
    Scalar1DOperator("tanh"),
    Scalar1DOperator("sign"),
    Scalar1DOperator("sign_eps", eps=0.5),
    Scalar1DOperator("exp"),
    Scalar1DOperator("sine"),
]

C1_SAMPLERS = {
    "square": lambda r: r.uniform(-9, 9),
    "shifted_square": lambda r: r.uniform(-9, 9),
    "relu": lambda r: r.uniform(-9, 9),
    "hard_threshold": lambda r: r.uniform(-9, 9),
    "soft_threshold": lambda r: r.uniform(-8, 8),
    "tanh": lambda r: r.uniform(-0.99, 0.99),
    "sign": lambda r: r.uniform(-0.49, 0.49),
    "sign_eps": lambda r: r.uniform(-3, 3),
    "exp": lambda r: r.uniform(0.1, 20.0),
    "sine": lambda r: r.uniform(-1.4, 1.4),
}

# closed-form jump points and tie windows the samplers must keep clear of;
# shifted_square additionally avoids (0, 0.04]: there the mirrored source
# 9.8 + sqrt(w) re-enters the box and ties the residual exactly
C1_AVOID = {
    "hard_threshold": ((1.0 - 5 * STEP, 1.0 + 5 * STEP),
                       (-1.0 - 5 * STEP, -1.0 + 5 * STEP)),   # +-a/2 for a = 2
    "soft_threshold": ((-5 * STEP, 5 * STEP),),
    "relu": ((-5 * STEP, 5 * STEP),),
    "square": ((-5 * STEP, 5 * STEP),),
    "shifted_square": ((-5 * STEP, 0.06),),
}


def c1_box(op):
    # the mirrored equal-residual source must stay outside the search box,
    # otherwise float-level grid noise picks a branch at random
    if op.kind == "sine":
        return [(-np.pi / 2, np.pi / 2)]
    return BOX


def test_criterion_1_table_closed_forms():
    rng = np.random.default_rng(10)
    for op in C1_ROWS:
        oracle = GridOracle(op.as_vector_operator(), c1_box(op), STEP)
        avoid = C1_AVOID.get(op.kind, ())
        seen = 0
        while seen < 50:
            w = C1_SAMPLERS[op.kind](rng)
            if any(lo <= w <= hi for lo, hi in avoid):
                continue
            seen += 1
            cf = closed_form_pinv(op, w)
            assert cf.defined
            best = oracle.query(np.array([w]))
            # closed form within 2 steps of the oracle argmin
            gap = min(abs(v - best.v[0]) for v in cf.values)
            assert gap <= 2 * STEP, (op.kind, w, cf.values, best.v)
            for v in cf.values:
                # MP2 residual of the closed form
                tv = float(op.forward(np.array([v]))[0])
                back = closed_form_pinv(op, tv)
                assert min(abs(u - v) for u in back.values) <= 1e-9
                if op.kind == "square":
                    continue
                # uniqueness: any 3-step perturbation is lexicographically worse
                res = abs(tv - w)
                for delta in (3 * STEP, -3 * STEP):
                    u = v + delta
                    res_u = abs(float(op.forward(np.array([u]))[0]) - w)
                    worse = (res_u > res + 1e-12) or (res_u >= res - 1e-12
                                                      and abs(u) > abs(v) + 1e-12)
                    assert worse, (op.kind, w, delta)
        if op.kind == "square":
            both = closed_form_pinv(op, 4.0)
            assert set(both.values) == {-2.0, 2.0}
    assert report(1, "one-dimensional closed forms", True)


# ---------------------------------------------------------------------------
# criterion 2: matrix Moore-Penrose inverse
# ---------------------------------------------------------------------------

def test_criterion_2_matrix_mp_inverse():
    E = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert np.abs(g.mp_inverse(E) - np.array([[0.0, 0.5], [0.0, 0.5]])).max() <= 1e-12
    rng = np.random.default_rng(20)
    for _ in range(100):
        A = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
        G = g.mp_inverse(A)
        assert max(g.mp_residuals(A, G).values()) <= 1e-9
        back = g.mp_inverse(G)
        assert np.linalg.norm(back - A) <= 1e-8 * (1 + np.linalg.norm(A))
    assert report(2, "matrix Moore-Penrose inverse", True)


# ---------------------------------------------------------------------------
# criterion 3: {1,2}-inverse suite
# ---------------------------------------------------------------------------

def _one_two_suite(T):
    G = g.build_one_two_inverse(T)
    assert g.check_mp_axioms(T, G) == (True, True)
    assert g.double_inverse(T, G) == T
    found = g.enumerate_one_two_inverses(T)
    assert len(found) == g.one_two_inverse_count(T)
    t = T.table
    tg = t[found]                                     # T(G(w)) tables
    gt = found[:, t]                                  # G(T(v)) tables
    assert np.array_equal(np.take_along_axis(tg, tg, axis=1), tg)
    assert np.array_equal(np.take_along_axis(gt, gt, axis=1), gt)


def test_criterion_3_one_two_inverse_suite():
    for code in range(256):
        table = (code % 4, code // 4 % 4, code // 16 % 4, code // 64)
        _one_two_suite(FiniteOperator(4, 4, table))
    rng = np.random.default_rng(30)
    done = 0
    while done < 200:
        nv, nw = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if nv ** nw > 10 ** 6:                        # enumeration cap
            continue
        done += 1
        _one_two_suite(FiniteOperator(nv, nw, rng.integers(0, nw, size=nv)))
    assert report(3, "{1,2}-inverse suite", True)


# ---------------------------------------------------------------------------
# criterion 4: projection layer
# ---------------------------------------------------------------------------

def _random_nested_sets(rng, depth):
    sets = []
    scale = rng.uniform(1.5, 2.4)
    for _ in range(depth):
        if rng.random() < 0.5:
            sets.append(g.Box(np.full(2, -scale), np.full(2, scale)))
            scale = scale * rng.uniform(0.4, 0.65)    # ball of this radius fits
        else:
            sets.append(g.L2Ball(np.zeros(2), scale))
            scale = scale * rng.uniform(0.4, 0.65) / np.sqrt(2)
    return sets


def test_criterion_4_projection_layer():
    rng = np.random.default_rng(40)
    kinds = [g.Box(np.array([-1.0, 0.0, -2.0]), np.array([2.0, 1.0, 0.5])),
             g.L2Ball(np.array([0.3, -0.2, 0.1]), 1.3),
             g.Halfspace(np.array([1.0, -2.0, 0.5]), 0.4),
             g.Intersection([g.L2Ball(np.zeros(3), 2.0),
                             g.Box(np.full(3, -1.4), np.full(3, 1.4))],
                            feasible_point=np.zeros(3))]
    for C in kinds:
        X = rng.normal(scale=3.0, size=(1000, 3))
        Y = rng.normal(scale=3.0, size=(1000, 3))
        lhs = np.linalg.norm(C.project_batch(X) - C.project_batch(Y), axis=1)
        rhs = np.linalg.norm(X - Y, axis=1)
        assert np.max(lhs - rhs) <= 1e-9
    for i in range(20):
        depth = int(rng.integers(1, 4))
        sets = _random_nested_sets(rng, depth)
        res = g.cascade_pinv(sets)
        samples = rng.normal(scale=1.5, size=(3, 2))
        for w in samples:
            pw = res.pseudo_inverse.apply(w)
            assert np.allclose(pw, sets[-1].project(w), atol=1e-10)
            assert np.allclose(res.cascade.apply(pw), pw, atol=1e-9)
        reports = g.check_pseudo_inverse(res.cascade, res.pseudo_inverse,
                                         samples, [(-2.5, 2.5)] * 2, 0.05)
        assert all(r.bas_ok and r.mp2_ok for r in reports)
    assert report(4, "projection layer", True)


# ---------------------------------------------------------------------------
# criterion 5: neural layers
# ---------------------------------------------------------------------------

def test_criterion_5_neural_layers():
    rng = np.random.default_rng(50)

    # tanh layer on (m, n) = (1, 2) against the 2-D grid oracle
    for _ in range(5):
        A = rng.normal(size=(1, 2)) * rng.uniform(0.8, 1.5)
        layer = g.NeuralLayer(A, "tanh")
        T = layer.operator()
        oracle = GridOracle(T, [(-3.0, 3.0)] * 2, 0.01)
        for w in rng.uniform(-0.85, 0.85, size=10):
            v = g.tanh_layer_pinv(layer, np.array([w]))
            Tv = T.apply(v)
            assert np.linalg.norm(Tv - [w]) <= 1e-8                      # MP1
            assert np.linalg.norm(g.tanh_layer_pinv(layer, Tv) - v) <= 1e-8  # MP2
            best = oracle.query(np.array([w]))
            assert np.linalg.norm(Tv - [w]) <= best.residual + 1e-9
            _, (tie_norm,), (j,), _, _ = oracle.factors[0].scan([[w]],
                                                                [np.linalg.norm(A) * 0.01])
            assert j >= 0 and np.linalg.norm(v) <= tie_norm + 0.05
            assert tie_norm <= np.linalg.norm(v) + 0.1

    # relu layers against exhaustive active-set enumeration
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 11))
        layer = g.NeuralLayer(rng.normal(size=(m, n)), "relu")
        w = np.where(rng.random(m) < 0.5, 0.0, np.abs(rng.normal(size=m)))
        v = g.relu_layer_pinv(layer, w)
        pos = w > 0
        qp = g.LeastNormQP(layer.weights[pos], w[pos],
                           layer.weights[~pos], np.zeros(int(np.sum(~pos))))
        out = g.solve_least_norm_qp(qp)
        oracle = qp_oracle_enumerate(qp)
        assert oracle is not None
        assert np.linalg.norm(v - oracle[0]) <= 1e-9 * (1 + np.linalg.norm(oracle[0]))
        assert {j for j in range(qp.c_ineq.shape[0]) if out.mu[j] > 1e-7} == oracle[1]

    # clipped tanh converges to the unclipped inverse on interior targets
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 6))
        A = rng.normal(size=(m, n))
        w = rng.uniform(-0.7, 0.7, size=m)
        base = g.tanh_layer_pinv(g.NeuralLayer(A, "tanh"), w)
        vk = g.clipped_tanh_layer_pinv(g.NeuralLayer(A, "tanh", clip=256), w)
        assert np.linalg.norm(vk - base) <= 1e-6
    assert report(5, "neural layers", True)


# ---------------------------------------------------------------------------
# criterion 6: wavelet thresholding identity
# ---------------------------------------------------------------------------

def test_criterion_6_wavelet_identity():
    rng = np.random.default_rng(60)
    basis = g.haar_basis(8)
    for a in (0.1, 0.5, 2.0):
        for _ in range(100):
            x = rng.normal(size=8)
            hard = g.wavelet_threshold_roundtrip(basis, "hard", a, x)
            assert hard.difference_norm <= 1e-10
            again = g.wavelet_threshold_roundtrip(basis, "hard", a, hard.roundtrip)
            assert np.linalg.norm(again.roundtrip - hard.roundtrip) <= 1e-10
        soft = g.wavelet_threshold_roundtrip(basis, "soft", a, rng.normal(size=8))
        assert soft.witness_difference_norm >= 0.9 * a
    assert report(6, "wavelet thresholding identity", True)


# ---------------------------------------------------------------------------
# criterion 7: Drazin inverses
# ---------------------------------------------------------------------------

def test_criterion_7_drazin_suite():
    # constructive formula vs exhaustive search on all endofunctions of 4 ids
    for code in range(256):
        table = (code % 4, code // 4 % 4, code // 16 % 4, code // 64)
        T = FiniteOperator(4, 4, table)
        res = g.drazin_inverse(T)
        found = g.exhaustive_drazin_search(T)
        assert res.exists == (len(found) > 0)
        assert len(found) == 1 and found[0] == res.inverse

    nil = FiniteOperator(5, 5, (0, 0, 1, 2, 3))
    assert g.drazin_inverse(nil).inverse == FiniteOperator(5, 5, (0,) * 5)
    bij = FiniteOperator(5, 5, (2, 0, 3, 4, 1))
    assert compose(g.drazin_inverse(bij).inverse, bij) == FiniteOperator.identity(5)
    idem = FiniteOperator(4, 4, (0, 0, 2, 2))
    assert g.drazin_inverse(idem).inverse == idem

    # uniqueness, power rule, index relation, double inverses (exact)
    rng = np.random.default_rng(70)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        T = FiniteOperator(n, n, rng.integers(0, n, size=n))
        res = g.drazin_inverse(T)
        assert res.exists
        G = res.inverse
        for j in (1, 2, 3, 4):
            pj = g.drazin_inverse(power(T, j))
            assert pj.inverse == power(G, j)
            assert pj.index == -(-res.index // j)
        dd = g.drazin_inverse(G)
        assert dd.index == 1
        assert dd.inverse == compose(power(T, 2), G)
        assert (dd.inverse == T) == (res.index == 1)
        k = res.index
        Tk = power(T, k)
        assert g.drazin_inverse(g.drazin_inverse(Tk).inverse).inverse == Tk
    assert report("7a", "Drazin constructions and identities", True)


def test_criterion_7_halving_pseudo_inverse():
    halving = Scalar1DOperator("linear", c=0.5).as_vector_operator()
    oracle = GridOracle(halving, [(0.0, 1.0)], STEP)
    for w in np.linspace(0.02, 0.98, 25):
        got = oracle.query(np.array([w])).v[0]
        assert abs(got - min(2 * w, 1.0)) <= 2e-3
    assert report("7b", "halving-operator pseudo-inverse", True)


def test_criterion_7_halving_drazin_nonexistence():
    """Expected by the acceptance list: the discretized halving operator is
    certified non-Drazin-invertible by the image-chain criterion.

    A total map on a finite set always stabilizes onto its cyclic part,
    where the restriction is a bijection, so a Drazin inverse always
    exists; here the chain collapses to the fixed point 0 and the Drazin
    inverse is the zero map. The expectation cannot hold for any finite
    discretization; the check is kept as stated and fails honestly.
    (Blocking analysis: /root/notes/decisions.md.)
    """
    n = 2 ** 20 + 1
    T = FiniteOperator(n, n, np.arange(n) // 2)
    chain = g.image_chain(T)
    sizes = [len(s) for s in chain.sets]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))     # strictly shrinking
    res = g.drazin_inverse(T)
    ok = not res.exists
    report("7c", "halving-operator Drazin nonexistence", ok)
    assert ok, ("drazin_inverse reports existence: the chain stabilizes at "
                "the fixed point 0 (sizes %s ... %s), the restriction there "
                "is trivially bijective, and the inverse is the zero map "
                "with index %d" % (sizes[:3], sizes[-3:], res.index))


# ---------------------------------------------------------------------------
# criterion 8: vanishing polynomials
# ---------------------------------------------------------------------------

def test_criterion_8_vanishing_polynomials():
    rng = np.random.default_rng(80)
    # 100 random operators over F_2/F_3 with p^n <= 2048, two pinned at the cap
    configs = [(2, 11), (3, 6)]
    while len(configs) < 100:
        if rng.random() < 0.5:
            configs.append((2, int(rng.integers(1, 10))))
        else:
            configs.append((3, int(rng.integers(1, 6))))
    for p, n in configs:
        T = g.FpVectorOperator(p, n, rng.integers(0, p ** n, size=p ** n))
        l, m = g.stabilization_profile(T)
        q = g.find_vanishing_poly(T)
        assert g.poly_vanishes(q, T)                       # exhaustive, exact
        assert q.degree <= m * m + l
        pm = g.minimal_poly(T)
        assert pm.divides(q)
        assert g.companion_embedding_check(T, pm).ok
        G, mm = g.left_drazin_from_poly(q, T)
        assert G.compose(T.power(mm + 1)) == T.power(mm)

    # plain-set loop T^(m!+l) = T^l for small eventual images
    done = 0
    while done < 30:
        nn = int(rng.integers(1, 8))
        T = FiniteOperator(nn, nn, rng.integers(0, nn, size=nn))
        chain = g.image_chain(T)
        m = len(chain.sets[-1])
        if m > 6:
            continue
        done += 1
        l = chain.stabilization_step
        assert power(T, math.factorial(m) + l) == power(T, l)

    # Cayley-Hamilton inversion vs Gaussian elimination, 50 per field
    for p in (2, 3, 5, 7):
        done = 0
        while done < 50:
            nn = int(rng.integers(1, 6))
            A = rng.integers(0, p, size=(nn, nn))
            gauss = g.fp_invert(A, p)
            if gauss is None:
                assert g.cayley_hamilton_inverse(A, p) is None
                continue
            done += 1
            assert np.array_equal(g.cayley_hamilton_inverse(A, p), gauss)

    # {1}-inverses of the nilpotent shift are never polynomial in it
    for p in (2, 3):
        L = np.zeros((3, 3), dtype=np.int64)
        L[1, 0] = L[2, 1] = 1
        powers = []
        M = np.eye(3, dtype=np.int64)
        for _ in range(9):
            powers.append(M)
            M = g.fp_matmul(M, L, p)
        coeffs = np.stack(np.meshgrid(*[np.arange(p)] * 9,
                                      indexing="ij")).reshape(9, -1).T
        q_of_l = np.tensordot(coeffs, np.array(powers), axes=(1, 0)) % p
        lhs = np.einsum("ij,njk,kl->nil", L, q_of_l, L) % p
        assert not np.any(np.all(lhs == L, axis=(1, 2)))
    assert report(8, "vanishing polynomials", True)


# ---------------------------------------------------------------------------
# criterion 9: counterexample battery
# ---------------------------------------------------------------------------

def test_criterion_9_counterexamples():
    # BAS candidate violating MP2: constant operator on V = {-1, 1}
    points = np.array([[-1.0], [1.0]])
    values = np.array([[1.0], [1.0]])
    S = {0.0: -1.0, 1.0: 1.0}
    for w in (0.0, 1.0):
        admissible = g.finite_bas_set(points, values, [w])
        assert S[w] in points[admissible]                  # BAS holds
    assert S[1.0] != S[0.0]                                # S T S(0) != S(0)

    # componentwise {1,2}-inverses fail MP1 for a composite with T not onto
    T = FiniteOperator(3, 3, (1, 1, 2))
    Sop = FiniteOperator(3, 2, (1, 0, 1))
    Tbar = FiniteOperator(3, 3, (0, 0, 2))
    Sbar = FiniteOperator(2, 3, (1, 0))
    assert g.check_mp_axioms(T, Tbar) == (True, True)
    assert g.check_mp_axioms(Sop, Sbar) == (True, True)
    mp1, _ = g.check_mp_axioms(compose(Sop, T), compose(Tbar, Sbar))
    assert not mp1

    # unique pseudo-inverses that do not compose: two-point model
    u = np.array([[2.0], [1.0]])          # u1, u2 with |u2| < |u1|
    v = np.array([[1.0], [2.0]])          # v1 = T(u1), v2 = T(u2)
    w = np.array([7.0])
    s_of_v = np.array([[7.0], [7.0]])
    # pseudo-inverse of T is the bijection inverse; of S|T(U) picks v1
    s1 = g.finite_bas_set(v, s_of_v, w)
    assert np.allclose(v[s1[0]], [1.0])
    # composite: both u map to w; the minimal-norm source is u2
    st = g.finite_bas_set(u, s_of_v, w)
    assert np.allclose(u[st[0]], [1.0])
    composite_via_parts = 2.0              # Tbar(v1) = u1
    assert composite_via_parts != u[st[0]][0]

    # domain restriction: every inverse pair differs on lost image points
    T_full = FiniteOperator(4, 3, (0, 1, 2, 2))
    T_restr = FiniteOperator(2, 3, (0, 1))
    lost = set(int(x) for x in image(T_full)) - set(int(x) for x in image(T_restr))
    assert lost == {2}
    for gg in g.enumerate_one_two_inverses(T_full):
        for g1 in g.enumerate_one_two_inverses(T_restr):
            for ww in lost:
                assert gg[ww] != g1[ww]
    assert report(9, "counterexample battery", True)
