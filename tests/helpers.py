"""Shared independent oracles for the test suite."""

import itertools

import numpy as np

from geninv.pseudo_inverse import Pinv1D, UNDEFINED


def qp_oracle_enumerate(qp, tol=1e-9):
    """Exhaustive active-set oracle for min ||v||^2 under linear constraints.

    Tries every subset of inequalities as equalities, keeps candidates that
    are primal feasible and dual feasible, and returns (v, active_set) of
    the least-norm valid candidate, or None when the program is infeasible.
    Independent of the production solver: no working-set iteration at all.
    """
    nin = qp.c_ineq.shape[0]
    best = None
    for r in range(nin + 1):
        for subset in itertools.combinations(range(nin), r):
            M = np.concatenate([qp.a_eq, qp.c_ineq[list(subset)]], axis=0)
            rhs = np.concatenate([qp.b_eq, qp.d_ineq[list(subset)]])
            if M.shape[0]:
                alpha, *_ = np.linalg.lstsq(M @ M.T, rhs, rcond=None)
                v = M.T @ alpha
                if np.linalg.norm(M @ v - rhs) > tol * (1 + np.linalg.norm(rhs)):
                    continue
                mu = -alpha[qp.a_eq.shape[0]:]
            else:
                v = np.zeros(qp.dim)
                mu = np.zeros(0)
            if nin and np.any(qp.c_ineq @ v - qp.d_ineq > tol):
                continue
            if np.any(mu < -tol):
                continue
            if best is None or np.linalg.norm(v) < np.linalg.norm(best[0]) - tol:
                active = {j for i, j in enumerate(subset) if mu[i] > 1e-7}
                best = (v, active)
    return best


# ---------------------------------------------------------------------------
# step-by-step image-chain oracles for the functional-graph kernel
# ---------------------------------------------------------------------------

def image_chain_steps(t):
    """The image chain built one step at a time, O(n k).

    Returns (sets, k, injective, bijective): sets[j] = T^j(V) as sorted id
    arrays for j = 0..k, k the first step with T^k(V) = T^(k+1)(V), and the
    per-step flags for the restriction of T to sets[j].
    """
    t = np.asarray(t, dtype=np.int64)
    sets = [np.arange(len(t), dtype=np.int64)]
    injective, bijective = [], []
    while True:
        cur = sets[-1]
        nxt = np.unique(t[cur]) if cur.size else cur
        inj = len(nxt) == len(cur)
        injective.append(inj)
        bijective.append(inj and np.array_equal(nxt, cur))
        if np.array_equal(nxt, cur):
            return sets, len(sets) - 1, injective, bijective
        sets.append(nxt)


def walk_graph(t):
    """Per node by walking: (on_cycle, cycle_length, depth) as lists."""
    t = [int(x) for x in t]
    on_cycle, cycle_length, depth = [], [], []
    for v in range(len(t)):
        seen = {}
        u, j = v, 0
        while u not in seen:
            seen[u] = j
            u, j = t[u], j + 1
        on_cycle.append(u == v)                   # the walk from v closed at v
        cycle_length.append(j - seen[u])
        depth.append(seen[u])
    return on_cycle, cycle_length, depth


def drazin_steps(t):
    """Drazin inverse by the step-by-step chain and an O(n k) index scan.

    Returns (table, index, k) with S^-(k+1) T^k applied by k+1 gathers.
    """
    t = np.asarray(t, dtype=np.int64)
    n = len(t)
    sets, k, _, _ = image_chain_steps(t)
    M = sets[-1]
    pos = -np.ones(n, dtype=np.int64)
    pos[M] = np.arange(len(M))
    inv_perm = np.argsort(pos[t[M]])
    comp = np.arange(len(M), dtype=np.int64)
    for _ in range(k + 1):
        comp = inv_perm[comp]
    tk = np.arange(n, dtype=np.int64)
    for _ in range(k):
        tk = t[tk]
    g = M[comp[pos[tk]]]
    tm = np.arange(n, dtype=np.int64)
    for m in range(1, n + 2):
        tm = t[tm]                                # T^m
        if np.array_equal(t[tm][g], tm):          # T^(m+1) G = T^m
            return g, m, k
    raise AssertionError("index scan exceeded |V|+1")


def left_drazin_steps(t):
    """Left-Drazin table with identity fill, assigned one node at a time."""
    t = np.asarray(t, dtype=np.int64)
    sets, k, injective, _ = image_chain_steps(t)
    level = sets[injective.index(True)]
    table = np.arange(len(t), dtype=np.int64)
    for v in level:
        table[t[v]] = v
    return table, max(k, 1), k


def stabilization_profile_steps(t):
    """(l, m) by shrinking the image one step at a time."""
    cur = np.arange(len(t), dtype=np.int64)
    l = 0
    while True:
        nxt = np.unique(np.asarray(t)[cur])
        if len(nxt) == len(cur):
            return l, len(cur)
        cur = nxt
        l += 1


def vanishing_poly_reducer(T):
    """x^l times the first linear dependence among the iterate-incidence
    rows of the stabilized image, by incremental row reduction over F_p.

    Returns the coefficient list, low degree first.
    """
    from geninv.vanishing import _FpReducer

    l, m = stabilization_profile_steps(T.table)
    stable = np.arange(T.size, dtype=np.int64)
    for _ in range(l):
        stable = np.unique(T.table[stable])
    pos = -np.ones(T.size, dtype=np.int64)
    pos[T.table[stable]] = np.arange(m)
    reducer = _FpReducer(T.p)
    cur = stable.copy()
    for _ in range(m * m + 1):
        row = np.zeros(m * m, dtype=np.int64)
        row[np.arange(m) * m + pos[cur]] = 1
        dependence = reducer.offer(row)
        if dependence is not None:
            return [0] * l + [int(c) for c in dependence]
        cur = T.table[cur]
    raise AssertionError("no dependence within m^2+1 rows")


def closed_form_pinv_scalar(op, w):
    """Closed form of `op` at one target, one Python branch per kind.

    The per-element implementation that `pinv_table` replaced; the table
    must agree with it on the defined mask and, bit for bit, on the values.
    """
    w = float(w)
    k, a = op.kind, op.a
    if k == "square":
        r = np.sqrt(max(w, 0.0))
        return Pinv1D(True, (0.0,)) if r == 0.0 else Pinv1D(True, (-r, r))
    if k == "shifted_square":
        return Pinv1D(True, (a - np.sign(a) * np.sqrt(max(w, 0.0)),))
    if k == "relu":
        return Pinv1D(True, (max(w, 0.0),))
    if k == "hard_threshold":
        v = np.sign(w) * (abs(w) > a / 2.0) * max(a, abs(w))
        return Pinv1D(True, (float(v),))
    if k == "soft_threshold":
        return Pinv1D(True, (float(np.sign(w) * (abs(w) + a)),))
    if k == "tanh":
        if abs(w) >= 1.0:
            return UNDEFINED
        return Pinv1D(True, (float(np.arctanh(w)),))
    if k == "sign":
        if abs(w) > 0.5:
            return UNDEFINED
        return Pinv1D(True, (0.0,))
    if k == "sign_eps":
        return Pinv1D(True, (float(op.eps * np.clip(w, -1.0, 1.0)),))
    if k == "exp":
        if w <= 0.0:
            return UNDEFINED
        return Pinv1D(True, (float(np.log(w)),))
    if k == "sine":
        return Pinv1D(True, (float(np.arcsin(np.clip(w, -1.0, 1.0))),))
    if k == "linear":
        if op.c == 0.0:
            return Pinv1D(True, (0.0,))
        return Pinv1D(True, (w / op.c,))
    raise ValueError("no closed form for kind %r" % (k,))


def wavelet_roundtrip_dense(H, kind, a, x):
    """(denoised, roundtrip) of Haar thresholding through the dense matrix H,
    with the hard/soft threshold and its pseudo-inverse written out."""
    def threshold(u):
        if kind == "hard":
            return u * (np.abs(u) >= a)
        return np.sign(u) * np.maximum(np.abs(u) - a, 0.0)

    def threshold_pinv(u):
        if kind == "hard":
            return np.sign(u) * (np.abs(u) > a / 2.0) * np.maximum(a, np.abs(u))
        return np.sign(u) * (np.abs(u) + a)

    u = threshold(H @ x)
    return H.T @ u, H.T @ threshold_pinv(u)


def fp_matmul_object(A, B, p):
    """A B mod p in Python integers (object dtype): no overflow at any p."""
    A = np.asarray(A, dtype=np.int64).astype(object)
    B = np.asarray(B, dtype=np.int64).astype(object)
    return np.asarray((A @ B) % p, dtype=np.int64)
