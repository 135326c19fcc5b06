"""Shared independent oracles for the test suite."""

import itertools
import os
import subprocess
import sys

import numpy as np

from geninv.applied import QP_CAP, LeastNormQP, QPResult, _kkt_residuals
from geninv.pseudo_inverse import Pinv1D, UNDEFINED

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_optimized(code):
    """Run `code` in a fresh `python -O` (assert statements stripped) with
    the package's sources on its path; the CompletedProcess, text output."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


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


def qp_oracle_enumerate_svd(qp, tol=1e-9, rounding=1e-12):
    """`qp_oracle_enumerate` with each subset solved by SVD on the rows.

    Every row is first scaled to unit norm with its right-hand side, which
    leaves the program unchanged. Then v = lstsq(M, rhs) is the least-norm
    solution of M v = rhs and alpha = lstsq(M^T, v) its row multipliers, so
    nearly dependent rows cost a factor kappa(M) of accuracy where the Gram
    matrix M M^T costs kappa(M)^2. A subset is consistent when
    |M v - rhs| <= rounding (|M| |v| + |rhs|); a candidate is feasible when
    each inequality's slack c_j v - d_j is at most `tol`, the slack the
    solver accepts, plus rounding (|c_j| |v| + |d_j|); it is dual feasible
    when the unit rows' multipliers are >= -rounding (1 + ||v||). Returns
    (v, active_set) or None, as the Gram oracle does.
    """
    def unit(rows, rhs):
        s = np.linalg.norm(rows, axis=1)
        s[s == 0] = 1.0
        return rows / s[:, None], rhs / s

    A, b = unit(qp.a_eq, qp.b_eq)
    C, d = unit(qp.c_ineq, qp.d_ineq)
    best = None
    for r in range(len(d) + 1):
        for subset in itertools.combinations(range(len(d)), r):
            M = np.concatenate([A, C[list(subset)]], axis=0)
            rhs = np.concatenate([b, d[list(subset)]])
            if M.shape[0]:
                v, *_ = np.linalg.lstsq(M, rhs, rcond=None)
                if np.any(np.abs(M @ v - rhs) > rounding * (np.abs(M) @ np.abs(v) + np.abs(rhs))):
                    continue
                alpha, *_ = np.linalg.lstsq(M.T, v, rcond=None)
                mu = -alpha[len(b):]
            else:
                v = np.zeros(qp.dim)
                mu = np.zeros(0)
            slack = qp.c_ineq @ v - qp.d_ineq
            if np.any(slack > tol + rounding * (np.abs(qp.c_ineq) @ np.abs(v) + np.abs(qp.d_ineq))):
                continue
            if np.any(mu < -rounding * (1 + np.linalg.norm(v))):
                continue
            if best is None or np.linalg.norm(v) < np.linalg.norm(best[0]) * (1 - rounding):
                active = {j for i, j in enumerate(subset) if mu[i] > 1e-7}
                best = (v, active)
    return best


# The production QP solver before it kept its working rows as an updated QR
# factorization: one SVD-based lstsq on all working rows per step and a Gram
# matrix for the final re-solve. Kept verbatim as the differential oracle.
def _least_norm_rows(M, rhs, tol):
    """Least-norm v with M v = rhs, or None when inconsistent; also the
    row multipliers alpha with v = M^T alpha."""
    if M.shape[0] == 0:
        return np.zeros(M.shape[1]), np.zeros(0)
    gram = M @ M.T
    alpha, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    v = M.T @ alpha
    if np.linalg.norm(M @ v - rhs) > tol * (1.0 + np.linalg.norm(rhs)):
        return None, None
    return v, alpha


def solve_least_norm_qp_lstsq(qp, tol=1e-9, cap=QP_CAP):
    """Dual active-set solver for the strictly convex least-norm program.

    Starts from the equality-only least-norm point, which is optimal for
    the empty working set, then repeatedly enforces the most violated
    inequality: a step in the null space of the working rows activates it,
    and the dual ratio test drops any working constraint whose multiplier
    would turn negative first. A violated constraint linearly dependent on
    the working rows with no droppable blocker certifies infeasibility;
    contradictory equality rows are infeasible outright. The working-set
    solution is re-solved exactly before returning.
    """
    neq = qp.a_eq.shape[0]
    nin = qp.c_ineq.shape[0]
    working = []

    def rows(active):
        return np.concatenate([qp.a_eq, qp.c_ineq[active]], axis=0)

    def polish(active):
        M = rows(active)
        rhs = np.concatenate([qp.b_eq, qp.d_ineq[active]])
        v, alpha = _least_norm_rows(M, rhs, tol)
        if v is None:
            return None
        lam = -alpha[:neq]
        mu = np.zeros(nin)
        for i, j in enumerate(active):
            mu[j] = -alpha[neq + i]
        return v, lam, mu

    v, alpha = _least_norm_rows(qp.a_eq, qp.b_eq, tol)
    if v is None:
        return QPResult(None, "infeasible", None, None, [], 0)
    mult = -alpha if neq else np.zeros(0)        # [lam; mu_working]

    budget = 0
    while budget < cap:
        budget += 1
        slack = qp.c_ineq @ v - qp.d_ineq if nin else np.zeros(0)
        cand = [j for j in range(nin) if j not in working and slack[j] > tol]
        if not cand:
            done = polish(working)
            if done is None:
                return QPResult(None, "infeasible", None, None, sorted(working), budget)
            v, lam, mu = done
            bad = [i for i, j in enumerate(working) if mu[j] < -tol]
            if bad:
                mult = np.delete(np.concatenate([lam, mu[working]]), neq + bad[0])
                working.pop(bad[0])
                continue
            if nin and np.any(qp.c_ineq @ v - qp.d_ineq > tol):
                mult = np.concatenate([lam, mu[working]])
                continue
            mu = np.maximum(mu, 0.0)
            kkt = _kkt_residuals(qp, v, lam, mu)
            return QPResult(v, "optimal", lam, mu, sorted(working), budget, kkt)

        p = int(max(cand, key=lambda j: slack[j]))
        n_p = qp.c_ineq[p]
        u_p = 0.0
        while budget < cap:
            budget += 1
            M = rows(working)
            if M.shape[0]:
                r, *_ = np.linalg.lstsq(M.T, n_p, rcond=None)
                z = n_p - M.T @ r
            else:
                r = np.zeros(0)
                z = n_p.copy()
            zz = float(z @ z)
            step_ok = zz > tol * (1.0 + float(n_p @ n_p))
            t2 = float(n_p @ v - qp.d_ineq[p]) / zz if step_ok else np.inf
            t1 = np.inf
            k_block = None
            for i in range(len(working)):
                if r[neq + i] > tol:
                    ratio = mult[neq + i] / r[neq + i]
                    if ratio < t1:
                        t1 = ratio
                        k_block = i
            t = min(t1, t2)
            if not np.isfinite(t):
                return QPResult(None, "infeasible", None, None, sorted(working), budget)
            mult = mult - t * r
            u_p += t
            if step_ok:
                v = v - t * z
            if t2 <= t1:
                working.append(p)
                mult = np.concatenate([mult, [u_p]])
                break
            working.pop(k_block)
            mult = np.delete(mult, neq + k_block)
    return QPResult(None, "iteration_limit", None, None, sorted(working), cap)



def clipped_tanh_qp_loop(layer, w):
    """The clipped-tanh layer's program built one row at a time, as
    `clipped_tanh_layer_pinv` did before it split rows by mask."""
    k = layer.clip
    w = np.atleast_1d(np.asarray(w, dtype=float))
    hi = 1.0 - 1.0 / k
    wc = np.clip(w, -hi, hi)
    A = layer.weights
    bound = np.arctanh(hi)
    eq_rows, eq_rhs, in_rows, in_rhs = [], [], [], []
    for i, wi in enumerate(wc):
        if wi >= hi:
            in_rows.append(-A[i])          # (Av)_i >= arctanh(hi)
            in_rhs.append(-bound)
        elif wi <= -hi:
            in_rows.append(A[i])           # (Av)_i <= -arctanh(hi)
            in_rhs.append(-bound)
        else:
            eq_rows.append(A[i])
            eq_rhs.append(np.arctanh(wi))
    return LeastNormQP(np.array(eq_rows).reshape(len(eq_rows), A.shape[1]),
                       np.array(eq_rhs),
                       np.array(in_rows).reshape(len(in_rows), A.shape[1]),
                       np.array(in_rhs))

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
    """Per node by walking: (on_cycle, cycle_length, depth, cycle_root) as
    lists, cycle_root being the least node of the cycle the walk enters."""
    t = [int(x) for x in t]
    on_cycle, cycle_length, depth, cycle_root = [], [], [], []
    for v in range(len(t)):
        seen = {}
        u, j = v, 0
        while u not in seen:
            seen[u] = j
            u, j = t[u], j + 1
        on_cycle.append(u == v)                   # the walk from v closed at v
        cycle_length.append(j - seen[u])
        depth.append(seen[u])
        cycle_root.append(min(w for w, i in seen.items() if i >= seen[u]))
    return on_cycle, cycle_length, depth, cycle_root


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


class FpReducer:
    """Incremental row reduction over F_p with coefficient tracking.

    Feeding vectors one at a time, `offer` returns None while the stream
    stays independent, and the dependence coefficients (low index first,
    last one equal to 1) at the first linear dependence.
    """

    def __init__(self, p):
        self.p = p
        self.rows = []        # normalized reduced rows
        self.leads = []       # leading column per row
        self.reps = []        # expression of each row in the original stream
        self.count = 0

    def offer(self, vec):
        p = self.p
        r = np.asarray(vec, dtype=np.int64) % p
        rep = np.zeros(self.count + 1, dtype=np.int64)
        rep[self.count] = 1
        self.count += 1
        for row, lead, rrep in zip(self.rows, self.leads, self.reps):
            c = r[lead]
            if c:
                r = (r - c * row) % p
                rep[:len(rrep)] = (rep[:len(rrep)] - c * rrep) % p
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return rep
        lead = int(nz[0])
        inv = pow(int(r[lead]), -1, p)
        self.rows.append(r * inv % p)
        self.leads.append(lead)
        self.reps.append(rep * inv % p)
        return None


def minimal_poly_reducer(T):
    """Coefficient list of the minimal polynomial: the first linear
    dependence among the iterates T^0, T^1, ... as stacked digit arrays,
    monic by construction; independence of the earlier iterates makes it
    least."""
    vecs = T.space()
    reducer = FpReducer(T.p)
    cur = np.arange(T.size, dtype=np.int64)
    for _ in range(T.size * T.n + 2):
        dependence = reducer.offer(vecs[cur].ravel())
        if dependence is not None:
            return [int(c) for c in dependence]
        cur = T.table[cur]
    raise AssertionError("no vanishing polynomial found; finite space guarantee broken")


def vanishing_poly_reducer(T):
    """x^l times the first linear dependence among the iterate-incidence
    rows of the stabilized image, by incremental row reduction over F_p.

    Returns the coefficient list, low degree first.
    """
    l, m = stabilization_profile_steps(T.table)
    stable = np.arange(T.size, dtype=np.int64)
    for _ in range(l):
        stable = np.unique(T.table[stable])
    pos = -np.ones(T.size, dtype=np.int64)
    pos[T.table[stable]] = np.arange(m)
    reducer = FpReducer(T.p)
    cur = stable.copy()
    for _ in range(m * m + 1):
        row = np.zeros(m * m, dtype=np.int64)
        row[np.arange(m) * m + pos[cur]] = 1
        dependence = reducer.offer(row)
        if dependence is not None:
            return [0] * l + [int(c) for c in dependence]
        cur = T.table[cur]
    raise AssertionError("no dependence within m^2+1 rows")


# ---------------------------------------------------------------------------
# list polynomial arithmetic over F_p (coefficients low degree first)
# ---------------------------------------------------------------------------

def poly_trim(c, p):
    c = [int(x) % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul_list(a, b, p):
    """Schoolbook product."""
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return poly_trim(c, p)


def poly_divmod_list(a, b, p):
    """Long division on Python lists, one coefficient at a time."""
    if not poly_trim(b, p):
        raise ZeroDivisionError("division by the zero polynomial")
    b = poly_trim(b, p)
    rem = poly_trim(a, p)
    q = [0] * max(len(rem) - len(b) + 1, 1)
    dlead_inv = pow(int(b[-1]), -1, p)
    dd = len(b) - 1
    while len(rem) - 1 >= dd and any(rem):
        k = len(rem) - 1
        if rem[k] == 0:
            rem.pop()
            continue
        factor = rem[k] * dlead_inv % p
        q[k - dd] = factor
        for i, y in enumerate(b):
            rem[k - dd + i] = (rem[k - dd + i] - factor * y) % p
        rem.pop()
    return poly_trim(q, p), poly_trim(rem, p)


def poly_monic_list(a, p):
    inv = pow(int(a[-1]), -1, p)
    return [x * inv % p for x in a]


def poly_gcd_list(a, b, p):
    """Monic gcd by Euclid with poly_divmod_list; [] when both are zero."""
    a, b = poly_trim(a, p), poly_trim(b, p)
    while b:
        a, b = b, poly_divmod_list(a, b, p)[1]
    return poly_monic_list(a, p) if a else []


def poly_lcm_list(polys, p):
    """Monic least common multiple: lcm(a, f) = a (f / gcd(a, f))."""
    out = [1]
    for f in polys:
        f = poly_trim(f, p)
        if not f:
            return []
        out = poly_mul_list(out, poly_divmod_list(f, poly_gcd_list(out, f, p), p)[0], p)
    return poly_monic_list(out, p)


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


def fp_rref_object(A, p):
    """Reduced row echelon form over F_p in Python integers (object dtype),
    one row operation at a time: (R, pivot_cols, rank)."""
    R = np.asarray(A, dtype=np.int64).astype(object) % p
    rows, cols = R.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        below = [i for i in range(r, rows) if R[i, c] != 0]
        if not below:
            continue
        R[[r, below[0]]] = R[[below[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        for k in range(rows):
            if k != r and R[k, c] != 0:
                R[k] = (R[k] - R[k, c] * R[r]) % p
        pivots.append(c)
    return np.asarray(R, dtype=np.int64), pivots, len(pivots)


def fp_kernel_object(A, p):
    """The null space basis read off fp_rref_object: one vector per free
    column, that column set to 1, in increasing column order."""
    R, pivots, _ = fp_rref_object(A, p)
    cols = R.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -int(R[r, f]) % p
        basis.append(v)
    return basis


def fp_invert_object(A, p):
    """The inverse over F_p by object-dtype elimination on [A | I], or None
    when A has rank below n."""
    n = len(A)
    if fp_rref_object(A, p)[2] < n:
        return None
    return fp_rref_object(np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1), p)[0][:, n:]


def is_prime_trial_division(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def fp_char_poly_cofactor(A, p):
    """Characteristic polynomial det(xI - A) over F_p, low-degree first.

    Cofactor expansion over the polynomial ring; exact, factorial time, so
    an oracle for n <= 7.
    """
    from geninv.numerics import fp_asarray, fp_check
    fp_check(p)
    A = fp_asarray(A, p)
    n = A.shape[0]

    def poly_add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = (out[i] + x) % p
        return out

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return out

    def det(rows, cols):
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            d = [(-A[i, j]) % p]
            if i == j:
                d = poly_add(d, [0, 1])
            return d
        acc = [0]
        i = rows[0]
        sign = 1
        for idx, j in enumerate(cols):
            entry = [(-A[i, j]) % p]
            if i == j:
                entry = poly_add(entry, [0, 1])
            if any(entry):
                minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
                term = poly_mul(entry, minor)
                if sign < 0:
                    term = [(-t) % p for t in term]
                acc = poly_add(acc, term)
            sign = -sign
        return acc

    coeffs = det(list(range(n)), list(range(n)))
    coeffs += [0] * (n + 1 - len(coeffs))
    return coeffs


# ---------------------------------------------------------------------------
# per-id loop oracles for the array-native table algebra
# ---------------------------------------------------------------------------

def one_two_spec_valid_loop(T, v0, p0):
    """The per-id (V0, P0) check, walked through dicts and sets."""
    img_set = set(int(w) for w in np.unique(T.arr))
    v0 = [int(v) for v in v0]
    if len(set(v0)) != len(v0) or len(v0) != len(img_set):
        return False
    hit = set()
    for v in v0:
        if not 0 <= v < T.domain_size or T(v) in hit:
            return False
        hit.add(T(v))
    if hit != img_set or len(p0) != T.codomain_size:
        return False
    return all(int(q) in img_set and (w not in img_set or int(q) == w)
               for w, q in enumerate(p0))


def default_spec_loop(T):
    """(v0, p0): first source per image element in id order; nearest-id
    retraction, ties to the smaller id."""
    img = np.unique(T.arr)
    v0, taken = [], set()
    for v in range(T.domain_size):
        if T(v) not in taken:
            taken.add(T(v))
            v0.append(v)
    p0 = []
    for w in range(T.codomain_size):
        if w in taken:
            p0.append(w)
        else:
            p0.append(int(img[int(np.argmin(np.abs(img - w)))]))
    return tuple(v0), tuple(p0)


def one_two_inverse_loop(T, v0, p0):
    """(T|_V0)^-1 P0 as a tuple, through a dict from image element to source."""
    source_of = {}
    for v in v0:
        source_of[T(v)] = v
    return tuple(source_of[int(q)] for q in p0)


def double_inverse_loop(T, Tbar):
    """The construction applied to Tbar with W0 = T(V) and Q0 = Tbar T."""
    source_of = {}
    for w in np.unique(T.arr):
        source_of[Tbar(int(w))] = int(w)
    return tuple(source_of[Tbar(T(v))] for v in range(T.domain_size))


def one_two_inverse_count_loop(T):
    """Product over the image of preimage sizes, times |image|^(off-image ids)."""
    img = np.unique(T.arr)
    counts = np.bincount(T.arr, minlength=T.codomain_size)
    total = 1
    for w in img:
        total *= int(counts[w])
    return total * len(img) ** (T.codomain_size - len(img))


def tail_operator_loop(poly, k, T):
    """-a_k^-1 sum_{i>k} a_i T^(i-k-1) as a table, accumulated one power
    at a time: the loop of the polynomial left inverse (k = 0) and of the
    left-Drazin inverse (k the least nonzero index)."""
    from geninv.vanishing import encode

    p = T.p
    scale = (-pow(int(poly.coeff(k)), -1, p)) % p
    vecs = T.space()
    acc = np.zeros_like(vecs)
    cur = np.arange(T.size, dtype=np.int64)
    for i in range(k + 1, poly.degree + 1):
        a = poly.coeff(i)
        if a:
            acc = (acc + a * vecs[cur]) % p
        cur = T.table[cur]
    return encode(acc * scale % p, p)


# ---------------------------------------------------------------------------
# joint-grid scans, plain Dykstra and the per-scalar homogeneity loop
# ---------------------------------------------------------------------------

def grid_dense(T, box, step):
    """(points, values, norms) of T on the joint row-major box grid."""
    axes = [lo + step * np.arange(int(np.floor((hi - lo) / step + 1e-9)) + 1)
            for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return points, T.apply_batch(points), np.linalg.norm(points, axis=1)


def grid_query_dense(T, box, step, w):
    """BAS grid search by one scan of the joint grid: least residual, then
    least norm, then first in row-major order. Returns (v, residual, norm,
    index, residuals, norms)."""
    points, values, norms = grid_dense(T, box, step)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    res = np.linalg.norm(values - w[None, :], axis=1)
    tie = np.flatnonzero(res <= res.min())
    j = tie[np.argmin(norms[tie])]
    return points[j].copy(), float(res[j]), float(norms[j]), int(j), res, norms


def check_pseudo_inverse_two_scan(T, G, samples, box, step, res_slack=1e-9,
                                  norm_slack=None, mp2_tol=1e-9):
    """The BAS certificate with two joint-grid scans per sample: one for the
    best residual, one for the least norm among near-ties. Returns one tuple
    per sample in the field order of PseudoInverseReport."""
    points, values, norms = grid_dense(T, box, step)
    if norm_slack is None:
        norm_slack = 2.0 * step * np.sqrt(T.dim_in)
    out = []
    for w in samples:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        v = G.apply(w)
        Tv = T.apply(v)
        residual = float(np.linalg.norm(Tv - w))
        norm = float(np.linalg.norm(v))
        gtv = G.apply(Tv)
        mp1 = float(np.linalg.norm(T.apply(gtv) - Tv))
        mp2 = float(np.linalg.norm(gtv - v))
        res = np.linalg.norm(values - w[None, :], axis=1)
        tie = np.flatnonzero(res <= res.min())
        best = float(res[tie[np.argmin(norms[tie])]])
        res = np.linalg.norm(values - w[None, :], axis=1)
        hit = res <= max(residual, best) + res_slack
        tie_norm = float(norms[hit].min()) if hit.any() else np.inf
        gap, ngap = residual - best, norm - tie_norm
        out.append((w, v, residual, norm, mp1, mp2,
                    bool(gap <= res_slack and ngap <= norm_slack), bool(mp2 <= mp2_tol),
                    float(gap), float(ngap)))
    return out


def dykstra_fixed_sweeps(parts, y, sweeps):
    """Dykstra's alternating projections of one point for a fixed number of
    sweeps, with no stopping rule."""
    x = np.asarray(y, dtype=float)[None, :]
    corrections = [np.zeros_like(x) for _ in parts]
    for _ in range(sweeps):
        for i, p in enumerate(parts):
            z = x + corrections[i]
            x = p.project_batch(z)
            corrections[i] = z - x
    return x[0]


def dykstra_until_settled(parts, Y, tol, cap):
    """Plain Dykstra (no extrapolation) on every row of Y, swept until no
    row's corrections move by more than `tol` in a sweep, or `cap` sweeps.
    Returns the iterates and, per row, whether it settled."""
    x = np.asarray(Y, dtype=float)
    corrections = [np.zeros_like(x) for _ in parts]
    for _ in range(cap):
        move = np.zeros(len(x))
        for i, p in enumerate(parts):
            z = x + corrections[i]
            x = p.project_batch(z)
            move = np.maximum(move, np.abs(z - x - corrections[i]).max(axis=1))
            corrections[i] = z - x
        if np.all(move <= tol):
            break
    return x, move <= tol


def one_homogeneous_loop(T):
    """T(0) = 0 and T(a v) = a T(v) for every scalar a = 2..p-1, one pass
    over all p^n vectors per scalar."""
    from geninv.vanishing import encode
    if T.table[0] != 0:
        return False
    vecs = T.space()
    for a in range(2, T.p):
        scaled = encode(vecs * a % T.p, T.p)
        if not np.array_equal(T.table[scaled], scaled[T.table]):
            return False
    return True


def read_csv_signal_loop(path):
    """The signal reader before it parsed in one call: one float() per
    stripped, non-blank line. Raises ValueError on a bad line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return np.array([float(x) for x in lines])


def write_csv_signal_loop(path, values):
    """The signal writer before it wrote in one call: repr(float(x)) per line."""
    with open(path, "w") as fh:
        for x in values:
            fh.write(repr(float(x)) + "\n")
