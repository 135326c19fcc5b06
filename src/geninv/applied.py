"""Neural-layer inversion via least-norm QP, and wavelet thresholding.

The layer T(v) = sigma(A v) with full-rank wide A is inverted per
activation: arctanh plus the matrix pseudo-inverse for tanh, a mixed
equality/inequality least-norm program for ReLU and for tanh clipped to
[-1+1/k, 1-1/k]^m. The QP solver is a dual active-set method for
strictly convex min ||v||^2 problems (Goldfarb & Idnani): it keeps its
working rows as a thin QR factorization N^T = Q R, updated in place as
rows enter (Gram-Schmidt run twice) and leave (Givens rotations), and
tests dependence relative to a row's own norm (DEPENDENCE_TOL). It
reports "optimal" with KKT residuals, "infeasible" only with a verified
Farkas certificate, "numerical" when that certificate fails its check,
or "iteration_limit". Wavelet thresholding runs the O(n) Haar transform
and the scalar closed-form table of `pseudo_inverse`.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core_ops import VectorOperator
from .numerics import mp_inverse
from .pseudo_inverse import Scalar1DOperator, pinv_table

QP_CAP = 500
DEPENDENCE_TOL = 1e-10     # n_p depends on the working rows: ||z|| <= this * ||n_p||


@dataclass
class LeastNormQP:
    """min ||v||^2 s.t. a_eq v = b_eq and c_ineq v <= d_ineq."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    c_ineq: np.ndarray
    d_ineq: np.ndarray

    def __post_init__(self):
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        self.c_ineq = np.atleast_2d(np.asarray(self.c_ineq, dtype=float))
        self.d_ineq = np.atleast_1d(np.asarray(self.d_ineq, dtype=float))
        n = max(self.a_eq.shape[1], self.c_ineq.shape[1])
        if n == 0:
            raise ValueError("cannot infer the variable dimension")
        # an empty block may arrive as shape (k, 0) or (1, 0); normalize
        if self.a_eq.size == 0:
            self.a_eq = np.zeros((0, n))
        if self.c_ineq.size == 0:
            self.c_ineq = np.zeros((0, n))
        if self.a_eq.shape[1] != n or self.c_ineq.shape[1] != n:
            raise ValueError("constraint blocks disagree on the dimension")
        if len(self.b_eq) != self.a_eq.shape[0] or len(self.d_ineq) != self.c_ineq.shape[0]:
            raise ValueError("right-hand sides do not match the constraint rows")

    @property
    def dim(self):
        return self.a_eq.shape[1]


@dataclass
class QPResult:
    v: np.ndarray
    status: str                 # optimal | infeasible | numerical | iteration_limit
    lam: np.ndarray             # equality multipliers
    mu: np.ndarray              # inequality multipliers (0 off the active set)
    active: list
    iterations: int
    kkt: dict = field(default_factory=dict)
    farkas: np.ndarray = None   # y over the rows [a_eq; c_ineq] (infeasible | numerical)
    farkas_residuals: dict = field(default_factory=dict)


class _WorkingRows:
    """Thin QR factorization N^T = Q R of the working constraint normals.

    Q^T is the first k rows of a preallocated (kmax, n) array and R the
    leading k x k block of a preallocated upper-triangular array, so a
    step copies nothing it does not change. `cols` names the row behind
    each column: i for equality row i, neq + j for inequality row j.
    """

    def __init__(self, n, kmax):
        self.qt = np.empty((kmax, n))
        self.r = np.zeros((kmax, kmax))
        self.cols = np.zeros(kmax, dtype=np.int64)
        self.k = 0

    def project(self, x):
        """u = Q^T x and z = x - Q u, by classical Gram-Schmidt run twice."""
        q = self.qt[:self.k]
        u = q @ x
        z = x - u @ q
        du = q @ z
        return u + du, z - du @ q

    def solve(self, u):
        """R^-1 u: the coefficients of Q u in the working rows."""
        k = self.k
        return np.linalg.solve(self.r[:k, :k], u) if k else u

    def least_norm(self, rhs):
        """Least-norm v with N v = rhs, and alpha with v = N^T alpha:
        v = Q R^-T rhs, alpha = R^-1 R^-T rhs."""
        k = self.k
        if not k:       # np.linalg.solve costs microseconds even on 0 x 0
            return np.zeros(self.qt.shape[1]), rhs
        w = np.linalg.solve(self.r[:k, :k].T, rhs)
        return w @ self.qt[:k], np.linalg.solve(self.r[:k, :k], w)

    def append(self, u, z, norm_z, col):
        """Add a row with Q^T x = u and residual z: Q gains z / ||z||, R the
        column (u, ||z||)."""
        k = self.k
        self.qt[k] = z / norm_z
        self.r[:k, k] = u
        self.r[k, k] = norm_z
        self.cols[k] = col
        self.k = k + 1

    def drop(self, j):
        """Delete column j of R; Givens rotations on rows (i, i + 1), i >= j,
        restore triangular form, and Q's columns take the same rotations."""
        k, r, qt = self.k, self.r, self.qt
        r[:k, j:k - 1] = r[:k, j + 1:k]
        self.cols[j:k - 1] = self.cols[j + 1:k]
        for i in range(j, k - 1):
            a, b = r[i, i], r[i + 1, i]
            h = math.hypot(a, b)
            g = np.array([[a / h, b / h], [-b / h, a / h]])
            r[i:i + 2, i:k - 1] = g @ r[i:i + 2, i:k - 1]
            r[i + 1, i] = 0.0
            qt[i:i + 2] = g @ qt[i:i + 2]
        r[:k, k - 1] = 0.0
        self.k = k - 1


def _farkas_vector(neq, nin, cols, r, row):
    """y with y_row = 1 and y = -r on the working rows, inequality entries
    clipped at 0: sum_i y_i a_i is the part of row `row` outside the span
    of the working rows."""
    y = np.zeros(neq + nin)
    y[cols] = -r
    y[row] = 1.0
    y[neq:] = np.maximum(y[neq:], 0.0)
    return y


def _certified_exit(qp, y, active, iterations):
    """Status "infeasible" when y is a Farkas certificate, else "numerical".

    y certifies {a_eq v = b_eq, c_ineq v <= d_ineq} infeasible when y >= 0
    on the inequality rows, ||sum_i y_i a_i|| <= DEPENDENCE_TOL *
    sum_i |y_i| ||a_i|| and y^T [b; d] < -DEPENDENCE_TOL *
    sum_i |y_i| |[b; d]_i|: any feasible v would then need
    ||v|| >= |y^T [b; d]| / ||sum_i y_i a_i||.
    """
    neq = qp.a_eq.shape[0]
    rows = np.concatenate([qp.a_eq, qp.c_ineq])
    rhs = np.concatenate([qp.b_eq, qp.d_ineq])
    comb = float(np.linalg.norm(y @ rows))
    gap = float(y @ rhs)
    ay = np.abs(y)
    ok = (bool(np.all(y[neq:] >= 0.0))
          and comb <= DEPENDENCE_TOL * float(ay @ np.linalg.norm(rows, axis=1))
          and gap < -DEPENDENCE_TOL * float(ay @ np.abs(rhs)))
    return QPResult(None, "infeasible" if ok else "numerical", None, None, active,
                    iterations, farkas=y,
                    farkas_residuals={"combination": comb, "rhs": gap})


def solve_least_norm_qp(qp, tol=1e-9, cap=QP_CAP):
    """Dual active-set solver for the strictly convex least-norm program.

    Starts from the equality-only least-norm point, which is optimal for
    the empty working set, then repeatedly enforces the most violated
    inequality (lowest index on ties): a step in the null space of the
    working rows activates it, and the dual ratio test drops the working
    constraint whose multiplier would turn negative first (first minimum
    on ties). Each pass over the candidates and each step counts as an
    iteration; `cap` bounds them. When no inequality is violated by more
    than `tol`, the working-set solution is re-solved exactly (if the
    working set changed since it was last solved); a negative multiplier
    there drops its constraint, and a violated non-working row resumes
    the loop.

    The working rows N (equality rows first, then the working
    inequalities in the order they entered) are held as a thin QR
    factorization N^T = Q R (Goldfarb & Idnani 1983), built once per
    solve, row by row from the equality rows, and updated at every step;
    nothing is solved from scratch. A step computes u = Q^T n_p and
    z = n_p - Q u by classical Gram-Schmidt run twice, and r = R^-1 u.
    Adding a row gives Q the column z / ||z|| and R the column
    (u, ||z||); dropping one deletes its column of R and restores the
    triangle with Givens rotations, which Q's columns take too. The
    working-set solution is v = Q R^-T rhs with multipliers
    -R^-1 R^-T rhs.

    A row n_p counts as dependent on the working rows when
    ||z|| <= DEPENDENCE_TOL * ||n_p|| (DEPENDENCE_TOL = 1e-10), a test
    relative to the row's own scale, so rows that are independent but
    nearly singular together (a 3 x 3 layer with singular values 2.9,
    1.7 and 2.9e-5) stay independent. A dependent equality row is left
    out of Q and R when its right-hand side agrees with the rows it
    depends on, and makes the program infeasible when it does not. A
    dependent violated inequality with no working inequality to drop
    (no r_j > tol) makes it infeasible too. Either way the vector y with
    1 on that row and -r on the working rows must pass as a Farkas
    certificate (`_certified_exit`).

    Statuses:
      "optimal"          v, lam, mu, the active set and the KKT residuals;
      "infeasible"       a verified Farkas vector in `farkas`, with its
                         two residuals in `farkas_residuals`;
      "numerical"        the Farkas vector failed its check, so neither
                         feasibility nor infeasibility is certified;
      "iteration_limit"  `cap` iterations without an answer.
    Every exit reports `iterations` and the working inequalities in
    `active`.
    """
    A, b, C, d = qp.a_eq, qp.b_eq, qp.c_ineq, qp.d_ineq
    neq, nin = len(b), len(d)
    rhs = np.concatenate([b, d])
    kmax = min(qp.dim, neq + nin)
    wr = _WorkingRows(qp.dim, kmax)
    working = np.zeros(nin, dtype=bool)

    def active():
        return np.flatnonzero(working).tolist()

    for i in range(neq):
        a_i = A[i]
        u, z = wr.project(a_i)
        norm_z = math.sqrt(z @ z)
        if norm_z > DEPENDENCE_TOL * math.sqrt(a_i @ a_i):
            wr.append(u, z, norm_z, i)
            continue
        y = _farkas_vector(neq, nin, wr.cols[:wr.k], wr.solve(u), i)
        y = -y if y @ rhs > 0 else y            # free sign on equality rows
        if -(y @ rhs) > DEPENDENCE_TOL * (np.abs(y) @ np.abs(rhs)):
            return _certified_exit(qp, y, [], 0)
    ke = wr.k                                   # equality columns, never dropped
    mult = np.zeros(kmax)                       # [lam; mu_working] by column
    v, alpha = wr.least_norm(rhs[wr.cols[:ke]])
    mult[:ke] = -alpha

    def drop(j):
        k = wr.k
        working[wr.cols[j] - neq] = False
        mult[j:k - 1] = mult[j + 1:k]
        wr.drop(j)

    solved = True                               # v, mult solve the working rows
    budget = 0
    while budget < cap:
        budget += 1
        viol = np.where(working, -np.inf, C @ v - d)
        p = int(np.argmax(viol)) if nin else 0
        if not nin or viol[p] <= tol:
            k = wr.k
            if not solved:
                v, alpha = wr.least_norm(rhs[wr.cols[:k]])
                mult[:k] = -alpha
                solved = True
            bad = mult[ke:k] < -tol
            if bad.any():
                drop(ke + int(np.argmax(bad)))
                solved = False
                continue
            # working rows hold to rounding only, which on a solution of
            # norm 1e9 exceeds tol; looping on them would spin to the cap
            if nin and np.any(np.where(working, -np.inf, C @ v - d) > tol):
                continue
            lam = np.zeros(neq)
            lam[wr.cols[:ke]] = mult[:ke]
            mu = np.zeros(nin)
            mu[wr.cols[ke:k] - neq] = np.maximum(mult[ke:k], 0.0)
            kkt = _kkt_residuals(qp, v, lam, mu)
            return QPResult(v, "optimal", lam, mu, active(), budget, kkt)

        n_p = C[p]
        norm_p = math.sqrt(n_p @ n_p)
        u_p = 0.0
        solved = False
        while budget < cap:
            budget += 1
            k = wr.k
            u, z = wr.project(n_p)
            r = wr.solve(u)
            norm_z = math.sqrt(z @ z)
            step_ok = norm_z > DEPENDENCE_TOL * norm_p
            t2 = float(n_p @ v - d[p]) / (norm_z * norm_z) if step_ok else np.inf
            t1, kb = np.inf, 0
            if k > ke:                          # dual ratio test, first minimum
                rw = r[ke:]
                ratios = np.divide(mult[ke:k], rw, out=np.full(k - ke, np.inf),
                                   where=rw > tol)
                kb = int(np.argmin(ratios))
                t1 = float(ratios[kb])
            t = min(t1, t2)
            if not np.isfinite(t):
                y = _farkas_vector(neq, nin, wr.cols[:k], r, neq + p)
                return _certified_exit(qp, y, active(), budget)
            mult[:k] -= t * r
            u_p += t
            if step_ok:
                v = v - t * z
            if t2 <= t1:
                wr.append(u, z, norm_z, neq + p)
                mult[k] = u_p
                working[p] = True
                break
            drop(ke + kb)
    return QPResult(None, "iteration_limit", None, None, active(), cap)


def _kkt_residuals(qp, v, lam, mu):
    stat = np.linalg.norm(v + qp.a_eq.T @ lam + qp.c_ineq.T @ mu)
    prim_eq = np.linalg.norm(qp.a_eq @ v - qp.b_eq) if qp.a_eq.size else 0.0
    slack = qp.c_ineq @ v - qp.d_ineq if qp.c_ineq.size else np.zeros(0)
    prim_in = float(np.max(slack, initial=0.0))
    dual = float(-np.min(mu, initial=0.0))
    compl = float(np.max(np.abs(mu * slack), initial=0.0))
    return {"stationarity": float(stat), "primal_eq": float(prim_eq),
            "primal_ineq": prim_in, "dual": dual, "complementarity": compl}


# ---------------------------------------------------------------------------
# neural layers
# ---------------------------------------------------------------------------

RANK_TOL = 1e-10
_TANH, _RELU = Scalar1DOperator("tanh"), Scalar1DOperator("relu")


@dataclass
class NeuralLayer:
    """One layer v -> sigma(A v) with full-rank A (m x n, m <= n)."""

    weights: np.ndarray
    activation: str
    clip: int = None

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        m, n = self.weights.shape
        if m > n:
            raise ValueError("layer needs m <= n so that A maps onto R^m")
        if self.activation not in ("tanh", "relu"):
            raise ValueError("activation must be tanh or relu")
        if self.clip is not None and not self.clip > 1:
            raise ValueError("clip parameter must be an integer > 1")
        s = np.linalg.svd(self.weights, compute_uv=False)
        if s[-1] <= RANK_TOL * s[0]:
            raise ValueError("weights are rank deficient; the layer is not onto")

    def operator(self):
        A = self.weights
        f = Scalar1DOperator(self.activation).forward
        op = VectorOperator(A.shape[1], A.shape[0], lambda b: f(b @ A.T),
                            name=self.activation + "_layer")
        if self.clip is not None:
            hi = 1.0 - 1.0 / self.clip
            inner = op
            op = VectorOperator(inner.dim_in, inner.dim_out,
                                lambda b: np.clip(inner.fn(b), -hi, hi),
                                name="clipped_" + inner.name)
        return op


def tanh_layer_pinv(layer, w):
    """Unique pseudo-inverse of a tanh layer: A^+ arctanh(w).

    Returns None ("undefined at w") where tanh's closed form is undefined
    at some w_i (|w_i| >= 1); those targets have no nearest point in the
    open image (-1,1)^m.
    """
    u, defined = pinv_table(_TANH, np.atleast_1d(w))
    if not defined.all():
        return None
    return mp_inverse(layer.weights) @ u


def clipped_tanh_layer_pinv(layer, w, tol=1e-9):
    """Pseudo-inverse of P_C tanh(A .) with C = [-1+1/k, 1-1/k]^m.

    Targets outside C route through the projection (componentwise clamp).
    Components strictly inside C give equality constraints
    (Av)_i = arctanh(w_i); clamped components give one-sided inequality
    constraints at +-arctanh(1 - 1/k).
    """
    k = layer.clip
    if k is None:
        raise ValueError("layer has no clip parameter")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    hi = 1.0 - 1.0 / k
    wc = np.clip(w, -hi, hi)
    A = layer.weights
    clamped = np.abs(wc) >= hi
    # -sign(w_i) (Av)_i <= -arctanh(hi): (Av)_i >= arctanh(hi) at w_i = hi
    sign = -np.sign(wc[clamped])
    qp = LeastNormQP(A[~clamped], pinv_table(_TANH, wc[~clamped])[0],
                     sign[:, None] * A[clamped], np.full(len(sign), -np.arctanh(hi)))
    out = solve_least_norm_qp(qp, tol=tol)
    if out.status != "optimal":
        raise ArithmeticError("clipped-tanh program did not solve: %s "
                              "(full-rank certification may have failed)" % out.status)
    return out.v


def relu_layer_pinv(layer, w, tol=1e-9):
    """Pseudo-inverse of relu(A .): negative targets clamp to 0 first, then
    least-norm v with (Av)_i = w_i where w_i > 0 and (Av)_i <= 0 where w_i = 0."""
    wc = pinv_table(_RELU, np.atleast_1d(w))[0]
    A = layer.weights
    pos = wc > 0
    qp = LeastNormQP(A[pos], wc[pos], A[~pos], np.zeros(int(np.sum(~pos))))
    out = solve_least_norm_qp(qp, tol=tol)
    if out.status != "optimal":
        raise ArithmeticError("relu program did not solve: %s" % out.status)
    return out.v


# ---------------------------------------------------------------------------
# wavelet thresholding
# ---------------------------------------------------------------------------

SQRT2 = np.sqrt(2.0)
PARSEVAL_TOL = 1e-12


@dataclass
class WaveletBasis:
    """Orthonormal Haar transform on signals of length n = 2^k.

    Coefficients come in the row order of the Haar matrix: the approximation,
    then the detail levels from coarsest to finest. `forward` and `inverse`
    work on sums and differences of neighbouring pairs, level by level, in
    O(n) time and memory; `matrix` builds the dense n x n matrix on first
    use, for small n and as an oracle.
    """

    n: int

    def __post_init__(self):
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError("Haar basis needs a power-of-two length")

    def _check_length(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.n,):
            raise ValueError("signal length must match the basis size")
        return x

    def forward(self, x):
        """Haar coefficients H x, certified by Parseval: ||H x|| = ||x||."""
        x = self._check_length(x)
        out = np.empty(self.n)
        s, m = x, self.n
        while m > 1:
            pair = s.reshape(-1, 2)
            out[m // 2:m] = (pair[:, 0] - pair[:, 1]) / SQRT2
            s = (pair[:, 0] + pair[:, 1]) / SQRT2
            m //= 2
        out[0] = s[0]
        e_in, e_out = float(x @ x), float(out @ out)
        if abs(e_out - e_in) > PARSEVAL_TOL * e_in:
            raise ArithmeticError("Haar transform lost orthonormality (%g)"
                                  % abs(e_out - e_in))
        return out

    def inverse(self, c):
        """Signal H^T c from Haar coefficients c."""
        c = self._check_length(c)
        s, m = c[:1].copy(), 1
        while m < self.n:
            d = c[m:2 * m]
            nxt = np.empty(2 * m)
            nxt[0::2] = (s + d) / SQRT2
            nxt[1::2] = (s - d) / SQRT2
            s, m = nxt, 2 * m
        return s

    @cached_property
    def matrix(self):
        """Dense Haar matrix (rows are basis elements), Gram-checked."""
        H = np.array([[1.0]])
        while H.shape[0] < self.n:
            m = H.shape[0]
            top = np.kron(H, [1.0, 1.0])
            bot = np.kron(np.eye(m), [1.0, -1.0])
            H = np.concatenate([top, bot], axis=0) / SQRT2
        gram_err = np.max(np.abs(H.T @ H - np.eye(self.n)))
        if gram_err > 1e-12:
            raise ArithmeticError("Haar construction lost orthonormality (%g)" % gram_err)
        return H


def haar_basis(n):
    """Orthonormal Haar basis for signal length n = 2^k."""
    return WaveletBasis(n)


@dataclass
class WaveletRoundtrip:
    denoised: np.ndarray            # A^-1 sigma(A x)
    roundtrip: np.ndarray           # Gbar(T(x)) with T = sigma A, Gbar = A^-1 sigma_pinv
    difference_norm: float
    witness: np.ndarray = None      # signal separating the two pipelines (soft only)
    witness_difference_norm: float = 0.0


def wavelet_threshold_roundtrip(basis, kind, a, x):
    """Compare wavelet denoising with the apply-then-invert pipeline.

    Hard thresholding satisfies Gbar T = A^-1 sigma A exactly. Soft
    thresholding does not for a > 0; a deterministic witness (one wavelet
    coefficient placed at a+1 via the basis transpose) realizes a gap of
    exactly a.
    """
    if kind not in ("hard", "soft"):
        raise ValueError("threshold kind must be hard or soft")
    sigma = Scalar1DOperator(kind, a=a)

    def denoise_and_roundtrip(sig):
        u = sigma.forward(basis.forward(sig))
        return basis.inverse(u), basis.inverse(pinv_table(sigma, u)[0])

    d, r = denoise_and_roundtrip(x)
    diff = float(np.linalg.norm(d - r))
    witness = None
    wdiff = 0.0
    if kind == "soft" and a > 0:
        coeffs = np.zeros(basis.n)
        coeffs[0] = a + 1.0
        witness = basis.inverse(coeffs)
        wd, wr = denoise_and_roundtrip(witness)
        wdiff = float(np.linalg.norm(wd - wr))
    return WaveletRoundtrip(d, r, diff, witness, wdiff)
