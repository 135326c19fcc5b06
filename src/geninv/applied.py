"""Neural-layer inversion via least-norm QP, and wavelet thresholding.

The layer T(v) = sigma(A v) with full-rank wide A is inverted per
activation: arctanh plus the matrix pseudo-inverse for tanh, a mixed
equality/inequality least-norm program for ReLU and for tanh clipped to
[-1+1/k, 1-1/k]^m. The QP solver is a small working-set method for
strictly convex min ||v||^2 problems. Wavelet thresholding runs the O(n)
Haar transform and the scalar closed-form table of `pseudo_inverse`.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core_ops import VectorOperator
from .numerics import mp_inverse
from .pseudo_inverse import Scalar1DOperator, pinv_table

QP_CAP = 500


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
    status: str                 # optimal | infeasible | iteration_limit
    lam: np.ndarray             # equality multipliers
    mu: np.ndarray              # inequality multipliers (0 off the active set)
    active: list
    iterations: int
    kkt: dict = field(default_factory=dict)


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


def solve_least_norm_qp(qp, tol=1e-9, cap=QP_CAP):
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
        if self.activation == "tanh":
            f = np.tanh
        else:
            f = lambda u: np.maximum(u, 0.0)
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

    Returns None ("undefined at w") when any |w_i| >= 1; those targets
    have no nearest point in the open image (-1,1)^m.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(np.abs(w) >= 1.0):
        return None
    return mp_inverse(layer.weights) @ np.arctanh(w)


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
    qp = LeastNormQP(np.array(eq_rows).reshape(len(eq_rows), A.shape[1]),
                     np.array(eq_rhs),
                     np.array(in_rows).reshape(len(in_rows), A.shape[1]),
                     np.array(in_rhs))
    out = solve_least_norm_qp(qp, tol=tol)
    if out.status != "optimal":
        raise ArithmeticError("clipped-tanh program did not solve: %s "
                              "(full-rank certification may have failed)" % out.status)
    return out.v


def relu_layer_pinv(layer, w, tol=1e-9):
    """Pseudo-inverse of relu(A .): negative targets clamp to 0 first, then
    least-norm v with (Av)_i = w_i where w_i > 0 and (Av)_i <= 0 where w_i = 0."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wc = np.maximum(w, 0.0)
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
