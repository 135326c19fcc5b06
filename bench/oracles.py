"""Independent oracles for every operation the benchmark calls.

Nothing here imports geninv. Each check recomputes what the answer must
satisfy with its own table, integer or closed-form code and returns True
or False; it never raises on a wrong answer. CLI checks read only the
output fields whose meaning is stable (`exists`, `index`,
`inverse_table`, `vanishing`, `minimal`, `v`, `value`, `defined`).
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# finite maps
# ---------------------------------------------------------------------------

def table_power(t, k):
    """T^k of an endofunction table by binary exponentiation."""
    out = np.arange(len(t), dtype=np.int64)
    base = np.asarray(t, dtype=np.int64)
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return out


def _as_table(values, n, bound=None):
    """Integer table of length n with entries in 0..bound-1 (default n), or None."""
    try:
        g = np.asarray(values)
    except (TypeError, ValueError):
        return None
    if g.shape != (n,) or g.dtype.kind not in "iu":
        return None
    if n and (g.min() < 0 or g.max() >= (n if bound is None else bound)):
        return None
    return g.astype(np.int64)


def drazin_ok(t, out):
    """Drazin axioms on the returned table: GTG = G, TG = GT, and
    T^(k+1) G = T^k at the returned index k, which must be the least such k >= 1."""
    t = np.asarray(t, dtype=np.int64)
    if out.get("exists") is not True:
        return False                       # every finite endofunction has one
    g = _as_table(out.get("inverse_table"), len(t))
    k = out.get("index")
    if g is None or type(k) is not int or k < 1:
        return False
    if not np.array_equal(g[t[g]], g) or not np.array_equal(t[g], g[t]):
        return False
    tk = table_power(t, k)
    if not np.array_equal(t[tk][g], tk):
        return False
    if k > 1:
        tkm = table_power(t, k - 1)
        if np.array_equal(tk[g], tkm):
            return False                   # a smaller index already holds
    return True


def one_two_inverse_ok(t, codomain, g):
    """TGT = T and GTG = G for G: codomain -> domain."""
    t = np.asarray(t, dtype=np.int64)
    g = _as_table(g, codomain, len(t))
    if g is None:
        return False
    return bool(np.array_equal(t[g[t]], t) and np.array_equal(g[t[g]], g))


# ---------------------------------------------------------------------------
# polynomials over F_p acting on tables of F_p^n
# ---------------------------------------------------------------------------

def digit_space(p, n):
    """Row i holds the base-p digits of i, low digit first."""
    idx = np.arange(p ** n, dtype=np.int64)
    return (idx[:, None] // p ** np.arange(n, dtype=np.int64)[None, :]) % p


def poly_vanishes_on(coeffs, t, p, digits):
    """q(T)(v) = sum_i a_i T^i(v) is the zero vector for every v."""
    if not coeffs or coeffs[-1] == 0:
        return False
    acc = np.zeros_like(digits)
    cur = np.arange(len(t), dtype=np.int64)
    for i, a in enumerate(coeffs):
        if i:
            cur = t[cur]
        if a:
            acc = (acc + a * digits[cur]) % p
    return not acc.any()


def poly_mod(num, den, p):
    """Remainder of num by den over F_p (Python ints, low degree first)."""
    rem = [c % p for c in num]
    inv = pow(den[-1], -1, p)
    d = len(den) - 1
    for k in range(len(rem) - 1, d - 1, -1):
        f = rem[k] * inv % p
        if f:
            for i, b in enumerate(den):
                rem[k - d + i] = (rem[k - d + i] - f * b) % p
    return rem[:d]


def vanish_ok(t, p, n, out):
    """Both polynomials vanish in T, the minimal one is monic and divides
    the vanishing one."""
    van, mini = out.get("vanishing"), out.get("minimal")
    for q in (van, mini):
        if not isinstance(q, list) or not q or not all(
                type(c) is int and 0 <= c < p for c in q):
            return False
    if mini[-1] != 1:
        return False
    t = np.asarray(t, dtype=np.int64)
    digits = digit_space(p, n)
    if not (poly_vanishes_on(van, t, p, digits) and poly_vanishes_on(mini, t, p, digits)):
        return False
    return not any(poly_mod(van, mini, p))


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------

def det_mod(A, p):
    """Determinant over F_p by elimination on Python ints."""
    M = [[int(x) % p for x in row] for row in A]
    n = len(M)
    det = 1
    for c in range(n):
        r = next((i for i in range(c, n) if M[i][c]), None)
        if r is None:
            return 0
        if r != c:
            M[c], M[r] = M[r], M[c]
            det = -det
        det = det * M[c][c] % p
        inv = pow(M[c][c], -1, p)
        for i in range(c + 1, n):
            f = M[i][c] * inv % p
            if f:
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[c])]
    return det % p


def det_int(M):
    """Exact integer determinant (Bareiss, fraction free)."""
    M = [list(row) for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            r = next((i for i in range(k + 1, n) if M[i][k]), None)
            if r is None:
                return 0
            M[k], M[r] = M[r], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else 1


def char_poly_mod(A, p):
    """det(xI - A) mod p, low degree first: the integer characteristic
    polynomial interpolated from n+1 exact determinants, then reduced."""
    A = [[int(x) % p for x in row] for row in A]
    n = len(A)
    xs = list(range(n + 1))
    ys = [det_int([[(x if i == j else 0) - A[i][j] for j in range(n)]
                   for i in range(n)]) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):                    # Lagrange interpolation
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = [Fraction(0)] + basis      # multiply by (x - xj)
                for d in range(len(basis) - 1):
                    basis[d] -= xj * basis[d + 1]
                denom *= xi - xj
        for d in range(n + 1):
            coeffs[d] += ys[i] * basis[d] / denom
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) % p for c in coeffs]


def char_poly_ok(A, p, coeffs):
    try:
        got = [int(c) for c in coeffs]
    except (TypeError, ValueError):
        return False
    return got == char_poly_mod(A, p)


def fp_inverse_ok(A, p, inv):
    """None iff A is singular mod p; otherwise A @ inv = I with Python ints."""
    if inv is None:
        return det_mod(A, p) == 0
    inv = np.asarray(inv)
    n = len(A)
    if inv.shape != (n, n) or inv.dtype.kind not in "iu":
        return False
    if inv.min() < 0 or inv.max() >= p:
        return False
    prod = (np.asarray(A, dtype=object) @ inv.astype(object)) % p
    return bool(np.array_equal(prod, np.eye(n, dtype=np.int64).astype(object)))


# ---------------------------------------------------------------------------
# one-dimensional closed forms
# ---------------------------------------------------------------------------

def closed_form(kind, w, a=0.0, eps=1.0, c=1.0):
    """Vectorized best-approximate pseudo-inverse of the unique scalar kinds.

    Returns (values, defined); values are NaN where undefined.
    """
    w = np.asarray(w, dtype=float)
    aw = np.abs(w)
    defined = np.ones(w.shape, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        if kind == "relu":
            v = np.maximum(w, 0.0)
        elif kind == "hard_threshold":
            v = np.where(aw > a / 2.0, np.sign(w) * np.maximum(a, aw), 0.0)
        elif kind == "soft_threshold":
            v = np.sign(w) * (aw + a)
        elif kind == "tanh":
            defined = aw < 1.0
            v = np.arctanh(w)
        elif kind == "sign":
            defined = aw <= 0.5
            v = np.zeros_like(w)
        elif kind == "sign_eps":
            v = eps * np.clip(w, -1.0, 1.0)
        elif kind == "exp":
            defined = w > 0.0
            v = np.log(w)
        elif kind == "sine":
            v = np.arcsin(np.clip(w, -1.0, 1.0))
        elif kind == "linear":
            v = w / c if c != 0.0 else np.zeros_like(w)
        elif kind == "shifted_square":
            v = a - np.sign(a) * np.sqrt(np.maximum(w, 0.0))
        else:
            raise ValueError("no oracle for kind %r" % kind)
    return np.where(defined, v, np.nan), defined


def _close(got, want, tol):
    return bool(np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))))


def pinv_batch_ok(kind, params, w, got, tol=1e-12):
    want, defined = closed_form(kind, w, **params)
    got = np.asarray(got, dtype=float).reshape(-1)
    return got.shape == want.shape and defined.all() and _close(got, want, tol)


def pinv1d_cli_ok(kind, params, w, out):
    want, defined = closed_form(kind, np.array([w]), **params)
    if out.get("defined") is not bool(defined[0]):
        return False
    if not defined[0]:
        return out.get("value") is None
    v = out.get("value")
    return isinstance(v, float) and _close(np.array([v]), want, 1e-12)


def grid_oracle_ok(parts, w, step, out):
    """Grid answer of a componentwise operator within 2*step of the closed form."""
    v = out.get("v")
    if not isinstance(v, list) or len(v) != len(parts):
        return False
    for (kind, params), wi, vi in zip(parts, w, v):
        want, defined = closed_form(kind, np.array([wi]), **params)
        if not defined[0] or not abs(vi - want[0]) <= 2.0 * step:
            return False
    return True


# ---------------------------------------------------------------------------
# Haar thresholding
# ---------------------------------------------------------------------------

def haar_forward(x):
    """Orthonormal Haar coefficients by pairwise reshapes: [details..., approx]."""
    levels = []
    s = np.asarray(x, dtype=float)
    while len(s) > 1:
        pair = s.reshape(-1, 2)
        levels.append((pair[:, 0] - pair[:, 1]) / SQRT2)
        s = (pair[:, 0] + pair[:, 1]) / SQRT2
    levels.append(s)
    return levels


def haar_inverse(levels):
    s = levels[-1]
    for d in reversed(levels[:-1]):
        out = np.empty(2 * len(s))
        out[0::2] = (s + d) / SQRT2
        out[1::2] = (s - d) / SQRT2
        s = out
    return s


def haar_denoise(x, kind, a):
    def thr(u):
        if kind == "hard":
            return u * (np.abs(u) >= a)
        return np.sign(u) * np.maximum(np.abs(u) - a, 0.0)
    return haar_inverse([thr(u) for u in haar_forward(x)])


def denoise_ok(x, kind, a, denoised, tol=1e-9):
    denoised = np.asarray(denoised, dtype=float)
    want = haar_denoise(x, kind, a)
    if denoised.shape != want.shape:
        return False
    scale = 1.0 + float(np.max(np.abs(x)))
    return bool(np.max(np.abs(denoised - want)) <= tol * scale)


# ---------------------------------------------------------------------------
# least-norm programs: feasibility and KKT signs
# ---------------------------------------------------------------------------

def _cone_ok(d, normals, tol):
    """d is a nonnegative combination of the given normals (rows), within tol."""
    scale = tol * (1.0 + float(np.linalg.norm(d)))
    if float(np.linalg.norm(d)) <= scale:
        return True
    k = len(normals)
    for r in range(1, min(k, len(d)) + 1):
        for sub in combinations(range(k), r):
            N = normals[list(sub)]
            mu, *_ = np.linalg.lstsq(N.T, d, rcond=None)
            if mu.min() >= -tol and np.linalg.norm(N.T @ mu - d) <= scale:
                return True
    return False


def least_norm_ok(A_eq, b_eq, A_in, d_in, v, tol=1e-7):
    """v solves min ||v||^2 s.t. A_eq v = b_eq, A_in v <= d_in.

    Primal feasibility, then stationarity v + A_eq^T lam + A_act^T mu = 0
    with mu >= 0 on the active inequalities (the problem is convex, so KKT
    certifies optimality).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (A_eq.shape[1],) or not np.all(np.isfinite(v)):
        return False
    if np.any(np.abs(A_eq @ v - b_eq) > tol * (1.0 + np.abs(b_eq))):
        return False
    slack = A_in @ v - d_in
    if np.any(slack > tol * (1.0 + np.abs(d_in))):
        return False
    active = A_in[slack >= -1e-6 * (1.0 + np.abs(d_in))]
    M = np.concatenate([A_eq, active], axis=0)
    if not len(M):
        return bool(np.linalg.norm(v) <= tol)
    # the rows of a full-rank layer are independent, so the multipliers are unique
    coef, *_ = np.linalg.lstsq(M.T, -v, rcond=None)
    stationary = np.linalg.norm(M.T @ coef + v) <= tol * (1.0 + np.linalg.norm(v))
    mu = coef[len(A_eq):]
    return bool(stationary and mu.min(initial=0.0) >= -tol * (1.0 + np.abs(coef).max()))


def relu_layer_problem(A, w):
    wc = np.maximum(w, 0.0)
    pos = wc > 0
    return A[pos], wc[pos], A[~pos], np.zeros(int((~pos).sum()))


def clipped_tanh_problem(A, w, clip):
    hi = 1.0 - 1.0 / clip
    wc = np.clip(w, -hi, hi)
    bound = np.arctanh(hi)
    upper, lower = wc >= hi, wc <= -hi
    inner = ~(upper | lower)
    A_in = np.concatenate([-A[upper], A[lower]], axis=0)
    d_in = np.full(len(A_in), -bound)
    return A[inner], np.arctanh(wc[inner]), A_in, d_in


def layer_ok(A, w, act, clip, out):
    if out.get("defined") is not True:
        return False
    v = out.get("v")
    if act == "relu":
        problem = relu_layer_problem(A, w)
    else:
        problem = clipped_tanh_problem(A, w, clip)
    return least_norm_ok(*problem, v)


# ---------------------------------------------------------------------------
# projection onto box ∩ ball ∩ halfspace
# ---------------------------------------------------------------------------

def intersection_projection_ok(lo, hi, center, radius, normal, offset, Y, X,
                               tol=1e-6):
    """Each row of X is feasible and Y - X lies in the normal cone at X."""
    X = np.asarray(X, dtype=float)
    if X.shape != Y.shape or not np.all(np.isfinite(X)):
        return False
    r = np.linalg.norm(X - center, axis=1)
    h = X @ normal - offset
    if (np.any(X < lo - tol) or np.any(X > hi + tol) or np.any(r > radius + tol)
            or np.any(h > tol)):
        return False
    dim = Y.shape[1]
    eye = np.eye(dim)
    act = 1e-6
    for y, x, rx, hx in zip(Y, X, r, h):
        normals = [eye[j] for j in range(dim) if x[j] >= hi[j] - act]
        normals += [-eye[j] for j in range(dim) if x[j] <= lo[j] + act]
        if rx >= radius - act:
            normals.append((x - center) / rx)
        if hx >= -act:
            normals.append(normal)
        if not _cone_ok(y - x, np.array(normals).reshape(-1, dim), tol):
            return False
    return True


def cascade_reports_ok(lo, hi, samples, reports, tol=1e-12):
    """The cascade's pseudo-inverse is the projection onto its innermost box;
    every report (v, bas_ok, mp2_ok) must carry that value and pass both flags."""
    if len(reports) != len(samples):
        return False
    for w, (v, bas_ok, mp2_ok) in zip(samples, reports):
        if not _close(np.asarray(v, dtype=float), np.clip(w, lo, hi), tol):
            return False
        if bas_ok is not True or mp2_ok is not True:
            return False
    return True


def verify_suite_ok(seed, out):
    checks = out.get("checks")
    return (out.get("seed") == seed and out.get("all_pass") is True
            and isinstance(checks, list) and len(checks) > 0
            and all(c.get("pass") is True for c in checks))
