"""Dense real linear algebra (SVD, Moore-Penrose inverse) and exact F_p algebra.

Real matrices are plain float ndarrays. Prime-field matrices are int64
ndarrays with entries reduced mod p; p must be a prime below 2^31, so
that the product of two reduced entries fits in int64.
"""

from dataclasses import dataclass
import json

import numpy as np


@dataclass
class SvdFactors:
    U: np.ndarray      # rows x rows, orthogonal
    S: np.ndarray      # min(rows, cols) singular values, descending
    Vt: np.ndarray     # cols x cols, orthogonal

    def reconstruct(self):
        r, c = self.U.shape[0], self.Vt.shape[0]
        Sig = np.zeros((r, c))
        k = len(self.S)
        Sig[:k, :k] = np.diag(self.S)
        return self.U @ Sig @ self.Vt


def svd(A):
    """Full SVD A = U diag(S) Vt with S descending and non-negative."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("svd requires finite entries")
    U, S, Vt = np.linalg.svd(A, full_matrices=True)
    factors = SvdFactors(U, S, Vt)
    scale = np.linalg.norm(A)
    err = np.linalg.norm(factors.reconstruct() - A)
    if err > 1e-10 * (1.0 + scale):
        raise ArithmeticError("svd failed to reconstruct input (residual %g)" % err)
    return factors


def mp_inverse(A, tol=1e-12):
    """Moore-Penrose inverse with relative singular-value cutoff `tol`.

    Singular values below tol * S_max are treated as exact zeros, so rank
    deficiency is handled the standard way.
    """
    A = np.asarray(A, dtype=float)
    f = svd(A)
    cutoff = tol * (f.S[0] if f.S.size else 0.0)
    inv = np.divide(1.0, f.S, out=np.zeros_like(f.S), where=f.S > cutoff)
    r, c = A.shape
    Sig_pinv = np.zeros((c, r))
    k = len(f.S)
    Sig_pinv[:k, :k] = np.diag(inv)
    return f.Vt.T @ Sig_pinv @ f.U.T


def mp_residuals(A, G):
    """Absolute residuals of the four Moore-Penrose identities for (A, G)."""
    A = np.asarray(A, dtype=float)
    G = np.asarray(G, dtype=float)
    AG = A @ G
    GA = G @ A
    return {
        "mp1": np.linalg.norm(AG @ A - A),
        "mp2": np.linalg.norm(GA @ G - G),
        "mp3": np.linalg.norm(AG - AG.T),
        "mp4": np.linalg.norm(GA - GA.T),
    }


def matrix_from_json(text):
    obj = json.loads(text) if isinstance(text, str) else text
    A = np.asarray(obj["data"], dtype=float).reshape(int(obj["rows"]), int(obj["cols"]))
    return A


def matrix_to_json(A):
    A = np.asarray(A)
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]),
            "data": [float(x) for x in A.ravel()]}


def fp_matrix_from_json(text):
    """F_p matrix JSON: the dense format plus a "prime" field."""
    obj = json.loads(text) if isinstance(text, str) else text
    p = int(obj["prime"])
    fp_check(p)
    A = np.asarray(obj["data"], dtype=np.int64).reshape(int(obj["rows"]),
                                                        int(obj["cols"]))
    return np.mod(A, p), p


def fp_matrix_to_json(A, p):
    A = np.asarray(A, dtype=np.int64)
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]),
            "data": [int(x) % p for x in A.ravel()], "prime": int(p)}


# ---------------------------------------------------------------------------
# exact prime-field linear algebra
# ---------------------------------------------------------------------------

def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def fp_check(p):
    if not (2 <= p < 2**31 and is_prime(p)):
        raise ValueError("field size must be a prime below 2^31, got %r" % (p,))


def fp_asarray(A, p):
    A = np.asarray(A, dtype=np.int64)
    return np.mod(A, p)


INT64_LIMIT = 2**63
LIMB_BITS = 16


def fp_matmul(A, B, p):
    """Exact product A B over F_p for every prime p below 2^31.

    One int64 product suffices while k (p-1)^2 < 2^63, with k the inner
    dimension. Otherwise B is split into 16-bit limbs and the inner
    dimension into chunks, so every partial sum stays below 2^63, and each
    partial product is reduced mod p before the limbs are recombined.
    """
    p = int(p)
    A, B = fp_asarray(A, p), fp_asarray(B, p)
    k = A.shape[-1]
    if k * (p - 1) ** 2 < INT64_LIMIT:
        return np.mod(A @ B, p)
    limb = (1 << LIMB_BITS) - 1
    chunk = max(1, (INT64_LIMIT - 1) // ((p - 1) * limb))
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for shift in range(0, p.bit_length(), LIMB_BITS):
        part = (B >> shift) & limb
        scale = pow(2, shift, p)
        for lo in range(0, k, chunk):
            prod = np.mod(A[..., lo:lo + chunk] @ part[lo:lo + chunk], p)
            out = np.mod(out + np.mod(prod * scale, p), p)
    return out


def fp_rref(A, p):
    """Reduced row echelon form over F_p; returns (R, pivot_cols, rank)."""
    fp_check(p)
    R = fp_asarray(A, p).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        mask = np.nonzero(R[:, c])[0]
        mask = mask[mask != r]
        if mask.size:
            R[mask] = (R[mask] - np.outer(R[mask, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots, r


def fp_rank(A, p):
    return fp_rref(A, p)[2]


def fp_solve_kernel(A, p):
    """Basis of the null space {v : A v = 0 mod p} as a list of 1-D arrays.

    Vectors come from reduced-echelon back-substitution with the free
    variable set to 1, in increasing free-column order, so the basis is
    deterministic.
    """
    R, pivots, rank = fp_rref(A, p)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r, f]) % p
        basis.append(v)
    return basis


def fp_invert(A, p):
    """Exact inverse over F_p, or None when the matrix is singular."""
    fp_check(p)
    A = fp_asarray(A, p)
    n, m = A.shape
    if n != m:
        raise ValueError("fp_invert requires a square matrix")
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots, _ = fp_rref(aug, p)
    # invertible iff the pivots of [A | I] are exactly the columns of A
    if pivots[:n] != list(range(n)):
        return None
    return R[:, n:]


def fp_char_poly(A, p):
    """Characteristic polynomial det(xI - A) over F_p, low-degree first.

    Cofactor expansion over the polynomial ring; exact, intended for the
    small matrices this library works with (n <= ~6).
    """
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
