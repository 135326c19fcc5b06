"""Dense real linear algebra (SVD, Moore-Penrose inverse) and exact F_p algebra.

Real matrices are plain float ndarrays. Prime-field matrices are int64
ndarrays reduced mod p, a prime below 2^31, so one product of two entries
fits in int64; sums of products go through fp_matmul, and every F_p
routine, the characteristic polynomial included, is O(n^3).
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
    """Real matrix JSON: flat "data" of rows * cols numbers. ValueError unless
    rows and cols pass integer_entries and the data pass real_entries and
    fill the shape exactly."""
    obj = json.loads(text) if isinstance(text, str) else text
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    integer_entries([rows], '"rows"')
    integer_entries([cols], '"cols"')
    real_entries(data, '"data"')
    A = np.asarray(data, dtype=float)
    if A.ndim != 1 or min(rows, cols) < 0 or A.size != rows * cols:
        raise ValueError("matrix data must hold rows * cols = %d x %d numbers" % (rows, cols))
    return A.reshape(rows, cols)


def matrix_to_json(A):
    A = np.asarray(A)
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]),
            "data": [float(x) for x in A.ravel()]}


def fp_matrix_from_json(text):
    """F_p matrix JSON: the dense format plus "prime"; rejects a bad prime or entry."""
    obj = json.loads(text) if isinstance(text, str) else text
    p = obj["prime"]
    fp_check(p)
    integer_entries(obj["data"], '"data"')
    integer_entries([obj["rows"]], '"rows"')
    integer_entries([obj["cols"]], '"cols"')
    A = np.asarray(obj["data"], dtype=np.int64).reshape(obj["rows"], obj["cols"])
    return np.mod(A, p), int(p)


def fp_matrix_to_json(A, p):
    A = np.asarray(A, dtype=np.int64)
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]),
            "data": [int(x) % p for x in A.ravel()], "prime": int(p)}


# ---------------------------------------------------------------------------
# exact prime-field linear algebra
# ---------------------------------------------------------------------------

def _entries(values, dtype_kinds, types, what, allowed):
    message = "%s must be %s" % (what, allowed)
    kinds = None
    if isinstance(values, np.ndarray):
        ok = values.dtype.kind in dtype_kinds or not values.size
    else:                                       # bool is an int subclass
        try:
            kinds = set(map(type, values))
        except TypeError:                       # not a sequence at all
            raise ValueError(message)
        ok = all(issubclass(k, types) and k is not bool for k in kinds)
    if not ok:
        raise ValueError(message)
    return kinds


def integer_entries(values, what="entries"):
    """The set of entry types of `values` (None for an array). ValueError, naming
    `what`, unless each entry is an integer, not a boolean; floats are rejected,
    never truncated."""
    return _entries(values, "iu", (int, np.integer), what,
                    "integers, not floats or booleans")


def real_entries(values, what="entries"):
    """ValueError, naming `what`, unless each entry of `values` is an integer or
    a float, not a boolean, a string or a list; the set of entry types (None
    for an array)."""
    return _entries(values, "iuf", (int, float, np.integer, np.floating), what,
                    "numbers, not booleans, strings or lists")


def is_prime(p):
    """Deterministic Miller-Rabin on bases 2, 3, 5 and 7: exact below 3,215,031,751."""
    p = int(p)
    if p >= 3_215_031_751:
        raise ValueError("is_prime is exact only below 3,215,031,751")
    if p < 2 or any(p % a == 0 for a in (2, 3, 5, 7)):
        return p in (2, 3, 5, 7)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << j, p) != p - 1 for j in range(s)):
            return False
    return True


def fp_check(p):
    """Raise ValueError unless p is an integer and a prime below 2^31."""
    if not (isinstance(p, (int, np.integer)) and 2 <= p < 2**31 and is_prime(p)):
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


def fp_convolve(a, b, p):
    """Exact product of two coefficient arrays over F_p for every prime p
    below 2^31.

    One int64 convolution suffices while k (p-1)^2 < 2^63, with k the
    shorter length. Otherwise both arrays are split into 16-bit limbs, as
    in fp_matmul, so each convolution of two limbs sums k terms below 2^32.
    """
    p = int(p)
    a, b = fp_asarray(a, p), fp_asarray(b, p)
    if not (a.size and b.size):
        return np.zeros(0, dtype=np.int64)
    if min(a.size, b.size) * (p - 1) ** 2 < INT64_LIMIT:
        return np.mod(np.convolve(a, b), p)
    limb = (1 << LIMB_BITS) - 1
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    for i in range(0, p.bit_length(), LIMB_BITS):
        for j in range(0, p.bit_length(), LIMB_BITS):
            prod = np.mod(np.convolve((a >> i) & limb, (b >> j) & limb), p)
            out = np.mod(out + prod * pow(2, i + j, p), p)
    return out


def fp_poly_divmod(A, b, p):
    """Quotients and remainders over F_p of the coefficient rows of A (low
    degree first, 1-D for one polynomial) by b, whose last entry is nonzero.

    Long division with one vectorized row operation per quotient term; the
    remainders have len(b) - 1 columns.
    """
    p = int(p)
    R, b = fp_asarray(A, p), fp_asarray(b, p)
    d = b.size - 1
    inv = pow(int(b[-1]), -1, p)
    if d == 0:                                  # division by a constant
        return R * inv % p, R[..., :0]
    Q = np.zeros(R.shape[:-1] + (max(R.shape[-1] - d, 0),), dtype=np.int64)
    Rt, Qt = R.T, Q.T                           # Rt[k]: coefficient k of every row
    for k in range(R.shape[-1] - 1, d - 1, -1):
        f = Rt[k] * inv % p
        if R.ndim == 1 and f == 0:              # one polynomial: skip a zero term
            continue
        Qt[k - d] = f
        top = Rt[k - d:k + 1]
        top -= np.multiply.outer(b, f)
        top %= p
    return Q, R[..., :d]


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
        R[r] = R[r] * pow(int(R[r, c]), -1, int(p)) % p
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
    """Characteristic polynomial det(xI - A) over F_p as n+1 Python ints, low
    degree first, monic. O(n^3): A is reduced to upper Hessenberg form H by
    similarity, and det(xI - H) follows by the recurrence on its leading
    blocks (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    fp_check(p)
    H = fp_asarray(A, p)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("fp_char_poly requires a square matrix")
    n = len(H)
    for m in range(1, n - 1):
        i = m + int(np.argmax(H[m:, m - 1] != 0))
        if H[i, m - 1] == 0:
            continue
        H[[m, i]] = H[[i, m]]
        H[:, [m, i]] = H[:, [i, m]]
        u = H[m + 1:, m - 1] * pow(int(H[m, m - 1]), -1, int(p)) % p
        H[m + 1:] = (H[m + 1:] - np.outer(u, H[m]) % p) % p
        H[:, m] = (H[:, m] + fp_matmul(H[:, m + 1:], u, p)) % p   # an exact sum
    P = np.zeros((n + 1, n + 1), dtype=np.int64)    # P[k]: char poly of H[:k, :k]
    P[0, 0] = 1
    s = np.zeros(0, dtype=np.int64)     # s[r] = prod of H[j, j-1], j = r+1..c; s[c] = 1
    for c in range(n):
        s = np.append(s * H[c, c - 1] % p, 1)
        P[c + 1, 1:] = P[c, :-1]
        P[c + 1] = (P[c + 1] - H[c, c] * P[c] % p
                    - fp_matmul(s[:c] * H[:c, c] % p, P[:c], p)) % p
    return P[n].tolist()
