"""Dense real linear algebra (SVD, Moore-Penrose inverse) and exact F_p algebra.

Real matrices are plain float ndarrays. Prime-field matrices are int64
ndarrays read by fp_array, reduced mod p, a prime below 2^31, so one product
of two entries fits in int64; sums of products go through fp_matmul, and every
F_p routine, the characteristic polynomial included, is O(n^3). Gauss-Jordan
elimination (fp_rref, behind fp_rank, fp_solve_kernel and fp_invert)
updates only the live columns of the rows it changes and leaves them
unreduced until `room` = (2^63 - 1 - p) // (p-1)^2 updates are pending, the
most int64 can hold: over 2*10^9 below p = 2^16, so it reduces only at the
end, and 2 at p = 2^31 - 1, so it reduces every second pivot.
"""

from dataclasses import dataclass
from functools import lru_cache
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


SVD_CHECK_TOL = 1e-10      # svd's reconstruction error, relative to 1 + ||A||


def svd(A):
    """Full SVD A = U diag(S) Vt with S descending and non-negative."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("svd requires finite entries")
    U, S, Vt = np.linalg.svd(A, full_matrices=True)
    factors = SvdFactors(U, S, Vt)
    scale = np.linalg.norm(A)
    err = np.linalg.norm(factors.reconstruct() - A)
    if err > SVD_CHECK_TOL * (1.0 + scale):
        raise ArithmeticError("svd failed to reconstruct input (residual %g)" % err)
    return factors


SV_CUTOFF = 1e-12


def mp_inverse(A):
    """Moore-Penrose inverse with relative singular-value cutoff SV_CUTOFF.

    Singular values at most SV_CUTOFF * S_max are treated as exact zeros,
    so rank deficiency is handled the standard way.
    """
    A = np.asarray(A, dtype=float)
    f = svd(A)
    cutoff = SV_CUTOFF * (f.S[0] if f.S.size else 0.0)
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


def json_object(obj, what="JSON value"):
    """obj if it is a JSON object (a dict); ValueError naming `what` otherwise."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % what)
    return obj


def parse_json_object(text):
    """The JSON object `text`, parsed first when it is a str; ValueError when
    it is not an object or is nested too deeply to parse. The one entry check
    of the library's JSON readers."""
    try:
        return json_object(json.loads(text) if isinstance(text, str) else text)
    except RecursionError:
        raise ValueError("JSON text is nested too deeply") from None


def matrix_from_json(text):
    """Real matrix JSON {"rows", "cols", "data"}: the flat "data" as a rows x
    cols float array. ValueError unless rows and cols pass integer_entries,
    the data pass real_entries, and they fill the shape."""
    obj = parse_json_object(text)
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    integer_entries([rows], '"rows"')
    integer_entries([cols], '"cols"')
    real_entries(data, '"data"')
    A = np.asarray(data, dtype=float)
    if A.ndim != 1 or min(rows, cols) < 0 or A.size != rows * cols:
        raise ValueError("matrix data must hold rows * cols = %d x %d numbers" % (rows, cols))
    return A.reshape(rows, cols)


# ---------------------------------------------------------------------------
# exact prime-field linear algebra
# ---------------------------------------------------------------------------

def _entries(values, dtype_kinds, types, what, allowed):
    """The set of the entries' types (empty for an array), once each passes."""
    kinds = set()
    if isinstance(values, np.ndarray):
        ok = values.dtype.kind in dtype_kinds or not values.size
    else:                                       # bool is an int subclass
        try:
            kinds = set(map(type, values))
            ok = all(issubclass(k, types) and k is not bool for k in kinds)
        except TypeError:                       # not a sequence at all
            ok = False
    if not ok:
        raise ValueError("%s must be %s" % (what, allowed))
    return kinds


def integer_entries(values, what="entries"):
    """ValueError, naming `what`, unless each entry of `values` is an integer,
    not a boolean; floats are rejected, never truncated."""
    _entries(values, "iu", (int, np.integer), what, "integers, not floats or booleans")


def real_entries(values, what="entries"):
    """ValueError, naming `what`, unless each entry of `values` is an integer or
    a float, not a boolean, a string or a list, and float() can hold it."""
    kinds = _entries(values, "iuf", (int, float, np.integer, np.floating), what,
                     "numbers, not booleans, strings or lists")
    if any(issubclass(k, int) for k in kinds):  # a Python int may be past the float range
        try:
            for x in values:
                float(x)
        except OverflowError:
            raise ValueError("%s must be numbers within the float range" % what) from None


@lru_cache
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


def fp_array(A, p, what="entries"):
    """(A as a new int64 array reduced mod p, int(p)), the one input boundary of
    the F_p routines: ValueError naming `what` unless p passes fp_check and each
    entry is an integer, not a float, boolean or string. Ints past int64 reduce exactly."""
    fp_check(p)
    p = int(p)
    if isinstance(A, np.ndarray) and A.dtype.kind in "iu" and A.dtype != np.uint64:
        return np.mod(A, p, dtype=np.int64), p
    try:                                        # object dtype keeps each entry's type,
        A = np.array(A, dtype=object)           # where np.asarray([1, True]) is int64
    except ValueError:                          # arrays of different shapes nested in A
        raise ValueError("%s must be integers, not floats or booleans" % what) from None
    integer_entries(A.flat, what)
    return np.array([int(x) % p for x in A.flat], dtype=np.int64).reshape(A.shape), p


INT64_LIMIT = 2**63
LIMB_BITS = 16


def fp_matmul(A, B, p):
    """Exact product A B over F_p for every prime p below 2^31.

    One int64 product suffices while k (p-1)^2 < 2^63, with k the inner
    dimension. Otherwise B is split into 16-bit limbs and the inner
    dimension into chunks, so every partial sum stays below 2^63, and each
    partial product is reduced mod p before the limbs are recombined.
    """
    (A, p), (B, _) = fp_array(A, p, "A"), fp_array(B, p, "B")
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
    (a, p), (b, _) = fp_array(a, p, "a"), fp_array(b, p, "b")
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
    (R, p), (b, _) = fp_array(A, p, "A"), fp_array(b, p, "b")
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


def trimmed(c):
    """The 1-D coefficient array c without its trailing zeros, as a view."""
    nz = c.nonzero()[0]
    return c[:nz[-1] + 1] if nz.size else c[:0]


def fp_poly_gcd(a, b, p):
    """Monic gcd over F_p of two coefficient arrays (low degree first) by Euclid,
    one vectorized row operation per eliminated leading term; empty for two zeros."""
    (a, p), (b, _) = fp_array(a, p, "a"), fp_array(b, p, "b")
    a, b = trimmed(a), trimmed(b)
    while b.size > 1:
        inv = pow(int(b[-1]), -1, p)
        while a.size >= b.size:                   # a <- a mod b
            top = a[a.size - b.size:]
            top -= int(a[-1]) * inv % p * b
            top %= p
            k = a.size - 1
            while k >= 0 and not a[k]:
                k -= 1
            a = a[:k + 1]
        a, b = b, a
    g = b if b.size else a                        # a nonzero constant b: gcd 1
    return g * pow(int(g[-1]), -1, p) % p if g.size else g


def fp_rref(A, p):
    """Reduced row echelon form over F_p; returns (R, pivot_cols, rank).

    Gauss-Jordan with delayed reduction (Dumas, Giorgi & Pernet, "Dense
    linear algebra over word-size prime fields", ACM TOMS 35(3), 2008). At
    pivot column c only the pivot column, once for the pivot search and the
    multipliers, and the scaled pivot row are reduced mod p. Every other row
    with a nonzero multiplier m subtracts m times the pivot row on the live
    columns alone: from c, since the pivot row is 0 mod p to the left of c,
    up to the pivot row's last nonzero entry. Rows whose multiplier is 0 are
    skipped; when no row but the pivot row is, the block is updated in
    place. An update subtracts at most (p-1)^2 from an entry, so the updated
    entries stay unreduced while at most room = (2^63 - 1 - p) // (p-1)^2
    updates are pending. When the count reaches room, the rows updated since
    the last reduction are reduced on the live columns; every entry is
    reduced once at the end. room exceeds 10^9 for p below 2^16 and is 2 at
    p = 2^31 - 1.
    """
    R, p = fp_array(A, p, "A")
    rows, cols = R.shape
    room = (INT64_LIMIT - 1 - p) // (p - 1) ** 2    # updates addable after a reduction
    dirty = np.zeros(rows, dtype=bool)              # rows updated since the last reduction
    pending = 0                                     # updates since the last reduction
    reach = 0                                       # those updates end before column reach
    updated = False
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = R[:, c] % p if pending else R[:, c].copy()
        nz = col[r:].nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            R[r], R[i] = R[i].copy(), R[r].copy()
            col[r], col[i] = col[i], col[r]
            dirty[r], dirty[i] = dirty[i], dirty[r]
        row = R[r, c:]
        if pending:
            row %= p
        if col[r] != 1:
            row *= pow(int(col[r]), -1, p)
            row %= p
        end = c + 1 + int(row.nonzero()[0][-1])  # the pivot row is 0 from here on
        row = row[:end - c]
        col[r] = 0
        live = col.nonzero()[0]
        if live.size:
            if live.size == rows - 1:               # dense: a view, no gather and scatter
                R[:, c:end] -= np.multiply.outer(col, row)
            else:
                R[live, c:end] -= np.multiply.outer(col[live], row)
            dirty[live] = True
            updated = True
            pending += 1
            reach = max(reach, end)
            if pending == room:
                stale = dirty.nonzero()[0]
                R[stale, c + 1:reach] %= p
                dirty[:] = False
                pending = reach = 0
        pivots.append(c)
        r += 1
    if updated:                                     # frozen columns may hold multiples of p
        R %= p
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
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -R[:rank, free].T % p
    return list(basis)


def fp_invert(A, p):
    """Exact inverse over F_p, or None when the matrix is singular."""
    A, p = fp_array(A, p, "A")
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
    H, p = fp_array(A, p, "A")
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("fp_char_poly requires a square matrix")
    n = len(H)
    for m in range(1, n - 1):
        i = m + int(np.argmax(H[m:, m - 1] != 0))
        if H[i, m - 1] == 0:
            continue
        H[[m, i]] = H[[i, m]]
        H[:, [m, i]] = H[:, [i, m]]
        u = H[m + 1:, m - 1] * pow(int(H[m, m - 1]), -1, p) % p
        H[m + 1:] = (H[m + 1:] - np.outer(u, H[m])) % p        # |u_i H[m, j]| < 2^62
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
