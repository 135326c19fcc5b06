"""Vanishing and minimal polynomials of endofunctions over prime fields.

Operators live on the enumerable vector space V = F_p^n (p^n capped at
10^5) as total tables over vector indices, so every polynomial identity
here is checked exhaustively and exactly. Includes inversion by forward
applications: polynomial left inverses, left-Drazin inverses from a
vanishing polynomial, and Cayley-Hamilton matrix inversion.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core_ops import OperatorPolynomial
from .endofunction import functional_graph
from .numerics import fp_check, fp_solve_kernel, fp_char_poly, fp_matmul

SPACE_CAP = 100_000


@lru_cache(maxsize=32)
def _space(p, n):
    """All p^n vectors of F_p^n, row i = digits of i base p (low axis first)."""
    idx = np.arange(p ** n, dtype=np.int64)
    return (idx[:, None] // p ** np.arange(n, dtype=np.int64)[None, :]) % p


def encode(vecs, p):
    vecs = np.atleast_2d(np.asarray(vecs, dtype=np.int64)) % p
    n = vecs.shape[1]
    return vecs @ (p ** np.arange(n, dtype=np.int64))


class FpVectorOperator:
    """Total map on F_p^n stored as a table over vector indices."""

    def __init__(self, p, n, table):
        fp_check(p)
        if p ** n > SPACE_CAP:
            raise ValueError("space size %d exceeds the enumeration cap" % p ** n)
        self.p = int(p)
        self.n = int(n)
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (p ** n,):
            raise ValueError("table must cover all %d vectors" % p ** n)
        if table.min(initial=0) < 0 or table.max(initial=0) >= p ** n:
            raise ValueError("table entries must be valid vector indices")
        self.table = table

    @property
    def size(self):
        return self.p ** self.n

    def space(self):
        return _space(self.p, self.n)

    def apply_vec(self, v):
        return self.space()[self.table[int(encode(v, self.p)[0])]]

    def __eq__(self, other):
        return (isinstance(other, FpVectorOperator) and self.p == other.p
                and self.n == other.n and np.array_equal(self.table, other.table))

    def compose(self, inner):
        if (self.p, self.n) != (inner.p, inner.n):
            raise ValueError("operators live on different spaces")
        return FpVectorOperator(self.p, self.n, self.table[inner.table])

    def power(self, k):
        out = np.arange(self.size, dtype=np.int64)
        base = self.table
        while k:
            if k & 1:
                out = base[out]
            base = base[base]
            k >>= 1
        return FpVectorOperator(self.p, self.n, out)

    def is_surjective(self):
        return len(np.unique(self.table)) == self.size

    @staticmethod
    def identity(p, n):
        return FpVectorOperator(p, n, np.arange(p ** n, dtype=np.int64))

    @staticmethod
    def zero(p, n):
        return FpVectorOperator(p, n, np.zeros(p ** n, dtype=np.int64))

    @staticmethod
    def from_callable(p, n, f):
        """Build the table from a vectorized rule on (N, n) digit arrays."""
        vecs = _space(p, n)
        out = np.asarray(f(vecs), dtype=np.int64) % p
        return FpVectorOperator(p, n, encode(out, p))

    @staticmethod
    def from_matrix(A, p, b=None):
        """Linear or affine operator v -> A v + b over F_p."""
        A = np.asarray(A, dtype=np.int64) % p
        n = A.shape[0]
        off = np.zeros(n, dtype=np.int64) if b is None else np.asarray(b, dtype=np.int64) % p
        return FpVectorOperator.from_callable(p, n, lambda V: (V @ A.T + off) % p)


def fp_apply_polynomial(poly, T):
    """q(T) evaluated on every vector: returns a (p^n, n) digit array."""
    if poly.prime != T.p:
        raise ValueError("polynomial and operator fields differ")
    vecs = T.space()
    acc = np.zeros_like(vecs)
    cur = np.arange(T.size, dtype=np.int64)
    for j, a in enumerate(poly.coeffs):
        if j > 0:
            cur = T.table[cur]
        if a:
            acc = (acc + a * vecs[cur]) % T.p
    return acc


def poly_vanishes(poly, T):
    """Exhaustive check that q(T)(v) = 0 for every v in F_p^n."""
    if poly.is_zero:
        return False
    return not fp_apply_polynomial(poly, T).any()


def stabilization_profile(T):
    """(l, m): least l with |T^l(V)| = |T^(l+1)(V)|, and that common size m,
    the number of cyclic vectors."""
    fg = functional_graph(T.table)
    return fg.k, int(np.count_nonzero(fg.on_cycle))


class _FpReducer:
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


def _poly_lcm(polys, p):
    """Monic least common multiple over F_p: lcm(a, f) = a (f / gcd(a, f))."""
    out = OperatorPolynomial([1], p)
    for f in polys:
        a, b = out, f
        while not b.is_zero:                      # Euclid; a ends as a gcd
            a, b = b, a.divmod(b)[1]
        out = out.mul(f.divmod(a.monic())[0])
    return out


def find_vanishing_poly(T, l=None):
    """Nonzero polynomial q with q(T)(v) = 0 for all v, degree <= m^2 + l.

    l defaults to the least pre-iteration count at which image sizes
    stabilize (m = |T^l(V)|); a supplied l must satisfy the same size
    condition. On the stabilized image T permutes m vectors, so q is x^l
    times lcm_c (x^c - 1) over its cycle lengths c: the minimal polynomial
    of that permutation's incidence matrix. The result is verified
    exhaustively before returning.
    """
    fg = functional_graph(T.table)
    if l is None:
        l = fg.k
    elif l < fg.k:
        raise ValueError("image sizes still shrinking after %d iterations" % l)
    m = int(np.count_nonzero(fg.on_cycle))
    lcm = _poly_lcm([OperatorPolynomial([-1] + [0] * (c - 1) + [1], T.p)   # x^c - 1
                     for c in np.unique(fg.cycle_length[fg.on_cycle])], T.p)
    poly = lcm.shift(l)
    assert poly.degree <= m * m + l
    assert poly_vanishes(poly, T), "constructed polynomial fails to vanish"
    return poly


def minimal_poly(T):
    """The unique monic vanishing polynomial of least degree.

    Treats the iterates T^0, T^1, ... as vectors of stacked digit arrays
    and returns the first linear dependence, which is monic by
    construction. Independence of all earlier iterates certifies that no
    monic polynomial of smaller degree vanishes.
    """
    vecs = T.space()
    reducer = _FpReducer(T.p)
    cur = np.arange(T.size, dtype=np.int64)
    for i in range(T.size * T.n + 2):
        col = vecs[cur].ravel()
        dependence = reducer.offer(col)
        if dependence is not None:
            poly = OperatorPolynomial(dependence, T.p)
            assert poly.coeffs[-1] == 1 and poly_vanishes(poly, T)
            return poly
        cur = T.table[cur]
    raise AssertionError("no vanishing polynomial found; finite space guarantee broken")


def poly_left_inverse(poly, T):
    """Left inverse S = -a0^-1 sum_{i>=1} a_i T^(i-1) from a vanishing poly.

    Returns None ("not applicable") when the free coefficient a0 is zero.
    S T = I is verified exhaustively; when T is surjective, S is the
    two-sided inverse.
    """
    if not poly_vanishes(poly, T):
        raise ValueError("polynomial does not vanish in T")
    a0 = poly.coeff(0)
    if a0 == 0:
        return None
    p = T.p
    scale = (-pow(int(a0), -1, p)) % p
    vecs = T.space()
    acc = np.zeros_like(vecs)
    cur = np.arange(T.size, dtype=np.int64)    # T^(i-1) iterate, i starting at 1
    for i in range(1, poly.degree + 1):
        a = poly.coeff(i)
        if a:
            acc = (acc + a * vecs[cur]) % p
        cur = T.table[cur]
    S = FpVectorOperator(p, T.n, encode(acc * scale % p, p))
    assert S.compose(T) == FpVectorOperator.identity(p, T.n), \
        "left-inverse identity failed; vanishing certificate inconsistent"
    if T.is_surjective():
        assert T.compose(S) == FpVectorOperator.identity(p, T.n), \
            "surjective operator must make the left inverse two-sided"
    return S


def left_drazin_from_poly(poly, T):
    """Left-Drazin inverse G = -a_k^-1 sum_{i>k} a_i T^(i-k-1), parameter max(k,1).

    k is the least index with a nonzero coefficient. The defining identity
    G T^(m+1) = T^m is verified exhaustively. An empty sum (k = deg) gives
    the zero operator.
    """
    if not poly_vanishes(poly, T):
        raise ValueError("polynomial does not vanish in T")
    p = T.p
    k = next(i for i, a in enumerate(poly.coeffs) if a)
    scale = (-pow(int(poly.coeff(k)), -1, p)) % p
    vecs = T.space()
    acc = np.zeros_like(vecs)
    cur = np.arange(T.size, dtype=np.int64)    # T^(i-k-1), i starting at k+1
    for i in range(k + 1, poly.degree + 1):
        a = poly.coeff(i)
        if a:
            acc = (acc + a * vecs[cur]) % p
        cur = T.table[cur]
    G = FpVectorOperator(p, T.n, encode(acc * scale % p, p))
    m = max(k, 1)
    lhs = G.compose(T.power(m + 1))
    assert lhs == T.power(m), "left-Drazin identity failed"
    return G, m


def reciprocal_poly(poly):
    """p*(x) = sum_i a_i x^(deg - i); vanishing in T^-1 when p vanishes in
    an invertible T."""
    if poly.is_zero:
        raise ValueError("zero polynomial has no reciprocal")
    return OperatorPolynomial(tuple(reversed(poly.coeffs)), poly.prime)


def power_vanishing_poly(poly, k, l):
    """Vanishing polynomial for any T1 with T1^l = T^k, of degree <= deg(p)*l.

    Reduces x^(jk) mod p for j = 0..deg(p), takes an exact linear
    dependence among the remainders, and substitutes x^l for x^k.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("need a vanishing polynomial of degree >= 1")
    if l < 1 or k < 0:
        raise ValueError("need l >= 1 and k >= 0")
    p = poly.prime
    m = poly.degree
    rem = np.zeros((m + 1, m), dtype=np.int64)
    for j in range(m + 1):
        xjk = OperatorPolynomial((0,) * (j * k) + (1,), p)
        _, r = xjk.divmod(poly)
        for i, c in enumerate(r.coeffs):
            rem[j, i] = c
    alphas = fp_solve_kernel(rem.T, p)
    assert alphas, "remainders must be dependent: m+1 vectors in dimension m"
    alpha = alphas[0]
    out = np.zeros(m * l + 1, dtype=np.int64)
    for j, aj in enumerate(alpha):
        out[j * l] = (out[j * l] + aj) % p
    result = OperatorPolynomial(out, p)
    assert not result.is_zero and result.degree <= m * l
    return result


def affine_vanishing_poly(poly, A, p, b=None):
    """p^2 - p(1) p, vanishing in T(v) = A v + b when p vanishes in A."""
    A = np.asarray(A, dtype=np.int64) % p
    n = A.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    Ai = np.eye(n, dtype=np.int64)
    for a in poly.coeffs:
        acc = (acc + a * Ai) % p
        Ai = fp_matmul(Ai, A, p)
    if acc.any():
        raise ValueError("polynomial does not vanish in the matrix")
    return poly.mul(poly).add(poly.scale(-poly.eval_scalar(1)))


def product_operator_fp(parts):
    """Componentwise operator on F_p^(n1+...+nk) from per-factor operators."""
    parts = list(parts)
    p = parts[0].p
    if any(t.p != p for t in parts):
        raise ValueError("all factors must share the prime")
    ntot = sum(t.n for t in parts)
    if p ** ntot > SPACE_CAP:
        raise ValueError("product space exceeds the enumeration cap")
    vecs = _space(p, ntot)
    out = np.empty_like(vecs)
    ofs = 0
    for t in parts:
        sub = vecs[:, ofs:ofs + t.n]
        out[:, ofs:ofs + t.n] = t.space()[t.table[encode(sub, p)]]
        ofs += t.n
    return FpVectorOperator(p, ntot, encode(out, p))


def product_vanishing_poly(parts):
    """Product of per-factor vanishing polynomials; vanishes componentwise.

    parts: list of (poly_i, T_i); each pair is verified before multiplying.
    """
    polys = []
    for poly, T in parts:
        if not poly_vanishes(poly, T):
            raise ValueError("a factor polynomial fails to vanish; product rejected")
        polys.append(poly)
    out = polys[0]
    for q in polys[1:]:
        out = out.mul(q)
    return out


def companion_matrix(poly):
    """Companion matrix of a monic polynomial over F_p: first row ends at
    -a0, unit subdiagonal, last column -a_i."""
    if poly.is_zero or poly.coeffs[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial")
    p = poly.prime
    n = poly.degree
    C = np.zeros((n, n), dtype=np.int64)
    for j in range(1, n):
        C[j, j - 1] = 1
    for j in range(n):
        C[j, n - 1] = (-poly.coeff(j)) % p
    return C


@dataclass
class CompanionReport:
    ok: bool
    violations: int
    companion: np.ndarray


def companion_embedding_check(T, poly):
    """Verify phi_T(T(v)) = C_p^T phi_T(v) for every v, with
    phi_T(v) = (v, T(v), ..., T^(deg-1)(v))."""
    if not poly_vanishes(poly, T):
        raise ValueError("polynomial must vanish in T")
    C = companion_matrix(poly)
    d = poly.degree
    p = T.p
    vecs = T.space()
    blocks = []                                   # T^i over all v, i = 0..d
    cur = np.arange(T.size, dtype=np.int64)
    for _ in range(d + 1):
        blocks.append(vecs[cur])
        cur = T.table[cur]
    bad = 0
    for r in range(d):
        lhs = blocks[r + 1]                       # block r of phi(T(v))
        rhs = np.zeros_like(lhs)
        for s in range(d):
            c = C[s, r]
            if c:
                rhs = (rhs + c * blocks[s]) % p
        bad += int(np.count_nonzero(np.any(lhs != rhs, axis=1)))
    return CompanionReport(bad == 0, bad, C)


@dataclass
class EigenRootReport:
    fixed_points: int          # nonzero fixed points (eigenvalue 1)
    kernel_vectors: int        # nonzero v with T(v) = 0 (eigenvalue 0)
    homogeneous: bool          # T(0) = 0
    one_homogeneous: bool      # T(a v) = a T(v) for all a != 0 as well
    p_at_1: int
    p_at_0: int
    ok_fixed: bool             # fixed point present => p(1) = 0
    ok_kernel: bool            # homogeneous kernel eigenvector => p(0) = 0

    @property
    def ok(self):
        return self.ok_fixed and self.ok_kernel


def eigen_root_check(T, poly):
    """Eigenvalue/root instances for lambda in {0, 1}.

    A nonzero fixed point forces p(1) = 0; when T is homogeneous
    (T(0) = 0), a nonzero kernel vector forces p(0) = 0. Both are reported
    with the exact counts; vacuous cases pass.
    """
    if not poly_vanishes(poly, T):
        raise ValueError("polynomial must vanish in T")
    idx = np.arange(T.size, dtype=np.int64)
    fixed = int(np.count_nonzero((T.table == idx) & (idx != 0)))
    kernel = int(np.count_nonzero((T.table == 0) & (idx != 0)))
    homogeneous = T.table[0] == 0
    one_h = bool(homogeneous)
    if one_h:
        vecs = T.space()
        for a in range(2, T.p):
            scaled = encode(vecs * a % T.p, T.p)
            if not np.array_equal(T.table[scaled], scaled[T.table]):
                one_h = False
                break
    p1 = poly.eval_scalar(1)
    p0 = poly.coeff(0)
    ok_fixed = fixed == 0 or p1 == 0
    ok_kernel = (not homogeneous) or kernel == 0 or p0 == 0
    return EigenRootReport(fixed, kernel, bool(homogeneous), one_h,
                           int(p1), int(p0), bool(ok_fixed), bool(ok_kernel))


def cayley_hamilton_inverse(A, p):
    """Matrix inverse over F_p through the characteristic polynomial:
    A^-1 = -a0^-1 (a1 I + a2 A + ... + an A^(n-1)). None when singular."""
    A = np.asarray(A, dtype=np.int64) % p
    coeffs = fp_char_poly(A, p)
    a0 = coeffs[0]
    if a0 == 0:
        return None
    n = A.shape[0]
    scale = (-pow(int(a0), -1, p)) % p
    acc = np.zeros((n, n), dtype=np.int64)
    Ai = np.eye(n, dtype=np.int64)
    for a in coeffs[1:]:
        acc = (acc + a * Ai) % p
        Ai = fp_matmul(Ai, A, p)
    return acc * scale % p
