"""Vanishing and minimal polynomials of endofunctions over prime fields.

Operators live on the enumerable vector space V = F_p^n (p^n capped at
10^5) as total tables over vector indices, so every polynomial identity
here is checked exhaustively and exactly. Includes inversion by forward
applications: polynomial left inverses, left-Drazin inverses from a
vanishing polynomial, and Cayley-Hamilton matrix inversion.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .core_ops import FiniteOperator, OperatorPolynomial, table_power
from .numerics import (INT64_LIMIT, fp_array, fp_check, fp_solve_kernel, fp_char_poly,
                       fp_matmul, fp_poly_divmod, fp_poly_gcd, integer_entries)

SPACE_CAP = 100_000


@lru_cache(maxsize=32)
def _space(p, n):
    """All p^n vectors of F_p^n, row i = digits of i base p (low axis first);
    read-only, as every caller shares the cached array."""
    idx = np.arange(p ** n, dtype=np.int64)
    space = (idx[:, None] // p ** np.arange(n, dtype=np.int64)[None, :]) % p
    space.flags.writeable = False
    return space


def _checked_space(p, n):
    """(p, n) as ints; ValueError unless p passes fp_check, n is an integer
    >= 0 and p^n is at most SPACE_CAP."""
    fp_check(p)
    integer_entries([n], "n")
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    # p >= 2, so p^n exceeds the cap once n reaches its bit length
    if n >= SPACE_CAP.bit_length() or int(p) ** int(n) > SPACE_CAP:
        raise ValueError("space size %d^%d exceeds the enumeration cap" % (p, n))
    return int(p), int(n)


def encode(vecs, p):
    vecs = np.atleast_2d(fp_array(vecs, p, "vectors")[0])
    n = vecs.shape[1]
    return vecs @ (p ** np.arange(n, dtype=np.int64))


@dataclass(frozen=True, eq=False, init=False)     # frozen like its base: p, n too
class FpVectorOperator(FiniteOperator):
    """A FiniteOperator on F_p^n: its ids index the p^n vectors, whose
    digits base p are the coordinates, low axis first."""

    def __init__(self, p, n, table):
        p, n = _checked_space(p, n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        super().__init__(p ** n, p ** n, table)

    @property
    def size(self):
        return self.domain_size

    def space(self):
        return _space(self.p, self.n)

    def compose(self, inner):
        if (self.p, self.n) != (inner.p, inner.n):
            raise ValueError("operators live on different spaces")
        return FpVectorOperator(self.p, self.n, self.table[inner.table])

    def power(self, k):
        return FpVectorOperator(self.p, self.n, table_power(self.table, k))

    def is_surjective(self):
        return bool(np.bincount(self.table, minlength=self.size).all())

    @staticmethod
    def identity(p, n):
        return FpVectorOperator(p, n, np.arange(p ** n, dtype=np.int64))

    @staticmethod
    def zero(p, n):
        return FpVectorOperator(p, n, np.zeros(p ** n, dtype=np.int64))

    @staticmethod
    def from_callable(p, n, f):
        """Build the table from a vectorized rule f on the (p^n, n) digit array
        of the space; p and n are checked before f is called, and f's output
        must be a (p^n, n) integer array."""
        p, n = _checked_space(p, n)
        vecs = _space(p, n)
        out, _ = fp_array(f(vecs), p, "the output of f")
        if out.shape != vecs.shape:
            raise ValueError("f must return a %d x %d array, got shape %s"
                             % (vecs.shape + (out.shape,)))
        return FpVectorOperator(p, n, encode(out, p))

    @staticmethod
    def from_matrix(A, p, b=None):
        """Linear or affine operator v -> A v + b over F_p, for an n x n
        matrix A and n offsets b."""
        A, p = fp_array(A, p, "A")
        n = len(A) if A.ndim else 0
        off = np.zeros(n, dtype=np.int64) if b is None else fp_array(b, p, "b")[0]
        if A.shape != (n, n) or off.shape != (n,):
            raise ValueError("from_matrix needs an n x n matrix A and n offsets b, got "
                             "shapes %s and %s" % (A.shape, off.shape))
        return FpVectorOperator.from_callable(p, n, lambda V: V @ A.T + off)


def fp_apply_polynomial(poly, T):
    """q(T) evaluated on every vector: returns a (p^n, n) digit array.

    Sums run unreduced in int64 and are reduced mod p only as often as
    the bound (p-1)^2 per term requires.
    """
    if poly.prime != T.p:
        raise ValueError("polynomial and operator fields differ")
    p = T.p
    digits = np.ascontiguousarray(T.space().T)          # (n, p^n)
    cur = np.arange(T.size, dtype=np.int64)
    acc = np.zeros((T.n, T.size), dtype=np.int64)
    room = (INT64_LIMIT - 1) // (p - 1) ** 2 - 1           # terms addable after a reduction
    terms = 0
    for j, a in enumerate(poly.coeffs.tolist()):    # Python ints scale arrays faster
        if j > 0:
            cur = T.table[cur]
        if a:
            acc += a * digits.take(cur, axis=1)
            terms += 1
            if terms == room:
                acc %= p
                terms = 0
    return (acc % p).T


def poly_vanishes(poly, T):
    """Exhaustive check that q(T)(v) = 0 for every v in F_p^n."""
    if poly.is_zero:
        return False
    return not fp_apply_polynomial(poly, T).any()


def stabilization_profile(T):
    """(l, m): least l with |T^l(V)| = |T^(l+1)(V)|, and that common size m,
    the number of cyclic vectors."""
    fg = T.graph
    return fg.k, int(np.count_nonzero(fg.on_cycle))


def find_vanishing_poly(T, l=None):
    """Nonzero polynomial q with q(T)(v) = 0 for all v, degree <= m^2 + l.

    l defaults to the least pre-iteration count at which image sizes
    stabilize (m = |T^l(V)|); a supplied l must satisfy the same size
    condition. On the stabilized image T permutes m vectors, so q is x^l
    times lcm_c (x^c - 1) over its cycle lengths c: the minimal polynomial
    of that permutation's incidence matrix. The result is verified
    exhaustively before returning.
    """
    fg = T.graph
    if l is None:
        l = fg.k
    elif l < fg.k:
        raise ValueError("image sizes still shrinking after %d iterations" % l)
    m = int(np.count_nonzero(fg.on_cycle))
    periods = [OperatorPolynomial([-1] + [0] * (c - 1) + [1], T.p)     # x^c - 1
               for c in np.flatnonzero(np.bincount(fg.cycle_length))]
    poly = reduce(OperatorPolynomial.lcm, periods).shift(l)
    if poly.degree > m * m + l:
        raise AssertionError("vanishing polynomial exceeds the degree bound m^2 + l")
    if not poly_vanishes(poly, T):
        raise AssertionError("constructed polynomial fails to vanish")
    return poly


def _cycles_annihilator(rows, c, p):
    """(x^c - 1) / gcd(x^c - 1, every row of `rows`, an (r, c) array of
    coefficient rows): the least annihilator of c-periodic sequences whose
    reversed periods are the rows (Lidl & Niederreiter, Finite Fields, ch. 8).

    The gcd is reduced one row at a time; all remaining rows are reduced
    modulo it at once, and every step lowers its degree.
    """
    period = g = np.array([-1] + [0] * (c - 1) + [1])
    while g.size > 1:
        rows = fp_poly_divmod(rows, g, p)[1]
        live = np.flatnonzero(rows.any(axis=1))
        if not live.size:
            break
        g = fp_poly_gcd(g, rows[live[0]], p)
        rows = rows[live[1:]]
    return OperatorPolynomial(fp_poly_divmod(period, g, p)[0], p)


def minimal_poly(T):
    """The unique monic vanishing polynomial of least degree, x^A L.

    q(T) = 0 exactly when q annihilates the digit sequence (T^j v)_j of
    every vector v. On a cycle C of length c these sequences are shifts of
    one c-periodic sequence, whose least annihilator g_C comes from its
    period in reverse order; L = lcm_C g_C. A tail vector u has
    L(T)(u) = 0 once it has been iterated onto its cycle, so the least
    shift A is 1 + the longest path into a tail vector where L(T) does not
    vanish, or 0 when there is none. The result is verified exhaustively
    before returning.
    """
    fg = T.graph
    vecs = T.space()
    is_root = fg.cycle_root == np.flatnonzero(fg.on_cycle)          # one per cycle
    roots, lengths = fg.cycle_root[is_root], fg.cycle_length[is_root]
    annihilators = []
    for c in np.flatnonzero(np.bincount(lengths)):
        cur = roots[lengths == c]
        orbits = np.empty((len(cur), c), dtype=np.int64)              # reversed
        for i in range(c - 1, -1, -1):
            orbits[:, i] = cur
            cur = T.table[cur]
        rows = vecs[orbits].transpose(0, 2, 1).reshape(-1, c)       # per cycle and digit
        annihilators.append(_cycles_annihilator(rows, c, T.p))
    L = reduce(OperatorPolynomial.lcm, annihilators)
    # x^A L(T)(v) = L(T)(T^A v): one evaluation of L gives both A and the certificate
    missed = fp_apply_polynomial(L, T).any(axis=1)
    A = 1 + int(fg.exit_level[missed].max()) if missed.any() else 0
    if L.coeffs[-1] != 1 or missed[table_power(T.table, A)].any():
        raise AssertionError("minimal polynomial fails its certificate")
    return L.shift(A)


def poly_left_inverse(poly, T):
    """Left inverse S = -a0^-1 sum_{i>=1} a_i T^(i-1) from a vanishing poly:
    the G of `left_drazin_from_poly`, whose certificate is S T = I here.

    Returns None ("not applicable") when the free coefficient a0 is zero,
    after the certificate, so a polynomial that does not vanish in T still
    raises ValueError. When T is surjective, S is the two-sided inverse.
    """
    S, _ = left_drazin_from_poly(poly, T)
    if poly.coeff(0) == 0:
        return None
    if T.is_surjective() and T.compose(S) != FpVectorOperator.identity(T.p, T.n):
        raise AssertionError("surjective operator must make the left inverse two-sided")
    return S


def left_drazin_from_poly(poly, T):
    """Left-Drazin inverse G = -a_k^-1 sum_{i>k} a_i T^(i-k-1), parameter max(k,1).

    k is the least index with a nonzero coefficient; an empty sum (k = deg)
    gives the zero operator. G(T^(k+1) v) = T^k v - a_k^-1 q(T)(v), so the
    identity G T^(k+1) = T^k, checked exhaustively, holds exactly when q
    vanishes in T (ValueError otherwise); it implies G T^(m+1) = T^m.
    """
    if poly.is_zero:
        raise ValueError("polynomial does not vanish in T")
    k = int(np.flatnonzero(poly.coeffs)[0])
    tail = fp_apply_polynomial(OperatorPolynomial(poly.coeffs[k + 1:], poly.prime), T)
    scale = (-pow(int(poly.coeff(k)), -1, T.p)) % T.p
    G = FpVectorOperator(T.p, T.n, encode(tail * scale, T.p))
    Tk = table_power(T.table, k)
    if not np.array_equal(G.table[T.table[Tk]], Tk):
        raise ValueError("polynomial does not vanish in T")
    return G, max(k, 1)


def reciprocal_poly(poly):
    """p*(x) = sum_i a_i x^(deg - i); vanishing in T^-1 when p vanishes in
    an invertible T."""
    if poly.is_zero:
        raise ValueError("zero polynomial has no reciprocal")
    return OperatorPolynomial(poly.coeffs[::-1], poly.prime)


def power_vanishing_poly(poly, k, l):
    """Vanishing polynomial for any T1 with T1^l = T^k, of degree <= deg(p)*l.

    Reduces x^(jk) mod p for j = 0..deg(p) as the rows of one division,
    takes an exact linear dependence among the remainders, and substitutes
    x^l for x^k.
    """
    if poly.is_zero or poly.degree < 1:
        raise ValueError("need a vanishing polynomial of degree >= 1")
    if l < 1 or k < 0:
        raise ValueError("need l >= 1 and k >= 0")
    p = poly.prime
    m = poly.degree
    powers = np.zeros((m + 1, max(m * k + 1, m)), dtype=np.int64)     # row j: x^(jk)
    powers[np.arange(m + 1), np.arange(m + 1) * k] = 1
    rem = fp_poly_divmod(powers, poly.coeffs, p)[1]
    alphas = fp_solve_kernel(rem.T, p)
    if not alphas:
        raise AssertionError("remainders must be dependent: m+1 vectors in dimension m")
    out = np.zeros(m * l + 1, dtype=np.int64)
    out[::l] = alphas[0]
    result = OperatorPolynomial(out, p)
    if result.is_zero or result.degree > m * l:
        raise AssertionError("power vanishing polynomial is zero or exceeds degree m l")
    return result


def _fp_matrix_poly(coeffs, A, p):
    """sum_i c_i A^i over F_p for a square matrix A reduced mod p, by Horner's rule."""
    eye = np.eye(A.shape[0], dtype=np.int64)
    acc = np.zeros_like(A)
    for c in reversed(coeffs):
        acc = (fp_matmul(acc, A, p) + c * eye) % p
    return acc


def affine_vanishing_poly(poly, A, p):
    """p^2 - p(1) p, vanishing in every T(v) = A v + b when p vanishes in A."""
    if poly.prime != p:
        raise ValueError("polynomial and matrix fields differ")
    A, p = fp_array(A, p, "A")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("affine_vanishing_poly requires a square matrix")
    if _fp_matrix_poly(poly.coeffs, A, p).any():
        raise ValueError("polynomial does not vanish in the matrix")
    return poly.mul(poly).add(poly.scale(-poly.eval_scalar(1)))


def product_operator_fp(parts):
    """Componentwise operator on F_p^(n1+...+nk) from per-factor operators:
    factor t maps the id block id // scale % t.size, its digits, in place."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one factor")
    p = parts[0].p
    if any(t.p != p for t in parts):
        raise ValueError("all factors must share the prime")
    ntot = sum(t.n for t in parts)
    if p ** ntot > SPACE_CAP:
        raise ValueError("product space exceeds the enumeration cap")
    ids = np.arange(p ** ntot, dtype=np.int64)
    out = np.zeros_like(ids)
    scale = 1
    for t in parts:
        out += t.table[ids // scale % t.size] * scale
        scale *= t.size
    return FpVectorOperator(p, ntot, out)


def product_vanishing_poly(parts):
    """Product of per-factor vanishing polynomials; vanishes componentwise.

    parts: list of (poly_i, T_i); each pair is verified before multiplying.
    """
    for poly, T in parts:
        if not poly_vanishes(poly, T):
            raise ValueError("a factor polynomial fails to vanish; product rejected")
    return reduce(OperatorPolynomial.mul, [poly for poly, _ in parts])


def companion_matrix(poly):
    """Companion matrix of a monic polynomial over F_p: first row ends at
    -a0, unit subdiagonal, last column -a_i."""
    if poly.is_zero or poly.coeffs[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial")
    n = poly.degree
    C = np.eye(n, k=-1, dtype=np.int64)                  # unit subdiagonal
    C[:, n - 1:] = (-poly.coeffs[:n, None]) % poly.prime     # last column, if any
    return C


@dataclass
class CompanionReport:
    ok: bool
    violations: int


def companion_embedding_check(T, poly):
    """Verify phi_T(T(v)) = C^T phi_T(v) for every v, with
    phi_T(v) = (v, T(v), ..., T^(d-1)(v)) and C = companion_matrix(poly).

    Block r < d-1 reads T^(r+1)(v) = T^(r+1)(v), since column r of C is
    e_(r+1), and holds for every T; the last block is q(T)(v) = 0. So one
    evaluation of q decides every vector: `violations` counts the v with
    q(T)(v) != 0 (for d = 0 too, though phi_T is then empty).
    """
    if poly.is_zero or poly.coeffs[-1] != 1:
        raise ValueError("companion embedding needs a monic polynomial")
    bad = int(np.count_nonzero(fp_apply_polynomial(poly, T).any(axis=1)))
    return CompanionReport(bad == 0, bad)


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


def _generator(p):
    """The least generator of F_p^*, by trial division of p - 1."""
    m, factors, q = p - 1, [], 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


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
        # T(g v) = g T(v) for one generator g of F_p^* gives every power of g
        scaled = encode(T.space() * _generator(T.p), T.p)
        one_h = bool(np.array_equal(T.table[scaled], scaled[T.table]))
    p1 = poly.eval_scalar(1)
    p0 = poly.coeff(0)
    ok_fixed = fixed == 0 or p1 == 0
    ok_kernel = (not homogeneous) or kernel == 0 or p0 == 0
    return EigenRootReport(fixed, kernel, bool(homogeneous), one_h,
                           int(p1), int(p0), bool(ok_fixed), bool(ok_kernel))


def cayley_hamilton_inverse(A, p):
    """Matrix inverse over F_p through the characteristic polynomial:
    A^-1 = -a0^-1 (a1 I + a2 A + ... + an A^(n-1)). None when singular.
    The inverse is certified by A G = I before it is returned."""
    A, p = fp_array(A, p, "A")
    coeffs = fp_char_poly(A, p)
    a0 = coeffs[0]
    if a0 == 0:
        return None
    G = _fp_matrix_poly(coeffs[1:], A, p) * (-pow(a0, -1, p) % p) % p
    if not np.array_equal(fp_matmul(A, G, p), np.eye(len(A), dtype=np.int64)):
        raise AssertionError("Cayley-Hamilton inverse fails its certificate A G = I")
    return G
