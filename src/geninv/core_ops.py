"""Operator abstractions: finite operator tables, vector operators, polynomials.

Finite operators are total maps between id sets {0..n-1}, stored as dense
read-only int64 tables; an endofunction's functional graph is analysed once,
on first use. Vector operators wrap a deterministic rule on real vectors and
are closed under composition, powers, pointwise linear combination, and the
named one-dimensional kinds. Operator polynomials act by iterating the
operator and accumulating: p(T)(v) = sum_i a_i T^i(v).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (fp_array, fp_convolve, fp_poly_divmod, fp_poly_gcd,
                       integer_entries, parse_json_object, real_entries, trimmed)


class DimensionMismatch(ValueError):
    """Raised when operator shapes are incompatible."""


def as_vector(x, dim):
    """x as a float array of shape (dim,), a scalar counting as a vector of
    dim 1; DimensionMismatch otherwise. The one shape check of a caller's
    vector in the real-valued layer."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise DimensionMismatch("expected vector of dim %d, got shape %s" % (dim, x.shape))
    return x


# ---------------------------------------------------------------------------
# finite operators
# ---------------------------------------------------------------------------

def checked_table(table, domain_size, codomain_size):
    """`table` as a new int64 array, checked to be a total map
    {0..domain_size-1} -> {0..codomain_size-1}.

    The sizes and the entries must pass numerics.integer_entries, and the
    sizes must be >= 0. Raises ValueError.
    """
    integer_entries([domain_size], '"domain"')
    integer_entries([codomain_size], '"codomain"')
    if domain_size < 0 or codomain_size < 0:
        raise ValueError("sizes must be >= 0, got %d and %d" % (domain_size, codomain_size))
    integer_entries(table, "table entries")
    try:
        arr = np.array(table, dtype=np.int64)
    except OverflowError:
        raise ValueError("table entries must lie inside the codomain")
    except TypeError:                           # a dict: integer_entries saw its keys
        raise ValueError("table must be a list of integers")
    if arr.ndim != 1 or len(arr) != domain_size:
        raise ValueError("table length must equal domain_size")
    if codomain_size <= 0 and domain_size > 0:
        raise ValueError("nonempty domain needs a nonempty codomain")
    if domain_size and (arr.min() < 0 or arr.max() >= codomain_size):
        raise ValueError("table entries must lie inside the codomain")
    return arr


@dataclass(frozen=True, eq=False)
class FiniteOperator:
    """A total map {0..domain_size-1} -> {0..codomain_size-1} as a table:
    the read-only int64 array checked_table returns. Equal sizes and
    tables make equal operators; an array table makes them unhashable."""

    domain_size: int
    codomain_size: int
    table: np.ndarray

    def __post_init__(self):
        table = checked_table(self.table, self.domain_size, self.codomain_size)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other):                    # which also sets __hash__ to None
        return (isinstance(other, FiniteOperator) and self.domain_size == other.domain_size
                and self.codomain_size == other.codomain_size
                and np.array_equal(self.table, other.table))

    def __call__(self, i):
        return int(self.table[i])

    @property
    def is_endofunction(self):
        return self.domain_size == self.codomain_size

    @cached_property
    def graph(self):
        """The functional graph of an endofunction, analysed once per operator;
        its arrays are read-only, as every reader shares them."""
        if not self.is_endofunction:
            raise ValueError("operator must map a set to itself")
        fg = functional_graph(self.table)
        for a in (fg.on_cycle, fg.cycle_length, fg.exit_level, fg.cycle_root):
            a.flags.writeable = False
        return fg

    @staticmethod
    def identity(n):
        return FiniteOperator(n, n, np.arange(n))

    @staticmethod
    def from_json(text):
        obj = parse_json_object(text)
        return FiniteOperator(obj["domain"], obj["codomain"], obj["table"])

    def to_json(self):
        return {"domain": self.domain_size, "codomain": self.codomain_size,
                "table": self.table.tolist()}


def compose(outer, inner):
    """outer o inner on id tables; requires inner codomain = outer domain."""
    if inner.codomain_size != outer.domain_size:
        raise DimensionMismatch("cannot compose: inner codomain %d != outer domain %d"
                                % (inner.codomain_size, outer.domain_size))
    table = outer.table[inner.table]
    return FiniteOperator(inner.domain_size, outer.codomain_size, table)


def power(T, k):
    """k-fold self-composition of an endofunction; power(T, 0) is the identity."""
    if not T.is_endofunction:
        raise DimensionMismatch("power requires an endofunction")
    return FiniteOperator(T.domain_size, T.domain_size, table_power(T.table, k))


def table_power(t, k):
    """T^k of an endofunction table by binary exponentiation on arrays."""
    if k < 0:
        raise ValueError("power exponent must be non-negative")
    out = np.arange(len(t), dtype=np.int64)
    base = t
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return out


@dataclass
class FunctionalGraph:
    on_cycle: np.ndarray       # per node: lies on a cycle of the graph
    cycle_length: np.ndarray   # per cycle node, in id order: length of its cycle
    exit_level: np.ndarray     # per node: last j with v in T^j(V); k on cycles
    k: int                     # first k with T^k(V) = T^(k+1)(V)
    cycle_root: np.ndarray     # per cycle node, in id order: least node of its cycle


def functional_graph(table):
    """Cycles, cycle lengths and exit levels of an endofunction table.

    Pointer doubling: while T^(2^r) is squared, a `maximum` scatter doubles
    the longest known path into each node, which off the cycles is the exit
    level, and a bool scatter marks T^(2^r)(V). The chain shrinks strictly
    up to step k, so once |T^(2^r)(V)| = |T^(2^(r-1))(V)|, 2^(r-1) >= k:
    every tail path is counted and the marked image is the cyclic part.
    Cycle lengths come from propagating the least label around each cycle
    and counting labels; the least label names each cycle's least node.
    """
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    exit_level = np.zeros(n, dtype=np.int64)     # longest path into v, < 2^r steps
    jump, size, r = t, n, 0                      # T^(2^r); |T^(2^(r-1))(V)|, |V| at r = 0
    while True:
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[jump] = True
        count = np.count_nonzero(on_cycle)
        if count == size:
            break
        np.maximum.at(exit_level, jump, exit_level + (1 << r))
        jump, size, r = jump[jump], count, r + 1
    del jump
    k = int(exit_level.max(initial=-1, where=~on_cycle)) + 1
    exit_level[on_cycle] = k

    cyc = np.flatnonzero(on_cycle)
    pos = np.empty(n, dtype=np.int64)
    pos[cyc] = np.arange(len(cyc))
    step = pos[t[cyc]]
    del pos
    label = np.arange(len(cyc))                  # least position on each cycle
    for _ in range(max(len(cyc) - 1, 0).bit_length()):
        np.minimum(label, label[step], out=label)
        step = step[step]
    del step
    cycle_length = np.bincount(label, minlength=len(cyc))[label]
    return FunctionalGraph(on_cycle, cycle_length, exit_level, k, cyc[label])


def image(T):
    """Sorted array of codomain ids hit by T."""
    return np.flatnonzero(np.bincount(T.table, minlength=T.codomain_size))


CANDIDATE_CHUNK = 200_000


def all_tables(n_values, length):
    """Every table of `length` entries in {0..n_values-1}, in lexicographic
    order, as int64 blocks of at most CANDIDATE_CHUNK rows: the candidates
    of the brute-force searches, which bound n_values^length themselves."""
    total = n_values ** length
    radix = n_values ** np.arange(length - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, CANDIDATE_CHUNK):
        idx = np.arange(start, min(start + CANDIDATE_CHUNK, total), dtype=np.int64)
        yield (idx[:, None] // radix[None, :]) % n_values


# ---------------------------------------------------------------------------
# vector operators
# ---------------------------------------------------------------------------

class VectorOperator:
    """Deterministic rule mapping real vectors of dim_in to dim_out.

    The callable `fn` must accept an (N, dim_in) array and return an
    (N, dim_out) array, so grid oracles can evaluate in bulk.
    """

    # the parts of a componentwise product; set by product_operator
    _factors = ()

    def __init__(self, dim_in, dim_out, fn, name=""):
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.fn = fn
        self.name = name

    @property
    def factors(self):
        """Operators this one is the componentwise product of, in axis
        order and never themselves products; (self,) for any other operator."""
        return self._factors or (self,)

    def apply(self, v):
        return self.fn(as_vector(v, self.dim_in)[None, :])[0]

    def apply_batch(self, batch):
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.dim_in:
            raise DimensionMismatch("expected (N, %d) batch" % self.dim_in)
        return self.fn(batch)

    def __call__(self, v):
        return self.apply(v)

    # -- closure set ---------------------------------------------------

    def compose(self, inner):
        """self o inner."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch("composition dims do not match")
        return VectorOperator(inner.dim_in, self.dim_out,
                              lambda b: self.fn(inner.fn(b)),
                              name="%s.%s" % (self.name, inner.name))

    def power(self, k):
        if self.dim_in != self.dim_out:
            raise DimensionMismatch("power requires an endofunction")
        if k < 0:
            raise ValueError("power exponent must be non-negative")
        fn = self.fn

        def f(b):
            for _ in range(k):
                b = fn(b)
            return b
        return VectorOperator(self.dim_in, self.dim_out, f, name="%s^%d" % (self.name, k))

    def scale(self, a):
        return VectorOperator(self.dim_in, self.dim_out,
                              lambda b: a * self.fn(b), name="%g*%s" % (a, self.name))

    def add(self, other):
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            raise DimensionMismatch("sum requires equal shapes")
        return VectorOperator(self.dim_in, self.dim_out,
                              lambda b: self.fn(b) + other.fn(b))

    @staticmethod
    def identity(dim):
        return VectorOperator(dim, dim, lambda b: b, name="id")

    @staticmethod
    def from_matrix(A):
        A = np.asarray(A, dtype=float)
        return VectorOperator(A.shape[1], A.shape[0], lambda b: b @ A.T, name="matrix")

    @staticmethod
    def from_scalar(f, name=""):
        """Lift a vectorized scalar function to an operator on R^1."""
        return VectorOperator(1, 1, lambda b: np.asarray(f(b[:, 0]))[:, None], name=name)

    @staticmethod
    def pointwise(f, dim, name=""):
        """Apply a vectorized scalar function entrywise on R^dim."""
        return VectorOperator(dim, dim, lambda b: f(b), name=name)

    @staticmethod
    def affine_of(T, a, b, w0):
        """v -> a*T(b*v) + w0."""
        w0 = as_vector(w0, T.dim_out)
        return VectorOperator(T.dim_in, T.dim_out,
                              lambda batch: a * T.fn(b * batch) + w0)


# ---------------------------------------------------------------------------
# operator polynomials
# ---------------------------------------------------------------------------

class OperatorPolynomial:
    """Polynomial with low-degree-first coefficients over the reals or F_p.

    prime=None means real coefficients, which must pass real_entries; over
    F_p the prime and the coefficients are read by numerics.fp_array.
    `coeffs` is the one stored form: a read-only array without trailing
    zeros, float64 over the reals and int64 reduced mod p over F_p. Binary
    operations need both operands over one field. Equal fields and
    coefficients make equal polynomials; an array makes them unhashable.
    The zero polynomial has no degree; `degree` returns -1 for it as a
    sentinel.
    """

    def __init__(self, coeffs, prime=None):
        if prime is None:
            real_entries(coeffs, "coefficients")
            c = np.array(coeffs, dtype=np.float64)
        else:
            c, prime = fp_array(coeffs, prime, "coefficients")
        if c.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        c = trimmed(c)
        c.flags.writeable = False
        self.prime = prime
        self.coeffs = c

    @property
    def is_zero(self):
        return not self.coeffs.size

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __eq__(self, other):                    # which also sets __hash__ to None
        return (isinstance(other, OperatorPolynomial) and self.prime == other.prime
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        field = "R" if self.prime is None else "F%d" % self.prime
        return "OperatorPolynomial(%s, %s)" % (self.coeffs.tolist(), field)

    def coeff(self, i):
        """Coefficient i as a Python number; zero past the degree."""
        return self.coeffs[i].item() if i <= self.degree else (0.0 if self.prime is None else 0)

    def _same_field(self, other, prime_only=None):
        """ValueError unless other is over this field, and F_p when prime_only names an op."""
        if other.prime != self.prime:
            raise ValueError("polynomials over different fields")
        if prime_only and self.prime is None:
            raise ValueError("%s is supported over a prime field only" % prime_only)

    def add(self, other):
        self._same_field(other)
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        c = b.copy()
        c[:a.size] += a                         # below 2p over F_p; the constructor reduces
        return OperatorPolynomial(c, self.prime)

    def mul(self, other):
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if not (a.size and b.size):
            return OperatorPolynomial([], self.prime)
        c = np.convolve(a, b) if self.prime is None else fp_convolve(a, b, self.prime)
        return OperatorPolynomial(c, self.prime)

    def scale(self, a):
        """a times this polynomial; a must be a coefficient of the field."""
        return self.mul(OperatorPolynomial([a], self.prime))

    def shift(self, k):
        """Multiply by x^k."""
        return OperatorPolynomial(np.concatenate((np.zeros(k, int), self.coeffs)), self.prime)

    def eval_scalar(self, x):
        acc = 0.0 if self.prime is None else 0
        for a in reversed(self.coeffs.tolist()):
            acc = acc * x + a
        return acc if self.prime is None else acc % self.prime

    def monic(self):
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.coeffs[-1].item()
        if lead == 1:
            return self
        return self.scale(1.0 / lead if self.prime is None else pow(lead, -1, self.prime))

    def divmod(self, other):
        """Exact polynomial division with remainder; prime fields only."""
        self._same_field(other, "divmod")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = fp_poly_divmod(self.coeffs, other.coeffs, self.prime)
        return OperatorPolynomial(q, self.prime), OperatorPolynomial(r, self.prime)

    def gcd(self, other):
        """Monic greatest common divisor over F_p; zero when both are zero."""
        self._same_field(other, "gcd")
        return OperatorPolynomial(fp_poly_gcd(self.coeffs, other.coeffs, self.prime),
                                  self.prime)

    def lcm(self, other):
        """Monic least common multiple over F_p, a (b / gcd(a, b)); zero when
        either is zero."""
        self._same_field(other, "lcm")
        if self.is_zero or other.is_zero:
            return OperatorPolynomial([], self.prime)
        p = self.prime
        q = fp_poly_divmod(other.coeffs, fp_poly_gcd(self.coeffs, other.coeffs, p), p)[0]
        return OperatorPolynomial(fp_convolve(self.coeffs, q, p), p).monic()

    def divides(self, other):
        _, r = other.divmod(self)
        return r.is_zero

    @staticmethod
    def from_json(text):
        obj = parse_json_object(text)
        field = obj.get("field", "real")
        if field != "real" and not (isinstance(field, dict) and field.keys() == {"prime"}):
            raise ValueError('"field" must be "real" or {"prime": p}, got %r' % (field,))
        return OperatorPolynomial(obj["coeffs"], None if field == "real" else field["prime"])

    def to_json(self):
        field = "real" if self.prime is None else {"prime": self.prime}
        return {"field": field, "coeffs": self.coeffs.tolist()}


def apply_polynomial(p, T, v):
    """Evaluate p(T)(v) = sum_i a_i T^i(v) for a real vector operator."""
    if T.dim_in != T.dim_out:
        raise DimensionMismatch("polynomial application requires an endofunction")
    acc = np.zeros(T.dim_in)
    iterate = as_vector(v, T.dim_in)
    for i, a in enumerate(p.coeffs):
        if i > 0:
            iterate = T.apply(iterate)
        acc = acc + a * iterate
    return acc

