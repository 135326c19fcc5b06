"""Operator abstractions: finite operator tables, vector operators, polynomials.

Finite operators are total maps between id sets {0..n-1}, stored as dense
tables. Vector operators wrap a deterministic rule on real vectors and are
closed under composition, powers, pointwise linear combination, and the
named one-dimensional kinds. Operator polynomials act by iterating the
operator and accumulating: p(T)(v) = sum_i a_i T^i(v).
"""

from dataclasses import dataclass
import json

import numpy as np


class DimensionMismatch(ValueError):
    """Raised when operator shapes are incompatible."""


# ---------------------------------------------------------------------------
# finite operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteOperator:
    """A total map {0..domain_size-1} -> {0..codomain_size-1} as a table."""

    domain_size: int
    codomain_size: int
    table: tuple

    def __post_init__(self):
        table = self.table
        if isinstance(table, np.ndarray):
            kinds = None
            integral = table.dtype.kind in "iu" or not table.size
        else:
            kinds = set(map(type, table))           # bool is an int subclass
            integral = all(issubclass(k, (int, np.integer)) and k is not bool
                           for k in kinds)
        if not integral:
            raise ValueError("table entries must be integers")
        try:
            arr = np.array(table, dtype=np.int64)
        except OverflowError:
            raise ValueError("table entries must lie inside the codomain")
        if arr.ndim != 1 or len(arr) != self.domain_size:
            raise ValueError("table length must equal domain_size")
        if self.codomain_size <= 0 and self.domain_size > 0:
            raise ValueError("nonempty domain needs a nonempty codomain")
        if self.domain_size and (arr.min() < 0 or arr.max() >= self.codomain_size):
            raise ValueError("table entries must lie inside the codomain")
        if not (isinstance(table, tuple) and kinds <= {int}):
            object.__setattr__(self, "table", tuple(arr.tolist()))
        object.__setattr__(self, "arr", arr)      # the table as an int64 array

    def __call__(self, i):
        return self.table[i]

    @property
    def is_endofunction(self):
        return self.domain_size == self.codomain_size

    @staticmethod
    def identity(n):
        return FiniteOperator(n, n, tuple(range(n)))

    @staticmethod
    def from_json(text):
        obj = json.loads(text) if isinstance(text, str) else text
        return FiniteOperator(int(obj["domain"]), int(obj["codomain"]),
                              tuple(obj["table"]))

    def to_json(self):
        return {"domain": self.domain_size, "codomain": self.codomain_size,
                "table": list(self.table)}


def compose(outer, inner):
    """outer o inner on id tables; requires inner codomain = outer domain."""
    if inner.codomain_size != outer.domain_size:
        raise DimensionMismatch("cannot compose: inner codomain %d != outer domain %d"
                                % (inner.codomain_size, outer.domain_size))
    table = outer.arr[inner.arr]
    return FiniteOperator(inner.domain_size, outer.codomain_size, table)


def power(T, k):
    """k-fold self-composition of an endofunction; power(T, 0) is the identity."""
    if not T.is_endofunction:
        raise DimensionMismatch("power requires an endofunction")
    if k < 0:
        raise ValueError("power exponent must be non-negative")
    return FiniteOperator(T.domain_size, T.domain_size, table_power(T.arr, k))


def table_power(t, k):
    """T^k of an endofunction table by binary exponentiation on arrays."""
    out = np.arange(len(t), dtype=np.int64)
    base = t
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return out


def image(T):
    """Sorted array of codomain ids hit by T."""
    if T.domain_size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(T.arr)


# ---------------------------------------------------------------------------
# vector operators
# ---------------------------------------------------------------------------

class VectorOperator:
    """Deterministic rule mapping real vectors of dim_in to dim_out.

    The callable `fn` must accept an (N, dim_in) array and return an
    (N, dim_out) array, so grid oracles can evaluate in bulk.
    """

    def __init__(self, dim_in, dim_out, fn, name=""):
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.fn = fn
        self.name = name

    def apply(self, v):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if v.shape != (self.dim_in,):
            raise DimensionMismatch("expected vector of dim %d, got shape %s"
                                    % (self.dim_in, v.shape))
        return self.fn(v[None, :])[0]

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
        out = VectorOperator.identity(self.dim_in)
        for _ in range(k):
            out = self.compose(out)
        return out

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
        w0 = np.asarray(w0, dtype=float)
        return VectorOperator(T.dim_in, T.dim_out,
                              lambda batch: a * T.fn(b * batch) + w0)


# ---------------------------------------------------------------------------
# operator polynomials
# ---------------------------------------------------------------------------

class OperatorPolynomial:
    """Polynomial with low-degree-first coefficients over the reals or F_p.

    prime=None means real coefficients. The zero polynomial has no degree;
    `degree` returns -1 for it as a sentinel.
    """

    def __init__(self, coeffs, prime=None):
        self.prime = prime
        if prime is None:
            c = [float(x) for x in coeffs]
            while c and c[-1] == 0.0:
                c.pop()
        else:
            if prime < 2:
                raise ValueError("prime must be >= 2")
            c = [int(x) % prime for x in coeffs]
            while c and c[-1] == 0:
                c.pop()
        self.coeffs = tuple(c)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, OperatorPolynomial)
                and self.prime == other.prime and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.prime, self.coeffs))

    def __repr__(self):
        field = "R" if self.prime is None else "F%d" % self.prime
        return "OperatorPolynomial(%s, %s)" % (list(self.coeffs), field)

    def coeff(self, i):
        return self.coeffs[i] if i <= self.degree else (0.0 if self.prime is None else 0)

    def add(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        c = [self.coeff(i) + other.coeff(i) for i in range(n)]
        return OperatorPolynomial(c, self.prime)

    def mul(self, other):
        if self.is_zero or other.is_zero:
            return OperatorPolynomial([], self.prime)
        c = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                c[i + j] += a * b
        return OperatorPolynomial(c, self.prime)

    def scale(self, a):
        return OperatorPolynomial([a * c for c in self.coeffs], self.prime)

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return OperatorPolynomial((0,) * k + self.coeffs, self.prime)

    def eval_scalar(self, x):
        acc = 0.0 if self.prime is None else 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc if self.prime is None else acc % self.prime

    def monic(self):
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        if self.prime is None:
            return self.scale(1.0 / lead)
        return self.scale(pow(int(lead), -1, self.prime))

    def divmod(self, other):
        """Exact polynomial division with remainder; prime fields only."""
        if self.prime is None or other.prime != self.prime:
            raise ValueError("divmod is supported over a common prime field")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.prime
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 1)
        dlead_inv = pow(int(other.coeffs[-1]), -1, p)
        dd = other.degree
        while len(rem) - 1 >= dd and any(rem):
            k = len(rem) - 1
            if rem[k] == 0:
                rem.pop()
                continue
            factor = rem[k] * dlead_inv % p
            q[k - dd] = factor
            for i, b in enumerate(other.coeffs):
                rem[k - dd + i] = (rem[k - dd + i] - factor * b) % p
            rem.pop()
        return OperatorPolynomial(q, p), OperatorPolynomial(rem, p)

    def divides(self, other):
        _, r = other.divmod(self)
        return r.is_zero

    @staticmethod
    def from_json(text):
        obj = json.loads(text) if isinstance(text, str) else text
        field = obj.get("field", "real")
        prime = None if field == "real" else int(field["prime"])
        return OperatorPolynomial(obj["coeffs"], prime)

    def to_json(self):
        field = "real" if self.prime is None else {"prime": self.prime}
        return {"field": field, "coeffs": list(self.coeffs)}


def apply_polynomial(p, T, v):
    """Evaluate p(T)(v) = sum_i a_i T^i(v) for a real vector operator."""
    if T.dim_in != T.dim_out:
        raise DimensionMismatch("polynomial application requires an endofunction")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    acc = np.zeros(T.dim_in)
    iterate = v
    for i, a in enumerate(p.coeffs):
        if i > 0:
            iterate = T.apply(iterate)
        acc = acc + a * iterate
    return acc

