"""Best-approximate-solution (BAS) pseudo-inverses.

A pseudo-inverse G of T must satisfy BAS -- G(w) minimizes ||T(v) - w||
and, among minimizers, has minimal ||v|| -- together with MP2. This module
describes each named one-dimensional operator kind once (`_KINDS`: its
map, its closed form on whole arrays, the interval where that is defined
and whether it is unique), read by `pinv_table`; one streamed grid scan
realizing BAS directly (`Grid.scan`), and the oracle, the verifier and
the expanding-domain limit built on it.

Closed forms return "undefined at w" as a value (not an error) wherever
the nearest-point problem has no solution, e.g. exp at w <= 0.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .core_ops import VectorOperator, DimensionMismatch, as_vector
from .numerics import real_entries


# ---------------------------------------------------------------------------
# one-dimensional operators and their closed-form pseudo-inverses
# ---------------------------------------------------------------------------

KIND_ALIASES = {
    "hard": "hard_threshold",
    "soft": "soft_threshold",
    "shifted": "shifted_square",
}


def _nonneg(w):
    """max(w, 0) per entry; like Python's max it keeps -0.0 and NaN."""
    return np.where(w < 0.0, 0.0, w)


def _hard_threshold_pinv(op, w):
    aw = np.abs(w)
    return np.sign(w) * (aw > op.a / 2.0) * np.where(aw > op.a, aw, op.a)


@dataclass(frozen=True)
class _Kind:
    """One scalar kind. `forward(op, v)` is the map and `pinv(op, w)` its
    closed-form pseudo-inverse on an array of targets (None: no closed
    form); both read op's parameters. The closed form is defined on the
    interval `domain` = (lo, hi, closed), where an infinite end excludes
    nothing. `unique`: the pseudo-inverse is single-valued where defined."""

    forward: object
    pinv: object = None
    domain: tuple = (-np.inf, np.inf, True)
    unique: bool = True


_KINDS = {
    "square": _Kind(lambda op, v: v * v, lambda op, w: np.sqrt(_nonneg(w)), unique=False),
    "shifted_square": _Kind(lambda op, v: (v - op.a) ** 2,
                            lambda op, w: op.a - np.sign(op.a) * np.sqrt(_nonneg(w))),
    "relu": _Kind(lambda op, v: np.maximum(v, 0.0), lambda op, w: _nonneg(w)),
    "hard_threshold": _Kind(lambda op, v: v * (np.abs(v) >= op.a), _hard_threshold_pinv),
    "soft_threshold": _Kind(lambda op, v: np.sign(v) * np.maximum(np.abs(v) - op.a, 0.0),
                            lambda op, w: np.sign(w) * (np.abs(w) + op.a)),
    "tanh": _Kind(lambda op, v: np.tanh(v), lambda op, w: np.arctanh(w), (-1.0, 1.0, False)),
    "sign": _Kind(lambda op, v: np.sign(v), lambda op, w: np.zeros_like(w), (-0.5, 0.5, True)),
    "sign_eps": _Kind(lambda op, v: np.clip(v / op.eps, -1.0, 1.0),
                      lambda op, w: op.eps * np.clip(w, -1.0, 1.0)),
    "exp": _Kind(lambda op, v: np.exp(v), lambda op, w: np.log(w), (0.0, np.inf, False)),
    "sine": _Kind(lambda op, v: np.sin(v), lambda op, w: np.arcsin(np.clip(w, -1.0, 1.0))),
    "linear": _Kind(lambda op, v: op.c * v,
                    lambda op, w: np.zeros_like(w) if op.c == 0.0 else w / op.c),
    "custom": _Kind(lambda op, v: np.asarray(op.fn(v), dtype=float), unique=False),
}

KINDS = tuple(_KINDS)

# kinds whose pseudo-inverse is unique wherever defined
UNIQUE_KINDS = frozenset(k for k, rec in _KINDS.items() if rec.unique)


@dataclass(frozen=True)
class Scalar1DOperator:
    """Tagged real function: kind plus parameters, evaluable and invertible;
    kind must be a str, and a, eps and c must each pass
    numerics.real_entries and be finite."""

    kind: str
    a: float = 0.0
    eps: float = 1.0
    c: float = 1.0
    fn: object = None

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError("operator \"kind\" must be a string, got %r" % (self.kind,))
        kind = KIND_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ValueError("unknown operator kind %r" % (self.kind,))
        for name in ("a", "eps", "c"):
            real_entries([getattr(self, name)], '"%s"' % name)
        if not all(map(math.isfinite, (self.a, self.eps, self.c))):
            raise ValueError("a, eps and c must be finite, got %r, %r and %r"
                             % (self.a, self.eps, self.c))
        if kind in ("hard_threshold", "soft_threshold") and not self.a >= 0:
            raise ValueError("threshold parameter must be >= 0")
        if kind == "shifted_square" and self.a == 0:
            raise ValueError("shifted_square needs a nonzero shift")
        if kind == "sign_eps" and not self.eps > 0:
            raise ValueError("sign_eps needs eps > 0")
        if kind == "custom" and self.fn is None:
            raise ValueError("custom kind needs a callable")

    def forward(self, v):
        return _KINDS[self.kind].forward(self, np.asarray(v, dtype=float))

    def __call__(self, v):
        return self.forward(v)

    def as_vector_operator(self):
        return VectorOperator.from_scalar(self.forward, name=self.kind)

    def pinv_domain(self):
        """Interval (lo, hi, closed) on which the closed form is defined; an
        infinite end excludes nothing."""
        return _KINDS[self.kind].domain


@dataclass(frozen=True)
class Pinv1D:
    """Closed-form pseudo-inverse value(s) at one target.

    defined=False means "undefined at w". `values` carries both roots for
    a kind whose pseudo-inverse is not unique (square); otherwise a single
    entry.
    """

    defined: bool
    values: tuple = ()

    @property
    def value(self):
        if not self.defined:
            raise ValueError("pseudo-inverse undefined here")
        return self.values[0]

    @property
    def unique(self):
        return self.defined and len(self.values) == 1


UNDEFINED = Pinv1D(False, ())


def pinv_table(op, w):
    """Closed-form pseudo-inverse of `op` at every target in the array w.

    Returns (values, defined), both shaped like w. defined is membership
    in `op.pinv_domain()`; outside it the nearest-point problem has no
    solution and the value is NaN. No end excludes a NaN target: it is
    defined, with value NaN. For a kind that is not unique (square),
    values holds the nonnegative root; the other root is its negation.
    """
    w = np.asarray(w, dtype=float)
    rec = _KINDS[op.kind]
    if rec.pinv is None:
        raise ValueError("no closed form for kind %r" % (op.kind,))
    # log(0) and arctanh(+-1) at undefined targets are masked below, and
    # overflow to +-inf is the value the float formula gives: no warnings
    with np.errstate(all="ignore"):
        v = np.asarray(rec.pinv(op, w), dtype=float)
    lo, hi, closed = rec.domain
    if lo == -np.inf and hi == np.inf:
        return v, np.ones(w.shape, dtype=bool)
    undefined = np.zeros(w.shape, dtype=bool)
    if lo > -np.inf:
        undefined |= w < lo if closed else w <= lo
    if hi < np.inf:
        undefined |= w > hi if closed else w >= hi
    return np.where(undefined, np.nan, v), ~undefined


def closed_form_pinv(op, w):
    """Table closed form for one scalar target w; both roots where the
    kind is not unique."""
    values, defined = pinv_table(op, np.array([float(w)]))
    if not defined[0]:
        return UNDEFINED
    v = float(values[0])
    if op.kind in UNIQUE_KINDS:
        return Pinv1D(True, (v,))
    return Pinv1D(True, (0.0,) if v == 0.0 else (-v, v))


def pinv1d_operator(op):
    """Closed form lifted to a VectorOperator on R^1 (unique kinds only)."""
    if op.kind not in UNIQUE_KINDS:
        raise ValueError("kind %r has no single-valued closed form" % op.kind)

    def f(w):
        values, defined = pinv_table(op, w)
        if not defined.all():
            raise ValueError("pseudo-inverse undefined inside batch")
        return values

    return VectorOperator.from_scalar(f, name=op.kind + "_pinv")


# ---------------------------------------------------------------------------
# grid BAS oracle
# ---------------------------------------------------------------------------

MAX_GRID_POINTS = 20_000_000
GRID_CHUNK = 2 ** 14          # points per block of a grid scan
AXIS_COUNT_SLACK = 1e-9       # an axis ending within this many steps of hi keeps hi
BALL_SLACK = 1e-12            # grid points this far past a scan's radius count as in the ball


def _axis(lo, hi, step):
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError("box axis must be a finite interval")
    n = np.floor((hi - lo) / step + AXIS_COUNT_SLACK) + 1     # a float: hi - lo may overflow
    if n > MAX_GRID_POINTS:                       # refused before np.arange allocates
        raise ValueError("grid of %.0f points is too large" % n)
    return lo + step * np.arange(int(n))


@dataclass
class OracleBest:
    v: np.ndarray
    residual: float
    norm: float
    index: int


def _row_sum(term, X, a):
    """sum over k of term(X[:, k], a[..., k]) for every row of an (N, d)
    batch X, with `a` a (d,) vector or an (N, d) batch: the one row
    reduction of the batch kernels (grid residuals and norms, ball and
    halfspace projections).

    Below 8 columns the terms are added column by column in place, one
    transient column at a time: the bits of term(X, a).sum(axis=1) on
    C-ordered rows in any layout, and one run per column of a
    Fortran-ordered batch. numpy sums 8 or more terms pairwise, so wider
    rows go to it C-ordered. Either way a row gets its bits alone.
    """
    d = X.shape[1]
    if not 0 < d < 8:
        return term(np.ascontiguousarray(X), np.ascontiguousarray(a)).sum(axis=1)
    total = term(X[:, 0], a[..., 0])
    for k in range(1, d):
        total += term(X[:, k], a[..., k])
    return total


def _square_of_difference(x, c):
    diff = x - c
    diff *= diff
    return diff


def _residuals(values, w):
    """||values[i] - w|| for every row of an (N, d) array, by `_row_sum`: the
    bits of np.linalg.norm(values - w, axis=1) on C-ordered rows."""
    return np.sqrt(_row_sum(_square_of_difference, values, w))


def _row_norms(X):
    """||X[i]|| for every row of an (N, d) array, by `_row_sum`."""
    return np.sqrt(_row_sum(np.multiply, X, X))


def _box(box, dim):
    """`box` as one (lo, hi) per input axis; a bare (lo, hi) is a 1-D box."""
    box = list(box)
    if len(box) == 2 and np.isscalar(box[0]):
        box = [tuple(box)]
    if len(box) != dim:
        raise DimensionMismatch("box must give one interval per input axis")
    return box


def _target(w, dim):
    """w as a finite target of dimension dim, else DimensionMismatch or
    ValueError."""
    w = as_vector(w, dim)
    if not np.isfinite(w).all():
        raise ValueError("target must be finite, got %s" % w.tolist())
    return w


class Grid:
    """T's box grid in row-major order, read a block at a time by `scan`.

    A grid keeps T and its axes only; ValueError for a bad step or box and
    for a grid past MAX_GRID_POINTS, refused before any axis is allocated.
    `scan` is the one BAS reduction of the library: it cuts the grid into
    blocks of GRID_CHUNK points, each written as d coordinate columns (a
    Fortran-ordered (n, d) batch), and applies T once per block, so no
    grid is ever held whole. Elementwise kernels and `_row_sum` give each
    point its bits in a C-ordered batch; an operator that keeps its
    input's layout (the projections and `product_operator` do) leaves its
    values in columns too. A matrix or layer operator may round a row
    differently in a block than alone, as GridOracle's caveat (a) says.
    """

    def __init__(self, T, box, step):
        if not (np.isfinite(step) and step > 0):
            raise ValueError("step must be positive and finite, got %r" % (step,))
        self.T = T
        self.axes = [_axis(lo, hi, step) for lo, hi in _box(box, T.dim_in)]
        total = math.prod(map(len, self.axes))
        if total > MAX_GRID_POINTS:
            raise ValueError("grid of %d points is too large" % total)

    @staticmethod
    def _blocks(axes, size):
        """The grid on `axes` in row-major order, `size` points at a time,
        each block a Fortran-ordered (n, d) array of points.

        A row is a run of points over which only the last axes vary,
        taking as many last axes as fit in one block. A block is cut from
        the whole rows it meets, filled by broadcasting: per row for the
        first axes, per point for the last ones.
        """
        d = len(axes)
        shape = tuple(map(len, axes))
        j = next(j for j in range(d + 1) if math.prod(shape[j:]) <= size)
        inner = shape[j:]
        row = math.prod(inner)
        total = math.prod(shape)
        for start in range(0, total, size):
            stop = min(start + size, total)
            first, last = start // row, -(-stop // row)
            rows = np.empty((d, last - first) + inner)
            prefix = np.arange(first, last)
            for k in reversed(range(j)):        # coordinate k is constant along a row
                prefix, index = np.divmod(prefix, shape[k])
                rows[k] = axes[k][index].reshape((-1,) + (1,) * len(inner))
            for k in range(j, d):               # coordinate k varies along axis k of `shape`
                rows[k] = axes[k].reshape((-1,) + (1,) * (d - 1 - k))
            cut = rows.reshape(d, (last - first) * row)[:, start - first * row:stop - first * row]
            yield np.ascontiguousarray(cut).T

    def point(self, index):
        """The grid point at row-major position `index`."""
        at = np.unravel_index(index, tuple(map(len, self.axes)))
        return np.array([axis[i] for axis, i in zip(self.axes, at)])

    def scan(self, targets, bounds=None, radius=np.inf):
        """One pass over the grid for all targets, each a finite vector of
        T's output dimension (checked before T is applied).

        For each target w: the least residual ||T(p) - w|| over the grid,
        and the least-norm point p whose residual is within w's bound, the
        first in row-major order among equal norms. With no bounds the
        bound is the least residual (BAS on the grid). Points with ||p|| >
        radius + BALL_SLACK do not count. Returns arrays (least, norm,
        index, residual, value): that point's norm (+inf where no point
        qualifies), row-major index (-1 then), residual and T value (NaN
        then). ValueError where T is NaN at a grid point, which no bound
        could admit.
        """
        W = [_target(w, self.T.dim_out) for w in targets]
        n = len(W)
        least, norm, index = [np.inf] * n, [np.inf] * n, [-1] * n
        residual, value = np.full(n, np.nan), np.full((n, self.T.dim_out), np.nan)
        start = 0
        for P in self._blocks(self.axes, GRID_CHUNK):
            values = self.T.apply_batch(P)
            if np.isnan(values).any():
                raise ValueError("T is NaN at a grid point")
            if values.shape[1] < 8:             # `_row_sum` reads columns fastest
                values = np.asfortranarray(values)
            norms = _row_norms(P)
            for i, w in enumerate(W):
                res = _residuals(values, w)
                if radius < np.inf:
                    res[norms > radius + BALL_SLACK] = np.inf
                low = res.min()
                if low < least[i]:
                    least[i] = low
                    if bounds is None:          # the bound fell: earlier points no longer count
                        norm[i] = np.inf
                hit = res <= (least[i] if bounds is None else bounds[i])
                within = norms[hit]
                best = within.min(initial=np.inf)
                if best < norm[i]:              # located only when the block improves
                    j = np.flatnonzero(hit)[within.argmin()]
                    norm[i], index[i], residual[i] = best, start + j, res[j]
                    value[i] = values[j]        # a copy: a view would pin the block
            start += len(P)
        return np.array(least), np.array(norm), np.array(index), residual, value


class GridOracle:
    """Exhaustive BAS search over a fixed box grid, one factor at a time.

    `query(w)` is `Grid.scan` at the least residual: the least norm among
    the points of least residual, then the first in row-major grid order
    (BAS on the grid).

    The oracle holds one `Grid` per factor of T (`T.factors`: the parts of
    a componentwise product, or T itself) and scans each once per query,
    so T's values are never held. The residual and the norm of a product
    are both sums of squares over its factors, so the BAS rule picks each
    factor's point on its own: `query` searches d grids of n points in
    place of one of n^d. ValueError from `query` where T is NaN.

    In floats the per-factor answer can differ from a scan of the joint
    grid in two ways. (a) Where a factor has several coordinates, its
    values come from the factor grid's blocks, not from the joint batch,
    and batched matrix products may round those differently: `X @ A.T`
    can round a row differently alone than inside a batch of another
    size, and differently in a Fortran-ordered batch than in a C-ordered
    one. (b) Where one factor's residuals differ by less than an ulp of
    the joint sum of squares, the joint scan sees a tie and breaks it by
    norm; the per-factor search does not. `residual` and `norm` are
    computed at the chosen point by the joint scan's expression.
    """

    def __init__(self, T, box, step):
        box = _box(box, T.dim_in)
        self.T = T
        self.factors, start = [], 0
        for part in T.factors:
            self.factors.append(Grid(part, box[start:start + part.dim_in], step))
            start += part.dim_in

    def query(self, w):
        w = _target(w, self.T.dim_out)
        index, v, value, start = 0, [], [], 0
        for f in self.factors:
            stop = start + f.T.dim_out
            _, _, (j,), _, (fv,) = f.scan([w[start:stop]])
            index = index * math.prod(map(len, f.axes)) + int(j)
            v.append(f.point(j))
            value.append(fv)
            start = stop
        v = np.concatenate(v)
        residual = _residuals(np.concatenate(value)[None, :], w)[0]
        return OracleBest(v, float(residual),
                          float(np.linalg.norm(v[None, :], axis=1)[0]), index)


def grid_bas_oracle(T, w, box, step):
    """One-shot oracle call; see GridOracle. The target is checked before
    any grid is built."""
    w = _target(w, T.dim_out)
    return GridOracle(T, box, step).query(w)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass
class PseudoInverseReport:
    w: np.ndarray
    v: np.ndarray
    residual: float            # ||T(v) - w||
    norm: float                # ||v||
    mp1_residual: float
    mp2_residual: float
    bas_ok: bool
    mp2_ok: bool
    residual_gap: float        # see check_pseudo_inverse
    norm_gap: float


RES_SLACK = 1e-9      # residual tolerance of the BAS certificate
MP2_TOL = 1e-9


def check_pseudo_inverse(T, G, samples, box, step):
    """Verify a candidate inverse G of T against axioms and the grid oracle.

    For each sample w: MP1 residual ||T G T(v) - T(v)|| at v = G(w), MP2
    residual ||G T G(w) - G(w)|| (mp2_ok: at most MP2_TOL), and the BAS
    certificate against the points p of the box grid `Grid(T, box, step)`:
    residual_gap is ||T(v) - w|| minus the least ||T(p) - w||, and
    norm_gap is ||v|| minus the least ||p|| among the p with ||T(p) - w||
    <= ||T(v) - w|| + RES_SLACK (-inf: there is none). bas_ok unless
    residual_gap exceeds RES_SLACK or norm_gap two grid diagonals,
    2 * step * sqrt(dim).

    G and T are applied to all samples in one batch each, four calls in
    all. Then one `Grid.scan` with those bounds reads the grid a block at
    a time, T applied to each block once; MAX_GRID_POINTS bounds its
    time. A row of a batch has its single-point bits for the scalar
    kinds, the projections and their products, but not for every
    operator: a matrix or layer operator may round a row differently in
    a block, in the sample batch or alone; see GridOracle's (a).
    """
    norm_slack = 2.0 * step * np.sqrt(T.dim_in)
    grid = Grid(T, box, step)
    W = np.asarray(samples, dtype=float)
    if W.ndim == 1:                               # scalar samples of a 1-D target
        W = W[:, None] if len(W) else W.reshape(0, G.dim_in)
    targets = [_target(w, T.dim_out) for w in W]
    V = G.apply_batch(W)
    TV = T.apply_batch(V)
    GTV = G.apply_batch(TV)
    TGTV = T.apply_batch(GTV)
    residual = [float(np.linalg.norm(Tv - w)) for w, Tv in zip(W, TV)]
    least_res, least_norm, _, _, _ = grid.scan(targets, [r + RES_SLACK for r in residual])
    reports = []
    for i, (w, v, gtv) in enumerate(zip(W, V, GTV)):
        norm = float(np.linalg.norm(v))
        mp1 = float(np.linalg.norm(TGTV[i] - TV[i]))
        mp2 = float(np.linalg.norm(gtv - v))
        residual_gap = residual[i] - float(least_res[i])
        norm_gap = norm - float(least_norm[i])          # -inf: no point within the bound
        bas_ok = residual_gap <= RES_SLACK and norm_gap <= norm_slack
        reports.append(PseudoInverseReport(w, v, residual[i], norm, mp1, mp2,
                                           bool(bas_ok), bool(mp2 <= MP2_TOL),
                                           residual_gap, norm_gap))
    return reports


# ---------------------------------------------------------------------------
# expanding-domain limit
# ---------------------------------------------------------------------------

@dataclass
class ExpandingDomainResult:
    value: np.ndarray          # stabilized value, or None
    stabilized: bool
    history: list = field(default_factory=list)


def expanding_domain_pinv(T, w, radius_schedule, stabilization_window, step):
    """Grid pseudo-inverse restricted to balls B(0, r) over growing radii.

    The search box is the cube [-r, r]^dim intersected with the ball; its
    BAS point is `Grid.scan` at the least residual with radius r. Reports the value
    once it repeats, within 2*step per coordinate, across
    `stabilization_window` consecutive radii.
    """
    radii = list(radius_schedule)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if stabilization_window < 2:
        raise ValueError("stabilization window must be at least 2")
    w = _target(w, T.dim_out)
    dim = T.dim_in
    history = []
    for r in radii:
        grid = Grid(T, [(-r, r)] * dim, step)
        _, _, (j,), _, _ = grid.scan([w], radius=r)
        history.append(grid.point(j))
        k = stabilization_window
        if len(history) >= k:
            run = history[-k:]
            if all(np.max(np.abs(u - run[0])) <= 2.0 * step for u in run):
                return ExpandingDomainResult(run[-1], True, history)
    return ExpandingDomainResult(None, False, history)


# ---------------------------------------------------------------------------
# finite-point models (for exact counterexamples)
# ---------------------------------------------------------------------------

FINITE_TIE_TOL = 1e-12


def finite_bas_set(points, values, w):
    """Indices of BAS-admissible points for target w on a finite model.

    points: (N, dV) candidate inputs; values: (N, dW) their images under T.
    Returns every index whose residual ties the minimum within
    FINITE_TIE_TOL and whose norm ties the minimal norm among those within
    FINITE_TIE_TOL.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    res = np.linalg.norm(values - as_vector(w, values.shape[1])[None, :], axis=1)
    cand = np.flatnonzero(res <= res.min() + FINITE_TIE_TOL)
    norms = np.linalg.norm(points[cand], axis=1)
    return cand[norms <= norms.min() + FINITE_TIE_TOL]
