"""Best-approximate-solution (BAS) pseudo-inverses.

A pseudo-inverse G of T must satisfy BAS -- G(w) minimizes ||T(v) - w||
and, among minimizers, has minimal ||v|| -- together with MP2. This module
describes each named one-dimensional operator kind once (`_KINDS`: its
map, its closed form on whole arrays, the interval where that is defined
and whether it is unique), read by `pinv_table`; a grid search oracle
realizing BAS directly, report-producing verifiers, and the
expanding-domain limit construction.

Closed forms return "undefined at w" as a value (not an error) wherever
the nearest-point problem has no solution, e.g. exp at w <= 0.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core_ops import VectorOperator, DimensionMismatch


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
    """Tagged real function: kind plus parameters, evaluable and invertible."""

    kind: str
    a: float = 0.0
    eps: float = 1.0
    c: float = 1.0
    fn: object = None

    def __post_init__(self):
        kind = KIND_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ValueError("unknown operator kind %r" % (self.kind,))
        if kind in ("hard_threshold", "soft_threshold") and self.a < 0:
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


def _axis(lo, hi, step):
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError("box axis must be a finite interval")
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


@dataclass
class OracleBest:
    v: np.ndarray
    residual: float
    norm: float
    index: int


def _residuals(values, w):
    """||values[i] - w|| for every row of an (N, d) array.

    Below 8 columns the squares are summed column by column, which gives
    the bits of np.linalg.norm(values - w, axis=1) on C-ordered rows and
    streams each column once when `values` is Fortran-ordered. numpy sums
    longer rows pairwise, so those go to it as C-ordered rows.
    """
    d = values.shape[1]
    if not 0 < d < 8:
        return np.linalg.norm(np.ascontiguousarray(values) - w[None, :], axis=1)
    diff = values[:, 0] - w[0]
    sq = diff * diff
    for k in range(1, d):
        diff = values[:, k] - w[k]
        sq += diff * diff
    return np.sqrt(sq)


class _Grid:
    """A box grid in row-major order, with T and the norm at every point."""

    def __init__(self, T, axes):
        total = int(np.prod([len(ax) for ax in axes], dtype=object))
        if total > MAX_GRID_POINTS:
            raise ValueError("grid of %d points is too large" % total)
        mesh = np.meshgrid(*axes, indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=1)
        self.values = T.apply_batch(self.points)
        self.norms = np.linalg.norm(self.points, axis=1)

    @cached_property
    def _columns(self):
        if self.values.shape[1] < 8:
            return np.asfortranarray(self.values)
        return self.values

    def residuals(self, w):
        """||T(p) - w|| at every grid point p, in one scan of the values."""
        return _residuals(self._columns, w)

    def best(self, w, tie_tol=0.0):
        """Index of the least residual (within tie_tol), then the least
        norm, then the first in grid order; and the residual array."""
        res = self.residuals(w)
        tie = np.flatnonzero(res <= res.min() + tie_tol)
        return tie[np.argmin(self.norms[tie])], res

    def min_norm(self, res, res_bound):
        """Smallest norm among the points whose residual in `res` is <= res_bound."""
        hit = res <= res_bound
        if not hit.any():
            return np.inf
        return float(self.norms[hit].min())


class GridOracle:
    """Exhaustive BAS search over a fixed box grid.

    `query` minimizes the residual, breaking ties by smaller norm and then
    by lexicographic (row-major) grid order. A positive `tie_tol` widens
    the residual tie group before the norm tie-break; the default 0.0 is
    the exact deterministic rule.

    The oracle holds one grid per factor of T (`T.factors`: the parts of a
    componentwise product, or T itself) with T's part evaluated on it.
    The residual and the norm of a product are both sums of squares over
    its factors, so the exact BAS rule picks each factor's point on its
    own: `query` with tie_tol 0 searches d grids of n points in place of
    one of n^d. A positive tie_tol, `min_norm_within` and the `points`,
    `values` and `norms` arrays read the joint grid, built on first use;
    MAX_GRID_POINTS bounds each factor grid at construction and the joint
    grid when it is built.

    In floats the per-factor answer can differ from a scan of the joint
    grid in two ways. (a) Where a factor has several coordinates, its
    values come from the factor grid, not from the joint batch, and
    batched matrix products may round those differently. (b) Where one
    factor's residuals differ by less than an ulp of the joint sum of
    squares, the joint scan sees a tie and breaks it by norm; the
    per-factor search does not. `residual` and `norm` are computed at the
    chosen point by the joint scan's expression.
    """

    def __init__(self, T, box, step):
        if step <= 0:
            raise ValueError("step must be positive")
        box = list(box)
        if len(box) == 2 and np.isscalar(box[0]):
            box = [tuple(box)]
        if len(box) != T.dim_in:
            raise DimensionMismatch("box must give one interval per input axis")
        self.T = T
        self.axes = [_axis(lo, hi, step) for lo, hi in box]
        self.factors, start = [], 0
        for part in T.factors:
            self.factors.append(_Grid(part, self.axes[start:start + part.dim_in]))
            start += part.dim_in
        self.step = step

    @cached_property
    def grid(self):
        """The joint grid; the one factor's grid when T is not a product."""
        if len(self.factors) == 1:
            return self.factors[0]
        return _Grid(self.T, self.axes)

    @property
    def points(self):
        return self.grid.points

    @property
    def values(self):
        return self.grid.values

    @property
    def norms(self):
        return self.grid.norms

    def _target(self, w):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if w.shape != (self.T.dim_out,):
            raise DimensionMismatch("target of dim %d expected" % self.T.dim_out)
        return w

    def query(self, w, tie_tol=0.0):
        w = self._target(w)
        if tie_tol < 0:
            raise ValueError("tie_tol must be non-negative")
        if tie_tol > 0:
            j, res = self.grid.best(w, tie_tol)
            return OracleBest(self.points[j].copy(), float(res[j]),
                              float(self.norms[j]), int(j))
        index, v, value, start = 0, [], [], 0
        for f in self.factors:
            stop = start + f.values.shape[1]
            j, _ = f.best(w[start:stop])
            index = index * len(f.points) + int(j)
            v.append(f.points[j])
            value.append(f.values[j])
            start = stop
        v = np.concatenate(v)
        residual = _residuals(np.concatenate(value)[None, :], w)[0]
        return OracleBest(v, float(residual),
                          float(np.linalg.norm(v[None, :], axis=1)[0]), index)

    def min_norm_within(self, w, res_bound):
        """Smallest grid-point norm among points with residual <= res_bound."""
        return self.grid.min_norm(self.grid.residuals(self._target(w)), res_bound)


def grid_bas_oracle(T, w, box, step, tie_tol=0.0):
    """One-shot oracle call; see GridOracle."""
    return GridOracle(T, box, step).query(w, tie_tol=tie_tol)


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
    residual_gap: float        # residual - oracle best residual
    norm_gap: float            # norm - min oracle norm within the tie group


def check_pseudo_inverse(T, G, samples, box, step, res_slack=1e-9,
                         norm_slack=None, mp2_tol=1e-9, oracle=None):
    """Verify a candidate inverse G of T against axioms and the grid oracle.

    For each sample w: MP1 residual ||T G T(v) - T(v)|| at v = G(w), MP2
    residual ||G T G(w) - G(w)||, and a BAS certificate -- the candidate may
    not be beaten by any grid point by more than `res_slack` in residual,
    nor by more than `norm_slack` in norm among near-ties.
    """
    if oracle is None:
        oracle = GridOracle(T, box, step)
    if norm_slack is None:
        norm_slack = 2.0 * step * np.sqrt(T.dim_in)
    grid = oracle.grid
    reports = []
    for w in samples:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        v = G.apply(w)
        Tv = T.apply(v)
        residual = float(np.linalg.norm(Tv - w))
        norm = float(np.linalg.norm(v))
        gtv = G.apply(Tv)
        mp1 = float(np.linalg.norm(T.apply(gtv) - Tv))
        mp2 = float(np.linalg.norm(gtv - v))
        res = grid.residuals(w)                 # one scan serves both bounds
        best_residual = float(res.min())
        tie_norm = grid.min_norm(res, max(residual, best_residual) + res_slack)
        residual_gap = residual - best_residual
        norm_gap = norm - tie_norm
        bas_ok = residual_gap <= res_slack and norm_gap <= norm_slack
        reports.append(PseudoInverseReport(w, v, residual, norm, mp1, mp2,
                                           bool(bas_ok), bool(mp2 <= mp2_tol),
                                           float(residual_gap), float(norm_gap)))
    return reports


# ---------------------------------------------------------------------------
# expanding-domain limit
# ---------------------------------------------------------------------------

@dataclass
class ExpandingDomainResult:
    value: np.ndarray          # stabilized value, or None
    stabilized: bool
    history: list = field(default_factory=list)


def expanding_domain_pinv(T, w, radius_schedule, stabilization_window, step,
                          tie_tol=0.0):
    """Grid pseudo-inverse restricted to balls B(0, r) over growing radii.

    The search box is the cube [-r, r]^dim intersected with the ball.
    Reports the value once it repeats, within 2*step per coordinate,
    across `stabilization_window` consecutive radii.
    """
    radii = list(radius_schedule)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if stabilization_window < 2:
        raise ValueError("stabilization window must be at least 2")
    dim = T.dim_in
    history = []
    for r in radii:
        oracle = GridOracle(T, [(-r, r)] * dim, step)
        inside = oracle.norms <= r + 1e-12
        res = np.linalg.norm(oracle.values - np.atleast_1d(w)[None, :], axis=1)
        res = np.where(inside, res, np.inf)
        rmin = res.min()
        tie = np.flatnonzero(res <= rmin + tie_tol)
        j = tie[np.argmin(oracle.norms[tie])]
        history.append(oracle.points[j].copy())
        k = stabilization_window
        if len(history) >= k:
            run = history[-k:]
            if all(np.max(np.abs(u - run[0])) <= 2.0 * step for u in run):
                return ExpandingDomainResult(run[-1], True, history)
    return ExpandingDomainResult(None, False, history)


# ---------------------------------------------------------------------------
# finite-point models (for exact counterexamples)
# ---------------------------------------------------------------------------

def finite_bas_set(points, values, w, tol=1e-12):
    """Indices of BAS-admissible points for target w on a finite model.

    points: (N, dV) candidate inputs; values: (N, dW) their images under T.
    Returns every index whose residual ties the minimum within tol and
    whose norm ties the minimal norm among those within tol.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    res = np.linalg.norm(values - w[None, :], axis=1)
    cand = np.flatnonzero(res <= res.min() + tol)
    norms = np.linalg.norm(points[cand], axis=1)
    return cand[norms <= norms.min() + tol]
