"""Best-approximate-solution (BAS) pseudo-inverses.

A pseudo-inverse G of T must satisfy BAS -- G(w) minimizes ||T(v) - w||
and, among minimizers, has minimal ||v|| -- together with MP2. This module
holds the closed forms for the named one-dimensional operators, evaluated
on whole arrays by one table (`pinv_table`), a grid search oracle
realizing BAS directly, report-producing verifiers, and the
expanding-domain limit construction.

Closed forms return "undefined at w" as a value (not an error) wherever
the nearest-point problem has no solution, e.g. exp at w <= 0.
"""

from dataclasses import dataclass, field

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

KINDS = ("square", "shifted_square", "relu", "hard_threshold", "soft_threshold",
         "tanh", "sign", "sign_eps", "exp", "sine", "linear", "custom")

# kinds whose pseudo-inverse is unique wherever defined
UNIQUE_KINDS = frozenset(KINDS) - {"square", "custom"}


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
        v = np.asarray(v, dtype=float)
        k, a = self.kind, self.a
        if k == "square":
            return v * v
        if k == "shifted_square":
            return (v - a) ** 2
        if k == "relu":
            return np.maximum(v, 0.0)
        if k == "hard_threshold":
            return v * (np.abs(v) >= a)
        if k == "soft_threshold":
            return np.sign(v) * np.maximum(np.abs(v) - a, 0.0)
        if k == "tanh":
            return np.tanh(v)
        if k == "sign":
            return np.sign(v)
        if k == "sign_eps":
            return np.clip(v / self.eps, -1.0, 1.0)
        if k == "exp":
            return np.exp(v)
        if k == "sine":
            return np.sin(v)
        if k == "linear":
            return self.c * v
        return np.asarray(self.fn(v), dtype=float)

    def __call__(self, v):
        return self.forward(v)

    def as_vector_operator(self):
        return VectorOperator.from_scalar(self.forward, name=self.kind)

    def pinv_domain(self):
        """Interval (lo, hi, closed) on which the closed form is defined."""
        if self.kind == "tanh":
            return (-1.0, 1.0, False)
        if self.kind == "sign":
            return (-0.5, 0.5, True)
        if self.kind == "exp":
            return (0.0, np.inf, False)
        return (-np.inf, np.inf, True)


@dataclass(frozen=True)
class Pinv1D:
    """Closed-form pseudo-inverse value(s) at one target.

    defined=False means "undefined at w". `values` carries both signs for
    the square kind (its pseudo-inverse is not unique); otherwise a single
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


def _nonneg(w):
    """max(w, 0) per entry; like Python's max it keeps -0.0 and NaN."""
    return np.where(w < 0.0, 0.0, w)


def pinv_table(op, w):
    """Closed-form pseudo-inverse of `op` at every target in the array w.

    Returns (values, defined), both shaped like w. Where the nearest-point
    problem has no solution, defined is False and the value is NaN. For
    the square kind, values holds the nonnegative root; the other root is
    its negation.
    """
    w = np.asarray(w, dtype=float)
    k, a = op.kind, op.a
    undefined = None
    # log(0) and arctanh(+-1) at undefined targets are masked below, and
    # overflow to +-inf is the value the float formula gives: no warnings
    with np.errstate(all="ignore"):
        if k == "square":
            v = np.sqrt(_nonneg(w))
        elif k == "shifted_square":
            v = a - np.sign(a) * np.sqrt(_nonneg(w))
        elif k == "relu":
            v = _nonneg(w)
        elif k == "hard_threshold":
            aw = np.abs(w)
            v = np.sign(w) * (aw > a / 2.0) * np.where(aw > a, aw, a)
        elif k == "soft_threshold":
            v = np.sign(w) * (np.abs(w) + a)
        elif k == "tanh":
            undefined = np.abs(w) >= 1.0
            v = np.arctanh(w)
        elif k == "sign":
            undefined = np.abs(w) > 0.5
            v = np.zeros_like(w)
        elif k == "sign_eps":
            v = op.eps * np.clip(w, -1.0, 1.0)
        elif k == "exp":
            undefined = w <= 0.0
            v = np.log(w)
        elif k == "sine":
            v = np.arcsin(np.clip(w, -1.0, 1.0))
        elif k == "linear":
            v = np.zeros_like(w) if op.c == 0.0 else w / op.c
        else:
            raise ValueError("no closed form for kind %r" % (k,))
    if undefined is None:
        return np.asarray(v, dtype=float), np.ones(w.shape, dtype=bool)
    return np.where(undefined, np.nan, v), ~undefined


def closed_form_pinv(op, w):
    """Table closed form for one scalar target w."""
    values, defined = pinv_table(op, np.array([float(w)]))
    if not defined[0]:
        return UNDEFINED
    v = float(values[0])
    if op.kind == "square":
        return Pinv1D(True, (0.0,) if v == 0.0 else (-v, v))
    return Pinv1D(True, (v,))


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


class GridOracle:
    """Exhaustive BAS search over a fixed box grid.

    Precomputes T on every grid point, so repeated targets are cheap.
    `query` minimizes the residual, breaking ties by smaller norm and then
    by lexicographic (row-major) grid order. A positive `tie_tol` widens
    the residual tie group before the norm tie-break; the default 0.0 is
    the exact deterministic rule.
    """

    def __init__(self, T, box, step):
        if step <= 0:
            raise ValueError("step must be positive")
        box = list(box)
        if len(box) == 2 and np.isscalar(box[0]):
            box = [tuple(box)]
        if len(box) != T.dim_in:
            raise DimensionMismatch("box must give one interval per input axis")
        axes = [_axis(lo, hi, step) for lo, hi in box]
        sizes = [len(ax) for ax in axes]
        total = int(np.prod(sizes))
        if total == 0:
            raise ValueError("empty grid")
        if total > MAX_GRID_POINTS:
            raise ValueError("grid of %d points is too large" % total)
        mesh = np.meshgrid(*axes, indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=1)
        self.values = T.apply_batch(self.points)
        self.norms = np.linalg.norm(self.points, axis=1)
        self.step = step

    def query(self, w, tie_tol=0.0):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        res = np.linalg.norm(self.values - w[None, :], axis=1)
        rmin = res.min()
        tie = np.flatnonzero(res <= rmin + tie_tol)
        j = tie[np.argmin(self.norms[tie])]
        return OracleBest(self.points[j].copy(), float(res[j]),
                          float(self.norms[j]), int(j))

    def min_norm_within(self, w, res_bound):
        """Smallest grid-point norm among points with residual <= res_bound."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        res = np.linalg.norm(self.values - w[None, :], axis=1)
        hit = res <= res_bound
        if not hit.any():
            return np.inf
        return float(self.norms[hit].min())


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
        best = oracle.query(w)
        tie_norm = oracle.min_norm_within(w, max(residual, best.residual) + res_slack)
        residual_gap = residual - best.residual
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
