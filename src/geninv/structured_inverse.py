"""Convex projections and compositional pseudo-inverse combinators.

Covers metric projections onto boxes, balls, halfspaces, and intersections
(via Dykstra's alternating projections), the nested-cascade pseudo-inverse,
componentwise product inverses, bijection sandwiches with the affine
special case, and the recursive inverse of "projection after operator".
"""

from dataclasses import dataclass

import numpy as np

from .core_ops import VectorOperator, DimensionMismatch, as_vector
from .numerics import json_object
from .pseudo_inverse import Grid, _row_norms, _row_sum

DYKSTRA_TOL = 1e-10
DYKSTRA_CAP = 10_000
SPOT_CHECK_TOL = 1e-8      # membership, nesting, axiom and round-trip spot checks
SECANT_FLOOR = 1e-3        # Anderson's secant, relative to max|f|, below which gamma is 0


class ConvexSet:
    """Base for nonempty closed convex sets with an exact or iterative projection.

    `project_batch` projects the rows of an (N, dim) batch. Box, L2Ball and
    Halfspace return their input's memory order and broadcast along the
    long axis; each row gets the bits of its single-point projection.
    """

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)

    def project_batch(self, X):
        raise NotImplementedError

    def project(self, x):
        return self.project_batch(as_vector(x, self.dim)[None, :])[0]

    def contains(self, x, tol=1e-9):
        """||P_C(x) - x|| <= tol; DimensionMismatch for a point of another dim."""
        x = as_vector(x, self.dim)
        return bool(np.linalg.norm(self.project(x) - x) <= tol)

    def as_operator(self):
        return VectorOperator(self.dim, self.dim, self.project_batch,
                              name="P_" + self.kind)


class Box(ConvexSet):
    kind = "box"

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D of equal length")
        # False for a NaN bound too; lo = hi = +inf (or -inf) holds no point
        if not ((lo <= hi) & (lo < np.inf) & (hi > -np.inf)).all():
            raise ValueError("empty box: lo > hi, lo = +inf, hi = -inf or a NaN bound")
        super().__init__(len(lo))
        self.lo, self.hi = lo, hi

    def project_batch(self, X):
        out = np.maximum(X, self.lo)
        return np.minimum(out, self.hi, out=out)

    def to_json(self):
        return {"kind": "box", "lo": list(self.lo), "hi": list(self.hi)}


class L2Ball(ConvexSet):
    kind = "l2_ball"

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        if not np.isfinite(center).all():
            raise ValueError("ball center must be finite")
        if not radius >= 0:                       # False for a NaN radius too
            raise ValueError("empty ball: negative or NaN radius")
        super().__init__(len(center))
        self.center, self.radius = center, float(radius)

    def project_batch(self, X):
        out = np.asarray(X, dtype=float) - self.center
        n = _row_norms(out)
        scale = np.ones(len(n))
        np.divide(self.radius, n, out=scale, where=n > self.radius)
        out *= scale[:, None]
        out += self.center
        return out

    def to_json(self):
        return {"kind": "l2_ball", "center": list(self.center),
                "radius": self.radius}


class Halfspace(ConvexSet):
    """{x : normal . x <= offset}. The projection scales both by the power
    of two that puts the largest |normal entry| in [1, 2), so normal @ normal
    stays in the float range; the scaling is exact and changes no bits."""

    kind = "halfspace"

    def __init__(self, normal, offset):
        normal, offset = np.asarray(normal, dtype=float), float(offset)
        if not (np.isfinite(normal).all() and (normal != 0).any()):
            raise ValueError("halfspace needs a finite nonzero normal")
        if not offset > -np.inf:                  # False for a NaN offset too
            raise ValueError("halfspace offset must not be -inf or NaN")
        super().__init__(len(normal))
        self.normal, self.offset = normal, offset
        shift = 1 - np.frexp(np.abs(normal).max())[1]
        self._normal, self._offset = np.ldexp(normal, shift), np.ldexp(offset, shift)
        self._norm2 = self._normal @ self._normal

    def project_batch(self, X):
        # the row rule of _row_sum, not X @ normal: BLAS rounds a row by its
        # place in the batch and by the batch's memory order
        X = np.asarray(X, dtype=float)
        excess = np.maximum(_row_sum(np.multiply, X, self._normal) - self._offset, 0.0)
        out = np.multiply((excess / self._norm2)[:, None], self._normal,
                          out=np.empty_like(X))
        return np.subtract(X, out, out=out)

    def to_json(self):
        return {"kind": "halfspace", "normal": list(self.normal),
                "offset": self.offset}


def _part_sum(c):
    """Sum of a rows x parts x dim stack over its parts, first part first,
    so that every row gets the same rounding whatever the batch around it."""
    total = c[:, 0]
    for i in range(1, c.shape[1]):
        total = total + c[:, i]
    return total


class Intersection(ConvexSet):
    """Intersection of listed sets, projected by Dykstra's algorithm with a
    safeguarded Anderson extrapolation of depth one.

    Nonemptiness is certified by a feasible point supplied at construction.
    A point's state is its corrections c, one per part, with x = y - sum(c).
    One plain Dykstra sweep G(c) sets x = y - sum(c) and, part by part,
    projects z = x + c_i to x and sets c_i = z - x. A point settles when the
    plain sweep from its c moves no correction by more than DYKSTRA_TOL and
    returns that sweep's x; the iterate alone can stand still for several
    sweeps while the corrections still change (Birgin & Raydan, "Robust
    stopping criteria for Dykstra's algorithm", 2005). Otherwise the next
    state is G(c) - gamma (G(c) - G_prev), where gamma minimises the norm of
    f - gamma (f - f_prev) for the residuals f = G(c) - c of this sweep and
    the last (Walker & Ni, "Anderson acceleration for fixed-point
    iterations", 2011); gamma is 0 with no history or when f - f_prev is
    small next to f. An extrapolated step is kept only if its
    residual max|f| is at most 0.9 times the least residual the point has
    had; otherwise the point drops the step, restarts from its last plain
    result G_prev and forgets its history. A point thus takes finitely many
    extrapolated steps and between them follows plain Dykstra, which
    converges from any corrections. All arithmetic is per point, with sums
    in a fixed order, and only points that have not settled are swept
    again, so each row of a batch gets the bits of its own single-point
    projection. A point that has not settled after DYKSTRA_CAP sweeps
    raises ArithmeticError instead of returning its last iterate.

    Box parts are merged into one Box, with the largest lower and the least
    upper bounds, at the first box's place in `parts`: with two boxes whose
    faces nearly coincide, the corrections trade mass between those faces
    sweep after sweep while x stands still, and the cap is reached.
    """

    kind = "intersection"

    def __init__(self, parts, feasible_point):
        parts = list(parts)
        if not parts:
            raise ValueError("intersection needs at least one part")
        dim = parts[0].dim
        if any(p.dim != dim for p in parts):
            raise DimensionMismatch("all parts must share one dimension")
        feasible_point = np.asarray(feasible_point, dtype=float)
        for p in parts:
            if not p.contains(feasible_point, tol=SPOT_CHECK_TOL):
                raise ValueError("feasible point is not inside every part")
        boxes = [p for p in parts if isinstance(p, Box)]
        if len(boxes) > 1:                      # one Box, at the first box's place
            merged = Box(np.max([b.lo for b in boxes], axis=0),
                         np.min([b.hi for b in boxes], axis=0))
            parts = [merged if p is boxes[0] else p for p in parts
                     if p is boxes[0] or not isinstance(p, Box)]
        super().__init__(dim)
        self.parts = parts
        self.feasible_point = feasible_point

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        out = X.copy()
        rows = np.arange(len(X))                # the points still sweeping
        y = X
        c = np.zeros((len(X), len(self.parts), self.dim))   # rows x parts x dim
        g_prev = f_prev = c
        fresh = np.ones(len(X), dtype=bool)     # no earlier sweep to extrapolate from
        gamma = np.zeros(len(X))                # of the step that made c; 0 if plain
        res_best = np.full(len(X), np.inf)      # least residual seen for the point
        for _ in range(DYKSTRA_CAP):
            x = y - _part_sum(c)
            g = np.empty_like(c)
            for i, p in enumerate(self.parts):
                z = x + c[:, i]
                x = p.project_batch(z)
                g[:, i] = z - x
            f = g - c
            res = np.abs(f).max(axis=(1, 2))
            settled = res <= DYKSTRA_TOL
            # an extrapolated step must cut the least residual seen by 10 %;
            # so a point takes finitely many, and follows plain Dykstra between
            back = (gamma != 0) & (res > 0.9 * res_best)
            res_best = np.minimum(res_best, res)
            df = f - f_prev
            den = (df * df).sum(axis=(1, 2))
            gamma = np.zeros(len(rows))
            # gamma stays 0 where |df| <= SECANT_FLOOR max|f|: so flat a secant is
            # rounding noise or a drift, and its |gamma| >~ 1e3 throws c far
            # off; a linear rate that slow could not settle within the cap
            np.divide((df * f).sum(axis=(1, 2)), den, out=gamma,
                      where=~fresh & (den > (SECANT_FLOOR * res) ** 2))
            c = g - gamma[:, None, None] * (g - g_prev)
            if back.any():                      # drop the step, restart from G_prev
                c[back] = g_prev[back]
                gamma[back] = 0.0
            g_prev, f_prev, fresh = g, f, back
            if settled.any():
                out[rows[settled]] = x[settled]
                keep = ~settled
                rows, y, c, g_prev, f_prev, fresh, gamma, res_best = (
                    a[keep] for a in (rows, y, c, g_prev, f_prev, fresh, gamma, res_best))
            if not len(rows):
                return out
        raise ArithmeticError("Dykstra projection: %d of %d points did not settle to %g "
                              "within %d sweeps" % (len(rows), len(X), DYKSTRA_TOL,
                                                    DYKSTRA_CAP))

    def to_json(self):
        return {"kind": "intersection",
                "parts": [p.to_json() for p in self.parts],
                "feasible_point": list(self.feasible_point)}


def project(C, x):
    """Metric projection of a single point onto C."""
    return C.project(x)


def convex_set_from_json(obj):
    kind = json_object(obj, "convex set")["kind"]
    if kind == "box":
        return Box(obj["lo"], obj["hi"])
    if kind == "l2_ball":
        return L2Ball(obj["center"], obj["radius"])
    if kind == "halfspace":
        return Halfspace(obj["normal"], obj["offset"])
    if kind == "intersection":
        return Intersection([convex_set_from_json(p) for p in obj["parts"]],
                            obj["feasible_point"])
    raise ValueError("unknown convex set kind %r" % (kind,))


# ---------------------------------------------------------------------------
# projection cascade
# ---------------------------------------------------------------------------

@dataclass
class CascadeResult:
    pseudo_inverse: VectorOperator    # projection onto the innermost set
    cascade: VectorOperator           # P_Cn o ... o P_C1
    innermost: ConvexSet


def cascade_pinv(sets):
    """Pseudo-inverse of a cascade of projections onto nested sets.

    sets are ordered outermost first (C1 contains C2 contains ... Cn with
    0 in Cn). Nesting is verified on 64 seeded random probes in [-5, 5]^dim:
    projecting any probe onto an inner set must land within SPOT_CHECK_TOL
    of every outer set. The pseudo-inverse of P_Cn o ... o P_C1 is P_Cn
    itself.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("cascade needs at least one set")
    dim = sets[0].dim
    inner = sets[-1]
    if not inner.contains(np.zeros(dim), tol=SPOT_CHECK_TOL):
        raise ValueError("innermost set must contain the origin")
    check_points = np.random.default_rng(0).uniform(-5, 5, size=(64, dim))
    for outer, inner_set in zip(sets, sets[1:]):
        onto_inner = inner_set.project_batch(check_points)
        back = outer.project_batch(onto_inner)
        if np.max(np.linalg.norm(back - onto_inner, axis=1)) > SPOT_CHECK_TOL:
            raise ValueError("nesting violated: %s does not contain %s on probes"
                             % (outer.kind, inner_set.kind))

    cascade = sets[0].as_operator()
    for s in sets[1:]:
        cascade = s.as_operator().compose(cascade)
    return CascadeResult(inner.as_operator(), cascade, inner)


# ---------------------------------------------------------------------------
# product and sandwich combinators
# ---------------------------------------------------------------------------

def _axiom_spot_check(T, G, samples):
    """"MP1" if some sample fails MP1, else "MP2" if some sample fails MP2,
    else None; G and T are applied to all samples in one batch each."""
    V = G.apply_batch(samples)
    TV = T.apply_batch(V)
    GTV = G.apply_batch(TV)
    if (np.linalg.norm(T.apply_batch(GTV) - TV, axis=1) > SPOT_CHECK_TOL).any():
        return "MP1"
    if (np.linalg.norm(GTV - V, axis=1) > SPOT_CHECK_TOL).any():
        return "MP2"
    return None


def product_operator(ops):
    """Componentwise operator on the direct product of the parts' spaces.

    The result records its parts as `factors`; parts that are products
    themselves are flattened into theirs. Each part's output is written
    into its columns of one output array in the batch's memory order, so
    a Fortran-ordered batch gives Fortran-ordered values.
    """
    ops = [f for op in ops for f in op.factors]
    din = [op.dim_in for op in ops]
    dout = [op.dim_out for op in ops]
    in_ofs = np.cumsum([0] + din)
    out_ofs = np.cumsum([0] + dout)

    def f(batch):
        outs = [op.fn(batch[:, in_ofs[i]:in_ofs[i + 1]]) for i, op in enumerate(ops)]
        out = np.empty((len(batch), out_ofs[-1]), dtype=np.result_type(*outs),
                       order="F" if np.isfortran(batch) else "C")
        for i, part in enumerate(outs):
            out[:, out_ofs[i]:out_ofs[i + 1]] = part
        return out

    T = VectorOperator(int(in_ofs[-1]), int(out_ofs[-1]), f, name="product")
    T._factors = tuple(ops)
    return T


def product_inverse(parts):
    """Componentwise inverse of a product operator.

    parts: list of (T_i, G_i). Each G_i must pass an MP1/MP2 spot check,
    within SPOT_CHECK_TOL, on 16 seeded random targets in [-2, 2]^dim of
    its own, otherwise the product is rejected. Returns (product_T,
    product_G).
    """
    parts = list(parts)
    for i, (T, G) in enumerate(parts):
        samples = np.random.default_rng(100 + i).uniform(-2, 2, size=(16, T.dim_out))
        bad = _axiom_spot_check(T, G, samples)
        if bad is not None:
            raise ValueError("component %d fails %s; product rejected" % (i, bad))
    Tprod = product_operator([T for T, _ in parts])
    Gprod = product_operator([G for _, G in parts])
    return Tprod, Gprod


def sandwich_inverse(s1, s1_inv, T, s2, s2_inv, G):
    """Inverse of S1 T S2 from an inverse of T: returns S2^-1 G S1^-1.

    s1/s1_inv and s2/s2_inv must be actual inverse pairs; round trips are
    spot-checked, within SPOT_CHECK_TOL, on 16 seeded random points in
    [-2, 2]^dim and the call is rejected on failure. The pseudo-inverse
    property additionally needs a*S1 isometric for some a != 0 and S2^-1
    norm-monotone, which the caller asserts.
    """
    samples = np.random.default_rng(7).uniform(-2, 2, size=(16, max(s1.dim_in, s2.dim_in)))
    for name, s, s_inv in (("s1_inv", s1, s1_inv), ("s2_inv", s2, s2_inv)):
        X = samples[:, :s.dim_in]
        if (np.linalg.norm(s_inv.apply_batch(s.apply_batch(X)) - X, axis=1)
                > SPOT_CHECK_TOL).any():
            raise ValueError("%s fails the round-trip check" % name)
    return s2_inv.compose(G).compose(s1_inv)


def affine_pinv(G, a, b, w0):
    """Pseudo-inverse of v -> a T(b v) + w0 given a pseudo-inverse G of T."""
    if a == 0 or b == 0:
        raise ValueError("affine sandwich needs nonzero scalars")
    w0 = as_vector(w0, G.dim_in)
    return VectorOperator(G.dim_in, G.dim_out,
                          lambda batch: G.fn((batch - w0) / a) / b,
                          name="affine_pinv")


# ---------------------------------------------------------------------------
# projection applied after an operator
# ---------------------------------------------------------------------------

@dataclass
class ConstrainedSearchResult:
    v: np.ndarray
    feasible: bool
    target: np.ndarray       # the element of C the recursion routed to
    residual: float


def projection_after_operator_pinv(T, C, w, box, step, probes=None):
    """Pseudo-inverse value of P_C o T at w, by constrained grid search.

    For w outside C the recursion routes through P_C(w). On C, the value is
    a minimal-norm v with P_C(T(v)) = P_C(w), searched on a box grid with
    feasibility tolerance one grid diagonal, step * sqrt(dim). `probes` are
    caller-supplied (point-in-C, source) pairs certifying C is inside the
    image of T; they are spot-checked. Infeasibility within the search
    budget is reported, never silent.
    """
    PT = C.as_operator().compose(T)
    w = as_vector(w, C.dim)
    if probes is not None:
        for point, source in probes:
            point = as_vector(point, C.dim)
            if np.linalg.norm(T.apply(source) - point) > SPOT_CHECK_TOL:
                raise ValueError("probe source does not map to its point under T")
    target = C.project(w)
    grid = Grid(PT, box, step)
    least, _, (j,), (residual,), _ = grid.scan([target], [step * np.sqrt(T.dim_in)])
    if j < 0:
        return ConstrainedSearchResult(None, False, target, float(least[0]))
    return ConstrainedSearchResult(grid.point(j), True, target, float(residual))
