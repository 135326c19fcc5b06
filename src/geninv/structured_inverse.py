"""Convex projections and compositional pseudo-inverse combinators.

Covers metric projections onto boxes, balls, halfspaces, and intersections
(via Dykstra's alternating projections), the nested-cascade pseudo-inverse,
componentwise product inverses, bijection sandwiches with the affine
special case, and the recursive inverse of "projection after operator".
"""

from dataclasses import dataclass

import numpy as np

from .core_ops import VectorOperator, DimensionMismatch
from .pseudo_inverse import GridOracle

DYKSTRA_TOL = 1e-10
DYKSTRA_CAP = 10_000


class ConvexSet:
    """Base for nonempty closed convex sets with an exact or iterative projection."""

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)

    def project_batch(self, X):
        raise NotImplementedError

    def project(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise DimensionMismatch("point of dim %d expected" % self.dim)
        return self.project_batch(x[None, :])[0]

    def contains(self, x, tol=1e-9):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.linalg.norm(self.project_batch(x[None, :])[0] - x) <= tol)

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
        if np.any(lo > hi):
            raise ValueError("empty box: lo > hi somewhere")
        super().__init__(len(lo))
        self.lo, self.hi = lo, hi

    def project_batch(self, X):
        return np.clip(X, self.lo, self.hi)

    def to_json(self):
        return {"kind": "box", "lo": list(self.lo), "hi": list(self.hi)}


class L2Ball(ConvexSet):
    kind = "l2_ball"

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        if radius < 0:
            raise ValueError("empty ball: negative radius")
        super().__init__(len(center))
        self.center, self.radius = center, float(radius)

    def project_batch(self, X):
        d = X - self.center
        n = np.linalg.norm(d, axis=1)
        scl = np.ones_like(n)
        out = n > self.radius
        scl[out] = self.radius / n[out]
        return self.center + d * scl[:, None]

    def to_json(self):
        return {"kind": "l2_ball", "center": list(self.center),
                "radius": self.radius}


class Halfspace(ConvexSet):
    """{x : normal . x <= offset}."""

    kind = "halfspace"

    def __init__(self, normal, offset):
        normal = np.asarray(normal, dtype=float)
        if np.linalg.norm(normal) == 0:
            raise ValueError("halfspace needs a nonzero normal")
        super().__init__(len(normal))
        self.normal, self.offset = normal, float(offset)

    def project_batch(self, X):
        excess = np.maximum(X @ self.normal - self.offset, 0.0)
        return X - np.outer(excess / (self.normal @ self.normal), self.normal)

    def to_json(self):
        return {"kind": "halfspace", "normal": list(self.normal),
                "offset": self.offset}


class Intersection(ConvexSet):
    """Intersection of listed sets, projected by Dykstra's algorithm.

    Nonemptiness is certified by a feasible point supplied at construction.
    A projection that has not settled to DYKSTRA_TOL after DYKSTRA_CAP
    sweeps raises ArithmeticError instead of returning its last iterate.
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
            if not p.contains(feasible_point, tol=1e-8):
                raise ValueError("feasible point is not inside every part")
        super().__init__(dim)
        self.parts = parts
        self.feasible_point = feasible_point

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        x = X.copy()
        corrections = [np.zeros_like(x) for _ in self.parts]
        for _ in range(DYKSTRA_CAP):
            prev = x.copy()
            for i, p in enumerate(self.parts):
                z = x + corrections[i]
                x = p.project_batch(z)
                corrections[i] = z - x
            if np.max(np.abs(x - prev)) <= DYKSTRA_TOL:
                return x
        raise ArithmeticError("Dykstra projection did not settle to %g within %d sweeps"
                              % (DYKSTRA_TOL, DYKSTRA_CAP))

    def to_json(self):
        return {"kind": "intersection",
                "parts": [p.to_json() for p in self.parts],
                "feasible_point": list(self.feasible_point)}


def project(C, x):
    """Metric projection of a single point onto C."""
    return C.project(x)


def convex_set_from_json(obj):
    kind = obj["kind"]
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


def cascade_pinv(sets, check_points=None, tol=1e-8):
    """Pseudo-inverse of a cascade of projections onto nested sets.

    sets are ordered outermost first (C1 contains C2 contains ... Cn with
    0 in Cn). Nesting is verified on `check_points` (random probes when
    omitted): projecting any probe onto an inner set must land inside every
    outer set. The pseudo-inverse of P_Cn o ... o P_C1 is P_Cn itself.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("cascade needs at least one set")
    dim = sets[0].dim
    inner = sets[-1]
    if not inner.contains(np.zeros(dim), tol=tol):
        raise ValueError("innermost set must contain the origin")
    if check_points is None:
        rng = np.random.default_rng(0)
        check_points = rng.uniform(-5, 5, size=(64, dim))
    check_points = np.atleast_2d(np.asarray(check_points, dtype=float))
    for outer, inner_set in zip(sets, sets[1:]):
        onto_inner = inner_set.project_batch(check_points)
        back = outer.project_batch(onto_inner)
        if np.max(np.linalg.norm(back - onto_inner, axis=1)) > tol:
            raise ValueError("nesting violated: %s does not contain %s on probes"
                             % (outer.kind, inner_set.kind))

    cascade = sets[0].as_operator()
    for s in sets[1:]:
        cascade = s.as_operator().compose(cascade)
    return CascadeResult(inner.as_operator(), cascade, inner)


# ---------------------------------------------------------------------------
# product and sandwich combinators
# ---------------------------------------------------------------------------

def _axiom_spot_check(T, G, samples, tol):
    for w in samples:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        v = G.apply(w)
        Tv = T.apply(v)
        gtv = G.apply(Tv)
        if np.linalg.norm(T.apply(gtv) - Tv) > tol:
            return "MP1"
        if np.linalg.norm(gtv - v) > tol:
            return "MP2"
    return None


def product_operator(ops):
    """Componentwise operator on the direct product of the parts' spaces."""
    ops = list(ops)
    din = [op.dim_in for op in ops]
    dout = [op.dim_out for op in ops]
    in_ofs = np.cumsum([0] + din)
    out_ofs = np.cumsum([0] + dout)

    def f(batch):
        outs = [op.fn(batch[:, in_ofs[i]:in_ofs[i + 1]]) for i, op in enumerate(ops)]
        return np.concatenate(outs, axis=1)

    return VectorOperator(int(in_ofs[-1]), int(out_ofs[-1]), f, name="product")


def product_inverse(parts, check_samples=None, tol=1e-8):
    """Componentwise inverse of a product operator.

    parts: list of (T_i, G_i). Each G_i must pass an MP1/MP2 spot check on
    its own samples, otherwise the product is rejected. Returns
    (product_T, product_G).
    """
    parts = list(parts)
    for i, (T, G) in enumerate(parts):
        if check_samples is None:
            rng = np.random.default_rng(100 + i)
            samples = rng.uniform(-2, 2, size=(16, T.dim_out))
        else:
            samples = check_samples[i]
        bad = _axiom_spot_check(T, G, samples, tol)
        if bad is not None:
            raise ValueError("component %d fails %s; product rejected" % (i, bad))
    Tprod = product_operator([T for T, _ in parts])
    Gprod = product_operator([G for _, G in parts])
    return Tprod, Gprod


def sandwich_inverse(s1, s1_inv, T, s2, s2_inv, G, check_samples=None, tol=1e-8):
    """Inverse of S1 T S2 from an inverse of T: returns S2^-1 G S1^-1.

    s1/s1_inv and s2/s2_inv must be actual inverse pairs; round trips are
    spot-checked on samples and the call is rejected on failure. The
    pseudo-inverse property additionally needs a*S1 isometric for some a != 0
    and S2^-1 norm-monotone, which the caller asserts.
    """
    rng = np.random.default_rng(7)
    if check_samples is None:
        check_samples = rng.uniform(-2, 2, size=(16, max(s1.dim_in, s2.dim_in)))
    for x in check_samples:
        x1 = np.asarray(x[:s1.dim_in], dtype=float)
        if np.linalg.norm(s1_inv.apply(s1.apply(x1)) - x1) > tol:
            raise ValueError("s1_inv fails the round-trip check")
        x2 = np.asarray(x[:s2.dim_in], dtype=float)
        if np.linalg.norm(s2_inv.apply(s2.apply(x2)) - x2) > tol:
            raise ValueError("s2_inv fails the round-trip check")
    return s2_inv.compose(G).compose(s1_inv)


def affine_pinv(G, a, b, w0):
    """Pseudo-inverse of v -> a T(b v) + w0 given a pseudo-inverse G of T."""
    if a == 0 or b == 0:
        raise ValueError("affine sandwich needs nonzero scalars")
    w0 = np.asarray(w0, dtype=float)
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


def projection_after_operator_pinv(T, C, w, box, step, probes=None,
                                   feas_tol=None):
    """Pseudo-inverse value of P_C o T at w, by constrained grid search.

    For w outside C the recursion routes through P_C(w). On C, the value is
    a minimal-norm v with P_C(T(v)) = P_C(w), searched on a box grid with
    feasibility tolerance `feas_tol` (default: one grid cell). `probes` are
    caller-supplied (point-in-C, source) pairs certifying C is inside the
    image of T; they are spot-checked. Infeasibility within the search
    budget is reported, never silent.
    """
    if probes is not None:
        for point, source in probes:
            if np.linalg.norm(T.apply(source) - np.asarray(point, float)) > 1e-8:
                raise ValueError("probe source does not map to its point under T")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    target = C.project(w)
    if feas_tol is None:
        feas_tol = step * np.sqrt(T.dim_in)
    grid = GridOracle(T, box, step)
    imgs = C.project_batch(grid.values)
    res = np.linalg.norm(imgs - target[None, :], axis=1)
    feas = np.flatnonzero(res <= feas_tol)
    if feas.size == 0:
        return ConstrainedSearchResult(None, False, target, float(res.min()))
    norms = grid.norms[feas]
    j = feas[np.argmin(norms)]
    return ConstrainedSearchResult(grid.points[j].copy(), True, target,
                                   float(res[j]))
