"""{1,2}-inverses of finite operators.

An operator G: W -> V is a {1,2}-inverse of T: V -> W when TGT = T and
GTG = G. The degrees of freedom are a choice of one source per image
element (V0) and a retraction of the codomain onto the image (P0); the
inverse is then (T|_V0)^-1 P0. Everything here checks or enumerates those
identities exactly on id tables.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core_ops import FiniteOperator, checked_table, image


class InvalidSpec(ValueError):
    """Raised when a (V0, P0) pair violates its invariants."""


@dataclass(frozen=True)
class OneTwoInverseSpec:
    """Source selector V0 and retraction P0 for building a {1,2}-inverse.

    v0: ids in the domain, exactly one source for each image element.
    p0: full codomain-length table mapping every codomain id into the
        image, restricting to the identity on the image.
    """

    v0: tuple
    p0: tuple

    @staticmethod
    def from_json(obj):
        import json
        if isinstance(obj, str):
            obj = json.loads(obj)
        return OneTwoInverseSpec(tuple(obj["v0"]), tuple(obj["p0"]))

    def to_json(self):
        # without T, v0 holds non-negative ids and p0 maps its own length into itself
        v0, p0 = self._checked(np.iinfo(np.int64).max, len(self.p0))
        return {"v0": v0.tolist(), "p0": p0.tolist()}

    def _checked(self, domain_size, codomain_size):
        """(v0, p0) as int64 arrays checked by checked_table; raises InvalidSpec."""
        try:
            v0 = checked_table(self.v0, len(self.v0), domain_size)
        except ValueError as e:
            raise InvalidSpec("v0: %s" % e)
        try:
            p0 = checked_table(self.p0, codomain_size, codomain_size)
        except ValueError as e:
            raise InvalidSpec("p0: %s" % e)
        return v0, p0

    def validate(self, T):
        """Check the spec against T, raising InvalidSpec; returns (v0, p0)
        as int64 arrays."""
        v0, p0 = self._checked(T.domain_size, T.codomain_size)
        on_image = np.bincount(T.arr, minlength=T.codomain_size) > 0
        if len(v0) != np.count_nonzero(on_image):
            raise InvalidSpec("v0 must pick exactly one source per image element")
        hits = np.bincount(T.arr[v0], minlength=T.codomain_size)
        if hits.max(initial=0) > 1:     # else the hits are distinct and cover the image
            raise InvalidSpec("v0 contains two sources of %d" % np.argmax(hits))
        if not on_image[p0].all():
            raise InvalidSpec("p0 value %d is outside the image"
                              % p0[np.argmin(on_image[p0])])
        if not np.array_equal(p0[on_image], np.flatnonzero(on_image)):
            raise InvalidSpec("p0 must be the identity on the image")
        return v0, p0


def default_spec(T):
    """Smallest-id source per image element; nearest-id retraction."""
    img, first = np.unique(T.arr, return_index=True)
    if not img.size and T.codomain_size:
        raise ValueError("no retraction of a nonempty codomain onto an empty image")
    w = np.arange(T.codomain_size, dtype=np.int64)
    j = np.searchsorted(img, w)                 # img[j - 1] < w <= img[j]
    lower = img[np.maximum(j - 1, 0)]          # equal to upper past either end
    upper = img[np.minimum(j, len(img) - 1)]
    p0 = np.where(w - lower <= upper - w, lower, upper)   # ties to the smaller id
    return OneTwoInverseSpec(tuple(np.sort(first).tolist()), tuple(p0.tolist()))


def _invert_on(t, sources, targets, size):
    """Send t[s] to s for each chosen source s, then read at `targets`.

    t must be injective on `sources`, so no index is written twice; every
    target must be some t[s]. The -1 fill makes a violation fail the
    FiniteOperator range check.
    """
    inv = np.full(size, -1, dtype=np.int64)
    inv[t[sources]] = sources
    return inv[targets]


def build_one_two_inverse(T, spec=None):
    """Construct (T|_V0)^-1 P0, a {1,2}-inverse of T."""
    if spec is None:
        spec = default_spec(T)
    v0, p0 = spec.validate(T)
    G = FiniteOperator(T.codomain_size, T.domain_size,
                       _invert_on(T.arr, v0, p0, T.codomain_size))
    mp1, mp2 = check_mp_axioms(T, G)
    if not (mp1 and mp2):
        raise AssertionError("construction violated MP1-2; spec validation is broken")
    return G


def check_mp_axioms(T, G):
    """Exact MP1 (TGT = T) and MP2 (GTG = G) flags by table composition."""
    if G.domain_size != T.codomain_size or G.codomain_size != T.domain_size:
        raise ValueError("G must map T's codomain back to its domain")
    t, g = T.arr, G.arr
    mp1 = bool(np.array_equal(t[g[t]], t))
    mp2 = bool(np.array_equal(g[t[g]], g))
    return mp1, mp2


def double_inverse(T, Tbar):
    """Apply the construction to Tbar with W0 = T(V), Q0 = Tbar T; returns T.

    Requires Tbar in T{1,2}; the symmetric choice of (W0, Q0) makes the
    double inverse land exactly back on T. Tbar is injective on T(V),
    because T Tbar is the identity there.
    """
    mp1, mp2 = check_mp_axioms(T, Tbar)
    if not (mp1 and mp2):
        raise InvalidSpec("Tbar is not a {1,2}-inverse of T")
    tbar = Tbar.arr
    table = _invert_on(tbar, image(T), tbar[T.arr], T.domain_size)
    return FiniteOperator(T.domain_size, T.codomain_size, table)


def one_two_inverse_count(T):
    """Number of {1,2}-inverses: product over the image of preimage sizes,
    times |image|^(#codomain ids off the image)."""
    preimages = np.bincount(T.arr, minlength=T.codomain_size)
    choices = np.where(preimages > 0, preimages, np.count_nonzero(preimages))
    values, mult = np.unique(choices, return_counts=True)
    return math.prod(pow(int(c), int(m)) for c, m in zip(values, mult))


def enumerate_one_two_inverses(T, cap=10**6, chunk=200_000):
    """All tables G with TGT = T and GTG = G, by brute force.

    Candidates are every map W -> V in lexicographic order; the MP1-2
    filter is exact. Rejected when |V|^|W| exceeds `cap`.
    """
    nV, nW = T.domain_size, T.codomain_size
    if nV == 0 or nW == 0:
        raise ValueError("enumeration requires nonempty domain and codomain")
    total = nV ** nW
    if total > cap:
        raise ValueError("candidate space %d exceeds cap %d" % (total, cap))
    t = T.arr
    img = image(T)
    radges = nV ** np.arange(nW - 1, -1, -1, dtype=np.int64)
    keep = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cand = (idx[:, None] // radges[None, :]) % nV
        tg = t[cand]                                   # (N, nW) values in W
        mp1 = np.all(tg[:, img] == img[None, :], axis=1)
        gtg = np.take_along_axis(cand, tg, axis=1)
        mp2 = np.all(gtg == cand, axis=1)
        sel = cand[mp1 & mp2]
        if sel.size:
            keep.append(sel)
    if not keep:
        return np.empty((0, nW), dtype=np.int64)
    return np.concatenate(keep, axis=0)
