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

from .core_ops import FiniteOperator, all_tables, checked_table, image
from .numerics import parse_json_object


class InvalidSpec(ValueError):
    """Raised when a (V0, P0) pair violates its invariants."""


@dataclass(frozen=True, eq=False)
class OneTwoInverseSpec:
    """Source selector V0 and retraction P0 for building a {1,2}-inverse.

    v0: ids in the domain, exactly one source for each image element.
    p0: full codomain-length table mapping every codomain id into the
        image, restricting to the identity on the image.

    Both are stored as read-only int64 arrays, checked where they are built:
    v0 holds non-negative ids and p0 maps its own length into itself, else
    InvalidSpec. Equal arrays make equal specs; the arrays make them
    unhashable. `validate` checks the rest against T.
    """

    v0: np.ndarray
    p0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v0", _read_only_ids("v0", self.v0, np.iinfo(np.int64).max))
        object.__setattr__(self, "p0", _read_only_ids("p0", self.p0))

    def __eq__(self, other):                    # which also sets __hash__ to None
        return (isinstance(other, OneTwoInverseSpec) and np.array_equal(self.v0, other.v0)
                and np.array_equal(self.p0, other.p0))

    @staticmethod
    def from_json(text):
        obj = parse_json_object(text)
        return OneTwoInverseSpec(obj["v0"], obj["p0"])

    def to_json(self):
        return {"v0": self.v0.tolist(), "p0": self.p0.tolist()}

    def validate(self, T):
        """Check the spec against T, raising InvalidSpec."""
        v0, p0 = self.v0, self.p0
        if v0.size and v0.max() >= T.domain_size:
            raise InvalidSpec("v0: source %d lies outside the domain" % v0.max())
        if len(p0) != T.codomain_size:
            raise InvalidSpec("p0: length %d is not the codomain size %d"
                              % (len(p0), T.codomain_size))
        on_image = np.bincount(T.table, minlength=T.codomain_size) > 0
        if len(v0) != np.count_nonzero(on_image):
            raise InvalidSpec("v0 must pick exactly one source per image element")
        hits = np.bincount(T.table[v0], minlength=T.codomain_size)
        if hits.max(initial=0) > 1:     # else the hits are distinct and cover the image
            raise InvalidSpec("v0 contains two sources of %d" % np.argmax(hits))
        if not on_image[p0].all():
            raise InvalidSpec("p0 value %d is outside the image"
                              % p0[np.argmin(on_image[p0])])
        if not np.array_equal(p0[on_image], np.flatnonzero(on_image)):
            raise InvalidSpec("p0 must be the identity on the image")


def _read_only_ids(name, ids, bound=None):
    """`ids` as a read-only int64 array checked by checked_table, its entries
    in [0, bound) (bound defaults to len(ids)); InvalidSpec naming `name`."""
    try:
        arr = checked_table(ids, len(ids), len(ids) if bound is None else bound)
    except (TypeError, ValueError) as e:     # TypeError: ids has no length
        raise InvalidSpec("%s: %s" % (name, e))
    arr.flags.writeable = False
    return arr


def default_spec(T):
    """Smallest-id source per image element; nearest-id retraction.

    Both come from scans over the id ranges, in O(n + m) time: no sort."""
    t, n, m = T.table, T.domain_size, T.codomain_size
    v = np.arange(n, dtype=np.int64)
    first = np.full(m, n, dtype=np.int64)
    np.minimum.at(first, t, v)                  # the least source of each image id
    on_image = first < n
    if m and not on_image.any():
        raise ValueError("no retraction of a nonempty codomain onto an empty image")
    w = np.arange(m, dtype=np.int64)
    lower = np.maximum.accumulate(np.where(on_image, w, -1))   # greatest image id <= w, or -1
    upper = np.minimum.accumulate(np.where(on_image, w, m)[::-1])[::-1]   # least >= w, or m
    lower = np.where(lower < 0, upper, lower)       # equal to upper past either end
    upper = np.where(upper == m, lower, upper)
    p0 = np.where(w - lower <= upper - w, lower, upper)   # ties to the smaller id
    return OneTwoInverseSpec(np.flatnonzero(first[t] == v), p0)


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
    spec.validate(T)
    G = FiniteOperator(T.codomain_size, T.domain_size,
                       _invert_on(T.table, spec.v0, spec.p0, T.codomain_size))
    mp1, mp2 = check_mp_axioms(T, G)
    if not (mp1 and mp2):
        raise AssertionError("construction violated MP1-2; spec validation is broken")
    return G


def check_mp_axioms(T, G):
    """Exact MP1 (TGT = T) and MP2 (GTG = G) flags by table composition."""
    if G.domain_size != T.codomain_size or G.codomain_size != T.domain_size:
        raise ValueError("G must map T's codomain back to its domain")
    t, g = T.table, G.table
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
    tbar = Tbar.table
    table = _invert_on(tbar, image(T), tbar[T.table], T.domain_size)
    return FiniteOperator(T.domain_size, T.codomain_size, table)


def one_two_inverse_count(T):
    """Number of {1,2}-inverses: product over the image of preimage sizes,
    times |image|^(#codomain ids off the image)."""
    preimages = np.bincount(T.table, minlength=T.codomain_size)
    choices = np.where(preimages > 0, preimages, np.count_nonzero(preimages))
    mult = np.bincount(choices)
    return math.prod(pow(int(c), int(mult[c])) for c in np.flatnonzero(mult))


ENUMERATION_CAP = 10**6


def enumerate_one_two_inverses(T):
    """All tables G with TGT = T and GTG = G, by brute force.

    Candidates are every map W -> V in lexicographic order; the MP1-2
    filter is exact. Rejected when |V|^|W| exceeds ENUMERATION_CAP.
    """
    nV, nW = T.domain_size, T.codomain_size
    if nV == 0 or nW == 0:
        raise ValueError("enumeration requires nonempty domain and codomain")
    total = nV ** nW
    if total > ENUMERATION_CAP:
        raise ValueError("candidate space %d exceeds cap %d" % (total, ENUMERATION_CAP))
    t = T.table
    img = image(T)
    keep = []
    for cand in all_tables(nV, nW):
        tg = t[cand]                                   # (N, nW) values in W
        mp1 = np.all(tg[:, img] == img[None, :], axis=1)
        gtg = np.take_along_axis(cand, tg, axis=1)
        mp2 = np.all(gtg == cand, axis=1)
        keep.append(cand[mp1 & mp2])
    return np.concatenate(keep, axis=0)
