"""Drazin and left-Drazin inverses of finite endofunctions.

The image chain V = T^0(V) containing T^1(V) containing ... stabilizes at
step k <= |V| on the cyclic part of the functional graph, where T is a
permutation S. The Drazin inverse is S^-(k+1) T^k; the left-Drazin
inverse only needs an injective restriction and is free off T^(k+1)(V).
Every routine here reads the chain from `T.graph`, the operator's one cached
analysis of its graph by pointer doubling, `functional_graph` (defined in
core_ops, imported here), in O(n log k + m log m) time for m cyclic nodes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_ops import (FiniteOperator, FunctionalGraph, all_tables, compose,
                       functional_graph, power, table_power)


def _require_endo(T):
    if not T.is_endofunction:
        raise ValueError("operator must map a set to itself")


@dataclass
class ImageChain:
    exit_level: np.ndarray     # T^j(V) = {v : exit_level[v] >= j}
    stabilization_step: int    # first k with T^k(V) = T^(k+1)(V)
    injective: list            # per step k: T restricted to sets[k] is injective
    bijective: list            # per step k: restriction is a bijection of sets[k]

    @cached_property
    def sets(self):
        """[T^0(V), T^1(V), ..., T^k(V)] as sorted id arrays."""
        return [np.flatnonzero(self.exit_level >= j)
                for j in range(self.stabilization_step + 1)]


def image_chain(T):
    """Nested images with per-step injective/bijective flags.

    The restriction of T to T^j(V) is onto T^(j+1)(V), so it is injective
    exactly when the chain has stopped shrinking, and then bijective.
    """
    fg = T.graph
    flags = [False] * fg.k + [True]
    return ImageChain(fg.exit_level, fg.k, flags, list(flags))


@dataclass
class DrazinResult:
    exists: bool               # always true for a finite endofunction
    inverse: FiniteOperator
    index: int                 # minimal m with T^(m+1) G = T^m
    k: int                     # chain parameter used by the construction
    graph: FunctionalGraph     # the analysis the construction read k from


def drazin_inverse(T):
    """Drazin inverse by the image-chain construction, axiom-verified.

    The restriction S of T to the stabilized image T^k(V) is always a
    bijection, so the inverse S^-(k+1) T^k always exists. Its index, the
    least m >= 1 with T^(m+1) G = T^m, is max(k, 1): T^(m+1) G maps into
    the cyclic part, which T^m reaches only from step k on.
    """
    t, n, fg = T.table, T.domain_size, T.graph
    k = fg.k
    if k:
        M = np.flatnonzero(fg.on_cycle)           # T^k(V)
        tk = table_power(t, k)
        pos = np.empty(n, dtype=np.int64)
        pos[M] = np.arange(len(M))
        inv_perm = np.empty(len(M), dtype=np.int64)   # S^-1 on positions
        inv_perm[pos[t[M]]] = np.arange(len(M))
        g = M[table_power(inv_perm, k + 1)][pos[tk]]
        del M, pos, inv_perm
    else:                                         # T is a permutation: G = T^-1
        tk = t                                    # and MP1^k reads T G T = T
        g = np.empty(n, dtype=np.int64)
        g[t] = np.arange(n)

    if not np.array_equal(tk[g[t]], tk):
        raise AssertionError("MP1^k failed; construction bug")
    del tk
    if not np.array_equal(g[t[g]], g):
        raise AssertionError("MP2 failed; construction bug")
    if not np.array_equal(t[g], g[t]):
        raise AssertionError("D5 failed; construction bug")
    return DrazinResult(True, FiniteOperator(n, n, g), max(k, 1), k, fg)


def drazin_loop_formula(T, n, k):
    """Drazin inverse of an operator with an exact loop T^n = T^k (n > k >= 0):
    T^((n-k)(k+1)-1) for k >= 1, and T^(n-1) for k = 0."""
    _require_endo(T)
    if not n > k >= 0:
        raise ValueError("loop formula needs n > k >= 0")
    if power(T, n) != power(T, k):
        raise ValueError("T^%d = T^%d does not hold for this operator" % (n, k))
    e = (n - k) * (k + 1) - 1 if k >= 1 else n - 1
    return power(T, e)


@dataclass
class LeftDrazinResult:
    inverse: FiniteOperator
    parameter: int             # m with G T^(m+1) = T^m
    k: int                     # least chain step with injective restriction


def left_drazin_inverse(T):
    """A left-Drazin inverse: S^-1 on T^(k+1)(V), the identity elsewhere.

    k is the least chain step where the restriction of T is injective. The
    values off T^(k+1)(V) are genuinely free. Returns the inverse and the
    parameter max(k, 1).
    """
    fg = T.graph
    cyc = np.flatnonzero(fg.on_cycle)       # T^k(V) = T^(k+1)(V)
    table = np.arange(T.domain_size, dtype=np.int64)
    # constrained part: on T^(k+1)(V), G must invert the restriction
    table[T.table[cyc]] = cyc
    G = FiniteOperator(T.domain_size, T.domain_size, table)
    k = fg.k
    m = max(k, 1)
    lhs = compose(G, power(T, m + 1))
    if lhs != power(T, m):
        raise AssertionError("left-Drazin identity failed; construction bug")
    return LeftDrazinResult(G, m, k)


DRAZIN_SEARCH_CAP = 5 ** 5


def exhaustive_drazin_search(T):
    """All G satisfying MP1^k (some k <= |V|), MP2, and D5, by brute force.

    MP1^k for any k >= 1 is equivalent to MP1^|V| because the identity
    propagates upward and powers of T cycle, so one exponent check
    suffices. Rejected when |V|^|V| exceeds DRAZIN_SEARCH_CAP.
    """
    _require_endo(T)
    n = T.domain_size
    if n == 0:
        raise ValueError("empty operator")
    total = n ** n
    if total > DRAZIN_SEARCH_CAP:
        raise ValueError("candidate space %d exceeds cap %d" % (total, DRAZIN_SEARCH_CAP))
    t = T.table
    tK = power(T, max(n, 1)).table
    hits = []
    for cand in all_tables(n, n):
        gt = cand[:, t]                              # G(T(v)) columnwise
        tg = t[cand]                                 # T(G(v))
        mp1k = np.all(tK[gt] == tK[None, :], axis=1)
        mp2 = np.all(np.take_along_axis(cand, tg, axis=1) == cand, axis=1)
        d5 = np.all(tg == gt, axis=1)
        hits.append(cand[mp1k & mp2 & d5])
    return [FiniteOperator(n, n, row) for row in np.concatenate(hits, axis=0)]
