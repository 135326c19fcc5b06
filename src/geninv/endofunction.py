"""Drazin and left-Drazin inverses of finite endofunctions.

The image chain V = T^0(V) containing T^1(V) containing ... stabilizes at
step k <= |V| on the cyclic part of the functional graph, where T is a
permutation S. The Drazin inverse is S^-(k+1) T^k; the left-Drazin
inverse only needs an injective restriction and is free off T^(k+1)(V).
Every routine here reads the chain from one pointer-doubling analysis of
the graph, `functional_graph`, in O(n log n) time and O(n) memory.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_ops import FiniteOperator, compose, power, table_power


def _require_endo(T):
    if not T.is_endofunction:
        raise ValueError("operator must map a set to itself")


@dataclass
class FunctionalGraph:
    on_cycle: np.ndarray       # per node: lies on a cycle of the graph
    cycle_length: np.ndarray   # per node: length of the cycle it runs into
    depth: np.ndarray          # per node: steps until it reaches its cycle
    exit_level: np.ndarray     # per node: last j with v in T^j(V); k on cycles
    k: int                     # first k with T^k(V) = T^(k+1)(V)
    cycle_root: np.ndarray     # per node: least node of the cycle it runs into


def functional_graph(table):
    """Cycles, cycle lengths, depths and exit levels of an endofunction table.

    Pointer doubling, so every loop runs O(log n) times: T^(2^r) for
    2^r >= n maps V onto the cyclic nodes; while it is squared, a
    `maximum` scatter doubles the longest known path into each node, which
    off the cycles is the exit level. Depths come from pointer jumping in
    which the cycles absorb, cycle lengths from propagating the least
    label around each cycle and counting labels; the least label names
    each cycle's least node.
    """
    t = np.asarray(table, dtype=np.int64)
    n = len(t)
    rounds = max(n - 1, 0).bit_length()          # 2^rounds > n - 1 >= depth
    longest = np.zeros(n, dtype=np.int64)        # longest path into v, < 2^r steps
    jump = t                                     # T^(2^r)
    for r in range(rounds):
        np.maximum.at(longest, jump, longest + (1 << r))
        jump = jump[jump]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jump] = True
    tail = longest[~on_cycle]
    k = int(tail.max()) + 1 if tail.size else 0
    exit_level = np.where(on_cycle, k, longest)

    depth = (~on_cycle).astype(np.int64)
    nxt = np.where(on_cycle, np.arange(n), t)
    for _ in range(k.bit_length()):
        depth += depth[nxt]
        nxt = nxt[nxt]

    cyc = np.flatnonzero(on_cycle)
    pos = np.empty(n, dtype=np.int64)
    pos[cyc] = np.arange(len(cyc))
    label = np.arange(len(cyc))                  # least position on each cycle
    step = pos[t[cyc]]
    for _ in range(max(len(cyc) - 1, 0).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    length = np.bincount(label, minlength=len(cyc))[label]
    cycle_length = length[pos[jump]]
    cycle_root = cyc[label[pos[jump]]]
    return FunctionalGraph(on_cycle, cycle_length, depth, exit_level, k, cycle_root)


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
    _require_endo(T)
    fg = functional_graph(T.arr)
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
    _require_endo(T)
    t = T.arr
    n = T.domain_size
    fg = functional_graph(t)
    k = fg.k
    M = np.flatnonzero(fg.on_cycle)               # T^k(V)
    pos = np.empty(n, dtype=np.int64)
    pos[M] = np.arange(len(M))
    inv_perm = np.empty(len(M), dtype=np.int64)   # S^-1 on positions
    inv_perm[pos[t[M]]] = np.arange(len(M))
    tk = table_power(t, k)
    g = M[table_power(inv_perm, k + 1)[pos[tk]]]
    G = FiniteOperator(n, n, g)

    kk = max(k, 1)
    tkk = tk if k else t
    if not np.array_equal(tkk[g[t]], tkk):
        raise AssertionError("MP1^k failed; construction bug")
    if not np.array_equal(g[t[g]], g):
        raise AssertionError("MP2 failed; construction bug")
    if not np.array_equal(t[g], g[t]):
        raise AssertionError("D5 failed; construction bug")
    return DrazinResult(True, G, kk, k, fg)


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


def left_drazin_inverse(T, fill=None):
    """A left-Drazin inverse: S^-1 on T^(k+1)(V), `fill` elsewhere.

    k is the least chain step where the restriction of T is injective. The
    values off T^(k+1)(V) are genuinely free; `fill` (id -> id) defaults to
    the identity there. Returns the inverse and the parameter max(k, 1).
    """
    _require_endo(T)
    fg = functional_graph(T.arr)
    cyc = np.flatnonzero(fg.on_cycle)       # T^k(V) = T^(k+1)(V)
    table = np.arange(T.domain_size, dtype=np.int64)
    if fill is not None:
        table = np.array([fill(i) for i in range(T.domain_size)], dtype=np.int64)
    # constrained part: on T^(k+1)(V), G must invert the restriction
    table[T.arr[cyc]] = cyc
    G = FiniteOperator(T.domain_size, T.domain_size, table)
    k = fg.k
    m = max(k, 1)
    lhs = compose(G, power(T, m + 1))
    if lhs != power(T, m):
        raise AssertionError("left-Drazin identity failed; construction bug")
    return LeftDrazinResult(G, m, k)


def exhaustive_drazin_search(T, cap=3125, chunk=100_000):
    """All G satisfying MP1^k (some k <= |V|), MP2, and D5, by brute force.

    MP1^k for any k >= 1 is equivalent to MP1^|V| because the identity
    propagates upward and powers of T cycle, so one exponent check
    suffices. Rejected when |V|^|V| exceeds `cap`.
    """
    _require_endo(T)
    n = T.domain_size
    if n == 0:
        raise ValueError("empty operator")
    total = n ** n
    if total > cap:
        raise ValueError("candidate space %d exceeds cap %d" % (total, cap))
    t = T.arr
    tK = power(T, max(n, 1)).arr
    radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    hits = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cand = (idx[:, None] // radix[None, :]) % n
        gt = cand[:, t]                              # G(T(v)) columnwise
        tg = t[cand]                                 # T(G(v))
        mp1k = np.all(tK[gt] == tK[None, :], axis=1)
        mp2 = np.all(np.take_along_axis(cand, tg, axis=1) == cand, axis=1)
        d5 = np.all(tg == gt, axis=1)
        sel = cand[mp1k & mp2 & d5]
        if sel.size:
            hits.append(sel)
    if not hits:
        return []
    tables = np.concatenate(hits, axis=0)
    return [FiniteOperator(n, n, tuple(row)) for row in tables]
