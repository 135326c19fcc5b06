"""The functional-graph kernel against the step-by-step oracles in helpers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import (FiniteOperator, FpVectorOperator, image_chain, drazin_inverse,
                    left_drazin_inverse, exhaustive_drazin_search,
                    stabilization_profile, find_vanishing_poly, minimal_poly,
                    left_drazin_from_poly)
from geninv.endofunction import functional_graph

from helpers import (image_chain_steps, walk_graph, drazin_steps, left_drazin_steps,
                     stabilization_profile_steps, traced_peak, vanishing_poly_reducer)


@st.composite
def endofunctions(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


@st.composite
def shaped_maps(draw, max_n=40):
    """Maps with long tails and several cycles: a random map whose values
    are pulled towards smaller ids, so paths are long and k is large."""
    n = draw(st.integers(1, max_n))
    return [draw(st.integers(max(v - draw(st.integers(1, 3)), 0), v)) if
            draw(st.booleans()) else draw(st.integers(0, n - 1)) for v in range(n)]


maps = st.one_of(endofunctions(), shaped_maps())


def permutation_with_cycles(lengths, labels):
    """The permutation with the given cycle lengths on the given labels."""
    t = np.empty(len(labels), dtype=np.int64)
    start = 0
    for c in lengths:
        cycle = np.asarray(labels[start:start + c])
        t[cycle] = np.roll(cycle, -1)
        start += c
    return t


def relabeled(t, labels):
    """The map t with point v renamed labels[v]."""
    labels = np.asarray(labels)
    out = np.empty(len(t), dtype=np.int64)
    out[labels] = labels[np.asarray(t)]
    return out


@st.composite
def deep_maps(draw, max_n=300):
    """Maps whose k spans several doubling rounds, on drawn labels: halving
    maps (k = bit length of n - 1), permutations of a drawn cycle type
    (k = 0) and paths of n - c steps into a cycle of length c."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["halving", "permutation", "path"]))
    if kind == "permutation":
        lengths = []
        while sum(lengths) < n:
            lengths.append(draw(st.integers(1, n - sum(lengths))))
        return permutation_with_cycles(lengths, labels)
    if kind == "halving":
        return relabeled(np.arange(n) // 2, labels)
    c = draw(st.integers(1, n))
    return relabeled(np.concatenate([np.roll(np.arange(c), -1), np.arange(c - 1, n - 1)]),
                     labels)


def assert_graph_matches_walks(t):
    """Every field of functional_graph(t) against walk_graph; the cycle
    fields hold the walk's values at the cycle nodes, in id order."""
    fg = functional_graph(t)
    on_cycle, cycle_length, depth, cycle_root = walk_graph(t)
    cyc = np.flatnonzero(on_cycle)
    assert fg.on_cycle.tolist() == on_cycle
    assert fg.cycle_length.tolist() == [cycle_length[v] for v in cyc]
    assert fg.cycle_root.tolist() == [cycle_root[v] for v in cyc]
    assert fg.k == max(depth)
    sets, _, _, _ = image_chain_steps(t)
    assert fg.exit_level.tolist() == [sum(v in s for s in sets[1:]) for v in range(len(t))]


@given(maps)
def test_kernel_matches_walks(t):
    assert_graph_matches_walks(t)


@settings(max_examples=60)
@given(deep_maps())
def test_deep_maps_match_walks_and_steps(t):
    assert_graph_matches_walks(t)
    g, index, k = drazin_steps(t)
    res = drazin_inverse(FiniteOperator(len(t), len(t), t))
    assert np.array_equal(res.inverse.table, g)
    assert (res.index, res.k) == (index, k)


def doubling_rounds(t):
    """How many `maximum` scatters, one per squaring of T^(2^r),
    functional_graph(t) makes."""
    calls = []

    def count(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "at":
            calls.append(arg)
    sys.setprofile(count)
    try:
        functional_graph(t)
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("t, k, rounds", [
    (np.arange(2 ** 16 + 1) // 2, 17, 6),                   # not the 17 of ceil(log2 n)
    (np.roll(np.arange(1000), 1), 0, 0),                    # a permutation
    (np.maximum(np.arange(1000) - 1, 0), 999, 11),
    (np.maximum(np.arange(1000) - 1, 0)[:9], 8, 4),
    (np.maximum(np.arange(1000) - 1, 0)[:2], 1, 1),
])
def test_doubling_stops_when_the_image_stops_shrinking(t, k, rounds):
    assert functional_graph(t).k == k
    assert doubling_rounds(t) == rounds <= math.ceil(math.log2(k + 1)) + 1


def test_drazin_peak_memory_on_the_halving_map():
    # the graph and the construction together hold about five 2^16+1-entry
    # int64 arrays (0.5 MB each) at peak
    n = 2 ** 16 + 1
    T = FiniteOperator(n, n, np.arange(n) // 2)
    res, peak = traced_peak(lambda: drazin_inverse(T))
    assert res.k == 17 and peak < 3.5 * 2 ** 20


def test_drazin_peak_memory_on_a_permutation():
    # k = 0: G is the inverse permutation, with no T^0 and no position remap
    n = 2 ** 16 + 1
    t = np.random.default_rng(0).permutation(n)
    T = FiniteOperator(n, n, t)
    res, peak = traced_peak(lambda: drazin_inverse(T))
    assert res.k == 0 and res.index == 1 and peak < 3.5 * 2 ** 20
    assert np.array_equal(res.inverse.table[t], np.arange(n))


@given(maps)
def test_exit_levels_rebuild_the_chain(t):
    sets, k, injective, bijective = image_chain_steps(t)
    chain = image_chain(FiniteOperator(len(t), len(t), t))
    assert chain.stabilization_step == k
    assert [s.tolist() for s in chain.sets] == [s.tolist() for s in sets]
    assert chain.injective == injective and chain.bijective == bijective
    assert chain.injective == [False] * k + [True]
    assert int(chain.exit_level.max()) == k


@given(maps)
def test_drazin_matches_step_construction(t):
    g, index, k = drazin_steps(t)
    res = drazin_inverse(FiniteOperator(len(t), len(t), t))
    assert res.exists
    assert np.array_equal(res.inverse.table, g)
    assert (res.index, res.k) == (index, k)


@given(maps)
def test_left_drazin_matches_step_assignment(t):
    table, parameter, k = left_drazin_steps(t)
    res = left_drazin_inverse(FiniteOperator(len(t), len(t), t))
    assert np.array_equal(res.inverse.table, table)
    assert (res.parameter, res.k) == (parameter, k)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_drazin_matches_exhaustive_search(t):
    T = FiniteOperator(len(t), len(t), t)
    found = exhaustive_drazin_search(T)
    assert found == [drazin_inverse(T).inverse]


def test_drazin_path_map_at_size():
    # k = n - 1: a step-by-step chain would take n steps of O(n) each
    n = 200_000
    t = np.maximum(np.arange(n) - 1, 0)
    res = drazin_inverse(FiniteOperator(n, n, t))
    assert (res.index, res.k) == (n - 1, n - 1)
    assert np.array_equal(res.inverse.table, np.zeros(n))
    assert res.graph.exit_level.tolist() == list(range(n - 1, -1, -1))


@st.composite
def fp_maps(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
    size = p ** n
    table = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    return FpVectorOperator(p, n, table)


@st.composite
def fp_permutations(draw):
    """Permutations of F_p^n with a drawn cycle type on drawn labels."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
    size = p ** n
    lengths = []
    while sum(lengths) < size:
        lengths.append(draw(st.integers(1, size - sum(lengths))))
    labels = draw(st.permutations(range(size)))
    return FpVectorOperator(p, n, permutation_with_cycles(lengths, labels))


@given(st.one_of(fp_maps(), fp_permutations()))
def test_stabilization_profile_matches_steps(T):
    assert stabilization_profile(T) == stabilization_profile_steps(T.table)


@settings(max_examples=60)
@given(st.one_of(fp_maps(), fp_permutations()))
def test_vanishing_poly_matches_reducer(T):
    assert list(find_vanishing_poly(T).coeffs) == vanishing_poly_reducer(T)


@settings(max_examples=5)
@given(st.permutations(range(2 ** 7)))
def test_vanishing_poly_benchmark_cycle_type(labels):
    # the cycle type of the benchmark's permutation of F_2^7
    T = FpVectorOperator(2, 7, permutation_with_cycles((80, 30, 12, 4, 1, 1), labels))
    q = find_vanishing_poly(T)
    assert list(q.coeffs) == vanishing_poly_reducer(T)
    assert q.degree == 104


# ---------------------------------------------------------------------------
# one finite-map class: an FpVectorOperator is a FiniteOperator with one graph
# ---------------------------------------------------------------------------

def power_steps(t, m):
    """T^m of a table, one composition at a time."""
    out = np.arange(len(t))
    for _ in range(m):
        out = t[out]
    return out


@st.composite
def large_fp_maps(draw):
    """Random maps of F_p^n with at most 243 points."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, {2: 7, 3: 5, 5: 3}[p]))
    size = p ** n
    if draw(st.booleans()):
        return FpVectorOperator(p, n, draw(st.lists(st.integers(0, size - 1),
                                                    min_size=size, max_size=size)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return FpVectorOperator(p, n, np.random.default_rng(seed).integers(0, size, size))


@settings(max_examples=60)
@given(large_fp_maps())
def test_fp_operator_is_a_finite_operator_with_one_graph(T):
    t = T.table
    assert isinstance(T, FiniteOperator)
    ld = left_drazin_inverse(T)
    for G, m in [(ld.inverse, ld.parameter), left_drazin_from_poly(minimal_poly(T), T)]:
        assert np.array_equal(G.table[power_steps(t, m + 1)], power_steps(t, m))
    res = drazin_inverse(T)
    assert res.inverse == drazin_inverse(FiniteOperator(T.size, T.size, T.table)).inverse
    assert res.graph is T.graph


def test_fp_operator_equals_the_finite_operator_of_its_table():
    t = [3, 0, 0, 2, 8, 1, 4, 4, 7]
    assert FpVectorOperator(3, 2, t) == FiniteOperator(9, 9, t)
    assert FiniteOperator(9, 9, t) == FpVectorOperator(3, 2, t)
    assert FpVectorOperator(3, 2, t) != FiniteOperator(9, 9, t[::-1])
    assert FpVectorOperator.__hash__ is None and FiniteOperator.__hash__ is None


@pytest.mark.parametrize("T", [FiniteOperator(3, 2, [1, 1, 0]),
                               FpVectorOperator(2, 2, [1, 2, 3, 0])])
def test_finite_map_tables_are_read_only_and_give_python_ints(T):
    with pytest.raises(ValueError):
        T.table[0] = 0
    with pytest.raises(AttributeError):
        T.table = np.zeros(T.domain_size, dtype=np.int64)
    assert type(T(1)) is int
    assert all(type(x) is int for x in T.to_json()["table"])


def test_the_cached_graph_is_shared_and_read_only():
    T = FiniteOperator(4, 4, [1, 2, 2, 0])
    assert image_chain(T).exit_level is T.graph.exit_level is drazin_inverse(T).graph.exit_level
    with pytest.raises(ValueError):
        T.graph.on_cycle[0] = True
    with pytest.raises(ValueError):
        FiniteOperator(2, 3, [0, 2]).graph


def test_functional_graph_is_defined_once():
    import geninv.core_ops
    import geninv.endofunction
    assert geninv.endofunction.functional_graph is geninv.core_ops.functional_graph
