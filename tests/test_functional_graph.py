"""The functional-graph kernel against the step-by-step oracles in helpers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from geninv import (FiniteOperator, FpVectorOperator, image_chain, drazin_inverse,
                    left_drazin_inverse, exhaustive_drazin_search,
                    stabilization_profile, find_vanishing_poly)
from geninv.endofunction import functional_graph

from helpers import (image_chain_steps, walk_graph, drazin_steps, left_drazin_steps,
                     stabilization_profile_steps, vanishing_poly_reducer)


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


@given(maps)
def test_kernel_matches_walks(t):
    fg = functional_graph(t)
    on_cycle, cycle_length, depth = walk_graph(t)
    assert fg.on_cycle.tolist() == on_cycle
    assert fg.cycle_length.tolist() == cycle_length
    assert fg.depth.tolist() == depth
    assert fg.k == max(depth)


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
    assert res.inverse.table == tuple(g.tolist())
    assert (res.index, res.k) == (index, k)


@given(maps)
def test_left_drazin_matches_step_assignment(t):
    table, parameter, k = left_drazin_steps(t)
    res = left_drazin_inverse(FiniteOperator(len(t), len(t), t))
    assert res.inverse.table == tuple(table.tolist())
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
    assert res.inverse.table == (0,) * n
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
