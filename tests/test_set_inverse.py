import numpy as np
import pytest

from geninv import (FiniteOperator, compose, image,
                    OneTwoInverseSpec, InvalidSpec, default_spec,
                    build_one_two_inverse, double_inverse, check_mp_axioms,
                    enumerate_one_two_inverses, one_two_inverse_count)


def random_operator(rng, max_side=8):
    nv = int(rng.integers(1, max_side + 1))
    nw = int(rng.integers(1, max_side + 1))
    return FiniteOperator(nv, nw, rng.integers(0, nw, size=nv))


def test_build_bijection_gives_exact_inverse():
    T = FiniteOperator(3, 3, (2, 0, 1))
    G = build_one_two_inverse(T)
    assert compose(G, T) == FiniteOperator.identity(3)
    assert compose(T, G) == FiniteOperator.identity(3)


def test_build_idempotent_self_inverse():
    E = FiniteOperator(4, 4, (0, 0, 2, 2))
    # sources = the fixed points of E, retraction = E itself
    spec = OneTwoInverseSpec((0, 2), tuple(E.table))
    G = build_one_two_inverse(E, spec)
    assert G == E
    assert check_mp_axioms(E, E) == (True, True)


def test_build_worked_example():
    T = FiniteOperator(3, 2, (1, 1, 0))
    spec = OneTwoInverseSpec((0, 2), (0, 1))
    G = build_one_two_inverse(T, spec)
    assert G.table == (2, 0)


def test_invalid_specs_rejected():
    T = FiniteOperator(3, 2, (1, 1, 0))
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T, OneTwoInverseSpec((0, 1), (0, 1)))   # two sources of 1
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T, OneTwoInverseSpec((0, 2), (1, 1)))   # not identity on image
    T2 = FiniteOperator(2, 3, (0, 1))
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T2, OneTwoInverseSpec((0, 1), (0, 1)))  # p0 too short
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T2, OneTwoInverseSpec((0, 1), (0, 1, 2)))  # 2 not in image


def test_double_inverse_returns_t_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        T = random_operator(rng, 6)
        G = build_one_two_inverse(T)
        assert double_inverse(T, G) == T


def test_double_inverse_of_bijection():
    T = FiniteOperator(4, 4, (3, 2, 1, 0))
    G = build_one_two_inverse(T)
    assert double_inverse(T, G) == T


def test_double_inverse_rejects_non_inverse():
    T = FiniteOperator(3, 2, (1, 1, 0))
    bad = FiniteOperator(2, 3, (1, 1))
    with pytest.raises(InvalidSpec):
        double_inverse(T, bad)


def test_composition_counterexample():
    # T not onto: the componentwise inverses fail MP1 for the composite
    T = FiniteOperator(3, 3, (1, 1, 2))
    S = FiniteOperator(3, 2, (1, 0, 1))
    Tbar = FiniteOperator(3, 3, (0, 0, 2))
    Sbar = FiniteOperator(2, 3, (1, 0))
    assert check_mp_axioms(T, Tbar) == (True, True)
    assert check_mp_axioms(S, Sbar) == (True, True)
    ST = compose(S, T)
    G = compose(Tbar, Sbar)
    mp1, _ = check_mp_axioms(ST, G)
    assert not mp1


def test_composition_succeeds_when_inner_is_onto():
    rng = np.random.default_rng(1)
    hits = 0
    while hits < 20:
        T = random_operator(rng, 5)
        if len(image(T)) != T.codomain_size:
            continue               # need T onto V
        hits += 1
        S = FiniteOperator(T.codomain_size, 5,
                           rng.integers(0, 5, size=T.codomain_size))
        Tbar = build_one_two_inverse(T)
        Sbar = build_one_two_inverse(S)
        assert check_mp_axioms(compose(S, T), compose(Tbar, Sbar)) == (True, True)


def test_enumeration_bijection_unique():
    T = FiniteOperator(3, 3, (1, 2, 0))
    found = enumerate_one_two_inverses(T)
    assert len(found) == 1
    assert tuple(found[0]) == (2, 0, 1)


def test_enumeration_constant_map():
    T = FiniteOperator(3, 1, (0, 0, 0))
    found = enumerate_one_two_inverses(T)
    assert len(found) == 3 == one_two_inverse_count(T)


def test_enumeration_projection_not_unique():
    # |C| > 1 and C proper: self-inverse is not the only {1,2}-inverse
    E = FiniteOperator(4, 4, (0, 0, 2, 2))
    found = enumerate_one_two_inverses(E)
    assert len(found) > 1
    assert any(tuple(g) == E.table for g in found)


def test_enumeration_cap():
    T = FiniteOperator(8, 8, tuple([0] * 8))
    with pytest.raises(ValueError):
        enumerate_one_two_inverses(T, cap=10)


def test_enumeration_matches_count_formula():
    rng = np.random.default_rng(2)
    for _ in range(40):
        T = random_operator(rng, 5)
        found = enumerate_one_two_inverses(T)
        assert len(found) == one_two_inverse_count(T)


def test_constructed_inverse_is_enumerated():
    rng = np.random.default_rng(3)
    for _ in range(25):
        T = random_operator(rng, 5)
        G = build_one_two_inverse(T)
        found = enumerate_one_two_inverses(T)
        assert any(tuple(row) == G.table for row in found)


def test_enumerated_inverses_symmetric_and_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(15):
        T = random_operator(rng, 5)
        for row in enumerate_one_two_inverses(T):
            G = FiniteOperator(T.codomain_size, T.domain_size, row)
            # symmetry of the axioms: G in T{1,2} iff T in G{1,2}
            assert check_mp_axioms(G, T) == (True, True)
            TG = compose(T, G)
            GT = compose(G, T)
            assert compose(TG, TG) == TG
            assert compose(GT, GT) == GT


def test_default_spec_validates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = random_operator(rng, 6)
        default_spec(T).validate(T)


def test_spec_json_roundtrip():
    T = FiniteOperator(3, 2, (1, 1, 0))
    spec = default_spec(T)
    back = OneTwoInverseSpec.from_json(spec.to_json())
    assert back == spec
    assert build_one_two_inverse(T, back) == build_one_two_inverse(T, spec)


def test_exhaustive_small_shapes():
    # every operator between id sets of size <= 3: enumeration count equals
    # the combinatorial formula, the construction is enumerated, and the
    # double inverse is exact
    import itertools
    for nv in (1, 2, 3):
        for nw in (1, 2, 3):
            for table in itertools.product(range(nw), repeat=nv):
                T = FiniteOperator(nv, nw, table)
                found = enumerate_one_two_inverses(T)
                assert len(found) == one_two_inverse_count(T)
                G = build_one_two_inverse(T)
                assert any(tuple(int(x) for x in row) == G.table for row in found)
                assert double_inverse(T, G) == T


def test_matrix_pair_as_finite_model():
    # the idempotent matrix [[0,0],[1,1]] and its metric inverse
    # [[0,.5],[0,.5]] restricted to a finite orbit: the pair satisfies both
    # axioms as plain id tables and shows up in the enumeration
    # V-points: (1,1), (0,2), (2,0), (0,0), (.5,.5)
    # W-points: (0,2), (0,0), (1,1), (0,1)
    T = FiniteOperator(5, 4, (0, 0, 0, 1, 3))
    G = FiniteOperator(4, 5, (0, 3, 4, 4))
    assert check_mp_axioms(T, G) == (True, True)
    found = enumerate_one_two_inverses(T)
    assert any(tuple(int(x) for x in row) == G.table for row in found)


def test_enumeration_constant_map_with_off_image_point():
    # constant map onto w0 with one extra codomain id: the off-image value
    # is forced to the single image element's inverse, so still 3 inverses
    T = FiniteOperator(3, 2, (0, 0, 0))
    found = enumerate_one_two_inverses(T)
    assert len(found) == 3 == one_two_inverse_count(T)
    for row in found:
        assert row[1] == row[0]


def test_spec_to_json_rejects_what_it_would_truncate():
    with pytest.raises(InvalidSpec):
        OneTwoInverseSpec((0.9, 2.2), (True, 1.7)).to_json()
    with pytest.raises(InvalidSpec):
        OneTwoInverseSpec((0, 1), (0, 5)).to_json()       # p0 maps outside its length
    with pytest.raises(InvalidSpec):
        OneTwoInverseSpec((-1,), (0,)).to_json()
    spec = OneTwoInverseSpec((np.int64(2), 0), (0, 0, 2))
    assert spec.to_json() == {"v0": [2, 0], "p0": [0, 0, 2]}
