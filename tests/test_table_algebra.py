"""Differential tests: the array-native table algebra against per-id loops.

`set_inverse` builds, checks and counts {1,2}-inverses with bincount,
unique and searchsorted on int64 tables; the vanishing-polynomial
inverses evaluate the coefficient tail with `fp_apply_polynomial`. The
loops they replaced live in helpers.py and must give the same answers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import (FiniteOperator, power, OneTwoInverseSpec, InvalidSpec, default_spec,
                    build_one_two_inverse, double_inverse, one_two_inverse_count,
                    FpVectorOperator, OperatorPolynomial, find_vanishing_poly,
                    poly_left_inverse, left_drazin_from_poly)

from helpers import (one_two_spec_valid_loop, default_spec_loop, one_two_inverse_loop,
                     double_inverse_loop, one_two_inverse_count_loop, tail_operator_loop)

SRC = Path(__file__).resolve().parent.parent / "src"

maps = st.tuples(st.integers(1, 30), st.integers(1, 30)).flatmap(
    lambda s: st.tuples(st.just(s[1]),
                        st.lists(st.integers(0, s[1] - 1), min_size=s[0], max_size=s[0])))


def random_spec(T, rng):
    """One random source per image element and a random retraction that is
    the identity on the image."""
    img = np.unique(T.arr)
    v0 = [int(rng.choice(np.flatnonzero(T.arr == w))) for w in img]
    rng.shuffle(v0)
    p0 = rng.choice(img, size=T.codomain_size)
    p0[img] = img
    return OneTwoInverseSpec(tuple(v0), tuple(p0.tolist()))


def assert_matches_loops(T, spec):
    G = build_one_two_inverse(T, spec)
    assert G.table == one_two_inverse_loop(T, spec.v0, spec.p0)
    assert double_inverse(T, G).table == double_inverse_loop(T, G) == T.table


@given(maps, st.integers(0, 2 ** 32 - 1))
def test_one_two_inverse_matches_loops(codomain_and_table, seed):
    codomain, t = codomain_and_table
    T = FiniteOperator(len(t), codomain, t)
    spec = default_spec(T)
    assert (spec.v0, spec.p0) == default_spec_loop(T)
    assert all(type(x) is int for x in spec.v0 + spec.p0)
    assert_matches_loops(T, spec)
    assert_matches_loops(T, random_spec(T, np.random.default_rng(seed)))
    assert one_two_inverse_count(T) == one_two_inverse_count_loop(T)


@given(maps, st.integers(0, 2 ** 32 - 1))
def test_spec_validation_matches_loop(codomain_and_table, seed):
    # one entry of a valid spec moved to a random id or dropped: accepted
    # exactly when the per-id check accepts it
    codomain, t = codomain_and_table
    T = FiniteOperator(len(t), codomain, t)
    rng = np.random.default_rng(seed)
    spec = random_spec(T, rng)
    v0, p0 = list(spec.v0), list(spec.p0)
    side = v0 if rng.integers(2) else p0
    i = rng.integers(len(side))
    if rng.integers(2):
        side[i] = int(rng.integers(-1, max(T.domain_size, codomain) + 1))
    else:
        del side[i]
    bent = OneTwoInverseSpec(tuple(v0), tuple(p0))
    if one_two_spec_valid_loop(T, bent.v0, bent.p0):
        assert build_one_two_inverse(T, bent).table == one_two_inverse_loop(T, v0, p0)
    else:
        with pytest.raises(InvalidSpec):
            build_one_two_inverse(T, bent)


def test_one_two_inverse_matches_loops_at_size():
    rng = np.random.default_rng(5)
    T = FiniteOperator(20_000, 15_000, rng.integers(0, 15_000, 20_000))
    spec = default_spec(T)
    assert (spec.v0, spec.p0) == default_spec_loop(T)
    assert_matches_loops(T, spec)
    assert_matches_loops(T, random_spec(T, rng))
    assert one_two_inverse_count(T) == one_two_inverse_count_loop(T)


def test_count_with_empty_sides():
    assert one_two_inverse_count(FiniteOperator(0, 0, ())) == 1
    assert one_two_inverse_count(FiniteOperator(0, 3, ())) == 0
    with pytest.raises(ValueError):
        default_spec(FiniteOperator(0, 3, ()))


@pytest.mark.parametrize("v0", [(0.9, 2.2), (True, 2), (0, 2.0), ("0", "2")])
def test_spec_rejects_non_integer_sources(v0):
    T = FiniteOperator(3, 2, (1, 1, 0))
    with pytest.raises(InvalidSpec):
        OneTwoInverseSpec(v0, (0, 1)).validate(T)
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T, OneTwoInverseSpec(v0, (0, 1)))


def test_spec_rejects_non_integer_retraction_and_json_floats():
    T = FiniteOperator(3, 2, (1, 1, 0))
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T, OneTwoInverseSpec((0, 2), (0.0, 1.0)))
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T, OneTwoInverseSpec((0, 2), (False, True)))
    spec = OneTwoInverseSpec.from_json(json.dumps({"v0": [0.0, 2.0], "p0": [0, 1]}))
    with pytest.raises(InvalidSpec):
        build_one_two_inverse(T, spec)
    assert build_one_two_inverse(
        T, OneTwoInverseSpec.from_json('{"v0": [0, 2], "p0": [0, 1]}')).table == (2, 0)


@pytest.mark.parametrize("table", [[0.7, 1.2], [1.0, 0.0], [True, False], [1, True],
                                   np.array([0.5, 1.0]), [[0, 1]], [0, 2], [-1, 0], [0]])
def test_fp_vector_operator_rejects_bad_tables(table):
    with pytest.raises(ValueError):
        FpVectorOperator(2, 1, table)


def vanishing_case(p, n, seed, permutation):
    rng = np.random.default_rng(seed)
    size = p ** n
    T = FpVectorOperator(p, n, rng.permutation(size) if permutation
                         else rng.integers(0, size, size))
    coeffs = rng.integers(0, p, 3)
    if permutation:               # with x^c - 1 factors, a0 != 0: a left inverse exists
        coeffs[0] = 1 + rng.integers(p - 1)
    factor = OperatorPolynomial(coeffs, p)
    poly = find_vanishing_poly(T)
    return T, (poly if factor.is_zero else poly.mul(factor))


@settings(max_examples=60)
@given(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 1), (5, 2)]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_polynomial_inverses_match_loops(space, seed, permutation):
    T, poly = vanishing_case(*space, seed, permutation)
    k = next(i for i, a in enumerate(poly.coeffs) if a)
    G, m = left_drazin_from_poly(poly, T)
    assert np.array_equal(G.table, tail_operator_loop(poly, k, T))
    assert m == max(k, 1)
    S = poly_left_inverse(poly, T)
    if k:
        assert S is None
    else:
        assert np.array_equal(S.table, tail_operator_loop(poly, 0, T))


@pytest.mark.parametrize("prime", ["-1", "0", "1", "4"])
def test_vanish_rejects_non_prime_promptly(tmp_path, prime):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"domain": 4, "codomain": 4, "table": [1, 0, 3, 2]}))
    # p ** n < size never fails for p in {-1, 0, 1}: a regression hangs, so
    # it runs in a subprocess with a timeout
    proc = subprocess.run([sys.executable, "-m", "geninv.cli", "vanish", "--op", str(op),
                           "--prime", prime], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_negative_powers_rejected():
    with pytest.raises(ValueError):
        power(FiniteOperator(2, 2, (1, 0)), -1)
    with pytest.raises(ValueError):                  # looped forever before
        FpVectorOperator(2, 1, [1, 0]).power(-1)
    assert FpVectorOperator(2, 2, [1, 2, 3, 0]).power(6).table.tolist() == [2, 3, 0, 1]
