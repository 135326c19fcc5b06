"""Differential tests: the array-native table algebra against per-id loops.

`set_inverse` builds, checks and counts {1,2}-inverses with bincount,
running scans and `np.minimum.at` on int64 tables, in O(n + m) time; the
sorting forms they replaced (`np.unique`, searchsorted) stay in helpers.py
and must give the same specs, counts and images. The vanishing-polynomial
inverses evaluate the coefficient tail once with `fp_apply_polynomial`
and certify it by the table identity G T^(k+1) = T^k, which holds exactly
when the polynomial vanishes. The loops they replaced live in helpers.py
and must give the same answers; a polynomial that does not vanish must
raise ValueError exactly where `poly_vanishes` is False.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geninv import (FiniteOperator, power, image, OneTwoInverseSpec, InvalidSpec, default_spec,
                    build_one_two_inverse, double_inverse, one_two_inverse_count,
                    FpVectorOperator, OperatorPolynomial, find_vanishing_poly,
                    poly_vanishes, poly_left_inverse, left_drazin_from_poly)

from helpers import (one_two_spec_valid_loop, default_spec_loop, one_two_inverse_loop,
                     double_inverse_loop, one_two_inverse_count_loop, tail_operator_loop,
                     image_unique, default_spec_unique, one_two_inverse_count_unique,
                     is_surjective_unique)

SRC = Path(__file__).resolve().parent.parent / "src"

maps = st.tuples(st.integers(1, 30), st.integers(1, 30)).flatmap(
    lambda s: st.tuples(st.just(s[1]),
                        st.lists(st.integers(0, s[1] - 1), min_size=s[0], max_size=s[0])))


def random_spec(T, rng):
    """One random source per image element and a random retraction that is
    the identity on the image."""
    img = np.unique(T.table)
    v0 = [int(rng.choice(np.flatnonzero(T.table == w))) for w in img]
    rng.shuffle(v0)
    p0 = rng.choice(img, size=T.codomain_size)
    p0[img] = img
    return OneTwoInverseSpec(v0, p0)


def assert_spec_is(spec, v0, p0):
    """spec stores exactly (v0, p0), each as a read-only int64 array."""
    for arr, ids in ((spec.v0, v0), (spec.p0, p0)):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert np.array_equal(arr, ids)


def assert_matches_loops(T, spec):
    G = build_one_two_inverse(T, spec)
    assert np.array_equal(G.table, one_two_inverse_loop(T, spec.v0, spec.p0))
    assert np.array_equal(double_inverse(T, G).table, double_inverse_loop(T, G))
    assert np.array_equal(double_inverse_loop(T, G), T.table)


@given(maps, st.integers(0, 2 ** 32 - 1))
def test_one_two_inverse_matches_loops(codomain_and_table, seed):
    codomain, t = codomain_and_table
    T = FiniteOperator(len(t), codomain, t)
    spec = default_spec(T)
    assert_spec_is(spec, *default_spec_loop(T))
    assert_matches_loops(T, spec)
    assert_matches_loops(T, random_spec(T, np.random.default_rng(seed)))
    assert one_two_inverse_count(T) == one_two_inverse_count_loop(T)


@given(maps, st.integers(0, 2 ** 32 - 1))
def test_spec_validation_matches_loop(codomain_and_table, seed):
    # one entry of a valid spec moved to a random id or dropped: accepted
    # exactly when the per-id check accepts it, where the spec is built or
    # where it is checked against T
    codomain, t = codomain_and_table
    T = FiniteOperator(len(t), codomain, t)
    rng = np.random.default_rng(seed)
    spec = random_spec(T, rng)
    v0, p0 = spec.v0.tolist(), spec.p0.tolist()
    side = v0 if rng.integers(2) else p0
    i = rng.integers(len(side))
    if rng.integers(2):
        side[i] = int(rng.integers(-1, max(T.domain_size, codomain) + 1))
    else:
        del side[i]
    if one_two_spec_valid_loop(T, v0, p0):
        assert np.array_equal(build_one_two_inverse(T, OneTwoInverseSpec(v0, p0)).table,
                              one_two_inverse_loop(T, v0, p0))
    else:
        with pytest.raises(InvalidSpec):
            build_one_two_inverse(T, OneTwoInverseSpec(v0, p0))


def test_one_two_inverse_matches_loops_at_size():
    rng = np.random.default_rng(5)
    T = FiniteOperator(20_000, 15_000, rng.integers(0, 15_000, 20_000))
    spec = default_spec(T)
    assert_spec_is(spec, *default_spec_loop(T))
    assert_matches_loops(T, spec)
    assert_matches_loops(T, random_spec(T, rng))
    assert one_two_inverse_count(T) == one_two_inverse_count_loop(T)


# maps with n, m <= 40, the domain possibly empty
small_maps = st.integers(0, 40).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), max_size=40)
                        if m else st.just([])))


@given(small_maps)
@example((0, []))
@example((3, []))                               # empty domain: no retraction
@example((1, [0]))                              # a single point
@example((4, [2, 0, 3, 1]))                     # full image, a permutation
@example((3, [2, 2, 0, 1, 0]))                  # full image, not injective
@example((6, [4, 2, 2, 4]))                     # off-image ids at both ends and a tie
def test_counting_kernels_match_np_unique(case):
    codomain, t = case
    T = FiniteOperator(len(t), codomain, tuple(t))
    img, want = image(T), image_unique(T)
    assert img.dtype == want.dtype and np.array_equal(img, want)
    assert one_two_inverse_count(T) == one_two_inverse_count_unique(T)
    if codomain and not t:
        for spec in (default_spec, default_spec_unique):
            with pytest.raises(ValueError):
                spec(T)
    else:
        assert_spec_is(default_spec(T), *default_spec_unique(T))


@given(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1), (2, 5)]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3))
def test_is_surjective_matches_np_unique(space, seed, kind):
    p, n = space
    rng = np.random.default_rng(seed)
    table = {1: rng.integers(0, p ** n, p ** n),            # rarely onto
             2: rng.permutation(p ** n),                    # onto
             3: np.minimum(rng.permutation(p ** n), p ** n - 2)}[kind]   # one id missed
    T = FpVectorOperator(p, n, table)
    assert T.is_surjective() is is_surjective_unique(T)


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
    with pytest.raises(InvalidSpec):          # where the spec is built
        OneTwoInverseSpec.from_json(json.dumps({"v0": [0.0, 2.0], "p0": [0, 1]}))
    assert np.array_equal(build_one_two_inverse(
        T, OneTwoInverseSpec.from_json('{"v0": [0, 2], "p0": [0, 1]}')).table, (2, 0))


@pytest.mark.parametrize("table", [[0.7, 1.2], [1.0, 0.0], [True, False], [1, True],
                                   np.array([0.5, 1.0]), [[0, 1]], [0, 2], [-1, 0], [0]])
def test_fp_vector_operator_rejects_bad_tables(table):
    with pytest.raises(ValueError):
        FpVectorOperator(2, 1, table)


@pytest.mark.parametrize("n", [-1, 1.0, True, np.float64(1.0), "1", None])
def test_fp_vector_operator_rejects_bad_n_before_the_table(n):
    with pytest.raises(ValueError, match="n must"):
        FpVectorOperator(2, n, [1, 0])


def test_fp_vector_operator_takes_integer_kinds_of_n():
    T = FpVectorOperator(np.int64(2), np.int64(1), [1, 0])
    assert (T.p, T.n, T.size) == (2, 1, 2) and type(T.n) is int
    assert FpVectorOperator(3, 0, [0]).size == 1


def vanishing_case(p, n, seed, permutation, vanishing):
    """T and a multiple of its vanishing polynomial, or, when `vanishing` is
    False, that polynomial plus a random one of degree <= 2: the sum
    vanishes in T exactly when the added one does."""
    rng = np.random.default_rng(seed)
    size = p ** n
    T = FpVectorOperator(p, n, rng.permutation(size) if permutation
                         else rng.integers(0, size, size))
    coeffs = rng.integers(0, p, 3)
    if permutation:               # with x^c - 1 factors, a0 != 0: a left inverse exists
        coeffs[0] = 1 + rng.integers(p - 1)
    factor = OperatorPolynomial(coeffs, p)
    poly = find_vanishing_poly(T)
    if not vanishing:
        return T, poly.add(factor)
    return T, (poly if factor.is_zero else poly.mul(factor))


def check_polynomial_inverses(T, poly):
    """Both inverses raise ValueError exactly where poly fails to vanish in
    T, and match the loop tables everywhere else."""
    if not poly_vanishes(poly, T):
        for f in (left_drazin_from_poly, poly_left_inverse):
            with pytest.raises(ValueError, match="does not vanish"):
                f(poly, T)
        return
    k = next(i for i, a in enumerate(poly.coeffs) if a)
    G, m = left_drazin_from_poly(poly, T)
    assert np.array_equal(G.table, tail_operator_loop(poly, k, T))
    assert m == max(k, 1)
    S = poly_left_inverse(poly, T)
    if k:
        assert S is None
    else:
        assert np.array_equal(S.table, tail_operator_loop(poly, 0, T))


@settings(max_examples=60)
@given(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 1), (5, 2)]),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_polynomial_inverses_match_loops(space, seed, permutation, vanishing):
    check_polynomial_inverses(*vanishing_case(*space, seed, permutation, vanishing))


def test_inverses_certify_at_k_plus_one():
    # x - 1 does not vanish in T = 0 on F_2, yet its G = 0 passes the weaker
    # G T^(m+1) = T^m at m = max(k, 1) = 1; G T^(k+1) = T^k at k = 0 fails
    T, q = FpVectorOperator(2, 1, [0, 0]), OperatorPolynomial([-1, 1], 2)
    assert not poly_vanishes(q, T)
    check_polynomial_inverses(T, q)


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
