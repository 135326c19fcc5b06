import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import (FiniteOperator, VectorOperator, OperatorPolynomial,
                    compose, power, image, apply_polynomial, DimensionMismatch)
from geninv.numerics import fp_poly_divmod
from geninv.vanishing import FpVectorOperator, fp_apply_polynomial

from helpers import (poly_trim, poly_mul_list, poly_divmod_list, poly_gcd_list,
                     poly_lcm_list)


def test_compose_identity_cases():
    T = FiniteOperator(3, 2, (1, 0, 1))
    assert compose(T, FiniteOperator.identity(3)) == T
    assert compose(FiniteOperator.identity(2), T) == T


def test_compose_swap_is_involution():
    swap = FiniteOperator(2, 2, (1, 0))
    assert compose(swap, swap) == FiniteOperator.identity(2)


def test_compose_rejects_mismatch():
    T = FiniteOperator(3, 2, (1, 0, 1))
    with pytest.raises(DimensionMismatch):
        compose(T, T)


def test_power_zero_is_identity():
    T = FiniteOperator(4, 4, (1, 2, 3, 0))
    assert power(T, 0) == FiniteOperator.identity(4)


def test_power_idempotent():
    E = FiniteOperator(4, 4, (0, 0, 2, 2))
    assert compose(E, E) == E
    assert power(E, 5) == E


def test_power_swap_squares_to_identity():
    swap = FiniteOperator(2, 2, (1, 0))
    assert power(swap, 2) == FiniteOperator.identity(2)


def test_power_additivity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        T = FiniteOperator(n, n, rng.integers(0, n, size=n))
        a, b = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        assert power(T, a + b) == compose(power(T, a), power(T, b))


def test_image_examples():
    assert list(image(FiniteOperator.identity(3))) == [0, 1, 2]
    assert list(image(FiniteOperator(4, 4, (2, 2, 2, 2)))) == [2]
    assert list(image(FiniteOperator(3, 2, (1, 1, 0)))) == [0, 1]


def test_apply_polynomial_monomial_and_constant():
    T = VectorOperator.pointwise(np.tanh, 2)
    v = np.array([0.3, -1.2])
    x = OperatorPolynomial([0.0, 1.0])
    assert np.allclose(apply_polynomial(x, T, v), np.tanh(v))
    one = OperatorPolynomial([1.0])
    assert np.allclose(apply_polynomial(one, T, v), v)


def test_apply_polynomial_idempotent_annihilator():
    # projection onto the first axis is idempotent, so x^2 - x kills it
    P = VectorOperator(2, 2, lambda b: b * np.array([1.0, 0.0]))
    q = OperatorPolynomial([0.0, -1.0, 1.0])
    for v in np.random.default_rng(0).normal(size=(10, 2)):
        assert np.allclose(apply_polynomial(q, P, v), 0.0, atol=1e-14)


def test_right_distributivity_real():
    rng = np.random.default_rng(1)
    T = VectorOperator.pointwise(lambda b: np.tanh(b) + 0.1 * b ** 2, 3)
    for _ in range(10):
        p = OperatorPolynomial(rng.normal(size=4))
        q = OperatorPolynomial(rng.normal(size=3))
        v = rng.normal(size=3)
        lhs = apply_polynomial(p.add(q), T, v)
        rhs = apply_polynomial(p, T, v) + apply_polynomial(q, T, v)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_product_polynomial_composition_rule_real():
    # (pq)(T)(v) = sum_i b_i p(T)(T^i(v)), checked to 1e-12
    rng = np.random.default_rng(2)
    T = VectorOperator.pointwise(lambda b: np.sin(b), 2)
    for _ in range(10):
        p = OperatorPolynomial(rng.normal(size=3))
        q = OperatorPolynomial(rng.normal(size=3))
        v = rng.normal(size=2)
        lhs = apply_polynomial(p.mul(q), T, v)
        rhs = np.zeros(2)
        it = v
        for i, b in enumerate(q.coeffs):
            if i > 0:
                it = T.apply(it)
            rhs = rhs + b * apply_polynomial(p, T, it)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_product_polynomial_composition_rule_fp():
    rng = np.random.default_rng(4)
    for prime in (2, 3, 5):
        T = FpVectorOperator(prime, 2,
                             rng.integers(0, prime ** 2, size=prime ** 2))
        p = OperatorPolynomial(rng.integers(0, prime, size=4), prime)
        q = OperatorPolynomial(rng.integers(0, prime, size=3), prime)
        if p.is_zero or q.is_zero:
            continue
        lhs = fp_apply_polynomial(p.mul(q), T)
        rhs = np.zeros_like(lhs)
        cur = np.arange(T.size)
        for i, b in enumerate(q.coeffs):
            if i > 0:
                cur = T.table[cur]
            contrib = fp_apply_polynomial(p, T)
            # p(T) evaluated at T^i(v): permute rows by the iterate
            rhs = (rhs + b * contrib[cur]) % prime
        assert np.array_equal(lhs, rhs)


def test_polynomial_divmod_exact():
    p5 = OperatorPolynomial([1, 3, 0, 2], 5)       # 2x^3 + 3x + 1
    d = OperatorPolynomial([4, 1], 5)              # x + 4
    q, r = p5.divmod(d)
    assert q.mul(d).add(r) == p5
    assert r.is_zero or r.degree < d.degree


def test_polynomial_json_roundtrip():
    p = OperatorPolynomial([1, 0, 4], 5)
    assert OperatorPolynomial.from_json(p.to_json()) == p
    q = OperatorPolynomial([0.5, -1.0])
    assert OperatorPolynomial.from_json(q.to_json()) == q


@pytest.mark.parametrize("obj", [
    {"field": {"prime": 5}, "coeffs": [1.5, 1]},
    {"field": {"prime": 5}, "coeffs": [1.0, 1]},
    {"field": {"prime": 5}, "coeffs": [True, 1]},
    {"field": {"prime": 4}, "coeffs": [1, 1]},
    {"field": {"prime": 5.0}, "coeffs": [1, 1]},
])
def test_polynomial_from_json_rejects_bad_prime_field_input(obj):
    with pytest.raises(ValueError):
        OperatorPolynomial.from_json(obj)


def test_finite_operator_json_roundtrip():
    T = FiniteOperator(3, 2, (1, 1, 0))
    assert FiniteOperator.from_json(T.to_json()) == T


@pytest.mark.parametrize("table", [(1.7, 0.2), (1.0, 0.0), (True, False), (1, True),
                                   (np.True_, 0), ("1", "0"), (1, None),
                                   np.array([1.5, 0.0]), np.array([True, False])])
def test_finite_operator_rejects_non_integer_entries(table):
    with pytest.raises(ValueError):
        FiniteOperator(2, 2, table)


@pytest.mark.parametrize("table", [[0.5, 1], [1, True], [False, 0], [2 ** 70, 0]])
def test_finite_operator_from_json_rejects_non_integer_entries(table):
    with pytest.raises(ValueError):
        FiniteOperator.from_json({"domain": 2, "codomain": 2, "table": table})


@pytest.mark.parametrize("obj", [
    {"domain": 2.9, "codomain": "2", "table": [1, 0]},
    {"domain": 2.0, "codomain": 2, "table": [1, 0]},
    {"domain": True, "codomain": True, "table": [0]},
    {"domain": 2, "codomain": None, "table": [1, 0]},
    {"domain": 2, "codomain": 2, "table": 5},
    {"domain": 2, "codomain": 2, "table": {}},
    {"domain": 0, "codomain": 0, "table": {}},
    {"domain": 2, "codomain": 2, "table": "10"},
])
def test_finite_operator_from_json_rejects_non_integer_sizes_and_tables(obj):
    with pytest.raises(ValueError):
        FiniteOperator.from_json(obj)


def test_finite_operator_accepts_integer_kinds():
    expect = FiniteOperator(3, 3, (2, 0, 1))
    assert FiniteOperator(3, 3, [2, 0, 1]) == expect
    assert FiniteOperator(3, 3, np.array([2, 0, 1], dtype=np.uint8)) == expect
    assert FiniteOperator(3, 3, tuple(np.array([2, 0, 1]))) == expect
    assert all(type(x) is int for x in FiniteOperator(3, 3, np.array([2, 0, 1])).table)
    assert FiniteOperator(0, 0, np.array([])).table == ()


def test_vector_operator_affine_wrapper():
    T = VectorOperator.from_scalar(lambda v: np.maximum(v, 0.0))
    S = VectorOperator.affine_of(T, 2.0, 3.0, np.array([1.0]))
    v = np.array([0.5])
    assert np.allclose(S.apply(v), 2.0 * np.maximum(3.0 * v, 0) + 1.0)


# ---------------------------------------------------------------------------
# array F_p polynomial arithmetic against the list oracles
# ---------------------------------------------------------------------------

POLY_PRIMES = [2, 3, 65521, 2 ** 31 - 1]


def coeff_lists(p, max_size=12):
    return st.lists(st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1])),
                    max_size=max_size)


@st.composite
def poly_pairs(draw):
    """(p, a, b): coefficient lists, with zero, degree-0, equal-degree and
    common-factor operands drawn on purpose."""
    p = draw(st.sampled_from(POLY_PRIMES))
    a, b = draw(coeff_lists(p)), draw(coeff_lists(p))
    shape = draw(st.sampled_from(["any", "zero", "constant", "equal", "common"]))
    if shape == "zero":
        a, b = draw(st.permutations([a, []]))
    elif shape == "constant":
        b = [draw(st.integers(1, p - 1))]
    elif shape == "equal":
        size = draw(st.integers(0, 9))
        a, b = [draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
                + [draw(st.integers(1, p - 1))] for _ in range(2)]
    elif shape == "common":
        f = draw(coeff_lists(p, 6))
        a, b = poly_mul_list(a, f, p), poly_mul_list(b, f, p)
    return p, a, b


@settings(max_examples=300)
@given(poly_pairs())
def test_poly_mul_matches_list(pab):
    p, a, b = pab
    prod = OperatorPolynomial(a, p).mul(OperatorPolynomial(b, p))
    assert list(prod.coeffs) == poly_mul_list(poly_trim(a, p), poly_trim(b, p), p)


@settings(max_examples=300)
@given(poly_pairs())
def test_poly_divmod_matches_list(pab):
    p, a, b = pab
    A, B = OperatorPolynomial(a, p), OperatorPolynomial(b, p)
    if B.is_zero:
        with pytest.raises(ZeroDivisionError):
            A.divmod(B)
        return
    q, r = A.divmod(B)
    assert [list(q.coeffs), list(r.coeffs)] == list(poly_divmod_list(a, b, p))


@settings(max_examples=300)
@given(poly_pairs())
def test_poly_gcd_and_lcm_match_list(pab):
    p, a, b = pab
    A, B = OperatorPolynomial(a, p), OperatorPolynomial(b, p)
    assert list(A.gcd(B).coeffs) == poly_gcd_list(a, b, p)
    assert list(A.lcm(B).coeffs) == poly_lcm_list([a, b], p)


@settings(max_examples=100)
@given(st.sampled_from(POLY_PRIMES), st.integers(1, 6), st.data())
def test_poly_divmod_rows_match_list(p, rows, data):
    b = data.draw(coeff_lists(p, 6)) + [data.draw(st.integers(1, p - 1))]
    width = data.draw(st.integers(0, 14))
    A = np.array([data.draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
                  for _ in range(rows)], dtype=np.int64).reshape(rows, width)
    Q, R = fp_poly_divmod(A, b, p)
    for row, q, r in zip(A.tolist(), Q.tolist(), R.tolist()):
        assert (poly_trim(q, p), poly_trim(r, p)) == poly_divmod_list(row, b, p)


def test_poly_mul_of_long_operands_at_large_primes():
    # the limb path of fp_convolve against Python ints, at lengths where
    # one int64 convolution would overflow
    rng = np.random.default_rng(11)
    for p in (65521, 2 ** 31 - 1):
        a = rng.integers(0, p, 300).tolist()
        b = rng.integers(0, p, 200).tolist()
        b[-1] = a[-1] = p - 1
        got = OperatorPolynomial(a, p).mul(OperatorPolynomial(b, p))
        assert list(got.coeffs) == poly_mul_list(a, b, p)


def test_poly_field_mismatch_rejected():
    with pytest.raises(ValueError):
        OperatorPolynomial([1, 1], 5).mul(OperatorPolynomial([1, 1], 7))
    with pytest.raises(ValueError):
        OperatorPolynomial([1, 1], 5).gcd(OperatorPolynomial([1.0, 1.0]))
    assert OperatorPolynomial([2 ** 70, 3], 7) == OperatorPolynomial([2 ** 70 % 7, 3], 7)


def test_vector_power_applies_fn_k_times_in_one_closure():
    T = VectorOperator.pointwise(lambda b: 1.5 * np.cos(b) + 0.1, 1, name="f")
    P = T.power(5000)
    v = np.array([1.0])
    for _ in range(5000):
        v = T.apply(v)
    assert P.apply([1.0]).tobytes() == v.tobytes()
    assert P.name == "f^5000"
    assert T.power(0).apply([0.25]).tobytes() == np.array([0.25]).tobytes()
