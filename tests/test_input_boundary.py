"""The input boundary of the real-valued layer: every public vector of known
dimension is read through core_ops.as_vector before an operator is applied
or a grid is built, and every scalar parameter is checked by the class that
stores it, naming the field."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import numerics
from geninv import (Box, Grid, GridOracle, NeuralLayer, OperatorPolynomial, Scalar1DOperator,
                    VectorOperator, affine_pinv, apply_polynomial, clipped_tanh_layer_pinv,
                    expanding_domain_pinv, finite_bas_set, grid_bas_oracle, haar_basis, projection_after_operator_pinv,
                    relu_layer_pinv, tanh_layer_pinv)
from geninv.core_ops import DimensionMismatch, as_vector
from geninv.numerics import matrix_from_json
from geninv.vanishing import (FpVectorOperator, affine_vanishing_poly, cayley_hamilton_inverse,
                              encode)


class Spy:
    """Operators and a convex set whose rules record every batch they see."""

    def __init__(self):
        self.calls = []

    def rule(self, dim_out):
        def fn(batch):
            self.calls.append(batch.shape)
            return np.zeros((len(batch), dim_out))
        return fn

    def operator(self, dim_in, dim_out):
        return VectorOperator(dim_in, dim_out, self.rule(dim_out), name="spy")

    def box(self, dim):
        box = Box(np.zeros(dim), np.ones(dim))
        box.project_batch = self.rule(dim)
        return box


LAYER = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def _grid_scan(spy):
    grid = Grid(spy.operator(1, 2), [(-1.0, 1.0)], 0.5)
    return lambda: grid.scan([[0.0, 0.5], [0.5]])


def _oracle_query(spy):
    oracle = GridOracle(spy.operator(1, 2), [(-1.0, 1.0)], 0.5)
    return lambda: oracle.query([0.5])


# each entry takes a Spy and returns the call that must raise; what the entry
# builds before that call may use the spy, so its calls are cleared first
ENTRIES = {
    "VectorOperator.apply": lambda spy: lambda: spy.operator(2, 2).apply([1.0]),
    "apply_polynomial": lambda spy: lambda: apply_polynomial(
        OperatorPolynomial([2.0]), spy.operator(3, 3), [1.0]),
    "VectorOperator.affine_of": lambda spy: lambda: VectorOperator.affine_of(
        spy.operator(2, 2), 2.0, 3.0, [1.0]),
    "affine_pinv": lambda spy: lambda: affine_pinv(spy.operator(2, 2), 2.0, 3.0, [1.0]),
    "Grid.scan": _grid_scan,
    "GridOracle.query": _oracle_query,
    "grid_bas_oracle": lambda spy: lambda: grid_bas_oracle(
        spy.operator(1, 2), [0.5], [(-1.0, 1.0)], 0.5),
    "expanding_domain_pinv": lambda spy: lambda: expanding_domain_pinv(
        spy.operator(1, 2), [0.5], [1.0, 2.0], 2, 0.5),
    "ConvexSet.project": lambda spy: lambda: spy.box(2).project([0.5]),
    "ConvexSet.contains": lambda spy: lambda: spy.box(2).contains([0.5]),
    "projection_after_operator_pinv-target": lambda spy: lambda: projection_after_operator_pinv(
        spy.operator(2, 2), spy.box(2), [0.5], [(-1.0, 1.0)] * 2, 0.5),
    "projection_after_operator_pinv-probe": lambda spy: lambda: projection_after_operator_pinv(
        spy.operator(2, 2), spy.box(2), [0.5, 0.5], [(-1.0, 1.0)] * 2, 0.5,
        probes=[([0.0], [0.0, 0.0])]),
    "WaveletBasis.forward": lambda spy: lambda: haar_basis(4).forward([1.0, 2.0]),
    "WaveletBasis.inverse": lambda spy: lambda: haar_basis(4).inverse([1.0, 2.0]),
    "relu_layer_pinv": lambda spy: lambda: relu_layer_pinv(NeuralLayer(LAYER, "relu"), [0.5]),
    "tanh_layer_pinv": lambda spy: lambda: tanh_layer_pinv(NeuralLayer(LAYER, "tanh"), [0.5]),
    "clipped_tanh_layer_pinv": lambda spy: lambda: clipped_tanh_layer_pinv(
        NeuralLayer(LAYER, "tanh", 4), [0.5]),
    "finite_bas_set": lambda spy: lambda: finite_bas_set(np.eye(2), np.eye(2), [1.0]),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_vector_of_the_wrong_length_is_refused_before_any_operator_runs(entry):
    spy = Spy()
    call = ENTRIES[entry](spy)
    spy.calls.clear()
    with pytest.raises(DimensionMismatch, match="expected vector of dim"):
        call()
    assert spy.calls == []


@pytest.mark.parametrize("x, dim", [(2.5, 1), ([2.5], 1), (np.arange(3), 3), ((1, 2), 2)])
def test_as_vector_returns_a_float_vector(x, dim):
    v = as_vector(x, dim)
    assert v.dtype == np.float64 and v.shape == (dim,)
    assert np.array_equal(v, np.atleast_1d(x))


@pytest.mark.parametrize("x, dim", [([1.0], 2), (np.zeros((1, 2)), 2), (np.zeros((2, 1)), 2),
                                    ([], 1), (1.0, 2)])
def test_as_vector_refuses_another_shape(x, dim):
    with pytest.raises(DimensionMismatch):
        as_vector(x, dim)


NOT_REAL = [True, "4", None, [4.0]]
NOT_INTEGER = [True, "4", [4], 4.5]


MAKERS = {"a": lambda a: Scalar1DOperator("soft", a=a),
          "eps": lambda eps: Scalar1DOperator("sign_eps", eps=eps),
          "c": lambda c: Scalar1DOperator("linear", c=c),
          "clip": lambda clip: NeuralLayer(LAYER, "tanh", clip),
          "n": haar_basis}


@pytest.mark.parametrize("make, field, value", [
    pytest.param(MAKERS[field], field, value, id="%s=%r" % (field, value))
    for field, values in [("a", NOT_REAL), ("eps", NOT_REAL), ("c", NOT_REAL),
                          ("clip", NOT_INTEGER), ("n", NOT_INTEGER + [None])]
    for value in values])
def test_a_parameter_of_the_wrong_type_is_refused_by_name(make, field, value):
    with pytest.raises(ValueError, match='"%s"' % field):
        make(value)


BEYOND_FLOAT = 10 ** 400                  # a JSON integer that float() cannot hold


@pytest.mark.parametrize("make, field", [
    pytest.param(lambda: Scalar1DOperator("soft", a=BEYOND_FLOAT), '"a"', id="a"),
    pytest.param(lambda: Scalar1DOperator("linear", c=-BEYOND_FLOAT), '"c"', id="c"),
    pytest.param(lambda: matrix_from_json({"rows": 1, "cols": 2, "data": [1.0, BEYOND_FLOAT]}),
                 '"data"', id="data"),
    pytest.param(lambda: OperatorPolynomial([1.0, BEYOND_FLOAT]), "coefficients",
                 id="coefficients")])
def test_an_integer_past_the_float_range_is_refused_by_name(make, field):
    with pytest.raises(ValueError, match=field + " must be numbers within the float range"):
        make()


@pytest.mark.parametrize("kind", [["relu"], {"kind": "relu"}, 5, None])
def test_a_kind_that_is_not_a_string_is_refused(kind):
    with pytest.raises(ValueError, match='operator "kind" must be a string'):
        Scalar1DOperator(kind)


# ---------------------------------------------------------------------------
# the F_p boundary: every F_p entry point reads its inputs through
# numerics.fp_array
# ---------------------------------------------------------------------------

P31 = 2**31 - 1
PRIMES = [2, 3, 7, 65521, P31]
BAD_PRIMES = [4, 1, 0, -7, 561, 2**31, 2**70, 5.0, 7.0, np.float64(7.0), True, False,
              np.bool_(True), "7"]
PAST_INT64 = st.integers(2**63, 2**80) | st.integers(-2**80, -2**63 - 1)
GOOD_ENTRY = st.integers(-5, 5) | PAST_INT64
BAD_ENTRY = (st.floats(allow_nan=True) | st.sampled_from([2.0, -1.0, 0.0, np.float64(3.0)])
             | st.sampled_from([True, False, np.bool_(False)])
             | st.sampled_from(["1", "x", None]))


@st.composite
def good_matrix(draw, rows, cols):
    return [[draw(GOOD_ENTRY) for _ in range(cols)] for _ in range(rows)]


@st.composite
def bad_array(draw):
    """An array argument with at least one part that is not an integer."""
    M = draw(good_matrix(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    kind = draw(st.sampled_from(["entry", "nested-entry", "flat-entry", "ragged", "scalar",
                                 "float-array", "bool-array", "string-array"]))
    if kind in ("entry", "nested-entry"):
        i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, len(M[0]) - 1))
        M[i][j] = draw(BAD_ENTRY) if kind == "entry" else [draw(BAD_ENTRY)]
        return M
    if kind == "flat-entry":
        return M[0] + [draw(BAD_ENTRY)]
    if kind == "ragged":
        return M + [M[0] + [0]]
    if kind == "scalar":
        return draw(BAD_ENTRY)
    small = np.array([[x % 5 for x in row] for row in M])
    return {"float-array": small.astype(float), "bool-array": small > 1,
            "string-array": small.astype(str)}[kind]


def _poly_over(p):
    """x over F_p, or over F_7 when p is not a field size."""
    try:
        return OperatorPolynomial([0, 1], p)
    except ValueError:
        return OperatorPolynomial([0, 1], 7)


def _numerics_entry(fn):
    """(valid arguments, call) for an fp_* routine found by introspection: its
    parameter p gets the prime, every other required one an integer matrix."""
    params = [q.name for q in inspect.signature(fn).parameters.values()
              if q.default is q.empty]
    slots = [q for q in params if q != "p"]

    def call(args, p):
        given = dict(zip(slots, args), p=p)
        return fn(*[given[q] for q in params])
    return [[[1, 2], [3, 4]]] * len(slots), call


FP_ROUTINES = sorted(name for name, obj in vars(numerics).items()
                     if name.startswith("fp_") and inspect.isfunction(obj))
FP_ENTRIES = {"numerics." + name: _numerics_entry(getattr(numerics, name))
              for name in FP_ROUTINES}
FP_ENTRIES.update({
    "OperatorPolynomial": ([[1, 2]], lambda args, p: OperatorPolynomial(args[0], p)),
    "FpVectorOperator.from_matrix": ([[[1, 2], [3, 4]], [1, 2]], lambda args, p:
                                     FpVectorOperator.from_matrix(args[0], p, b=args[1])),
    # F_p^0 has one vector at every p, so f's output is read whatever p is
    "FpVectorOperator.from_callable": ([[[]]], lambda args, p:
                                       FpVectorOperator.from_callable(p, 0, lambda V: args[0])),
    "cayley_hamilton_inverse": ([[[1, 2], [3, 4]]],
                                lambda args, p: cayley_hamilton_inverse(args[0], p)),
    "affine_vanishing_poly": ([[[0, 0], [0, 0]]], lambda args, p:
                              affine_vanishing_poly(_poly_over(p), args[0], p)),
    "vanishing.encode": ([[[0, 1]]], lambda args, p: encode(args[0], p)),
})


@st.composite
def malformed_call(draw, valid):
    """(arguments, p) with a p that is no field size, a malformed argument, or both."""
    args = list(valid)
    bad_p = not args or draw(st.booleans())
    p = draw(st.sampled_from(BAD_PRIMES if bad_p else PRIMES))
    if args and (not bad_p or draw(st.booleans())):
        args[draw(st.integers(0, len(args) - 1))] = draw(bad_array())
    return args, p


def test_the_fp_routines_are_found_by_introspection():
    assert {"fp_array", "fp_check", "fp_matmul", "fp_convolve", "fp_poly_divmod", "fp_poly_gcd",
            "fp_rref", "fp_rank", "fp_solve_kernel", "fp_invert",
            "fp_char_poly"} <= set(FP_ROUTINES)


@pytest.mark.parametrize("entry", sorted(FP_ENTRIES))
def test_every_fp_entry_point_refuses_malformed_input(entry):
    valid, call = FP_ENTRIES[entry]

    @settings(max_examples=200)
    @given(malformed_call(valid))
    def refused(case):
        args, p = case
        with pytest.raises(ValueError, match="must be integers|field size must be a prime|"
                                             "fields differ"):
            call(args, p)
    refused()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: numerics.fp_invert([[1.5, 0], [0, 2.7]], 5), id="fp_invert-floats"),
    pytest.param(lambda: numerics.fp_poly_gcd([1, 2], [2, 1], 4), id="fp_poly_gcd-composite"),
    pytest.param(lambda: numerics.fp_matmul([[1, True]], [[1], [1]], 7), id="fp_matmul-bool"),
    pytest.param(lambda: numerics.fp_char_poly([[2.0]], 7), id="fp_char_poly-integral-float")])
def test_motivating_coercions_are_refused(call):
    with pytest.raises(ValueError):
        call()


def _canonical(result):
    """A result as nested lists of Python ints, whatever its container."""
    if isinstance(result, (np.ndarray, np.integer)):
        return result.tolist()
    if isinstance(result, (list, tuple)):
        return [_canonical(x) for x in result]
    if isinstance(result, OperatorPolynomial):
        return ["poly", result.prime, result.coeffs.tolist()]
    if isinstance(result, FpVectorOperator):
        return ["op", result.p, result.n, result.table.tolist()]
    return result


PAST_INT64_CALLS = {
    "fp_array": lambda A, p: numerics.fp_array(A, p)[0],
    "fp_matmul": lambda A, p: numerics.fp_matmul(A, A, p),
    "fp_convolve": lambda A, p: numerics.fp_convolve(A[0], A[1], p),
    "fp_poly_divmod": lambda A, p: numerics.fp_poly_divmod(A, [1, 1], p),
    "fp_poly_gcd": lambda A, p: numerics.fp_poly_gcd(A[0], A[1], p),
    "fp_rref": numerics.fp_rref,
    "fp_rank": numerics.fp_rank,
    "fp_solve_kernel": numerics.fp_solve_kernel,
    "fp_invert": numerics.fp_invert,
    "fp_char_poly": numerics.fp_char_poly,
    "OperatorPolynomial": lambda A, p: OperatorPolynomial(A[0], p),
    "from_matrix": lambda A, p: FpVectorOperator.from_matrix(A, p, b=A[0]),
    "from_callable": lambda A, p: FpVectorOperator.from_callable(
        p, 2, lambda V: np.tile(np.array(A[0], dtype=object), (len(V), 1))),
    "cayley_hamilton_inverse": cayley_hamilton_inverse,
    "encode": lambda A, p: encode(A, p),
}


@pytest.mark.parametrize("name", sorted(PAST_INT64_CALLS))
@settings(max_examples=30)
@given(A=good_matrix(2, 2), p=st.sampled_from([2, 3, 7]))
def test_ints_past_int64_are_reduced_exactly(name, A, p):
    call = PAST_INT64_CALLS[name]
    reduced = [[int(x) % p for x in row] for row in A]
    assert _canonical(call(A, p)) == _canonical(call(reduced, p))
    big = np.array(A, dtype=object)
    assert _canonical(call(big, p)) == _canonical(call(reduced, p))


@pytest.mark.parametrize("x", [2**63, 2**64 - 1, 2**70, -2**70, np.uint64(2**64 - 1)])
@pytest.mark.parametrize("p", [7, 65521, P31])
def test_an_int_past_int64_gives_exactly_its_residue(x, p):
    assert numerics.fp_array([x], p)[0].tolist() == [int(x) % p]
    as_array = np.array([x], dtype=np.uint64 if 0 <= x < 2**64 else object)
    assert numerics.fp_array(as_array, p)[0].tolist() == [int(x) % p]
    assert numerics.fp_matmul([[x]], [[1]], p).tolist() == [[int(x) % p]]
    assert OperatorPolynomial([x, 1], p).coeffs.tolist() == [int(x) % p, 1]


def test_fp_array_returns_a_new_int64_array_and_an_int_prime():
    A = np.array([[1, -1], [9, 2]])
    got, p = numerics.fp_array(A, np.int32(7))
    assert type(p) is int and got.dtype == np.int64 and got.tolist() == [[1, 6], [2, 2]]
    got[0, 0] = 5
    assert A[0, 0] == 1
    assert numerics.fp_array(np.zeros((0, 3)), 7)[0].shape == (0, 3)
    with pytest.raises(ValueError, match="weights must be integers"):
        numerics.fp_array([1, 2.5], 7, "weights")


def test_fp_invert_then_fp_char_poly_run_miller_rabin_once():
    A = np.random.default_rng(0).integers(0, P31, (8, 8))
    numerics.is_prime.cache_clear()
    numerics.fp_invert(A, P31)
    numerics.fp_char_poly(A, P31)
    assert numerics.is_prime.cache_info().misses == 1
