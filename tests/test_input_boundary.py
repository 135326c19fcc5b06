"""The input boundary of the real-valued layer: every public vector of known
dimension is read through core_ops.as_vector before an operator is applied
or a grid is built, and every scalar parameter is checked by the class that
stores it, naming the field."""

import numpy as np
import pytest

from geninv import (Box, Grid, GridOracle, NeuralLayer, OperatorPolynomial, Scalar1DOperator,
                    VectorOperator, affine_pinv, apply_polynomial, clipped_tanh_layer_pinv,
                    expanding_domain_pinv, finite_bas_set, grid_bas_oracle, haar_basis, projection_after_operator_pinv,
                    relu_layer_pinv, tanh_layer_pinv)
from geninv.core_ops import DimensionMismatch, as_vector
from geninv.numerics import matrix_from_json


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
