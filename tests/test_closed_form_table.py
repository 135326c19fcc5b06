"""Array-native closed forms, the O(n) Haar transform and exact F_p products,
each against the slower oracle it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geninv import (Scalar1DOperator, closed_form_pinv, pinv1d_operator, haar_basis,
                    wavelet_threshold_roundtrip, fp_matmul, applied, cli)
from geninv.numerics import INT64_LIMIT, LIMB_BITS
from geninv.pseudo_inverse import KINDS, pinv_table

from helpers import closed_form_pinv_scalar, wavelet_roundtrip_dense, fp_matmul_object

P31 = 2**31 - 1

finite = st.floats(-1e6, 1e6, allow_nan=False)
PARAMS = {
    "shifted_square": st.fixed_dictionaries({"a": finite.filter(lambda a: a != 0.0)}),
    "hard_threshold": st.fixed_dictionaries({"a": st.floats(0.0, 1e3)}),
    "soft_threshold": st.fixed_dictionaries({"a": st.floats(0.0, 1e3)}),
    "sign_eps": st.fixed_dictionaries({"eps": st.floats(1e-6, 1e3)}),
    "linear": st.fixed_dictionaries({"c": finite | st.just(0.0)}),
}
TABLE_KINDS = [k for k in KINDS if k != "custom"]


@st.composite
def operators(draw, kinds=TABLE_KINDS):
    kind = draw(st.sampled_from(kinds))
    params = draw(PARAMS.get(kind, st.just({})))
    return Scalar1DOperator(kind, **params)


def boundary_targets(op):
    """Targets where a closed form switches branch or stops being defined."""
    return [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, op.a / 2.0, -op.a / 2.0,
            np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, -5e-324]


@st.composite
def op_and_targets(draw):
    op = draw(operators())
    any_float = st.floats(allow_nan=False)
    w = draw(st.lists(any_float | st.sampled_from(boundary_targets(op)),
                      min_size=1, max_size=40))
    return op, np.array(w)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=400, deadline=None)
@given(op_and_targets())
def test_table_matches_scalar_oracle(case):
    op, w = case
    values, defined = pinv_table(op, w)
    assert values.shape == w.shape and defined.shape == w.shape
    want = [closed_form_pinv_scalar(op, x) for x in w]
    assert defined.tolist() == [r.defined for r in want]
    assert np.isnan(values[~defined]).all()
    for got, r in zip(values[defined], [r for r in want if r.defined]):
        if op.kind == "square":     # the table keeps the nonnegative root
            assert got == r.values[-1] and got >= 0.0
        else:
            assert bits(got) == bits(r.values[0])
    for x, r in zip(w, want):
        assert closed_form_pinv(op, x) == r


@pytest.mark.parametrize("op, w, defined", [
    (Scalar1DOperator("tanh"), [1.0, -1.0, np.nextafter(1.0, 0.0)], [False, False, True]),
    (Scalar1DOperator("exp"), [0.0, -0.0, 5e-324], [False, False, True]),
    (Scalar1DOperator("sign"), [0.5, -0.5, np.nextafter(0.5, 1.0)], [True, True, False]),
    (Scalar1DOperator("hard_threshold", a=2.0), [1.0, -1.0, np.nextafter(1.0, 2.0)],
     [True, True, True]),
    (Scalar1DOperator("square"), [0.0, -0.0, -4.0], [True, True, True]),
    (Scalar1DOperator("linear", c=0.0), [0.0, 7.0, -np.inf], [True, True, True]),
])
def test_table_boundary_targets(op, w, defined):
    values, got = pinv_table(op, np.array(w))
    assert got.tolist() == defined
    for x, v, ok in zip(w, values, got):
        r = closed_form_pinv_scalar(op, x)
        assert r.defined == ok
        if ok:
            assert v == r.values[-1]


def test_table_rejects_custom():
    op = Scalar1DOperator("custom", fn=np.cbrt)
    with pytest.raises(ValueError):
        pinv_table(op, np.zeros(3))


# kind -> (interval of defined targets, undefined targets)
PARTIAL_KINDS = {"tanh": ((-0.9, 0.9), [1.0, -1.0, 2.0, -np.inf]),
                 "exp": ((0.1, 5.0), [0.0, -0.0, -1.0]),
                 "sign": ((-0.5, 0.5), [0.75, -3.0, np.inf])}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(PARTIAL_KINDS)), st.integers(0, 2**32 - 1),
       st.integers(0, 19), st.integers(0, 3))
def test_pinv1d_operator_rejects_undefined_inside_batch(kind, seed, pos, which):
    (lo, hi), bad = PARTIAL_KINDS[kind]
    op = Scalar1DOperator(kind)
    G = pinv1d_operator(op)
    w = np.random.default_rng(seed).uniform(lo, hi, size=20)
    assert np.array_equal(G.apply_batch(w[:, None])[:, 0], pinv_table(op, w)[0])
    w[pos] = bad[which % len(bad)]
    with pytest.raises(ValueError):
        G.apply_batch(w[:, None])


@pytest.mark.parametrize("k", range(11))
def test_haar_transform_matches_dense_matrix(k):
    n = 2**k
    basis = haar_basis(n)
    H = basis.matrix
    rng = np.random.default_rng(k)
    x, c = rng.normal(size=n), rng.normal(size=n)
    assert np.max(np.abs(basis.forward(x) - H @ x)) <= 1e-13
    assert np.max(np.abs(basis.inverse(c) - H.T @ c)) <= 1e-13
    assert np.max(np.abs(basis.inverse(basis.forward(x)) - x)) <= 1e-13
    if n <= 64:     # the transform's columns are the matrix's columns, in row order
        cols = np.column_stack([basis.forward(e) for e in np.eye(n)])
        assert np.max(np.abs(cols - H)) <= 1e-15


def test_haar_basis_builds_no_matrix():
    basis = haar_basis(2**16)
    x = np.arange(2**16, dtype=float)
    assert np.allclose(basis.inverse(basis.forward(x)), x, atol=1e-9)
    assert "matrix" not in vars(basis)


def test_haar_transform_rejects_wrong_length():
    basis = haar_basis(8)
    for bad in (np.zeros(4), np.zeros(16), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            basis.forward(bad)
        with pytest.raises(ValueError):
            basis.inverse(bad)


def test_parseval_certificate_raises(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(applied, "SQRT2", 1.4)     # no longer orthonormal
    with pytest.raises(ArithmeticError):
        haar_basis(8).forward(np.ones(8))
    with pytest.raises(ArithmeticError):
        haar_basis(8).matrix
    sig = tmp_path / "x.csv"
    sig.write_text("\n".join(["1.0", "2.0", "3.0", "4.0"]) + "\n")
    rc = cli.main(["denoise", "--n", "4", "--kind", "hard", "--a", "0.5",
                   "--signal", str(sig), "--out", str(tmp_path / "y.csv")])
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert capsys.readouterr().out == ""


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.sampled_from(["hard", "soft"]), st.floats(0.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_wavelet_roundtrip_matches_dense(k, kind, a, seed):
    n = 2**k
    basis = haar_basis(n)
    x = np.random.default_rng(seed).normal(size=n)
    rt = wavelet_threshold_roundtrip(basis, kind, a, x)
    d, r = wavelet_roundtrip_dense(basis.matrix, kind, a, x)
    assert np.max(np.abs(rt.denoised - d)) <= 1e-12
    assert np.max(np.abs(rt.roundtrip - r)) <= 1e-12
    assert abs(rt.difference_norm - np.linalg.norm(d - r)) <= 1e-12
    if kind == "soft" and a > 0:
        assert np.allclose(rt.witness, basis.matrix[0] * (a + 1.0), atol=1e-15)
        wd, wr = wavelet_roundtrip_dense(basis.matrix, kind, a, rt.witness)
        assert abs(rt.witness_difference_norm - np.linalg.norm(wd - wr)) <= 1e-12
    else:
        assert rt.witness is None and rt.witness_difference_norm == 0.0


def test_wavelet_rejects_negative_threshold(tmp_path, capsys):
    with pytest.raises(ValueError):
        wavelet_threshold_roundtrip(haar_basis(4), "hard", -1.0, np.ones(4))
    sig = tmp_path / "x.csv"
    sig.write_text("1.0\n2.0\n")
    rc = cli.main(["denoise", "--n", "2", "--kind", "soft", "--a", "-1",
                   "--signal", str(sig), "--out", str(tmp_path / "y.csv")])
    assert rc == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().out == ""


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 65521, P31]), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 9), st.sampled_from(["uniform", "max", "unreduced"]),
       st.integers(0, 2**32 - 1))
def test_fp_matmul_matches_object_oracle(p, n, k, m, fill, seed):
    rng = np.random.default_rng(seed)
    if fill == "max":       # every product at its largest, (p-1)^2
        A, B = np.full((n, k), p - 1), np.full((k, m), p - 1)
    elif fill == "unreduced":
        A, B = rng.integers(-2 * p, 2 * p, size=(n, k)), rng.integers(-2 * p, 2 * p, size=(k, m))
    else:
        A, B = rng.integers(0, p, size=(n, k)), rng.integers(0, p, size=(k, m))
    want = fp_matmul_object(A, B, p)
    got = fp_matmul(A, B, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(fp_matmul(A, B[:, 0], p), want[:, 0])
    assert np.array_equal(fp_matmul(A, B, np.int64(p)), want)


def test_fp_matmul_chunks_long_inner_dimension():
    # past the chunk length a single limb product would overflow int64
    chunk = (INT64_LIMIT - 1) // ((P31 - 1) * ((1 << LIMB_BITS) - 1))
    k = chunk + 7
    A = np.full((1, k), P31 - 1)
    B = np.full((k, 2), P31 - 2)
    assert np.array_equal(fp_matmul(A, B, P31), fp_matmul_object(A, B, P31))
