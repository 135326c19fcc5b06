import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from geninv import cli, grid_bas_oracle, NeuralLayer, clipped_tanh_layer_pinv

from helpers import (image_chain_steps, read_csv_signal_loop, verify_suite_digest,
                     write_csv_signal_loop)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


def test_pinv1d_relu(capsys):
    rc, out = run(capsys, ["pinv1d", "--kind", "relu", "--w", "-3"])
    assert rc == 0
    assert out["value"] == 0.0 and out["defined"]


def test_pinv1d_hard_alias(capsys):
    rc, out = run(capsys, ["pinv1d", "--kind", "hard", "--a", "2", "--w", "1.5"])
    assert rc == 0
    assert out["value"] == 2.0


def test_pinv1d_square_reports_both_signs(capsys):
    rc, out = run(capsys, ["pinv1d", "--kind", "square", "--w", "4"])
    assert rc == 0
    assert out["value"] is None
    assert sorted(out["values"]) == [-2.0, 2.0]


def test_pinv1d_undefined(capsys):
    rc, out = run(capsys, ["pinv1d", "--kind", "exp", "--w", "-1"])
    assert rc == 0
    assert not out["defined"] and out["value"] is None


def test_pinv1d_bad_kind_is_input_error(capsys):
    rc, _ = run(capsys, ["pinv1d", "--kind", "nope", "--w", "1"])
    assert rc == cli.EXIT_INPUT_ERROR


def test_oracle_command(tmp_path, capsys):
    op = tmp_path / "relu.json"
    op.write_text(json.dumps({"kind": "relu"}))
    rc, out = run(capsys, ["oracle", "--op", str(op), "--w", "-3",
                           "--box", "-10", "10", "--step", "0.01"])
    assert rc == 0
    assert abs(out["v"][0]) <= 0.011
    assert abs(out["residual"] - 3.0) <= 0.011


def test_oracle_matrix_operator(tmp_path, capsys):
    op = tmp_path / "mat.json"
    op.write_text(json.dumps({"kind": "matrix", "rows": 1, "cols": 2,
                              "data": [1.0, 1.0]}))
    rc, out = run(capsys, ["oracle", "--op", str(op), "--w", "2",
                           "--box", "-2", "2", "--step", "0.05"])
    assert rc == 0
    assert abs(out["v"][0] - 1.0) <= 0.06 and abs(out["v"][1] - 1.0) <= 0.06


def test_oracle_layer_operator(tmp_path, capsys):
    # the clipped layer's image is [-0.75, 0.75]: the target 0.9 is a quarter
    # of the clip beyond it, and the least-norm v on A v = arctanh(0.75) is
    # A^T arctanh(0.75) / ||A||^2
    A = np.array([[1.0, 0.5]])
    op = tmp_path / "layer.json"
    op.write_text(json.dumps({"kind": "layer", "activation": "tanh", "clip": 4,
                              "weights": {"rows": 1, "cols": 2, "data": [1.0, 0.5]}}))
    rc, out = run(capsys, ["oracle", "--op", str(op), "--w", "0.9",
                           "--box", "-2", "2", "--step", "0.05"])
    assert rc == 0
    best = grid_bas_oracle(NeuralLayer(A, "tanh", 4).operator(), [0.9], [(-2.0, 2.0)] * 2, 0.05)
    assert out == {"v": best.v.tolist(), "residual": best.residual, "norm": best.norm}
    assert abs(out["residual"] - 0.15) <= 1e-9
    assert np.allclose(out["v"], A[0] * np.arctanh(0.75) / 1.25, atol=0.05)


def test_oracle_missing_file(capsys):
    rc, _ = run(capsys, ["oracle", "--op", "/nonexistent.json", "--w", "1",
                         "--box", "-1", "1", "--step", "0.1"])
    assert rc == cli.EXIT_INPUT_ERROR


def test_oracle_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run(capsys, ["oracle", "--op", str(bad), "--w", "1",
                         "--box", "-1", "1", "--step", "0.1"])
    assert rc == cli.EXIT_INPUT_ERROR


def test_layer_pinv_relu(tmp_path, capsys):
    weights = tmp_path / "A.json"
    weights.write_text(json.dumps({"rows": 1, "cols": 2, "data": [1.0, 1.0]}))
    target = tmp_path / "w.csv"
    target.write_text("2.0\n")
    rc, out = run(capsys, ["layer-pinv", "--weights", str(weights),
                           "--act", "relu", "--w", str(target)])
    assert rc == 0
    assert np.allclose(out["v"], [1.0, 1.0], atol=1e-8)


@pytest.mark.parametrize("weights", [
    {"rows": 1, "cols": 2, "data": [True, 1.0]},
    {"rows": 1, "cols": 2, "data": [1.0, "1.5"]},
    {"rows": 1.5, "cols": 2, "data": [1.0, 1.0]},
    {"rows": 1, "cols": "2", "data": [1.0, 1.0]},
    {"rows": 2, "cols": 2, "data": [1.0, 1.0]},
    {"rows": 1, "cols": 3, "data": [1.0, 1.0]},
])
def test_layer_pinv_rejects_bad_weights(tmp_path, capsys, weights):
    path = tmp_path / "A.json"
    path.write_text(json.dumps(weights))
    target = tmp_path / "w.csv"
    target.write_text("2.0\n")
    rc, out = run(capsys, ["layer-pinv", "--weights", str(path),
                           "--act", "relu", "--w", str(target)])
    assert rc == cli.EXIT_INPUT_ERROR and out is None


@pytest.mark.parametrize("w", [0.5, 0.9, -3.0])
def test_layer_pinv_clip(tmp_path, capsys, w):
    weights = tmp_path / "A.json"
    weights.write_text(json.dumps({"rows": 1, "cols": 2, "data": [1.0, 0.5]}))
    target = tmp_path / "w.csv"
    target.write_text("%r\n" % w)
    rc, out = run(capsys, ["layer-pinv", "--weights", str(weights),
                           "--act", "tanh", "--w", str(target), "--clip", "4"])
    assert rc == 0 and out["defined"]
    A = np.array([[1.0, 0.5]])
    assert out["v"] == clipped_tanh_layer_pinv(NeuralLayer(A, "tanh", 4), [w]).tolist()
    # inside the clip [-0.75, 0.75] the layer is inverted exactly, outside at the clip
    assert np.allclose(out["v"], A[0] * np.arctanh(np.clip(w, -0.75, 0.75)) / 1.25,
                       atol=1e-12)


def test_layer_pinv_tanh_undefined(tmp_path, capsys):
    weights = tmp_path / "A.json"
    weights.write_text(json.dumps({"rows": 1, "cols": 2, "data": [1.0, 0.5]}))
    target = tmp_path / "w.csv"
    target.write_text("1.0\n")
    rc, out = run(capsys, ["layer-pinv", "--weights", str(weights),
                           "--act", "tanh", "--w", str(target)])
    assert rc == 0
    assert out["v"] is None and not out["defined"]


def test_denoise_roundtrip(tmp_path, capsys):
    signal = tmp_path / "in.csv"
    signal.write_text("".join("%r\n" % x for x in
                              [3.0, 1.0, -0.2, 0.5, 2.0, -1.0, 0.1, 0.0]))
    out_path = tmp_path / "out.csv"
    rc, out = run(capsys, ["denoise", "--basis", "haar", "--n", "8",
                           "--kind", "hard", "--a", "0.5",
                           "--signal", str(signal), "--out", str(out_path)])
    assert rc == 0
    assert out["difference_norm"] <= 1e-10
    assert out["idempotent_residual"] <= 1e-10
    denoised = [float(x) for x in out_path.read_text().split()]
    assert len(denoised) == 8


def test_denoise_length_mismatch(tmp_path, capsys):
    signal = tmp_path / "in.csv"
    signal.write_text("1.0\n2.0\n")
    rc, _ = run(capsys, ["denoise", "--basis", "haar", "--n", "8",
                         "--kind", "hard", "--a", "0.5",
                         "--signal", str(signal), "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_INPUT_ERROR


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
def test_denoise_rejects_a_non_finite_signal_before_writing(tmp_path, capsys, value):
    signal = tmp_path / "in.csv"
    signal.write_text("1.0\n%s\n3.0\n4.0\n" % value)
    out_path = tmp_path / "out.csv"
    rc = cli.main(["denoise", "--n", "4", "--kind", "hard", "--a", "0.5",
                   "--signal", str(signal), "--out", str(out_path)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INPUT_ERROR and captured.out == ""
    assert not out_path.exists()
    assert str(signal) in captured.err and repr(value) in captured.err


def test_layer_pinv_relu_rejects_a_nan_target(tmp_path, capsys):
    weights = tmp_path / "A.json"
    weights.write_text(json.dumps({"rows": 2, "cols": 3,
                                   "data": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]}))
    target = tmp_path / "w.csv"
    target.write_text("nan\n0.2\n")
    rc, out = run(capsys, ["layer-pinv", "--weights", str(weights),
                           "--act", "relu", "--w", str(target)])
    assert rc == cli.EXIT_INPUT_ERROR and out is None


def test_drazin_idempotent(tmp_path, capsys):
    op = tmp_path / "idempotent.json"
    table = [0, 0, 2, 2]
    op.write_text(json.dumps({"domain": 4, "codomain": 4, "table": table}))
    rc, out = run(capsys, ["drazin", "--op", str(op)])
    assert rc == 0
    assert out["exists"] and out["inverse_table"] == table and out["index"] == 1


def test_drazin_exit_levels_rebuild_the_chain(tmp_path, capsys):
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 30, 200):
        table = [int(x) for x in rng.integers(0, n, n)]
        op = tmp_path / "T.json"
        op.write_text(json.dumps({"domain": n, "codomain": n, "table": table}))
        rc, out = run(capsys, ["drazin", "--op", str(op)])
        assert rc == 0 and "chain" not in out
        sets, k, _, _ = image_chain_steps(table)
        level = np.array(out["exit_level"])
        assert int(level.max()) == k
        assert [np.flatnonzero(level >= j).tolist() for j in range(k + 1)] == \
            [s.tolist() for s in sets]


def test_drazin_rejects_non_integer_table(tmp_path, capsys):
    op = tmp_path / "float.json"
    op.write_text(json.dumps({"domain": 2, "codomain": 2, "table": [1.7, 0.2]}))
    rc, _ = run(capsys, ["drazin", "--op", str(op)])
    assert rc == cli.EXIT_INPUT_ERROR


def test_drazin_rejects_non_endofunction(tmp_path, capsys):
    op = tmp_path / "rect.json"
    op.write_text(json.dumps({"domain": 2, "codomain": 3, "table": [0, 1]}))
    rc, _ = run(capsys, ["drazin", "--op", str(op)])
    assert rc == cli.EXIT_INPUT_ERROR


def test_vanish_swap(tmp_path, capsys):
    op = tmp_path / "swap.json"
    op.write_text(json.dumps({"domain": 2, "codomain": 2, "table": [1, 0]}))
    rc, out = run(capsys, ["vanish", "--op", str(op), "--prime", "2"])
    assert rc == 0
    assert out["minimal"] == [1, 0, 1]
    assert out["degree_bound"] >= len(out["vanishing"]) - 1


def test_vanish_rejects_non_endofunction(tmp_path, capsys):
    op = tmp_path / "rect.json"
    op.write_text(json.dumps({"domain": 2, "codomain": 3, "table": [0, 1]}))
    rc = cli.main(["vanish", "--op", str(op), "--prime", "2"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_INPUT_ERROR and out == ""
    assert err == "input error: vanishing polynomials need an endofunction\n"


def test_vanish_bad_size(tmp_path, capsys):
    op = tmp_path / "odd.json"
    op.write_text(json.dumps({"domain": 3, "codomain": 3, "table": [0, 1, 2]}))
    rc, _ = run(capsys, ["vanish", "--op", str(op), "--prime", "2"])
    assert rc == cli.EXIT_INPUT_ERROR


# stdout bytes of `geninv vanish` on three fixed maps, pinned
VANISH_BYTES = [
    pytest.param(3, [3, 2, 0, 7, 6, 4, 8, 5, 1],
                 b'{"degree_bound":81,"minimal":[1,1,1,1,1,1,1,1,1],'
                 b'"vanishing":[2,0,0,0,0,0,0,0,0,1]}\n', id="permutation-F3^2"),
    pytest.param(2, [14, 18, 30, 4, 31, 23, 14, 11, 22, 14, 8, 31, 6, 25, 3, 27,
                     4, 17, 16, 30, 28, 0, 29, 28, 10, 12, 13, 7, 7, 17, 21, 30],
                 b'{"degree_bound":69,"minimal":[0,0,0,0,0,1,0,0,0,0,0,0,1],'
                 b'"vanishing":[0,0,0,0,0,1,0,0,0,0,0,0,1]}\n', id="map-F2^5"),
    pytest.param(5, [23, 8, 5, 22, 2, 11, 14, 24, 10, 19, 22, 19, 19, 9, 23, 14,
                     11, 6, 1, 20, 2, 6, 2, 16, 19],
                 b'{"degree_bound":30,"minimal":[0,0,0,0,0,4,0,0,0,0,1],'
                 b'"vanishing":[0,0,0,0,0,4,0,0,0,0,1]}\n', id="map-F5^2"),
]


@pytest.mark.parametrize("p, table, expect", VANISH_BYTES)
def test_vanish_stdout_bytes(tmp_path, capsys, p, table, expect):
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"domain": len(table), "codomain": len(table), "table": table}))
    assert cli.main(["vanish", "--op", str(op), "--prime", str(p)]) == 0
    assert capsys.readouterr().out.encode() == expect


def relabelled_path(n, a):
    """v -> max(v - 1, 0) with each point v renamed a*v mod n (a prime to n)."""
    t = [0] * n
    for v in range(n):
        t[a * v % n] = a * max(v - 1, 0) % n
    return t


def lcg_map(n, seed):
    """n pseudo-random entries in 0..n-1 from a 64-bit linear congruential generator."""
    t, x = [], seed
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        t.append((x >> 33) % n)
    return t


# sha256 of the stdout of `geninv drazin` on two maps longer than
# cli.INT_ARRAY_MIN, taken from the list-based output the digit writer replaced
DRAZIN_SHA256 = [
    pytest.param(relabelled_path(700, 389), 4151,
                 "19c3462234b1717c32e5a238f36bd878a4533f2e4da40c69d7b3ab8cce592155",
                 id="relabelled-path-700"),
    pytest.param(lcg_map(1500, 17), 9646,
                 "33ff9660a075d25e60f019275ed42db44447f50c6e40468cec555270ad8143f6",
                 id="random-map-1500"),
]


@pytest.mark.parametrize("table, size, sha", DRAZIN_SHA256)
def test_drazin_stdout_bytes(tmp_path, capsys, table, size, sha):
    assert len(table) >= cli.INT_ARRAY_MIN
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"domain": len(table), "codomain": len(table), "table": table}))
    assert cli.main(["drazin", "--op", str(op)]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == size and hashlib.sha256(out).hexdigest() == sha


# entries at each 10^k - 1 and 10^k, where the digit count changes, at the
# writer's switch from uint32 to uint64 digits, and at the int64 top
DIGIT_EDGES = ([0] + [v for k in range(1, 19) for v in (10 ** k - 1, 10 ** k)]
               + [2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1])


@given(st.lists(st.sampled_from(DIGIT_EDGES) | st.integers(0, 2 ** 63 - 1), min_size=1),
       st.integers(0, 2 * cli.INT_ARRAY_MIN))
@example([0], 0)
@example([0], 1)
@example(DIGIT_EDGES, len(DIGIT_EDGES))
@example([7, 10 ** 18], cli.INT_ARRAY_MIN - 1)
@example([7, 10 ** 18], cli.INT_ARRAY_MIN)
def test_int_array_writer_matches_json(entries, length):
    a = np.resize(np.array(entries, dtype=np.int64), length)    # entries repeated
    expect = json.dumps(a.tolist(), separators=(",", ":"))
    assert cli._int_array_json(a) == expect
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit({"table": a, "index": 3, "levels": a[:4]})
    assert out.getvalue() == ('{"index":3,"levels":%s,"table":%s}\n'
                              % (json.dumps(a[:4].tolist(), separators=(",", ":")), expect))


def test_int_array_writer_rejects_negative_entries():
    with pytest.raises(AssertionError, match="negative"):
        cli._int_array_json(np.array([3, -1, 4], dtype=np.int64))
    long = np.zeros(cli.INT_ARRAY_MIN, dtype=np.int64)
    long[-1] = -(2 ** 63)
    with pytest.raises(AssertionError, match="negative"):
        cli._emit({"table": long})


def test_json_output_deterministic(tmp_path, capsys):
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"domain": 4, "codomain": 4, "table": [1, 1, 3, 0]}))
    rc1 = cli.main(["drazin", "--op", str(op)])
    first = capsys.readouterr().out
    rc2 = cli.main(["drazin", "--op", str(op)])
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second


def test_verify_suite_passes_and_is_deterministic(capsys):
    rc1 = cli.main(["verify-suite", "--seed", "42"])
    first = capsys.readouterr().out
    rc2 = cli.main(["verify-suite", "--seed", "42"])
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second
    body = json.loads(first)
    assert body["all_pass"] and len(body["checks"]) >= 8


def test_verify_suite_digest_is_deterministic_and_reads_every_seed(capsys):
    digest = verify_suite_digest(range(5))
    assert len(digest) == 64 and digest == verify_suite_digest(range(5))
    assert verify_suite_digest(range(4)) != digest != verify_suite_digest([0, 1, 2, 4, 3])
    assert capsys.readouterr() == ("", "")


def test_verify_suite_seed_95_passes(capsys):
    # soft threshold at w = -1.9e-4: the exact closed form -1.00019 lies off
    # the grid, and grid points nearer 0 with a worse residual do not count
    rc = cli.main(["verify-suite", "--seed", "95"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["all_pass"] is True


def test_closed_form_check_passes_seeds_0_to_999():
    for seed in range(1000):
        ok, detail = cli._pinv1d_closed_forms_vs_oracle(np.random.default_rng(seed))
        assert ok, (seed, detail)
        assert all(np.isfinite(x) for x in detail.values())


def test_operator_json_missing_fields(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"kind": "layer", "activation": "relu"}))
    rc, _ = run(capsys, ["oracle", "--op", str(op), "--w", "1",
                         "--box", "-1", "1", "--step", "0.1"])
    assert rc == cli.EXIT_INPUT_ERROR
    weights = tmp_path / "A.json"
    weights.write_text(json.dumps({"rows": 1}))
    target = tmp_path / "w.csv"
    target.write_text("0.5\n")
    rc, _ = run(capsys, ["layer-pinv", "--weights", str(weights),
                         "--act", "tanh", "--w", str(target)])
    assert rc == cli.EXIT_INPUT_ERROR


# ---------------------------------------------------------------------------
# the parser built once per process; the signal CSV read and written in one call
# ---------------------------------------------------------------------------

def cli_session(tmp_path):
    """argv lists covering all seven subcommands, with rejected ones between."""
    (tmp_path / "relu.json").write_text(json.dumps({"kind": "relu"}))
    (tmp_path / "A.json").write_text(json.dumps({"rows": 1, "cols": 2, "data": [1.0, 1.0]}))
    (tmp_path / "w.csv").write_text("2.0\n")
    (tmp_path / "x.csv").write_text("".join("%r\n" % x for x in
                                            [3.0, 1.0, -0.2, 0.5, 2.0, -1.0, 0.1, 0.0]))
    (tmp_path / "T.json").write_text(json.dumps({"domain": 4, "codomain": 4,
                                                 "table": [1, 1, 3, 0]}))
    d = str(tmp_path) + "/"
    return [
        ["pinv1d", "--kind", "soft", "--a", "1", "--w", "2.5"],
        ["pinv1d", "--kind", "relu"],                             # rejected: no --w
        ["oracle", "--op", d + "relu.json", "--w", "-3", "--box", "-4", "4",
         "--step", "0.05"],
        ["layer-pinv", "--weights", d + "A.json", "--act", "relu", "--w", d + "w.csv"],
        ["layer-pinv", "--weights", d + "A.json", "--act", "sigmoid", "--w", d + "w.csv"],
        ["denoise", "--n", "8", "--kind", "soft", "--a", "0.5", "--signal", d + "x.csv",
         "--out", d + "out.csv"],
        ["nope"],                                                 # rejected: no such command
        ["drazin", "--op", d + "T.json"],
        ["vanish", "--op", d + "T.json", "--prime", "2"],
        ["vanish", "--op", d + "T.json", "--prime", "two"],       # rejected: not an int
        ["verify-suite", "--seed", "3"],
        ["pinv1d", "--kind", "soft", "--a", "1", "--w", "2.5"],
    ]


def run_session(capsys, session):
    outputs = []
    for argv in session:
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = ("exit", e.code)
        outputs.append((rc, capsys.readouterr().out))
    return outputs


def test_cached_parser_prints_what_fresh_parsers_print(tmp_path, capsys, monkeypatch):
    session = cli_session(tmp_path)
    cached = run_session(capsys, session)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_session(capsys, session)
    assert cached == fresh
    assert [rc for rc, _ in cached].count(("exit", 2)) == 4
    assert all(out for rc, out in cached if rc == 0)


CSV_TEXTS = [
    "1.0\n2.0\n",
    "\n\n1.0\n\n   \n2.5\n\n",                # blank lines
    "  1.0  \n\t-2.0\t\n\u00a03.0\r\n4.0\r5.0",  # surrounding whitespace, CR and CRLF
    "nan\ninf\n-inf\nNaN\nInfinity\n",
    "-0.0\n0.0\n5e-324\n1e308\n1e309\n-1e-400\n",
    "1_0\n1e5_0\n+.5\n",                       # underscores as Python's float() takes them
    "",
    "\n   \n",
    "1.0 2.0\n",                                # two numbers on one line: rejected
    "1.0\n2.0 3.0\n",
    "1,0\n",
    "0x10\n",
    "1__0\n",
    "_1\n",
    "nan(1)\n",
    "1.0\x0c2.0\n",
    "abc\n",
]


@pytest.mark.parametrize("text", CSV_TEXTS)
def test_csv_reader_accepts_and_rejects_what_the_line_loop_did(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = read_csv_signal_loop(path)
    except ValueError as e:
        with pytest.raises(ValueError, match="bad float") as info:
            cli._read_csv_signal(path)
        assert str(info.value).endswith(str(e))
        return
    got = cli._read_csv_signal(path)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("values", [
    [],
    [0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 1e-5, 1e-4, 9999999999999998.0, 123456789.123],
    [float("nan"), float("inf"), float("-inf"), 5e-324, 1.7976931348623157e308],
    np.random.default_rng(0).normal(size=500) * 10.0 ** np.random.default_rng(1).integers(-30, 30, 500),
    np.arange(5, dtype=np.int64),
    np.linspace(-1, 1, 7, dtype=np.float32),
])
def test_csv_writer_bytes_equal_the_line_loop(tmp_path, values):
    write_csv_signal_loop(tmp_path / "loop.csv", values)
    cli._write_csv_signal(tmp_path / "one.csv", values)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


# ---------------------------------------------------------------------------
# one input-error boundary in main: malformed files exit 2 with one line
# ---------------------------------------------------------------------------

GOOD_WEIGHTS = {"rows": 1, "cols": 2, "data": [1.0, 1.0]}


def oracle_case(name, op):
    return pytest.param(["oracle", "--op", "@op", "--w", "1", "--box", "-1", "1",
                         "--step", "0.5"], {"op": op}, id="oracle-" + name)


def drazin_case(name, op):
    return pytest.param(["drazin", "--op", "@op"], {"op": op}, id="drazin-" + name)


def vanish_case(name, op):
    return pytest.param(["vanish", "--op", "@op", "--prime", "2"], {"op": op},
                        id="vanish-" + name)


def layer_case(name, weights, w="2.0\n"):
    return pytest.param(["layer-pinv", "--weights", "@A", "--act", "tanh", "--w", "@w"],
                        {"A": weights, "w": w}, id="layer-pinv-" + name)


def denoise_case(name, signal, out="out.csv"):
    return pytest.param(["denoise", "--n", "4", "--kind", "hard", "--a", "0.5",
                         "--signal", "@signal", "--out", "@" + out],
                        {"signal": signal}, id="denoise-" + name)


# file contents: a str is written as it is, None leaves the file missing,
# anything else is written as JSON
MALFORMED = [
    drazin_case("top-level-list", [1, 0]),
    drazin_case("top-level-null", "null"),
    drazin_case("table-int", {"domain": 2, "codomain": 2, "table": 5}),
    drazin_case("table-object", {"domain": 2, "codomain": 2, "table": {}}),
    drazin_case("float-and-string-sizes", {"domain": 2.9, "codomain": "2", "table": [1, 0]}),
    drazin_case("boolean-sizes", {"domain": True, "codomain": True, "table": [0]}),
    drazin_case("float-entries", {"domain": 2, "codomain": 2, "table": [1.0, 0.0]}),
    drazin_case("missing-table", {"domain": 2, "codomain": 2}),
    drazin_case("not-an-endofunction", {"domain": 2, "codomain": 3, "table": [0, 1]}),
    drazin_case("malformed-json", "{not json"),
    drazin_case("missing-file", None),
    drazin_case("nested-2000-deep", "[" * 2000 + "]" * 2000),
    vanish_case("top-level-list", [1, 0]),
    vanish_case("table-int", {"domain": 2, "codomain": 2, "table": 5}),
    vanish_case("float-and-string-sizes", {"domain": 2.9, "codomain": "2", "table": [1, 0]}),
    vanish_case("boolean-sizes", {"domain": True, "codomain": True, "table": [0]}),
    vanish_case("not-a-power-of-p", {"domain": 3, "codomain": 3, "table": [0, 1, 2]}),
    oracle_case("top-level-list", [{"kind": "relu"}]),
    oracle_case("missing-kind", {"a": 1.0}),
    oracle_case("kind-list", {"kind": ["relu"]}),
    oracle_case("unknown-kind", {"kind": "cube"}),
    oracle_case("parts-int", {"kind": "componentwise", "parts": 3}),
    oracle_case("part-list", {"kind": "componentwise", "parts": [["relu"]]}),
    oracle_case("a-null", {"kind": "soft", "a": None}),
    oracle_case("a-string", {"kind": "relu", "a": "x"}),
    oracle_case("eps-boolean", {"kind": "sign_eps", "eps": True}),
    oracle_case("a-past-float", {"kind": "soft", "a": 10 ** 400}),
    oracle_case("data-past-float", {"kind": "matrix", "rows": 1, "cols": 1,
                                    "data": [-10 ** 400]}),
    oracle_case("weights-list", {"kind": "layer", "weights": [1.0], "activation": "relu"}),
    oracle_case("weights-string", {"kind": "layer", "activation": "relu",
                                   "weights": json.dumps(GOOD_WEIGHTS)}),
    oracle_case("clip-string", {"kind": "layer", "weights": GOOD_WEIGHTS,
                                "activation": "tanh", "clip": "4"}),
    oracle_case("clip-float", {"kind": "layer", "weights": GOOD_WEIGHTS,
                               "activation": "tanh", "clip": 4.5}),
    oracle_case("target-dim", {"kind": "matrix", "rows": 2, "cols": 1, "data": [1.0, 2.0]}),
    oracle_case("layer-no-rows", {"kind": "layer", "weights": {"rows": 0, "cols": 1, "data": []},
                                  "activation": "tanh"}),
    oracle_case("nested-2000-deep", "[" * 2000 + "]" * 2000),
    layer_case("top-level-list", [1.0, 1.0]),
    layer_case("top-level-string", json.dumps(json.dumps(GOOD_WEIGHTS))),
    layer_case("missing-data", {"rows": 1, "cols": 2}),
    layer_case("rank-deficient", {"rows": 1, "cols": 2, "data": [0.0, 0.0]}),
    layer_case("no-rows", {"rows": 0, "cols": 1, "data": []}),
    layer_case("target-length", GOOD_WEIGHTS, w="0.5\n0.5\n"),
    layer_case("target-bad-float", GOOD_WEIGHTS, w="half\n"),
    layer_case("target-missing", GOOD_WEIGHTS, w=None),
    denoise_case("signal-length", "1.0\n2.0\n"),
    denoise_case("signal-bad-float", "1.0\n2.0\nthree\n4.0\n"),
    denoise_case("signal-missing", None),
    denoise_case("out-unwritable", "1.0\n2.0\n3.0\n4.0\n", out="no-such-dir/out.csv"),
    # a NaN or infinite result is not JSON: stdout stays empty
    pytest.param(["pinv1d", "--kind", "soft", "--a", "nan", "--w", "1"], {},
                 id="pinv1d-a-nan"),
    layer_case("target-nan", GOOD_WEIGHTS, w="nan\n"),
    layer_case("target-inf", GOOD_WEIGHTS, w="inf\n"),
    denoise_case("signal-nan", "1.0\nnan\n3.0\n4.0\n"),
    pytest.param(["oracle", "--op", "@op", "--w", "1", "--box", "-1", "1", "--step", "nan"],
                 {"op": {"kind": "relu"}}, id="oracle-step-nan"),
    pytest.param(["oracle", "--op", "@op", "--w", "1", "--box", "-1", "1", "--step", "inf"],
                 {"op": {"kind": "relu"}}, id="oracle-step-inf"),
    pytest.param(["oracle", "--op", "@op", "--w", "nan", "--box", "-1", "1", "--step", "0.5"],
                 {"op": {"kind": "relu"}}, id="oracle-w-nan"),
    pytest.param(["pinv1d", "--kind", "exp", "--w", "inf"], {}, id="pinv1d-exp-w-inf"),
]


@pytest.mark.parametrize("argv, files", MALFORMED)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, files):
    for name, content in files.items():
        if content is not None:
            (tmp_path / name).write_text(content if isinstance(content, str)
                                         else json.dumps(content))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    rc = cli.main(argv)                 # an uncaught exception fails the test
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INPUT_ERROR and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


@pytest.mark.parametrize("argv, op, field", [
    pytest.param(["oracle", "--w", "1", "--box", "-1", "1", "--step", "0.5"],
                 {"kind": "soft", "a": None}, '"a"', id="oracle-a-null"),
    pytest.param(["oracle", "--w", "1", "--box", "-1", "1", "--step", "0.5"],
                 {"kind": "soft", "a": 10 ** 400}, '"a" must be numbers within the float range',
                 id="oracle-a-past-float"),
    pytest.param(["oracle", "--w", "1", "--box", "-1", "1", "--step", "0.5"],
                 {"kind": ["relu"]}, 'operator "kind" must be a string', id="oracle-kind-list"),
    pytest.param(["drazin"], {"domain": 2.9, "codomain": 2, "table": [1, 0]}, '"domain"',
                 id="drazin-float-domain"),
    pytest.param(["oracle", "--w", "1", "--box", "-1", "1", "--step", "nan"],
                 {"kind": "relu"}, "step must be positive and finite, got nan",
                 id="oracle-step-nan"),
    pytest.param(["oracle", "--w", "1", "--box", "-1", "1", "--step", "inf"],
                 {"kind": "relu"}, "step must be positive and finite, got inf",
                 id="oracle-step-inf"),
    pytest.param(["oracle", "--w", "nan", "--box", "-1", "1", "--step", "0.5"],
                 {"kind": "relu"}, "target must be finite, got [nan]", id="oracle-w-nan"),
    pytest.param(["pinv1d", "--kind", "relu", "--w", "nan"], None, "w must be finite, got nan",
                 id="pinv1d-w-nan"),
    pytest.param(["pinv1d", "--kind", "exp", "--w=-inf"], None, "w must be finite, got -inf",
                 id="pinv1d-w-minus-inf"),
])
def test_validation_errors_name_the_field(tmp_path, capsys, argv, op, field):
    # op None: the subcommand reads no operator file
    if op is not None:
        path = tmp_path / "op.json"
        path.write_text(json.dumps(op))
        argv = argv + ["--op", str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert field in capsys.readouterr().err


def test_file_errors_name_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    for argv in (["drazin", "--op", str(bad)], ["drazin", "--op", str(tmp_path / "none.json")]):
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR
        assert argv[-1] in capsys.readouterr().err


def test_non_haar_basis_is_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["denoise", "--basis", "db4", "--n", "4", "--kind", "hard", "--a", "0.5",
                  "--signal", str(tmp_path / "in.csv"), "--out", str(tmp_path / "out.csv")])
    assert info.value.code == cli.EXIT_INPUT_ERROR


# ---------------------------------------------------------------------------
# verify-suite: a raising check fails on its own, the battery still reports
# ---------------------------------------------------------------------------

SUITE_NAMES = ["pinv1d_closed_forms_vs_oracle", "mp_inverse_residuals",
               "one_two_inverse_suite", "projection_layer", "relu_layer_qp",
               "wavelet_identities", "drazin_vs_exhaustive", "vanishing_and_cayley_hamilton"]


@pytest.mark.parametrize("error", [ArithmeticError("relu program did not solve: numerical"),
                                   ValueError("bad layer")])
def test_verify_suite_reports_a_raising_check_as_failed(capsys, monkeypatch, error):
    rc, clean = run(capsys, ["verify-suite", "--seed", "42"])
    assert rc == 0

    def broken(layer, w, tol=1e-9):
        raise error
    monkeypatch.setattr(cli.applied, "relu_layer_pinv", broken)
    rc = cli.main(["verify-suite", "--seed", "42"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert rc == cli.EXIT_CHECK_FAILED and not out["all_pass"]
    assert "Traceback" in captured.err and "in broken" in captured.err
    assert [c["name"] for c in out["checks"]] == SUITE_NAMES
    by_name = {c["name"]: c for c in out["checks"]}
    relu = by_name["relu_layer_qp"]
    assert not relu["pass"]
    assert relu["detail"] == {"error": "%s: %s" % (type(error).__name__, error)}
    # the checks before it drew the same numbers and record the same results
    assert out["checks"][:4] == clean["checks"][:4]
    assert all(c["pass"] for c in out["checks"] if c["name"] != "relu_layer_qp")
