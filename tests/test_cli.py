import json

import numpy as np
import pytest

from geninv import cli

from helpers import image_chain_steps, read_csv_signal_loop, write_csv_signal_loop


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


def test_vanish_bad_size(tmp_path, capsys):
    op = tmp_path / "odd.json"
    op.write_text(json.dumps({"domain": 3, "codomain": 3, "table": [0, 1, 2]}))
    rc, _ = run(capsys, ["vanish", "--op", str(op), "--prime", "2"])
    assert rc == cli.EXIT_INPUT_ERROR


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
        with pytest.raises(cli.InputError, match="bad float") as info:
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
    oracle_case("weights-list", {"kind": "layer", "weights": [1.0], "activation": "relu"}),
    oracle_case("weights-string", {"kind": "layer", "activation": "relu",
                                   "weights": json.dumps(GOOD_WEIGHTS)}),
    oracle_case("clip-string", {"kind": "layer", "weights": GOOD_WEIGHTS,
                                "activation": "tanh", "clip": "4"}),
    oracle_case("clip-float", {"kind": "layer", "weights": GOOD_WEIGHTS,
                               "activation": "tanh", "clip": 4.5}),
    oracle_case("target-dim", {"kind": "matrix", "rows": 2, "cols": 1, "data": [1.0, 2.0]}),
    layer_case("top-level-list", [1.0, 1.0]),
    layer_case("top-level-string", json.dumps(json.dumps(GOOD_WEIGHTS))),
    layer_case("missing-data", {"rows": 1, "cols": 2}),
    layer_case("rank-deficient", {"rows": 1, "cols": 2, "data": [0.0, 0.0]}),
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
    pytest.param(["drazin"], {"domain": 2.9, "codomain": 2, "table": [1, 0]}, '"domain"',
                 id="drazin-float-domain"),
])
def test_validation_errors_name_the_field(tmp_path, capsys, argv, op, field):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    assert cli.main(argv + ["--op", str(path)]) == cli.EXIT_INPUT_ERROR
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
