import json

import numpy as np

from geninv import cli

from helpers import image_chain_steps


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
