"""Self-test of the benchmark's oracles: each accepts a correct answer and
rejects a corrupted one.

    python3 bench/selftest.py

Correct answers come from geninv on small seeded inputs; each is then
corrupted in one place (a Drazin entry, an inverse entry off by one, a
denoised signal moved by 1e-6, a QP point moved off a constraint, ...).
Exit code 0 when every oracle behaves, 1 otherwise.
"""

import copy
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import geninv  # noqa: E402
import geninv.cli  # noqa: E402,F401
import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(name, accepted, corrupted):
    ok = accepted is True and corrupted is False
    print("%s %s (correct answer %s, corrupted answer %s)"
          % ("ok  " if ok else "FAIL", name, "accepted" if accepted else "rejected",
             "accepted" if corrupted else "rejected"))
    if not ok:
        FAILURES.append(name)


def cli_json(argv):
    rc, out = workloads.run_cli(geninv, argv)
    assert rc == 0, (argv, rc)
    return json.loads(out)


def check_drazin(rng):
    for label, t in (("random map", rng.integers(0, 40, 40)),
                     ("path map", workloads.relabel(np.maximum(np.arange(30) - 1, 0), rng))):
        workloads.write_table("t.json", t)
        out = cli_json(["drazin", "--op", "t.json"])
        bad = copy.deepcopy(out)
        j = int(rng.integers(0, len(t)))
        bad["inverse_table"][j] = (bad["inverse_table"][j] + 1) % len(t)
        expect("drazin, one entry changed (%s)" % label, oracles.drazin_ok(t, out),
               oracles.drazin_ok(t, bad))
        bad = dict(out, index=out["index"] + 1)
        expect("drazin, index not least (%s)" % label, oracles.drazin_ok(t, out),
               oracles.drazin_ok(t, bad))


def check_vanish(rng):
    t = rng.permutation(27)
    workloads.write_table("v.json", t)
    out = cli_json(["vanish", "--op", "v.json", "--prime", "3"])
    for field in ("vanishing", "minimal"):
        bad = copy.deepcopy(out)
        bad[field][0] = (bad[field][0] + 1) % 3
        expect("vanish, %s coefficient changed" % field, oracles.vanish_ok(t, 3, 3, out),
               oracles.vanish_ok(t, 3, 3, bad))


def check_fp(rng):
    p = 2 ** 31 - 1
    A = rng.integers(0, 65521, (6, 6))
    inv = geninv.numerics.fp_invert(A, 65521)
    bad = inv.copy()
    bad[2, 3] = (bad[2, 3] + 1) % 65521
    expect("fp inverse, one entry off by one", oracles.fp_inverse_ok(A, 65521, inv),
           oracles.fp_inverse_ok(A, 65521, bad))
    expect("fp inverse, None for an invertible matrix", oracles.fp_inverse_ok(A, 65521, inv),
           oracles.fp_inverse_ok(A, 65521, None))
    A = rng.integers(0, p, (5, 5))
    coeffs = geninv.numerics.fp_char_poly(A, p)
    bad = list(coeffs)
    bad[1] = (bad[1] + 1) % p
    expect("characteristic polynomial, one coefficient off by one",
           oracles.char_poly_ok(A, p, coeffs), oracles.char_poly_ok(A, p, bad))


def check_one_two(rng):
    t = rng.integers(0, 12, 20)
    T = geninv.core_ops.FiniteOperator(20, 12, tuple(int(x) for x in t))
    g = np.asarray(geninv.set_inverse.build_one_two_inverse(T).table)
    bad = g.copy()
    w = int(t[0])                      # an image point; send it to a source of another point
    bad[w] = int(np.flatnonzero(t != t[g[w]])[0])
    expect("{1,2}-inverse, one entry changed", oracles.one_two_inverse_ok(t, 12, g),
           oracles.one_two_inverse_ok(t, 12, bad))


def check_scalar(rng):
    w = rng.uniform(-0.9, 0.9, 1000)
    op = geninv.pseudo_inverse.Scalar1DOperator("tanh")
    v = geninv.pseudo_inverse.pinv1d_operator(op).apply_batch(w[:, None])
    bad = v.copy()
    bad[17] += 1e-6
    expect("pinv1d_operator, one value moved by 1e-6", oracles.pinv_batch_ok("tanh", {}, w, v),
           oracles.pinv_batch_ok("tanh", {}, w, bad))
    out = cli_json(["pinv1d", "--kind", "soft", "--a", "0.5", "--w=-1.25"])
    params = {"a": 0.5}
    expect("pinv1d CLI, value moved by 1e-6",
           oracles.pinv1d_cli_ok("soft_threshold", params, -1.25, out),
           oracles.pinv1d_cli_ok("soft_threshold", params, -1.25,
                                 dict(out, value=out["value"] + 1e-6)))
    out = cli_json(["pinv1d", "--kind", "tanh", "--w", "1.5"])
    expect("pinv1d CLI, undefined target reported as defined",
           oracles.pinv1d_cli_ok("tanh", {}, 1.5, out),
           oracles.pinv1d_cli_ok("tanh", {}, 1.5, dict(out, defined=True, value=0.0)))


def check_grid(rng):
    parts = [("relu", {}), ("soft_threshold", {"a": 1.0})]
    workloads.write_json("op.json", {"kind": "componentwise", "parts": [
        {"kind": "relu"}, {"kind": "soft_threshold", "a": 1.0}]})
    out = cli_json(["oracle", "--op", "op.json", "--w=-2.5,1.5", "--box", "-4", "4",
                    "--step", "0.01"])
    bad = dict(out, v=[out["v"][0], out["v"][1] + 0.03])
    expect("grid oracle, point 3 steps off", oracles.grid_oracle_ok(parts, [-2.5, 1.5], 0.01, out),
           oracles.grid_oracle_ok(parts, [-2.5, 1.5], 0.01, bad))


def check_denoise(rng):
    x = rng.normal(size=64)
    workloads.write_csv("x.csv", x)
    for kind in ("hard", "soft"):
        cli_json(["denoise", "--n", "64", "--kind", kind, "--a", "0.6", "--signal", "x.csv",
                  "--out", "y.csv"])
        with open("y.csv") as fh:
            y = workloads.csv_floats(fh.read())
        bad = y.copy()
        bad[5] += 1e-6
        expect("denoise (%s), one sample moved by 1e-6" % kind,
               oracles.denoise_ok(x, kind, 0.6, y), oracles.denoise_ok(x, kind, 0.6, bad))


def check_layers(rng):
    A = rng.normal(size=(6, 12))
    w = workloads.layer_targets(rng, 6, "relu", None)
    layer = geninv.applied.NeuralLayer(A, "relu")
    v = geninv.applied.relu_layer_pinv(layer, w)
    out = {"defined": True, "v": list(v)}
    A_eq = oracles.relu_layer_problem(A, w)[0]
    off = v + 1e-3 * A_eq[0] / np.linalg.norm(A_eq[0])     # leaves an equality
    expect("relu layer QP, point moved off an equality",
           oracles.layer_ok(A, w, "relu", None, out),
           oracles.layer_ok(A, w, "relu", None, {"defined": True, "v": list(off)}))
    w = np.array([0.2, -0.1, 0.95, -0.99, 0.3, 0.0])
    layer = geninv.applied.NeuralLayer(A, "tanh", 4)
    v = geninv.applied.clipped_tanh_layer_pinv(layer, w)
    A_eq, b_eq, A_in, d_in = oracles.clipped_tanh_problem(A, w, 4)
    # slide along the equalities until an active clip constraint is violated
    null = np.linalg.svd(A_eq)[2][len(A_eq):].T
    d = null @ (null.T @ A_in[0])
    off = v + 2e-3 * d / np.linalg.norm(d)
    expect("clipped tanh layer QP, point moved off an active inequality",
           oracles.layer_ok(A, w, "tanh", 4, {"defined": True, "v": list(v)}),
           oracles.layer_ok(A, w, "tanh", 4, {"defined": True, "v": list(off)}))
    # a longer point along the equalities fails feasibility or the KKT signs
    longer = v + 0.5 * null[:, 0] * np.sign(null[:, 0] @ v + 1e-12)
    ok_long = oracles.layer_ok(A, w, "tanh", 4, {"defined": True, "v": list(longer)})
    expect("clipped tanh layer QP, longer point along the equalities",
           oracles.layer_ok(A, w, "tanh", 4, {"defined": True, "v": list(v)}), ok_long)


def check_projection(rng):
    si = geninv.structured_inverse
    dim = 3
    lo, hi, center, radius = -np.ones(dim), np.ones(dim), np.full(dim, 0.3), 1.2
    normal, offset = np.ones(dim), 0.8
    C = si.Intersection([si.Box(lo, hi), si.L2Ball(center, radius),
                         si.Halfspace(normal, offset)], np.zeros(dim))
    Y = rng.normal(scale=3.0, size=(50, dim))
    X = C.project_batch(Y)
    outside = X.copy()
    outside[0] = center + 1.01 * radius * (X[0] - center) / np.linalg.norm(X[0] - center)
    args = (lo, hi, center, radius, normal, offset, Y)
    expect("Dykstra projection, point moved outside the ball",
           oracles.intersection_projection_ok(*args, X),
           oracles.intersection_projection_ok(*args, outside))
    inward = X.copy()
    inward[0] = 0.9 * X[0]                # feasible (0 is inside), but not the nearest point
    expect("Dykstra projection, feasible point that is not the nearest",
           oracles.intersection_projection_ok(*args, X),
           oracles.intersection_projection_ok(*args, inward))


def check_cascade(rng):
    call = workloads.cascade_call(geninv, rng)
    data = call.view(call.run())
    bad = [(v + 1e-6, b, m) for v, b, m in data]
    expect("cascade reports, value moved by 1e-6", call.check(data), call.check(bad))


def check_suite(rng):
    out = cli_json(["verify-suite", "--seed", "5"])
    expect("verify-suite, one check marked failed", oracles.verify_suite_ok(5, out),
           oracles.verify_suite_ok(5, dict(out, checks=[dict(out["checks"][0], **{"pass": False})]
                                           + out["checks"][1:])))


def main():
    rng = np.random.default_rng(2024)
    with tempfile.TemporaryDirectory(dir=str(BENCH.parent)) as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for check in (check_drazin, check_vanish, check_fp, check_one_two, check_scalar,
                          check_grid, check_denoise, check_layers, check_projection,
                          check_cascade, check_suite):
                check(rng)
        finally:
            os.chdir(cwd)
    print("%d oracle self-test failures" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
