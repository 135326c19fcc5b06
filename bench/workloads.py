"""The three workloads: seeded inputs, the calls that use them, their oracles.

`build(name, rng, geninv)` writes the input files into the current
directory and returns the fixed mix of one pass: a list of `Call`s. Sizes
follow a fixed ladder and the seed draws the contents (labels, maps,
matrices, targets, parameters), so every seed costs about the same while
no two seeds share inputs. Each `Call.run` goes through a module attribute
at call time, so the tracer's rebinding is seen.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
import io
import json

import numpy as np

import oracles

P31 = 2 ** 31 - 1


@dataclass
class Call:
    kind: str                 # what the call exercises, e.g. "drazin-cli"
    run: object               # () -> raw output; the only timed part
    view: object              # raw output -> plain data for digest and check
    check: object             # plain data -> bool
    cli: bool = False         # stdout must be byte-identical to the warm-up
    targets: int = 0          # target values handed to pseudo_inverse
    defect: bool = False      # a known library defect: checked apart, never timed


def run_cli(geninv, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = geninv.cli.main(argv)
        except SystemExit as e:              # argparse rejects its input
            rc = e.code
    return rc, out.getvalue()


def cli_call(geninv, kind, argv, check, out_file=None, targets=0):
    """A CLI call whose stdout JSON (and output file, if any) is checked."""
    def view(raw):
        rc, stdout = raw
        extra = None
        if out_file is not None:
            with open(out_file) as fh:
                extra = fh.read()
        return rc, stdout, extra

    def verdict(data):
        rc, stdout, extra = data
        if rc != 0:
            return False
        obj = json.loads(stdout)
        return check(obj, extra) if out_file else check(obj)

    return Call(kind, lambda: run_cli(geninv, argv), view, verdict, True, targets)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def write_csv(path, values):
    with open(path, "w") as fh:
        fh.write("".join(repr(float(x)) + "\n" for x in values))
    return path


def write_table(path, t):
    t = [int(x) for x in t]
    return write_json(path, {"domain": len(t), "codomain": len(t), "table": t})


def relabel(t, rng):
    """The same map with its points renamed by a random permutation."""
    perm = rng.permutation(len(t))
    out = np.empty(len(t), dtype=np.int64)
    out[perm] = perm[np.asarray(t)]
    return out


def cyclic_permutation(lengths, rng):
    """A permutation with the given cycle lengths on randomly drawn labels.

    The cost of the vanishing-polynomial search follows the cycle type, so
    fixing it keeps every seed equally expensive."""
    labels = rng.permutation(sum(lengths))
    t = np.empty(len(labels), dtype=np.int64)
    start = 0
    for n in lengths:
        cycle = labels[start:start + n]
        t[cycle] = np.roll(cycle, -1)
        start += n
    return t


def dense_fp_matrix(rng, n, p):
    """Entries drawn from 1..p-1: cofactor expansion skips zero entries, so
    zeros would make the cost depend on the seed."""
    return rng.integers(1, p, (n, n))


def csv_floats(text):
    return np.array([float(x) for x in text.split()])


# ---------------------------------------------------------------------------
# exact_large: functional graphs and exact F_p arithmetic at size
# ---------------------------------------------------------------------------

def drazin_cli(g, path, t):
    t = np.asarray(t, dtype=np.int64)
    write_table(path, t)
    return cli_call(g, "drazin-cli", ["drazin", "--op", path],
                    lambda out: oracles.drazin_ok(t, out))


def vanish_cli(g, path, t, p, n):
    t = np.asarray(t, dtype=np.int64)
    write_table(path, t)
    return cli_call(g, "vanish-cli", ["vanish", "--op", path, "--prime", str(p)],
                    lambda out: oracles.vanish_ok(t, p, n, out))


def one_two_call(g, t, codomain):
    T = g.core_ops.FiniteOperator(len(t), codomain, tuple(int(x) for x in t))
    return Call("one-two-inverse",
                lambda: g.set_inverse.build_one_two_inverse(T),
                lambda G: np.asarray(G.table, dtype=np.int64)
                if (G.domain_size, G.codomain_size) == (codomain, len(t)) else None,
                lambda G: G is not None and oracles.one_two_inverse_ok(t, codomain, G))


def char_poly_call(g, A, p):
    return Call("fp-char-poly", lambda: g.numerics.fp_char_poly(A, p),
                lambda c: [int(x) for x in c],
                lambda c: oracles.char_poly_ok(A, p, c))


def inverse_call(g, kind, fn, A, p, defect=False):
    return Call(kind, lambda: fn()(A, p), lambda inv: inv,
                lambda inv: oracles.fp_inverse_ok(A, p, inv), defect=defect)


def exact_large(g, rng):
    calls = []
    # four equally costly n = 1000 path maps, about a sixth of the calls,
    # are the slowest; call_ms_p90 falls well inside their cost level
    for i, n in enumerate((250, 1000, 1000, 1000, 1000)):
        path = np.maximum(np.arange(n) - 1, 0)              # v -> max(v-1, 0)
        calls.append(drazin_cli(g, "path_%d.json" % i, relabel(path, rng)))
    for i in range(2):
        calls.append(drazin_cli(g, "random_%d.json" % i, rng.integers(0, 10_000, 10_000)))
    n = 2 ** 16 + 1
    calls.append(drazin_cli(g, "halving.json", relabel(np.arange(n) // 2, rng)))
    calls.append(vanish_cli(g, "perm_2_7.json", cyclic_permutation((80, 30, 12, 4, 1, 1), rng),
                            2, 7))
    calls.append(vanish_cli(g, "perm_5_3.json", cyclic_permutation((75, 30, 13, 5, 2), rng),
                            5, 3))
    calls.append(vanish_cli(g, "map_3_4.json", rng.integers(0, 3 ** 4, 3 ** 4), 3, 4))
    calls.append(vanish_cli(g, "map_2_7.json", rng.integers(0, 2 ** 7, 2 ** 7), 2, 7))
    for _ in range(2):
        calls.append(one_two_call(g, rng.integers(0, 15_000, 20_000), 15_000))
    for n in (6, 7):
        for p in (3, 65521, P31):
            A = dense_fp_matrix(rng, n, p)
            calls.append(char_poly_call(g, A, p))
            if p != P31:
                calls.append(inverse_call(g, "cayley-hamilton",
                                          lambda: g.vanishing.cayley_hamilton_inverse, A, p))
    # Cayley-Hamilton at p = 2^31-1 gives wrong inverses (fp_matmul
    # overflows int64). These calls are checked after the timed passes and
    # their failures reported on their own, so the timed mix stays correct
    # and a fix shows as the failure count dropping to zero.
    for n in (4, 5, 6, 7):
        calls.append(inverse_call(g, "cayley-hamilton-p31",
                                  lambda: g.vanishing.cayley_hamilton_inverse,
                                  dense_fp_matrix(rng, n, P31), P31, defect=True))
    for p in (65521, P31):
        A = rng.integers(0, p, (64, 64))
        calls.append(inverse_call(g, "fp-invert", lambda: g.numerics.fp_invert, A, p))
    return calls


# ---------------------------------------------------------------------------
# real_large: real-valued operators at size
# ---------------------------------------------------------------------------

def denoise_cli(g, i, n, kind, a, x):
    sig, out = write_csv("signal_%d.csv" % i, x), "denoised_%d.csv" % i
    argv = ["denoise", "--n", str(n), "--kind", kind, "--a", repr(a),
            "--signal", sig, "--out", out]
    return cli_call(g, "denoise-cli", argv,
                    lambda obj, text: oracles.denoise_ok(x, kind, a, csv_floats(text)),
                    out_file=out)


def pinv_batch_call(g, kind, params, w):
    def run():
        op = g.pseudo_inverse.Scalar1DOperator(kind, **params)
        return g.pseudo_inverse.pinv1d_operator(op).apply_batch(w[:, None])
    return Call("pinv1d-operator", run, lambda v: v,
                lambda v: oracles.pinv_batch_ok(kind, params, w, v), targets=len(w))


def layer_cli(g, i, A, w, act, clip):
    weights = write_json("weights_%d.json" % i, {"rows": A.shape[0], "cols": A.shape[1],
                                                 "data": [float(x) for x in A.ravel()]})
    argv = ["layer-pinv", "--weights", weights, "--act", act,
            "--w", write_csv("target_%d.csv" % i, w)]
    if clip is not None:
        argv += ["--clip", str(clip)]
    return cli_call(g, "layer-pinv-cli", argv,
                    lambda out: oracles.layer_ok(A, w, act, clip, out))


def layer_targets(rng, m, act, clip):
    if act == "relu":
        w = rng.normal(size=m)
        w[rng.random(m) < 0.3] = 0.0
        return w
    hi = 1.0 - 1.0 / clip
    w = rng.uniform(-0.9 * hi, 0.9 * hi, size=m)
    clipped = rng.random(m) < 0.25
    w[clipped] = np.sign(w[clipped]) * rng.uniform(hi, 1.5, size=int(clipped.sum()))
    return w


# kind -> sampler of (parameters, target) whose answer lies well inside the [-4, 4] grid box
GRID_PARTS = {
    "relu": lambda rng: ({}, rng.uniform(-3, 3)),
    "soft_threshold": lambda rng: ({"a": rng.uniform(0.5, 1.5)}, rng.uniform(-2.3, 2.3)),
    "hard_threshold": lambda rng: ({"a": rng.uniform(1.0, 2.0)}, rng.uniform(-3.5, 3.5)),
    "sign_eps": lambda rng: ({"eps": rng.uniform(0.5, 2.0)}, rng.uniform(-1.5, 1.5)),
    "linear": lambda rng: ({"c": rng.uniform(0.5, 2.0)}, rng.uniform(-1.7, 1.7)),
}
GRID_STEP = 0.01


def grid_target(rng, kind):
    params, w = GRID_PARTS[kind](rng)
    # keep hard-threshold targets clear of the a/2 switch, where grid
    # rounding may legitimately pick the other side
    while kind == "hard_threshold" and abs(abs(w) - params["a"] / 2) < 0.05:
        w = rng.uniform(-3.5, 3.5)
    return params, w


def oracle_cli(g, i, kinds, rng):
    parts, w = [], []
    for kind in kinds:
        params, wi = grid_target(rng, kind)
        parts.append((kind, params))
        w.append(wi)
    op = write_json("grid_op_%d.json" % i, {"kind": "componentwise", "parts": [
        dict(kind=kind, **params) for kind, params in parts]})
    argv = ["oracle", "--op", op, "--w=" + ",".join(repr(x) for x in w),
            "--box", "-4", "4", "--step", repr(GRID_STEP)]
    return cli_call(g, "oracle-cli", argv,
                    lambda out: oracles.grid_oracle_ok(parts, w, GRID_STEP, out),
                    targets=1)


DYKSTRA_HARD_POINT = 20 * np.array([0.8367, 0.5444, -0.0593])


def intersection_call(g, rng, points):
    si = g.structured_inverse
    dim = 3
    lo, hi = -np.ones(dim), np.ones(dim)
    center, radius = np.full(dim, 0.3), 1.2
    normal, offset = np.ones(dim), 0.8
    C = si.Intersection([si.Box(lo, hi), si.L2Ball(center, radius),
                         si.Halfspace(normal, offset)], np.zeros(dim))
    # Dykstra stops when the slowest point of the batch settles; the far
    # point below needs 694 sweeps, more than any seeded point, so every
    # seed costs the same number of sweeps
    Y = np.vstack([rng.normal(scale=3.0, size=(points - 1, dim)), DYKSTRA_HARD_POINT])
    return Call("dykstra-projection", lambda: C.project_batch(Y), lambda X: X,
                lambda X: oracles.intersection_projection_ok(
                    lo, hi, center, radius, normal, offset, Y, X))


def cascade_call(g, rng):
    si = g.structured_inverse
    inner_lo, inner_hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    sets = [si.Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
            si.L2Ball(np.zeros(2), 1.5), si.Box(inner_lo, inner_hi)]
    samples = rng.normal(scale=2.0, size=(16, 2))

    def run():
        cas = si.cascade_pinv(sets)
        return g.pseudo_inverse.check_pseudo_inverse(
            cas.cascade, cas.pseudo_inverse, samples, [(-2.5, 2.5)] * 2, 0.02)
    return Call("cascade-check", run,
                lambda reports: [(r.v, r.bas_ok, r.mp2_ok) for r in reports],
                lambda data: oracles.cascade_reports_ok(inner_lo, inner_hi, samples, data),
                targets=len(samples))


def real_large(g, rng):
    calls = []
    for i, (n, kind) in enumerate([(256, "hard"), (512, "soft"), (1024, "hard"),
                                   (1024, "soft")]):
        calls.append(denoise_cli(g, i, n, kind, float(rng.uniform(0.3, 0.8)),
                                 rng.normal(size=n)))
    # the five 10^5 batches, about a fifth of the calls, are the slowest;
    # call_ms_p90 falls well inside their cost level
    batches = [("hard_threshold", 100_000), ("tanh", 100_000), ("soft_threshold", 100_000),
               ("exp", 100_000), ("linear", 100_000), ("relu", 20_000), ("sign_eps", 20_000)]
    for kind, size in batches:
        if "threshold" in kind:
            params = {"a": float(rng.uniform(0.5, 2.0))}
        elif kind == "linear":
            params = {"c": float(rng.uniform(0.5, 2.0))}
        elif kind == "sign_eps":
            params = {"eps": float(rng.uniform(0.5, 2.0))}
        else:
            params = {}
        if kind == "tanh":
            w = rng.uniform(-0.99, 0.99, size)
        elif kind == "exp":
            w = rng.uniform(0.01, 5.0, size)
        else:
            w = rng.uniform(-3.0, 3.0, size)
        calls.append(pinv_batch_call(g, kind, params, w))
    i = 0
    for m in (30, 60):
        for act, clip in (("relu", None), ("tanh", int(rng.integers(3, 6)))):
            A = rng.normal(size=(m, 2 * m))
            calls.append(layer_cli(g, i, A, layer_targets(rng, m, act, clip), act, clip))
            i += 1
    calls.append(oracle_cli(g, 0, ("relu", "soft_threshold"), rng))
    calls.append(oracle_cli(g, 1, ("hard_threshold", "sign_eps"), rng))
    calls.append(oracle_cli(g, 2, ("linear", "relu"), rng))
    for _ in range(4):                   # 2000 points in four batches
        calls.append(intersection_call(g, rng, 500))
    calls.append(cascade_call(g, rng))
    return calls


# ---------------------------------------------------------------------------
# small_calls: per-call overhead through every layer
# ---------------------------------------------------------------------------

SCALAR_KINDS = [("relu", {}, (-3, 3)), ("hard_threshold", {"a": 1.0}, (-3, 3)),
                ("soft_threshold", {"a": 0.5}, (-3, 3)), ("tanh", {}, (-1.5, 1.5)),
                ("sign_eps", {"eps": 0.5}, (-2, 2)), ("exp", {}, (-1, 5)),
                ("sine", {}, (-2, 2)), ("linear", {"c": 2.0}, (-3, 3))]


def pinv1d_cli(g, kind, params, w):
    argv = ["pinv1d", "--kind", kind, "--w=" + repr(w)]
    for key, value in params.items():
        argv.append("--%s=%r" % (key, value))
    return cli_call(g, "pinv1d-cli", argv,
                    lambda out: oracles.pinv1d_cli_ok(kind, params, w, out), targets=1)


def verify_suite_cli(g, seed, defect=False):
    call = cli_call(g, "verify-suite-any-seed" if defect else "verify-suite-cli",
                    ["verify-suite", "--seed", str(seed)],
                    lambda out: oracles.verify_suite_ok(seed, out))
    call.defect = defect
    return call


def small_calls(g, rng):
    calls = []
    for kind, params, (lo, hi) in SCALAR_KINDS:
        calls.append(pinv1d_cli(g, kind, params, float(rng.uniform(lo, hi))))
    for n in (4, 8, 12, 16):
        calls.append(drazin_cli(g, "small_%d.json" % n, rng.integers(0, n, n)))
    calls.append(vanish_cli(g, "f3_perm.json", rng.permutation(9), 3, 2))
    for i in range(2):
        calls.append(vanish_cli(g, "f3_map_%d.json" % i, rng.integers(0, 9, 9), 3, 2))
    calls.append(layer_cli(g, 0, rng.normal(size=(3, 5)),
                           layer_targets(rng, 3, "relu", None), "relu", None))
    calls.append(layer_cli(g, 1, rng.normal(size=(3, 5)),
                           layer_targets(rng, 3, "tanh", 4), "tanh", 4))
    for i, kind in enumerate(("hard", "soft")):
        calls.append(denoise_cli(g, i, 8, kind, float(rng.uniform(0.3, 0.8)),
                                 rng.normal(size=8)))
    # seven verify-suite runs, about a fifth of the calls, are the slowest;
    # call_ms_p90 falls well inside their cost level. The randomized battery
    # fails on about 2% of seeds (pinv1d_closed_forms_vs_oracle, now and
    # then mp_inverse_residuals); of the seeds 0..199 only seed 95 fails, so
    # the timed calls draw from those and leave it out. Sixteen seeds drawn
    # from the whole range are checked apart from the mix, so the defect
    # still shows.
    for seed in rng.choice(np.setdiff1d(np.arange(200), [95]), 7, replace=False):
        calls.append(verify_suite_cli(g, int(seed)))
    for _ in range(16):
        calls.append(verify_suite_cli(g, int(rng.integers(0, 2 ** 31)), defect=True))
    for n, p in ((2, 3), (3, 5), (4, 7), (5, 65521)):
        calls.append(char_poly_call(g, dense_fp_matrix(rng, n, p), p))
    for n in (3, 5, 7, 8):
        m = int(rng.integers(1, 9))
        calls.append(one_two_call(g, rng.integers(0, m, n), m))
    return calls


BUILDERS = {"exact_large": exact_large, "real_large": real_large,
            "small_calls": small_calls}


def build(name, rng, geninv):
    return BUILDERS[name](geninv, rng)
