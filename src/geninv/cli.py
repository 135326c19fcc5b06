"""geninv command line: operator I/O, inverse computation, verification.

Subcommands: pinv1d, oracle, layer-pinv, denoise, drazin, vanish,
verify-suite. JSON goes to stdout (sorted keys, byte-identical across runs
with the same flags and seed); diagnostics go to stderr. Exit codes:
0 pass, 1 check failure, 2 input error, 3 numerical non-convergence.
"""

import argparse
import functools
import json
import sys
import time
import traceback

import numpy as np

from . import core_ops, numerics, set_inverse, pseudo_inverse
from . import structured_inverse, applied, endofunction, vanishing

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


class InputError(Exception):
    pass


def _emit(obj):
    """Strict JSON: a NaN or infinite number raises ValueError, an input error."""
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                allow_nan=False) + "\n")


def _read_json_file(path):
    """The JSON object in file `path`; InputError naming the file otherwise."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise InputError("malformed JSON in %s at line %d column %d"
                         % (path, e.lineno, e.colno))
    return _json_object(obj, path)


def _json_object(obj, what):
    if not isinstance(obj, dict):
        raise InputError("%s must be a JSON object" % what)
    return obj


def _read_csv_signal(path):
    try:
        with open(path) as fh:
            lines = [ln for ln in map(str.strip, fh) if ln]
        # numpy converts each str with Python's float(): same inputs accepted
        return np.array(lines, dtype=float)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise InputError("bad float in %s: %s" % (path, e))


def _write_csv_signal(path, values):
    try:
        with open(path, "w") as fh:
            fh.write("".join(repr(v) + "\n"
                             for v in np.asarray(values, dtype=float).tolist()))
    except OSError as e:
        raise InputError("cannot write %s: %s" % (path, e))


def load_vector_operator(obj):
    """Operator JSON -> VectorOperator. Kinds: scalar table entries,
    "matrix", "layer", and "componentwise" products of scalar kinds."""
    kind = _json_object(obj, "operator")["kind"]
    if not isinstance(kind, str):
        raise InputError("operator \"kind\" must be a string")
    if kind == "matrix":
        return core_ops.VectorOperator.from_matrix(numerics.matrix_from_json(obj))
    if kind == "layer":
        A = numerics.matrix_from_json(_json_object(obj["weights"], "\"weights\""))
        if obj.get("clip") is not None:
            numerics.integer_entries([obj["clip"]], '"clip"')
        return applied.NeuralLayer(A, obj["activation"], obj.get("clip")).operator()
    if kind == "componentwise":
        if not isinstance(obj["parts"], list):
            raise InputError("\"parts\" must be a JSON list")
        return structured_inverse.product_operator(
            [load_vector_operator(p) for p in obj["parts"]])
    params = {"a": obj.get("a", 0.0), "eps": obj.get("eps", 1.0), "c": obj.get("c", 1.0)}
    for name, x in params.items():
        numerics.real_entries([x], '"%s"' % name)
    return pseudo_inverse.Scalar1DOperator(kind, **params).as_vector_operator()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pinv1d(args):
    op = pseudo_inverse.Scalar1DOperator(args.kind, a=args.a, eps=args.eps, c=args.c)
    res = pseudo_inverse.closed_form_pinv(op, args.w)
    _emit({"kind": op.kind, "w": args.w, "defined": res.defined, "values": list(res.values),
           "value": (res.values[0] if res.defined and len(res.values) == 1 else None)})
    return EXIT_OK


def cmd_oracle(args):
    T = load_vector_operator(_read_json_file(args.op))
    w = np.array([float(x) for x in args.w.split(",")])
    # GridOracle tests the target only after building its grids
    if len(w) != T.dim_out:
        raise InputError("target has dim %d but operator maps to dim %d"
                         % (len(w), T.dim_out))
    best = pseudo_inverse.grid_bas_oracle(T, w, [tuple(args.box)] * T.dim_in, args.step)
    _emit({"v": [float(x) for x in best.v], "residual": best.residual, "norm": best.norm})
    return EXIT_OK


def cmd_layer_pinv(args):
    A = numerics.matrix_from_json(_read_json_file(args.weights))
    layer = applied.NeuralLayer(A, args.act, args.clip)
    w = _read_csv_signal(args.w)
    if len(w) != A.shape[0]:
        raise InputError("target length %d does not match %d weight rows"
                         % (len(w), A.shape[0]))
    if args.act == "relu":
        v = applied.relu_layer_pinv(layer, w)
    elif args.clip is not None:
        v = applied.clipped_tanh_layer_pinv(layer, w)
    else:
        v = applied.tanh_layer_pinv(layer, w)
    _emit({"v": None if v is None else [float(x) for x in v], "defined": v is not None})
    return EXIT_OK


def cmd_denoise(args):
    basis = applied.haar_basis(args.n)
    rt = applied.wavelet_threshold_roundtrip(basis, args.kind, args.a,
                                             _read_csv_signal(args.signal))
    _write_csv_signal(args.out, rt.denoised)
    again = applied.wavelet_threshold_roundtrip(basis, args.kind, args.a, rt.roundtrip)
    _emit({"out": args.out, "difference_norm": rt.difference_norm,
           "idempotent_residual": float(np.linalg.norm(again.roundtrip - rt.roundtrip)),
           "witness_difference_norm": rt.witness_difference_norm})
    return EXIT_OK


def cmd_drazin(args):
    res = endofunction.drazin_inverse(
        core_ops.FiniteOperator.from_json(_read_json_file(args.op)))
    # T^j(V) = {v : exit_level[v] >= j} for j = 0..k, in O(n) output
    _emit({"exists": res.exists, "index": res.index,
           "inverse_table": list(res.inverse.table),
           "exit_level": res.graph.exit_level.tolist()})
    return EXIT_OK


def cmd_vanish(args):
    T_table = core_ops.FiniteOperator.from_json(_read_json_file(args.op))
    if not T_table.is_endofunction:
        raise InputError("vanishing polynomials need an endofunction")
    p, size = args.prime, T_table.domain_size
    numerics.fp_check(p)           # before the loop below, which a p < 2 never ends
    n = 0
    while p ** n < size:
        n += 1
    if p ** n != size:
        raise InputError("domain size %d is not a power of prime %d" % (size, p))
    T = vanishing.FpVectorOperator(p, n, T_table.arr)
    l, m = vanishing.stabilization_profile(T)
    van, mini = vanishing.find_vanishing_poly(T), vanishing.minimal_poly(T)
    _emit({"vanishing": [int(c) for c in van.coeffs],
           "minimal": [int(c) for c in mini.coeffs],
           "degree_bound": m * m + l})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------

def _pinv1d_closed_forms_vs_oracle(rng):
    step = 1e-2
    worst = 0.0
    for kind, param in [("relu", {}), ("soft_threshold", {"a": 1.0}),
                        ("hard_threshold", {"a": 2.0}), ("sign_eps", {"eps": 0.5})]:
        op = pseudo_inverse.Scalar1DOperator(kind, **param)
        oracle = pseudo_inverse.GridOracle(op.as_vector_operator(), [(-6, 6)], step)
        for w in rng.uniform(-4, 4, size=8):
            cf = pseudo_inverse.closed_form_pinv(op, w)
            best = oracle.query(np.array([w]))
            worst = max(worst, min(abs(v - best.v[0]) for v in cf.values))
    return worst <= 2 * step, {"max_arg_gap": worst}


def _mp_inverse_residuals(rng):
    E = np.array([[0.0, 0.0], [1.0, 1.0]])
    worst = float(np.abs(numerics.mp_inverse(E) - np.array([[0, 0.5], [0, 0.5]])).max())
    for _ in range(10):
        A = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        r = numerics.mp_residuals(A, numerics.mp_inverse(A))
        worst = max(worst, max(r.values()) / (1 + np.linalg.norm(A)))
    return worst <= 1e-9, {"worst": worst}


def _one_two_inverse_suite(rng):
    """{1,2}-inverse construction and enumeration counts."""
    ok = True
    for _ in range(20):
        nv, nw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        T = core_ops.FiniteOperator(nv, nw, tuple(rng.integers(0, nw, size=nv)))
        G = set_inverse.build_one_two_inverse(T)
        ok &= set_inverse.check_mp_axioms(T, G) == (True, True)
        ok &= set_inverse.double_inverse(T, G) == T
        found = set_inverse.enumerate_one_two_inverses(T)
        ok &= len(found) == set_inverse.one_two_inverse_count(T)
    return ok, {}


def _projection_layer(rng):
    """Projections are 1-Lipschitz; the cascade inverts to its innermost projection."""
    sets = [structured_inverse.Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
            structured_inverse.L2Ball(np.zeros(2), 1.5),
            structured_inverse.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))]
    worst = 0.0
    for C in sets:
        X = rng.normal(scale=3, size=(100, 2))
        Y = rng.normal(scale=3, size=(100, 2))
        lhs = np.linalg.norm(C.project_batch(X) - C.project_batch(Y), axis=1)
        rhs = np.linalg.norm(X - Y, axis=1)
        worst = max(worst, float(np.max(lhs - rhs)))
    cas = structured_inverse.cascade_pinv(sets)
    reports = pseudo_inverse.check_pseudo_inverse(
        cas.cascade, cas.pseudo_inverse, rng.normal(scale=2, size=(4, 2)),
        [(-2.5, 2.5)] * 2, 0.05)
    return (worst <= 1e-9 and all(r.bas_ok and r.mp2_ok for r in reports),
            {"lipschitz_excess": worst})


def _relu_layer_qp(rng):
    """Relu layer inversion satisfies KKT and MP axioms."""
    ok = True
    for _ in range(10):
        m, n = sorted((int(rng.integers(1, 4)), int(rng.integers(2, 6))))
        layer = applied.NeuralLayer(rng.normal(size=(m, n)), "relu")
        w = np.maximum(rng.normal(size=m), 0.0)
        v = applied.relu_layer_pinv(layer, w)
        Tv = np.maximum(layer.weights @ v, 0.0)
        ok &= bool(np.linalg.norm(Tv - np.maximum(w, 0.0)) <= 1e-8)
    return ok, {}


def _wavelet_identities(rng):
    basis = applied.haar_basis(8)
    x = rng.normal(size=8)
    hard = applied.wavelet_threshold_roundtrip(basis, "hard", 0.5, x)
    soft = applied.wavelet_threshold_roundtrip(basis, "soft", 0.5, x)
    return (hard.difference_norm <= 1e-10 and soft.witness_difference_norm >= 0.45,
            {"hard_diff": hard.difference_norm, "soft_witness": soft.witness_difference_norm})


def _drazin_vs_exhaustive(rng):
    ok = True
    for _ in range(30):
        T = core_ops.FiniteOperator(4, 4, tuple(rng.integers(0, 4, size=4)))
        res = endofunction.drazin_inverse(T)
        found = endofunction.exhaustive_drazin_search(T)
        ok &= res.exists and len(found) == 1 and found[0] == res.inverse
    return ok, {}


def _vanishing_and_cayley_hamilton(rng):
    ok = True
    for _ in range(10):
        p, n = int(rng.choice([2, 3])), int(rng.integers(1, 4))
        T = vanishing.FpVectorOperator(p, n, rng.integers(0, p ** n, size=p ** n))
        q = vanishing.find_vanishing_poly(T)
        mini = vanishing.minimal_poly(T)
        ok &= vanishing.poly_vanishes(q, T) and mini.divides(q)
    for _ in range(10):
        p, n = int(rng.choice([2, 3, 5, 7])), int(rng.integers(1, 5))
        A = rng.integers(0, p, size=(n, n))
        inv = numerics.fp_invert(A, p)
        if inv is not None:
            ok &= np.array_equal(vanishing.cayley_hamilton_inverse(A, p), inv)
    return ok, {}


def _suite_checks(seed):
    """The checks' records (named after their functions), run in turn on one
    generator. A check that raises fails with the error as its detail."""
    rng = np.random.default_rng(seed)
    checks = []
    for check in (_pinv1d_closed_forms_vs_oracle, _mp_inverse_residuals,
                  _one_two_inverse_suite, _projection_layer, _relu_layer_qp,
                  _wavelet_identities, _drazin_vs_exhaustive, _vanishing_and_cayley_hamilton):
        try:
            ok, detail = check(rng)
        except Exception as e:
            traceback.print_exc()
            ok, detail = False, {"error": "%s: %s" % (type(e).__name__, e)}
        checks.append({"name": check.__name__[1:], "pass": bool(ok), "detail": detail})
    return checks


def cmd_verify_suite(args):
    t0 = time.time()
    checks = _suite_checks(args.seed)
    all_pass = all(c["pass"] for c in checks)
    sys.stderr.write("verify-suite: %d checks in %.2fs\n" % (len(checks), time.time() - t0))
    _emit({"command": "verify-suite", "seed": args.seed,
           "checks": checks, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="geninv",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv1d", help="closed-form 1-D pseudo-inverse value")
    p.add_argument("--kind", required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--w", type=float, required=True)
    p.set_defaults(fn=cmd_pinv1d)

    p = sub.add_parser("oracle", help="grid BAS oracle search")
    p.add_argument("--op", required=True, help="operator JSON file")
    p.add_argument("--w", required=True, help="target, comma-separated floats")
    p.add_argument("--box", type=float, nargs=2, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("layer-pinv", help="invert a neural layer")
    p.add_argument("--weights", required=True, help="matrix JSON file")
    p.add_argument("--act", choices=["tanh", "relu"], required=True)
    p.add_argument("--w", required=True, help="target CSV file, one float per line")
    p.add_argument("--clip", type=int, default=None)
    p.set_defaults(fn=cmd_layer_pinv)

    p = sub.add_parser("denoise", help="wavelet threshold a signal")
    p.add_argument("--basis", choices=["haar"], default="haar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["hard", "soft"], required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_denoise)

    p = sub.add_parser("drazin", help="Drazin inverse of a finite endofunction")
    p.add_argument("--op", required=True, help="operator JSON file")
    p.set_defaults(fn=cmd_drazin)

    p = sub.add_parser("vanish", help="vanishing and minimal polynomials over F_p")
    p.add_argument("--op", required=True, help="operator JSON file")
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(fn=cmd_vanish)

    p = sub.add_parser("verify-suite", help="run the randomized property battery")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_verify_suite)

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    """Run one subcommand; the one place that decides what is bad input (exit 2):
    InputError, OSError, KeyError (a missing JSON field) and ValueError, which
    is how the library rejects input. ArithmeticError exits 3."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as e:
        sys.stderr.write("input error: JSON is missing the %s field\n" % e)
    except (InputError, OSError, ValueError) as e:
        sys.stderr.write("input error: %s\n" % e)
    except ArithmeticError as e:
        sys.stderr.write("non-convergence: %s\n" % e)
        return EXIT_NO_CONVERGENCE
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
