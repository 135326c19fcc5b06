"""geninv command line: operator I/O, inverse computation, verification.

Subcommands: pinv1d, oracle, layer-pinv, denoise, drazin, vanish,
verify-suite. JSON goes to stdout (sorted keys, byte-identical across runs
with the same flags and seed); diagnostics go to stderr. Exit codes:
0 pass, 1 check failure, 2 input error, 3 numerical non-convergence.
"""

import argparse
import json
import sys
import time

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
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise InputError("malformed JSON in %s at line %d column %d"
                         % (path, e.lineno, e.colno))


def _read_csv_signal(path):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        return np.array([float(x) for x in lines])
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise InputError("bad float in %s: %s" % (path, e))


def _write_csv_signal(path, values):
    try:
        with open(path, "w") as fh:
            for x in values:
                fh.write(repr(float(x)) + "\n")
    except OSError as e:
        raise InputError("cannot write %s: %s" % (path, e))


def _parse_inline_vector(text):
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise InputError("expected comma-separated floats, got %r" % text)


def _scalar_op_from_args(args):
    try:
        return pseudo_inverse.Scalar1DOperator(args.kind, a=args.a,
                                               eps=args.eps, c=args.c)
    except ValueError as e:
        raise InputError(str(e))


def load_vector_operator(obj):
    """Operator JSON -> VectorOperator. Kinds: scalar table entries,
    "matrix", "layer", and "componentwise" products of scalar kinds."""
    kind = obj.get("kind")
    if kind is None:
        raise InputError("operator JSON needs a \"kind\" field")
    try:
        if kind == "matrix":
            A = numerics.matrix_from_json(obj)
            return core_ops.VectorOperator.from_matrix(A)
        if kind == "layer":
            A = numerics.matrix_from_json(obj["weights"])
            layer = applied.NeuralLayer(A, obj["activation"], obj.get("clip"))
            return layer.operator()
        if kind == "componentwise":
            parts = [load_vector_operator(p) for p in obj["parts"]]
            return structured_inverse.product_operator(parts)
        op = pseudo_inverse.Scalar1DOperator(kind, a=obj.get("a", 0.0),
                                             eps=obj.get("eps", 1.0),
                                             c=obj.get("c", 1.0))
    except KeyError as e:
        raise InputError("operator JSON is missing the %s field" % e)
    except ValueError as e:
        raise InputError(str(e))
    return op.as_vector_operator()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pinv1d(args):
    op = _scalar_op_from_args(args)
    res = pseudo_inverse.closed_form_pinv(op, args.w)
    out = {"kind": op.kind, "w": args.w, "defined": res.defined,
           "values": list(res.values),
           "value": (res.values[0] if res.defined and len(res.values) == 1 else None)}
    _emit(out)
    return EXIT_OK


def cmd_oracle(args):
    T = load_vector_operator(_read_json_file(args.op))
    w = _parse_inline_vector(args.w)
    if len(w) != T.dim_out:
        raise InputError("target has dim %d but operator maps to dim %d"
                         % (len(w), T.dim_out))
    box = [(args.box[0], args.box[1])] * T.dim_in
    best = pseudo_inverse.grid_bas_oracle(T, w, box, args.step)
    _emit({"v": [float(x) for x in best.v], "residual": best.residual,
           "norm": best.norm})
    return EXIT_OK


def cmd_layer_pinv(args):
    try:
        A = numerics.matrix_from_json(_read_json_file(args.weights))
    except KeyError as e:
        raise InputError("weights JSON is missing the %s field" % e)
    try:
        layer = applied.NeuralLayer(A, args.act, args.clip)
    except ValueError as e:
        raise InputError(str(e))
    w = _read_csv_signal(args.w)
    if len(w) != A.shape[0]:
        raise InputError("target length %d does not match %d weight rows"
                         % (len(w), A.shape[0]))
    try:
        if args.act == "relu":
            v = applied.relu_layer_pinv(layer, w)
        elif args.clip is not None:
            v = applied.clipped_tanh_layer_pinv(layer, w)
        else:
            v = applied.tanh_layer_pinv(layer, w)
    except ArithmeticError as e:
        sys.stderr.write("non-convergence: %s\n" % e)
        return EXIT_NO_CONVERGENCE
    if v is None:
        _emit({"v": None, "defined": False})
        return EXIT_OK
    _emit({"v": [float(x) for x in v], "defined": True})
    return EXIT_OK


def cmd_denoise(args):
    if args.basis != "haar":
        raise InputError("only the haar basis is available")
    try:
        basis = applied.haar_basis(args.n)
    except ValueError as e:
        raise InputError(str(e))
    x = _read_csv_signal(args.signal)
    if len(x) != args.n:
        raise InputError("signal length %d does not match --n %d" % (len(x), args.n))
    try:
        rt = applied.wavelet_threshold_roundtrip(basis, args.kind, args.a, x)
    except ValueError as e:
        raise InputError(str(e))
    _write_csv_signal(args.out, rt.denoised)
    again = applied.wavelet_threshold_roundtrip(basis, args.kind, args.a, rt.roundtrip)
    out = {"out": args.out,
           "difference_norm": rt.difference_norm,
           "idempotent_residual": float(np.linalg.norm(again.roundtrip - rt.roundtrip)),
           "witness_difference_norm": rt.witness_difference_norm}
    _emit(out)
    return EXIT_OK


def cmd_drazin(args):
    obj = _read_json_file(args.op)
    try:
        T = core_ops.FiniteOperator.from_json(obj)
    except (KeyError, ValueError) as e:
        raise InputError("bad operator table: %s" % e)
    if not T.is_endofunction:
        raise InputError("drazin needs an endofunction (domain = codomain)")
    res = endofunction.drazin_inverse(T)
    # T^j(V) = {v : exit_level[v] >= j} for j = 0..k, in O(n) output
    out = {"exists": res.exists,
           "index": res.index,
           "inverse_table": list(res.inverse.table),
           "exit_level": res.graph.exit_level.tolist()}
    _emit(out)
    return EXIT_OK


def cmd_vanish(args):
    obj = _read_json_file(args.op)
    try:
        T_table = core_ops.FiniteOperator.from_json(obj)
    except (KeyError, ValueError) as e:
        raise InputError("bad operator table: %s" % e)
    if not T_table.is_endofunction:
        raise InputError("vanishing polynomials need an endofunction")
    p = args.prime
    size = T_table.domain_size
    n = 0
    while p ** n < size:
        n += 1
    if p ** n != size:
        raise InputError("domain size %d is not a power of prime %d" % (size, p))
    try:
        T = vanishing.FpVectorOperator(p, n, np.asarray(T_table.table))
    except ValueError as e:
        raise InputError(str(e))
    l, m = vanishing.stabilization_profile(T)
    van = vanishing.find_vanishing_poly(T)
    mini = vanishing.minimal_poly(T)
    _emit({"vanishing": [int(c) for c in van.coeffs],
           "minimal": [int(c) for c in mini.coeffs],
           "degree_bound": m * m + l})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------

def _suite_checks(seed):
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    # one-dimensional closed forms against the grid oracle
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
    record("pinv1d_closed_forms_vs_oracle", worst <= 2 * step, {"max_arg_gap": worst})

    # matrix Moore-Penrose residuals
    E = np.array([[0.0, 0.0], [1.0, 1.0]])
    err_e = float(np.abs(numerics.mp_inverse(E) - np.array([[0, 0.5], [0, 0.5]])).max())
    worst = err_e
    for _ in range(10):
        A = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        G = numerics.mp_inverse(A)
        r = numerics.mp_residuals(A, G)
        worst = max(worst, max(r.values()) / (1 + np.linalg.norm(A)))
    record("mp_inverse_residuals", worst <= 1e-9, {"worst": worst})

    # {1,2}-inverse construction and enumeration counts
    ok = True
    for _ in range(20):
        nv, nw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        T = core_ops.FiniteOperator(nv, nw, tuple(rng.integers(0, nw, size=nv)))
        G = set_inverse.build_one_two_inverse(T)
        ok &= set_inverse.check_mp_axioms(T, G) == (True, True)
        ok &= set_inverse.double_inverse(T, G) == T
        found = set_inverse.enumerate_one_two_inverses(T)
        ok &= len(found) == set_inverse.one_two_inverse_count(T)
    record("one_two_inverse_suite", ok, {})

    # projections are 1-Lipschitz; the cascade inverts to its innermost projection
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
    cas_ok = all(r.bas_ok and r.mp2_ok for r in reports)
    record("projection_layer", worst <= 1e-9 and cas_ok,
           {"lipschitz_excess": worst})

    # relu layer inversion satisfies KKT and MP axioms
    ok = True
    for _ in range(10):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        if m > n:
            m, n = n, m
        layer = applied.NeuralLayer(rng.normal(size=(m, n)), "relu")
        w = np.maximum(rng.normal(size=m), 0.0)
        v = applied.relu_layer_pinv(layer, w)
        Tv = np.maximum(layer.weights @ v, 0.0)
        ok &= bool(np.linalg.norm(Tv - np.maximum(w, 0.0)) <= 1e-8)
    record("relu_layer_qp", ok, {})

    # wavelet thresholding identities
    basis = applied.haar_basis(8)
    x = rng.normal(size=8)
    hard = applied.wavelet_threshold_roundtrip(basis, "hard", 0.5, x)
    soft = applied.wavelet_threshold_roundtrip(basis, "soft", 0.5, x)
    record("wavelet_identities",
           hard.difference_norm <= 1e-10 and soft.witness_difference_norm >= 0.45,
           {"hard_diff": hard.difference_norm,
            "soft_witness": soft.witness_difference_norm})

    # Drazin constructions agree with exhaustive search
    ok = True
    for _ in range(30):
        T = core_ops.FiniteOperator(4, 4, tuple(rng.integers(0, 4, size=4)))
        res = endofunction.drazin_inverse(T)
        found = endofunction.exhaustive_drazin_search(T)
        ok &= res.exists and len(found) == 1 and found[0] == res.inverse
    record("drazin_vs_exhaustive", ok, {})

    # vanishing polynomials and Cayley-Hamilton inversion
    ok = True
    for _ in range(10):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        T = vanishing.FpVectorOperator(p, n, rng.integers(0, p ** n, size=p ** n))
        q = vanishing.find_vanishing_poly(T)
        mini = vanishing.minimal_poly(T)
        ok &= vanishing.poly_vanishes(q, T) and mini.divides(q)
    for _ in range(10):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 5))
        A = rng.integers(0, p, size=(n, n))
        inv = numerics.fp_invert(A, p)
        if inv is None:
            continue
        ok &= np.array_equal(vanishing.cayley_hamilton_inverse(A, p), inv)
    record("vanishing_and_cayley_hamilton", ok, {})

    return checks


def cmd_verify_suite(args):
    t0 = time.time()
    checks = _suite_checks(args.seed)
    all_pass = all(c["pass"] for c in checks)
    sys.stderr.write("verify-suite: %d checks in %.2fs\n"
                     % (len(checks), time.time() - t0))
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
    p.add_argument("--basis", default="haar")
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        sys.stderr.write("input error: %s\n" % e)
        return EXIT_INPUT_ERROR
    except ArithmeticError as e:
        sys.stderr.write("non-convergence: %s\n" % e)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
