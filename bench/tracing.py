"""Spans and counters around geninv's public functions, from outside.

`Tracer.install(mode)` rebinds every public function, and every public
method of a public class (plus `__init__`/`__post_init__`), of each geninv
module to a timing wrapper. It also rebinds names one module imported from
another (`endofunction.power`, `vanishing.fp_matmul`, the package
re-exports), so calls made inside the library are seen too. `uninstall()`
puts every original back.

A span is (function id, start, end, parent span, call id); spans stay in
memory in flat arrays and are written out by `save()` after the run. Self
time is accumulated on the fly: a span's duration minus the time its child
spans cover. In memory mode the wrappers skip the clock and track
tracemalloc peaks per layer instead, so that pass does not distort timings.
"""

from array import array
from functools import wraps
import inspect
import json
import time
import tracemalloc

import numpy as np

MODULES = ("cli", "core_ops", "numerics", "set_inverse", "pseudo_inverse",
           "structured_inverse", "applied", "endofunction", "vanishing")
LAYERS = ("cli", "core_ops", "set_inverse", "pseudo_inverse", "structured_inverse",
          "applied", "endofunction", "vanishing", "numerics.fp", "numerics.real")
COUNTERS = ("endofunction.chain_ids", "vanishing.poly_degree_sum",
            "cli.stdout_bytes", "applied.haar_matrix_bytes",
            "applied.qp_iterations", "applied.qp_solves", "applied.qp_optimal",
            "pseudo_inverse.targets", "pseudo_inverse.grid_points",
            "structured_inverse.part_projections",
            "structured_inverse.dykstra_sweeps",
            "structured_inverse.dykstra_cap_hits")


def layer_of(module, name):
    if module == "numerics":
        return "numerics.fp" if name.startswith(("fp_", "is_prime")) else "numerics.real"
    return module


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.mode = None                 # "time" or "mem" while installed
        self.names = []                  # function id -> "module.qualname"
        self._bindings = []              # (owner, attr, original, wrapper)
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.call_id = -1
        self.stack = []                  # open spans: [span id, child seconds]; mem mode: [base, peak, layer]
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.peak = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_s = 0.0                 # time covered by outermost spans

    # -- installation --------------------------------------------------

    def install(self, mode):
        """Rebind every traced name to its wrapper; mode is "time" or "mem"."""
        if not self._bindings:
            self._bind()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        self.mode = mode

    def uninstall(self):
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)
        self.mode = None

    def _bind(self):
        modules = {m: getattr(self.pkg, m) for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, short, name)
                elif inspect.isclass(obj):
                    self._bind_class(obj, short)
        # the defining module, names imported by other modules, package re-exports
        for mod in list(modules.values()) + [self.pkg]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._bindings.append((mod, name, obj, wrapped[obj]))

    def _bind_class(self, cls, short):
        special = "__post_init__" if hasattr(cls, "__dataclass_fields__") else "__init__"
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name != special:
                continue
            if isinstance(obj, staticmethod):
                w = staticmethod(self._wrap(obj.__func__, short, cls.__name__ + "." + name))
            elif inspect.isfunction(obj):
                w = self._wrap(obj, short, cls.__name__ + "." + name)
            else:
                continue                 # properties and cached properties
            self._bindings.append((cls, name, obj, w))

    def _wrap(self, fn, module, qualname):
        fid = len(self.names)
        self.names.append(module + "." + qualname)
        layer = LAYERS.index(layer_of(module, qualname))
        hook = HOOKS.get(module + "." + qualname)
        tracer = self
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.mode == "mem":
                tracer._mem_enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._mem_exit()
            pre = hook[0](tracer, args) if hook else None
            stack = tracer.stack
            sid = len(tracer.fid)
            tracer.fid.append(fid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.call.append(tracer.call_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.start[sid] = t0
                tracer.end[sid] = t1
                tracer.self_s[layer] += dur - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s += dur
            if hook:
                hook[1](tracer, args, result, pre)
            return result

        return wrapper

    # -- tracemalloc pass ------------------------------------------------

    def _mem_enter(self, layer):
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self.stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self.stack.append([cur, cur, layer])

    def _mem_exit(self):
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self.stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        base, top, layer = self.stack.pop()
        self.peak[layer] = max(self.peak[layer], top - base)

    # -- output ------------------------------------------------------------

    def save(self, path):
        """Write the span log: one array per field plus the function names."""
        np.savez(path, fid=np.frombuffer(self.fid, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 call=np.frombuffer(self.call, dtype=np.int32),
                 names=np.array(json.dumps(self.names)))


# ---------------------------------------------------------------------------
# counter hooks: (pre(tracer, args) -> state, post(tracer, args, result, state))
# ---------------------------------------------------------------------------

def _count(key, value):
    def post(tracer, args, result, pre):
        tracer.counters[key] += value(args, result)
    return (lambda tracer, args: None), post


def _part_projection(tracer, args, result, pre):
    tracer.counters["structured_inverse.part_projections"] += 1


def _dykstra_pre(tracer, args):
    return tracer.counters["structured_inverse.part_projections"]


def _dykstra_post(tracer, args, result, before):
    parts = len(args[0].parts)
    sweeps = (tracer.counters["structured_inverse.part_projections"] - before) / parts
    tracer.counters["structured_inverse.dykstra_sweeps"] += sweeps
    cap = tracer.pkg.structured_inverse.DYKSTRA_CAP
    tracer.counters["structured_inverse.dykstra_cap_hits"] += int(sweeps >= cap)


def _qp_post(tracer, args, result, pre):
    tracer.counters["applied.qp_iterations"] += int(result.iterations)
    tracer.counters["applied.qp_solves"] += 1
    tracer.counters["applied.qp_optimal"] += int(result.status == "optimal")


def _grid_points(args, result):
    points = getattr(args[0], "points", None)
    return 0 if points is None else len(points)


HOOKS = {
    "endofunction.image_chain": _count(
        "endofunction.chain_ids", lambda a, r: sum(len(s) for s in r.sets)),
    "vanishing.find_vanishing_poly": _count(
        "vanishing.poly_degree_sum", lambda a, r: r.degree),
    "vanishing.minimal_poly": _count(
        "vanishing.poly_degree_sum", lambda a, r: r.degree),
    "applied.haar_basis": _count(
        "applied.haar_matrix_bytes", lambda a, r: 8 * int(a[0]) ** 2),
    "applied.solve_least_norm_qp": (lambda tracer, args: None, _qp_post),
    "pseudo_inverse.GridOracle.__init__": _count(
        "pseudo_inverse.grid_points", _grid_points),
    "structured_inverse.Box.project_batch": (lambda t, a: None, _part_projection),
    "structured_inverse.L2Ball.project_batch": (lambda t, a: None, _part_projection),
    "structured_inverse.Halfspace.project_batch": (lambda t, a: None, _part_projection),
    "structured_inverse.Intersection.project_batch": (_dykstra_pre, _dykstra_post),
}
