"""Every tolerance, cap, chunk size and probe set of the library is a module
constant: no public function or method takes one as a parameter."""

import importlib
import inspect
import re

import pytest

MODULES = ("cli", "core_ops", "numerics", "set_inverse", "pseudo_inverse",
           "structured_inverse", "applied", "endofunction", "vanishing")
THRESHOLD = re.compile(r"(tol|.+_tol|.+_slack|cap|chunk|check_points|check_samples|oracle)$")
# the Dykstra tests check membership more strictly than the library's own checks
ALLOWED = {("structured_inverse", "ConvexSet.contains", "tol")}


def public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)    # static and class methods
                if inspect.isfunction(member) and (not attr.startswith("_")
                                                   or attr == "__init__"):
                    yield obj.__name__ + "." + attr, member


def threshold_parameters(short):
    module = importlib.import_module("geninv." + short)
    return [(short, qualname, param)
            for qualname, fn in public_callables(module)
            for param in inspect.signature(fn).parameters
            if THRESHOLD.match(param)]


@pytest.mark.parametrize("short", MODULES)
def test_no_threshold_parameters(short):
    found = [hit for hit in threshold_parameters(short) if hit not in ALLOWED]
    assert found == []


def test_the_walk_sees_the_one_allowed_parameter():
    assert threshold_parameters("structured_inverse") == sorted(ALLOWED)
