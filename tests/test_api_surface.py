"""Every tolerance, cap, chunk size and probe set of the library is a module
constant: no public function or method takes one as a parameter. And no
module imports a private name from a sibling, except the one row rule that
the grid kernels and the projections share."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import geninv

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


# the row rule of the grid kernels, which the ball and halfspace projections share
ALLOWED_PRIVATE_IMPORTS = {("structured_inverse", "pseudo_inverse", "_row_norms"),
                           ("structured_inverse", "pseudo_inverse", "_row_sum")}


def private_sibling_imports():
    """(importer, sibling, name) for every underscore name that a module of
    the package imports from another module of the package."""
    found = []
    for path in sorted(pathlib.Path(geninv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            if node.level:
                sibling = node.module
            elif node.module.startswith("geninv."):
                sibling = node.module[len("geninv."):]
            else:
                continue
            found += [(path.stem, sibling, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return sorted(found)


def test_no_module_imports_a_private_name_from_a_sibling():
    assert [hit for hit in private_sibling_imports() if hit not in ALLOWED_PRIVATE_IMPORTS] == []


def test_the_walk_sees_the_one_allowed_row_rule():
    assert private_sibling_imports() == sorted(ALLOWED_PRIVATE_IMPORTS)
