import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "torusnodal")
# The program's own code: the package, the benchmark driver and the scripts.
PROGRAM = sorted(glob.glob(os.path.join(PACKAGE, "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                 + glob.glob(os.path.join(ROOT, "scripts", "*.py")))


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def public_names(tree):
    """Top-level functions, classes and assigned constants whose names lack a leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def used_names(tree):
    """Names a module reads: loaded names, attributes, imported names, and
    string constants that are exactly an identifier (perfbench wraps functions by name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


USED = set().union(*(used_names(parse(path)) for path in PROGRAM))
PUBLIC = [(os.path.basename(path)[:-3], name)
          for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
          for name in public_names(parse(path))]


def test_the_scan_sees_the_package():
    assert len(PUBLIC) > 50 and ("harness", "replicate_bound_chain") in PUBLIC


@pytest.mark.parametrize("module,name", PUBLIC)
def test_every_public_name_is_used_by_the_program(module, name):
    # A public name that only its definition and the tests mention is API
    # nothing uses: fold it into its caller, make it private, or move it to the tests.
    assert name in USED, f"torusnodal.{module}.{name}: used nowhere in src/, perfbench/ or scripts/"
