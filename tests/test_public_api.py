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


def block_loops(tree, helper=None):
    """Lines of the for loops and comprehensions over range(0, total, step) outside helper."""
    skip = {id(node) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == helper for node in ast.walk(f)}
    loops = [node for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension)) and id(node) not in skip]
    return sorted(node.iter.lineno for node in loops
                  if isinstance(node.iter, ast.Call) and isinstance(node.iter.func, ast.Name)
                  and node.iter.func.id == "range" and len(node.iter.args) == 3
                  and isinstance(node.iter.args[0], ast.Constant) and node.iter.args[0].value == 0)


def test_block_loops_go_through_torus_blocks():
    # A hand-written step loop restates the one block rule; call torus.blocks instead.
    found = [f"{os.path.basename(path)}:{line}"
             for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
             for line in block_loops(parse(path), "blocks" if path.endswith("torus.py") else None)]
    assert not found, f"range(0, total, step) block loops outside torus.blocks: {found}"
    assert block_loops(ast.parse("for b0 in range(0, n, step):\n    pass\n"
                                 "x = [f(i) for i in range(0, n, 4096)]\n")) == [1, 3]


@pytest.mark.parametrize("module,name", PUBLIC)
def test_every_public_name_is_used_by_the_program(module, name):
    # A public name that only its definition and the tests mention is API
    # nothing uses: fold it into its caller, make it private, or move it to the tests.
    assert name in USED, f"torusnodal.{module}.{name}: used nowhere in src/, perfbench/ or scripts/"
