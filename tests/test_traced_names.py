import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(mod, func) for mod, funcs in load_spans().TRACED.items() for func, _ in funcs]


@pytest.mark.parametrize("module,function", TRACED)
def test_every_traced_function_exists(module, function):
    # perfbench wraps these by name; a missing one breaks its --trace 1 runs.
    home = importlib.import_module(f"torusnodal.{module}")
    assert callable(getattr(home, function, None)), f"torusnodal.{module}.{function}"
