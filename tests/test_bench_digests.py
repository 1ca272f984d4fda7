import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def passrun():
    sys.path.insert(0, PERFBENCH)  # passrun imports its sibling modules by name
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_passrun", os.path.join(PERFBENCH, "passrun.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


@pytest.mark.parametrize("name", ["desk", "desk-2w", "low", "tour"])
def test_benchmark_pass_reproduces_the_committed_digests(passrun, name, tmp_path, monkeypatch):
    # Every output byte of a seed-0 benchmark pass is frozen in
    # perfbench/digests.json; a kernel change that moves one float fails here.
    monkeypatch.chdir(tmp_path)  # run_pass changes into its pass directory
    result = passrun.run_pass(name, 0, str(tmp_path / "pass"), trace=False)
    want = passrun.workloads.committed_digests(name, 0)
    got = {op["op"]: op["digests"] for op in result["ops"]}
    assert [op["exit"] for op in result["ops"]] == [0] * len(result["ops"])
    assert got == want
