"""``tools/reach.py`` keys a function the way its code object does.

The tool records ``co_firstlineno`` of every code object a user path
calls and matches it against the first line ``ast`` gives each function.
A mismatch would report a called function as unreached (or the reverse),
so the two are compared here on real modules, decorated methods and
properties included, without running any path.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from code_objects(const)


@pytest.mark.parametrize("module", ["chain/admission.py", "chain/mempool.py",
                                    "sim/engine.py", "obs/metrics.py",
                                    "core/results.py"])
def test_first_lines_match_the_code_objects(reach, module):
    path = reach.PACKAGE / module
    compiled = compile(path.read_text(), str(path), "exec")
    lines = {(code.co_name, code.co_firstlineno)
             for code in code_objects(compiled)}
    found = [f for f in reach.functions() if f.module == module]
    assert found
    for function in found:
        name = function.qualname.split(".")[-1].split("#")[0]
        assert (name, function.first) in lines, function.key


def test_the_paths_include_every_ci_cli_step(reach):
    blocks = reach.ci_blocks()
    assert any("examples/specs/partition.yaml" in block for block in blocks)
    assert all("python -m repro" in block for block in blocks)


def test_every_allowlist_entry_names_a_function(reach):
    keys = {f.key for f in reach.functions()}
    assert set(reach.read_allowlist()) <= keys
