"""Every definition in ``src/repro`` has a reader; every import is used.

A *reader* of a function, class, method or property is

* a reference by name (an ``ast.Name`` or ``ast.Attribute``) anywhere in
  ``src/`` outside the definition's own body. Import lines and
  ``__all__`` strings are not references, so a bare re-export from a
  package ``__init__.py`` does not keep anything alive;
* the name appearing anywhere in ``examples/``, ``benchmarks/`` or
  ``perfbench/``;
* membership of the top-level ``repro.__all__``, the public API.

Tests and prose are not readers. The match is by bare name: two classes
that share a method name shield each other, and a name that is only ever
passed around as a string (``getattr(self, "_on_" + kind)``) looks dead.
So a green run proves "no name in ``src/`` is unreferenced", not "no
method is unreachable"; the second kind of false alarm goes on
``ALLOWED`` with its reason.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
OUTSIDE_READERS = ("examples", "benchmarks", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

#: "module::qualname" -> why it stays although nothing names it
ALLOWED = {
    **{f"consensus/{module}.py::{cls}._on_{kind}":
       'looked up by getattr(self, "_on_" + kind) in Replica.dispatch,'
       ' which the class binds as its on_message'
       for module, cls, kinds in (
           ("algorand", "AlgorandReplica", ("ba_proposal", "ba_soft", "ba_cert")),
           ("hotstuff", "HotStuffReplica", ("proposal", "vote", "new_view")),
           ("ibft", "IBFTReplica", ("pre_prepare", "prepare", "round_change")),
           ("raft", "RaftReplica", ("request_vote", "vote_reply", "append",
                                    "append_reply")))
       for kind in kinds},
    "consensus/base.py::ConsensusHarness.check_no_duplicate_commits":
        "safety oracle the protocol tests hold every run to, with"
        " check_agreement and committed_chain (which perfbench reads)",
    "core/interface.py::SimConnector.admission_room":
        "optional connector method, read in core/secondary.py by"
        ' getattr(self.connector, "admission_room", None)',
    "sim/faults.py::FaultSchedule.from_dicts":
        "two lines; the constructor the fault tests build schedules with",
    "sim/byzantine.py::ByzantineSchedule.from_dicts":
        "two lines; the constructor the byzantine tests build schedules with",
    "sim/machine.py::MemoryLedger.set_level":
        "one line; the one-pair case of set_levels, which the ledger tests"
        " drive category by category",
}

Definition = Tuple[str, int, int, str]      # module, first line, last line, qualname


def definitions(module: str, tree: ast.Module) -> Iterator[Definition]:
    """Functions and classes at module level and inside classes; closures
    are their enclosing function's business."""
    def walk(body: List[ast.stmt], prefix: str) -> Iterator[Definition]:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            yield module, node.lineno, node.end_lineno, prefix + node.name
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")
    return walk(tree.body, "")


@functools.lru_cache(maxsize=None)
def parse_package() -> Dict[str, ast.Module]:
    return {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def unread() -> Dict[str, Definition]:
    """``module::qualname`` -> definition, for each one without a reader."""
    trees = parse_package()
    references: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                references[node.attr].append((module, node.lineno))
    outside: Set[str] = set()
    for directory in OUTSIDE_READERS:
        for path in (ROOT / directory).rglob("*.py"):
            outside.update(IDENTIFIER.findall(path.read_text()))
    for node in ast.walk(trees["__init__.py"]):
        if (isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "__all__"):
            outside.update(ast.literal_eval(node.value))
    dead = {}
    for module, tree in trees.items():
        for definition in definitions(module, tree):
            _, first, last, qualname = definition
            name = qualname.rsplit(".", 1)[-1]
            if name in outside:
                continue
            if any(not (where == module and first <= line <= last)
                   for where, line in references[name]):
                continue
            dead[f"{module}::{qualname}"] = definition
    return dead


def test_every_definition_has_a_reader():
    dead = unread()
    unexpected = [f"src/repro/{module}:{line} {qualname}"
                  for key, (module, line, _, qualname) in sorted(dead.items())
                  if key not in ALLOWED]
    assert not unexpected, (
        "no reader outside tests (delete it, or name its reader):\n"
        + "\n".join(unexpected))


def test_allow_list_has_not_rotted():
    """An entry that is gone, or that something now reads, must leave."""
    stale = sorted(set(ALLOWED) - set(unread()))
    assert not stale, "\n".join(stale)


def exported(tree: ast.Module) -> Set[str]:
    """The names of the module's ``__all__``, which re-exports what it
    lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "__all__"):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree: ast.Module) -> List[Tuple[int, str]]:
    """(line, bound name) of each import the module never mentions again,
    in code, in a quoted annotation or in ``__all__``."""
    bound: Dict[str, int] = {}
    used: Set[str] = exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        # a function's ``returns``, an argument's or assignment's ``annotation``
        annotation = (getattr(node, "returns", None)
                      or getattr(node, "annotation", None))
        for quoted in ast.walk(annotation) if annotation else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used.update(IDENTIFIER.findall(quoted.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name != "*")


def test_no_unused_imports():
    """What ``ruff --select F401`` reports in CI, for where ruff is not
    installed; like ruff, it reads a name in ``__all__`` as re-exported."""
    unused = [f"src/repro/{module}:{line} {name}"
              for module, tree in parse_package().items()
              for line, name in unused_imports(tree)]
    assert not unused, "\n".join(unused)
