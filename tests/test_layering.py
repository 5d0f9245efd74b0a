"""Import direction: docs/ARCHITECTURE.md's module map, enforced.

The table lists the layers bottom to top. A module may import, at module
level, from its own row and from the rows above it; an import that
points down the table fails here. Imports inside a function and under
``if TYPE_CHECKING:`` are the documented escapes and are not checked.
The module map's import rule puts a name that only annotations use under
``if TYPE_CHECKING:``, which is checked here too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: (importing module, imported package) pairs allowed to point up the table
ALLOWED = {
    # the DoS adversary is a client that happens to live in sim/
    ("sim/dos.py", "chain"),
}

#: the package facade and its ``-m`` entry point re-export from everywhere
FACADE = {"__init__.py", "__main__.py"}


def layer_ranks() -> Dict[str, int]:
    """Package name -> row number of the module-map table."""
    ranks: Dict[str, int] = {}
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    table = text.split("## Module map")[1].split("\n## ")[0]
    rows = [line for line in table.splitlines() if line.startswith("| ")]
    for rank, row in enumerate(rows[1:]):      # rows[0] is the header
        for package in re.findall(r"`repro\.(\w+)`", row.split("|")[2]):
            ranks[package] = rank
    return ranks


def module_level_imports(body: List[ast.stmt]) -> Iterator[str]:
    """Dotted names imported by *body*, descending into ``if``/``try``
    blocks but not into ``if TYPE_CHECKING:`` or function bodies."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.If):
            if "TYPE_CHECKING" not in ast.unparse(node.test):
                yield from module_level_imports(node.body)
            yield from module_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(handler.body for handler in node.handlers)):
                yield from module_level_imports(block)


def test_every_package_has_a_row():
    packages = {path.name if path.is_dir() else path.stem
                for path in PACKAGE.iterdir()
                if path.name not in FACADE and path.name != "__pycache__"}
    assert packages == set(layer_ranks())


def test_no_module_level_import_points_up_the_table():
    ranks = layer_ranks()
    upward = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module in FACADE:
            continue
        own = ranks[module.split("/")[0].removesuffix(".py")]
        for name in module_level_imports(ast.parse(path.read_text()).body):
            parts = name.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            if ranks[parts[1]] > own and (module, parts[1]) not in ALLOWED:
                upward.append(f"{module} imports {name}")
    assert not upward, "\n".join(upward)


def annotation_only_names(tree: ast.Module) -> Set[str]:
    """Names the module reads in annotations and nowhere else."""
    annotations = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "returns", None),
                           getattr(node, "annotation", None)):
            if annotation is not None:
                annotations.update(ast.walk(annotation))
    read = {True: set(), False: set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read[node in annotations].add(node.id)
    return read[True] - read[False]


def test_an_annotation_only_import_waits_for_type_checking():
    """Under ``from __future__ import annotations`` an annotation is never
    evaluated, so a name only annotations read needs no import at run
    time."""
    runtime_imports = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if "from __future__ import annotations" not in ast.unparse(tree):
            continue
        only = annotation_only_names(tree)
        for node in tree.body:
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("repro.")):
                runtime_imports += [
                    f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) in only]
    assert not runtime_imports, "\n".join(runtime_imports)
