"""Property: one mutation of a legal spec is a SpecError that names its key.

Starting from legal documents that cover every section (workloads, both
population forms, all six fault kinds, all four byzantine kinds, fees,
adversary, deadline, a sweep with options and populations), every single
mutation of one kind is applied in turn:

* **misspell** a key: the error names the misspelt key (or, for an event's
  ``kind``, the key it replaced);
* **drop** a key: the document still parses (the key was optional) or the
  error comes from the key's own section and names it;
* **retype** a scalar: a string, a list, a bool or a fractional float in
  place of a value of another type fails at the value's path; ``null``
  fails there too unless it parses like the key dropped (an ``Optional``).

The ``let:`` block only holds YAML anchors, so it is not mutated.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

import pytest

from repro.common.errors import SpecError
from tests.spec_documents import DOCUMENTS, Document, spelled

Path = Tuple[Any, ...]


def _keys(tree: Any, path: Path = ()) -> Iterator[Tuple[Path, Any]]:
    """``(path, value)`` of every string key outside ``let:``; list items
    are reached by index."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        if key in ("let", "__kind__") and isinstance(tree, dict):
            continue
        if isinstance(tree, dict) and not isinstance(key, str):
            continue                          # a load schedule's times
        yield path + (key,), value
        yield from _keys(value, path + (key,))


def _parent(tree: Any, path: Path) -> Any:
    for step in path[:-1]:
        tree = tree[step]
    return tree


def _outcome(document: Document, tree: Any) -> Any:
    """The parsed spec, or the SpecError message."""
    try:
        return document.parse(tree)
    except SpecError as exc:
        return str(exc)


def _mutated(document: Document, path: Path, change) -> Any:
    tree = document.tree()
    change(_parent(tree, path), path[-1])
    return _outcome(document, tree)


#: the keys of a fault event that name nodes
_NODE_KEYS = {"node", "nodes", "src", "dst", "groups"}


def _replacements(value: Any, path: Path) -> List[Any]:
    """Values of another type than *value*'s (None is checked apart). A
    fault's node key is an index or a name, so neither replaces it."""
    if isinstance(value, bool):
        return ["x", [1], 0.5, 1]
    if (path[0] == "faults" and _NODE_KEYS.intersection(path)
            and isinstance(value, (int, str))):
        return [[1], True, 0.5]
    if isinstance(value, int):
        return ["x", [1], True, 0.5]
    if isinstance(value, float):
        return ["x", [1], True]
    if isinstance(value, str):
        return [[1], True, 0.5]
    return []


def _renamed(key: str) -> str:
    return key[0] + key[2:]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_an_unmutated_document_parses_to_its_spec(name):
    document = DOCUMENTS[name]
    assert document.parse(document.tree()) == document.expected


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_a_misspelt_key_is_named(name):
    document = DOCUMENTS[name]
    wrong = []
    for path, _ in _keys(document.tree()):
        if isinstance(path[-1], int):
            continue
        misspelt = path[:-1] + (_renamed(path[-1]),)

        def rename(parent, key):
            parent[_renamed(key)] = parent.pop(key)

        outcome = _mutated(document, path, rename)
        named = (f"{spelled(misspelt)}: ", f"{spelled(path)}: ")
        if not (isinstance(outcome, str) and outcome.startswith(named)):
            wrong.append(f"{spelled(misspelt)} -> {outcome!r}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_a_dropped_key_is_optional_or_named(name):
    document = DOCUMENTS[name]
    wrong = []
    for path, _ in _keys(document.tree()):
        if isinstance(path[-1], int):
            continue
        outcome = _mutated(document, path, lambda parent, key: parent.pop(key))
        section = spelled(path[:-1])
        if isinstance(outcome, str) and not (
                outcome.startswith(section)
                and (not section or path[-1].rstrip("s") in outcome)):
            wrong.append(f"{spelled(path)} dropped -> {outcome!r}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_a_retyped_scalar_fails_at_its_path(name):
    document = DOCUMENTS[name]
    wrong = []
    checked = 0
    for path, value in _keys(document.tree()):
        for replacement in _replacements(value, path):
            def retype(parent, key, replacement=replacement):
                parent[key] = replacement

            outcome = _mutated(document, path, retype)
            checked += 1
            if not (isinstance(outcome, str)
                    and outcome.startswith(f"{spelled(path)}: ")):
                wrong.append(f"{spelled(path)} = {replacement!r}"
                             f" -> {outcome!r}")
        if value is None or isinstance(path[-1], int) or not _replacements(
                value, path):
            continue
        nulled = _mutated(document, path,
                          lambda parent, key: parent.__setitem__(key, None))
        dropped = _mutated(document, path,
                           lambda parent, key: parent.pop(key))
        if nulled != dropped and not (
                isinstance(nulled, str)
                and nulled.startswith(f"{spelled(path)}: ")):
            wrong.append(f"{spelled(path)} = None -> {nulled!r}")
    assert checked >= 10
    assert not wrong, "\n".join(wrong)
