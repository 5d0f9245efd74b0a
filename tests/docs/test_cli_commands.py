"""Every ``python -m repro ...`` command quoted in the docs must parse.

Documentation drifts when CLI flags change under it (it happened to
EXPERIMENTS.md once already). This test walks README.md, EXPERIMENTS.md
and everything under docs/, extracts each quoted ``python -m repro``
invocation, and asserts its subcommand still exists and its ``--help``
exits 0 — so a renamed or removed subcommand fails CI with the name of
the file that still quotes it. The same files quote ``perfbench/run.py``,
the repo's one performance harness, and every flag they give it must be
one its ``--help`` lists. The scenario specs they quote
(``examples/specs/*.yaml``) must exist and load.
"""

from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.spec import load_spec

REPO_ROOT = Path(__file__).resolve().parents[2]

#: markdown files whose quoted commands are contractual
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"]
    + list((REPO_ROOT / "docs").glob("*.md")))

_COMMAND_RE = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")
#: a quoted perfbench invocation, up to the end of its line or code span
_PERFBENCH_RE = re.compile(r"perfbench/run\.py([^\n`#]*)")
_FLAG_RE = re.compile(r"--[a-z][a-z-]*")
_SPEC_RE = re.compile(r"examples/specs/[\w.-]+\.yaml")


def quoted_subcommands() -> list:
    """Each (doc file, subcommand) pair found in the documentation."""
    found = []
    for path in DOC_FILES:
        for match in _COMMAND_RE.finditer(path.read_text()):
            found.append((path.name, match.group(1)))
    return sorted(set(found))


def test_docs_actually_quote_commands():
    """Guard the guard: the extraction must keep finding commands."""
    names = {command for _, command in quoted_subcommands()}
    assert {"run", "suite", "sweep", "trace"} <= names


@pytest.mark.parametrize("doc,command", quoted_subcommands(),
                         ids=lambda value: str(value))
def test_quoted_command_parses(doc, command):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
    assert excinfo.value.code == 0, (
        f"{doc} quotes 'python -m repro {command}' but"
        f" '--help' exited {excinfo.value.code}")
    assert command in stdout.getvalue()


def test_quoted_perfbench_flags_exist():
    quoted = {(path.name, flag)
              for path in DOC_FILES
              for match in _PERFBENCH_RE.finditer(path.read_text())
              for flag in _FLAG_RE.findall(match.group(1))}
    assert quoted, "no doc quotes a perfbench/run.py invocation with a flag"
    listed = set(_FLAG_RE.findall(subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"), "--help"],
        capture_output=True, text=True, check=True).stdout))
    unknown = sorted((doc, flag) for doc, flag in quoted
                     if flag not in listed)
    assert not unknown, (
        f"flags perfbench/run.py --help does not list: {unknown}")


def quoted_specs() -> list:
    """Each (doc file, scenario spec path) pair found in the docs."""
    return sorted({(path.name, match.group(0))
                   for path in DOC_FILES
                   for match in _SPEC_RE.finditer(path.read_text())})


def test_docs_quote_every_scenario_spec():
    """Guard the guard: each scenario spec is quoted somewhere."""
    quoted = {spec for _, spec in quoted_specs()}
    assert {"examples/specs/crash-and-recover.yaml",
            "examples/specs/overload.yaml",
            "examples/specs/dos.yaml"} <= quoted


@pytest.mark.parametrize("doc,spec", quoted_specs(),
                         ids=lambda value: str(value))
def test_quoted_spec_loads(doc, spec):
    path = REPO_ROOT / spec
    assert path.is_file(), f"{doc} quotes {spec}, which does not exist"
    load_spec(path.read_text())
