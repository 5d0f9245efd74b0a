"""Every ``python -m repro ...`` command quoted in the docs must parse.

Documentation drifts when CLI flags change under it (it happened to
EXPERIMENTS.md once already). This test walks README.md, EXPERIMENTS.md,
everything under docs/ and ``repro/cli.py``'s module docstring, extracts
each quoted ``python -m repro`` invocation, and asserts its subcommand
still exists and its ``--help`` exits 0 — so a renamed or removed
subcommand fails CI with the name of the file that still quotes it, and
README.md must quote every subcommand the CLI has. A
command written out on its own line whose words are all literal (no
``<placeholder>`` or ``$variable``) must parse whole: its argument list
goes through ``main`` with every handler stubbed, so a flag or choice
that no longer exists fails too. The same files quote ``perfbench/run.py``,
the repo's one performance harness, and every flag they give it must be
one its ``--help`` lists. The scenario specs they quote
(``examples/specs/*.yaml``) must exist and load.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
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
#: a command on its own line, after any ``$ `` prompt or ``VAR=value``
_LINE_RE = re.compile(
    r"^\s*(?:\$ )?(?:[A-Z_]+=\S+ )*python3? -m repro\b(.*)$")


def documents() -> list:
    """(name, text) of each doc file, and of ``cli.py``'s docstring."""
    return ([(path.name, path.read_text()) for path in DOC_FILES]
            + [("cli.py", cli.__doc__)])


def quoted_subcommands() -> list:
    """Each (doc file, subcommand) pair found in the documentation."""
    found = []
    for name, text in documents():
        for match in _COMMAND_RE.finditer(text):
            found.append((name, match.group(1)))
    return sorted(set(found))


def literal_commands() -> list:
    """Each (doc file, argument list) of a command quoted on its own line
    whose words are all literal: ``\\`` continuations joined, a trailing
    ``# comment`` and any shell redirection or pipe dropped."""
    found = []
    for name, text in documents():
        for line in text.replace("\\\n", " ").splitlines():
            match = _LINE_RE.match(line)
            if match is None:
                continue
            words = shlex.split(match.group(1), comments=True)
            end = next((i for i, word in enumerate(words)
                        if word[0] in ">|&;"), len(words))
            words = tuple(words[:end])
            if not any("<" in word or "$" in word for word in words):
                found.append((name, words))
    return sorted(set(found))


def test_docs_actually_quote_commands():
    """Guard the guard: the extraction must keep finding commands."""
    names = {command for _, command in quoted_subcommands()}
    assert {"run", "suite", "sweep", "trace"} <= names


def test_readme_quotes_every_command():
    """The reverse direction: each subcommand the CLI has is quoted in
    README.md, so none is reachable only by reading ``--help``."""
    quoted = {command for doc, command in quoted_subcommands()
              if doc == "README.md"}
    assert sorted(set(cli.COMMANDS) - quoted) == []


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


def test_docs_quote_literal_commands():
    """Guard the guard: whole commands are found in the docs and in
    ``cli.py``'s docstring."""
    sources = {name for name, _ in literal_commands()}
    assert {"README.md", "cli.py"} <= sources


@pytest.mark.parametrize("doc,words", literal_commands(),
                         ids=lambda value: value if isinstance(value, str)
                         else " ".join(value))
def test_literal_command_parses_whole(doc, words, monkeypatch):
    monkeypatch.setattr(cli, "COMMANDS", {
        name: (help_text, add_arguments, lambda args: 0)
        for name, (help_text, add_arguments, _) in cli.COMMANDS.items()})
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = main(list(words))
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (
        f"{doc} quotes 'python -m repro {' '.join(words)}', which does not"
        f" parse: {stderr.getvalue().strip().splitlines()[-1]}")


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
            "examples/specs/dos.yaml",
            "examples/specs/byzantine.yaml"} <= quoted


@pytest.mark.parametrize("doc,spec", quoted_specs(),
                         ids=lambda value: str(value))
def test_quoted_spec_loads(doc, spec):
    path = REPO_ROOT / spec
    assert path.is_file(), f"{doc} quotes {spec}, which does not exist"
    load_spec(path.read_text())
