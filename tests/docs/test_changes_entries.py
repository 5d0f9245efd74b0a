"""``CHANGES.md`` keeps the entry size its own header sets.

The header caps an entry at 1 500 characters (what changed, what moved,
where the numbers are) and sends tables and run logs to the PR
description or a committed ``BENCH_*`` point. Entries up to PR 25 predate
the check and are not rewritten; every entry from :data:`FIRST_CHECKED`
on must be at most :data:`MAX_CHARS` characters and hold no fenced block.
A list of removed test ids, which an issue may require, follows its entry
as its own lines and is not counted.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import pytest

CHANGES = Path(__file__).resolve().parents[2] / "CHANGES.md"
FIRST_CHECKED = 27
MAX_CHARS = 1500

#: an entry's first line: ``PR 7: ...`` or ``- **PR 21 — ...``
_ENTRY_RE = re.compile(r"(?:- \*\*)?PR (\d+)\b")
#: the lines of a removed-test-id list (its heading, then one per file)
_ID_LIST_RE = re.compile(r"\s+(?:Removed test ids|- `tests/)")


def entries(text: str) -> List[Tuple[int, List[str]]]:
    """``(PR number, lines)`` per entry, in file order."""
    found: List[Tuple[int, List[str]]] = []
    for line in text.splitlines():
        match = _ENTRY_RE.match(line)
        if match:
            found.append((int(match[1]), [line]))
        elif found:
            found[-1][1].append(line)
    return found


def problems(lines: List[str]) -> List[str]:
    """Why an entry breaks the header's rule (empty when it keeps it)."""
    found = []
    counted = "\n".join(line for line in lines
                        if not _ID_LIST_RE.match(line)).strip()
    if len(counted) > MAX_CHARS:
        found.append(f"{len(counted)} characters, more than {MAX_CHARS}")
    if any(line.lstrip().startswith("```") for line in lines):
        found.append("a fenced block (run logs go in a BENCH_* point)")
    return found


ALL = entries(CHANGES.read_text(encoding="utf-8"))
CHECKED = [(number, lines) for number, lines in ALL
           if number >= FIRST_CHECKED]


def test_the_reader_finds_every_entry_in_order():
    numbers = [number for number, _ in ALL]
    assert numbers == sorted(numbers)
    assert {1, 12, 21, 25} <= set(numbers)
    assert CHECKED, f"no entry from PR {FIRST_CHECKED} on"


def test_the_rule_rejects_a_pasted_log():
    # PR 25's entry pasted ~100 lines of pair-run output in a fence
    (lines,) = [lines for number, lines in ALL if number == 25]
    assert len(problems(lines)) == 2


@pytest.mark.parametrize("number, lines", CHECKED,
                         ids=[f"PR {number}" for number, _ in CHECKED])
def test_entry_keeps_the_header_rule(number, lines):
    assert problems(lines) == []
