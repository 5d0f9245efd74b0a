"""docs/ARCHITECTURE.md's "Workload spec sections" table is the reader's.

For each section the table lists, an unknown key is put into that
section of a legal document; the reader's error lists the keys it
accepts there, and they must be exactly the keys the table lists. A
reader that accepts a key the table omits fails here, and so does a table
that lists a key the reader rejects.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Set

import pytest

from repro.common.errors import SpecError
from tests.spec_documents import DOCUMENTS, spelled

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"

_BEHAVIORS = ("workloads", 0, "client", "behavior")
_INVOKE = _BEHAVIORS + (1, "interaction")
_FAULTS = ("crash", "recover", "partition", "heal", "region_outage",
           "link_degrade")
_BYZANTINE = ("equivocate", "silence", "delay_reorder", "censor_leader")

#: table section -> (document, path of that section in it)
WHERE = {
    "top level": ("dual", ()),
    "`workloads[]`": ("dual", ("workloads", 0)),
    "`client`": ("dual", ("workloads", 0, "client")),
    "`behavior[]`": ("dual", _BEHAVIORS + (0,)),
    "`!transfer`": ("dual", _BEHAVIORS + (0, "interaction")),
    "`!invoke`": ("dual", _INVOKE),
    "`{sample: ...}`": ("dual", _INVOKE + ("from",)),
    "`!account`": ("dual", _INVOKE + ("from", "sample")),
    "`!contract`": ("dual", _INVOKE + ("contract", "sample")),
    "`population`": ("population-rate", ("population",)),
    **{f"`faults[]` {kind}": ("dual", ("faults", index))
       for index, kind in enumerate(_FAULTS)},
    **{f"`byzantine[]` {kind}": ("dual", ("byzantine", index))
       for index, kind in enumerate(_BYZANTINE)},
    "`fees`": ("dual", ("fees",)),
    "`adversary`": ("dual", ("adversary",)),
    "sweep top level": ("sweep", ()),
    "`sweep`": ("sweep", ("sweep",)),
    "`options`": ("sweep", ("options",)),
}


def table() -> Dict[str, Set[str]]:
    """Section -> the keys the table lists for it."""
    text = ARCHITECTURE.read_text().split("## Workload spec sections")[1]
    keys: Dict[str, Set[str]] = {}
    for row in text.split("\n## ")[0].splitlines():
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if not row.startswith("| ") or len(cells) < 2 or cells[0] in (
                "Section", "---"):
            continue
        keys.setdefault(cells[0], set()).update(
            re.findall(r"`([^`]+)`", cells[1]))
    return keys


def accepted(section: str) -> Set[str]:
    """The keys the reader lists when *section* holds an unknown key."""
    name, path = WHERE[section]
    document = DOCUMENTS[name]
    tree = document.tree()
    node = tree
    for step in path:
        node = node[step]
    node["zz_unknown"] = 1
    with pytest.raises(SpecError) as excinfo:
        document.parse(tree)
    where = spelled(path + ("zz_unknown",))
    match = re.fullmatch(re.escape(where) + r": unknown key \(expected one"
                         r" of: (.*)\)", str(excinfo.value))
    assert match, str(excinfo.value)
    return set(match[1].split(", "))


def test_every_section_of_the_table_is_probed():
    assert set(table()) == set(WHERE)


@pytest.mark.parametrize("section", sorted(WHERE))
def test_the_table_lists_the_keys_the_reader_accepts(section):
    assert table()[section] == accepted(section)
