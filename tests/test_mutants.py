"""The mutant table in ``mutants.py`` stays applicable; running it is a separate CI step."""

from __future__ import annotations

import re

from mutants import MUTANTS, ROOT, occurrences


def test_every_old_text_occurs_once():
    counts = {mutant.name: occurrences(mutant) for mutant in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_every_killing_test_is_defined():
    missing = []
    for mutant in MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        for node in mutant.killers:
            path, *_, name = node.split("::")
            if not re.search(rf"^\s*def {re.escape(name.split('[')[0])}\(", (ROOT / path).read_text(), re.M):
                missing.append(node)
    assert missing == []
