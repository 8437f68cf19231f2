"""The mutation list in ``tests/mutants.py`` stays in step with the code.

The runner applies a mutant only where its old text occurs exactly once
in its file; a drifted entry would show only in a full mutation run.
"""
import mutants


def test_each_mutant_old_text_occurs_exactly_once():
    counts = {
        (path, old): (mutants.ROOT / path).read_text(encoding="utf-8").count(old)
        for path, old, _, _ in mutants.MUTANTS
    }
    assert {entry: count for entry, count in counts.items() if count != 1} == {}
