"""The mutant table of tests/mutants.py still applies to the library: the
full run (`python tests/mutants.py`) takes minutes, this check a moment."""

import mutants


def test_every_mutant_old_text_occurs_exactly_once_in_its_file():
    counts = {
        mutant.name: (mutants.ROOT / mutant.path).read_text().count(mutant.old)
        for mutant in mutants.MUTANTS
    }
    assert {name: count for name, count in counts.items() if count != 1} == {}
