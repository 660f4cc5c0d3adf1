"""The seeded same-bytes corpus of tests/golden.py, on a slice of each family."""

import golden


def test_a_slice_of_every_golden_family_matches_the_record():
    assert golden.moved(limit=4) == []
