"""The seeded same-bytes corpus of tests/golden.py, on a slice of each family."""

import json

import numpy as np

import golden


def test_a_slice_of_every_golden_family_matches_the_record():
    assert golden.moved(limit=4) == []


def test_the_first_dense_cases_match_the_record_and_see_one_flipped_bit(monkeypatch):
    # The first four dense cases (the p = 17 discrete-log circuits from
    # x_0 = 0 and x_0 = 1) hash as recorded, and flipping the lowest bit of
    # one amplitude moves the digest.
    cases = golden.families()["dense"][:4]
    recorded = json.loads(golden.RECORD.read_text())["dense"]
    assert [golden.digest(run()) for _, run in cases] == [recorded[name] for name, _ in cases]

    dense_run = golden.dense.dense_run

    def flipped(*args, **kwargs):
        state = dense_run(*args, **kwargs)
        state.amplitudes.reshape(-1).view(np.uint64)[0] ^= np.uint64(1)
        return state

    monkeypatch.setattr(golden.dense, "dense_run", flipped)
    name, run = cases[0]
    assert golden.digest(run()) != recorded[name]
