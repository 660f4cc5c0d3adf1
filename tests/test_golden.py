"""The seeded same-bytes corpus of tests/golden.py: every case of every
family against the record, and the first cases of some families against
deliberate perturbations."""

import json

import numpy as np

import golden


def test_every_golden_family_matches_the_record():
    assert golden.moved() == []


def test_the_first_dense_cases_match_the_record_and_see_one_flipped_bit(monkeypatch):
    # The first four dense cases (the p = 17 discrete-log circuits from
    # x_0 = 0 and x_0 = 1) hash as recorded, and flipping the lowest bit of
    # one amplitude moves the digest.
    cases = golden.families()["dense"][:4]
    recorded = json.loads(golden.RECORD.read_text())["dense"]
    assert [golden.digests(run()) for _, run in cases] == [recorded[name] for name, _ in cases]

    dense_run = golden.dense.dense_run

    def flipped(*args, **kwargs):
        state = dense_run(*args, **kwargs)
        state.amplitudes.reshape(-1).view(np.uint64)[0] ^= np.uint64(1)
        return state

    monkeypatch.setattr(golden.dense, "dense_run", flipped)
    name, run = cases[0]
    assert golden.digests(run()) != recorded[name]


def test_the_first_hsp_cases_match_the_record():
    cases = golden.families()["hsp"][:4]
    recorded = json.loads(golden.RECORD.read_text())["hsp"]
    assert [golden.digests(run()) for _, run in cases] == [recorded[name] for name, _ in cases]


def test_an_altered_sample_moves_the_trace_but_not_the_result(monkeypatch):
    # Negating one outcome (k, ks) of a curve discrete log mod n keeps the
    # congruence it adds, so the exponent found stays and only the trace moves.
    name, run = golden.families()["ecdlog"][1]
    recorded = json.loads(golden.RECORD.read_text())["ecdlog"][name]
    assert golden.digests(run()) == recorded

    sample_outcomes = golden.algorithms._sample_outcomes

    def negated_first(state, shots, rng, width):
        outcomes = sample_outcomes(state, shots, rng, width)
        n = state.amplitudes.shape[0]
        outcomes[0] = tuple(-x % n for x in outcomes[0])
        return outcomes

    monkeypatch.setattr(golden.algorithms, "_sample_outcomes", negated_first)
    altered = golden.digests(run())
    assert altered["result"] == recorded["result"]
    assert altered["trace"] != recorded["trace"]


def test_the_first_cli_cases_match_the_record_and_a_log_field_moves_the_trace(monkeypatch):
    # The first four cli cases (factor 21 and dlog 7 3 6, each in both
    # formats) hash as recorded; one more log field moves the trace of the
    # factor case and leaves its result, the exit codes and outputs.
    cases = golden.families()["cli"][:4]
    recorded = json.loads(golden.RECORD.read_text())["cli"]
    assert [golden.digests(run()) for _, run in cases] == [recorded[name] for name, _ in cases]

    cmd_factor = golden.cli.COMMANDS["factor"]

    def logged(args, rng):
        payload, rows, log = cmd_factor(args, rng)
        log["extra"] = 1
        return payload, rows, log

    monkeypatch.setitem(golden.cli.COMMANDS, "factor", logged)
    for name, run in cases[:2]:
        altered = golden.digests(run())
        assert altered["result"] == recorded[name]["result"]
        assert altered["trace"] != recorded[name]["trace"]
