"""CLI surface tests: subcommands, exit codes, reproducibility, log schema."""

import json
import math
from importlib import resources

import jsonschema
import pytest

from helpers import MALFORMED_CIRCUIT_DOCS

from normsim.cli import build_parser, main
from normsim.circuits import save_circuit
from normsim.dense import dense_run


@pytest.fixture(scope="module")
def log_schema():
    text = (
        resources.files("normsim") / "schemas" / "runlog.schema.json"
    ).read_text()
    return json.loads(text)


def run_cli(args, tmp_path, capsys=None):
    out = tmp_path / "out.txt"
    code = main(args + ["--out", str(out)])
    log_file = tmp_path / "out.txt.log.json"
    log = json.loads(log_file.read_text()) if log_file.exists() else None
    return code, out.read_text() if out.exists() else "", log


def test_factor_15(tmp_path, log_schema):
    code, text, log = run_cli(["factor", "15", "--seed", "1"], tmp_path)
    assert code == 0
    divisor = int(text.splitlines()[1].split(",")[1])
    assert divisor in (3, 5)
    jsonschema.validate(log, log_schema)


def test_factor_prime_power_exit_3(tmp_path, capsys):
    assert main(["factor", "9"]) == 3


@pytest.mark.parametrize("attempts", ["0", "-1"])
def test_factor_non_positive_attempts_exit_3(attempts, capsys):
    assert main(["factor", "15", "--attempts", attempts]) == 3
    assert capsys.readouterr().err == f"error: attempts must be positive, got {attempts}\n"


def test_factor_perfect_power_that_is_not_a_prime_power(tmp_path, capsys, log_schema):
    assert main(["factor", "81"]) == 3
    assert "81 is a prime power: 3^4" in capsys.readouterr().err
    code, text, log = run_cli(["factor", "225", "--seed", "1"], tmp_path)
    assert code == 0
    divisor = int(text.splitlines()[1].split(",")[1])
    assert 1 < divisor < 225 and 225 % divisor == 0
    jsonschema.validate(log, log_schema)


def test_factor_21(tmp_path, log_schema):
    code, text, log = run_cli(["factor", "21", "--seed", "7"], tmp_path)
    assert code == 0
    divisor = int(text.splitlines()[1].split(",")[1])
    assert divisor in (3, 7)
    jsonschema.validate(log, log_schema)


def test_dlog(tmp_path, log_schema):
    code, text, log = run_cli(["dlog", "7", "3", "6", "--seed", "1"], tmp_path)
    assert code == 0
    assert int(text.splitlines()[1].split(",")[3]) == 3
    jsonschema.validate(log, log_schema)


def test_dlog_bad_inputs_exit_3(capsys):
    assert main(["dlog", "7", "3", "6", "--repetitions", "0"]) == 3
    assert "repetitions must be positive" in capsys.readouterr().err
    assert main(["dlog", "101", "2", "3"]) == 3  # dense dimension 100^2 * 101 > cap
    assert "exceeds cap" in capsys.readouterr().err


def test_ecdlog(tmp_path, log_schema):
    code, text, log = run_cli(
        ["ecdlog", "5", "1", "1", "0,1", "4,2", "--seed", "1"], tmp_path
    )
    assert code == 0
    assert int(text.splitlines()[1].split(",")[0]) == 2
    jsonschema.validate(log, log_schema)


def test_order(tmp_path, log_schema):
    code, text, log = run_cli(["order", "15", "2", "--seed", "0"], tmp_path)
    assert code == 0
    assert int(text.splitlines()[1].split(",")[2]) == 4
    jsonschema.validate(log, log_schema)


def test_decompose(tmp_path, log_schema):
    code, text, log = run_cli(
        ["decompose", "zn_star", "15", "--gens", "2,7", "--seed", "0"], tmp_path
    )
    assert code == 0
    assert "Z2 x Z4" in text
    jsonschema.validate(log, log_schema)


def test_decompose_sampled_generators(tmp_path, log_schema):
    code, text, log = run_cli(["decompose", "zn_star", "5", "--seed", "3"], tmp_path)
    assert code == 0
    assert "Z4" in text
    assert log["generators_sampled"] is True
    jsonschema.validate(log, log_schema)


@pytest.mark.parametrize("curve", [["5", "1", "1"], ["7", "3", "1"]])
def test_decompose_ec_beta_reads_back_as_gens(curve, tmp_path):
    # beta is printed in the element grammar --gens parses: x,y or O.
    code, text, _ = run_cli(["decompose", "ec", *curve, "--format", "json"], tmp_path)
    assert code == 0
    first = json.loads(text)
    gens = ";".join(first["beta"])
    code, text, _ = run_cli(
        ["decompose", "ec", *curve, "--gens", gens, "--format", "json"], tmp_path
    )
    assert code == 0
    assert json.loads(text)["orders"] == first["orders"]


def test_hsp(tmp_path, log_schema):
    code, text, log = run_cli(
        ["hsp", "2,2", "1,1", "--seed", "5"], tmp_path
    )
    assert code == 0
    assert "(1, 1)" in text
    jsonschema.validate(log, log_schema)


def write_qft_circuit(path):
    from normsim.circuits import DesignatedBasis, NormalizerCircuit, QFTGate
    from normsim.groups import cyclic_group

    circuit = NormalizerCircuit(
        DesignatedBasis(cyclic_group(2)), [QFTGate((0,))]
    )
    save_circuit(circuit, path)
    return circuit


def test_run_uniform_histogram(tmp_path, log_schema):
    circuit_path = tmp_path / "qft2.json"
    write_qft_circuit(circuit_path)
    code, text, log = run_cli(
        ["run", str(circuit_path), "--shots", "1000", "--seed", "2"], tmp_path
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "outcome,count,probability"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 1000
    assert all(abs(c - 500) < 4 * 15.9 for c in counts)  # 4 sigma
    jsonschema.validate(log, log_schema)


def test_run_coset_engine(tmp_path, log_schema):
    circuit_path = tmp_path / "qft2.json"
    write_qft_circuit(circuit_path)
    code, text, log = run_cli(
        ["run", str(circuit_path), "--engine", "coset", "--shots", "64", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    jsonschema.validate(log, log_schema)


def test_run_coset_engine_past_int64(tmp_path):
    # x0 + P t passes 2^63 before its reduction mod n: after the QFT on
    # register 0 and (a, b) -> (c a, a) the support is {(c b, b)}.
    import csv as csv_module
    import io

    from normsim.circuits import (
        AutomorphismGate,
        DesignatedBasis,
        NormalizerCircuit,
        QFTGate,
        validate_matrix_rep,
    )
    from normsim.groups import cyclic_group

    n, c = 10**10 + 19, 9999999967
    g = cyclic_group(n, n)
    gates = [QFTGate((0,)), AutomorphismGate(rep=validate_matrix_rep([[c, 0], [1, 1]], g))]
    circuit_path = tmp_path / "wide.json"
    save_circuit(NormalizerCircuit(DesignatedBasis(g), gates), circuit_path)
    code, text, _ = run_cli(
        ["run", str(circuit_path), "--engine", "coset", "--seed", "0", "--shots", "4"], tmp_path
    )
    assert code == 0
    rows = list(csv_module.reader(io.StringIO(text)))[1:]
    assert sum(int(row[1]) for row in rows) == 4
    for row in rows:
        a, b = map(int, row[0].strip("()").split(","))
        assert a == c * b % n


def test_run_coset_engine_past_2_to_63_support(tmp_path):
    # A full QFT on Z_n^2 spreads the state over n^2 > 2^63 points, past
    # what one rng.integers draw can index.
    import csv as csv_module
    import io

    from normsim.circuits import DesignatedBasis, NormalizerCircuit, QFTGate
    from normsim.groups import cyclic_group

    n = 10**10 + 19
    circuit = NormalizerCircuit(DesignatedBasis(cyclic_group(n, n)), [QFTGate((0, 1))])
    circuit_path = tmp_path / "full.json"
    save_circuit(circuit, circuit_path)
    code, text, _ = run_cli(
        ["run", str(circuit_path), "--engine", "coset", "--seed", "0", "--shots", "4"], tmp_path
    )
    assert code == 0
    rows = list(csv_module.reader(io.StringIO(text)))[1:]
    assert sum(int(row[1]) for row in rows) == 4
    for row in rows:
        a, b = map(int, row[0].strip("()").split(","))
        assert 0 <= a < n and 0 <= b < n


def test_run_dlog_circuit_file_support(tmp_path):
    # Two QFT layers around the double-exponent oracle gate over
    # Z_6^2 x Z_7^*: outcomes concentrate on pairs (k, 3k mod 6).
    from normsim.algorithms import dlog_circuit

    circuit_path = tmp_path / "dlog7.json"
    save_circuit(dlog_circuit(7, 3, 6), circuit_path)
    code, text, log = run_cli(
        ["run", str(circuit_path), "--input", "(0, 0)|1", "--shots", "600", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    import csv as csv_module
    import io

    rows = list(csv_module.reader(io.StringIO(text)))
    assert rows[0] == ["outcome", "count", "probability"]
    total = 0
    for outcome, count, _ in rows[1:]:
        pair = outcome.split("|")[0].strip("()").split(",")
        k1, k2 = int(pair[0]), int(pair[1])
        assert k2 == (3 * k1) % 6
        total += int(count)
    assert total == 600


def test_run_malformed_json_exit_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", str(bad)]) == 4


def test_run_invalid_gate_exit_4(tmp_path):
    bad = tmp_path / "invalid.json"
    bad.write_text(
        json.dumps(
            {"group": {"elementary": "Z4"}, "gates": [{"automorphism": {"matrix": [["2"]]}}]}
        )
    )
    assert main(["run", str(bad)]) == 4


def _dlog7_doc(n_out):
    from normsim.algorithms import dlog_circuit
    from normsim.circuits import circuit_to_json

    doc = circuit_to_json(dlog_circuit(7, 3, 6))
    doc["gates"][1]["bb_automorphism"]["n_out"] = n_out
    return doc


@pytest.mark.parametrize("command", ["run", "deblackbox"])
@pytest.mark.parametrize(
    "doc",
    [
        {"group": {"elementary": "Z2", "blackbox": {"type": "zn_star"}}, "gates": []},
        {"group": {"elementary": "Z2", "blackbox": "zn"}, "gates": []},
        {"group": {"elementary": "Z2"}, "gates": ["qft"]},
        {"group": {"elementary": "Z2"}, "gates": 7},
        {"group": {"elementary": "Z2"}, "gates": [{"qft": 0}]},
        [],
        _dlog7_doc("x"),
        _dlog7_doc(-1),
        *MALFORMED_CIRCUIT_DOCS,
    ],
)
def test_malformed_circuit_file_exits_4(command, doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_run_past_the_dense_cap_exits_3_before_listing_the_group(tmp_path, capsys):
    # Z_N^* for N = 10^30 has 4 x 10^29 elements; listing them would not end.
    doc = {
        "group": {"elementary": "Z2", "blackbox": {"type": "zn_star", "N": 10**30}},
        "gates": [{"qft": [0]}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: dense dimension 800000000000000000000000000000 exceeds cap 4096\n"
    )


def test_run_past_the_dense_cap_exits_3_without_factoring_n(tmp_path):
    # N = 999999937 * 1000000007: trial division to its smaller prime would
    # take hours, but phi(N) >= isqrt(N // 2) already passes the cap.
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    n = 999999937 * 1000000007
    doc = {"group": {"elementary": "Z2", "blackbox": {"type": "zn_star", "N": n}}, "gates": []}
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, time\n"
        "from normsim.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main(['run', {str(path)!r}])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 3
    assert float(done.stdout) < 2.0, time.perf_counter() - start
    floor = 2 * math.isqrt(n // 2)
    assert done.stderr == f"error: dense dimension at least {floor} exceeds cap 4096\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "zn_star", "999999943999999559"],
        ["check-modexp", "999999943999999559", "2", "4"],
    ],
    ids=["decompose", "check-modexp"],
)
def test_sampling_generators_of_a_huge_group_exits_3_without_factoring_n(argv):
    # N = 999999937 * 1000000007 again: the generator walk's cap refuses
    # the group on the floor isqrt(N // 2), before any candidate is drawn.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys; from normsim.cli import main; sys.exit(main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 3
    assert done.stderr == "error: group order exceeds cap 1048576\n"


def test_order_past_the_walk_cap_exits_3(capsys):
    # N = 999999937 * 1000000007 is not factored below 2^16, and 2 has an
    # order past 2^20: the simulator's walk for its period stops at the cap.
    assert main(["order", "999999943999999559", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: simulator: order of 2 exceeds cap 1048576\n"
    )


def test_run_checks_the_cap_against_phi_n_when_only_its_floor_fits(tmp_path, capsys):
    # N = 65537 * 65539: the floor 2 isqrt(N // 2) = 92684 fits the cap,
    # the exact dimension 2 phi(N) = 8590196736 does not.
    doc = {
        "group": {"elementary": "Z2", "blackbox": {"type": "zn_star", "N": 65537 * 65539}},
        "gates": [{"qft": [0]}],
    }
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--cap", "100000"]) == 3
    assert capsys.readouterr().err == "error: dense dimension 8590196736 exceeds cap 100000\n"


def test_run_names_an_unknown_gate_key_and_exits_4(tmp_path, capsys):
    doc = {"group": {"elementary": "Z2"}, "gates": [{"qft": [0], "ovr": "T"}]}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err == "error: gate 0: the qft entry has unknown keys ['ovr']\n"


@pytest.mark.parametrize("point", [None, "(0, 0)|1"])
def test_run_coset_engine_on_black_box_circuit_exits_3(point, tmp_path, capsys):
    from normsim.algorithms import dlog_circuit

    circuit_path = tmp_path / "dlog7.json"
    save_circuit(dlog_circuit(7, 3, 6), circuit_path)
    argv = ["run", str(circuit_path), "--engine", "coset"]
    assert main(argv + (["--input", point] if point else [])) == 3
    assert capsys.readouterr().err == "error: de-black-box the circuit first\n"


def test_deblackbox_command(tmp_path, log_schema):
    from normsim.blackbox import ZNStarGroup
    from normsim.circuits import (
        AutomorphismGate,
        DesignatedBasis,
        NormalizerCircuit,
        QFTGate,
        word_exp_func,
    )
    from normsim.groups import cyclic_group

    bb = ZNStarGroup(15)
    basis = DesignatedBasis(cyclic_group(4), bb)
    circuit = NormalizerCircuit(
        basis,
        [
            QFTGate((0,)),
            AutomorphismGate(
                func=word_exp_func(basis, [2]),
                name="word_exp",
                params={"bases": [2]},
            ),
            QFTGate((0,)),
        ],
    )
    circuit_path = tmp_path / "of.json"
    save_circuit(circuit, circuit_path)
    out_path = tmp_path / "rewritten.json"
    code, text, log = run_cli(
        ["deblackbox", str(circuit_path), "--circuit-out", str(out_path), "--seed", "0"],
        tmp_path,
    )
    assert code == 0
    jsonschema.validate(log, log_schema)
    rewritten = json.loads(out_path.read_text())
    assert "blackbox" not in rewritten["group"]
    # The rewritten file must itself parse and validate.
    from normsim.circuits import load_circuit

    load_circuit(out_path).validate()


def test_run_dense_word_exp_file_takes_the_coset_walk(tmp_path, capsys, monkeypatch):
    # A word_exp gate loaded from a circuit file runs as one walk of the
    # coset 4 <7> = {4, 13, 1, 7} per run (the input is off zero, so gate by
    # gate, and the support meets that one coset) and prints the bytes of
    # the per-label loop.
    from helpers import reference_black_box_gates

    from normsim import dense
    from normsim.algorithms import fourier_circuit
    from normsim.blackbox import ZNStarGroup
    from normsim.groups import cyclic_group

    circuit_path = tmp_path / "of.json"
    save_circuit(fourier_circuit(cyclic_group(4, 3), ZNStarGroup(15), [7, 1]), circuit_path)
    argv = ["run", str(circuit_path), "--engine", "dense", "--input", "(1, 2)|4",
            "--shots", "60", "--seed", "2"]

    def outputs(directory):
        directory.mkdir()
        out = directory / "out.txt"
        capsys.readouterr()
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        return stdout, out.read_bytes(), (directory / "out.txt.log.json").read_bytes()

    walks = []
    coset_walk = dense._coset_walk

    def spy(state, func, start):
        labels, walk = coset_walk(state, func, start)
        walks.append((state.bb_labels[start], labels.size))
        return labels, walk

    monkeypatch.setattr(dense, "_coset_walk", spy)
    walk_bytes = outputs(tmp_path / "walk")
    assert walks == [(4, 4)] * 2
    with reference_black_box_gates(monkeypatch):
        assert outputs(tmp_path / "reference") == walk_bytes
    assert walks == [(4, 4)] * 2


def test_check_modexp(tmp_path, log_schema):
    code, text, log = run_cli(["check-modexp", "15", "2", "4", "--seed", "0"], tmp_path)
    assert code == 0
    assert "True" in text
    jsonschema.validate(log, log_schema)
    code, text, log = run_cli(["check-modexp", "15", "2", "3", "--seed", "0"], tmp_path)
    assert code == 0
    assert "False" in text


def test_fixed_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    code1, text1, log1 = run_cli(["factor", "33", "--seed", "9"], a)
    code2, text2, log2 = run_cli(["factor", "33", "--seed", "9"], b)
    assert (code1, text1, log1) == (code2, text2, log2)


def test_json_format(tmp_path):
    out = tmp_path / "out.json"
    code = main(["order", "15", "2", "--seed", "0", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["order"] == 4
    assert payload["log"]["command"] == "order"


def test_factor_attempts_exhausted_exit_2(capsys):
    # Seed 0's one attempt on 21 draws a with a^(r/2) = -1 (test_algorithms
    # pins the transcript), so the run ends without a factor.
    assert main(["factor", "21", "--attempts", "1", "--seed", "0"]) == 2
    assert capsys.readouterr().err == "error: no factor of 21 found in 1 attempts\n"


def test_bad_knobs_exit_3(tmp_path, capsys):
    circuit_path = tmp_path / "qft2.json"
    write_qft_circuit(circuit_path)
    assert main(["run", str(circuit_path), "--shots", "0"]) == 3
    assert main(["order", "15", "2", "--resolution", "-1"]) == 3
    assert main(["dlog", "7", "3", "6", "--cap", "0"]) == 3
    # NaN fails the positivity check; inf, and a resolution whose inverse
    # overflows, give no grid, and the error names the value.
    assert main(["order", "15", "2", "--resolution", "nan"]) == 3
    assert main(["order", "15", "2", "--resolution", "inf"]) == 3
    assert main(["order", "15", "2", "--resolution", "1e-320"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: shots must be positive",
        "error: resolution must be positive",
        "error: caps must be positive",
        "error: resolution must be positive",
        "error: resolution inf is out of range",
        "error: resolution 1e-320 is out of range",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "15", "--bogus"],
        ["factor", "x"],
        ["factor", "15", "--shots", "5"],  # a flag factor does not read
        ["ecdlog", "5", "1", "1", "0,1", "4,2", "--repetitions", "0"],
        # Malformed positional text.
        ["decompose", "ec", "5", "1"],
        ["decompose", "zn_star", "15", "7"],
        ["decompose", "zn_star", "15", "--gens", "2,x"],
        ["decompose", "ec", "5", "1", "1", "--gens", "0,1;4"],
        ["hsp", "2,x", "1"],
        ["hsp", "2,2", "1,y"],
        ["ecdlog", "5", "1", "1", "0,1", "4"],
        # Output files that cannot be written.
        ["factor", "15", "--out", "/nonexistent/x.csv"],
        ["factor", "15", "--out", "{tmp}"],  # a directory: neither it nor its log opens
        ["order", "15", "2", "--density-out", "/nonexistent/d.csv"],
        ["deblackbox", "{circuit}", "--circuit-out", "/nonexistent/c.json"],
    ],
)
def test_malformed_command_line_exits_4(argv, tmp_path, capsys):
    circuit = tmp_path / "qft2.json"
    write_qft_circuit(circuit)
    argv = [a.format(tmp=tmp_path, circuit=circuit) for a in argv]
    assert main(argv) == 4  # returned, so argparse raised no SystemExit
    err = capsys.readouterr().err
    assert err.startswith("error: normsim") and len(err.splitlines()) == 1


def test_off_curve_point_still_exits_3(capsys):
    assert main(["ecdlog", "5", "1", "1", "0,1", "4,1"]) == 3
    assert "is not an element" in capsys.readouterr().err
    assert main(["ecdlog", "5", "1", "1", "0,1", "9,9"]) == 3
    assert "is not an element" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["ecdlog", "5", "1", "1", "4", "0,1"],
            "error: normsim ecdlog: malformed element '4': "
            "a curve point is x,y in decimal integers, or O\n",
        ),
        (
            ["decompose", "ec", "5", "1", "1", "--gens", "1,2,3"],
            "error: normsim decompose: malformed element '1,2,3': "
            "a curve point is x,y in decimal integers, or O\n",
        ),
        (
            ["ecdlog", "5", "1", "1", "0,x", "4,2"],
            "error: normsim ecdlog: malformed element '0,x': "
            "a curve point is x,y in decimal integers, or O\n",
        ),
    ],
)
def test_malformed_element_names_the_text_and_the_grammar(argv, message, capsys):
    assert main(argv) == 4
    assert capsys.readouterr().err == message


def test_run_input_outside_the_group_exits_3(tmp_path, capsys):
    from normsim.algorithms import dlog_circuit

    circuit_path = tmp_path / "dlog7.json"
    save_circuit(dlog_circuit(7, 3, 6), circuit_path)
    # 0 is a well-formed unit label but not a unit mod 7: a precondition.
    assert main(["run", str(circuit_path), "--input", "(0, 0)|0"]) == 3
    assert "is not an element" in capsys.readouterr().err
    # Bad syntax after the bar stays a parse failure.
    assert main(["run", str(circuit_path), "--input", "(0, 0)|x"]) == 4


@pytest.mark.parametrize(
    "black_box, point, message",
    [
        (False, "(1)|3", "no black-box slot in this circuit"),
        (True, "(0, 0)", "point needs a |element suffix for the black-box slot"),
    ],
    ids=["bar without a slot", "slot without a bar"],
)
def test_run_input_point_and_black_box_slot_must_agree(black_box, point, message, tmp_path, capsys):
    from normsim.algorithms import dlog_circuit

    path = tmp_path / "circuit.json"
    if black_box:
        save_circuit(dlog_circuit(7, 3, 6), path)
    else:
        path.write_text(json.dumps({"group": {"elementary": "Z2"}, "gates": [{"qft": [0]}]}))
    assert main(["run", str(path), "--input", point]) == 4
    assert capsys.readouterr().err == f"error: bad input point: {message}\n"


def test_algorithm_error_exits_3_without_traceback(capsys):
    assert main(["factor", "91", "--comb-M", "2", "--seed", "0"]) == 3
    assert capsys.readouterr().err == "error: comb half-length 2 below the order\n"


def test_each_subcommand_takes_only_the_flags_it_reads():
    reads = {
        "factor": {"--attempts", "--comb-M"},
        "dlog": {"--repetitions", "--cap"},
        "ecdlog": {"--cap"},
        "order": {"--density-out", "--comb-M", "--resolution"},
        "decompose": {"--gens", "--cap"},
        "hsp": {"--cap"},
        "run": {"--input", "--engine", "--shots", "--cap"},
        "deblackbox": {"--circuit-out"},
        "check-modexp": set(),
    }
    (subparsers,) = [a for a in build_parser()._actions if a.choices]
    for name, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert flags == reads[name] | {"--help", "--seed", "--out", "--format"}, name


def test_package_imports_without_scipy():
    # The runtime needs numpy alone: a fresh interpreter that imports the
    # package and its CLI must not have pulled scipy in.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = "import normsim, normsim.cli, sys; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
