"""Pinned fixed-seed CLI bytes: one invocation per subcommand, both formats.

EXPECTED (in data/cli_pinned.json) was recorded before the CLI was given one
front door.  Each case runs twice per format: once to stdout (stdout and
stderr captured) and once with `--out` (the output file and
`<out>.log.json` read back).  Temporary paths are masked as `<tmp>`, so any
change to an output byte, a log field or an rng stream shows up here.

The "run dense" and "run coset" cases were recorded later, before group
coordinates became `int` on Z and cyclic factors: they run one normal-form
circuit on Z4 x Z9, with an automorphism gate and a quadratic phase gate
whose M and v are non-integral, through each engine.

The factor, order, decompose, decompose ec and ecdlog cases were re-recorded
when order finding's sampler went from an inverse CDF on the grid to
rejection sampling (same outcome law, another rng stream), and the deblackbox
cases when the encoding bridge began to encode from its word table (fewer
oracle calls).  The deblackbox and decompose cases moved once more, in their
oracle counts alone, when generator sampling began to walk the group once
per kept generator and the deblackbox provenance began to count it.  The
decompose and decompose ec cases moved in their oracle counts alone (118 to
107, 47 to 48) when decomposition's kernel step began to sample its circuit
on the group itself: the step's calls now fall on the group's own counter,
so the log holds them.  The decompose and deblackbox cases moved in their
oracle counts alone once more (107 to 96, and the deblackbox provenance's
decompose record 30 to 23) when the Cayley walk began to add each
generator's cosets once, at |<gens>| - 1 + k `mul` instead of k per element:
generator sampling walks after each generator it keeps.  The order, decompose
and decompose ec cases moved in their oracle counts alone (10 to 7, 96 to 84,
48 to 40) when order finding's simulator began to read the period from the
group's order instead of walking the powers on the oracle, and the deblackbox
case (its provenance's decompose record 23 to 19) when generator sampling
began to resume the kept walk instead of walking each prefix again.

The order, decompose, decompose ec and deblackbox cases moved in their
oracle counts alone once more when `power` began its square-and-multiply at
x instead of the identity (bit_length + popcount - 2 `mul`, none for x^1),
`word` began to skip zero exponents, and `DecompositionTable.verify` began
to check each order by its prime certificate instead of walking the powers:
order 7 to 3, decompose 84 to 51, decompose ec 40 to 23, and the deblackbox
provenance's decompose record 19 to 10 and its extraction record 44 to 38.

The decompose cases moved in their oracle counts alone (51 to 40) when the
dense engine began to apply `word_exp` by one walk of the coset y0 <bases>
(|<bases>| - 1 + one closing product per active base) instead of one
translation table of the whole group per base.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from normsim.algorithms import dlog_circuit
from normsim.blackbox import ZNStarGroup
from normsim.circuits import (
    AutomorphismGate,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    save_circuit,
    validate_matrix_rep,
    validate_quadratic,
    word_exp_func,
)
from normsim.cli import main
from normsim.groups import cyclic_group

EXPECTED_PATH = Path(__file__).parent / "data" / "cli_pinned.json"


def _order_finding_circuit() -> NormalizerCircuit:
    basis = DesignatedBasis(cyclic_group(4), ZNStarGroup(15))
    oracle = AutomorphismGate(
        func=word_exp_func(basis, [2]), name="word_exp", params={"bases": [2]}
    )
    return NormalizerCircuit(basis, [QFTGate((0,)), oracle, QFTGate((0,))])


def _normal_form_circuit() -> NormalizerCircuit:
    g = cyclic_group(4, 9)
    auto = AutomorphismGate(rep=validate_matrix_rep([[3, 0], [0, 2]], g))
    phase = QuadraticGate(form=validate_quadratic(
        [[Fraction(1, 2), 0], [0, Fraction(2, 9)]], [Fraction(1, 4), Fraction(1, 3)], g
    ))
    qft = QFTGate((0, 1))
    return NormalizerCircuit(DesignatedBasis(g), [qft, auto, phase, qft])


CASES = {
    "factor": ["factor", "21", "--seed", "7"],
    "dlog": ["dlog", "7", "3", "6", "--seed", "1"],
    "ecdlog": ["ecdlog", "5", "1", "1", "0,1", "4,2", "--seed", "1"],
    "order": ["order", "15", "2", "--seed", "0"],
    "decompose": ["decompose", "zn_star", "21", "--seed", "3"],
    "decompose ec": ["decompose", "ec", "5", "1", "1", "--gens", "0,1", "--seed", "0"],
    "hsp": ["hsp", "2,4", "1,2", "--seed", "5"],
    "run": ["run", "<tmp>/dlog7.json", "--input", "(0, 0)|1", "--shots", "50", "--seed", "3"],
    "deblackbox": ["deblackbox", "<tmp>/of.json", "--seed", "0"],
    "check-modexp": ["check-modexp", "15", "2", "4", "--seed", "0"],
    "run dense": ["run", "<tmp>/nf.json", "--engine", "dense", "--shots", "200", "--seed", "4"],
    "run coset": ["run", "<tmp>/nf.json", "--engine", "coset", "--shots", "200", "--seed", "4"],
}


def capture(name: str, fmt: str, tmp_path: Path, capsys) -> dict:
    """Exit codes and masked output bytes of one case in one format."""
    save_circuit(dlog_circuit(7, 3, 6), tmp_path / "dlog7.json")
    save_circuit(_order_finding_circuit(), tmp_path / "of.json")
    save_circuit(_normal_form_circuit(), tmp_path / "nf.json")
    tmp = str(tmp_path)
    argv = [arg.replace("<tmp>", tmp) for arg in CASES[name]] + ["--format", fmt]
    capsys.readouterr()
    result = {"code": main(argv)}
    streams = capsys.readouterr()
    result["stdout"], result["stderr"] = streams.out, streams.err
    out = tmp_path / "out.txt"
    result["out_code"] = main(argv + ["--out", str(out)])
    streams = capsys.readouterr()
    result["out_streams"] = streams.out + streams.err
    result["out"] = out.read_bytes().decode()
    result["log"] = Path(f"{out}.log.json").read_bytes().decode()
    return {key: value.replace(tmp, "<tmp>") if isinstance(value, str) else value
            for key, value in result.items()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_are_pinned(name, fmt, tmp_path, capsys, expected):
    assert capture(name, fmt, tmp_path, capsys) == expected[f"{name} {fmt}"]
