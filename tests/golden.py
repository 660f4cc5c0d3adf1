"""Digests of a fixed, seeded corpus, for same-bytes claims.

    python tests/golden.py --record   # write tests/data/golden.json
    python tests/golden.py --check    # name every case whose digest moved

Each family is a list of named cases; each case runs normsim on seeded input
and hashes what it returns (as canonical JSON) into SHA-256 digests, one per
part of the record. Most families have one part, the result:

- extract: extraction round trips on twelve finite groups, with the oracle
  calls they make, plus the error type and message for an oracle that
  answers in unreduced coordinates and one that is wrong off the generators;
- deblackbox: `deblackbox_circuit` of four algorithm circuits (a discrete
  log over Z_7^*, order finding in Z_15^*, a curve discrete log over F_5 and
  a kernel-finding circuit) and of two circuits that mix normal-form gates
  with `word_exp` and QFT gates over Z4 x Z_15^* and Z x Z4 x Z_15^*, as
  rewritten circuit JSON plus provenance;
- coset: `coset_run` of a seeded random circuit on fifteen groups, as the
  state's data, 16 samples and the next draw of the sampling rng;
- dlog: `discrete_log` for every prime p <= 17, generator a and unit b;
- ecdlog: `ec_discrete_log` of every multiple of a point of largest order
  on the five curves of the benchmark's `shor` workload;
- decompose: `decompose_group` on Z_N^* for N = 2..64, with generators from
  `sample_generators(default_rng(N))` and the same rng after it;
- dense: `dense_run` of `fourier_circuit`s, as the SHA-256 of the amplitude
  bytes, the shape and the black-box labels, with the oracle calls of the
  run as its trace: every discrete-log circuit for p <= 17 (p = 17 first), the circuit of
  every multiple of a point of largest order on the five `shor` curves, and
  `hsp_circuit` of up to three planted subgroups (three seeded draws,
  distinct ones kept) of each Z_n^k with n = 2..4 and k = 1..3, each from
  the zero / identity point and from a point with x_0 = 1;
- hsp: `solve_hsp` of every subgroup of Z2^3 and of Z4 x Z2 (the hidden
  subgroup suite of the acceptance tests), seeded per case, and `solve_hkp`
  of four homomorphisms from Z x Z4 into Z_15^* and Z_21^*;
- cli: `normsim.cli.main`, in process, on every subcommand in both formats
  over a small seeded input set, plus inputs that exit 2, 3 and 4.  Each
  case runs once to stdout and once with `--out`, in a temporary directory
  that also holds the circuit files the `run` and `deblackbox` cases read.

The dlog, ecdlog, decompose, dense, hsp and cli families split each record
in two.  The result is the answer: the exponent and order, the decomposition
table, the state's bytes, the hidden subgroup's elements or the kernel
generators, or else the type and message the run raises; for the CLI, the
exit codes, the output with its log taken out and the `error:` lines.  The
trace is how the run got there: its samples and log, the oracle calls of
every group made during it and the next draw of its rng; for the CLI, the
run logs (the log line on stderr, the "log" field of a JSON payload and the
`.log.json` file).  A change that keeps every answer but draws other samples
or makes other oracle calls moves traces alone.

The script imports normsim from the src/ beside it. `--check` prints, per
family, the cases, the results moved and the traces moved, then one MOVED
line per moved case naming the parts that moved. The exit code is 0 when
every digest equals the record, 1 otherwise. A change that moves a digest on
purpose re-records and names the family. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "data" / "golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from helpers import (  # noqa: E402
    all_subgroups,
    mixed_finite_circuit,
    mixed_infinite_circuit,
    random_circuit,
    random_matrix_rep,
    random_quadratic_form,
)
from normsim import (  # noqa: E402
    algorithms, blackbox, circuits, cli, coset, deblackbox, dense, groups
)
from normsim.groups import cyclic_group  # noqa: E402

EXTRACT_SHAPES = [
    (7,), (4, 6), (2, 2, 3), (8, 8), (3, 5, 7), (4, 4, 4, 4), (12, 12),
    (2, 4, 8, 16), (16, 16, 16), (9, 27), (6, 10, 14), (64, 64),
]
ENGINE_SHAPES = [
    (8,), (12,), (2, 6), (4, 4), (3, 9), (2, 2, 2), (6, 6), (2, 4, 8),
    (4, 4, 4), (2, 3, 4, 5), (8, 8, 8), (16, 32), (2, 2, 2, 2, 2), (9, 9), (5, 5, 5),
]
SHOR_CURVES = [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4)]
PARTS = ("result", "trace")


def _counted(oracle: Callable, calls: list) -> Callable:
    def counted(point):
        calls.append(1)
        return oracle(point)

    return counted


def _outcome(run: Callable) -> dict:
    """What one extraction returns, or the type and message it raises."""
    calls: list = []
    try:
        value = run(calls)
    except ValueError as exc:
        return {"error": type(exc).__name__, "message": str(exc), "calls": len(calls)}
    return {"value": value, "calls": len(calls)}


def _extract_case(moduli: tuple) -> dict:
    g = cyclic_group(*moduli)
    rng = np.random.default_rng(list(moduli))
    rep = random_matrix_rep(g, rng)
    form = random_quadratic_form(g, rng)

    def image(point):
        return rep.apply(g.reduce(point)).coords

    def phase(point):
        return form.exponent(g.reduce(point))

    def unreduced(point):
        return tuple(x + n for x, n in zip(image(point), moduli))

    def wrong(point):  # right on 0 and on every unit vector only
        return (image(point)[0] + int(sum(point) > 1),) + image(point)[1:]

    def wrong_phase(point):  # right on every point extraction probes
        return phase(point) + Fraction(int(sum(point) > 2), 2 * moduli[0])

    def matrix(oracle):
        return lambda calls: [
            [str(x) for x in row]
            for row in deblackbox.extract_matrix_rep(_counted(oracle, calls), g).matrix
        ]

    def quadratic(oracle):
        def run(calls):
            q = deblackbox.extract_quadratic(_counted(oracle, calls), g)
            return [[str(x) for x in row] for row in q.m], [str(x) for x in q.v]

        return run

    return {
        "matrix": _outcome(matrix(image)),
        "quadratic": _outcome(quadratic(phase)),
        "unreduced matrix": _outcome(matrix(unreduced)),
        "wrong matrix": _outcome(matrix(wrong)),
        "wrong phase": _outcome(quadratic(wrong_phase)),
    }


def _algorithm_circuits() -> list[tuple[str, Callable]]:
    """(name, build) pairs; build returns (circuit, deblackbox generators)
    on a freshly built black-box group."""
    cases = []
    for s in range(6):
        cases.append((f"dlog p=7 b=3^{s}",
                      lambda s=s: (algorithms.dlog_circuit(7, 3, pow(3, s, 7)), None)))

    def order_finding(a):
        basis = circuits.DesignatedBasis(cyclic_group(4), blackbox.ZNStarGroup(15))
        gate = circuits.AutomorphismGate(
            func=circuits.word_exp_func(basis, [a]), name="word_exp", params={"bases": [a]}
        )
        gates = [circuits.QFTGate((0,)), gate, circuits.QFTGate((0,))]
        return circuits.NormalizerCircuit(basis, gates), [2, 14]

    for a in (1, 2, 4, 7, 8, 11, 13, 14):
        cases.append((f"order finding N=15 a={a}", lambda a=a: order_finding(a)))

    def curve_dlog(k):
        curve = blackbox.EllipticCurveGroup(5, 1, 1)
        target = curve.identity()
        for _ in range(k):
            target = curve.mul(target, (0, 1))
        return algorithms.ec_dlog_circuit(curve, (0, 1), target, 9), None

    for k in range(9):
        cases.append((f"ec p=5 b={k}P", lambda k=k: curve_dlog(k)))

    def kernel_finding():
        domain = cyclic_group(4, 4)
        encoder = blackbox.ZNStarGroup(15)

        def oracle(coords):
            return encoder.encode(pow(2, int(coords[0]), 15) * pow(7, int(coords[1]), 15) % 15)

        oracular = algorithms.OracularGroup(domain, oracle)
        circuit = algorithms.hsp_circuit(algorithms.HSPInstance(domain, oracle), oracular)
        return circuit, list(oracular.elements())

    cases.append(("kernel-finding Z4^2", kernel_finding))
    cases.append(("mixed Z4 x Z15*", lambda: (mixed_finite_circuit(), [2, 14])))
    cases.append(("mixed Z x Z4 x Z15*", lambda: (mixed_infinite_circuit(), [2, 14])))
    return cases


def _deblackbox_case(build: Callable) -> dict:
    circuit, generators = build()
    result = deblackbox.deblackbox_circuit(circuit, generators=generators)
    return {
        "circuit": circuits.circuit_to_json(result.circuit),
        "provenance": result.provenance,
    }


def _coset_case(moduli: tuple) -> dict:
    g = cyclic_group(*moduli)
    rng = np.random.default_rng(list(moduli))
    circuit = random_circuit(g, rng)
    start = tuple(int(rng.integers(n)) for n in moduli)
    state = coset.coset_run(circuit, g.reduce(start))
    samples = state.sample(16, rng)
    return {
        "state": [state.shift, state.columns, state.moduli, state.quad, state.lin],
        "samples": sorted([list(point), count] for point, count in samples.items()),
        "next draw": int(rng.integers(1 << 62)),
    }


@contextmanager
def _counters():
    """Every oracle counter made inside the block, in one list."""
    made: list = []
    base = blackbox.OracleCounter

    class Recorded(base):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    blackbox.OracleCounter = Recorded
    try:
        yield made
    finally:
        blackbox.OracleCounter = base


def _algorithm_case(run: Callable, rng) -> dict:
    """run(rng) returns (answer, trace). The result part is the answer or
    the error; the trace part is the run's trace, the oracle calls of the
    groups it makes (and of those `run` builds first) and the next draw of
    rng."""
    with _counters() as made:
        try:
            result, trace = run(rng)
        except (ValueError, RuntimeError) as exc:
            result, trace = {"error": type(exc).__name__, "message": str(exc)}, None
    return {
        "result": result,
        "trace": {
            "run": trace,
            "oracle calls": sum(counter.total for counter in made),
            "next draw": int(rng.integers(1 << 62)),
        },
    }


def _dlog_parts(run: algorithms.DiscreteLogRun) -> tuple:
    return [run.exponent, run.order], [run.samples, run.log]


def _dlog_case(p: int, a: int, b: int) -> dict:
    def run(rng):
        return _dlog_parts(algorithms.discrete_log(p, a, b, rng))

    return _algorithm_case(run, np.random.default_rng([p, a, b]))


def _dlog_inputs():
    """(p, a, b) for every prime p <= 17, generator a of Z_p^* and unit b."""
    for p in (2, 3, 5, 7, 11, 13, 17):
        for a in range(1, p):
            if all(pow(a, k, p) != 1 for k in range(1, p - 1)):
                yield from ((p, a, b) for b in range(1, p))


def _ecdlog_case(params: tuple, base, target, s: int) -> dict:
    def run(rng):
        curve = blackbox.EllipticCurveGroup(*params)
        return _dlog_parts(algorithms.ec_discrete_log(curve, base, target, rng))

    return _algorithm_case(run, np.random.default_rng([*params, s]))


def _ecdlog_inputs():
    """(curve parameters, base, s base, s) for every multiple s base of a
    point of largest order on each of SHOR_CURVES."""
    for params in SHOR_CURVES:
        curve = blackbox.EllipticCurveGroup(*params)
        points = [pt for pt in curve.elements() if pt is not None]
        orders = {pt: blackbox.bb_order(curve, pt) for pt in points}
        base = max(points, key=lambda pt: orders[pt])
        target = curve.identity()
        for s in range(orders[base]):
            yield params, base, target, s
            target = curve.mul(target, base)


def _decompose_case(n: int) -> dict:
    def run(rng):
        group = blackbox.ZNStarGroup(n)
        result = algorithms.decompose_group(group, group.sample_generators(rng), rng)
        table = result.table
        return [table.alpha, table.beta, table.a, table.b, table.c], result.log

    return _algorithm_case(run, np.random.default_rng(n))


def _hsp_case(domain, subgroup: set, seed: list) -> dict:
    """`solve_hsp` of the oracle that names each coset of `subgroup`."""
    labels = {el.coords: min((el + h).coords for h in subgroup) for el in domain.elements()}

    def run(rng):
        instance = algorithms.HSPInstance(group=domain, oracle=lambda c: labels[tuple(c)])
        result = algorithms.solve_hsp(instance, rng)
        return sorted(el.coords for el in result.subgroup_elements()), result.log

    return _algorithm_case(run, np.random.default_rng(seed))


#: (N, bases) of the solve_hkp cases: f(x) = bases[0]^x_0 bases[1]^x_1 mod N
#: on Z x Z4, the second base of order dividing 4.
HKP_CASES = [(15, (2, 7)), (15, (4, 7)), (15, (2, 4)), (21, (2, 20))]


def _hkp_case(n: int, bases: tuple) -> dict:
    def run(rng):
        group = blackbox.ZNStarGroup(n)
        domain = groups.group(groups.Z, groups.cyclic(4))

        def f(coords):
            return pow(bases[0], int(coords[0]), n) * pow(bases[1], int(coords[1]), n) % n

        result = algorithms.solve_hkp(domain, group, f, rng)
        return [list(g.coords) for g in result.generators], result.log

    return _algorithm_case(run, np.random.default_rng([n, *bases]))


def _hsp_cases() -> list[tuple[str, Callable[[], dict]]]:
    cases = []
    for name, moduli in (("Z2^3", (2, 2, 2)), ("Z4xZ2", (4, 2))):
        domain = cyclic_group(*moduli)
        for i, subgroup in enumerate(all_subgroups(domain)):
            cases.append((f"{name} H{i} |H|={len(subgroup)}",
                          lambda d=domain, h=subgroup, seed=[*moduli, i]: _hsp_case(d, h, seed)))
    for n, bases in HKP_CASES:
        cases.append((f"hkp Z x Z4 -> Z{n}* f={bases[0]}^x0 {bases[1]}^x1",
                      lambda n=n, bases=bases: _hkp_case(n, bases)))
    return cases


def _dense_case(build: Callable, first: int) -> dict:
    """`dense_run` of the built `fourier_circuit` from (first, 0, .., 0, 1_B)."""
    circuit = build()
    basis = circuit.initial_basis
    moduli = [f.modulus for f in basis.elementary.factors]
    start = tuple(first % n if i == 0 else 0 for i, n in enumerate(moduli))
    counter = basis.blackbox.counter
    before = counter.mul, counter.inv
    state = dense.dense_run(circuit, start + (basis.blackbox.identity(),))
    return {
        "result": {
            "amplitudes": hashlib.sha256(state.amplitudes.tobytes()).hexdigest(),
            "shape": list(state.amplitudes.shape),
            "bb labels": state.bb_labels,
        },
        "trace": {"oracle calls": [counter.mul - before[0], counter.inv - before[1]]},
    }


def _planted_circuit(moduli: tuple, hidden: tuple) -> circuits.NormalizerCircuit:
    """`hsp_circuit` of the oracle on Z_moduli that labels each coset of
    <hidden> by its least member."""
    domain = cyclic_group(*moduli)

    def oracle(coords):
        return min(
            tuple((int(c) + k * h) % m for c, h, m in zip(coords, hidden, moduli))
            for k in range(max(moduli))
        )

    instance = algorithms.HSPInstance(domain, oracle)
    return algorithms.hsp_circuit(instance, algorithms.OracularGroup(domain, oracle))


def _dense_circuits() -> list[tuple[str, Callable]]:
    """(name, build) pairs of the dense family's circuits."""
    cases = [
        (f"dlog p={p} a={a} b={b}", lambda p=p, a=a, b=b: algorithms.dlog_circuit(p, a, b))
        for p, a, b in sorted(_dlog_inputs(), key=lambda case: -case[0])
    ]
    for params, base, target, s in _ecdlog_inputs():
        def curve_circuit(params=params, base=base, target=target):
            curve = blackbox.EllipticCurveGroup(*params)
            n = blackbox.bb_order(curve, base)
            return algorithms.ec_dlog_circuit(curve, base, target, n)

        cases.append((f"E{params} s={s}", curve_circuit))
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            rng = np.random.default_rng([n, k])
            draws = (tuple(int(h) for h in rng.integers(n, size=k)) for _ in range(3))
            for hidden in dict.fromkeys(draws):  # distinct, in draw order
                cases.append((f"planted Z{n}^{k} h={hidden}",
                              lambda m=(n,) * k, h=hidden: _planted_circuit(m, h)))
    return cases


def _cli_circuits() -> dict[str, circuits.NormalizerCircuit]:
    """The circuit files of the cli family, by file name."""
    curve = blackbox.EllipticCurveGroup(5, 1, 1)
    g = cyclic_group(4)
    basis = circuits.DesignatedBasis(g, blackbox.ZNStarGroup(15))
    word_exp = circuits.AutomorphismGate(
        func=circuits.word_exp_func(basis, [7]), name="word_exp", params={"bases": [7]}
    )
    phase = circuits.validate_quadratic([[Fraction(1, 4)]], [Fraction(1, 2)], g)
    mixed = [circuits.QFTGate((0,)), word_exp, circuits.QuadraticGate(form=phase),
             circuits.QFTGate((0,))]
    return {
        "dlog7.json": algorithms.dlog_circuit(7, 3, 6),
        "ec5.json": algorithms.ec_dlog_circuit(curve, (0, 1), (4, 2), 9),
        "mixed.json": circuits.NormalizerCircuit(basis, mixed),
    }


#: (name, argv) of the cli family; <tmp> names the case's directory.  Each
#: runs with --format csv and with --format json.
CLI_CASES = [
    ("factor 21", ["factor", "21", "--seed", "7"]),
    ("dlog 7 3 6", ["dlog", "7", "3", "6", "--seed", "1"]),
    ("ecdlog E(5, 1, 1)", ["ecdlog", "5", "1", "1", "0,1", "4,2", "--seed", "1"]),
    ("decompose zn_star 63", ["decompose", "zn_star", "63", "--seed", "2"]),
    ("factor 15", ["factor", "15", "--seed", "1"]),
    ("dlog 11 2 7", ["dlog", "11", "2", "7", "--seed", "4"]),
    ("order 15 2", ["order", "15", "2", "--seed", "0"]),
    ("order 21 2 resolution", ["order", "21", "2", "--resolution", "0.01", "--seed", "3"]),
    ("decompose zn_star 21", ["decompose", "zn_star", "21", "--seed", "3"]),
    ("decompose zn_star 15 gens", ["decompose", "zn_star", "15", "--gens", "2,14", "--seed", "1"]),
    ("decompose ec 7 0 1", ["decompose", "ec", "7", "0", "1", "--seed", "5"]),
    ("decompose ec 5 1 1 gens", ["decompose", "ec", "5", "1", "1", "--gens", "0,1", "--seed", "0"]),
    ("hsp 2,4", ["hsp", "2,4", "1,2", "--seed", "5"]),
    ("hsp 2,2,2 trivial", ["hsp", "2,2,2", "", "--seed", "6"]),
    ("run dlog7 dense", ["run", "<tmp>/dlog7.json", "--input", "(0, 0)|1", "--shots", "50",
                         "--seed", "3"]),
    ("run ec5 dense", ["run", "<tmp>/ec5.json", "--shots", "40", "--seed", "2"]),
    ("run mixed dense", ["run", "<tmp>/mixed.json", "--input", "(1)|2", "--shots", "30",
                         "--seed", "8"]),
    ("deblackbox dlog7", ["deblackbox", "<tmp>/dlog7.json", "--seed", "0"]),
    ("deblackbox ec5", ["deblackbox", "<tmp>/ec5.json", "--seed", "1"]),
    ("deblackbox mixed", ["deblackbox", "<tmp>/mixed.json", "--seed", "2"]),
    ("check-modexp 15 2 4", ["check-modexp", "15", "2", "4", "--seed", "0"]),
    ("check-modexp 21 2 6", ["check-modexp", "21", "2", "6", "--seed", "1"]),
    ("exit 2 factor attempts", ["factor", "21", "--attempts", "1", "--seed", "0"]),
    ("exit 3 factor prime power", ["factor", "9"]),
    ("exit 3 dlog dense cap", ["dlog", "101", "2", "3"]),
    ("exit 3 decompose not a unit", ["decompose", "zn_star", "15", "--gens", "2,5"]),
    ("exit 3 run input off the group", ["run", "<tmp>/dlog7.json", "--input", "(0, 0)|7"]),
    ("exit 4 unknown subcommand", ["fourier"]),
    ("exit 4 bad point", ["ecdlog", "5", "1", "1", "0;1", "4,2"]),
    ("exit 4 bad moduli", ["hsp", "2,x", ""]),
    ("exit 4 missing circuit", ["deblackbox", "<tmp>/absent.json"]),
]


def _cli_main(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `normsim` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _without_log(text: str) -> tuple[str, object]:
    """(output, log): a JSON payload split at its "log" field."""
    if not text.startswith("{"):
        return text, None
    payload = json.loads(text)
    log = payload.pop("log", None)
    return json.dumps(payload, sort_keys=True), log


def _cli_case(argv: list[str], fmt: str) -> dict:
    """Exit codes, outputs and logs of one argv, to stdout and with --out."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, circuit in _cli_circuits().items():
            circuits.save_circuit(circuit, f"{tmp}/{name}")
        argv = [arg.replace("<tmp>", tmp) for arg in argv] + ["--format", fmt]
        code, stdout, stderr = _cli_main(argv)
        out = Path(tmp) / "out"
        out_code, out_stdout, out_stderr = _cli_main(argv + ["--out", str(out)])
        files = [path.read_text() if path.exists() else None
                 for path in (out, Path(f"{out}.log.json"))]
    parts: dict = {"result": {"code": code, "out code": out_code}, "trace": {}}
    for where, text, log_file in (("stdout", stdout, None), ("--out", files[0], files[1])):
        output, log = _without_log(text or "")
        parts["result"][where] = output
        parts["trace"][f"{where} log"] = log
        if log_file is not None:
            parts["trace"]["log file"] = json.loads(log_file)
    for where, text in (("stderr", stderr), ("--out streams", out_stdout + out_stderr)):
        lines = text.splitlines()
        parts["result"][where] = [line for line in lines if line.startswith("error: ")]
        parts["trace"][where] = [line for line in lines if not line.startswith("error: ")]
    return json.loads(json.dumps(parts).replace(tmp, "<tmp>"))


def _result(run: Callable[[], dict]) -> Callable[[], dict]:
    """A one-part case: the whole record is its result."""
    return lambda: {"result": run()}


def families() -> dict[str, list[tuple[str, Callable[[], dict]]]]:
    """Every family's cases, in a fixed order, as (name, run) pairs; run()
    returns the case's record as {part: value}."""
    return {
        "extract": [(f"Z{m}", _result(lambda m=m: _extract_case(m))) for m in EXTRACT_SHAPES],
        "deblackbox": [
            (name, _result(lambda build=build: _deblackbox_case(build)))
            for name, build in _algorithm_circuits()
        ],
        "coset": [(f"Z{m}", _result(lambda m=m: _coset_case(m))) for m in ENGINE_SHAPES],
        "dlog": [
            (f"p={p} a={a} b={b}", lambda p=p, a=a, b=b: _dlog_case(p, a, b))
            for p, a, b in _dlog_inputs()
        ],
        "ecdlog": [
            (f"E{args[0]} s={args[3]}", lambda args=args: _ecdlog_case(*args))
            for args in _ecdlog_inputs()
        ],
        "decompose": [(f"Z{n}*", lambda n=n: _decompose_case(n)) for n in range(2, 65)],
        "dense": [
            (f"{name} x0={first}", lambda build=build, first=first: _dense_case(build, first))
            for name, build in _dense_circuits()
            for first in (0, 1)
        ],
        "hsp": _hsp_cases(),
        "cli": [
            (f"{name} {fmt}", lambda argv=argv, fmt=fmt: _cli_case(argv, fmt))
            for name, argv in CLI_CASES
            for fmt in ("csv", "json")
        ],
    }


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(record: dict) -> dict[str, str]:
    """{part: digest} of one case's record."""
    return {part: digest(value) for part, value in record.items()}


def compute(limit: int | None = None) -> dict[str, dict[str, dict[str, str]]]:
    """{family: {case: {part: digest}}} over the first `limit` cases of each
    family."""
    return {
        family: {name: digests(run()) for name, run in cases[:limit]}
        for family, cases in families().items()
    }


def moved(limit: int | None = None) -> list[tuple[str, str, list[str]]]:
    """(family, case, parts) for every case with a part whose digest differs
    from the record; on the whole corpus, also every recorded case that no
    longer runs (all its recorded parts moved)."""
    recorded = json.loads(RECORD.read_text())
    out = []
    for family, cases in compute(limit).items():
        expected = recorded.get(family, {})
        if limit is None:
            gone = sorted(set(expected) - set(cases))
            out += [(family, name, [p for p in PARTS if p in expected[name]]) for name in gone]
        for name, parts in cases.items():
            was = expected.get(name, {})
            changed = [part for part in PARTS if parts.get(part) != was.get(part)]
            if changed:
                out.append((family, name, changed))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="write the digests")
    mode.add_argument("--check", action="store_true", help="compare with the record")
    args = parser.parse_args(argv)
    if args.record:
        record = compute()
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        for family, cases in record.items():
            print(f"{family}: {len(cases)} cases recorded")
        return 0
    changed = moved()
    recorded = json.loads(RECORD.read_text())
    for family, cases in recorded.items():
        counts = {
            part: sum(1 for f, _, parts in changed if f == family and part in parts)
            for part in PARTS
        }
        print(f"{family}: {len(cases)} cases, {counts['result']} results moved, "
              f"{counts['trace']} traces moved")
    for family, name, parts in changed:
        print(f"MOVED: {family}/{name} ({', '.join(parts)})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
