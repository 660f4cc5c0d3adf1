"""Command-line front end.

Subcommands: factor, dlog, ecdlog, order, decompose, hsp, run, deblackbox,
check-modexp.  Output is CSV or JSON only; every subcommand writes a JSON run
log.  Exit codes: 0 success, 2 attempts exhausted, 3 precondition violated,
4 parse or validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import algorithms
from .blackbox import BlackBoxError, EllipticCurveGroup, ZNStarGroup
from .circuits import (
    CircuitError,
    InvalidGate,
    check_modexp_normalizable,
    circuit_to_json,
    load_circuit,
    save_circuit,
)
from .config import RunConfig
from .coset import coset_run
from .deblackbox import deblackbox_circuit
from .dense import dense_run, dense_sample
from .groups import GroupError

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_PRECONDITION = 3
EXIT_PARSE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--cap", type=int, default=None, help="dense dimension cap")
    parser.add_argument("--comb-M", type=int, default=None, dest="comb_m",
                        help="comb half-length for order finding")
    parser.add_argument("--resolution", type=float, default=None,
                        help="measurement window on the torus")
    parser.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsim",
        description="Normalizer-circuit simulators and the algorithm suite at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor an odd composite via order finding")
    p.add_argument("n", type=int)
    p.add_argument("--attempts", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("dlog", help="discrete logarithm in the units mod p")
    p.add_argument("p", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--repetitions", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("ecdlog", help="discrete logarithm on an elliptic curve")
    p.add_argument("p", type=int)
    p.add_argument("curve_a", type=int)
    p.add_argument("curve_b", type=int)
    p.add_argument("base", type=str, help='point "x,y"')
    p.add_argument("target", type=str, help='point "x,y" or "O"')
    _add_common(p)

    p = sub.add_parser("order", help="order of an element of Z_N^*")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--density-out", type=str, default=None,
                   help="dump the measurement density as CSV (p, density)")
    _add_common(p)

    p = sub.add_parser("decompose", help="decomposition table of a black-box group")
    p.add_argument("kind", choices=("zn_star", "ec"))
    p.add_argument("params", type=int, nargs="+", help="N, or p a b for a curve")
    p.add_argument("--gens", type=str, default=None,
                   help="comma-separated generators (sampled when omitted)")
    _add_common(p)

    p = sub.add_parser("hsp", help="hidden subgroup planted behind a coset oracle")
    p.add_argument("moduli", type=str, help='domain like "2,2,2"')
    p.add_argument("subgroup", type=str,
                   help='generators like "1,1,0;0,0,1" (empty string for trivial)')
    _add_common(p)

    p = sub.add_parser("run", help="simulate a circuit file and histogram outcomes")
    p.add_argument("circuit", type=str)
    p.add_argument("--input", type=str, default=None,
                   help='initial point like "(0, 0)|1" (defaults to all zeros/identity)')
    p.add_argument("--engine", choices=("dense", "coset"), default="dense")
    _add_common(p)

    p = sub.add_parser("deblackbox", help="rewrite a circuit over the decomposed group")
    p.add_argument("circuit", type=str)
    p.add_argument("--circuit-out", type=str, default=None)
    _add_common(p)

    p = sub.add_parser("check-modexp", help="finite-modulus test for repeated squaring")
    p.add_argument("n", type=int, help="modulus of Z_N^*")
    p.add_argument("a", type=int)
    p.add_argument("m", type=int, help="size of the finite exponent register")
    _add_common(p)

    return parser


def _emit(args, payload: dict, csv_rows: list[list] | None = None) -> None:
    if args.fmt == "json" or csv_rows is None:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for row in csv_rows:
            writer.writerow(row)
        text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _log_path(args) -> str | None:
    return args.out + ".log.json" if args.out else None


def _emit_log(args, log: dict) -> None:
    path = _log_path(args)
    if path:
        with open(path, "w") as fh:
            json.dump(log, fh, indent=2, default=str)
    elif args.fmt == "json":
        pass  # the payload already carries the log
    else:
        sys.stderr.write(json.dumps(log, default=str) + "\n")


def _parse_point(text: str | None):
    if text is None:
        return None
    if "," not in text or text.strip() == "O":
        if text.strip() == "O":
            return None
        return int(text)
    x, y = (int(v) for v in text.split(","))
    return (x, y)


def cmd_factor(args) -> int:
    rng = np.random.default_rng(args.seed)
    kwargs = {}
    if args.comb_m is not None:
        kwargs["comb_m"] = args.comb_m
    try:
        run = algorithms.factor(args.n, rng, attempts=args.attempts, **kwargs)
    except algorithms.AttemptsExhausted as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EXHAUSTED
    except algorithms.FactoringError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    log = {"command": "factor", "n": args.n, "seed": args.seed, **run.log}
    payload = {"n": args.n, "divisor": run.divisor, "attempts": run.attempts, "log": log}
    _emit(args, payload, [["n", "divisor", "attempts"], [args.n, run.divisor, run.attempts]])
    _emit_log(args, log)
    return EXIT_OK


def cmd_dlog(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        run = algorithms.discrete_log(
            args.p, args.a, args.b, rng, repetitions=args.repetitions, cap=args.cap
        )
    except (algorithms.DiscreteLogError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    log = {"command": "dlog", "seed": args.seed, **run.log}
    payload = {"p": args.p, "a": args.a, "b": args.b, "s": run.exponent, "log": log}
    _emit(args, payload, [["p", "a", "b", "s"], [args.p, args.a, args.b, run.exponent]])
    _emit_log(args, log)
    return EXIT_OK


def cmd_ecdlog(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        curve = EllipticCurveGroup(args.p, args.curve_a, args.curve_b)
        base = _parse_point(args.base)
        target = _parse_point(args.target)
        run = algorithms.ec_discrete_log(curve, base, target, rng, cap=args.cap)
    except (BlackBoxError, algorithms.AlgorithmError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    log = {"command": "ecdlog", "seed": args.seed, **run.log}
    payload = {"s": run.exponent, "order": run.order, "log": log}
    _emit(args, payload, [["s", "order"], [run.exponent, run.order]])
    _emit_log(args, log)
    return EXIT_OK


def cmd_order(args) -> int:
    rng = np.random.default_rng(args.seed)
    kwargs = {}
    if args.comb_m is not None:
        kwargs["comb_m"] = args.comb_m
    if args.resolution is not None:
        # Grid spacing at most the requested measurement window.
        kwargs["grid_size"] = 1 << max(4, math.ceil(math.log2(1 / args.resolution)))
    try:
        group = ZNStarGroup(args.n)
        run = algorithms.find_order(group, args.a, rng, **kwargs)
    except (BlackBoxError, algorithms.AlgorithmError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    if args.density_out:
        from .dirichlet import DirichletDistribution

        dist = DirichletDistribution(run.order, run.comb_m, 0)
        with open(args.density_out, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "density"])
            writer.writerows(dist.density_rows())
    log = {"command": "order", "seed": args.seed, **run.log}
    payload = {"n": args.n, "a": args.a, "order": run.order, "log": log}
    _emit(args, payload, [["n", "a", "order"], [args.n, args.a, run.order]])
    _emit_log(args, log)
    return EXIT_OK


def cmd_decompose(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        if args.kind == "zn_star":
            (n,) = args.params
            group = ZNStarGroup(n)
        else:
            p, a, b = args.params
            group = EllipticCurveGroup(p, a, b)
        sampled = False
        if args.gens:
            if args.kind == "zn_star":
                generators = [int(g) for g in args.gens.split(",")]
            else:
                generators = [_parse_point(g) for g in args.gens.split(";")]
        else:
            generators = group.sample_generators(rng)
            sampled = True
        run = algorithms.decompose_group(group, generators, rng, dense_cap=args.cap)
    except (BlackBoxError, algorithms.AlgorithmError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    table = run.table
    log = {
        "command": "decompose",
        "seed": args.seed,
        "generators_sampled": sampled,
        **run.log,
    }
    type_text = " x ".join(f"Z{c}" for c in table.isomorphism_type()) or "Z1"
    payload = {
        "isomorphism_type": type_text,
        "orders": table.c,
        "beta": [str(b) for b in table.beta],
        "A": table.a,
        "B": table.b,
        "log": log,
    }
    rows = [["isomorphism_type", type_text], ["orders", *table.c]]
    rows += [["A"], *[[*row] for row in table.a], ["B"], *[[*row] for row in table.b]]
    _emit(args, payload, rows)
    _emit_log(args, log)
    return EXIT_OK


def cmd_hsp(args) -> int:
    rng = np.random.default_rng(args.seed)
    from .groups import cyclic_group

    try:
        moduli = [int(m) for m in args.moduli.split(",")]
        domain = cyclic_group(*moduli)
        gens = []
        if args.subgroup.strip():
            for part in args.subgroup.split(";"):
                gens.append(domain.reduce([int(v) for v in part.split(",")]))
        subgroup = algorithms.HSPRun(domain, gens).subgroup_elements()
        labels = {}
        names = {}
        for el in domain.elements():
            coset = frozenset(el + h for h in subgroup)
            names.setdefault(coset, f"c{len(names)}")
            labels[el.coords] = names[coset]
        instance = algorithms.HSPInstance(
            group=domain, oracle=lambda coords: labels[tuple(coords)]
        )
        run = algorithms.solve_hsp(instance, rng, cap=args.cap)
    except (GroupError, algorithms.AlgorithmError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    log = {"command": "hsp", "seed": args.seed, **run.log}
    recovered = [str(g) for g in run.generators]
    payload = {"generators": recovered, "log": log}
    _emit(args, payload, [["generator"], *[[g] for g in recovered]])
    _emit_log(args, log)
    return EXIT_OK


def cmd_run(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        circuit = load_circuit(args.circuit)
    except (CircuitError, InvalidGate, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    basis = circuit.initial_basis
    if args.input is not None:
        try:
            point = _parse_cli_point(args.input, basis)
        except (CircuitError, GroupError, ValueError) as exc:
            sys.stderr.write(f"error: bad input point: {exc}\n")
            return EXIT_PARSE
    else:
        zeros = [0] * len(basis.elementary.factors)
        point = tuple(zeros) + ((basis.blackbox.identity(),) if basis.blackbox else ())
    try:
        if args.engine == "coset":
            element = basis.elementary.reduce(point)
            counts = coset_run(circuit, element).sample(args.shots, rng)
        else:
            counts = dense_sample(dense_run(circuit, point, cap=args.cap), args.shots, rng)
        histogram = {
            circuit.final_basis.format_point(pt): count for pt, count in counts.items()
        }
    except (CircuitError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    total = sum(histogram.values())
    rows = [["outcome", "count", "probability"]]
    for outcome in sorted(histogram):
        count = histogram[outcome]
        rows.append([outcome, count, count / total])
    log = {
        "command": "run",
        "seed": args.seed,
        "shots": args.shots,
        "engine": args.engine,
        "circuit": args.circuit,
        "gates": len(circuit.gates),
    }
    payload = {"histogram": histogram, "shots": total, "log": log}
    _emit(args, payload, rows)
    _emit_log(args, log)
    return EXIT_OK


def _parse_cli_point(text: str, basis):
    text = text.strip()
    if "|" in text:
        head, bb_text = text.split("|", 1)
    else:
        head, bb_text = text, None
    from .groups import parse_element

    element = parse_element(head, basis.elementary)
    if basis.blackbox is None:
        if bb_text is not None:
            raise CircuitError("no black-box slot in this circuit")
        return element.coords
    if bb_text is None:
        raise CircuitError("point needs a |element suffix for the black-box slot")
    from .circuits import _parse_bb_element

    return element.coords + (_parse_bb_element(basis.blackbox, bb_text),)


def cmd_deblackbox(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        circuit = load_circuit(args.circuit)
    except (CircuitError, InvalidGate, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    try:
        result = deblackbox_circuit(circuit, rng=rng)
        result.circuit.validate()
    except (CircuitError, InvalidGate, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    doc = circuit_to_json(result.circuit)
    if args.circuit_out:
        save_circuit(result.circuit, args.circuit_out)
    log = {
        "command": "deblackbox",
        "seed": args.seed,
        "provenance": result.provenance,
    }
    payload = {"circuit": doc, "provenance": result.provenance, "log": log}
    _emit(args, payload, None)
    _emit_log(args, log)
    return EXIT_OK


def cmd_check_modexp(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        group = ZNStarGroup(args.n)
        generators = group.sample_generators(rng)
        ok, rep = check_modexp_normalizable(args.m, args.a, group, generators)
    except (BlackBoxError, CircuitError, InvalidGate) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    log = {
        "command": "check-modexp",
        "seed": args.seed,
        "n": args.n,
        "a": args.a,
        "m": args.m,
        "normalizable": ok,
    }
    payload = {"normalizable": ok, "log": log}
    if rep is not None:
        payload["matrix"] = [[str(x) for x in row] for row in rep.matrix]
        payload["group"] = str(rep.group)
    _emit(args, payload, [["normalizable"], [ok]])
    _emit_log(args, log)
    return EXIT_OK


COMMANDS = {
    "factor": cmd_factor,
    "dlog": cmd_dlog,
    "ecdlog": cmd_ecdlog,
    "order": cmd_order,
    "decompose": cmd_decompose,
    "hsp": cmd_hsp,
    "run": cmd_run,
    "deblackbox": cmd_deblackbox,
    "check-modexp": cmd_check_modexp,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        RunConfig(
            seed=args.seed,
            shots=args.shots,
            dense_cap=args.cap,
            comb_m=args.comb_m,
            resolution=args.resolution,
            out=args.out,
            fmt=args.fmt,
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
