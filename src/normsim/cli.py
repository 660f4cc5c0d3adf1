"""Command-line front end.

Subcommands: factor, dlog, ecdlog, order, decompose, hsp, run, deblackbox,
check-modexp.  Output is CSV or JSON only; every subcommand writes a JSON run
log.  Each `cmd_*` takes the parsed arguments and the run's rng and returns
(payload, csv_rows, log); `main` alone parses, checks values, maps errors to
exit codes and writes the output.  Exit codes: 0 success, 2 attempts
exhausted, 3 precondition violated, 4 parse or validation failure.
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
from .blackbox import EllipticCurveGroup, ZNStarGroup
from .circuits import (
    CircuitError,
    _format_bb_element,
    _parse_bb_element,
    check_modexp_normalizable,
    circuit_to_json,
    load_circuit,
    save_circuit,
)
from .coset import coset_run
from .deblackbox import deblackbox_circuit
from .dense import dense_run, dense_sample
from .dirichlet import DirichletDistribution
from .groups import cyclic_group, parse_element

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_PRECONDITION = 3
EXIT_PARSE = 4


class ParseError(Exception):
    """A malformed command line, circuit file or input point (exit 4)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


# Flags that only some subcommands read, by name.
FLAGS = {
    "--shots": {"type": int, "default": 1000},
    "--cap": {"type": int, "default": None, "help": "dense dimension cap"},
    "--comb-M": {"type": int, "default": None, "dest": "comb_m",
                 "help": "comb half-length for order finding"},
    "--resolution": {"type": float, "default": None,
                     "help": "measurement window on the torus"},
}

# Values `main` checks before running a command: (attribute, message).
POSITIVE = (
    ("shots", "shots must be positive"),
    ("cap", "caps must be positive"),
    ("resolution", "resolution must be positive"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normsim",
        description="Normalizer-circuit simulators and the algorithm suite at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        return p

    p = command("factor", "factor an odd composite via order finding", "--comb-M")
    p.add_argument("n", type=int)
    p.add_argument("--attempts", type=int, default=10)

    p = command("dlog", "discrete logarithm in the units mod p", "--cap")
    p.add_argument("p", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--repetitions", type=int, default=10)

    p = command("ecdlog", "discrete logarithm on an elliptic curve", "--cap")
    p.add_argument("p", type=int)
    p.add_argument("curve_a", type=int)
    p.add_argument("curve_b", type=int)
    p.add_argument("base", type=str, help='point "x,y"')
    p.add_argument("target", type=str, help='point "x,y" or "O"')

    p = command("order", "order of an element of Z_N^*", "--comb-M", "--resolution")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--density-out", type=str, default=None,
                   help="dump the measurement density as CSV (p, density)")

    p = command("decompose", "decomposition table of a black-box group", "--cap")
    p.add_argument("kind", choices=("zn_star", "ec"))
    p.add_argument("params", type=int, nargs="+", help="N, or p a b for a curve")
    p.add_argument("--gens", type=str, default=None,
                   help="comma-separated generators (sampled when omitted)")

    p = command("hsp", "hidden subgroup planted behind a coset oracle", "--cap")
    p.add_argument("moduli", type=str, help='domain like "2,2,2"')
    p.add_argument("subgroup", type=str,
                   help='generators like "1,1,0;0,0,1" (empty string for trivial)')

    p = command("run", "simulate a circuit file and histogram outcomes", "--shots", "--cap")
    p.add_argument("circuit", type=str)
    p.add_argument("--input", type=str, default=None,
                   help='initial point like "(0, 0)|1" (defaults to all zeros/identity)')
    p.add_argument("--engine", choices=("dense", "coset"), default="dense")

    p = command("deblackbox", "rewrite a circuit over the decomposed group")
    p.add_argument("circuit", type=str)
    p.add_argument("--circuit-out", type=str, default=None)

    p = command("check-modexp", "finite-modulus test for repeated squaring")
    p.add_argument("n", type=int, help="modulus of Z_N^*")
    p.add_argument("a", type=int)
    p.add_argument("m", type=int, help="size of the finite exponent register")

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


def _emit_log(args, log: dict) -> None:
    if args.out:
        with open(args.out + ".log.json", "w") as fh:
            json.dump(log, fh, indent=2, default=str)
    elif args.fmt == "csv":  # a JSON payload already carries the log
        sys.stderr.write(json.dumps(log, default=str) + "\n")


def _load_circuit(path: str):
    try:
        return load_circuit(path)
    except (ValueError, OSError) as exc:
        raise ParseError(str(exc)) from exc


def _input_point(text: str, basis):
    """The point `text` names in README's "Points" grammar, e.g. `(0, 1)|7`.
    Bad syntax is a parse failure; a well-formed black-box element outside
    the group stays a precondition violation."""
    head, bar, bb_text = text.strip().partition("|")
    try:
        coords = parse_element(head, basis.elementary).coords
        if basis.blackbox is None:
            if bar:
                raise ValueError("no black-box slot in this circuit")
            return coords
        if not bar:
            raise ValueError("point needs a |element suffix for the black-box slot")
        return coords + (_parse_bb_element(basis.blackbox, bb_text),)
    except CircuitError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad input point: {exc}") from exc


def _ints(args, name: str, text: str, sep: str = ",") -> list[int]:
    """The integers `text` lists, or a parse failure naming the argument."""
    try:
        return [int(v) for v in text.split(sep)]
    except ValueError:
        raise ParseError(
            f"normsim {args.command}: {name} must be integers separated by {sep!r}, got {text!r}"
        ) from None


def _element(args, group, text: str):
    """The black-box element `text` names.  Bad syntax is a parse failure; a
    well-formed point outside the group stays a precondition violation."""
    try:
        return _parse_bb_element(group, text)
    except CircuitError:
        raise
    except ValueError as exc:
        raise ParseError(f"normsim {args.command}: {exc}") from exc


def cmd_factor(args, rng):
    run = algorithms.factor(args.n, rng, attempts=args.attempts, comb_m=args.comb_m)
    log = {"command": "factor", "n": args.n, "seed": args.seed, **run.log}
    payload = {"n": args.n, "divisor": run.divisor, "attempts": run.attempts, "log": log}
    return payload, [["n", "divisor", "attempts"], [args.n, run.divisor, run.attempts]], log


def cmd_dlog(args, rng):
    run = algorithms.discrete_log(
        args.p, args.a, args.b, rng, repetitions=args.repetitions, cap=args.cap
    )
    log = {"command": "dlog", "seed": args.seed, **run.log}
    payload = {"p": args.p, "a": args.a, "b": args.b, "s": run.exponent, "log": log}
    return payload, [["p", "a", "b", "s"], [args.p, args.a, args.b, run.exponent]], log


def cmd_ecdlog(args, rng):
    curve = EllipticCurveGroup(args.p, args.curve_a, args.curve_b)
    base = _element(args, curve, args.base)
    target = _element(args, curve, args.target)
    run = algorithms.ec_discrete_log(curve, base, target, rng, cap=args.cap)
    log = {"command": "ecdlog", "seed": args.seed, **run.log}
    payload = {"s": run.exponent, "order": run.order, "log": log}
    return payload, [["s", "order"], [run.exponent, run.order]], log


def cmd_order(args, rng):
    grid_size = None
    if args.resolution is not None:
        # Grid spacing at most the requested measurement window.
        try:
            grid_size = 1 << max(4, math.ceil(math.log2(1 / args.resolution)))
        except (ValueError, OverflowError):  # inf, or 1/resolution overflows
            raise ValueError(f"resolution {args.resolution} is out of range") from None
    run = algorithms.find_order(
        ZNStarGroup(args.n), args.a, rng, comb_m=args.comb_m, grid_size=grid_size
    )
    if args.density_out:
        dist = DirichletDistribution(run.order, run.comb_m, 0)
        with open(args.density_out, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "density"])
            writer.writerows(dist.density_rows())
    log = {"command": "order", "seed": args.seed, **run.log}
    payload = {"n": args.n, "a": args.a, "order": run.order, "log": log}
    return payload, [["n", "a", "order"], [args.n, args.a, run.order]], log


def cmd_decompose(args, rng):
    kind, names = {"zn_star": (ZNStarGroup, "N"), "ec": (EllipticCurveGroup, "p a b")}[args.kind]
    if len(args.params) != len(names.split()):
        raise ParseError(
            f"normsim decompose: {args.kind} takes {names}, got {len(args.params)} values"
        )
    group = kind(*args.params)
    sampled = not args.gens
    if sampled:
        generators = group.sample_generators(rng)
    elif args.kind == "zn_star":
        generators = _ints(args, "--gens", args.gens)
    else:
        generators = [_element(args, group, g) for g in args.gens.split(";")]
    run = algorithms.decompose_group(group, generators, rng, cap=args.cap)
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
        "beta": [_format_bb_element(group, b) for b in table.beta],
        "A": table.a,
        "B": table.b,
        "log": log,
    }
    rows = [["isomorphism_type", type_text], ["orders", *table.c]]
    rows += [["A"], *[[*row] for row in table.a], ["B"], *[[*row] for row in table.b]]
    return payload, rows, log


def cmd_hsp(args, rng):
    domain = cyclic_group(*_ints(args, "moduli", args.moduli))
    gens = []
    if args.subgroup.strip():
        for part in args.subgroup.split(";"):
            gens.append(domain.reduce(_ints(args, "subgroup generators", part)))
    subgroup = algorithms.HSPRun(domain, gens).subgroup_elements()
    labels = {}
    names = {}
    for el in domain.elements():
        coset = frozenset(el + h for h in subgroup)
        names.setdefault(coset, f"c{len(names)}")
        labels[el.coords] = names[coset]
    instance = algorithms.HSPInstance(group=domain, oracle=lambda coords: labels[tuple(coords)])
    run = algorithms.solve_hsp(instance, rng, cap=args.cap)
    log = {"command": "hsp", "seed": args.seed, **run.log}
    recovered = [str(g) for g in run.generators]
    return {"generators": recovered, "log": log}, [["generator"], *[[g] for g in recovered]], log


def cmd_run(args, rng):
    circuit = _load_circuit(args.circuit)
    basis = circuit.initial_basis
    if args.input is not None:
        point = _input_point(args.input, basis)
    else:
        zeros = [0] * len(basis.elementary.factors)
        point = tuple(zeros) + ((basis.blackbox.identity(),) if basis.blackbox else ())
    if args.engine == "coset":
        element = basis.elementary.reduce(point[: len(basis.elementary.factors)])
        counts = coset_run(circuit, element).sample(args.shots, rng)
    else:
        counts = dense_sample(dense_run(circuit, point, cap=args.cap), args.shots, rng)
    histogram = {circuit.final_basis.format_point(pt): count for pt, count in counts.items()}
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
    return {"histogram": histogram, "shots": total, "log": log}, rows, log


def cmd_deblackbox(args, rng):
    circuit = _load_circuit(args.circuit)
    result = deblackbox_circuit(circuit, rng=rng)
    if args.circuit_out:
        save_circuit(result.circuit, args.circuit_out)
    log = {"command": "deblackbox", "seed": args.seed, "provenance": result.provenance}
    doc = circuit_to_json(result.circuit)
    return {"circuit": doc, "provenance": result.provenance, "log": log}, None, log


def cmd_check_modexp(args, rng):
    group = ZNStarGroup(args.n)
    generators = group.sample_generators(rng)
    ok, rep = check_modexp_normalizable(args.m, args.a, group, generators)
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
    return payload, [["normalizable"], [ok]], log


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


def _fail(exc: Exception | str, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, message in POSITIVE:
            value = getattr(args, name, None)
            if value is not None and not value > 0:  # NaN fails too
                raise ValueError(message)
        payload, csv_rows, log = COMMANDS[args.command](args, np.random.default_rng(args.seed))
        _emit(args, payload, csv_rows)
        _emit_log(args, log)
    except ParseError as exc:
        return _fail(exc, EXIT_PARSE)
    except OSError as exc:  # an output file that cannot be written
        return _fail(f"normsim: {exc.strerror}: {exc.filename}", EXIT_PARSE)
    except algorithms.AttemptsExhausted as exc:
        return _fail(exc, EXIT_EXHAUSTED)
    except (ValueError, algorithms.AlgorithmError) as exc:
        return _fail(exc, EXIT_PRECONDITION)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
