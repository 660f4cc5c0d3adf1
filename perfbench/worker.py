"""One workload in one fresh process: set up, run passes, check, report.

Started by run.py; not meant to be run by hand. Set-up time counts from the
first statement below, before numpy or normsim is imported.

Between instances, at most every REFERENCE_INTERVAL_S, the worker times a
fixed reference kernel. run.py divides each instance's wall time by the
kernel times taken around it, because the host's speed swings by about 1.5x
for seconds at a time (see README.md).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_INTERVAL_S = 0.25


def reference_seconds() -> float:
    """Fastest of three timings of a fixed kernel shaped like normsim's work:
    exact Fraction arithmetic and dict updates, then a numpy array pass."""
    from fractions import Fraction

    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(120):
            f = Fraction(i % 7, 11) + Fraction(3, i + 1)
            acc = (acc + f * f) % 1
            table[(i % 13, i % 5)] = acc
        x = np.arange(8192) / 8192.0
        np.cumsum(np.sin(np.pi * 37 * x) ** 2)
        best = min(best, time.perf_counter() - start)
    return best


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0, help="exact pass count; 0 means time-bounded")
    parser.add_argument("--first-pass", type=int, default=0, help="index of the first pass drawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hard-stop", type=float, default=100.0,
                        help="start no instance after this many seconds of the loop")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    return parser.parse_args()


def main() -> int:
    args = _parse()  # run.py has pinned the thread counts and unset NORMSIM_CAP
    sys.path.insert(0, SRC)

    import normsim
    import normsim.cli  # noqa: F401  (bound before tracing so its imports are wrapped)
    from normsim import blackbox

    if not os.path.abspath(normsim.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"normsim imported from {normsim.__file__}, not from {SRC}\n")
        return 3

    import tracing
    import workloads

    registry = tracing.CounterRegistry()
    registry.install(blackbox)
    scratch = os.path.join(os.path.dirname(args.result), f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        first = workloads.build_plan(args.workload, args.seed, args.first_pass, scratch)
        setup_s = time.perf_counter() - T0
        setup_reference_s = reference_seconds()
        if args.mode == "setup":
            _write(args.result, {"setup_s": setup_s, "setup_reference_s": setup_reference_s})
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(registry)
            tracer.install()

        def plans(pass_index):
            if pass_index == args.first_pass:
                return first
            return workloads.build_plan(args.workload, args.seed, pass_index, scratch)

        report = _run(args, plans, registry, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["setup_s"] = setup_s
    report["setup_reference_s"] = setup_reference_s
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics(report["attempted"], sum(report["oracle_calls"]))
        report["tracer_missing"] = tracer.missing
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    _write(args.result, report)
    return 0


def _run(args, plans, registry, tracer) -> dict:
    """Closed loop over passes: each instance starts when the previous ends."""
    import numpy as np

    times, oracle_calls, keys, failures = [], [], [], []
    # references[i] is taken before instances with sample index i; the last
    # one after the loop, so every instance lies between two samples.
    references, sample_index = [], []
    next_reference = 0.0
    loop_start = time.perf_counter()
    done = 0
    stopped = False
    while not stopped:
        elapsed = time.perf_counter() - loop_start
        if args.passes and done >= args.passes:
            break
        # Whole passes only, so every run has the same mix of instances; stop
        # at the pass boundary nearest to --seconds.
        if not args.passes and done > 0 and elapsed + 0.5 * elapsed / done >= args.seconds:
            break
        pass_index = args.first_pass + done
        plan = plans(pass_index)
        for index, instance in enumerate(plan):
            if time.perf_counter() - loop_start > args.hard_stop:
                stopped = True
                break
            if time.perf_counter() >= next_reference:
                references.append(reference_seconds())
                next_reference = time.perf_counter() + REFERENCE_INTERVAL_S
            rng = np.random.default_rng([args.seed, pass_index, index])
            key = f"{pass_index}:{index}"
            registry.clear()
            span = tracer.begin_instance(key) if tracer else None
            error = None
            start = time.perf_counter()
            try:
                result = instance.run(rng)
            except Exception as exc:  # a raising instance is a failure; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if tracer:
                tracer.end_instance(span)
            queries = registry.total()
            if error is None:
                try:
                    instance.check(result)
                except Exception as exc:  # failed checks are counted, not fatal
                    error = f"check {type(exc).__name__}: {exc}"
            times.append(seconds)
            sample_index.append(len(references) - 1)
            oracle_calls.append(queries)
            keys.append(key)
            if error is not None:
                failures.append(f"{instance.kind} {instance.label}: {error}"[:300])
        done += 1
        if done == 1:
            # Peak memory over set-up and one pass: a fixed amount of work, so
            # the figure does not depend on how many passes the time allowed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    references.append(reference_seconds())
    return {
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": done,
        "pass_size": len(plan),
        "loop_s": time.perf_counter() - loop_start,
        "times": times,
        "references": [(references[i] + references[i + 1]) / 2 for i in sample_index],
        "oracle_calls": oracle_calls,
        "keys": keys,
    }


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
