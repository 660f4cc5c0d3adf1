"""normsim benchmark: one workload, seeded, timed, checked.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Run from the repository root. Each workload runs in fresh processes with
one BLAS/OpenMP thread and NORMSIM_CAP unset. With --trace 0 the last line
of output is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run over the same instances as an
untraced run, plus the tracing overhead. A human-readable table comes first.
Full results (and spans, when traced) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# The timed loop is split over fresh processes; each reports its set-up time
# and peak memory, and setup_s and peak_rss_mb are medians over processes
# (plus set-up-only probes), so one process's luck does not set them.
RUN_PROCESSES = 3
SETUP_PROBES = 2
# Times are reported in reference-speed seconds: wall time scaled by
# REFERENCE_S over the time of worker.reference_seconds() measured around it.
# The 2-vCPU Intel Xeon host this was written on switches every few seconds
# between two speeds about 1.5x apart (neighbouring load), and raw wall times
# of whole runs of the same code differed by up to 1.7x. Raw figures are kept
# in the result record.
REFERENCE_S = 0.002
DEADLINE_S = 175.0  # the whole command ends within 180 s
BULKY = ("times", "references", "oracle_calls", "keys")  # per-instance lists, left out of the record


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NORMSIM_CAP", None)  # _exponent_kernel picks its route from the cap
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence oracle counts, repeat exactly
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, mode: str, tag: str, *, trace: int = 0, seconds: float = 0.0,
            passes: int = 0, first_pass: int = 0, deadline: float, share: float = 1.0) -> dict:
    """Run worker.py once. The worker stops starting instances once `share`
    of the time left before `deadline` (less a margin) has gone, so a much
    slower program still ends inside the benchmark's time limit."""
    result = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{tag}.json")
    left = deadline - time.monotonic()
    hard_stop = max(1.0, (left - 15.0) * share)
    command = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--seconds", str(seconds), "--passes", str(passes),
               "--first-pass", str(first_pass),
               "--trace", str(trace), "--hard-stop", f"{hard_stop:.1f}", "--result", result]
    if trace:
        command += ["--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")]
    if os.path.exists(result):
        os.remove(result)
    timeout = max(1.0, left)
    # subprocess.run kills and reaps the child if it overruns.
    done = subprocess.run(command, env=_child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL)
    if done.returncode != 0 or not os.path.exists(result):
        raise SystemExit(f"worker {mode} exited with code {done.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _scaled(runs: list[dict]) -> list[float]:
    """Instance times in reference-speed seconds."""
    return [t * REFERENCE_S / ref for run in runs for t, ref in zip(run["times"], run["references"])]


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile (q = 5 median, q = 9 the 90th percentile)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _end_to_end(args, deadline: float) -> tuple[dict, dict]:
    probes = [_worker(args, "setup", f"setup{i}", deadline=deadline) for i in range(SETUP_PROBES)]
    runs = []
    for i in range(RUN_PROCESSES):
        share = 1.0 / (RUN_PROCESSES - i)
        runs.append(_worker(args, "run", f"run{i}", seconds=args.seconds / RUN_PROCESSES,
                            first_pass=1000 * i, deadline=deadline, share=share))
    raw_setups = [probe["setup_s"] for probe in probes + runs]
    setups = [probe["setup_s"] * REFERENCE_S / probe["setup_reference_s"] for probe in probes + runs]
    raw_times = [t for run in runs for t in run["times"]]
    times = _scaled(runs)
    oracle_calls = [q for run in runs for q in run["oracle_calls"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    values = {
        "setup_s": statistics.median(setups),
        "instances_per_s": (attempted - failed) / sum(times),
        "instance_s_p50": _quantile(times, 5),
        "instance_s_p90": _quantile(times, 9),
        "oracle_calls_per_instance": sum(oracle_calls) / attempted,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    details = {
        "setup_samples_s": setups,
        "raw_wall": {
            "setup_s": statistics.median(raw_setups),
            "instances_per_s": (attempted - failed) / sum(raw_times),
            "instance_s_p50": _quantile(raw_times, 5),
            "instance_s_p90": _quantile(raw_times, 9),
        },
        "samples": len(times),
        "beyond_p90": sum(1 for t in times if t > values["instance_s_p90"]),
        "failed_ratio": failed / attempted,
        "runs": [{k: v for k, v in run.items() if k not in BULKY} for run in runs],
    }
    return values, {"attempted": attempted, "failed": failed, **details}


def _per_layer(args, deadline: float) -> tuple[dict, dict]:
    # Untraced first, for the overhead baseline; then exactly the same passes traced.
    plain = _worker(args, "run", "untraced", seconds=args.seconds / 2, deadline=deadline, share=0.25)
    traced = _worker(args, "run", "traced", trace=1, passes=plain["passes"], deadline=deadline)
    plain_times = dict(zip(plain["keys"], _scaled([plain])))
    common = [(t, plain_times[k]) for k, t in zip(traced["keys"], _scaled([traced])) if k in plain_times]
    # Per-layer times come from the traced process alone; put them in
    # reference-speed seconds with that process's mean scale.
    scale = sum(_scaled([traced])) / sum(traced["times"])
    values = {name: value * scale if name.endswith("_s") else value
              for name, value in traced["layers"].items()}
    values["trace.overhead_s"] = sum(t - p for t, p in common)
    values["trace.untraced_s"] = sum(p for _, p in common)
    values["trace.instances"] = len(common)
    details = {
        "untraced": {k: v for k, v in plain.items() if k not in BULKY},
        "traced": {k: v for k, v in traced.items() if k not in BULKY + ("layers",)},
    }
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return values, {"attempted": attempted, "failed": failed, **details}


def _environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "normsim", "__init__.py")):
        sys.stderr.write(f"no normsim sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            values, details = _per_layer(args, deadline)
            wanted = PER_LAYER
        else:
            values, details = _end_to_end(args, deadline)
            wanted = END_TO_END
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark overran its time limit\n")
        return 4
    except SystemExit as exc:
        sys.stderr.write(f"{exc}\n")
        return 5

    env = _environment(args)
    record = {"environment": env, "values": values, **details}
    tag = "trace" if args.trace else "e2e"
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-{tag}-result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"normsim benchmark: workload={args.workload} seed={args.seed} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")
    print(f"instances: attempted={details['attempted']} failed={details['failed']}"
          + (f" failed_ratio={details['failed_ratio']:.4f} p90 samples={details['samples']}"
             f" beyond_p90={details['beyond_p90']}" if not args.trace else ""))
    for name, unit, _ in wanted:
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':40s} {details['failed_ratio']:>16.6g} ratio")
        print(f"  times above are reference-speed seconds (REFERENCE_S = {REFERENCE_S} s); raw wall time: "
              + ", ".join(f"{k}={v:.6g}" for k, v in details["raw_wall"].items()))
    if args.trace:
        print(f"  tracing overhead: {values['trace.overhead_s']:.3f} s over "
              f"{values['trace.untraced_s']:.3f} s untraced ({values['trace.instances']} instances)")
    for part in details.get("runs", []) + [details.get("untraced", {}), details.get("traced", {})]:
        for failure in part.get("failures", [])[:5]:
            print(f"  FAILED {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in wanted}
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
