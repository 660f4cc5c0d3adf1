"""Smoke and self-tests for the benchmark, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Kept out of tests/ so the tier-1 suite neither collects nor waits for it.
"""

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from normsim import algorithms, blackbox  # noqa: E402

# A few instances of each kind, covering both decompose routes.
SMOKE = {
    "decompose": lambda inst: inst.label.split(" ")[0] in ("N=15", "N=51") or inst.label.startswith("Z(4, 4)"),
    "circuits": lambda inst: inst.label in ("Z(2, 6)",) or inst.kind == "deblackbox",
    "shor": lambda inst: inst.label in (
        "N=15", "N=21", "N=33", "N=35", "N=39", "N=45", "N=51", "p=5 a=2 s=3", "curve=(5, 1, 1) s=4",
    ),
}

# Metrics the prediction table says a workload loads but that stay zero there
# by construction, with the reason.
ZERO_BY_DESIGN = {
    ("blackbox.word.calls", "shor"): "factor and the dlog circuits use power and mul, never word",
    ("blackbox.verify.oracle_calls", "shor"): "no decomposition table is verified on shor",
    ("algorithms.retries", "decompose"): "extra HSP batches are rare, so zero is the usual count",
}

# Where the table predicts no effect because the layer is not called at all.
MUST_BE_ZERO = {
    "algorithms.certify_s": ["circuits", "shor"],
    "algorithms.certify.oracle_calls": ["circuits", "shor"],
    "coset.run.calls": ["decompose", "shor"],
    "deblackbox.extract.calls": ["decompose", "shor"],
    "dirichlet.sample.calls": ["circuits"],
    "cli.main.calls": ["decompose", "circuits"],
}


@pytest.fixture
def registry():
    original = blackbox.OracleCounter
    reg = tracing.CounterRegistry()
    reg.install(blackbox)
    yield reg
    blackbox.OracleCounter = original


def _scratch(name: str) -> str:
    path = os.path.join(HERE, "out", f"smoke-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _traced_layers(workload: str, registry) -> dict:
    scratch = _scratch(workload)
    plan = [inst for inst in workloads.build_plan(workload, 0, 0, scratch) if SMOKE[workload](inst)]
    tracer = tracing.Tracer(registry)
    tracer.install()
    try:
        args = Namespace(seed=0, passes=1, first_pass=0, seconds=0.0, hard_stop=60.0)
        report = worker._run(args, lambda _: plan, registry, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    assert report["failed"] == 0, report["failures"]
    assert not tracer.missing
    return tracer.layer_metrics(report["attempted"], sum(report["oracle_calls"]))


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    table_metrics = [name for row in metrics.LAYER_TABLE.values() for name in row["metrics"]]
    assert set(table_metrics) <= {name for name, _, _ in metrics.PER_LAYER}


def test_registered_counter_matches_run_log(registry):
    group = blackbox.ZNStarGroup(15)
    run = algorithms.decompose_group(group, [2, 14], np.random.default_rng(3))
    assert any(counter is group.counter for counter in registry.counters)
    assert group.counter.total == run.log["oracle_calls"]
    # The OracularGroup that solve_hsp induces has a registered counter too.
    assert len(registry.counters) > 1


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_traced_layers_match_prediction_table(workload, registry):
    layers = _traced_layers(workload, registry)
    assert layers["trace.negative_self_spans"] == 0
    for name, _, _ in metrics.PER_LAYER:
        if not name.startswith("trace.overhead") and name not in ("trace.untraced_s", "trace.instances"):
            assert name in layers
    for layer, row in metrics.LAYER_TABLE.items():
        if workload not in row["on"] + row["small"]:
            continue
        for name in row["metrics"]:
            if (name, workload) in ZERO_BY_DESIGN:
                continue
            assert layers[name] > 0, f"{name} is zero on {workload}, which loads {layer}"
    for name, flat in MUST_BE_ZERO.items():
        if workload in flat:
            assert layers[name] == 0, f"{name} = {layers[name]} on {workload}"


def _run_benchmark(cwd: str, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", "circuits", "--seed", "0", "--seconds", "1", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    done = _run_benchmark(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert [(n, result["metrics"][n]["unit"]) for n, _, _ in wanted] == [(n, u) for n, u, _ in wanted]
    if trace == "0":
        assert all(result["metrics"][n]["value"] > 0 for n, _, _ in wanted)


def test_refuses_without_sources():
    bare = _scratch("bare")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _run_benchmark(bare, "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
