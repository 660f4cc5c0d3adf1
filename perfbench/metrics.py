"""Metric names, units and directions, and the layer-to-metric prediction table.

BENCHMARK.json lists the same metrics (with their regression bounds); the
smoke test keeps the two in step.
"""

WORKLOADS = ("decompose", "circuits", "shor")

# (name, unit, better). Taken from untraced runs.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("instance_s_p50", "s", "lower"),
    ("instance_s_p90", "s", "lower"),
    ("oracle_calls_per_instance", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Taken from the traced run; counts and times are per traced instance.
PER_LAYER = [
    ("groups.reduce.calls", "calls/instance", "lower"),
    ("groups.add.calls", "calls/instance", "lower"),
    ("linalg.calls", "calls/instance", "lower"),
    ("linalg.self_s", "s/instance", "lower"),
    ("blackbox.oracle_calls", "calls/instance", "lower"),
    ("blackbox.power.calls", "calls/instance", "lower"),
    ("blackbox.word.calls", "calls/instance", "lower"),
    ("blackbox.bb_order.calls", "calls/instance", "lower"),
    ("blackbox.verify.oracle_calls", "calls/instance", "lower"),
    ("blackbox.self_s", "s/instance", "lower"),
    ("circuits.validate.calls", "calls/instance", "lower"),
    ("circuits.validate_s", "s/instance", "lower"),
    ("circuits.matrix_apply.calls", "calls/instance", "lower"),
    ("circuits.quadratic_exponent.calls", "calls/instance", "lower"),
    ("dense.run.calls", "calls/instance", "lower"),
    ("dense.self_s", "s/instance", "lower"),
    ("dense.amplitude_updates", "updates/instance", "lower"),
    ("dense.bytes_computed", "B/instance", "lower"),
    ("coset.run.calls", "calls/instance", "lower"),
    ("coset.self_s", "s/instance", "lower"),
    ("coset.expand_s", "s/instance", "lower"),
    ("dirichlet.sample.calls", "calls/instance", "lower"),
    ("dirichlet.self_s", "s/instance", "lower"),
    ("dirichlet.cdf_cache_hit_ratio", "ratio", "higher"),
    ("deblackbox.extract.calls", "calls/instance", "lower"),
    ("deblackbox.oracle_calls", "calls/instance", "lower"),
    ("deblackbox.self_s", "s/instance", "lower"),
    ("algorithms.self_s", "s/instance", "lower"),
    ("algorithms.certify_s", "s/instance", "lower"),
    ("algorithms.certify.oracle_calls", "calls/instance", "lower"),
    ("algorithms.verification_query_share", "ratio", "lower"),
    ("algorithms.find_order.rounds_per_call", "rounds/call", "lower"),
    ("algorithms.dense_route_share", "ratio", "higher"),
    ("algorithms.retries", "retries/instance", "lower"),
    ("cli.main.calls", "calls/instance", "lower"),
    ("cli.self_s", "s/instance", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.instances", "count", "higher"),
]

# Written down before measuring: which end-to-end metrics a change to each
# layer should move, on which workloads ("on"), where a small effect is
# expected ("small"), and where the prediction is no change ("flat").
LAYER_TABLE = {
    "groups": {
        "metrics": ["groups.reduce.calls", "groups.add.calls"],
        "should_move": ["instance_s_p90", "instances_per_s"],
        "on": ["decompose", "circuits"], "small": [], "flat": [],
    },
    "linalg": {
        "metrics": ["linalg.calls", "linalg.self_s"],
        "should_move": ["instance_s_p50"],
        "on": ["shor"], "small": [], "flat": ["decompose"],
    },
    "blackbox": {
        "metrics": ["blackbox.oracle_calls", "blackbox.power.calls", "blackbox.word.calls",
                    "blackbox.bb_order.calls", "blackbox.verify.oracle_calls", "blackbox.self_s"],
        "should_move": ["oracle_calls_per_instance", "instance_s_p90"],
        "on": ["decompose", "shor"], "small": [], "flat": ["circuits"],
    },
    "circuits": {
        "metrics": ["circuits.validate.calls", "circuits.validate_s",
                    "circuits.matrix_apply.calls", "circuits.quadratic_exponent.calls"],
        "should_move": ["instances_per_s", "instance_s_p90"],
        "on": ["circuits"], "small": [], "flat": ["shor"],
    },
    "dense": {
        "metrics": ["dense.run.calls", "dense.self_s", "dense.amplitude_updates", "dense.bytes_computed"],
        "should_move": ["instances_per_s", "instance_s_p90", "peak_rss_mb"],
        "on": ["circuits"], "small": ["shor"], "flat": [],
    },
    "coset": {
        "metrics": ["coset.run.calls", "coset.self_s", "coset.expand_s"],
        "should_move": ["instance_s_p50"],
        "on": ["circuits"], "small": [], "flat": ["decompose", "shor"],
    },
    "dirichlet": {
        "metrics": ["dirichlet.sample.calls", "dirichlet.self_s", "dirichlet.cdf_cache_hit_ratio"],
        "should_move": ["instance_s_p50", "instances_per_s"],
        "on": ["shor"], "small": ["decompose"], "flat": ["circuits"],
    },
    "deblackbox": {
        "metrics": ["deblackbox.extract.calls", "deblackbox.oracle_calls", "deblackbox.self_s"],
        "should_move": ["instance_s_p50"],
        "on": ["circuits"], "small": [], "flat": ["decompose", "shor"],
    },
    "algorithms": {
        "metrics": ["algorithms.self_s", "algorithms.certify_s", "algorithms.certify.oracle_calls",
                    "algorithms.verification_query_share", "algorithms.find_order.rounds_per_call",
                    "algorithms.dense_route_share", "algorithms.retries"],
        "should_move": ["instances_per_s", "instance_s_p90", "oracle_calls_per_instance"],
        "on": ["decompose"], "small": [], "flat": ["circuits", "shor"],
    },
    "cli": {
        "metrics": ["cli.main.calls", "cli.self_s"],
        "should_move": ["instance_s_p50", "setup_s"],
        "on": ["shor"], "small": [], "flat": ["decompose", "circuits"],
    },
}
