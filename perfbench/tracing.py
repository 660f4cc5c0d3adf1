"""Measure normsim from outside: oracle-call registry, spans and call counts.

Nothing here edits normsim's source. The registry swaps
`normsim.blackbox.OracleCounter` for a subclass that remembers every counter
it creates; `BlackBoxGroup.__init__` looks that name up at call time, so
groups built deep inside `factor`, `discrete_log` or `solve_hsp` are counted
with no extra cost per oracle call.

The tracer replaces public functions and methods with wrappers. Module-level
functions are replaced at every binding site: `normsim.algorithms` and
`normsim.cli` import `dense_run` and friends by name, so patching only the
defining module would miss every call made through those names.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# Calls that open a span, by layer. Entries are "module.attr" or
# "module.Class.method" relative to the normsim package.
SPANS = {
    "linalg": [
        "linalg.smith_normal_form",
        "linalg.invariant_factors",
        "linalg.hermite_reduce",
        "linalg.solve_integer_system",
        "linalg.solve_group_system",
        "linalg.integral_pseudo_inverse",
        "linalg.continued_fraction_reconstruct",
        "linalg.det",
    ],
    "blackbox": [
        "blackbox.bb_order",
        "blackbox.bb_decompose_bruteforce",
        "blackbox.cayley_relations",
        "blackbox.decomposition_from_relations",
        "blackbox.DecompositionTable.verify",
        "blackbox.BlackBoxGroup.sample_generators",
    ],
    "circuits": [
        "circuits.NormalizerCircuit.validate",
        "circuits.validate_matrix_rep",
        "circuits.validate_quadratic",
        "circuits.matrix_rep_inverse",
        "circuits.check_modexp_normalizable",
        "circuits.word_exp_func",
        "circuits.load_circuit",
        "circuits.save_circuit",
    ],
    "dense": ["dense.dense_run", "dense.dense_sample"],
    "coset": [
        "coset.coset_run",
        "coset.CosetPhaseState.dense_amplitudes",
        "coset.states_equal_up_to_global_phase",
    ],
    "dirichlet": [
        "dirichlet.DirichletDistribution.sample",
        "dirichlet.dirichlet_sample",
        "dirichlet.dirichlet_peak_mass",
        "dirichlet.discretization_deviation",
    ],
    "deblackbox": [
        "deblackbox.deblackbox_circuit",
        "deblackbox.extract_matrix_rep",
        "deblackbox.extract_quadratic",
        "deblackbox.extract_hom_matrix",
        "deblackbox.extract_matrix_entries",
        "deblackbox.build_bridge",
    ],
    "algorithms": [
        "algorithms.find_order",
        "algorithms.factor",
        "algorithms.discrete_log",
        "algorithms.ec_discrete_log",
        "algorithms.solve_hsp",
        "algorithms.decompose_group",
        "algorithms.solve_hkp",
        "algorithms.solve_linear_system_bb",
        "algorithms.multivariate_dlog",
        "algorithms.dlog_circuit",
        "algorithms.ec_dlog_circuit",
        "algorithms.hsp_circuit",
        "algorithms.OracularGroup.certify_homomorphism",
    ],
    "cli": ["cli.main"],
}

# Per-element calls: counted, never given a span (a span each would cost more
# than the call it measures).
COUNTS = {
    "groups.reduce": "groups.ElementaryGroup.reduce",
    "groups.add": "groups.GroupElement.__add__",
    "blackbox.power": "blackbox.BlackBoxGroup.power",
    "blackbox.word": "blackbox.BlackBoxGroup.word",
    "circuits.matrix_apply": "circuits.MatrixRep.apply",
    "circuits.quadratic_exponent": "circuits.QuadraticForm.exponent",
}

EXTRACT_CALLS = ("extract_matrix_rep", "extract_quadratic", "extract_hom_matrix")

# Span record layout (lists, not objects, to keep the wrapper cheap).
NAME, LAYER, START, END, PARENT, INSTANCE, Q_START, Q_END = range(8)


class CounterRegistry:
    """Every OracleCounter created after `install`, until the next `clear`."""

    def __init__(self) -> None:
        self.counters: list = []

    def install(self, blackbox_module) -> None:
        registry = self
        base = blackbox_module.OracleCounter

        class RegisteredCounter(base):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                registry.counters.append(self)

        blackbox_module.OracleCounter = RegisteredCounter

    def clear(self) -> None:
        self.counters = []

    def total(self) -> int:
        return sum(c.total for c in self.counters)


def _resolve(package: str, path: str):
    """(owner, attribute, function) for "module.attr" or "module.Class.attr"."""
    parts = path.split(".")
    module = sys.modules.get(f"{package}.{parts[0]}")
    if module is None:
        return None
    owner = module
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        fn = owner.__dict__.get(attr)
    else:
        fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Spans and counts for one traced run, kept in memory until the end."""

    def __init__(self, registry: CounterRegistry, package: str = "normsim") -> None:
        self.registry = registry
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance = None
        self.active = False
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for layer, paths in SPANS.items():
            for path in paths:
                found = _resolve(self.package, path)
                if found is None:
                    self.missing.append(path)
                    continue
                owner, attr, fn = found
                name = path.split(".", 1)[1]
                self._replace(owner, attr, fn, self._span_wrapper(fn, name, layer, hooks.get(name)))
        for key, path in COUNTS.items():
            found = _resolve(self.package, path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr, fn = found
            self._replace(owner, attr, fn, self._count_wrapper(fn, key))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _replace(self, owner, attr, fn, wrapper) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, name, fn))
                    setattr(module, name, wrapper)

    def _count_wrapper(self, fn, key):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn, name, layer, hook):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None and hook[0] is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook[0](bound.arguments)
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None and hook[1] is not None:
                hook[1](args, result)
            return result

        return wrapper

    # -- hooks reading call results ------------------------------------------

    def _hooks(self) -> dict:
        """Per span name: (before, after) callbacks that read arguments or results."""
        counts = self.counts
        dirichlet = sys.modules.get(f"{self.package}.dirichlet")

        def cdf_lookup(arguments):
            cache = getattr(dirichlet, "_CDF_CACHE", None)
            dist = arguments.get("self")
            grid = arguments.get("grid_size")
            if cache is None or dist is None or grid is None:
                return
            counts["dirichlet.cdf_lookups"] += 1
            if (dist.l, grid) in cache:
                counts["dirichlet.cdf_hits"] += 1

        def dense_updates(args, state):
            circuit = args[0]
            gates = len(circuit.gates)
            counts["dense.amplitude_updates"] += state.amplitudes.size * gates
            # One read and one write of the whole state per gate.
            counts["dense.bytes_computed"] += 2 * state.amplitudes.nbytes * gates

        def order_rounds(args, run):
            counts["algorithms.find_order.rounds"] += run.log.get("rounds", 0)

        def factor_retries(args, run):
            counts["algorithms.retries"] += run.attempts - 1

        def hsp_retries(args, run):
            # solve_hsp stops once two consecutive batches agree.
            counts["algorithms.retries"] += max(0, run.log.get("batches", 2) - 2)

        return {
            "DirichletDistribution.sample": (cdf_lookup, None),
            "dense_run": (None, dense_updates),
            "find_order": (None, order_rounds),
            "factor": (None, factor_retries),
            "solve_hsp": (None, hsp_retries),
        }

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        queries = self.registry.total()
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.instance, queries, 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[END] = end
        span[Q_END] = self.registry.total()
        self.stack.pop()

    def begin_instance(self, instance_id: str) -> int:
        self.instance = instance_id
        self.active = True
        return self.open("instance", "bench")

    def end_instance(self, index: int) -> None:
        self.close(index)
        self.active = False
        self.instance = None

    # -- aggregation ------------------------------------------------------------

    def layer_metrics(self, instances: int, oracle_calls: int) -> dict:
        """Per-layer metrics: counts and times per instance; shares, ratios and
        rounds per call as named."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self_time: Counter = Counter()
        negative = 0
        for i, span in enumerate(spans):
            own = span[END] - span[START] - child_time[i]
            if own < -1e-9:
                negative += 1
            self_time[span[LAYER]] += own

        def outermost(i: int, field: int) -> bool:
            """No enclosing span shares this span's name (field NAME) or layer (LAYER)."""
            key = spans[i][field]
            parent = spans[i][PARENT]
            while parent >= 0:
                if spans[parent][field] == key:
                    return False
                parent = spans[parent][PARENT]
            return True

        calls: Counter = Counter(span[NAME] for span in spans)
        layer_calls: Counter = Counter(span[LAYER] for span in spans)
        inclusive: Counter = Counter()
        queries: Counter = Counter()
        layer_queries: Counter = Counter()
        for i, span in enumerate(spans):
            if outermost(i, NAME):
                inclusive[span[NAME]] += span[END] - span[START]
                queries[span[NAME]] += span[Q_END] - span[Q_START]
            if outermost(i, LAYER):
                layer_queries[span[LAYER]] += span[Q_END] - span[Q_START]

        decompositions = [i for i, s in enumerate(spans) if s[NAME] == "decompose_group"]
        dense_routes = 0
        for i in decompositions:
            # The kernel came from the HSP-dense route iff solve_hsp ran inside.
            # Spans are stored in opening order, so descendants of span i are
            # exactly the later spans that open before it closes.
            j = i + 1
            while j < len(spans) and spans[j][START] <= spans[i][END]:
                if spans[j][NAME] == "solve_hsp":
                    dense_routes += 1
                    break
                j += 1

        c = self.counts
        n = max(instances, 1)
        verification = queries["OracularGroup.certify_homomorphism"] + queries["DecompositionTable.verify"]
        return {
            "groups.reduce.calls": c["groups.reduce"] / n,
            "groups.add.calls": c["groups.add"] / n,
            "linalg.calls": layer_calls["linalg"] / n,
            "linalg.self_s": self_time["linalg"] / n,
            "blackbox.oracle_calls": oracle_calls / n,
            "blackbox.power.calls": c["blackbox.power"] / n,
            "blackbox.word.calls": c["blackbox.word"] / n,
            "blackbox.bb_order.calls": calls["bb_order"] / n,
            "blackbox.verify.oracle_calls": queries["DecompositionTable.verify"] / n,
            "blackbox.self_s": self_time["blackbox"] / n,
            "circuits.validate.calls": calls["NormalizerCircuit.validate"] / n,
            "circuits.validate_s": inclusive["NormalizerCircuit.validate"] / n,
            "circuits.matrix_apply.calls": c["circuits.matrix_apply"] / n,
            "circuits.quadratic_exponent.calls": c["circuits.quadratic_exponent"] / n,
            "dense.run.calls": calls["dense_run"] / n,
            "dense.self_s": self_time["dense"] / n,
            "dense.amplitude_updates": c["dense.amplitude_updates"] / n,
            "dense.bytes_computed": c["dense.bytes_computed"] / n,
            "coset.run.calls": calls["coset_run"] / n,
            "coset.self_s": self_time["coset"] / n,
            "coset.expand_s": inclusive["CosetPhaseState.dense_amplitudes"] / n,
            "dirichlet.sample.calls": calls["DirichletDistribution.sample"] / n,
            "dirichlet.self_s": self_time["dirichlet"] / n,
            "dirichlet.cdf_cache_hit_ratio": _ratio(c["dirichlet.cdf_hits"], c["dirichlet.cdf_lookups"]),
            "deblackbox.extract.calls": sum(calls[name] for name in EXTRACT_CALLS) / n,
            "deblackbox.oracle_calls": layer_queries["deblackbox"] / n,
            "deblackbox.self_s": self_time["deblackbox"] / n,
            "algorithms.self_s": self_time["algorithms"] / n,
            "algorithms.certify_s": inclusive["OracularGroup.certify_homomorphism"] / n,
            "algorithms.certify.oracle_calls": queries["OracularGroup.certify_homomorphism"] / n,
            "algorithms.verification_query_share": _ratio(verification, oracle_calls),
            "algorithms.find_order.rounds_per_call": _ratio(c["algorithms.find_order.rounds"], calls["find_order"]),
            "algorithms.dense_route_share": _ratio(dense_routes, len(decompositions)),
            "algorithms.retries": c["algorithms.retries"] / n,
            "cli.main.calls": calls["main"] / n,
            "cli.self_s": self_time["cli"] / n,
            "trace.negative_self_spans": negative,
        }

    def span_records(self):
        for span in self.spans:
            yield {
                "name": span[NAME],
                "layer": span[LAYER],
                "start": span[START],
                "end": span[END],
                "parent": span[PARENT],
                "instance": span[INSTANCE],
                "oracle_calls": span[Q_END] - span[Q_START],
            }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
