"""Span recording around the eastwest layer boundaries, from outside the package.

`Tracer.install()` replaces public module attributes with wrappers that
record one span (name, start, end, parent) per call.  Every caller in the
package looks these names up at call time, so the wrappers see every call.
Spans stay in memory; `layer_metrics` turns one pass's spans into the
per-layer metrics and `Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import eastwest.features
import eastwest.ga
import eastwest.theory
import eastwest.trains
import eastwest.tree

# span name -> (module, attribute) replaced while tracing
HOOKS = {
    "tree.prune": (eastwest.tree, "prune"),
    "tree.pessimistic_upper_bound": (eastwest.tree, "pessimistic_upper_bound"),
    "tree.selection_criterion": (eastwest.tree, "selection_criterion"),
    "ga.evolve": (eastwest.ga, "evolve"),
    "ga.evaluate_individual": (eastwest.ga, "evaluate_individual"),
    "ga.induce_tree": (eastwest.ga, "induce_tree"),
    "ga.fitness": (eastwest.ga, "fitness"),
    "features.build_feature_table": (eastwest.features, "build_feature_table"),
    "features.evaluate_features": (eastwest.features, "evaluate_features"),
    "trains.parse_trains": (eastwest.trains, "parse_trains"),
    "theory.simplify_dnf": (eastwest.theory, "simplify_dnf"),
    "theory.render_program": (eastwest.theory, "render_program"),
    "theory.complexity": (eastwest.theory, "complexity"),
    "theory.agreement": (eastwest.theory, "agreement"),
    "theory.classify": (eastwest.theory, "classify"),
}

# the benchmark's own span around each eastwest.cli.main call
CLI_SPAN = "cli.main"


def _bound_key(args, kwargs, result):
    return args + tuple(sorted(kwargs.items()))  # (errors, n, cf)


def _split_key(args, kwargs, result):
    # the input gain vector, not the scores: the scores also depend on the
    # genome's weights, so every new genome would look like a new split
    return hash(np.asarray(args[0]).tobytes())


def _genome_key(args, kwargs, result):
    bias = args[0]
    return hash((bias.weights.tobytes(), bias.omega, bias.cf))


def _tree_key(args, kwargs, result):
    return eastwest.tree.tree_signature(result[0])


# span name -> {distinct-counter name: key of one call}; the key sets are
# scoped to one evolve run, the lifetime a memo inside the search would have.
# Keys are computed after the span closes, but inside the caller's span, so
# ga.self_s carries the cost of hashing genomes and tree signatures, and
# tree.grow_s that of hashing gain vectors.
DISTINCT_KEYS = {
    "tree.pessimistic_upper_bound": {"bound": _bound_key},
    "tree.selection_criterion": {"split": _split_key},
    "ga.evaluate_individual": {"genomes": _genome_key, "trees": _tree_key},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self.distinct: Counter = Counter()
        self._originals: dict[str, object] = {}

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        for counter, key in DISTINCT_KEYS.get(name, {}).items():
            self._keys[counter].add(key(args, kwargs, result))
        if name == "ga.evolve":
            self.flush_distinct()
        return result

    def flush_distinct(self):
        """Close the current distinct-key scope, adding its sizes to the totals."""
        for counter, keys in self._keys.items():
            self.distinct[counter] += len(keys)
        self._keys.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for name, (module, attr) in HOOKS.items():
            original = getattr(module, attr)
            self._originals[name] = original
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for name, original in self._originals.items():
            module, attr = HOOKS[name]
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_metrics(spans, first, distinct, generations_per_evolve):
    """Per-layer metrics of one pass: the spans from index `first` on.

    `distinct` holds the pass's distinct-key counts.  Times are seconds
    summed over the pass; a span's time includes its children's.
    """
    own = spans[first:]
    calls = Counter(s[0] for s in own)
    total = defaultdict(float)
    child_time = defaultdict(float)  # span index -> time covered by its children
    for name, start, end, parent in own:
        total[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    cli_self = sum(
        (s[2] - s[1]) - child_time[first + i] for i, s in enumerate(own) if s[0] == CLI_SPAN
    )

    evaluations = calls["ga.evaluate_individual"]
    evolves = calls["ga.evolve"]
    return {
        "tree.bound_calls": calls["tree.pessimistic_upper_bound"],
        "tree.bound_distinct": distinct["bound"],
        "tree.bound_s": total["tree.pessimistic_upper_bound"],
        "tree.prune_calls": calls["tree.prune"],
        "tree.prune_s": total["tree.prune"],
        "tree.induce_calls": calls["ga.induce_tree"],
        "tree.induce_s": total["ga.induce_tree"],
        "tree.grow_s": total["ga.induce_tree"] - total["tree.prune"],
        "tree.split_calls": calls["tree.selection_criterion"],
        "tree.split_distinct": distinct["split"],
        "tree.fitness_calls": calls["ga.fitness"],
        "tree.fitness_s": total["ga.fitness"],
        "ga.evaluations": evaluations,
        "ga.distinct_genomes": distinct["genomes"],
        "ga.distinct_trees": distinct["trees"],
        # evaluate_individual calls fitness only when its tree cache misses
        "ga.fitness_cache_hit_ratio": (
            (evaluations - calls["ga.fitness"]) / evaluations if evaluations else 0.0
        ),
        "ga.generation_s": (
            total["ga.evolve"] / (evolves * generations_per_evolve) if evolves else 0.0
        ),
        "ga.self_s": total["ga.evolve"] - total["ga.evaluate_individual"],
        "trains.parse_s": total["trains.parse_trains"],
        "features.table_s": total["features.build_feature_table"],
        "features.evaluate_s": total["features.evaluate_features"],
        "theory.simplify_s": total["theory.simplify_dnf"],
        "theory.render_s": total["theory.render_program"],
        "theory.score_s": total["theory.complexity"],
        "theory.agree_s": total["theory.agreement"],
        "theory.classify_calls": calls["theory.classify"],
        "cli.self_s": cli_self,
    }


def median_metrics(per_pass):
    """Median over passes of each metric."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
