"""Bias-adjustable top-down induction of binary decision trees.

At every node the attribute maximizing (2**gain - 1) / (bias + 1)**omega
is chosen, where `gain` is the plain information gain of the binary split.
A per-feature bias vector plus the two knobs omega (bias strength) and
cf (pruning confidence, in percent) form the genome searched by the
genetic layer.  Pruning is pessimistic leaf-replacement using an exact
binomial upper confidence bound; lower cf prunes harder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .features import FeatureMatrix, FeatureSpec
from .trains import EAST, WEST

B_MAX = 10000.0
CF_MIN, CF_MAX = 1.0, 100.0
ERROR_COST = 1000.0  # fitness price of a 100% training error rate

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class BiasVector:
    """Search genome: one bias weight per feature plus omega and cf."""

    weights: np.ndarray
    omega: float
    cf: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("bias weights must be a 1-d vector")
        if not np.all((w >= 0) & (w <= B_MAX)):  # NaN fails both comparisons
            raise ValueError(f"bias weights must lie in [0, {B_MAX}]")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must lie in [0, 1]")
        if not CF_MIN <= self.cf <= CF_MAX:
            raise ValueError(f"cf must lie in [{CF_MIN}, {CF_MAX}]")


@dataclass(frozen=True)
class Leaf:
    label: str
    n_examples: int = 0


@dataclass(frozen=True)
class Node:
    feature: int
    on_true: "Tree"
    on_false: "Tree"


Tree = Union[Node, Leaf]


@dataclass(frozen=True)
class FitnessReport:
    test_cost: int
    error_count: int
    error_rate: float
    fitness: float


def _entropy(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Binary entropy of `pos` positives out of `n`, elementwise; 0 when n = 0."""
    pos = np.asarray(pos, dtype=float)
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, pos / np.maximum(n, 1), 0.0)
        h = -(np.where(p > 0, p * np.log2(np.maximum(p, 1e-300)), 0.0)
              + np.where(p < 1, (1 - p) * np.log2(np.maximum(1 - p, 1e-300)), 0.0))
    return np.where(n > 0, h, 0.0)


def _entropy_table(n_max: int) -> np.ndarray:
    """`H[n, pos] = _entropy(pos, n)` for 0 <= pos <= n <= n_max; (n_max + 1)**2 floats."""
    n, pos = np.tril_indices(n_max + 1)
    table = np.zeros((n_max + 1, n_max + 1))
    table[n, pos] = _entropy(pos, n)
    return table


def _gains(values: np.ndarray, labels: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Information gain of each feature column over the given examples.

    The counts are integers and the entropies are read from `h` (an
    `_entropy_table` of at least this many examples), so every gain is the
    float `_entropy` would give term for term.
    """
    m = values.shape[0]
    pos = int(np.count_nonzero(labels))
    count = np.min_scalar_type(m)  # exact, and the narrowest sum is the fastest
    n1 = values.sum(axis=0, dtype=count)
    pos1 = values[labels].sum(axis=0, dtype=count)
    n0 = m - n1
    child = (n1 / m) * h[n1, pos1] + (n0 / m) * h[n0, pos - pos1]
    return np.maximum(h[m, pos] - child, 0.0)


def selection_criterion(gain, bias, omega: float):
    """Cost-sensitive attribute score: (2**gain - 1) / (bias + 1)**omega."""
    return (np.power(2.0, gain) - 1.0) / np.power(np.asarray(bias, dtype=float) + 1.0, omega)


def _majority(pos: int, n: int) -> str:
    # ties label east, for determinism
    return EAST if pos >= n - pos else WEST


class InductionMemo:
    """Work that the trees induced over one matrix in one evolve run share.

    Each entry depends on its key alone, never on the genome being induced:
    - `entropy`: the `_entropy_table` of the matrix's size;
    - `splits`: for each example subset (its index bytes), the features
      whose gain exceeds `_GAIN_EPS` there, as small unsigned indices, and
      their gains;
    - `bounds`: the pruning bound of each `(errors, n, cf)`;
    - `fitness`: the `FitnessReport` of each tree signature; `ga.evaluate_individual`
      fills it, under the one cost vector and error cost of its run.
    """

    def __init__(self, matrix: FeatureMatrix):
        self.matrix = matrix
        self.entropy = _entropy_table(matrix.n_trains)
        self.splits: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.bounds: dict[tuple[int, int, float], float] = {}
        self.fitness: dict = {}
        self._index = np.min_scalar_type(max(matrix.n_features - 1, 0))

    def candidates(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(features with gain > _GAIN_EPS over the examples idx, their gains)."""
        key = idx.tobytes()
        found = self.splits.get(key)
        if found is None:
            y = self.matrix.labels[idx]
            gains = np.zeros(self.matrix.n_features)
            if 0 < np.count_nonzero(y) < idx.size:  # a pure subset has no gain
                gains = _gains(self.matrix.values[idx], y, self.entropy)
            # a feature already tested on the path is constant here, so its gain is 0
            cand = np.flatnonzero(gains > _GAIN_EPS)
            found = self.splits[key] = (cand.astype(self._index), gains[cand])
        return found


def _grow(idx, weights, omega, memo):
    cand, gains = memo.candidates(idx)
    if not cand.size:
        return Leaf(_majority(int(np.count_nonzero(memo.matrix.labels[idx])), idx.size), idx.size)
    # every candidate's score is finite and positive, so this is the argmax
    # over all features with the non-candidates scored -inf
    best = int(cand[np.argmax(selection_criterion(gains, weights[cand], omega))])
    col = memo.matrix.values[idx, best]
    return Node(best, _grow(idx[col], weights, omega, memo), _grow(idx[~col], weights, omega, memo))


def induce_tree(matrix: FeatureMatrix, bias: BiasVector, memo: InductionMemo | None = None) -> Tree:
    """Grow a tree under the given bias, then prune it at bias.cf.

    `memo` must belong to `matrix`: `ga.evolve` shares one across its run;
    by default each call starts a fresh one.
    """
    if matrix.n_trains == 0:
        raise ValueError("matrix must contain at least one example")
    if bias.weights.size != matrix.n_features:
        raise ValueError(
            f"bias has {bias.weights.size} weights for {matrix.n_features} features"
        )
    if memo is None:
        memo = InductionMemo(matrix)
    elif memo.matrix is not matrix:
        raise ValueError("memo belongs to another feature matrix")
    tree = _grow(np.arange(matrix.n_trains), bias.weights, bias.omega, memo)
    return prune(tree, bias.cf, matrix, memo)


def pessimistic_upper_bound(errors: int, n: int, cf: float) -> float:
    """Exact binomial upper confidence bound on the true error rate.

    Returns the p with P(X <= errors | n, p) = cf/100; smaller cf gives a
    larger (more pessimistic) bound.
    """
    if n == 0:
        return 0.0
    if errors >= n:
        return 1.0
    # the beta quantile; scipy.special has it without importing scipy.stats
    # (~1 s), and is itself imported only here, as the commands that never
    # prune need no part of scipy
    from scipy.special import betaincinv

    return float(betaincinv(errors + 1, n - errors, 1.0 - cf / 100.0))


def _bound(errors: int, n: int, cf: float, bounds: dict) -> float:
    key = (errors, n, cf)
    found = bounds.get(key)
    if found is None:
        found = bounds[key] = pessimistic_upper_bound(errors, n, cf)
    return found


def _prune(node, cf, values, labels, idx, bounds):
    """Returns (pruned subtree, pessimistic error estimate over idx)."""
    n = idx.size
    pos = int(np.count_nonzero(labels[idx]))
    if isinstance(node, Leaf):
        errors = n - pos if node.label == EAST else pos
        return Leaf(node.label, n), n * _bound(errors, n, cf, bounds)
    if n == 0:
        return node, 0.0
    col = values[idx, node.feature]
    on_true, est_t = _prune(node.on_true, cf, values, labels, idx[col], bounds)
    on_false, est_f = _prune(node.on_false, cf, values, labels, idx[~col], bounds)
    subtree_est = est_t + est_f
    # the majority label errs on the minority
    leaf_est = n * _bound(min(pos, n - pos), n, cf, bounds)
    if leaf_est < subtree_est:
        return Leaf(_majority(pos, n), n), leaf_est
    return Node(node.feature, on_true, on_false), subtree_est


def prune(tree: Tree, cf: float, matrix: FeatureMatrix, memo: InductionMemo | None = None) -> Tree:
    """Pessimistic leaf-replacement pruning at confidence level cf (percent)."""
    if not CF_MIN <= cf <= CF_MAX:
        raise ValueError(f"cf must lie in [{CF_MIN}, {CF_MAX}]")
    bounds = {} if memo is None else memo.bounds
    idx = np.arange(matrix.n_trains)
    pruned, _ = _prune(tree, cf, matrix.values, matrix.labels, idx, bounds)
    return pruned


def predict_all(tree: Tree, matrix: FeatureMatrix) -> np.ndarray:
    """Boolean predictions (True = east) for every row of the matrix."""
    predictions = np.empty(matrix.n_trains, dtype=bool)
    for i, row in enumerate(matrix.values):
        node = tree
        while isinstance(node, Node):
            node = node.on_true if row[node.feature] else node.on_false
        predictions[i] = node.label == EAST
    return predictions


def internal_nodes(tree: Tree) -> list[Node]:
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            out.append(node)
            stack.append(node.on_false)
            stack.append(node.on_true)
    return out


def node_count(tree: Tree) -> int:
    """Total number of nodes, internal plus leaves."""
    if isinstance(node := tree, Leaf):
        return 1
    return 1 + node_count(node.on_true) + node_count(node.on_false)


def test_cost(tree: Tree, costs: np.ndarray) -> int:
    """Sum of feature costs over all internal nodes, one per node."""
    return int(sum(costs[n.feature] for n in internal_nodes(tree)))


def fitness(
    tree: Tree,
    matrix: FeatureMatrix,
    costs: np.ndarray,
    error_cost: float = ERROR_COST,
) -> FitnessReport:
    """Score a tree: static test cost plus error_rate * error_cost."""
    predictions = predict_all(tree, matrix)
    errors = int((predictions != matrix.labels).sum())
    rate = errors / matrix.n_trains if matrix.n_trains else 0.0
    cost = test_cost(tree, costs)
    return FitnessReport(
        test_cost=cost,
        error_count=errors,
        error_rate=rate,
        fitness=cost + rate * error_cost,
    )


def tree_signature(tree: Tree):
    """Hashable structural key (feature indices and leaf labels only)."""
    if isinstance(tree, Leaf):
        return tree.label
    return (tree.feature, tree_signature(tree.on_true), tree_signature(tree.on_false))


def tree_to_dict(tree: Tree, table: Sequence[FeatureSpec]) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": tree.label, "n": tree.n_examples}
    spec = table[tree.feature]
    return {
        "feature": spec.name,
        "cost": spec.cost,
        "yes": tree_to_dict(tree.on_true, table),
        "no": tree_to_dict(tree.on_false, table),
    }


def tree_from_dict(data: dict, table: Sequence[FeatureSpec]) -> Tree:
    by_name = {s.name: s.index for s in table}

    def build(node: dict) -> Tree:
        if "leaf" in node:
            return Leaf(node["leaf"], node.get("n", 0))
        return Node(by_name[node["feature"]], build(node["yes"]), build(node["no"]))

    return build(data)


def tree_to_json(tree: Tree, table: Sequence[FeatureSpec]) -> str:
    return json.dumps(tree_to_dict(tree, table), indent=2) + "\n"
