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

from .features import FeatureMatrix, FeatureSpec, pack_columns
from .trains import EAST, WEST

B_MAX = 10000.0
CF_MIN, CF_MAX = 1.0, 100.0
OMEGA_MIN, OMEGA_MAX = 0.0, 1.0
ERROR_COST = 1000.0  # fitness price of a 100% training error rate

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class BiasVector:
    """Search genome: one bias weight per feature plus omega and cf.  Raises
    ValueError for a value out of its range, naming omega or cf when either
    is not a number."""

    weights: np.ndarray
    omega: float
    cf: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("bias weights must be a 1-d vector")
        if w.size and not (w.min() >= 0 and w.max() <= B_MAX):  # NaN fails both comparisons
            raise ValueError(f"bias weights must lie in [0, {B_MAX}]")
        if not _within("omega", self.omega, OMEGA_MIN, OMEGA_MAX):
            raise ValueError(f"omega must lie in [{OMEGA_MIN:g}, {OMEGA_MAX:g}]")
        if not _within("cf", self.cf, CF_MIN, CF_MAX):
            raise ValueError(f"cf must lie in [{CF_MIN}, {CF_MAX}]")


def _within(name: str, value, low: float, high: float) -> bool:
    """Whether low <= value <= high; a ValueError naming `name` when `value`
    does not compare with numbers (a string, None)."""
    try:
        return low <= value <= high
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


@dataclass(frozen=True, slots=True)
class Leaf:
    label: str  # EAST or WEST, checked when the leaf is built, never when a tree is walked
    n_examples: int = 0

    def __post_init__(self):
        if self.label not in (EAST, WEST):
            raise ValueError(f"leaf label must be {EAST!r} or {WEST!r}, got {self.label!r}")
        if type(self.n_examples) is not int or self.n_examples < 0:
            raise ValueError(f"leaf n_examples must be an integer >= 0, got {self.n_examples!r}")


@dataclass(frozen=True, slots=True)
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


def _entropy_table(n_max: int) -> np.ndarray:
    """`H[n, pos]`, the binary entropy of pos positives out of n, for 0 <= pos <= n <= n_max;
    (n_max + 1)**2 floats, 0 where n = 0 or the split is pure (pos = 0 or pos = n)."""
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(2, n_max + 1):  # row by row, so the table is the build's only large array
        p = np.arange(1, n) / n
        table[n, 1:n] = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    return table


class EntropyTableMemoryError(MemoryError):
    """Out of memory for the `_entropy_table` of a matrix of `n_trains` rows."""

    def __init__(self, n_trains: int):
        mib = (n_trains + 1) ** 2 * 8 / 2**20
        super().__init__(f"{n_trains} trains need an entropy table of {mib:,.1f} MiB")


def _gains(m: int, pos: int, n1: np.ndarray, pos1: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Information gain of each feature over a subset of m examples, pos of them east.

    `n1` and `pos1` count, per feature, the subset's examples and east examples
    the feature holds for. The counts are integers and the entropies are read
    from `h` (an `_entropy_table` of at least m examples), so every gain is the
    float the entropy formula gives from the float counts, term for term.
    """
    flat, width = h.ravel(), np.intp(h.shape[1])  # a flat take reads the floats h[n, pos] would
    at1 = n1 * width + pos1  # h[n1, pos1]
    n0 = m - n1
    child = (n1 / m) * flat.take(at1) + (n0 / m) * flat.take((m * width + pos) - at1)  # h[n0, pos - pos1]
    return np.maximum(h[m, pos] - child, 0.0)


def selection_criterion(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Score (2**gain - 1) / (bias + 1)**omega: `num` per example subset, `den` per genome."""
    return num / den


def _majority(pos: int, n: int) -> str:
    # ties label east, for determinism
    return EAST if pos >= n - pos else WEST


class InductionMemo:
    """Work that the trees induced over one matrix in one evolve run share.

    An example subset is an int bitset, bit i standing for matrix row i.
    Each entry depends on its key alone, never on the genome being induced.
    A tree or cost-vector object is a key only while its entry holds it, so
    its `id` cannot be reused:
    - `east`, `cols`, `everyone`: the east rows, each feature's true rows and
      all rows of the matrix, packed by `features.pack_columns`;
    - `words`: the same columns cut into 64-bit words, shape
      `(ceil(N / 64), F)`: bit i of word k of feature f is row 64k + i, and the
      bits past row N - 1 are 0. `candidates` counts a subset's rows in every
      column at once with popcounts of these words;
    - `entropy`: the `_entropy_table` of the matrix's size, built at the first
      impure subset `candidates` meets, so pruning alone never builds it; a
      `MemoryError` while it is built is an `EntropyTableMemoryError`;
    - `splits`: for each example subset, the features whose gain exceeds
      `_GAIN_EPS` there, as small unsigned indices, and their score
      numerators `2**gain - 1`; every pure subset shares one empty entry.
      Only the entries read in this generation or the previous one are
      kept (`next_generation`); a dropped entry is recomputed, to the bit,
      if it is needed again;
    - `leaves`: the majority `Leaf` of each example subset, counted over it;
      leaves are immutable, so every tree grown or pruned to one shares it;
    - `nodes`: the one `Node` of each feature over two child objects, so
      that, with the shared leaves, two trees `_grow` and `_prune` build
      from the root subset are equal in signature only if they are the same
      object;
    - `pruned`: `prune`'s result for each tree object and cf;
    - `bounds`: the pruning bound of each `(errors, n, cf)`;
    - `fitness`: the `FitnessReport` of each tree object, cost vector object
      and error cost; `ga.evaluate_individual` fills it.
    """

    def __init__(self, matrix: FeatureMatrix):
        self.matrix = matrix
        self.cols = pack_columns(matrix.values, range(matrix.n_features))
        (self.east,) = pack_columns(matrix.labels[:, None], [0])
        n_words = -(-matrix.n_trains // 64)
        # each column's little-endian bytes, zero-padded to whole words
        packed = b"".join(col.to_bytes(8 * n_words, "little") for col in self.cols)
        self.words = np.ascontiguousarray(np.frombuffer(packed, "<u8").reshape(matrix.n_features, n_words).T)
        self.everyone = (1 << matrix.n_trains) - 1
        self.entropy: np.ndarray | None = None  # (N + 1)**2 floats
        self.splits: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # read this generation
        self._last_splits: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # read only the one before
        self.leaves: dict[int, Leaf] = {}
        self.nodes: dict[tuple[int, int, int], Node] = {}
        self.pruned: dict[tuple[int, float], tuple[Tree, Tree]] = {}
        self.bounds: dict[tuple[int, int, float], float] = {}
        self.fitness: dict[tuple[int, int, float], tuple[Tree, np.ndarray, FitnessReport]] = {}
        self._index = np.min_scalar_type(max(matrix.n_features - 1, 0))
        self._count = np.min_scalar_type(matrix.n_trains)  # exact, and the narrowest sum is the fastest
        self._no_split = (np.empty(0, dtype=self._index), np.empty(0))

    def candidates(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """(features with gain > _GAIN_EPS over the example subset s, their 2**gain - 1)."""
        found = self.splits.get(s)
        if found is None:
            found = self._last_splits.pop(s, None)
        if found is None:
            m = s.bit_count()
            s_east = s & self.east
            pos = s_east.bit_count()
            if 0 < pos < m:
                if self.entropy is None:
                    try:
                        self.entropy = _entropy_table(self.matrix.n_trains)
                    except MemoryError:
                        raise EntropyTableMemoryError(self.matrix.n_trains) from None
                width = 8 * self.words.shape[0]
                rows = np.frombuffer(s.to_bytes(width, "little") + s_east.to_bytes(width, "little"), dtype="<u8")
                n1, pos1 = np.bitwise_count(self.words & rows.reshape(2, -1, 1)).sum(axis=1, dtype=self._count)
                gains = _gains(m, pos, n1, pos1, self.entropy)
                # a feature already tested on the path is constant here, so its gain is 0
                cand = np.flatnonzero(gains > _GAIN_EPS)
                found = (cand.astype(self._index), np.power(2.0, gains[cand]) - 1.0)
            else:  # a pure subset has no gain
                found = self._no_split
        self.splits[s] = found
        return found

    def next_generation(self) -> None:
        """Start a generation: drop the split entries not read in the one that ends."""
        self._last_splits, self.splits = self.splits, {}

    def leaf(self, s: int) -> Leaf:
        """The majority `Leaf` of the example subset s, built once per subset."""
        found = self.leaves.get(s)
        if found is None:
            n = s.bit_count()
            found = self.leaves[s] = Leaf(_majority((s & self.east).bit_count(), n), n)
        return found

    def node(self, feature: int, on_true: Tree, on_false: Tree) -> Node:
        """The `Node` testing `feature` over these two child objects, built once."""
        key = (feature, id(on_true), id(on_false))  # the entry's node holds both children
        found = self.nodes.get(key)
        if found is None:
            found = self.nodes[key] = Node(feature, on_true, on_false)
        return found

    def bound(self, errors: int, n: int, cf: float) -> float:
        """`pessimistic_upper_bound(errors, n, cf)`, computed once per key."""
        key = (errors, n, cf)
        found = self.bounds.get(key)
        if found is None:
            found = self.bounds[key] = pessimistic_upper_bound(errors, n, cf)
        return found


def _check_matrix(matrix) -> None:
    if not isinstance(matrix, FeatureMatrix):
        raise TypeError(f"matrix must be a FeatureMatrix, got {type(matrix).__name__}")


def _check_tree(tree) -> None:
    """Checks the root only: a walk would visit every node on every call."""
    if not isinstance(tree, (Node, Leaf)):
        raise TypeError(f"tree must be a Node or a Leaf, got {type(tree).__name__}")


def _memo_for(matrix: FeatureMatrix, memo: InductionMemo | None) -> InductionMemo:
    """`memo`, checked to belong to `matrix`; a fresh memo when it is None."""
    if memo is None:
        return InductionMemo(matrix)
    if memo.matrix is not matrix:
        raise ValueError("memo belongs to another feature matrix")
    return memo


def _grow(s, den, memo):
    cand, num = memo.splits.get(s) or memo.candidates(s)  # a hit in this generation, in one lookup
    if not cand.size:
        return memo.leaf(s)
    # every candidate's score is finite and positive, so this is the argmax
    # over all features with the non-candidates scored -inf
    best = int(cand[selection_criterion(num, den.take(cand)).argmax()])
    t = s & memo.cols[best]
    return memo.node(best, _grow(t, den, memo), _grow(s ^ t, den, memo))


def induce_tree(matrix: FeatureMatrix, bias: BiasVector, memo: InductionMemo | None = None) -> Tree:
    """Grow a tree under the given bias, then prune it at bias.cf.

    `memo` must belong to `matrix`: `ga.evolve` shares one across its run;
    by default each call starts a fresh one.  Raises TypeError naming `bias`
    or `matrix` unless they are a `BiasVector` and a `FeatureMatrix`.
    """
    if not isinstance(bias, BiasVector):
        raise TypeError(f"bias must be a BiasVector, got {type(bias).__name__}")
    _check_matrix(matrix)
    if matrix.n_trains == 0:
        raise ValueError("matrix must contain at least one example")
    if bias.weights.size != matrix.n_features:
        raise ValueError(
            f"bias has {bias.weights.size} weights for {matrix.n_features} features"
        )
    memo = _memo_for(matrix, memo)
    # the score's denominator depends on the genome alone
    tree = _grow(memo.everyone, np.power(bias.weights + 1.0, bias.omega), memo)
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


def _prune(node, cf, s, memo):
    """Returns (pruned subtree, pessimistic error estimate over the example subset s);
    nodes come from the memo's table, so a subtree of that table whose counts
    and children come out unchanged is returned as is."""
    n = s.bit_count()
    pos = (s & memo.east).bit_count()
    if isinstance(node, Leaf):
        errors = n - pos if node.label == EAST else pos
        est = n * memo.bound(errors, n, cf)
        return (node if node.n_examples == n else Leaf(node.label, n)), est
    t = s & memo.cols[node.feature]
    on_true, est_t = _prune(node.on_true, cf, t, memo)
    on_false, est_f = _prune(node.on_false, cf, s ^ t, memo)
    subtree_est = est_t + est_f
    # the majority label errs on the minority
    leaf_est = n * memo.bound(min(pos, n - pos), n, cf)
    if leaf_est < subtree_est:
        return memo.leaf(s), leaf_est
    return memo.node(node.feature, on_true, on_false), subtree_est


def prune(tree: Tree, cf: float, matrix: FeatureMatrix, memo: InductionMemo | None = None) -> Tree:
    """Pessimistic leaf-replacement pruning at confidence level cf (percent);
    the result is computed once per tree object and cf in the memo.  Raises
    ValueError naming cf for a cf that is not a number in [CF_MIN, CF_MAX],
    and TypeError naming `matrix` unless it is a `FeatureMatrix`.
    Feature indices are not checked, as that would walk every tree on every
    evaluation: one past the columns raises IndexError, and a negative one
    counts from the last column."""
    if not _within("cf", cf, CF_MIN, CF_MAX):
        raise ValueError(f"cf must lie in [{CF_MIN}, {CF_MAX}]")
    _check_matrix(matrix)
    memo = _memo_for(matrix, memo)
    key = (id(tree), cf)
    found = memo.pruned.get(key)
    if found is None:
        found = memo.pruned[key] = (tree, _prune(tree, cf, memo.everyone, memo)[0])
    return found[1]


def _predict(node, values, idx, out):
    if isinstance(node, Leaf):
        out[idx] = node.label == EAST
        return
    col = values[idx, node.feature]
    _predict(node.on_true, values, idx[col], out)
    _predict(node.on_false, values, idx[~col], out)


def predict_all(tree: Tree, matrix: FeatureMatrix) -> np.ndarray:
    """Boolean predictions (True = east) for every row of the matrix; a tree
    feature index past the columns raises IndexError, and a negative one
    counts from the last column.  Raises TypeError naming `matrix` unless it
    is a `FeatureMatrix`, and naming `tree` unless its root is a `Node` or a
    `Leaf`."""
    _check_matrix(matrix)
    _check_tree(tree)
    predictions = np.empty(matrix.n_trains, dtype=bool)
    _predict(tree, matrix.values, np.arange(matrix.n_trains), predictions)
    return predictions


def node_count(tree: Tree) -> int:
    """Total number of nodes, internal plus leaves."""
    if isinstance(node := tree, Leaf):
        return 1
    return 1 + node_count(node.on_true) + node_count(node.on_false)


def test_cost(tree: Tree, costs: np.ndarray) -> int:
    """Sum of feature costs over all internal nodes, one per node; a feature
    index past `costs` raises IndexError, and a negative one counts from its end."""
    if isinstance(tree, Leaf):
        return 0
    return int(costs[tree.feature]) + test_cost(tree.on_true, costs) + test_cost(tree.on_false, costs)


def _errors(node, s, memo):
    """How many rows of the example subset s the tree below node labels wrong."""
    if isinstance(node, Leaf):
        east = (s & memo.east).bit_count()
        return s.bit_count() - east if node.label == EAST else east
    t = s & memo.cols[node.feature]
    return _errors(node.on_true, t, memo) + _errors(node.on_false, s ^ t, memo)


def fitness(
    tree: Tree,
    matrix: FeatureMatrix,
    costs: np.ndarray,
    error_cost: float = ERROR_COST,
    memo: InductionMemo | None = None,
) -> FitnessReport:
    """Score a tree: static test cost plus error_rate * error_cost.  Raises
    ValueError naming `costs` unless they are finite whole numbers >= 0, one
    per feature; `tree` and `matrix` are checked, and feature indices read,
    as in `predict_all`.  The errors are counted on the row sets of `memo`,
    which must belong to `matrix` (ValueError otherwise); by default each
    call starts a fresh one."""
    _check_matrix(matrix)
    if np.shape(costs) != (matrix.n_features,):
        raise ValueError(f"costs has shape {np.shape(costs)}, not one cost per feature ({matrix.n_features})")
    costs = np.asarray(costs)
    whole = costs.dtype.kind in "iu" or np.all(np.isfinite(costs) & (np.floor(costs) == costs))
    if not whole or costs.size and costs.min() < 0:
        raise ValueError("costs must be finite whole numbers >= 0, each the size of a Prolog fragment")
    _check_tree(tree)
    memo = _memo_for(matrix, memo)
    errors = _errors(tree, memo.everyone, memo)
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
    """The tree `tree_to_dict` wrote.  Raises ValueError naming the path of
    a node that is not a dict holding either "leaf" (and an integer "n", if
    any) or "feature", "yes" and "no", or of a leaf whose label is not east
    or west or whose "n" is negative, and for a tree nested too deeply to
    read; KeyError for an unknown feature name (a name that is not a string
    is unknown)."""
    by_name = {s.name: s.index for s in table}

    def build(node, where: str) -> Tree:
        if type(node) is dict and "leaf" in node and type(node.get("n", 0)) is int:
            try:
                return Leaf(node["leaf"], node.get("n", 0))
            except ValueError as exc:
                raise ValueError(f"tree node {where}: {exc}") from None
        if not (type(node) is dict and "leaf" not in node and {"feature", "yes", "no"} <= node.keys()):
            raise ValueError(
                f"tree node {where} is neither a leaf, whose 'n' is an integer, "
                "nor a split with 'feature', 'yes' and 'no'"
            )
        name = node["feature"]
        if type(name) is not str:
            raise KeyError(name)
        return Node(by_name[name], build(node["yes"], where + ".yes"), build(node["no"], where + ".no"))

    try:
        return build(data, "root")
    except RecursionError:
        raise ValueError("the tree is nested too deeply") from None


def tree_to_json(tree: Tree, table: Sequence[FeatureSpec]) -> str:
    return json.dumps(tree_to_dict(tree, table), indent=2) + "\n"
