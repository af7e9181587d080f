import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from eastwest.features import FeatureMatrix, build_feature_table, evaluate_features
from eastwest.trains import random_trains
from eastwest.tree import (
    EAST,
    WEST,
    _GAIN_EPS,
    BiasVector,
    InductionMemo,
    Leaf,
    Node,
    _entropy_table,
    _gains,
    fitness,
    induce_tree,
    internal_nodes,
    node_count,
    pessimistic_upper_bound,
    predict_all,
    prune,
    selection_criterion,
    tree_from_dict,
    tree_signature,
    tree_to_dict,
)
from eastwest.tree import test_cost as static_test_cost

from oracles import (
    binomial_upper_bound,
    float_gains,
    information_gain_oracle,
    selection_score_oracle,
)


def make_matrix(values, labels):
    values = np.array(values, dtype=bool)
    return FeatureMatrix(
        tuple(f"t{i}" for i in range(values.shape[0])),
        values,
        np.array(labels, dtype=bool),
    )


def grow_only_bias(n, weights=None, omega=0.0):
    # cf=100 makes the pessimistic bound vanish, so nothing is ever pruned
    w = np.zeros(n) if weights is None else np.asarray(weights, dtype=float)
    return BiasVector(w, omega, 100.0)


# --- information gain -------------------------------------------------------

def information_gain(matrix, subset, feature):
    """Gain of splitting the `subset` rows of `matrix` on one feature."""
    idx = np.asarray(subset, dtype=int)
    values = matrix.values[idx][:, [feature]]
    return float(_gains(values, matrix.labels[idx], _entropy_table(idx.size))[0])


def test_gain_perfect_split():
    m = make_matrix([[1], [1], [0], [0]], [1, 1, 0, 0])
    assert information_gain(m, [0, 1, 2, 3], 0) == pytest.approx(1.0)


def test_gain_constant_feature_is_zero():
    m = make_matrix([[1], [1], [1], [1]], [1, 1, 0, 0])
    assert information_gain(m, [0, 1, 2, 3], 0) == pytest.approx(0.0)


def test_gain_isolating_one_of_four():
    # 3 east, 1 west; the feature isolates the west example, so the gain is
    # the full parent entropy H(1/4) = 0.8113
    m = make_matrix([[1], [1], [1], [0]], [1, 1, 1, 0])
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert expected == pytest.approx(0.8113, abs=5e-5)
    assert information_gain(m, [0, 1, 2, 3], 0) == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 10))
def test_gain_matches_loop_oracle(seed, n):
    rng = np.random.default_rng(seed)
    column = rng.integers(0, 2, n).astype(bool)
    labels = rng.integers(0, 2, n).astype(bool)
    m = make_matrix(column[:, None], labels)
    assert information_gain(m, list(range(n)), 0) == pytest.approx(
        max(information_gain_oracle(column, labels), 0.0), abs=1e-12
    )


def test_gain_on_subset():
    m = make_matrix([[1], [0], [1], [0]], [1, 0, 0, 0])
    assert information_gain(m, [0, 1], 0) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 8),
    st.sampled_from(["mixed", "all east", "all west"]),
    st.integers(0, 10**6),
)
def test_table_gains_equal_float_gains_bit_for_bit(n, n_features, labelling, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((n, n_features)) < rng.random(n_features)
    values[:, 0] = rng.random() < 0.5  # a constant column
    labels = {
        "mixed": rng.random(n) < 0.5,
        "all east": np.ones(n, dtype=bool),
        "all west": np.zeros(n, dtype=bool),
    }[labelling]
    table = _entropy_table(n)  # one table for the matrix, as a run builds it
    subset = np.sort(rng.permutation(n)[: rng.integers(1, n + 1)])
    for rows in (np.arange(n), subset, subset[:1]):  # m = n, any m, m = 1
        x, y = values[rows], labels[rows]
        want = float_gains(x, y).tobytes()
        assert _gains(x, y, table).tobytes() == want
        assert _gains(x, y, _entropy_table(rows.size)).tobytes() == want  # a table of exactly m


def test_rounding_noise_gain_is_not_a_split():
    # 6 of 15 examples are east, and 2 of the 5 the feature holds: both
    # sides keep the parent's east share, so the true gain is 0, but the
    # float arithmetic leaves a positive gain below _GAIN_EPS
    m = make_matrix(np.arange(15)[:, None] < 5, np.isin(np.arange(15), [0, 1, 5, 6, 7, 8]))
    assert 0 < _gains(m.values, m.labels, _entropy_table(15))[0] <= _GAIN_EPS
    assert induce_tree(m, grow_only_bias(1)) == Leaf(WEST, 15)


# --- selection criterion ----------------------------------------------------

def test_selection_criterion_arithmetic():
    assert selection_criterion(1.0, 0.0, 0.5) == pytest.approx(1.0)
    assert selection_criterion(1.0, 1.0, 1.0) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0, 1), st.floats(0, 10000), st.floats(0, 1)
)
def test_selection_criterion_matches_oracle(gain, bias, omega):
    assert selection_criterion(gain, bias, omega) == pytest.approx(
        selection_score_oracle(gain, bias, omega)
    )


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1), st.floats(0, 10000))
def test_omega_zero_ignores_bias(gain, bias):
    assert selection_criterion(gain, bias, 0.0) == pytest.approx(2.0**gain - 1.0)


def test_selection_criterion_non_increasing_in_bias():
    biases = np.linspace(0, 10000, 50)
    scores = selection_criterion(0.7, biases, 0.8)
    assert np.all(np.diff(scores) <= 1e-15)


# --- growing ----------------------------------------------------------------

def test_perfect_feature_yields_single_test_tree():
    m = make_matrix([[1, 1], [1, 0], [0, 1], [0, 0]], [1, 1, 0, 0])
    tree = induce_tree(m, grow_only_bias(2))
    assert isinstance(tree, Node)
    assert tree.feature == 0
    assert isinstance(tree.on_true, Leaf) and tree.on_true.label == EAST
    assert isinstance(tree.on_false, Leaf) and tree.on_false.label == WEST


def test_all_east_yields_single_leaf():
    m = make_matrix([[1], [0]], [1, 1])
    tree = induce_tree(m, grow_only_bias(1))
    assert tree == Leaf(EAST, 2)
    assert static_test_cost(tree, np.array([5])) == 0


def test_zero_gain_features_never_chosen():
    # no feature has gain; the tree must fall back to a majority leaf
    m = make_matrix([[1, 0], [1, 0], [1, 0]], [1, 1, 0])
    tree = induce_tree(m, grow_only_bias(2))
    assert isinstance(tree, Leaf)
    assert tree.label == EAST


def test_feature_not_reused_on_a_path():
    m = make_matrix(
        [[1, 1], [1, 0], [0, 1], [0, 0]],
        [1, 1, 0, 1],
    )
    tree = induce_tree(m, grow_only_bias(2))
    stack = [(tree, frozenset())]
    while stack:
        current, path = stack.pop()
        if isinstance(current, Node):
            assert current.feature not in path
            stack.append((current.on_true, path | {current.feature}))
            stack.append((current.on_false, path | {current.feature}))
    assert (predict_all(tree, m) == m.labels).all()


def test_bias_steers_root_choice():
    # both features split perfectly; a heavy bias on feature 0 flips the root
    m = make_matrix([[1, 1], [1, 1], [0, 0], [0, 0]], [1, 1, 0, 0])
    unbiased = induce_tree(m, grow_only_bias(2))
    assert unbiased.feature == 0  # tie broken toward the lower index
    biased = induce_tree(m, BiasVector(np.array([5000.0, 0.0]), 1.0, 100.0))
    assert biased.feature == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_omega_zero_makes_weights_irrelevant(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, (10, 6)).astype(bool)
    labels = rng.integers(0, 2, 10).astype(bool)
    m = make_matrix(values, labels)
    base = induce_tree(m, grow_only_bias(6))
    other = induce_tree(m, grow_only_bias(6, weights=rng.uniform(0, 10000, 6)))
    assert tree_signature(base) == tree_signature(other)


def greedy_root_cases(n_cases, seed0):
    for case in range(n_cases):
        rng = np.random.default_rng(seed0 + case)
        n = int(rng.integers(2, 9))
        values = rng.integers(0, 2, (n, 4)).astype(bool)
        labels = rng.integers(0, 2, n).astype(bool)
        weights = rng.uniform(0, 10000, 4)
        omega = float(rng.uniform(0, 1))
        yield make_matrix(values, labels), weights, omega


def expected_root(matrix, weights, omega):
    """Direct enumeration of the selection criterion over all features."""
    best, best_score = None, None
    for j in range(matrix.n_features):
        gain = information_gain_oracle(matrix.values[:, j], matrix.labels)
        if gain <= 1e-12:
            continue
        score = selection_score_oracle(gain, weights[j], omega)
        if best_score is None or score > best_score + 1e-12:
            best, best_score = j, score
    return best


def test_greedy_root_maximizes_selection_criterion():
    for matrix, weights, omega in greedy_root_cases(150, seed0=5000):
        tree = induce_tree(matrix, BiasVector(weights, omega, 100.0))
        want = expected_root(matrix, weights, omega)
        if want is None or matrix.labels.all() or not matrix.labels.any():
            assert isinstance(tree, Leaf)
        else:
            assert isinstance(tree, Node)
            got_gain = information_gain_oracle(
                matrix.values[:, tree.feature], matrix.labels
            )
            got = selection_score_oracle(got_gain, weights[tree.feature], omega)
            want_gain = information_gain_oracle(matrix.values[:, want], matrix.labels)
            assert got == pytest.approx(
                selection_score_oracle(want_gain, weights[want], omega), abs=1e-9
            )


def test_bias_vector_validation():
    with pytest.raises(ValueError):
        BiasVector(np.array([-1.0]), 0.5, 50.0)
    with pytest.raises(ValueError):
        BiasVector(np.array([1.0]), 1.5, 50.0)
    with pytest.raises(ValueError):
        BiasVector(np.array([1.0]), 0.5, 0.0)
    with pytest.raises(ValueError):
        BiasVector(np.array([[1.0]]), 0.5, 50.0)
    with pytest.raises(ValueError):
        BiasVector(np.array([np.nan]), 0.5, 50.0)


def test_induce_validates_inputs():
    m = make_matrix([[1]], [1])
    with pytest.raises(ValueError):
        induce_tree(m, grow_only_bias(3))


def test_induce_rejects_a_memo_of_another_matrix():
    a = make_matrix([[1], [0]], [1, 0])
    b = make_matrix([[1], [0]], [1, 0])
    assert induce_tree(a, grow_only_bias(1), InductionMemo(a)) == induce_tree(a, grow_only_bias(1))
    with pytest.raises(ValueError):
        induce_tree(b, grow_only_bias(1), InductionMemo(a))


# --- pruning ----------------------------------------------------------------

@pytest.mark.parametrize(
    "errors,n,cf",
    [(0, 1, 25), (0, 7, 25), (1, 8, 25), (2, 4, 50), (1, 2, 50), (3, 8, 1), (0, 20, 99), (5, 9, 75)],
)
def test_pessimistic_bound_matches_exact_binomial(errors, n, cf):
    assert pessimistic_upper_bound(errors, n, cf) == pytest.approx(
        binomial_upper_bound(errors, n, cf), abs=1e-9
    )


def test_pessimistic_bound_equals_beta_ppf_exactly():
    rng = np.random.default_rng(0)
    cfs = np.concatenate([[1.0, 100.0], rng.uniform(1.0, 100.0, 10)])
    pairs = [(e, n) for n in [*range(1, 31), 100, 300] for e in range(n)]
    errors, n = (np.array(v) for v in zip(*pairs))
    for cf in cfs:
        want = beta.ppf(1 - cf / 100, errors + 1, n - errors)
        got = [pessimistic_upper_bound(int(e), int(k), float(cf)) for e, k in pairs]
        assert np.array_equal(got, want), cf


def test_pessimistic_bound_edge_cases():
    assert pessimistic_upper_bound(0, 0, 50) == 0.0
    assert pessimistic_upper_bound(3, 3, 50) == 1.0
    # smaller cf (less confidence in the sample) gives a larger bound
    assert pessimistic_upper_bound(1, 10, 5) > pessimistic_upper_bound(1, 10, 95)


def test_useless_split_is_pruned():
    # the split leaves both children at 50% error, so the leaf replacement
    # (with the same error count but a single larger sample) wins
    m = make_matrix([[1], [0], [1], [0]], [1, 1, 0, 0])
    tree = Node(0, Leaf(EAST), Leaf(EAST))
    pruned = prune(tree, 50.0, m)
    assert pruned == Leaf(EAST, 4)
    # and the decision matches the hand-computed bounds
    subtree_est = 2 * binomial_upper_bound(1, 2, 50) * 2
    leaf_est = 4 * binomial_upper_bound(2, 4, 50)
    assert leaf_est < subtree_est


def test_helpful_split_is_kept():
    m = make_matrix([[1], [1], [0], [0]], [1, 1, 0, 0])
    tree = Node(0, Leaf(EAST), Leaf(WEST))
    assert prune(tree, 50.0, m) == Node(0, Leaf(EAST, 2), Leaf(WEST, 2))


def test_single_leaf_unchanged_at_any_cf():
    m = make_matrix([[1], [0]], [1, 0])
    for cf in (1.0, 25.0, 50.0, 99.0, 100.0):
        assert prune(Leaf(EAST), cf, m) == Leaf(EAST, 2)


def test_prune_decision_matches_reference_implementation():
    def reference_prune(node, cf, m, idx):
        y = m.labels[idx]
        if isinstance(node, Leaf):
            errors = int((y != (node.label == EAST)).sum()) if idx.size else 0
            return Leaf(node.label, idx.size), idx.size * binomial_upper_bound(
                errors, idx.size, cf
            )
        if idx.size == 0:
            return node, 0.0
        col = m.values[idx, node.feature]
        on_true, est_t = reference_prune(node.on_true, cf, m, idx[col])
        on_false, est_f = reference_prune(node.on_false, cf, m, idx[~col])
        pos = int(y.sum())
        label = EAST if pos >= y.size - pos else WEST
        errors = int((y != (label == EAST)).sum())
        leaf_est = idx.size * binomial_upper_bound(errors, idx.size, cf)
        if leaf_est < est_t + est_f:
            return Leaf(label, idx.size), leaf_est
        return Node(node.feature, on_true, on_false), est_t + est_f

    for seed in range(20):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2, (12, 5)).astype(bool)
        labels = rng.integers(0, 2, 12).astype(bool)
        m = make_matrix(values, labels)
        grown = induce_tree(m, grow_only_bias(5))
        for cf in (5.0, 30.0, 70.0, 99.0):
            want, _ = reference_prune(grown, cf, m, np.arange(12))
            assert tree_signature(prune(grown, cf, m)) == tree_signature(want)


def test_pruning_monotone_in_cf():
    for seed in range(15):
        rng = np.random.default_rng(100 + seed)
        values = rng.integers(0, 2, (14, 6)).astype(bool)
        labels = rng.integers(0, 2, 14).astype(bool)
        m = make_matrix(values, labels)
        grown = induce_tree(m, grow_only_bias(6))
        assert node_count(prune(grown, 99.0, m)) >= node_count(prune(grown, 1.0, m))


def test_prune_rejects_bad_cf():
    m = make_matrix([[1]], [1])
    with pytest.raises(ValueError):
        prune(Leaf(EAST), 0.5, m)


# --- fitness ----------------------------------------------------------------

def test_majority_leaf_on_balanced_data():
    values = np.zeros((20, 1), dtype=bool)
    labels = np.array([1] * 10 + [0] * 10, dtype=bool)
    m = make_matrix(values, labels)
    report = fitness(Leaf(EAST), m, np.array([5]))
    assert report.test_cost == 0
    assert report.error_count == 10
    assert report.error_rate == pytest.approx(0.5)
    assert report.fitness == pytest.approx(500.0)


def test_fitness_formula_with_one_error_in_twenty():
    values = np.array([[1]] * 10 + [[0]] * 10, dtype=bool)
    labels = np.array([1] * 10 + [0] * 9 + [1], dtype=bool)
    m = make_matrix(values, labels)
    report = fitness(Node(0, Leaf(EAST), Leaf(WEST)), m, np.array([5]))
    assert report.test_cost == 5
    assert report.error_count == 1
    assert report.fitness == pytest.approx(5 + (1 / 20) * 1000)


def test_zero_error_fitness_equals_node_cost_sum(matrix20, costs20, reference_tree):
    report = fitness(reference_tree, matrix20, costs20)
    assert report.error_count == 0
    assert report.fitness == pytest.approx(
        sum(costs20[n.feature] for n in internal_nodes(reference_tree))
    )


def test_error_cost_parameter_scales_errors():
    values = np.zeros((4, 1), dtype=bool)
    m = make_matrix(values, [1, 0, 0, 0])
    report = fitness(Leaf(WEST), m, np.array([5]), error_cost=100.0)
    assert report.fitness == pytest.approx(25.0)


# --- serialization ----------------------------------------------------------

def test_tree_dict_round_trip(reference_tree, full_table):
    data = tree_to_dict(reference_tree, full_table)
    back = tree_from_dict(data, full_table)
    assert tree_signature(back) == tree_signature(reference_tree)
    assert data["feature"] == "short_closed"
    data["no"]["feature"] = "no_such_feature"
    with pytest.raises(KeyError):
        tree_from_dict(data, full_table)


def test_induction_on_real_data_is_consistent(matrix20, costs20):
    tree = induce_tree(matrix20, grow_only_bias(matrix20.n_features))
    report = fitness(tree, matrix20, costs20)
    assert report.error_count == 0  # the dataset is separable
    assert report.fitness == report.test_cost
