import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta

import eastwest.tree as tree_module
from eastwest.features import FeatureMatrix, build_feature_table, evaluate_features
from eastwest.trains import random_trains
from eastwest.tree import (
    B_MAX,
    EAST,
    ERROR_COST,
    WEST,
    _GAIN_EPS,
    BiasVector,
    EntropyTableMemoryError,
    FitnessReport,
    InductionMemo,
    Leaf,
    Node,
    _entropy_table,
    _gains,
    fitness,
    induce_tree,
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
    float_entropy,
    float_gains,
    information_gain_oracle,
    reference_induce,
    reference_predict,
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

def bitset(rows):
    return sum(1 << int(i) for i in rows)


def memo_split(matrix, rows):
    """(candidates, numerators, gains) of a fresh memo's `candidates` over the
    `rows` subset. The gains are every feature's, as the popcount path computes
    them, caught on their way into the numerators (None for a pure subset)."""
    caught = []

    def spy(*args):
        caught.append(_gains(*args))
        return caught[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "_gains", spy)
        cand, num = InductionMemo(matrix).candidates(bitset(rows))
    return cand, num, (caught[0] if caught else None)


def information_gain(matrix, subset, feature):
    """Gain of splitting the `subset` rows of `matrix` on one feature, as the
    memo computes it: 0 unless the feature is a candidate there."""
    cand, _, gains = memo_split(matrix, subset)
    return float(gains[feature]) if feature in cand else 0.0


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
    # one word, several words, and the sizes on either side of a word boundary
    st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 127, 128, 129])),
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
    matrix = make_matrix(values, labels)
    subset = np.sort(rng.permutation(n)[: rng.integers(1, n + 1)])
    for rows in (np.arange(n), subset, subset[:1], subset[-2:]):  # m = n, any m, m = 1, the last rows
        x, y = values[rows], labels[rows]
        m, pos = rows.size, int(y.sum())
        want = float_gains(x, y)
        # counted by word popcounts, with a table of the matrix's size, as a run builds it
        cand, num, gains = memo_split(matrix, rows)
        assert np.array_equal(cand, np.flatnonzero(want > _GAIN_EPS))
        assert num.tobytes() == (np.power(2.0, want[cand]) - 1.0).tobytes()
        if 0 < pos < m:
            assert gains.tobytes() == want.tobytes()
        else:  # a pure subset is never counted, and no feature has a gain there
            assert gains is None and not want.any()
        n1, pos1 = x.sum(axis=0), x[y].sum(axis=0)
        assert _gains(m, pos, n1, pos1, _entropy_table(m)).tobytes() == want.tobytes()  # a table of exactly m


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 63, 64, 65, 300])
def test_entropy_table_matches_float_recipe(n_max):
    table = _entropy_table(n_max)
    assert table.shape == (n_max + 1, n_max + 1)
    n, pos = np.indices(table.shape)
    impure = (0 < pos) & (pos < n)
    assert table[impure].tobytes() == float_entropy(pos[impure], n[impure]).tobytes()
    assert (table[~impure] == 0).all()  # pure (pos = 0 or pos = n) and empty (pos > n); either sign of zero


def test_entropy_table_build_peak():
    # built a row at a time, the table itself is the build's only large array
    tracemalloc.start()
    try:
        table = _entropy_table(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * table.nbytes


def test_a_memo_out_of_memory_for_its_entropy_table_says_how_large_the_table_is(monkeypatch):
    def table(n_max):  # stands in for an allocation too large to make
        raise MemoryError

    monkeypatch.setattr(tree_module, "_entropy_table", table)
    m = make_matrix([[1], [0], [1]], [1, 0, 0])
    with pytest.raises(EntropyTableMemoryError, match=r"^3 trains need an entropy table of 0\.0 MiB$"):
        induce_tree(m, grow_only_bias(1))
    assert issubclass(EntropyTableMemoryError, MemoryError)  # callers that catch MemoryError still do


def test_rounding_noise_gain_is_not_a_split():
    # 6 of 15 examples are east, and 2 of the 5 the feature holds: both
    # sides keep the parent's east share, so the true gain is 0, but the
    # float arithmetic leaves a positive gain below _GAIN_EPS
    m = make_matrix(np.arange(15)[:, None] < 5, np.isin(np.arange(15), [0, 1, 5, 6, 7, 8]))
    n1, pos1 = m.values.sum(axis=0), m.values[m.labels].sum(axis=0)
    assert 0 < _gains(15, 6, n1, pos1, _entropy_table(15))[0] <= _GAIN_EPS
    assert InductionMemo(m).candidates(bitset(range(15)))[0].size == 0
    assert induce_tree(m, grow_only_bias(1)) == Leaf(WEST, 15)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_words_hold_each_column_row_by_row_with_zero_padding(n):
    rng = np.random.default_rng(n)
    values = rng.random((n, 3)) < 0.5
    values[:, 2] = True  # every bit up to row n - 1 set, none past it
    memo = InductionMemo(make_matrix(values, rng.random(n) < 0.5))
    assert memo.words.dtype == np.uint64 and memo.words.shape == (-(-n // 64), 3)
    for f in range(3):
        want = sum(1 << i for i in range(n) if values[i, f])  # bit i is row i
        assert sum(int(w) << (64 * k) for k, w in enumerate(memo.words[:, f])) == want
        assert memo.cols[f] == want


def test_pure_subsets_share_one_empty_entry():
    m = make_matrix([[1, 0], [0, 1], [1, 1], [0, 0]], [1, 1, 0, 0])
    memo = InductionMemo(m)
    east_only, west_only = memo.candidates(0b0011), memo.candidates(0b1100)
    assert east_only is west_only is memo.candidates(0b0001)
    assert east_only[0].size == east_only[1].size == 0
    assert memo.entropy is None  # no impure subset yet, so no gains were computed


def test_a_memo_of_no_trains_has_no_words():
    empty = FeatureMatrix((), np.zeros((0, 2), dtype=bool), np.zeros(0, dtype=bool))
    assert InductionMemo(empty).words.shape == (0, 2)
    assert prune(Leaf(EAST), 50.0, empty) == Leaf(EAST, 0)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_induce_matches_reference_across_word_boundaries(n):
    rng = np.random.default_rng(n)
    values = rng.random((n, 12)) < rng.random(12)
    labels = values[:, 0] ^ (values[:, 1] & values[:, 2]) ^ (rng.random(n) < 0.1)
    m = make_matrix(values, labels)
    memo = InductionMemo(m)
    for cf in (5.0, 25.0, 100.0):
        bias = BiasVector(rng.uniform(0, B_MAX, 12), float(rng.uniform(0, 1)), cf)
        assert induce_tree(m, bias, memo) == reference_induce(m, bias)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_trees_of_one_signature_are_one_object_within_a_memo(n, n_features, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((n, n_features)) < rng.random(n_features)
    # each feature has a twin that splits every subset the same way, so two
    # genomes can build nodes over the same children that differ in feature only
    m = make_matrix(np.concatenate([values, values], axis=1), rng.random(n) < 0.5)
    memo = InductionMemo(m)
    trees = []
    for _ in range(12):
        weights = rng.uniform(0, rng.choice([1.0, B_MAX]), 2 * n_features)
        bias = BiasVector(weights, float(rng.uniform(0, 1)), float(rng.choice([1.0, 25.0, 75.0, 100.0])))
        trees.append(induce_tree(m, bias, memo))
        assert trees[-1] == reference_induce(m, bias)  # Leaf equality also compares n_examples
    for a in trees:
        for b in trees:
            assert (tree_signature(a) == tree_signature(b)) == (a is b)


def test_next_generation_keeps_the_split_entries_read_in_the_last_two():
    m = make_matrix([[1, 0], [0, 1], [1, 1], [0, 0]], [1, 0, 0, 1])
    memo = InductionMemo(m)
    a, b = memo.candidates(0b0111), memo.candidates(0b1110)  # two impure subsets
    assert a[0].size and b[0].size
    memo.next_generation()
    assert memo.candidates(0b1110) is b  # read in the second generation
    memo.next_generation()
    assert memo.candidates(0b1110) is b
    again = memo.candidates(0b0111)  # unread for a whole generation: dropped
    assert again is not a
    assert [x.tobytes() for x in again] == [x.tobytes() for x in a]  # and recomputed to the bit


def _walked_subsets(node, s, memo):
    """The example subset of every node of a grown tree: the subsets whose
    split entries `_grow` read to grow it."""
    yield s
    if isinstance(node, Node):
        t = s & memo.cols[node.feature]
        yield from _walked_subsets(node.on_true, t, memo)
        yield from _walked_subsets(node.on_false, s ^ t, memo)


def test_grow_moves_every_split_entry_it_reads_into_this_generation(monkeypatch, matrix20):
    """`_grow` reads a hit in `memo.splits` itself and leaves the rest to
    `candidates`, which moves an entry of the previous generation into this
    one. Every subset a walk read must then sit in `splits` and none in
    `_last_splits`, so the next generation keeps all of them."""
    grown = []
    real_prune = tree_module.prune
    monkeypatch.setattr(tree_module, "prune", lambda tree, *args: grown.append(tree) or real_prune(tree, *args))
    rng = np.random.default_rng(0)
    first, second = (BiasVector(rng.uniform(0, B_MAX, matrix20.n_features), 0.5, 50.0) for _ in range(2))
    memo = InductionMemo(matrix20)
    induce_tree(matrix20, first, memo)
    for bias in (first, second):  # every read hits the last generation, then some do
        memo.next_generation()
        induce_tree(matrix20, bias, memo)
        read = set(_walked_subsets(grown[-1], memo.everyone, memo))
        assert len(read) > 3
        assert read <= memo.splits.keys()
        assert not read & memo._last_splits.keys()


# --- selection criterion ----------------------------------------------------

def root_scores(gains, weights, omega):
    """The root's candidate scores as `induce_tree` composes them when the root's
    gains are `gains`: the memo's numerators over the genome's denominators,
    caught at the split hook."""
    n = len(gains)
    m = make_matrix([[1] * n, [0] * n], [1, 0])  # both children of any split are pure
    scores = []

    def hook(num, den):
        scores.append(selection_criterion(num, den))
        return scores[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "_gains", lambda *args: np.asarray(gains, dtype=float))
        mp.setattr(tree_module, "selection_criterion", hook)
        induce_tree(m, grow_only_bias(n, weights, omega))
    assert len(scores) <= 1
    return scores[0] if scores else np.empty(0)


def test_selection_criterion_arithmetic():
    assert root_scores([1.0], [0.0], 0.5).tolist() == pytest.approx([1.0])
    assert root_scores([1.0], [1.0], 1.0).tolist() == pytest.approx([0.5])
    assert root_scores([1.0, 0.0, 0.5], [3.0, 0.0, 0.0], 0.5).tolist() == pytest.approx([0.5, 2**0.5 - 1])


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0, 1), st.floats(0, 10000), st.floats(0, 1)
)
def test_selection_criterion_matches_oracle(gain, bias, omega):
    scores = root_scores([gain], [bias], omega)
    if gain > _GAIN_EPS:
        assert scores.tolist() == pytest.approx([selection_score_oracle(gain, bias, omega)])
    else:  # no candidate, so no split is scored
        assert scores.size == 0


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1), st.floats(0, 10000))
def test_omega_zero_ignores_bias(gain, bias):
    want = [2.0**gain - 1.0] if gain > _GAIN_EPS else []
    assert root_scores([gain], [bias], 0.0).tolist() == pytest.approx(want)


def test_selection_criterion_non_increasing_in_bias():
    scores = root_scores(np.full(50, 0.7), np.linspace(0, 10000, 50), 0.8)
    assert scores.size == 50
    assert np.all(np.diff(scores) <= 1e-15)


def split_features(tree):
    if isinstance(tree, Leaf):
        return set()
    return {tree.feature} | split_features(tree.on_true) | split_features(tree.on_false)


@pytest.mark.parametrize("seed", range(4))
def test_exact_score_ties_break_toward_the_lowest_feature_as_the_reference_does(seed):
    rng = np.random.default_rng(seed)
    base = rng.random((40, 4)) < 0.5
    labels = base[:, 0] ^ (base[:, 1] & base[:, 2]) ^ (rng.random(40) < 0.15)
    # features 4-6 copy features 0-2 and feature 7 is feature 3's complement, so
    # each of the four pairs has one gain, bit for bit, on every subset
    m = make_matrix(np.concatenate([base, base[:, :3], ~base[:, 3:]], axis=1), labels)
    memo = InductionMemo(m)  # shared by every bias, as an evolve run shares it
    ends = np.tile([0.0, B_MAX, 0.0, B_MAX], 2)  # each pair's two weights are equal
    cases = [
        (np.zeros(8), 0.7),  # equal weights
        (np.full(8, 3.0), 1.0),
        (rng.uniform(0, B_MAX, 8), 0.0),  # omega 0: every denominator is 1
        (ends, 1.0),  # weights at both ends of their range
        (ends, 0.3),
    ]
    for weights, omega in cases:
        for cf in (25.0, 100.0):
            bias = BiasVector(weights, omega, cf)
            tree = induce_tree(m, bias, memo)
            assert tree == reference_induce(m, bias)
            # every test is half of a tie, and the lower index won it
            assert split_features(tree) <= {0, 1, 2, 3}
            assert cf < 100.0 or split_features(tree)


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


@pytest.mark.parametrize(
    "omega, cf, name",
    [("a", 50.0, "omega"), (None, 50.0, "omega"), (0.5, "50", "cf"), (0.5, None, "cf")],
    ids=["omega-string", "omega-none", "cf-string", "cf-none"],
)
def test_bias_vector_names_an_omega_or_cf_that_is_not_a_number(omega, cf, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        BiasVector(np.array([1.0]), omega, cf)


@pytest.mark.parametrize("label", ["north", "East", "", None], ids=["north", "capital", "empty", "none"])
def test_leaf_rejects_a_label_other_than_east_or_west(label):
    with pytest.raises(ValueError, match=re.escape(f"got {label!r}") + "$"):
        Leaf(label)


@pytest.mark.parametrize("n", [-3, 2.5, True, None], ids=["negative", "float", "bool", "none"])
def test_leaf_rejects_a_count_that_is_not_an_int_of_at_least_0(n):
    with pytest.raises(ValueError, match="^leaf n_examples must be an integer >= 0, got " + re.escape(repr(n)) + "$"):
        Leaf(EAST, n)


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
    with pytest.raises(ValueError):
        BiasVector(np.array([np.inf]), 0.5, 50.0)
    with pytest.raises(ValueError):
        BiasVector(np.array([-1e-300]), 0.5, 50.0)
    one_bad_gene = np.full(1199, 5.0)
    one_bad_gene[599] = B_MAX * 1.5
    with pytest.raises(ValueError):
        BiasVector(one_bad_gene, 0.5, 50.0)
    assert BiasVector(np.zeros(0), 0.5, 50.0).weights.size == 0
    assert BiasVector(np.array([0.0, B_MAX]), 0.5, 50.0).weights.size == 2


def test_induce_validates_inputs():
    m = make_matrix([[1]], [1])
    with pytest.raises(ValueError):
        induce_tree(m, grow_only_bias(3))
    empty = FeatureMatrix((), np.zeros((0, 1), dtype=bool), np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="at least one example"):
        induce_tree(empty, grow_only_bias(1))


def test_induce_rejects_a_memo_of_another_matrix():
    a = make_matrix([[1], [0]], [1, 0])
    b = make_matrix([[1], [0]], [1, 0])
    assert induce_tree(a, grow_only_bias(1), InductionMemo(a)) == induce_tree(a, grow_only_bias(1))
    with pytest.raises(ValueError):
        induce_tree(b, grow_only_bias(1), InductionMemo(a))
    with pytest.raises(ValueError):
        prune(Leaf(EAST), 50.0, b, InductionMemo(a))


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


def test_standalone_prune_calls_share_no_memo():
    # one tree object on two matrices: a memo kept from the first call would
    # hand the second the first matrix's result
    tree = Node(0, Leaf(EAST), Leaf(WEST))
    helpful = make_matrix([[1], [1], [0], [0]], [1, 1, 0, 0])
    useless = make_matrix([[1], [0], [1], [0]], [1, 1, 0, 0])
    assert prune(tree, 50.0, helpful) == Node(0, Leaf(EAST, 2), Leaf(WEST, 2))
    assert prune(tree, 50.0, useless) == Leaf(EAST, 4)


def test_prune_recounts_a_branch_that_receives_no_example():
    # both rows take the on_true branch, so the on_false leaves now hold 0
    # examples; a tie in the estimates (0 < 0 is false) keeps the structure
    m = make_matrix([[1, 1], [1, 0]], [0, 1])
    tree = Node(0, Node(1, Leaf(WEST, 7), Leaf(EAST, 9)), Node(1, Leaf(EAST, 3), Leaf(WEST, 4)))
    assert prune(tree, 25.0, m) == Node(
        0, Node(1, Leaf(WEST, 1), Leaf(EAST, 1)), Node(1, Leaf(EAST, 0), Leaf(WEST, 0))
    )


def test_single_leaf_unchanged_at_any_cf():
    m = make_matrix([[1], [0]], [1, 0])
    for cf in (1.0, 25.0, 50.0, 99.0, 100.0):
        assert prune(Leaf(EAST), cf, m) == Leaf(EAST, 2)


def reference_prune(node, cf, m, idx):
    """Prune over the example index array idx, recounting every node."""
    y = m.labels[idx]
    if isinstance(node, Leaf):
        errors = int((y != (node.label == EAST)).sum()) if idx.size else 0
        return Leaf(node.label, idx.size), idx.size * binomial_upper_bound(
            errors, idx.size, cf
        )
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


def test_prune_decision_matches_reference_implementation():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2, (12, 5)).astype(bool)
        labels = rng.integers(0, 2, 12).astype(bool)
        m = make_matrix(values, labels)
        grown = induce_tree(m, grow_only_bias(5))
        for cf in (5.0, 30.0, 70.0, 99.0):
            want, _ = reference_prune(grown, cf, m, np.arange(12))
            assert tree_signature(prune(grown, cf, m)) == tree_signature(want)


def random_trees(n_features):
    """Trees of any shape, not grown from data: a feature may repeat on a
    path, so some branches receive no example, and leaf counts are arbitrary."""
    leaves = st.builds(Leaf, st.sampled_from([EAST, WEST]), st.integers(0, 30))
    return st.recursive(
        leaves,
        lambda sub: st.builds(Node, st.integers(0, n_features - 1), sub, sub),
        max_leaves=12,
    )


@st.composite
def matrices_and_trees(draw):
    n = draw(st.integers(1, 25))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random((n, n_features)) < rng.random(n_features)
    labels = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return make_matrix(values, labels), draw(random_trees(n_features))


@settings(max_examples=200, deadline=None)
@given(matrices_and_trees(), st.floats(1.0, 99.0))
def test_prune_of_random_trees_matches_reference(matrix_and_tree, cf):
    m, tree = matrix_and_tree
    want, _ = reference_prune(tree, cf, m, np.arange(m.n_trains))
    assert prune(tree, cf, m) == want  # Leaf equality also compares n_examples
    assert prune(tree, cf, m, InductionMemo(m)) == want


@settings(max_examples=100, deadline=None)
@given(matrices_and_trees(), st.lists(st.sampled_from([1.0, 10.0, 25.0, 50.0, 90.0, 100.0]), min_size=2))
def test_prune_with_a_shared_memo_equals_a_fresh_memo(matrix_and_tree, cfs):
    m, tree = matrix_and_tree  # leaf counts are arbitrary, so mostly stale
    shared = InductionMemo(m)
    induce_tree(m, grow_only_bias(m.n_features), shared)  # the memo also holds a grown tree
    for cf in cfs:
        assert prune(tree, cf, m, shared) == prune(tree, cf, m, InductionMemo(m))


def test_prune_caches_per_tree_and_cf_not_per_node():
    # one Node object sits at two subsets: it splits the east rows usefully
    # and the west rows not at all, so its two pruned copies differ
    m = make_matrix([[1, 1], [1, 1], [1, 0], [1, 0], [0, 1], [0, 0]], [1, 1, 0, 0, 0, 0])
    twice = Node(1, Leaf(EAST, 9), Leaf(WEST, 9))
    tree = Node(0, twice, twice)
    memo = InductionMemo(m)
    pruned = {}
    for cf in (1.0, 25.0, 100.0, 25.0, 1.0):
        pruned[cf] = prune(tree, cf, m, memo)
        want, _ = reference_prune(tree, cf, m, np.arange(m.n_trains))
        assert pruned[cf] == want == prune(tree, cf, m, InductionMemo(m))
        assert prune(tree, cf, m, memo) is pruned[cf]
    assert pruned[1.0] != pruned[100.0]  # cf changes this tree's pruning
    assert pruned[100.0] == Node(0, Node(1, Leaf(EAST, 2), Leaf(WEST, 2)), Leaf(WEST, 2))


def test_entropy_table_waits_for_the_first_impure_split():
    pure = make_matrix([[1], [0], [1]], [1, 1, 1])
    memo = InductionMemo(pure)
    induce_tree(pure, grow_only_bias(1), memo)
    assert memo.entropy is None
    mixed = make_matrix([[1], [0], [1]], [1, 0, 1])
    memo = InductionMemo(mixed)
    induce_tree(mixed, grow_only_bias(1), memo)
    assert memo.entropy.tobytes() == _entropy_table(3).tobytes()


def test_standalone_prune_builds_no_entropy_table():
    # an (N + 1)**2 entropy table of 2000 rows would take 32 MB
    rng = np.random.default_rng(0)
    m = make_matrix(rng.random((2000, 3)) < 0.5, rng.random(2000) < 0.5)
    tree = Node(0, Node(1, Leaf(EAST), Leaf(WEST)), Node(2, Leaf(WEST), Leaf(EAST)))
    prune(tree, 25.0, m)  # imports scipy.special outside the traced call
    tracemalloc.start()
    try:
        prune(tree, 25.0, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


@pytest.mark.parametrize("cf", ["50", None, [50.0]], ids=["string", "none", "list"])
def test_prune_names_a_cf_that_is_not_a_number(cf):
    m = make_matrix([[1]], [1])
    with pytest.raises(ValueError, match="^cf must be a number"):
        prune(Leaf(EAST), cf, m)


# --- fitness ----------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(matrices_and_trees())
def test_predict_all_matches_row_loop_on_random_trees(matrix_and_tree):
    m, tree = matrix_and_tree
    assert np.array_equal(predict_all(tree, m), reference_predict(tree, m))


@st.composite
def matrices_and_trees_with_any_index(draw):
    """Up to 130 rows, past two 64-bit words, and trees whose feature indices
    may be negative (counted from the last column, as numpy counts them)."""
    n = draw(st.integers(1, 130))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random((n, n_features)) < rng.random(n_features)
    labels = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    leaves = st.builds(Leaf, st.sampled_from([EAST, WEST]), st.integers(0, 30))
    tree = draw(
        st.recursive(leaves, lambda sub: st.builds(Node, st.integers(-n_features, n_features - 1), sub, sub), max_leaves=16)
    )
    return make_matrix(values, labels), tree, rng.integers(0, 50, n_features)


@settings(max_examples=300, deadline=None)
@given(matrices_and_trees_with_any_index(), st.sampled_from([ERROR_COST, 0.0, 37.5]))
@example(  # a repeated feature leaves a branch no example reaches, a minority label and a negative index
    (
        make_matrix([[1, 0], [1, 1], [0, 1], [0, 0], [1, 0]], [1, 0, 0, 0, 0]),
        Node(0, Node(0, Node(-1, Leaf(WEST, 3), Leaf(EAST)), Leaf(EAST, 9)), Leaf(EAST, 2)),
        np.array([3, 4]),
    ),
    ERROR_COST,
)
def test_fitness_on_the_memo_row_sets_equals_the_row_loop(case, error_cost):
    m, tree, costs = case
    errors = int((reference_predict(tree, m) != m.labels).sum())
    cost = static_test_cost(tree, costs)
    want = FitnessReport(cost, errors, errors / m.n_trains, cost + errors / m.n_trains * error_cost)
    assert fitness(tree, m, costs, error_cost, memo=InductionMemo(m)) == want  # field for field
    assert fitness(tree, m, costs, error_cost) == want


def test_fitness_with_a_memo_of_another_matrix_raises():
    m = make_matrix([[1], [0]], [1, 0])
    with pytest.raises(ValueError, match="^memo belongs to another feature matrix$"):
        fitness(Leaf(EAST), m, np.array([1]), memo=InductionMemo(make_matrix([[1], [0]], [1, 0])))


def test_predict_all_matches_row_loop_on_grown_trees():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        values = rng.integers(0, 2, (30, 8)).astype(bool)
        labels = rng.integers(0, 2, 30).astype(bool)
        m = make_matrix(values, labels)
        for cf in (1.0, 50.0, 100.0):
            tree = induce_tree(m, BiasVector(rng.uniform(0, B_MAX, 8), 0.5, cf))
            assert np.array_equal(predict_all(tree, m), reference_predict(tree, m))


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
    features, stack = [], [reference_tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            features.append(node.feature)
            stack += [node.on_true, node.on_false]
    assert report.error_count == 0
    assert report.fitness == pytest.approx(sum(costs20[f] for f in features))


def test_error_cost_parameter_scales_errors():
    values = np.zeros((4, 1), dtype=bool)
    m = make_matrix(values, [1, 0, 0, 0])
    report = fitness(Leaf(WEST), m, np.array([5]), error_cost=100.0)
    assert report.fitness == pytest.approx(25.0)


@pytest.mark.parametrize(
    "costs", [np.zeros(1198), np.zeros(1200), np.zeros((1199, 1)), 5.0], ids=["short", "long", "column", "scalar"]
)
def test_fitness_rejects_costs_of_another_table(matrix20, reference_tree, costs):
    with pytest.raises(ValueError, match="costs"):
        fitness(reference_tree, matrix20, costs)


@pytest.mark.parametrize("bad", [1.6, np.inf, np.nan, -1], ids=["fraction", "inf", "nan", "negative"])
def test_fitness_rejects_costs_that_are_not_whole_numbers_from_zero(matrix20, costs20, reference_tree, bad):
    # a cost is the size of a Prolog fragment; the bad entry sits on the root's feature
    costs = costs20.astype(type(bad))
    costs[reference_tree.feature] = bad
    with pytest.raises(ValueError, match="costs"):
        fitness(reference_tree, matrix20, costs)


# --- serialization ----------------------------------------------------------

def test_tree_dict_round_trip(reference_tree, full_table):
    data = tree_to_dict(reference_tree, full_table)
    back = tree_from_dict(data, full_table)
    assert tree_signature(back) == tree_signature(reference_tree)
    assert data["feature"] == "short_closed"
    data["no"]["feature"] = "no_such_feature"
    with pytest.raises(KeyError):
        tree_from_dict(data, full_table)


@pytest.mark.parametrize(
    "data,where",
    [
        ([], "root"),
        ({"feature": "short", "yes": {"leaf": "east"}}, "root"),
        ({"feature": "short", "yes": ["east"], "no": {"leaf": "west"}}, "root.yes"),
        ({"feature": "short", "yes": {"leaf": "east"}, "no": {"leaf": "west", "n": "3"}}, "root.no"),
    ],
    ids=["list", "no-branch", "branch-not-a-dict", "count-not-an-integer"],
)
def test_tree_from_dict_names_a_badly_shaped_node(full_table, data, where):
    with pytest.raises(ValueError, match=f"^tree node {re.escape(where)} is neither"):
        tree_from_dict(data, full_table)


@pytest.mark.parametrize(
    "data,where,error",
    [
        ({"leaf": "east", "n": -5}, "root", "leaf n_examples must be an integer >= 0, got -5"),
        ({"feature": "short", "yes": {"leaf": "north"}, "no": {"leaf": "west"}}, "root.yes",
         "leaf label must be 'east' or 'west', got 'north'"),
        ({"feature": "short", "yes": {"leaf": "east"}, "no": {"leaf": "west", "n": -1}}, "root.no",
         "leaf n_examples must be an integer >= 0, got -1"),
    ],
    ids=["negative-count-at-the-root", "bad-label", "negative-count"],
)
def test_tree_from_dict_names_the_path_of_a_bad_leaf(full_table, data, where, error):
    with pytest.raises(ValueError, match=f"^tree node {re.escape(where)}: {re.escape(error)}$"):
        tree_from_dict(data, full_table)


def test_tree_from_dict_names_a_tree_nested_too_deeply(full_table):
    data = {"leaf": "east"}
    for _ in range(sys.getrecursionlimit()):
        data = {"feature": "short", "yes": data, "no": {"leaf": "west"}}
    with pytest.raises(ValueError, match="nested too deeply"):
        tree_from_dict(data, full_table)


def test_tree_from_dict_reads_a_feature_name_that_is_not_a_string_as_unknown(full_table):
    with pytest.raises(KeyError):
        tree_from_dict({"feature": ["short"], "yes": {"leaf": "east"}, "no": {"leaf": "west"}}, full_table)


def test_induction_on_real_data_is_consistent(matrix20, costs20):
    tree = induce_tree(matrix20, grow_only_bias(matrix20.n_features))
    report = fitness(tree, matrix20, costs20)
    assert report.error_count == 0  # the dataset is separable
    assert report.fitness == report.test_cost
