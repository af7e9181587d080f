import functools
import gc
import importlib.util
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eastwest.ga
from eastwest.cli import data_path
from eastwest.features import FeatureMatrix, build_feature_table, evaluate_features
from eastwest.ga import (
    CROSSOVER_RATE,
    ELITISM_COUNT,
    MUTATION_RATE,
    GaConfig,
    _breed,
    _gene_bounds,
    _rank_probabilities,
    evaluate_individual,
    evolve,
    genome_to_bias,
    history_to_csv,
)
from eastwest.theory import finalize, simplify_dnf, tree_to_dnf
from eastwest.trains import Car, Train, load_trains, random_trains
from eastwest.tree import (
    ERROR_COST, BiasVector, InductionMemo, Leaf, _majority, fitness, induce_tree, predict_all, prune,
    tree_signature,
)

from oracles import reference_breed, reference_evolve, reference_induce


def two_car(label, i, roof="none"):
    cars = (
        Car(1, "rectangle", "short", "not_double", roof, 2, "circle", 1),
        Car(2, "bucket", "short", "not_double", "none", 2, "triangle", 1),
    )
    return Train(f"{label}{i}", label, cars)


def three_car(label, i):
    cars = (
        Car(1, "rectangle", "long", "not_double", "flat", 3, "hexagon", 1),
        Car(2, "rectangle", "short", "not_double", "none", 2, "diamond", 2),
        Car(3, "u_shaped", "short", "not_double", "none", 2, "rectangle", 1),
    )
    return Train(f"{label}{i}", label, cars)


@pytest.fixture(scope="module")
def easy_problem():
    """Ten trains separable by the cheap train_2 feature alone."""
    trains = [two_car("east", i) for i in range(1, 6)] + [
        three_car("west", i) for i in range(1, 6)
    ]
    table = build_feature_table("unary_train")
    matrix = evaluate_features(trains, table)
    costs = np.array([s.cost for s in table])
    return matrix, costs


def small_config(**kw):
    defaults = dict(population_size=12, generations=5, rng_seed=0)
    defaults.update(kw)
    return GaConfig(**defaults)


def test_config_defaults():
    config = GaConfig()
    assert config.population_size == 50
    assert config.generations == 20
    assert CROSSOVER_RATE == 0.6
    assert MUTATION_RATE == 0.001
    assert ELITISM_COUNT == 1
    assert config.error_cost == 1000.0


@pytest.mark.parametrize(
    "kw",
    [
        dict(population_size=0),
        dict(generations=0),
        dict(error_cost=-1.0),
        dict(error_cost=float("nan")),
        dict(error_cost=float("inf")),
        dict(rng_seed=-1),
        dict(population_size=2.5),
        dict(generations=1.5),
        dict(rng_seed=1.0),
        dict(population_size=True),
        dict(generations="3"),
        dict(error_cost="x"),
        dict(error_cost=None),
        dict(error_cost=True),
    ],
    # Stable case names: kw2-kw4 checked the crossover, mutation and elitism
    # settings, which are module constants now and no longer validated.
    ids=["kw0", "kw1", "kw5", "kw6", "kw7", "kw8",
         "float-population", "float-generations", "float-seed", "bool-population", "str-generations",
         "str-error-cost", "none-error-cost", "bool-error-cost"],
)
def test_config_validation(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        GaConfig(**kw)


def test_genome_to_bias_maps_tail_genes():
    genome = np.array([1.0, 2.0, 3.0, 0.25, 42.0])
    bias = genome_to_bias(genome)
    assert list(bias.weights) == [1.0, 2.0, 3.0]
    assert bias.omega == 0.25
    assert bias.cf == 42.0


def test_genome_to_bias_accepts_the_gene_bounds_at_both_corners():
    lows, highs = _gene_bounds(3)
    for corner in (lows, highs):
        bias = genome_to_bias(corner)
        assert np.array_equal(bias.weights, corner[:-2]) and (bias.omega, bias.cf) == (corner[-2], corner[-1])
    past_omega = highs.copy()
    past_omega[-2] = np.nextafter(highs[-2], np.inf)
    with pytest.raises(ValueError, match=r"^omega must lie in \[0, 1\]$"):
        genome_to_bias(past_omega)


def test_same_seed_reproduces_run(easy_problem):
    matrix, costs = easy_problem
    a = evolve(matrix, costs, small_config())
    b = evolve(matrix, costs, small_config())
    assert [h.best for h in a.history] == [h.best for h in b.history]
    assert [h.mean for h in a.history] == [h.mean for h in b.history]
    assert tree_signature(a.best_tree) == tree_signature(b.best_tree)
    assert a.best_report == b.best_report


def test_different_seeds_differ_somewhere(easy_problem):
    matrix, costs = easy_problem
    a = evolve(matrix, costs, small_config(rng_seed=1))
    b = evolve(matrix, costs, small_config(rng_seed=2))
    assert (
        [h.mean for h in a.history] != [h.mean for h in b.history]
        or tree_signature(a.best_tree) != tree_signature(b.best_tree)
    )


def test_elitism_keeps_generation_best_non_increasing(easy_problem):
    matrix, costs = easy_problem
    result = evolve(matrix, costs, small_config(generations=8))
    bests = [h.best for h in result.history]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert result.best_report.fitness == min(bests)


def test_history_covers_all_generations(easy_problem):
    matrix, costs = easy_problem
    result = evolve(matrix, costs, small_config(generations=7))
    assert [h.generation for h in result.history] == list(range(1, 8))
    for h in result.history:
        assert h.mean >= h.best


def test_degenerate_single_individual_single_generation(easy_problem):
    matrix, costs = easy_problem
    config = GaConfig(population_size=1, generations=1, rng_seed=9)
    result = evolve(matrix, costs, config)

    # replay the generator to rebuild the one random genome
    rng = np.random.default_rng(9)
    n = matrix.n_features
    lows = np.concatenate([np.zeros(n), [0.0, 1.0]])
    highs = np.concatenate([np.full(n, 10000.0), [1.0, 100.0]])
    genome = rng.uniform(lows, highs, size=(1, n + 2))[0]
    tree, report = evaluate_individual(
        genome_to_bias(genome), matrix, costs, config, InductionMemo(matrix)
    )

    assert len(result.history) == 1
    assert result.best_report == report
    assert tree_signature(result.best_tree) == tree_signature(tree)
    assert np.array_equal(result.best_bias.weights, genome[:-2])
    assert result.best_bias.omega == genome[-2]
    assert result.best_bias.cf == genome[-1]


def test_easy_problem_solved_for_every_seed(easy_problem):
    matrix, costs = easy_problem
    for seed in range(10):
        result = evolve(matrix, costs, small_config(rng_seed=seed))
        assert result.best_report.error_count == 0
        assert result.best_report.fitness < 1000.0


def test_evolved_bias_reinduces_reported_tree(easy_problem):
    matrix, costs = easy_problem
    result = evolve(matrix, costs, small_config(rng_seed=3))
    tree = induce_tree(matrix, result.best_bias)
    report = fitness(tree, matrix, costs)
    assert tree_signature(tree) == tree_signature(result.best_tree)
    assert report.fitness == result.best_report.fitness


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda matrix, costs: evolve(None, costs, small_config()), "matrix"),
        (lambda matrix, costs: evolve(matrix, costs, None), "config"),
        (lambda matrix, costs: evolve(matrix, costs, {"population_size": 3}), "config"),
        (lambda matrix, costs: induce_tree(matrix, None), "bias"),
        (lambda matrix, costs: induce_tree(matrix, (np.zeros(matrix.n_features), 0.5, 50.0)), "bias"),
        (lambda matrix, costs: induce_tree(None, BiasVector(np.zeros(matrix.n_features), 0.5, 25.0)), "matrix"),
        (lambda matrix, costs: prune(Leaf("east", 1), 25.0, None), "matrix"),
        (lambda matrix, costs: predict_all(Leaf("east", 1), None), "matrix"),
        (lambda matrix, costs: fitness(Leaf("east", 1), None, costs), "matrix"),
        (lambda matrix, costs: predict_all(None, matrix), "tree"),
        (lambda matrix, costs: predict_all({"leaf": "east"}, matrix), "tree"),
        (lambda matrix, costs: fitness("east", matrix, costs), "tree"),
        (lambda matrix, costs: fitness("east", matrix, costs, memo=InductionMemo(matrix)), "tree"),
        (lambda matrix, costs: tree_to_dnf(None), "tree"),
        (lambda matrix, costs: tree_to_dnf(("east",)), "tree"),
    ],
    ids=["evolve-matrix", "evolve-config", "evolve-config-dict", "induce-bias", "induce-bias-tuple",
         "induce-matrix", "prune-matrix", "predict-matrix", "fitness-matrix", "predict-tree-none",
         "predict-tree-dict", "fitness-tree-str", "fitness-memo-tree-str", "dnf-tree-none", "dnf-tree-tuple"],
)
def test_learner_entries_raise_a_type_error_naming_the_argument(easy_problem, call, name):
    matrix, costs = easy_problem
    with pytest.raises(TypeError, match=f"^{name} must be a "):
        call(matrix, costs)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_evolve_rejects_costs_of_another_length(easy_problem, extra):
    matrix, costs = easy_problem
    with pytest.raises(ValueError, match="costs"):
        evolve(matrix, np.resize(costs, matrix.n_features + extra), small_config())


def test_evolve_frees_its_memo_without_the_cycle_collector(easy_problem, monkeypatch):
    # a memo kept alive by a reference cycle would hold its split and leaf
    # tables until the next collection, past the end of the run
    memos = []

    class RecordedMemo(InductionMemo):
        def __init__(self, matrix):
            super().__init__(matrix)
            memos.append(weakref.ref(self))

    monkeypatch.setattr(eastwest.ga, "InductionMemo", RecordedMemo)
    matrix, costs = easy_problem
    gc.disable()
    try:
        evolve(matrix, costs, small_config())
        assert len(memos) == 1
        assert memos[0]() is None
    finally:
        gc.enable()


def test_evaluate_individual_uses_cache(easy_problem):
    matrix, costs = easy_problem
    config = small_config()
    bias = BiasVector(np.zeros(matrix.n_features), 0.0, 99.0)
    memo = InductionMemo(matrix)
    _, first = evaluate_individual(bias, matrix, costs, config, memo)
    assert len(memo.fitness) == 1
    _, second = evaluate_individual(bias, matrix, costs, config, memo)
    assert first is second


def test_evaluate_individual_on_a_shared_memo_scores_under_the_costs_and_error_cost_given(matrix20, costs20):
    # cf 50 prunes trains20's tree to one that errs, so the error cost shows
    bias = BiasVector(np.zeros(matrix20.n_features), 0.0, 50.0)
    memo = InductionMemo(matrix20)
    runs = [(costs20, 1000.0), (10 * costs20, 1000.0), (costs20, 10.0)]
    reports = [evaluate_individual(bias, matrix20, c, GaConfig(error_cost=e), memo)[1] for c, e in runs]
    fresh = [evaluate_individual(bias, matrix20, c, GaConfig(error_cost=e), InductionMemo(matrix20))[1]
             for c, e in runs]
    assert reports == fresh
    assert reports[0].error_count > 0
    assert len({(r.test_cost, r.fitness) for r in reports}) == 3


def test_history_to_csv_round_figures(easy_problem):
    matrix, costs = easy_problem
    result = evolve(matrix, costs, small_config(generations=3))
    text = history_to_csv(result.history)
    lines = text.strip("\n").split("\n")
    assert lines[0] == "generation,best,mean,best_test_cost,best_errors"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == result.history[0].best


def test_evolved_trees_match_unmemoized_reference(monkeypatch, matrix20, full_table, costs20):
    """Every tree an evolve run induces, with one memo shared across the
    run, equals the tree grown and pruned without any memo."""
    induce = eastwest.ga.induce_tree
    calls = []  # (matrix, bias, memo, tree) of every induction

    def recording(matrix, bias, memo):
        tree = induce(matrix, bias, memo)
        calls.append((matrix, bias, memo, tree))
        return tree

    monkeypatch.setattr(eastwest.ga, "induce_tree", recording)
    random120 = evaluate_features(random_trains(120, 0), full_table)
    # same example indices as trains20: a memo that outlived its run would
    # hand trains20's gains to this matrix, starting at the root
    random20 = evaluate_features(random_trains(20, 1), full_table)
    memos = []
    for matrix, seed in [(matrix20, 0), (matrix20, 1), (random120, 0), (random20, 0)]:
        start = len(calls)
        evolve(matrix, costs20, small_config(population_size=8, generations=4, rng_seed=seed))
        assert len(calls) - start == 8 * 4
        assert isinstance(calls[start][2], InductionMemo)
        assert all(c[2] is calls[start][2] for c in calls[start:])
        memos.append(calls[start][2])
    assert len({id(m) for m in memos}) == len(memos)  # a new memo for each run

    for matrix, bias, _, tree in calls:
        want = reference_induce(matrix, bias)
        assert tree_signature(tree) == tree_signature(want)
        assert tree == want  # Leaf equality also compares n_examples


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 30),
    st.sampled_from([1, 2, 7, 60, 400]),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_evolve_matches_the_list_loop_reference(n_trains, n_features, population_size, generations, seed):
    """The generation loop reads the random stream the way the list-of-children
    loop did, so every report comes out the same; odd populations give the
    lone last child, which draws no mutation for its dropped sibling."""
    rng = np.random.default_rng(seed)
    values = rng.random((n_trains, n_features)) < rng.random(n_features)
    matrix = FeatureMatrix(tuple(f"t{i}" for i in range(n_trains)), values, rng.random(n_trains) < 0.5)
    costs = rng.integers(1, 30, size=n_features)
    config = GaConfig(population_size=population_size, generations=generations, rng_seed=seed % 1000)
    got, want = evolve(matrix, costs, config), reference_evolve(matrix, costs, config)
    assert history_to_csv(got.history) == history_to_csv(want.history)
    assert got.best_tree == want.best_tree  # Leaf equality also compares n_examples
    assert got.best_report == want.best_report
    assert got.best_bias.weights.tobytes() == want.best_bias.weights.tobytes()
    assert (got.best_bias.omega, got.best_bias.cf) == (want.best_bias.omega, want.best_bias.cf)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 7, 60, 400]),
    st.integers(1, 9),
    st.integers(1, 4),
    st.sampled_from([MUTATION_RATE, 0.05, 0.5]),
    st.integers(0, 2**32 - 1),
)
def test_every_bias_evolve_evaluates_passes_the_checks_and_is_its_genomes(
    n_features, population_size, generations, rate, seed
):
    """`evolve` builds its biases without `BiasVector`'s checks, since its genes
    lie in their bounds by construction. Each bias it hands `evaluate_individual`
    must still pass those checks, and must equal `genome_to_bias` of its genome:
    the reference loop reads the same stream into the same genomes and builds
    each bias with `genome_to_bias`. The comparison runs after both runs end,
    so a bias whose weights a later generation overwrote would show."""
    rng = np.random.default_rng(seed)
    values = rng.random((12, n_features)) < rng.random(n_features)
    matrix = FeatureMatrix(tuple(f"t{i}" for i in range(12)), values, rng.random(12) < 0.5)
    costs = rng.integers(1, 30, size=n_features)
    config = GaConfig(population_size=population_size, generations=generations, rng_seed=seed % 1000)
    evaluate, seen = eastwest.ga.evaluate_individual, []

    def recording(bias, *args):
        seen[-1].append(bias)
        return evaluate(bias, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eastwest.ga, "evaluate_individual", recording)
        patch.setattr(eastwest.ga, "MUTATION_RATE", rate)  # both loops read it at call time
        for run in (evolve, reference_evolve):
            seen.append([])
            run(matrix, costs, config)
    got, want = seen
    assert len(got) == len(want) == population_size * generations
    for bias, checked in zip(got, want):
        assert type(bias) is BiasVector
        BiasVector(bias.weights, bias.omega, bias.cf)  # raises for a gene out of its bounds
        assert (bias.weights.tobytes(), bias.omega, bias.cf) == (checked.weights.tobytes(), checked.omega, checked.cf)


@pytest.mark.parametrize("rate", [0.2, 1.0])
def test_evolve_redraws_genes_as_the_reference_at_high_mutation_rates(monkeypatch, easy_problem, rate):
    """At the real rate a run mutates about one gene per child and seldom the
    cf gene, the one whose lower bound is not 0; at these rates every run
    redraws it many times, through `evolve`'s arithmetic and through the
    reference's `rng.uniform`."""
    monkeypatch.setattr(eastwest.ga, "MUTATION_RATE", rate)  # both loops read it at call time
    matrix, costs = easy_problem
    for seed in range(3):
        config = small_config(population_size=7, generations=4, rng_seed=seed)
        got, want = evolve(matrix, costs, config), reference_evolve(matrix, costs, config)
        assert history_to_csv(got.history) == history_to_csv(want.history)
        assert got.best_bias.weights.tobytes() == want.best_bias.weights.tobytes()
        assert (got.best_bias.omega, got.best_bias.cf) == (want.best_bias.omega, want.best_bias.cf)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 400),
    st.sampled_from([0.0, MUTATION_RATE, 0.05, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_breeding_reads_the_stream_as_the_per_pair_loop(size, n_features, rate, half_buffered, seed):
    """`_breed` reads each generation's draws from one block of raw words;
    the per-pair loop reads them through `Generator` calls. Over two
    generations both give the same populations, byte for byte, and leave the
    generator in the same state, its buffered half word included. A
    generator may start a generation with a half word buffered (after a cut
    point drawn again), which the first cut point reads."""
    rng = np.random.default_rng(seed)
    lows, highs = _gene_bounds(n_features)
    pops = [rng.uniform(lows, highs, size=(size, n_features + 2))] * 2
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    if half_buffered:  # one 32-bit draw leaves the word's upper half in the generator
        ours.integers(0, 7), theirs.integers(0, 7)
        assert ours.bit_generator.state["has_uint32"] == 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eastwest.ga, "MUTATION_RATE", rate)  # both loops read it at call time
        for _ in range(2):
            order = rng.permutation(size)
            pops = _breed(pops[0], order, lows, highs, ours), reference_breed(pops[1], order, lows, highs, theirs)
            assert pops[0].tobytes() == pops[1].tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state


REJECTED_WORD = 18_057_946  # PCG64(0)'s first word with a half that Lemire's method rejects at 1202 cut points


def test_generator_integers_draws_a_rejected_half_again_and_keeps_the_unused_half():
    """Guards the numpy internal that `_breed` reads cut points by: at 1202
    cut points a half whose product's low 32 bits fall below
    (2**32 - 1202) % 1202 = 128 is drawn again, and a half a call leaves
    unused stays buffered in the generator for its next 32-bit draw."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.advance(REJECTED_WORD)
    word = int(rng.bit_generator.random_raw())
    low, high = word & 0xFFFFFFFF, word >> 32
    assert [low * 1202 >> 32, (low * 1202) % 2**32 >= 128, (high * 1202) % 2**32 < 128] == [301, True, True]
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.advance(REJECTED_WORD)
    assert rng.integers(0, 1202, size=2).tolist() == [301, 895]  # 895 from the next word's low half
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1  # the next word's high half
    assert rng.integers(0, 1202, size=1).tolist() == [state["uinteger"] * 1202 >> 32]


def test_breeding_draws_a_rejected_cut_point_again_as_the_per_pair_loop():
    """Started three words before `REJECTED_WORD` with four genomes of 1201
    genes, both pairs cross (their crossover draws are 0.059 and 0.423). The
    first reads its cut points from that word and draws its high half again
    from the next word's low half; the second's first cut point is the high
    half that word leaves buffered."""
    rng = np.random.default_rng(7)
    lows, highs = _gene_bounds(1199)
    pop = rng.uniform(lows, highs, size=(4, 1201))
    order = rng.permutation(4)
    ours, theirs = np.random.Generator(np.random.PCG64(0)), np.random.Generator(np.random.PCG64(0))
    for generator in (ours, theirs):
        generator.bit_generator.advance(REJECTED_WORD - 3)
    assert _breed(pop, order, lows, highs, ours).tobytes() == reference_breed(pop, order, lows, highs, theirs).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.sampled_from(["ranks", "weights", "some zero"]), st.integers(0, 2**32 - 1))
def test_parent_draw_from_a_cdf_equals_generator_choice(n, kind, seed):
    """`evolve` draws each pair of parents as numpy's `Generator.choice(p=...)`
    does inside: this guards that numpy internal, index for index and for the
    stream position after the draws."""
    rng = np.random.default_rng(seed)
    if kind == "ranks":
        p = _rank_probabilities(rng.permutation(n))
    else:
        weights = rng.random(n)
        if kind == "some zero":
            weights[rng.random(n) < 0.3] = 0.0
        weights[rng.integers(n)] += 1.0  # at least one positive weight
        p = weights / weights.sum()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(25):
        assert cdf.searchsorted(ours.random(2), side="right").tolist() == numpys.choice(n, size=2, p=p).tolist()
    assert ours.random() == numpys.random()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.sampled_from(["genes", "random"]), st.integers(0, 2**32 - 1))
def test_gene_redraw_equals_generator_uniform(size, kind, seed):
    """`evolve` redraws mutated genes as `low + (high - low) * rng.random(size)`,
    which is how numpy's `Generator.uniform` computes them: this guards that
    numpy internal, bit for bit and for the stream position after the draws."""
    rng = np.random.default_rng(seed)
    if kind == "genes":  # the GA's own bounds, always with the cf gene's [1, 100]
        lows, highs = _gene_bounds(6)
        idx = np.sort(np.append(rng.choice(7, size - 1, replace=False), 7))
        low, high = lows[idx], highs[idx]
    else:
        low = rng.uniform(-1e3, 1e3, size)
        high = low + rng.random(size) * 10.0 ** rng.integers(-3, 6, size)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        got = low + (high - low) * ours.random(size)
        assert got.tobytes() == numpys.uniform(low, high).tobytes()
    assert ours.random() == numpys.random()


def test_evolve_peak_memory_on_300_trains(full_table, costs20):
    """Split entries unread for a generation are dropped, so the memo does not
    grow with the generations: about 21 MiB, where keeping every entry for the
    whole run peaked at 27 MiB."""
    matrix = evaluate_features(random_trains(300, 0), full_table)
    evolve(matrix, costs20, small_config(population_size=2, generations=1))  # imports scipy.special
    tracemalloc.start()
    try:
        evolve(matrix, costs20, small_config(population_size=20, generations=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def _leaves(tree):
    if isinstance(tree, Leaf):
        return [tree]
    return _leaves(tree.on_true) + _leaves(tree.on_false)


def test_leaves_are_shared_per_example_subset(monkeypatch, matrix20, full_table, costs20):
    """After a run every memoized leaf is the majority leaf of its subset,
    counted over the matrix's rows, and every induced tree's leaves are those
    shared objects."""
    evaluate = eastwest.ga.evaluate_individual
    calls = []  # (memo, tree) of every evaluation

    def recording(bias, matrix, costs, config, memo):
        tree, report = evaluate(bias, matrix, costs, config, memo)
        calls.append((memo, tree))
        return tree, report

    monkeypatch.setattr(eastwest.ga, "evaluate_individual", recording)
    random60 = evaluate_features(random_trains(60, 3), full_table)
    for matrix in (matrix20, random60):
        start = len(calls)
        evolve(matrix, costs20, small_config(population_size=9, generations=3, rng_seed=2))
        memo = calls[start][0]
        assert memo.leaves
        for s, leaf in memo.leaves.items():
            rows = [i for i in range(matrix.n_trains) if s >> i & 1]
            n, pos = len(rows), int(matrix.labels[rows].sum())
            assert leaf == Leaf(_majority(pos, n), n)
            assert memo.leaf(s) is leaf
        shared = {id(leaf) for leaf in memo.leaves.values()}
        assert all(id(leaf) in shared for _, tree in calls[start:] for leaf in _leaves(tree))


# Invariants the benchmark's per-seed goldens assume: the learner reads the
# trains as a set, and only the ranks of the fitnesses steer the search.
METAMORPHIC_CASES = [(data, seed) for data in ("trains20", "random60", "random150") for seed in range(3)]


@functools.cache
def _metamorphic_trains(data: str) -> tuple:
    if data == "trains20":
        return tuple(load_trains(data_path("trains20.pl")))
    return tuple(random_trains(int(data.removeprefix("random")), 1))


def _learn(trains, seed, scale=1):
    """(every tree induced, in order, then the history and the program text) of
    a pop 20 x 5 run at GA seed `seed`, with every feature cost and the error
    cost times `scale`."""
    table = build_feature_table("full")
    matrix = evaluate_features(trains, table)
    config = GaConfig(population_size=20, generations=5, rng_seed=seed, error_cost=ERROR_COST * scale)
    induce, trees = eastwest.ga.induce_tree, []

    def recording(*args):
        trees.append(induce(*args))
        return trees[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eastwest.ga, "induce_tree", recording)
        result = evolve(matrix, np.array([s.cost for s in table]) * scale, config)
    assert result.best_tree in trees
    program = finalize(simplify_dnf(tree_to_dnf(result.best_tree), matrix), table).rendered
    return trees, result.history, program


@functools.cache
def _learned(data, seed):
    return _learn(_metamorphic_trains(data), seed)


@pytest.mark.parametrize("data, seed", METAMORPHIC_CASES)
def test_permuting_the_trains_changes_no_result(data, seed):
    trains = _metamorphic_trains(data)
    shuffled = [trains[i] for i in np.random.default_rng(seed).permutation(len(trains))]
    assert shuffled != list(trains)
    trees, history, program = _learn(shuffled, seed)
    want_trees, want_history, want_program = _learned(data, seed)
    assert trees == want_trees  # Leaf equality also compares n_examples
    assert history_to_csv(history) == history_to_csv(want_history)
    assert program == want_program


@pytest.mark.parametrize("data, seed", METAMORPHIC_CASES)
def test_costs_and_error_cost_times_4_scale_only_the_fitnesses(data, seed):
    """A power of two keeps every float exact, so the history is exactly 4x."""
    trees, history, program = _learn(_metamorphic_trains(data), seed, scale=4)
    want_trees, want_history, want_program = _learned(data, seed)
    assert trees == want_trees
    assert program == want_program
    assert history == [
        replace(h, best=4 * h.best, mean=4 * h.mean, best_test_cost=4 * h.best_test_cost) for h in want_history
    ]


def _load_spans():
    """perfbench's span recorder, loaded from its file without editing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's traced counters of its two induce workloads: trains20 at GA
# seeds 0-4, pop 50 x 20, and 300 random trains at GA seed 0, pop 20 x 5.
TRACED_COUNTERS = {
    "trains20": dict(evaluations=5000, split_calls=12926, split_distinct=1008, bounds=2749, trees=716, genomes=4257),
    "scale300": dict(evaluations=100, split_calls=5987, split_distinct=2724, bounds=2374, trees=52, genomes=81),
}


@pytest.mark.parametrize("data", sorted(TRACED_COUNTERS))
def test_traced_counters_equal_the_benchmark_table(data, matrix20, full_table, costs20):
    """The work counts perfbench's hooks record on the two induce workloads.
    A speed-up that keeps every hooked call keeps these exactly; they are the
    reference for counters the package may later keep itself."""
    if data == "trains20":
        matrix, configs = matrix20, [GaConfig(50, 20, seed) for seed in range(5)]
    else:
        matrix, configs = evaluate_features(random_trains(300, 0), full_table), [GaConfig(20, 5, 0)]
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for config in configs:
            eastwest.ga.evolve(matrix, costs20, config)
    finally:
        tracer.uninstall()
    assert eastwest.ga.evolve is evolve  # uninstalled
    metrics = spans.layer_metrics(tracer.spans, 0, tracer.distinct, configs[0].generations)
    want = TRACED_COUNTERS[data]
    evaluations = want["evaluations"]
    assert {k: v for k, v in metrics.items() if not k.endswith("_s")} == {
        "tree.bound_calls": want["bounds"],
        "tree.bound_distinct": want["bounds"],
        "tree.prune_calls": evaluations,
        "tree.induce_calls": evaluations,
        "tree.split_calls": want["split_calls"],
        "tree.split_distinct": want["split_distinct"],
        "tree.fitness_calls": want["trees"],
        "ga.evaluations": evaluations,
        "ga.distinct_genomes": want["genomes"],
        "ga.distinct_trees": want["trees"],
        "ga.fitness_cache_hit_ratio": (evaluations - want["trees"]) / evaluations,
        "theory.classify_calls": 0,
    }
