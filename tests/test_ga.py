import numpy as np
import pytest

import eastwest.ga
from eastwest.features import build_feature_table, evaluate_features
from eastwest.ga import (
    CROSSOVER_RATE,
    ELITISM_COUNT,
    MUTATION_RATE,
    GaConfig,
    evaluate_individual,
    evolve,
    genome_to_bias,
    history_to_csv,
)
from eastwest.trains import Car, Train, random_trains
from eastwest.tree import BiasVector, InductionMemo, fitness, induce_tree, tree_signature

from oracles import reference_induce


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
    ],
    # Stable case names: kw2-kw4 checked the crossover, mutation and elitism
    # settings, which are module constants now and no longer validated.
    ids=["kw0", "kw1", "kw5", "kw6", "kw7", "kw8"],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        GaConfig(**kw)


def test_genome_to_bias_maps_tail_genes():
    genome = np.array([1.0, 2.0, 3.0, 0.25, 42.0])
    bias = genome_to_bias(genome)
    assert list(bias.weights) == [1.0, 2.0, 3.0]
    assert bias.omega == 0.25
    assert bias.cf == 42.0


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


def test_evaluate_individual_uses_cache(easy_problem):
    matrix, costs = easy_problem
    config = small_config()
    bias = BiasVector(np.zeros(matrix.n_features), 0.0, 99.0)
    memo = InductionMemo(matrix)
    _, first = evaluate_individual(bias, matrix, costs, config, memo)
    assert len(memo.fitness) == 1
    _, second = evaluate_individual(bias, matrix, costs, config, memo)
    assert first is second


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
