"""Genetic search over bias vectors (the top tier of the two-tier search).

Real-coded genomes of length n + 2 hold the per-feature bias weights plus
omega and cf.  Each genome's fitness is the cost of the decision tree it
induces: lower is better.  Selection is rank-proportionate, recombination
is two-point crossover, and mutation redraws single genes uniformly within
their legal range, so every genome stays inside the bias bounds by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import FeatureMatrix
from .tree import (
    BiasVector, FitnessReport, InductionMemo, Tree, B_MAX, CF_MIN, CF_MAX, ERROR_COST, fitness, induce_tree, tree_signature
)


CROSSOVER_RATE = 0.6
MUTATION_RATE = 0.001
ELITISM_COUNT = 1


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    generations: int = 20
    rng_seed: int = 0
    error_cost: float = ERROR_COST

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if not (math.isfinite(self.error_cost) and self.error_cost >= 0):
            raise ValueError("error_cost must be finite and >= 0")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    best_test_cost: int
    best_errors: int


@dataclass
class EvolutionResult:
    best_tree: Tree
    best_report: FitnessReport
    best_bias: BiasVector
    history: list[GenerationStats] = field(default_factory=list)


def _gene_bounds(n_features: int) -> tuple[np.ndarray, np.ndarray]:
    lows = np.concatenate([np.zeros(n_features), [0.0, CF_MIN]])
    highs = np.concatenate([np.full(n_features, B_MAX), [1.0, CF_MAX]])
    return lows, highs


def genome_to_bias(genome: np.ndarray) -> BiasVector:
    return BiasVector(genome[:-2].copy(), float(genome[-2]), float(genome[-1]))


def evaluate_individual(
    bias: BiasVector,
    matrix: FeatureMatrix,
    costs: np.ndarray,
    config: GaConfig,
    memo: InductionMemo,
) -> tuple[Tree, FitnessReport]:
    """Induce and score the tree for one bias vector.

    Trees of one signature share one report in `memo`, so the memo must not
    outlive the costs and error cost it was filled under.
    """
    tree = induce_tree(matrix, bias, memo)
    key = tree_signature(tree)
    report = memo.fitness.get(key)
    if report is None:
        report = memo.fitness[key] = fitness(tree, matrix, costs, error_cost=config.error_cost)
    return tree, report


def _rank_probabilities(fitnesses: np.ndarray) -> np.ndarray:
    # lowest fitness gets the highest rank weight; scale-free in fitness
    order = np.argsort(fitnesses, kind="stable")
    weights = np.empty_like(fitnesses)
    n = len(fitnesses)
    weights[order] = np.arange(n, 0, -1, dtype=float)
    return weights / weights.sum()


def _crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator):
    """Two-point crossover; returns two children."""
    length = len(a)
    i, j = sorted(rng.integers(0, length + 1, size=2))
    child_a, child_b = a.copy(), b.copy()
    child_a[i:j], child_b[i:j] = b[i:j], a[i:j]
    return child_a, child_b


def _mutate(genome: np.ndarray, lows, highs, rng: np.random.Generator):
    mask = rng.random(len(genome)) < MUTATION_RATE
    if mask.any():
        genome = genome.copy()
        genome[mask] = rng.uniform(lows[mask], highs[mask])
    return genome


def evolve(matrix: FeatureMatrix, costs: np.ndarray, config: GaConfig) -> EvolutionResult:
    """Run the genetic search and return the fittest tree seen overall."""
    rng = np.random.default_rng(config.rng_seed)
    n = matrix.n_features
    lows, highs = _gene_bounds(n)
    pop = rng.uniform(lows, highs, size=(config.population_size, n + 2))

    memo = InductionMemo(matrix)  # lives as long as this run
    best_tree = None
    best_report = None
    best_bias = None
    history: list[GenerationStats] = []

    for generation in range(1, config.generations + 1):
        evals = []
        for genome in pop:
            bias = genome_to_bias(genome)
            evals.append(evaluate_individual(bias, matrix, costs, config, memo))
        fitnesses = np.array([rep.fitness for _, rep in evals])
        gen_best = int(np.argmin(fitnesses))
        gen_tree, gen_report = evals[gen_best]
        if best_report is None or gen_report.fitness < best_report.fitness:
            best_tree, best_report = gen_tree, gen_report
            best_bias = genome_to_bias(pop[gen_best])
        history.append(
            GenerationStats(
                generation=generation,
                best=float(gen_report.fitness),
                mean=float(fitnesses.mean()),
                best_test_cost=gen_report.test_cost,
                best_errors=gen_report.error_count,
            )
        )
        if generation == config.generations:
            break

        order = np.argsort(fitnesses, kind="stable")
        probs = _rank_probabilities(fitnesses)
        next_pop = [pop[i].copy() for i in order[:ELITISM_COUNT]]
        while len(next_pop) < config.population_size:
            pa, pb = rng.choice(config.population_size, size=2, p=probs)
            a, b = pop[pa], pop[pb]
            if rng.random() < CROSSOVER_RATE:
                a, b = _crossover(a, b, rng)
            next_pop.append(_mutate(a, lows, highs, rng))
            if len(next_pop) < config.population_size:
                next_pop.append(_mutate(b, lows, highs, rng))
        pop = np.array(next_pop)

    return EvolutionResult(best_tree, best_report, best_bias, history)


def history_to_csv(history: Sequence[GenerationStats]) -> str:
    lines = ["generation,best,mean,best_test_cost,best_errors"]
    for h in history:
        lines.append(
            ",".join(
                [str(h.generation), repr(h.best), repr(h.mean), str(h.best_test_cost), str(h.best_errors)]
            )
        )
    return "\n".join(lines) + "\n"
