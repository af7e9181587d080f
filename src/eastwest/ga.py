"""Genetic search over bias vectors (the top tier of the two-tier search).

Real-coded genomes of length n + 2 hold the per-feature bias weights plus
omega and cf.  Each genome's fitness is the cost of the decision tree it
induces: lower is better.  Selection is rank-proportionate, recombination
is two-point crossover, and mutation redraws single genes uniformly within
their legal range, so every genome stays inside the bias bounds by
construction.

The random stream is part of every report, so its draws are fixed: the
initial population, then for each pair of children two uniforms for the
parents (read as `Generator.choice(p=...)` reads them, through a CDF of the
rank probabilities), one for crossover and, when it crosses, two cut points,
then for each child one uniform per gene, redrawing the genes under the
mutation rate.  On the full feature table that is 1201 uniforms per child
to mutate about 1.2 genes, but drawing the mutated positions another way
would change every report.  A gene is redrawn as
`low + (high - low) * rng.random()`, the doubles and the arithmetic of
`Generator.uniform(low, high)`.
The lone last child of an odd population draws nothing for its sibling.
Each child's uniforms are drawn into one buffer that `evolve` reuses, which
reads the same doubles from the stream as a fresh array would.

Inside `evolve` a genome's bias skips `BiasVector`'s checks: the first
population is drawn within the gene bounds, a mutation redraws a gene within
them and crossover swaps genes of the same position, so no gene can leave
its bounds.  The bias's weights are a view of the population row, which is
never written once it is evaluated.  `genome_to_bias` (and so `best_bias`)
keeps the checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from .features import FeatureMatrix
from .tree import (
    BiasVector, FitnessReport, InductionMemo, Tree, B_MAX, CF_MIN, CF_MAX, ERROR_COST, OMEGA_MIN, OMEGA_MAX,
    fitness, induce_tree,
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
        for name in ("population_size", "generations", "rng_seed"):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if isinstance(value := self.error_cost, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"error_cost must be a real number, got {value!r}")
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
    lows = np.concatenate([np.zeros(n_features), [OMEGA_MIN, CF_MIN]])
    highs = np.concatenate([np.full(n_features, B_MAX), [OMEGA_MAX, CF_MAX]])
    return lows, highs


def genome_to_bias(genome: np.ndarray) -> BiasVector:
    return BiasVector(genome[:-2].copy(), float(genome[-2]), float(genome[-1]))


def _unchecked_bias(genome: np.ndarray) -> BiasVector:
    """`genome_to_bias` without its copy and checks, for a genome `evolve` built."""
    bias = object.__new__(BiasVector)
    bias.__dict__.update(weights=genome[:-2], omega=float(genome[-2]), cf=float(genome[-1]))
    return bias


def evaluate_individual(
    bias: BiasVector,
    matrix: FeatureMatrix,
    costs: np.ndarray,
    config: GaConfig,
    memo: InductionMemo,
) -> tuple[Tree, FitnessReport]:
    """Induce and score the tree for one bias vector.

    The memo builds one object per tree signature, and keeps one report per
    tree object, cost vector and error cost.
    """
    tree = induce_tree(matrix, bias, memo)
    key = (id(tree), id(costs), config.error_cost)
    found = memo.fitness.get(key)
    if found is None:  # the entry holds the tree and the costs, so neither id is reused
        found = memo.fitness[key] = (tree, costs, fitness(tree, matrix, costs, error_cost=config.error_cost))
    return tree, found[2]


def _rank_probabilities(order: np.ndarray) -> np.ndarray:
    """Selection probability of each genome, given the genomes' indices from
    fittest (lowest fitness) to least fit; scale-free in fitness."""
    n = len(order)
    weights = np.empty(n)
    weights[order] = np.arange(n, 0, -1, dtype=float)
    return weights / weights.sum()


def evolve(matrix: FeatureMatrix, costs: np.ndarray, config: GaConfig) -> EvolutionResult:
    """Run the genetic search and return the fittest tree seen overall.
    Raises TypeError naming `matrix` or `config` unless they are a
    `FeatureMatrix` and a `GaConfig`."""
    if not isinstance(matrix, FeatureMatrix):
        raise TypeError(f"matrix must be a FeatureMatrix, got {type(matrix).__name__}")
    if not isinstance(config, GaConfig):
        raise TypeError(f"config must be a GaConfig, got {type(config).__name__}")
    rng = np.random.default_rng(config.rng_seed)
    size, length = config.population_size, matrix.n_features + 2
    lows, highs = _gene_bounds(matrix.n_features)
    pop = rng.uniform(lows, highs, size=(size, length))
    draws, hit = np.empty(length), np.empty(length, dtype=bool)  # one child's uniforms

    memo = InductionMemo(matrix)  # lives as long as this run
    best_tree = None
    best_report = None
    best_bias = None
    history: list[GenerationStats] = []

    for generation in range(1, config.generations + 1):
        memo.next_generation()
        evals = []
        for genome in pop:
            evals.append(evaluate_individual(_unchecked_bias(genome), matrix, costs, config, memo))
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
        cdf = np.cumsum(_rank_probabilities(order))  # Generator.choice's own recipe for p=
        cdf /= cdf[-1]
        next_pop = np.empty_like(pop)
        next_pop[:ELITISM_COUNT] = pop[order[:ELITISM_COUNT]]
        for k in range(ELITISM_COUNT, size, 2):
            pair = pop[cdf.searchsorted(rng.random(2), side="right")]  # copies of both parents
            if rng.random() < CROSSOVER_RATE:  # two-point crossover
                i, j = sorted(rng.integers(0, length + 1, size=2))
                pair[:, i:j] = pair[::-1, i:j]
            for child in pair[: size - k]:  # an odd population's lone last child mutates alone
                rng.random(out=draws)
                [idx] = np.less(draws, MUTATION_RATE, out=hit).nonzero()
                if idx.size:  # redraw as rng.uniform(low, highs[idx]) would, without its checks
                    low = lows[idx]
                    child[idx] = low + (highs[idx] - low) * rng.random(idx.size)
            next_pop[k : k + 2] = pair[: size - k]
        pop = next_pop

    return EvolutionResult(best_tree, best_report, best_bias, history)


def history_to_csv(history: Sequence[GenerationStats]) -> str:
    # str of a float is its repr
    lines = [",".join(f.name for f in fields(GenerationStats))]
    lines += [",".join(map(str, astuple(h))) for h in history]
    return "\n".join(lines) + "\n"
