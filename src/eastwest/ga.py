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
rank probabilities), one for crossover and, when it crosses, two cut points
(`Generator.integers(0, length + 1, size=2)`), then for each child one
uniform per gene, followed by one more for each gene under the mutation
rate, which redraws it.  On the full feature table that is 1201 uniforms per
child to mutate about 1.2 genes, but drawing the mutated positions another
way would change every report.  A gene is redrawn as
`low + (high - low) * rng.random()`, the doubles and the arithmetic of
`Generator.uniform(low, high)`.
The lone last child of an odd population draws nothing for its sibling.

`_breed` reads one generation's draws from one block of PCG64's raw 64-bit
words (`random_raw`), not through about 15 `Generator` calls per pair, and
takes the same numbers from the same words:
- a uniform is `(word >> 11) * 2**-53`, so a gene mutates iff
  `word >> 11 < ceil(MUTATION_RATE * 2**53)`;
- a cut point is Lemire's method on a 32-bit half, `(half * span) >> 32`
  with `span = length + 1`, drawn again while the product's low 32 bits are
  below `(2**32 - span) % span`.  A word gives its low half first, then its
  high half, and the generator keeps a high half no draw used
  (`has_uint32`, `uinteger` in its state) for the next cut point, which may
  come generations later;
- the block is extended when the walk runs past its end, and the generator
  is then set back and advanced past the words read, with that half, so it
  stands where the per-pair calls leave it.
The tests keep the per-pair loop as the reference for both the population
and the generator's state.

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
from bisect import bisect_left, bisect_right
from dataclasses import astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from .features import FeatureMatrix
from .tree import (
    BiasVector, FitnessReport, InductionMemo, Tree, B_MAX, CF_MIN, CF_MAX, ERROR_COST, OMEGA_MIN, OMEGA_MAX,
    _check_matrix, fitness, induce_tree,
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
        found = memo.fitness[key] = (tree, costs, fitness(tree, matrix, costs, error_cost=config.error_cost, memo=memo))
    return tree, found[2]


def _rank_probabilities(order: np.ndarray) -> np.ndarray:
    """Selection probability of each genome, given the genomes' indices from
    fittest (lowest fitness) to least fit; scale-free in fitness."""
    n = len(order)
    weights = np.empty(n)
    weights[order] = np.arange(n, 0, -1, dtype=float)
    return weights / weights.sum()


def _breed(pop: np.ndarray, order: np.ndarray, lows: np.ndarray, highs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The next population, bred from `pop`, whose genomes `order` lists from
    fittest to least fit, by the block walk of the module docstring."""
    size, length = pop.shape
    cdf = np.cumsum(_rank_probabilities(order))  # Generator.choice's own recipe for p=
    cdf = (cdf / cdf[-1]).tolist()
    limit = math.ceil(MUTATION_RATE * 2**53) << 11  # a gene mutates iff its word is below this
    span = length + 1  # a cut point lies in [0, length]
    reject = (2**32 - span) % span  # Lemire's method draws again below this
    bits = rng.bit_generator
    saved = bits.state
    has_half, half = saved["has_uint32"], saved["uinteger"]  # PCG64's buffered upper half of a word
    block, hits = np.empty(0, np.uint64), []  # the words, and the positions of those below the limit

    def reach(end: int) -> None:  # extends the block to at least `end` words
        nonlocal block
        if end > (start := block.size):
            # a population's worth of words covers a generation's draws
            # unless it mutates many genes, and a block no larger than the
            # population leaves the allocator memory it can hand to the next
            # population (4 more words per genome read ru_maxrss 0.3 MB
            # higher on trains20)
            more = bits.random_raw(max(end - start, size * length))
            # at rate 1 the limit is 2**64, past uint64, and every word is
            # below it; comparing `more >> 11` with the unshifted bound needs
            # no such case, but its temporary took _breed from 0.34 to 0.63 ms
            # per generation of 50 x 1201 genes, and five trains20 evolves
            # read ru_maxrss 0.5 MB higher
            hits.extend(range(start, start + more.size) if limit >= 2**64 else (np.flatnonzero(more < limit) + start).tolist())
            block = np.concatenate((block, more)) if start else more

    rows = order[:ELITISM_COUNT].tolist()  # the parent of each row of the next population
    crossings, redrawn_rows, redrawn_genes, redraw_words = [], [], [], []
    at = 0  # the next word to read
    for k in range(ELITISM_COUNT, size, 2):
        reach(at + 3)
        a, b, cross = block[at : at + 3].tolist()  # two parents, then the crossover draw
        at += 3
        pair = bisect_right(cdf, (a >> 11) * 2.0**-53), bisect_right(cdf, (b >> 11) * 2.0**-53)
        rows += pair
        if (cross >> 11) * 2.0**-53 < CROSSOVER_RATE:
            cuts = []
            while len(cuts) < 2:  # Generator.integers(0, span, size=2): Lemire's method on 32-bit halves
                if has_half:
                    has_half, value = 0, half
                else:
                    reach(at + 1)
                    word = int(block[at])
                    at += 1
                    has_half, half, value = 1, word >> 32, word & 0xFFFFFFFF
                product = value * span
                if product & 0xFFFFFFFF >= reject:
                    cuts.append(product >> 32)
            crossings.append((k, *sorted(cuts), *pair))
        for row in range(k, min(k + 2, size)):  # an odd population's lone last child draws alone
            end = at + length
            reach(end)
            first = bisect_left(hits, at)
            mutated = bisect_left(hits, end, first) - first
            if mutated:  # one redraw word per mutated gene, after the child's genes
                reach(end + mutated)
                redrawn_rows += [row] * mutated
                redrawn_genes += [p - at for p in hits[first : first + mutated]]
                redraw_words += range(end, end + mutated)
            at = end + mutated
    draws = (block[redraw_words] >> 11) * 2.0**-53
    block = None  # released before the next population is allocated
    bits.state = saved
    bits.advance(at)
    state = bits.state  # advance empties the half buffer
    state.update(has_uint32=has_half, uinteger=half)
    bits.state = state

    next_pop = pop.take(rows[:size], axis=0)
    for k, i, j, a, b in crossings:  # two-point crossover
        next_pop[k, i:j] = pop[b, i:j]
        if k + 1 < size:
            next_pop[k + 1, i:j] = pop[a, i:j]
    genes = np.array(redrawn_genes, dtype=np.intp)
    low = lows[genes]  # redrawn as rng.uniform(low, highs[genes]) would, without its checks
    next_pop[redrawn_rows, genes] = low + (highs[genes] - low) * draws
    return next_pop


def evolve(matrix: FeatureMatrix, costs: np.ndarray, config: GaConfig) -> EvolutionResult:
    """Run the genetic search and return the fittest tree seen overall.
    Raises TypeError naming `matrix` or `config` unless they are a
    `FeatureMatrix` and a `GaConfig`."""
    _check_matrix(matrix)
    if not isinstance(config, GaConfig):
        raise TypeError(f"config must be a GaConfig, got {type(config).__name__}")
    rng = np.random.default_rng(config.rng_seed)
    lows, highs = _gene_bounds(matrix.n_features)
    pop = rng.uniform(lows, highs, size=(config.population_size, matrix.n_features + 2))

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

        pop = _breed(pop, np.argsort(fitnesses, kind="stable"), lows, highs, rng)

    return EvolutionResult(best_tree, best_report, best_bias, history)


def history_to_csv(history: Sequence[GenerationStats]) -> str:
    # str of a float is its repr
    lines = [",".join(f.name for f in fields(GenerationStats))]
    lines += [",".join(map(str, astuple(h))) for h in history]
    return "\n".join(lines) + "\n"
