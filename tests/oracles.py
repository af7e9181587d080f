"""Independent reference implementations used as test oracles.

Everything here is written directly from first principles (slow, literal,
per-train Python) and deliberately shares no helper code with the package,
so a bug in the vectorized implementations cannot hide in its own oracle.
"""

import math
import re

# --- tokenizer with named groups and offsets -------------------------------

_NAMED_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<neck>:-)
      | (?P<int>\d+)
      | (?P<atom>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<punct>[()\[\],.;])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def reference_tokenize(source: str):
    """Tokens as (kind, text, offset), read off one named group per kind;
    punctuation is its own kind and whitespace and comments are dropped.

    A bad character raises TrainFormatError at its line and column.
    """
    from eastwest.trains import TrainFormatError

    tokens = []
    for m in _NAMED_TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        if kind == "bad":
            offset = m.start()
            line = source.count("\n", 0, offset) + 1
            column = offset - source.rfind("\n", 0, offset)
            raise TrainFormatError(f"unexpected character {m.group()!r}", line, column)
        text = m.group()
        tokens.append((text if kind == "punct" else kind, text, m.start()))
    return tokens


# --- brute-force feature evaluation ----------------------------------------

# Car-level predicates, re-stated literally (keys match the package's
# canonical predicate names).
CAR_TESTS = {
    "ellipse": lambda c: c.shape == "ellipse",
    "hexagon": lambda c: c.shape == "hexagon",
    "rectangle": lambda c: c.shape == "rectangle",
    "u_shaped": lambda c: c.shape == "u_shaped",
    "bucket": lambda c: c.shape == "bucket",
    "long": lambda c: c.length == "long",
    "short": lambda c: c.length == "short",
    "double": lambda c: c.walls == "double",
    "not_double": lambda c: c.walls == "not_double",
    "open": lambda c: c.roof == "none",
    "closed": lambda c: c.roof in ("flat", "jagged", "peaked", "arc"),
    "no_roof": lambda c: c.roof == "none",
    "flat_roof": lambda c: c.roof == "flat",
    "jagged_roof": lambda c: c.roof == "jagged",
    "peaked_roof": lambda c: c.roof == "peaked",
    "arc_roof": lambda c: c.roof == "arc",
    "two_axles": lambda c: c.axles == 2,
    "three_axles": lambda c: c.axles == 3,
    "circle_load": lambda c: c.load_count > 0 and c.load_shape == "circle",
    "hexagon_load": lambda c: c.load_count > 0 and c.load_shape == "hexagon",
    "rectangle_load": lambda c: c.load_count > 0 and c.load_shape == "rectangle",
    "triangle_load": lambda c: c.load_count > 0 and c.load_shape == "triangle",
    "diamond_load": lambda c: c.load_count > 0 and c.load_shape == "diamond",
    "utriangle_load": lambda c: c.load_count > 0 and c.load_shape == "utriangle",
    "no_load": lambda c: c.load_count == 0,
    "one_load": lambda c: c.load_count == 1,
    "two_load": lambda c: c.load_count == 2,
    "three_load": lambda c: c.load_count == 3,
}

TRAIN_TESTS = {
    "train_2": lambda t: len(t.cars) == 2,
    "train_3": lambda t: len(t.cars) == 3,
    "train_4": lambda t: len(t.cars) == 4,
    "train_circle": lambda t: any(
        c.load_count > 0 and c.load_shape == "circle" for c in t.cars
    ),
    "train_hexagon": lambda t: any(
        c.load_count > 0 and c.load_shape == "hexagon" for c in t.cars
    ),
    "train_rectangle": lambda t: any(
        c.load_count > 0 and c.load_shape == "rectangle" for c in t.cars
    ),
    "train_triangle": lambda t: any(
        c.load_count > 0 and c.load_shape == "triangle" for c in t.cars
    ),
    "train_diamond": lambda t: any(
        c.load_count > 0 and c.load_shape == "diamond" for c in t.cars
    ),
    "train_utriangle": lambda t: any(
        c.load_count > 0 and c.load_shape == "utriangle" for c in t.cars
    ),
}


def brute_force_value(spec, train) -> bool:
    """Evaluate one feature on one train by direct iteration over cars."""
    if spec.kind == "unary":
        p = CAR_TESTS[spec.components[0]]
        return any(p(c) for c in train.cars)
    if spec.kind == "pair":
        p = CAR_TESTS[spec.components[0]]
        q = CAR_TESTS[spec.components[1]]
        return any(p(c) and q(c) for c in train.cars)
    if spec.kind == "infront":
        p = CAR_TESTS[spec.components[0]]
        q = CAR_TESTS[spec.components[1]]
        for i in range(len(train.cars) - 1):
            if p(train.cars[i]) and q(train.cars[i + 1]):
                return True
        return False
    if spec.kind == "train":
        return TRAIN_TESTS[spec.components[0]](train)
    raise ValueError(f"unknown feature kind {spec.kind!r}")


# --- information gain -------------------------------------------------------

def binary_entropy(pos: int, n: int) -> float:
    if n == 0 or pos == 0 or pos == n:
        return 0.0
    p = pos / n
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def information_gain_oracle(column, labels) -> float:
    """Plain entropy gain of a boolean split, computed with loops."""
    n = len(labels)
    pos = sum(1 for y in labels if y)
    parent = binary_entropy(pos, n)
    n1 = sum(1 for v in column if v)
    pos1 = sum(1 for v, y in zip(column, labels) if v and y)
    n0, pos0 = n - n1, pos - pos1
    child = (n1 / n) * binary_entropy(pos1, n1) + (n0 / n) * binary_entropy(pos0, n0)
    return parent - child


def float_entropy(pos, n):
    """Binary entropy of `pos` positives out of `n`, elementwise over float
    arrays; 0 where n = 0 or the split is pure. The entropies every entry of
    the package's table must equal bit for bit."""
    import numpy as np

    pos = np.asarray(pos, dtype=float)
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, pos / np.maximum(n, 1), 0.0)
        h = -(np.where(p > 0, p * np.log2(np.maximum(p, 1e-300)), 0.0)
              + np.where(p < 1, (1 - p) * np.log2(np.maximum(1 - p, 1e-300)), 0.0))
    return np.where(n > 0, h, 0.0)


def float_gains(values, labels):
    """Information gains of every column, with the entropies computed from
    float arrays at every call: the arithmetic the package's entropy table
    must reproduce bit for bit."""
    import numpy as np

    m = values.shape[0]
    pos = labels.sum()
    n1 = values.sum(axis=0)
    pos1 = values[labels].sum(axis=0) if pos else np.zeros(values.shape[1])
    n0 = m - n1
    child = (n1 / m) * float_entropy(pos1, n1) + (n0 / m) * float_entropy(pos - pos1, n0)
    return np.maximum(float_entropy(pos, m) - child, 0.0)


TABULATED = 1199 // 4  # the memo's cap on a numerator table's cells over the full feature table


def tabulated_cells():
    """(m, pos, n1, pos1) for each subset shape whose numerators a memo over the
    full feature table tabulates (0 < pos < m, (m + 1)(pos + 1) <= TABULATED),
    with `n1` and `pos1` listing every (examples, east examples) count pair a
    feature can hold for there, as int arrays."""
    import numpy as np

    for m in range(2, TABULATED):
        for pos in range(1, m):
            if (m + 1) * (pos + 1) > TABULATED:
                break
            pairs = [(a, b) for a in range(m + 1) for b in range(max(0, a - (m - pos)), min(a, pos) + 1)]
            n1, pos1 = np.array(pairs).T
            yield m, pos, n1, pos1


def selection_score_oracle(gain: float, bias: float, omega: float) -> float:
    return (2.0 ** gain - 1.0) / (bias + 1.0) ** omega


# --- exact binomial upper confidence bound ----------------------------------

def binomial_cdf(errors: int, n: int, p: float) -> float:
    return sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(errors + 1)
    )


def binomial_upper_bound(errors: int, n: int, cf: float) -> float:
    """The p with P(X <= errors | n, p) = cf/100, found by bisection."""
    if n == 0:
        return 0.0
    if errors >= n:
        return 1.0
    target = cf / 100.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binomial_cdf(errors, n, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- unmemoized tree induction ----------------------------------------------

def reference_induce(matrix, bias):
    """Grow and prune a tree with gains recomputed at every node and the
    pessimistic bound taken from `scipy.stats.beta.ppf`.

    The gains are computed from float arrays at every node, the way the
    package did before it read entropies from a table of integer counts.
    This path is kept on purpose, so the oracle stays independent of the
    table, the candidate lists and every memo. The table reproduces these
    floats bit for bit (`test_tree` checks it against `float_gains`, which
    this oracle calls), so argmax ties break the same way in both.
    """
    import numpy as np
    from scipy.stats import beta

    from eastwest.tree import Leaf, Node

    values, labels = matrix.values, matrix.labels

    def majority(y):
        pos = int(y.sum())
        return "east" if pos >= y.size - pos else "west"

    def grow(idx):
        y = labels[idx]
        pos = int(y.sum())
        if pos == 0 or pos == idx.size:
            return Leaf("east" if pos else "west", idx.size)
        g = float_gains(values[idx], y)
        scores = (2.0 ** g - 1.0) / (bias.weights + 1.0) ** bias.omega
        scores = np.where(g <= 1e-12, -np.inf, scores)
        best = int(np.argmax(scores))
        if not np.isfinite(scores[best]):
            return Leaf(majority(y), idx.size)
        col = values[idx, best]
        return Node(best, grow(idx[col]), grow(idx[~col]))

    def bound(errors, n):
        if n == 0:
            return 0.0
        if errors >= n:
            return 1.0
        return float(beta.ppf(1.0 - bias.cf / 100.0, errors + 1, n - errors))

    def prune(node, idx):
        y = labels[idx]
        if isinstance(node, Leaf):
            errors = int((y != (node.label == "east")).sum())
            return Leaf(node.label, idx.size), idx.size * bound(errors, idx.size)
        if idx.size == 0:
            return node, 0.0
        col = values[idx, node.feature]
        on_true, est_t = prune(node.on_true, idx[col])
        on_false, est_f = prune(node.on_false, idx[~col])
        label = majority(y)
        leaf_est = idx.size * bound(int((y != (label == "east")).sum()), idx.size)
        if leaf_est < est_t + est_f:
            return Leaf(label, idx.size), leaf_est
        return Node(node.feature, on_true, on_false), est_t + est_f

    everyone = np.arange(matrix.n_trains)
    return prune(grow(everyone), everyone)[0]


def reference_predict(tree, matrix):
    """Predictions (True = east) of a tree, walked from the root once for each row."""
    import numpy as np

    from eastwest.tree import Node

    out = np.empty(matrix.n_trains, dtype=bool)
    for i, row in enumerate(matrix.values):
        node = tree
        while isinstance(node, Node):
            node = node.on_true if row[node.feature] else node.on_false
        out[i] = node.label == "east"
    return out


# --- DNF evaluation and fixpoint simplification ------------------------------

def reference_evaluate_dnf(dnf, values):
    """Boolean east-predictions of a DNF on feature-matrix rows: one column
    compare per literal, ANDed per conjunction and ORed over the DNF."""
    import numpy as np

    out = np.zeros(values.shape[0], dtype=bool)
    for conj in dnf:
        sat = np.ones(values.shape[0], dtype=bool)
        for feat, val in conj:
            sat &= values[:, feat] == bool(val)
        out |= sat
    return out


def reference_simplify(theory, matrix):
    """Drop literals whose removal leaves every training prediction unchanged.

    Negated literals are tried first, then positive ones; repeats to a
    fixpoint, re-evaluating the whole DNF for every candidate literal.
    """
    import numpy as np

    from eastwest.theory import Theory

    target = reference_evaluate_dnf(theory.dnf, matrix.values)
    dnf = [list(conj) for conj in theory.dnf]
    changed = True
    while changed:
        changed = False
        for wanted_value in (0, 1):
            for ci, conj in enumerate(dnf):
                i = 0
                while i < len(conj):
                    if conj[i][1] != wanted_value:
                        i += 1
                        continue
                    candidate = [tuple(c) for c in dnf]
                    candidate[ci] = tuple(conj[:i] + conj[i + 1:])
                    if np.array_equal(reference_evaluate_dnf(candidate, matrix.values), target):
                        del conj[i]
                        changed = True
                    else:
                        i += 1
    return Theory(dnf=tuple(tuple(c) for c in dnf))


# --- the numpy predicate vector ---------------------------------------------

def reference_predicate_vector(train):
    """Every car-predicate combination and train predicate of one train, as
    a bool array laid out [28 unary | 28x28 same-car | 28x28 infront | 9
    train]; a feature's value is the entry at its `slot`.

    The package's former numpy evaluation, kept as the differential oracle
    of `features.predicate_bits`; unlike the rest of this file it reads the
    package's predicate rows, which `brute_force_value` re-states.
    """
    import numpy as np

    from eastwest.features import _CARRIED, CAR_PREDICATES, TRAIN_LENGTHS

    P = np.array(
        [[getattr(c, p.attribute) in p.values for p in CAR_PREDICATES] for c in train.cars],
        dtype=bool,
    )
    some_car = P.any(axis=0)
    return np.concatenate(
        [
            some_car,
            (P.T @ P).ravel(),  # some car satisfies both
            (P[:-1].T @ P[1:]).ravel(),  # adjacent cars; all False for one car
            [len(train.cars) == n for n in TRAIN_LENGTHS],
            some_car[_CARRIED],
        ]
    )


# --- the genetic search, one list of children per generation -----------------

def reference_evolve(matrix, costs, config):
    """`ga.evolve` as it was before its generation loop wrote the children into
    a preallocated population: parents drawn with `rng.choice(p=...)`, each
    child a copy that `_mutate` redraws, the next population built from a list.

    Like `ga.evolve`, it induces and scores every genome with
    `ga.evaluate_individual` over one memo per run, so it checks only the
    generation loop and the random stream it reads.
    """
    import numpy as np

    from eastwest.ga import (
        CROSSOVER_RATE, ELITISM_COUNT, MUTATION_RATE, EvolutionResult, GenerationStats,
        _gene_bounds, _rank_probabilities, evaluate_individual, genome_to_bias,
    )
    from eastwest.tree import InductionMemo

    def _crossover(a, b, rng):
        length = len(a)
        i, j = sorted(rng.integers(0, length + 1, size=2))
        child_a, child_b = a.copy(), b.copy()
        child_a[i:j], child_b[i:j] = b[i:j], a[i:j]
        return child_a, child_b

    def _mutate(genome, lows, highs, rng):
        mask = rng.random(len(genome)) < MUTATION_RATE
        if mask.any():
            genome = genome.copy()
            genome[mask] = rng.uniform(lows[mask], highs[mask])
        return genome

    rng = np.random.default_rng(config.rng_seed)
    n = matrix.n_features
    lows, highs = _gene_bounds(n)
    pop = rng.uniform(lows, highs, size=(config.population_size, n + 2))

    memo = InductionMemo(matrix)
    best_tree = None
    best_report = None
    best_bias = None
    history = []

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
        probs = _rank_probabilities(order)
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


def reference_breed(pop, order, lows, highs, rng):
    """`ga._breed` as a loop over pairs of children, each pair read from the
    stream through `Generator` calls: the parents as `Generator.choice(p=...)`
    draws them, the crossover draw and cut points, then each child's uniforms
    and its redraws. The lone last child of an odd population draws nothing
    for its sibling."""
    import numpy as np

    from eastwest.ga import CROSSOVER_RATE, ELITISM_COUNT, MUTATION_RATE, _rank_probabilities

    size, length = pop.shape
    cdf = np.cumsum(_rank_probabilities(order))  # Generator.choice's own recipe for p=
    cdf /= cdf[-1]
    draws, hit = np.empty(length), np.empty(length, dtype=bool)  # one child's uniforms
    next_pop = np.empty_like(pop)
    next_pop[:ELITISM_COUNT] = pop[order[:ELITISM_COUNT]]
    for k in range(ELITISM_COUNT, size, 2):
        pair = pop[cdf.searchsorted(rng.random(2), side="right")]  # copies of both parents
        if rng.random() < CROSSOVER_RATE:  # two-point crossover
            i, j = sorted(rng.integers(0, length + 1, size=2))
            pair[:, i:j] = pair[::-1, i:j]
        for child in pair[: size - k]:
            rng.random(out=draws)
            [idx] = np.less(draws, MUTATION_RATE, out=hit).nonzero()
            if idx.size:  # redraw as rng.uniform(low, highs[idx]) would, without its checks
                low = lows[idx]
                child[idx] = low + (highs[idx] - low) * rng.random(idx.size)
        next_pop[k : k + 2] = pair[: size - k]
    return next_pop


# --- running an emitted program ---------------------------------------------

# the challenge's background predicates over c/7 car terms,
# c(Position, Shape, Length, Walls, Roof, Axles, l(LoadShape, LoadCount)):
# a car's N-th argument is item N of its tuple
_CAR_ARGUMENT_NAMES = {
    "ellipse": (2, "ellipse"),
    "hexagon": (2, "hexagon"),
    "rectangle": (2, "rectangle"),
    "u_shaped": (2, "u_shaped"),
    "bucket": (2, "bucket"),
    "long": (3, "long"),
    "short": (3, "short"),
    "double": (4, "double"),
    "open": (5, "none"),
}


def _is_var(term) -> bool:
    return isinstance(term, str) and (term[0].isupper() or term[0] == "_")


def _value(env, term):
    """A term under the bindings `env`: a bound variable's value, an unbound
    variable itself, or the constant."""
    return env.get(term, term) if _is_var(term) else term


def _unify(env, term, value):
    """`env` extended so that `term` equals the ground `value`, or None."""
    term = _value(env, term)
    if _is_var(term):
        return {**env, term: value}
    return env if term == value else None


def _ground(env, term):
    value = _value(env, term)
    if _is_var(value):
        raise ValueError(f"instantiation error: {term} is unbound")
    return value


def _background(env, name, args):
    """Every extension of `env` under which the call `name(args)` holds."""
    if name == "true" and not args:
        yield env
    elif name == "has_car":
        for car in _ground(env, args[0]):
            if (found := _unify(env, args[1], car)) is not None:
                yield found
    elif name == "infront":
        cars = _ground(env, args[0])
        for first, second in zip(cars, cars[1:]):
            found = _unify(env, args[1], first)
            if found is not None and (found := _unify(found, args[2], second)) is not None:
                yield found
    elif name == "len1":
        if (found := _unify(env, args[1], len(_ground(env, args[0])))) is not None:
            yield found
    elif name == "has_load1":  # has_car(T, C), has_load0(C, Shape)
        for car in _ground(env, args[0]):
            yield from _background(env, "has_load0", (car, args[1]))
    elif name == "has_load0":  # arg(7, C, l(Shape, N)), N >= 1
        _, shape, count = _ground(env, args[0])[7]
        if count >= 1 and (found := _unify(env, args[1], shape)) is not None:
            yield found
    elif name == "has_load":  # arg(7, C, l(_, N))
        if (found := _unify(env, args[1], _ground(env, args[0])[7][2])) is not None:
            yield found
    elif name == "arg":
        if (found := _unify(env, args[2], _ground(env, args[1])[_ground(env, args[0])])) is not None:
            yield found
    elif name == "closed":  # arg(5, C, R), R \== none
        if _ground(env, args[0])[5] != "none":
            yield env
    elif name in _CAR_ARGUMENT_NAMES and len(args) == 1:  # arg(N, C, value)
        n, value = _CAR_ARGUMENT_NAMES[name]
        yield from _background(env, "arg", (n, args[0], value))
    else:
        raise ValueError(f"unknown predicate {name}/{len(args)}")


def _solve(goal, env):
    """Every extension of `env` under which `goal` holds, found by
    backtracking as Prolog would (depth first, left to right)."""
    kind = goal[0]
    if kind == ",":
        first, *rest = goal[1]
        for found in _solve(first, env):
            yield from (_solve((",", rest), found) if rest else [found])
    elif kind == ";":
        for alternative in goal[1]:
            yield from _solve(alternative, env)
    elif kind == "not":  # negation as failure
        if next(_solve(goal[1], env), None) is None:
            yield env
    else:
        yield from _background(env, goal[1], goal[2])


class _ProgramReader:
    """Clauses of a Prolog text: `,` binds tighter than `;`, `not` is a
    prefix operator or a call, and there are no operators besides."""

    def __init__(self, text: str):
        self.tokens = [t for t in re.findall(r"%[^\n]*|:-|\d+|\w+|\S", text) if t[0] != "%"]
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        token = self.peek()
        if token is None or expected is not None and token != expected:
            raise ValueError(f"expected {expected or 'a token'} at token {self.i}, found {token!r}")
        self.i += 1
        return token

    def clauses(self):
        """(head, body) per clause; a fact's body is `true`."""
        while self.peek() is not None:
            head, body = self.primary(), ("call", "true", ())
            if self.peek() == ":-":
                self.take()
                body = self.disjunction()
            self.take(".")
            yield head, body

    def disjunction(self):
        goals = [self.conjunction()]
        while self.peek() == ";":
            self.take()
            goals.append(self.conjunction())
        return (";", goals) if len(goals) > 1 else goals[0]

    def conjunction(self):
        goals = [self.primary()]
        while self.peek() == ",":
            self.take()
            goals.append(self.primary())
        return (",", goals) if len(goals) > 1 else goals[0]

    def primary(self):
        if self.peek() == "(":
            self.take()
            goal = self.disjunction()
            self.take(")")
            return goal
        name = self.take()
        if not name[0].islower():
            raise ValueError(f"expected a predicate name, found {name!r}")
        if name == "not":
            return ("not", self.primary())
        args = []
        if self.peek() == "(":
            self.take()
            args.append(self.term())
            while self.peek() == ",":
                self.take()
                args.append(self.term())
            self.take(")")
        return ("call", name, tuple(args))

    def term(self):
        token = self.take()
        if token.isdigit():
            return int(token)
        if not (token[0].isalpha() or token[0] == "_"):
            raise ValueError(f"expected a term, found {token!r}")
        return token


def run_eastbound(program_text: str, train) -> bool:
    """Whether `eastbound(T)` holds for `train` under the program, run by a
    small Prolog interpreter over the challenge's background predicates.

    The train is the list of its cars, each the c/7 term the challenge
    gives it.  Only `eastbound/1` clauses are read; no clause means no
    train is eastbound.
    """
    cars = tuple(
        ("c", c.position, c.shape, c.length, c.walls, c.roof, c.axles, ("l", c.load_shape, c.load_count))
        for c in train.cars
    )
    for head, body in _ProgramReader(program_text).clauses():
        if head[:2] != ("call", "eastbound") or len(head[2]) != 1:
            raise ValueError(f"not an eastbound/1 clause: {head}")
        env = _unify({}, head[2][0], cars)
        if env is not None and next(_solve(body, env), None) is not None:
            return True
    return False


def reference_program_size(dnf, table) -> int:
    """The size of the program `render_program` emits for `dnf`, counted
    from the feature costs: 2 for `eastbound(T)` and 1 for its `:-`, 1 per
    `;`, a positive literal at its feature's cost, a negated one at 1 more
    for its `not`, and 1 for an empty disjunct's `true`; a lone empty
    conjunction is the fact `eastbound(T).` and no conjunction is no program.

    When two or more disjuncts hold a positive unary or pair literal, one
    `has_car(T, C)` (3) goes in front of the disjunction, and the first such
    literal of each disjunct drops its own `has_car` (3).
    """
    if not dnf:
        return 0
    if dnf == ((),):
        return 2
    hoistable = [
        next((i for i, (f, value) in enumerate(conj) if value and table[f].kind in ("unary", "pair")), None)
        for conj in dnf
    ]
    hoist = sum(i is not None for i in hoistable) >= 2
    size = 3 + len(dnf) - 1 + 3 * hoist
    for conj, hoisted in zip(dnf, hoistable):
        size += sum(table[f].cost + 1 - value - 3 * (hoist and i == hoisted) for i, (f, value) in enumerate(conj))
        size += not conj
    return size
