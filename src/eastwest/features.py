"""Propositionalization of trains into the 1199-element boolean feature space.

Car-level predicates are lifted to whole-train features four ways: a unary
feature per predicate (some car satisfies it), a feature per unordered pair
of predicates (some single car satisfies both), a feature per ordered pair
via the infront relation (adjacent cars satisfy p and q respectively), and
a handful of train-level predicates.  Each feature carries the
size-complexity cost of the Prolog fragment that expresses it.

Predicates are data: a car predicate is one `(attribute, values)` row and
holds for a car whose `attribute` is one of `values`.  A train predicate
either counts the cars or repeats the unary `<shape>_load` value, at its
own cost.

A feature's cost is the size of its fragment under the rule that also
scores emitted programs (`trains.program_size`): one per atom, variable
and integer, so a literal costs 1 + its arity and `not` adds 1.  The
fragment includes the scaffold literal (`has_car/2` or `infront/3`) that
binds the car variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .trains import Train, EAST, LOAD_SHAPES, _tokenize, program_size


# scaffold literals binding the car variables of a fragment
HAS_CAR_TEMPLATE = "has_car(T, {0})"
INFRONT_TEMPLATE = "infront(T, {0}, {1})"


def _literal_size(template: str) -> int:
    return program_size(_tokenize(template.format("X", "Y")))


@dataclass(frozen=True)
class Predicate:
    """A train predicate, or the part common to every predicate: its cheapest
    literal form and its size."""

    name: str
    template: str  # literal with {0} standing for the car or train variable
    cost: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cost", _literal_size(self.template))

    def literal(self, var: str) -> str:
        return self.template.format(var)


@dataclass(frozen=True)
class CarPredicate(Predicate):
    """A car predicate: it holds when the car's `attribute` is one of `values`."""

    attribute: str  # a Car field or property
    values: tuple


CAR_PREDICATES: tuple[CarPredicate, ...] = (
    CarPredicate("ellipse", "ellipse({0})", "shape", ("ellipse",)),
    CarPredicate("hexagon", "hexagon({0})", "shape", ("hexagon",)),
    CarPredicate("rectangle", "rectangle({0})", "shape", ("rectangle",)),
    CarPredicate("u_shaped", "u_shaped({0})", "shape", ("u_shaped",)),
    CarPredicate("bucket", "bucket({0})", "shape", ("bucket",)),
    CarPredicate("long", "long({0})", "length", ("long",)),
    CarPredicate("short", "short({0})", "length", ("short",)),
    CarPredicate("double", "double({0})", "walls", ("double",)),
    CarPredicate("not_double", "not double({0})", "walls", ("not_double",)),
    CarPredicate("open", "open({0})", "roof", ("none",)),
    CarPredicate("closed", "closed({0})", "roof", ("flat", "jagged", "peaked", "arc")),
    CarPredicate("no_roof", "arg(5, {0}, none)", "roof", ("none",)),
    CarPredicate("flat_roof", "arg(5, {0}, flat)", "roof", ("flat",)),
    CarPredicate("jagged_roof", "arg(5, {0}, jagged)", "roof", ("jagged",)),
    CarPredicate("peaked_roof", "arg(5, {0}, peaked)", "roof", ("peaked",)),
    CarPredicate("arc_roof", "arg(5, {0}, arc)", "roof", ("arc",)),
    CarPredicate("two_axles", "arg(6, {0}, 2)", "axles", (2,)),
    CarPredicate("three_axles", "arg(6, {0}, 3)", "axles", (3,)),
    CarPredicate("circle_load", "has_load0({0}, circle)", "load", ("circle",)),
    CarPredicate("hexagon_load", "has_load0({0}, hexagon)", "load", ("hexagon",)),
    CarPredicate("rectangle_load", "has_load0({0}, rectangle)", "load", ("rectangle",)),
    CarPredicate("triangle_load", "has_load0({0}, triangle)", "load", ("triangle",)),
    CarPredicate("diamond_load", "has_load0({0}, diamond)", "load", ("diamond",)),
    CarPredicate("utriangle_load", "has_load0({0}, utriangle)", "load", ("utriangle",)),
    CarPredicate("no_load", "has_load({0}, 0)", "load_count", (0,)),
    CarPredicate("one_load", "has_load({0}, 1)", "load_count", (1,)),
    CarPredicate("two_load", "has_load({0}, 2)", "load_count", (2,)),
    CarPredicate("three_load", "has_load({0}, 3)", "load_count", (3,)),
)

TRAIN_LENGTHS = (2, 3, 4)

# train_<n>: the train has n cars; train_<s>: some car carries a load of shape s
TRAIN_PREDICATES: tuple[Predicate, ...] = tuple(
    [Predicate(f"train_{n}", f"len1({{0}}, {n})") for n in TRAIN_LENGTHS]
    + [Predicate(f"train_{s}", f"has_load1({{0}}, {s})") for s in LOAD_SHAPES]
)

PREDICATES = {p.name: p for p in CAR_PREDICATES + TRAIN_PREDICATES}


# block offsets in predicate_vector()
_N_CAR = len(CAR_PREDICATES)
_SAME_CAR = _N_CAR
_INFRONT = _SAME_CAR + _N_CAR * _N_CAR
_TRAIN = _INFRONT + _N_CAR * _N_CAR
_VECTOR_LEN = _TRAIN + len(TRAIN_PREDICATES)

# the unary entries that train_<s> repeats: "some car carries s" is <s>_load
_CARRIED = [[p.name for p in CAR_PREDICATES].index(f"{s}_load") for s in LOAD_SHAPES]


@dataclass(frozen=True)
class FeatureSpec:
    """A boolean feature over whole trains, with its fragment cost."""

    index: int
    kind: str  # "unary" | "pair" | "infront" | "train"
    name: str
    cost: int
    components: tuple[str, ...]  # car predicate names, or the train predicate name
    slot: int  # position of the feature's value in predicate_vector()


def build_feature_table(feature_set: str | Iterable[str] = "full") -> list[FeatureSpec]:
    """Build the feature table in canonical order.

    Order: 28 unary features, 378 unordered pairs (lexicographic by
    predicate indices, i < j), 784 infront pairs (row-major over all
    ordered pairs, p = q included), then 9 train features.

    `feature_set` may be "full", "unary_train" (unary + train features
    only), or an iterable of feature names selecting a custom subset;
    indices are always dense over the returned table.  Raises ValueError
    for unknown names or an empty selection.
    """
    has_car, infront = _literal_size(HAS_CAR_TEMPLATE), _literal_size(INFRONT_TEMPLATE)
    specs: list[tuple[str, str, int, tuple[str, ...], int]] = []
    for i, p in enumerate(CAR_PREDICATES):
        specs.append(("unary", p.name, has_car + p.cost, (p.name,), i))
    for i in range(_N_CAR):
        for j in range(i + 1, _N_CAR):
            p, q = CAR_PREDICATES[i], CAR_PREDICATES[j]
            specs.append(
                (
                    "pair",
                    f"{p.name}_{q.name}",
                    has_car + p.cost + q.cost,
                    (p.name, q.name),
                    _SAME_CAR + i * _N_CAR + j,
                )
            )
    for i in range(_N_CAR):
        for j in range(_N_CAR):
            p, q = CAR_PREDICATES[i], CAR_PREDICATES[j]
            specs.append(
                (
                    "infront",
                    f"{p.name}_infront_{q.name}",
                    infront + p.cost + q.cost,
                    (p.name, q.name),
                    _INFRONT + i * _N_CAR + j,
                )
            )
    for k, p in enumerate(TRAIN_PREDICATES):
        specs.append(("train", p.name, p.cost, (p.name,), _TRAIN + k))

    if feature_set == "full":
        keep = specs
    elif feature_set == "unary_train":
        keep = [s for s in specs if s[0] in ("unary", "train")]
    else:
        wanted = set(feature_set)
        by_name = {s[1]: s for s in specs}
        unknown = wanted - set(by_name)
        if unknown:
            raise ValueError(f"unknown feature names: {sorted(unknown)}")
        keep = [s for s in specs if s[1] in wanted]
    if not keep:
        raise ValueError("the feature selection is empty")

    return [
        FeatureSpec(index=i, kind=k, name=nm, cost=c, components=comp, slot=slot)
        for i, (k, nm, c, comp, slot) in enumerate(keep)
    ]


def feature_index(table: Sequence[FeatureSpec], name: str) -> int:
    for spec in table:
        if spec.name == name:
            return spec.index
    raise KeyError(name)


@dataclass
class FeatureMatrix:
    """Boolean feature values for a set of trains, plus their labels."""

    train_ids: tuple[str, ...]
    values: np.ndarray  # (n_trains, n_features), bool
    labels: np.ndarray  # (n_trains,), bool, True = eastbound

    @property
    def n_trains(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def predicate_vector(train: Train) -> np.ndarray:
    """Every car-predicate combination and train predicate of one train.

    Laid out as [28 unary | 28x28 same-car | 28x28 infront | 9 train]; a
    feature's value is the entry at its `slot`.
    """
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


def evaluate_features(trains: Sequence[Train], table: Sequence[FeatureSpec]) -> FeatureMatrix:
    """Evaluate every feature in `table` on every train."""
    vectors = np.empty((len(trains), _VECTOR_LEN), dtype=bool)
    for row, train in zip(vectors, trains):
        row[:] = predicate_vector(train)
    values = vectors[:, [spec.slot for spec in table]]
    labels = np.array([t.label == EAST for t in trains], dtype=bool)
    return FeatureMatrix(tuple(t.id for t in trains), values, labels)
