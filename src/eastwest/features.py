"""Propositionalization of trains into the 1199-element boolean feature space.

Car-level predicates are lifted to whole-train features four ways: a unary
feature per predicate (some car satisfies it), a feature per unordered pair
of predicates (some single car satisfies both), a feature per ordered pair
via the infront relation (adjacent cars satisfy p and q respectively), and
a handful of train-level predicates.  Each feature carries the
size-complexity cost of the Prolog fragment that expresses it.

Cost counting rule: a literal costs 1 + its arity (one for the predicate
symbol plus one per argument occurrence, variables and constants alike);
the `not` operator adds 1.  A feature's cost is the sum over its fragment's
literals, including the scaffold literal (`has_car/2` or `infront/3`) that
binds the car variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .trains import Car, Train, EAST, LOAD_SHAPES


@dataclass(frozen=True)
class CarPredicate:
    """One of the 28 car predicates, with its cheapest literal form."""

    name: str
    cost: int
    template: str  # literal with {0} standing for the car variable
    test: Callable[[Car], bool]

    def literal(self, var: str) -> str:
        return self.template.format(var)


@dataclass(frozen=True)
class TrainPredicate:
    name: str
    cost: int
    template: str  # literal with {0} standing for the train variable
    test: Callable[[Train], bool]

    def literal(self, var: str) -> str:
        return self.template.format(var)


def _shape_test(shape):
    return lambda c: c.shape == shape


def _roof_test(roof):
    return lambda c: c.roof == roof


def _axle_test(n):
    return lambda c: c.axles == n


def _load_shape_test(shape):
    # a car "has" a load shape only when it actually carries something
    return lambda c: c.load_shape == shape and c.load_count >= 1


def _load_count_test(n):
    return lambda c: c.load_count == n


CAR_PREDICATES: tuple[CarPredicate, ...] = (
    CarPredicate("ellipse", 2, "ellipse({0})", _shape_test("ellipse")),
    CarPredicate("hexagon", 2, "hexagon({0})", _shape_test("hexagon")),
    CarPredicate("rectangle", 2, "rectangle({0})", _shape_test("rectangle")),
    CarPredicate("u_shaped", 2, "u_shaped({0})", _shape_test("u_shaped")),
    CarPredicate("bucket", 2, "bucket({0})", _shape_test("bucket")),
    CarPredicate("long", 2, "long({0})", lambda c: c.length == "long"),
    CarPredicate("short", 2, "short({0})", lambda c: c.length == "short"),
    CarPredicate("double", 2, "double({0})", lambda c: c.walls == "double"),
    CarPredicate("not_double", 3, "not double({0})", lambda c: c.walls != "double"),
    CarPredicate("open", 2, "open({0})", lambda c: c.roof == "none"),
    CarPredicate("closed", 2, "closed({0})", lambda c: c.roof != "none"),
    CarPredicate("no_roof", 4, "arg(5, {0}, none)", _roof_test("none")),
    CarPredicate("flat_roof", 4, "arg(5, {0}, flat)", _roof_test("flat")),
    CarPredicate("jagged_roof", 4, "arg(5, {0}, jagged)", _roof_test("jagged")),
    CarPredicate("peaked_roof", 4, "arg(5, {0}, peaked)", _roof_test("peaked")),
    CarPredicate("arc_roof", 4, "arg(5, {0}, arc)", _roof_test("arc")),
    CarPredicate("two_axles", 4, "arg(6, {0}, 2)", _axle_test(2)),
    CarPredicate("three_axles", 4, "arg(6, {0}, 3)", _axle_test(3)),
    CarPredicate("circle_load", 3, "has_load0({0}, circle)", _load_shape_test("circle")),
    CarPredicate("hexagon_load", 3, "has_load0({0}, hexagon)", _load_shape_test("hexagon")),
    CarPredicate("rectangle_load", 3, "has_load0({0}, rectangle)", _load_shape_test("rectangle")),
    CarPredicate("triangle_load", 3, "has_load0({0}, triangle)", _load_shape_test("triangle")),
    CarPredicate("diamond_load", 3, "has_load0({0}, diamond)", _load_shape_test("diamond")),
    CarPredicate("utriangle_load", 3, "has_load0({0}, utriangle)", _load_shape_test("utriangle")),
    CarPredicate("no_load", 3, "has_load({0}, 0)", _load_count_test(0)),
    CarPredicate("one_load", 3, "has_load({0}, 1)", _load_count_test(1)),
    CarPredicate("two_load", 3, "has_load({0}, 2)", _load_count_test(2)),
    CarPredicate("three_load", 3, "has_load({0}, 3)", _load_count_test(3)),
)

CAR_PREDICATE_INDEX = {p.name: i for i, p in enumerate(CAR_PREDICATES)}


def _train_len_test(n):
    return lambda t: len(t.cars) == n


def _train_load_test(shape):
    return lambda t: any(c.load_shape == shape and c.load_count >= 1 for c in t.cars)


TRAIN_PREDICATES: tuple[TrainPredicate, ...] = tuple(
    [
        TrainPredicate(f"train_{n}", 3, f"len1({{0}}, {n})", _train_len_test(n))
        for n in (2, 3, 4)
    ]
    + [
        TrainPredicate(f"train_{s}", 3, f"has_load1({{0}}, {s})", _train_load_test(s))
        for s in LOAD_SHAPES
    ]
)

TRAIN_PREDICATE_INDEX = {p.name: i for i, p in enumerate(TRAIN_PREDICATES)}

# scaffold literal costs: has_car(T, C) and infront(T, C1, C2)
HAS_CAR_COST = 3
INFRONT_COST = 4


# block offsets in predicate_vector()
_N_CAR = len(CAR_PREDICATES)
_SAME_CAR = _N_CAR
_INFRONT = _SAME_CAR + _N_CAR * _N_CAR
_TRAIN = _INFRONT + _N_CAR * _N_CAR
_VECTOR_LEN = _TRAIN + len(TRAIN_PREDICATES)


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
    specs: list[tuple[str, str, int, tuple[str, ...], int]] = []
    for i, p in enumerate(CAR_PREDICATES):
        specs.append(("unary", p.name, HAS_CAR_COST + p.cost, (p.name,), i))
    for i in range(_N_CAR):
        for j in range(i + 1, _N_CAR):
            p, q = CAR_PREDICATES[i], CAR_PREDICATES[j]
            specs.append(
                (
                    "pair",
                    f"{p.name}_{q.name}",
                    HAS_CAR_COST + p.cost + q.cost,
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
                    INFRONT_COST + p.cost + q.cost,
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
    P = np.array([[p.test(c) for p in CAR_PREDICATES] for c in train.cars], dtype=bool)
    return np.concatenate(
        [
            P.any(axis=0),
            (P.T @ P).ravel(),  # some car satisfies both
            (P[:-1].T @ P[1:]).ravel(),  # adjacent cars; all False for one car
            [p.test(train) for p in TRAIN_PREDICATES],
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
