"""Propositionalization of trains into the 1199-element boolean feature space.

Car-level predicates are lifted to whole-train features four ways: a unary
feature per predicate (some car satisfies it), a feature per unordered pair
of predicates (some single car satisfies both), a feature per ordered pair
via the infront relation (adjacent cars satisfy p and q respectively), and
a handful of train-level predicates.  Each feature carries the Prolog
fragment that expresses it, and its cost is that fragment's size.

Predicates are data: a car predicate is one `(attribute, values)` row and
holds for a car whose `attribute` is one of `values`.  A train predicate
either counts the cars or repeats the unary `<shape>_load` value.

A fragment is a tuple of literal templates.  A car feature's first literal
is the scaffold (`has_car/2` or `infront/3`) that binds its car variables,
`{0}` and `{1}`; a train feature is one literal over `T`.  A fragment's
size is counted by the rule that also scores emitted programs
(`trains.program_size`): one per atom, variable and integer, so a literal
costs 1 + its arity and `not` adds 1.
"""

from __future__ import annotations

import functools
from itertools import combinations, product
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

from .trains import CAR_FIELDS, Car, Train, EAST, LOAD_SHAPES, _tokenize, program_size


# scaffold literals binding the car variables of a fragment
HAS_CAR_TEMPLATE = "has_car(T, {0})"
INFRONT_TEMPLATE = "infront(T, {0}, {1})"


class CarPredicate(NamedTuple):
    """A car predicate: it holds when the car's `attribute` is one of `values`."""

    name: str
    template: str  # its cheapest literal, with {0} standing for the car variable
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

# (name, literal over T): train_<n>, the train has n cars; train_<s>, some
# car carries a load of shape s
TRAIN_PREDICATES: tuple[tuple[str, str], ...] = tuple(
    [(f"train_{n}", f"len1(T, {n})") for n in TRAIN_LENGTHS]
    + [(f"train_{s}", f"has_load1(T, {s})") for s in LOAD_SHAPES]
)


# block offsets in predicate_bits()
_N_CAR = len(CAR_PREDICATES)
_SAME_CAR = _N_CAR
_INFRONT = _SAME_CAR + _N_CAR * _N_CAR
_TRAIN = _INFRONT + _N_CAR * _N_CAR
_VECTOR_BYTES = (_TRAIN + len(TRAIN_PREDICATES) + 7) // 8

# the unary entries that train_<s> repeats: "some car carries s" is <s>_load;
# they are contiguous and in LOAD_SHAPES order, so one shift moves them all
_CARRIED = [[p.name for p in CAR_PREDICATES].index(f"{s}_load") for s in LOAD_SHAPES]
_LOAD_MASK = (1 << len(LOAD_SHAPES)) - 1
_LENGTH_BITS = {n: 1 << _TRAIN + k for k, n in enumerate(TRAIN_LENGTHS)}


# the car fields that key each of predicate_bits' two lookup tables; every
# car predicate reads the fields of one of them (Car.load reads the second's)
_TABLE_FIELDS = (("shape", "length", "walls", "roof"), ("axles", "load_shape", "load_count"))
_table_keys = tuple(attrgetter(*fields) for fields in _TABLE_FIELDS)


@functools.cache  # built at the first train: the import and the feature table never need it
def _car_tables() -> tuple[dict, ...]:
    """Per `_TABLE_FIELDS` entry, the values of those fields for every car `Car`
    accepts -> (mask, spread) over the car predicates they satisfy: bit i of
    mask and bit 28*i of spread for each such i."""
    domains = dict(CAR_FIELDS)
    tables = []
    for fields in _TABLE_FIELDS:
        table = {}
        for values in product(*(domains[f] for f in fields)):
            car = SimpleNamespace(**dict(zip(fields, values)))
            if "load_count" in fields:
                car.load = Car.load.fget(car)
            # the other table's attributes read None, which no row holds for
            held = [i for i, p in enumerate(CAR_PREDICATES) if getattr(car, p.attribute, None) in p.values]
            table[values] = sum(1 << i for i in held), sum(1 << _N_CAR * i for i in held)
        tables.append(table)
    return tuple(tables)


class FeatureSpec(NamedTuple):
    """A boolean feature over whole trains: the Prolog fragment that
    expresses it, and that fragment's size as its cost."""

    index: int
    kind: str  # "unary" | "pair" | "infront" | "train"
    name: str
    fragment: tuple[str, ...]  # literal templates, the scaffold first (see the module docstring)
    cost: int
    components: tuple[str, ...]  # car predicate names, or the train predicate name
    slot: int  # bit of the feature's value in predicate_bits()


def build_feature_table(feature_set: str | Iterable[str] = "full") -> list[FeatureSpec]:
    """Build the feature table in canonical order.

    Order: 28 unary features, 378 unordered pairs (lexicographic by
    predicate indices, i < j), 784 infront pairs (row-major over all
    ordered pairs, p = q included), then 9 train features.

    `feature_set` may be "full", "unary_train" (unary + train features
    only), or an iterable of feature names selecting a custom subset;
    indices are always dense over the returned table.  Raises ValueError
    for any other string, unknown names (a name that is not a string is
    unknown) or an empty selection, and TypeError naming `feature_set` when
    it is neither a string nor an iterable.
    """
    if isinstance(feature_set, str) and feature_set not in ("full", "unary_train"):
        raise ValueError(
            f"unknown feature set {feature_set!r}: expected 'full', 'unary_train' "
            "or an iterable of feature names"
        )
    if not isinstance(feature_set, (str, Iterable)):
        raise TypeError(f"feature_set must be a string or an iterable of names, got {type(feature_set).__name__}")
    first = [p.template for p in CAR_PREDICATES]
    second = [t.replace("{0}", "{1}") for t in first]  # the literal on an infront pair's second car
    templates = (HAS_CAR_TEMPLATE, INFRONT_TEMPLATE, *first, *second, *(t for _, t in TRAIN_PREDICATES))
    size_of = {t: program_size(_tokenize(t.format("X", "Y"))) for t in templates}.__getitem__  # sized once each
    cars = list(enumerate(CAR_PREDICATES))
    # (kind, name, fragment, components, slot)
    specs = [("unary", p.name, (HAS_CAR_TEMPLATE, first[i]), (p.name,), i) for i, p in cars]
    specs += [
        ("pair", f"{p.name}_{q.name}", (HAS_CAR_TEMPLATE, first[i], first[j]), (p.name, q.name),
         _SAME_CAR + i * _N_CAR + j)
        for (i, p), (j, q) in combinations(cars, 2)
    ]
    specs += [
        ("infront", f"{p.name}_infront_{q.name}", (INFRONT_TEMPLATE, first[i], second[j]), (p.name, q.name),
         _INFRONT + i * _N_CAR + j)
        for (i, p), (j, q) in product(cars, repeat=2)
    ]
    specs += [("train", name, (t,), (name,), _TRAIN + k) for k, (name, t) in enumerate(TRAIN_PREDICATES)]

    if feature_set == "full":
        keep = specs
    elif feature_set == "unary_train":
        keep = [s for s in specs if s[0] in ("unary", "train")]
    else:
        names = list(feature_set)
        known = {s[1] for s in specs}
        # listed as given: names of mixed types do not sort
        unknown = [name for name in names if not (isinstance(name, str) and name in known)]
        if unknown:
            raise ValueError(f"unknown feature names: {unknown}")
        wanted = set(names)
        keep = [s for s in specs if s[1] in wanted]
    if not keep:
        raise ValueError("the feature selection is empty")

    return [
        FeatureSpec(i, kind, name, fragment, sum(map(size_of, fragment)), components, slot)
        for i, (kind, name, fragment, components, slot) in enumerate(keep)
    ]


def feature_index(table: Sequence[FeatureSpec], name: str) -> int:
    for spec in table:
        if spec.name == name:
            return spec.index
    raise KeyError(name)


class _MatrixFields(NamedTuple):
    train_ids: tuple[str, ...]
    values: np.ndarray  # (n_trains, n_features), bool
    labels: np.ndarray  # (n_trains,), bool, True = eastbound


class FeatureMatrix(_MatrixFields):
    """Boolean feature values for a set of trains, plus their labels."""

    __slots__ = ()

    def __new__(cls, train_ids, values, labels):
        # numpy is imported where a matrix is made, so the table and the
        # commands that only list it or score programs start without it
        import numpy as np

        if not (isinstance(values, np.ndarray) and values.ndim == 2 and values.dtype == bool):
            raise ValueError("feature values must be a 2-D bool array")
        if not (isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype == bool):
            raise ValueError("labels must be a 1-D bool array")
        if not len(train_ids) == len(labels) == len(values):
            raise ValueError(f"lengths differ: {len(train_ids)} ids, {len(labels)} labels, {len(values)} rows")
        return tuple.__new__(cls, (train_ids, values, labels))

    @classmethod
    def _make(cls, values):
        return cls(*values)

    @property
    def n_trains(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def pack_columns(values: np.ndarray, columns: Sequence[int]) -> list[int]:
    """The listed columns of a 2-D bool array as row sets: Python ints in
    which bit i stands for row i; no bit past the last row is set."""
    import numpy as np

    packed = np.packbits(values[:, columns].T, axis=1, bitorder="little")
    return [int.from_bytes(column.tobytes(), "little") for column in packed]


def predicate_bits(train: Train) -> int:
    """Every car-predicate combination and train predicate of one train.

    Bit `k` of the int is slot `k` of the layout [28 unary | 28x28 same-car |
    28x28 infront | 9 train]; a feature's value is the bit at its `slot`.

    A car's mask (bit i for each car predicate i it satisfies) and spread
    (bit 28*i for each) are the ORs of its entries in the two tables of
    `_car_tables`, built at the first call; train_<s> is the <s>_load bits
    of the unary block, moved into the train block by one shift.
    """
    (front, back), (front_key, back_key) = _car_tables(), _table_keys
    bits = in_front = 0  # in_front: the spread of the previous car
    for car in train.cars:
        m1, s1 = front[front_key(car)]
        m2, s2 = back[back_key(car)]
        mask, spread = m1 | m2, s1 | s2  # the two tables share no predicate
        # spread * mask is the OR of mask << 28*i over the predicates i that
        # set bit 28*i of spread: the copies fill disjoint rows, so nothing
        # carries, and the same-car and infront blocks do not overlap
        bits |= mask | (spread << _SAME_CAR | in_front << _INFRONT) * mask
        in_front = spread
    bits |= _LENGTH_BITS.get(len(train.cars), 0)
    return bits | (bits >> _CARRIED[0] & _LOAD_MASK) << _TRAIN + len(TRAIN_LENGTHS)


def evaluate_features(trains: Sequence[Train], table: Sequence[FeatureSpec]) -> FeatureMatrix:
    """Evaluate every feature in `table` on every train."""
    import numpy as np

    packed = b"".join(predicate_bits(t).to_bytes(_VECTOR_BYTES, "little") for t in trains)
    # bit k of a train's int is bit k % 8 of byte k // 8 of its bytes
    slots = np.array([spec.slot for spec in table], dtype=np.intp)
    values = np.frombuffer(packed, np.uint8).reshape(-1, _VECTOR_BYTES)[:, slots >> 3]
    del packed
    values >>= (slots & 7).astype(np.uint8)
    values &= 1
    values = values.view(bool)
    labels = np.array([t.label == EAST for t in trains], dtype=bool)
    return FeatureMatrix(tuple(t.id for t in trains), values, labels)
