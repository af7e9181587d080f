from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastwest import features
from eastwest.features import (
    CAR_PREDICATES,
    TRAIN_LENGTHS,
    FeatureMatrix,
    build_feature_table,
    evaluate_features,
    feature_index,
    predicate_bits,
)
from eastwest.theory import complexity
from eastwest.trains import CAR_FIELDS, LABELS, LOAD_SHAPES, Car, Train, random_trains

from oracles import brute_force_value, reference_predicate_vector
from test_cli import _fresh_python
from test_theory import SUBSET_TABLES


def test_feature_space_cardinality(full_table):
    assert len(full_table) == 1199
    kinds = [s.kind for s in full_table]
    assert kinds.count("unary") == 28
    assert kinds.count("pair") == 378
    assert kinds.count("infront") == 784
    assert kinds.count("train") == 9


def test_canonical_order_and_dense_indices(full_table):
    assert [s.index for s in full_table] == list(range(1199))
    assert [s.kind for s in full_table[:28]] == ["unary"] * 28
    assert full_table[0].name == "ellipse"
    assert full_table[28].name == "ellipse_hexagon"
    assert full_table[-1].name == "train_utriangle"


@pytest.mark.parametrize(
    "name,cost",
    [
        ("ellipse", 5),
        ("short_closed", 7),
        ("train_4", 3),
        ("train_hexagon", 3),
        ("ellipse_peaked_roof", 9),
        ("u_shaped_no_load", 8),
        ("rectangle_load_infront_jagged_roof", 11),
        ("u_shaped", 5),
        ("jagged_roof", 7),
        ("not_double", 6),
        ("train_2", 3),
    ],
)
def test_feature_costs(full_table, name, cost):
    assert full_table[feature_index(full_table, name)].cost == cost


def test_pair_and_infront_cost_rule(full_table):
    # each predicate's literal is sized by the program scorer, apart from the table
    by_name = {p.name: complexity(p.template.format("C") + ".") for p in CAR_PREDICATES}
    for spec in full_table:
        if spec.kind == "pair":
            assert spec.cost == 3 + by_name[spec.components[0]] + by_name[spec.components[1]]
        elif spec.kind == "infront":
            assert spec.cost == 4 + by_name[spec.components[0]] + by_name[spec.components[1]]


def test_first_train_feature_values(trains20, matrix20, full_table):
    row = matrix20.values[0]
    assert matrix20.train_ids[0] == "east1"
    assert row[feature_index(full_table, "short_closed")]
    assert not row[feature_index(full_table, "ellipse")]
    assert row[feature_index(full_table, "train_4")]
    assert not row[feature_index(full_table, "u_shaped")]
    assert row[feature_index(full_table, "train_circle")]


def test_contradictory_shape_pair_never_fires(matrix20, full_table):
    col = matrix20.values[:, feature_index(full_table, "ellipse_rectangle")]
    assert not col.any()


def test_single_car_train_has_no_infront_features(full_table):
    from eastwest.trains import Car, Train

    train = Train("east1", "east", (Car(1, "rectangle", "short", "not_double", "none", 2, "circle", 1),))
    matrix = evaluate_features([train], full_table)
    for spec in full_table:
        if spec.kind == "infront":
            assert not matrix.values[0, spec.index]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_pair_and_infront_imply_unaries(full_table, seed):
    trains = random_trains(4, seed)
    matrix = evaluate_features(trains, full_table)
    unary_col = {
        s.components[0]: matrix.values[:, s.index] for s in full_table if s.kind == "unary"
    }
    for spec in full_table:
        if spec.kind in ("pair", "infront"):
            col = matrix.values[:, spec.index]
            for name in spec.components:
                assert np.all(col <= unary_col[name])


def test_open_equals_no_roof_extensionally(matrix20, full_table):
    open_col = matrix20.values[:, feature_index(full_table, "open")]
    no_roof_col = matrix20.values[:, feature_index(full_table, "no_roof")]
    assert np.array_equal(open_col, no_roof_col)


def test_matrix_matches_brute_force_oracle(full_table):
    trains = random_trains(25, seed=1234)
    matrix = evaluate_features(trains, full_table)
    for i, train in enumerate(trains):
        for spec in full_table:
            assert matrix.values[i, spec.index] == brute_force_value(spec, train), spec.name


# 1-6 cars with every field drawn from its domain: outside random_trains'
# 2-4 cars, so every train_<n> feature is also seen false
car_fields = st.tuples(*(st.sampled_from(domain) for _, domain in CAR_FIELDS))
any_train = st.builds(
    lambda label, rows: Train("t1", label, tuple(Car(i, *f) for i, f in enumerate(rows, 1))),
    st.sampled_from(LABELS),
    st.lists(car_fields, min_size=1, max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(any_train)
def test_predicate_bits_match_the_numpy_vector_and_brute_force(full_table, train):
    vector = reference_predicate_vector(train)
    for table in (full_table, *SUBSET_TABLES):
        row = evaluate_features([train], table).values[0]
        assert list(row) == [vector[spec.slot] for spec in table]
        assert list(row) == [brute_force_value(spec, train) for spec in table]


def _train(*rows):
    return Train("t1", "east", tuple(Car(i, *fields) for i, fields in enumerate(rows, 1)))


def test_predicate_bits_match_the_numpy_vector_on_every_car():
    # every car Car accepts, alone, in front of a fixed car and behind it
    other = ("rectangle", "long", "double", "flat", 3, "circle", 2)
    for fields in product(*(domain for _, domain in CAR_FIELDS)):
        for train in (_train(fields), _train(fields, other), _train(other, fields)):
            vector = np.packbits(reference_predicate_vector(train), bitorder="little")
            assert predicate_bits(train) == int.from_bytes(vector.tobytes(), "little"), train


def test_carried_loads_are_one_run_of_unary_bits_in_load_shape_order():
    # predicate_bits moves every train_<s> bit with one shift of the unary block
    names = [p.name for p in CAR_PREDICATES]
    first = features._CARRIED[0]
    assert names[first:first + len(LOAD_SHAPES)] == [f"{s}_load" for s in LOAD_SHAPES]


@pytest.mark.parametrize("n_cars", range(1, 7))
def test_train_length_features_hold_for_their_length_only(full_table, n_cars):
    # 1, 5 and 6 cars hold none of train_2/3/4
    car = ("ellipse", "short", "not_double", "none", 2, "circle", 0)
    row = evaluate_features([_train(*[car] * n_cars)], full_table).values[0]
    for n in TRAIN_LENGTHS:
        assert row[feature_index(full_table, f"train_{n}")] == (n == n_cars)


def test_car_tables_wait_for_the_first_train():
    # what perfbench's setup_s times: the import and the full feature table
    out = _fresh_python(
        "import sys, eastwest.cli\n"
        "from eastwest import features\n"
        "features.build_feature_table('full')\n"
        "print(features._car_tables.cache_info().currsize, 'numpy' in sys.modules)"
    )
    assert (out.returncode, out.stdout) == (0, "0 False\n"), out.stderr
    predicate_bits(_train(("ellipse", "short", "not_double", "none", 2, "circle", 0)))
    assert features._car_tables.cache_info().currsize == 1


def test_labels_and_ids(trains20, matrix20):
    assert matrix20.n_trains == 20
    assert matrix20.n_features == 1199
    assert matrix20.labels.sum() == 10
    assert matrix20.train_ids == tuple(t.id for t in trains20)


@pytest.mark.parametrize(
    "n_ids,values,labels",
    [
        (2, np.zeros((2, 3), dtype=int), np.zeros(2, dtype=bool)),
        (2, [[True], [False]], np.zeros(2, dtype=bool)),
        (3, np.zeros(3, dtype=bool), np.zeros(3, dtype=bool)),
        (2, np.zeros((2, 3), dtype=bool), np.zeros(2, dtype=int)),
        (2, np.zeros((2, 3), dtype=bool), np.zeros((2, 1), dtype=bool)),
        (2, np.zeros((2, 3), dtype=bool), np.zeros(3, dtype=bool)),
        (1, np.zeros((2, 3), dtype=bool), np.zeros(2, dtype=bool)),
    ],
    ids=["int-values", "list-values", "1d-values", "int-labels", "2d-labels",
         "labels-length", "ids-length"],
)
def test_feature_matrix_validates_its_arrays(n_ids, values, labels):
    with pytest.raises(ValueError):
        FeatureMatrix(tuple(f"t{i}" for i in range(n_ids)), values, labels)


def test_feature_matrix_replace_validates_its_arrays(matrix20):
    with pytest.raises(ValueError, match="lengths differ"):
        matrix20._replace(labels=matrix20.labels[1:])


def test_unary_train_subset():
    table = build_feature_table("unary_train")
    assert len(table) == 37
    assert [s.index for s in table] == list(range(37))
    assert all(s.kind in ("unary", "train") for s in table)


def test_named_subset_and_unknown_name():
    table = build_feature_table(["train_2", "jagged_roof"])
    assert sorted(s.name for s in table) == ["jagged_roof", "train_2"]
    assert [s.index for s in table] == [0, 1]
    with pytest.raises(ValueError):
        build_feature_table(["no_such_feature"])
    with pytest.raises(ValueError):
        build_feature_table([])


@pytest.mark.parametrize(
    "names,listed",
    [(["nope", 1], "['nope', 1]"), ([1], "[1]"), (["train_2", None, ["x"]], "[None, ['x']]")],
    ids=["str-and-int", "int", "unhashable"],
)
def test_a_name_that_is_not_a_string_is_an_unknown_name(names, listed):
    # listed as given: mixed types do not sort, and a list does not hash
    with pytest.raises(ValueError) as exc:
        build_feature_table(names)
    assert str(exc.value) == f"unknown feature names: {listed}"


@pytest.mark.parametrize("feature_set", ["ellipse", "unary-train", ""])
def test_a_bare_string_other_than_the_named_sets_is_rejected_whole(feature_set):
    # a string is not read as an iterable of one-character feature names
    message = (
        f"unknown feature set {feature_set!r}: "
        "expected 'full', 'unary_train' or an iterable of feature names"
    )
    with pytest.raises(ValueError) as exc:
        build_feature_table(feature_set)
    assert str(exc.value) == message


def test_feature_index_unknown_raises(full_table):
    with pytest.raises(KeyError):
        feature_index(full_table, "nope")

