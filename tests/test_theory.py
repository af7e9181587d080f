import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eastwest.features import FeatureMatrix, build_feature_table, evaluate_features, feature_index
from eastwest.theory import (
    Theory,
    agreement,
    classify,
    complexity,
    evaluate_dnf,
    finalize,
    render_program,
    simplify_dnf,
    theory_from_json,
    theory_to_json,
    tree_to_dnf,
)
from eastwest.trains import ProgramSyntaxError, random_trains
from eastwest.tree import (
    B_MAX,
    CF_MAX,
    CF_MIN,
    EAST,
    WEST,
    BiasVector,
    Leaf,
    induce_tree,
    predict_all,
    tree_from_dict,
    tree_signature,
    tree_to_json,
)

from oracles import reference_evaluate_dnf, reference_program_size, reference_simplify, run_eastbound

REFERENCE_PROGRAM = (
    "eastbound(T) :-\n"
    "    has_car(T, C),\n"
    "    ((short(C), closed(C)) ;\n"
    "    (len1(T, 4), u_shaped(C), has_load1(T, circle))).\n"
)


def names_of(conj, table):
    return [(table[f].name, v) for f, v in conj]


# --- tree -> DNF ------------------------------------------------------------

def test_reference_tree_dnf(reference_tree, full_table):
    theory = tree_to_dnf(reference_tree)
    assert len(theory.dnf) == 2
    assert names_of(theory.dnf[0], full_table) == [("short_closed", 1)]
    assert names_of(theory.dnf[1], full_table) == [
        ("short_closed", 0),
        ("train_4", 1),
        ("u_shaped", 1),
        ("train_circle", 1),
    ]


def test_single_east_leaf_dnf():
    theory = tree_to_dnf(Leaf(EAST))
    assert theory.dnf == ((),)


def test_single_west_leaf_dnf():
    assert tree_to_dnf(Leaf(WEST)).dnf == ()


def test_dnf_matches_tree_predictions(matrix20, reference_tree):
    theory = tree_to_dnf(reference_tree)
    assert np.array_equal(
        evaluate_dnf(theory.dnf, matrix20.values), predict_all(reference_tree, matrix20)
    )


def test_dnf_matches_tree_predictions_on_random_trees(full_table):
    for seed in range(8):
        trains = random_trains(12, seed=200 + seed)
        matrix = evaluate_features(trains, full_table)
        rng = np.random.default_rng(seed)
        bias = BiasVector(
            rng.uniform(0, 10000, matrix.n_features), float(rng.uniform(0, 1)), 99.0
        )
        tree = induce_tree(matrix, bias)
        theory = tree_to_dnf(tree)
        assert np.array_equal(
            evaluate_dnf(theory.dnf, matrix.values), predict_all(tree, matrix)
        )
        for i, train in enumerate(trains):
            want = EAST if predict_all(tree, matrix)[i] else WEST
            assert classify(theory, train, full_table) == want


# --- simplification ---------------------------------------------------------

def test_reference_theory_simplifies_to_positive_literals(
    reference_tree, matrix20, full_table
):
    simplified = simplify_dnf(tree_to_dnf(reference_tree), matrix20)
    assert names_of(simplified.dnf[0], full_table) == [("short_closed", 1)]
    assert names_of(simplified.dnf[1], full_table) == [
        ("train_4", 1),
        ("u_shaped", 1),
        ("train_circle", 1),
    ]


def test_already_minimal_dnf_unchanged(matrix20, full_table):
    idx = feature_index(full_table, "train_2")
    theory = Theory(dnf=(((idx, 1),),))
    assert simplify_dnf(theory, matrix20).dnf == theory.dnf


def test_simplification_preserves_training_predictions(full_table):
    for seed in range(8):
        trains = random_trains(10, seed=400 + seed)
        matrix = evaluate_features(trains, full_table)
        rng = np.random.default_rng(seed)
        bias = BiasVector(
            rng.uniform(0, 10000, matrix.n_features), float(rng.uniform(0, 1)), 99.0
        )
        theory = tree_to_dnf(induce_tree(matrix, bias))
        simplified = simplify_dnf(theory, matrix)
        assert np.array_equal(
            evaluate_dnf(simplified.dnf, matrix.values),
            evaluate_dnf(theory.dnf, matrix.values),
        )


def test_one_pass_simplify_matches_fixpoint_reference(trains20, trains10, full_table):
    datasets = [trains20, trains10] + [random_trains(10 + 10 * k, k) for k in range(12)]
    for d, trains in enumerate(datasets):
        matrix = evaluate_features(trains, full_table)
        rng = np.random.default_rng(d)
        for _ in range(3):
            bias = BiasVector(
                rng.uniform(0, B_MAX, matrix.n_features),
                float(rng.uniform(0, 1)),
                float(rng.uniform(CF_MIN, CF_MAX)),
            )
            raw = tree_to_dnf(induce_tree(matrix, bias))
            simplified = simplify_dnf(raw, matrix)
            assert simplified.dnf == reference_simplify(raw, matrix).dnf
            assert simplify_dnf(simplified, matrix).dnf == simplified.dnf


def dnfs(n_features):
    literal = st.tuples(st.integers(0, n_features - 1), st.sampled_from((0, 1)))
    return st.lists(st.lists(literal, max_size=4).map(tuple), max_size=4).map(tuple)


# row counts at and around the byte and 64-bit word edges of the row sets
ROW_COUNTS = (1, 7, 8, 63, 64, 65, 128, 200)


@st.composite
def dnf_cases(draw):
    """(values, labels, dnf): a bool matrix of a drawn row count whose columns
    are each all false, all true or mixed, east/west labels (all east, all west
    or mixed; the simplifier reads predictions, not labels) and a DNF over it."""
    n = draw(st.sampled_from(ROW_COUNTS))
    n_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.lists(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)), min_size=n_features, max_size=n_features))
    values = rng.random((n, n_features)) < np.array(density)
    labels = rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    return values, labels, draw(dnfs(n_features))


def _case(rows, labels, dnf):
    return np.array(rows, dtype=bool).reshape(len(labels), -1), np.array(labels, dtype=bool), dnf


MIXED = [[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [1, 1], [0, 1]]


@settings(max_examples=300, deadline=None)
@given(dnf_cases())
@example(_case(MIXED, [1, 0, 1, 0, 1, 1, 0], ()))  # the empty DNF: every row west
@example(_case(MIXED, [1, 0, 1, 0, 1, 1, 0], ((),)))  # an empty conjunction: every row east
@example(_case(MIXED, [1, 0, 1, 0, 1, 1, 0], (((0, 1),),)))
@example(_case(MIXED, [1, 0, 1, 0, 1, 1, 0], (((1, 0),),)))
@example(_case(MIXED, [1, 1, 1, 1, 1, 1, 1], (((0, 1), (0, 1), (1, 0)), ((1, 1),))))  # a repeated literal
@example(_case(MIXED, [0, 0, 0, 0, 0, 0, 0], (((0, 0), (1, 0)), ((0, 1), (0, 1)))))
@example(_case([[1]] * 64, [1] * 64, (((0, 1),), ((0, 0), (0, 1)))))
def test_row_set_evaluate_and_simplify_match_the_oracles(case):
    values, labels, dnf = case
    got = evaluate_dnf(dnf, values)
    assert got.dtype == bool and got.shape == (len(values),)
    assert np.array_equal(got, reference_evaluate_dnf(dnf, values))
    matrix = FeatureMatrix(tuple(f"t{i}" for i in range(len(values))), values, labels)
    theory = Theory(dnf=dnf)
    assert simplify_dnf(theory, matrix).dnf == reference_simplify(theory, matrix).dnf


def test_simplify_empties_each_conjunction_of_a_theory_that_predicts_every_row_east():
    # column 0 holds on every row, so no row is west and every literal goes,
    # a conjunction whose other literals are all negated included
    values = np.array([[1, 0], [1, 1], [1, 0]], dtype=bool)
    matrix = FeatureMatrix(("a", "b", "c"), values, np.array([1, 0, 1], dtype=bool))
    assert simplify_dnf(Theory(dnf=(((0, 1),), ((1, 0), (0, 1)))), matrix).dnf == ((), ())


# the feature indices just outside [0, 1199), one on each side
OUT_OF_RANGE = pytest.mark.parametrize("index", [-1, 1199], ids=["negative", "past-the-end"])


def _out_of_range(index):
    return Theory(dnf=(((0, 1),), ((1, 0), (index, 1)))), re.escape(f"literal ({index}, 1)")


@OUT_OF_RANGE
def test_evaluate_dnf_names_a_feature_index_outside_the_matrix(matrix20, index):
    theory, message = _out_of_range(index)
    with pytest.raises(ValueError, match=message):
        evaluate_dnf(theory.dnf, matrix20.values)


@OUT_OF_RANGE
def test_simplify_dnf_names_a_feature_index_outside_the_matrix(matrix20, index):
    theory, message = _out_of_range(index)
    with pytest.raises(ValueError, match=message):
        simplify_dnf(theory, matrix20)


@OUT_OF_RANGE
def test_render_program_names_a_feature_index_outside_the_table(full_table, index):
    theory, message = _out_of_range(index)
    with pytest.raises(ValueError, match=message):
        render_program(theory, full_table)


# --- rendering and complexity -----------------------------------------------

def test_reference_program_text_and_complexity(reference_tree, matrix20, full_table):
    simplified = finalize(simplify_dnf(tree_to_dnf(reference_tree), matrix20), full_table)
    assert simplified.rendered == REFERENCE_PROGRAM
    assert simplified.complexity == 19
    assert complexity(REFERENCE_PROGRAM) == 19


def test_single_conjunction_program(full_table):
    idx = feature_index(full_table, "train_4")
    theory = finalize(Theory(dnf=(((idx, 1),),)), full_table)
    assert theory.rendered == "eastbound(T) :-\n    len1(T, 4).\n"
    assert theory.complexity == 6


def test_always_east_and_always_west_programs(full_table):
    always_east = finalize(Theory(dnf=((),)), full_table)
    assert always_east.rendered == "eastbound(T).\n"
    assert always_east.complexity == 2  # the eastbound predicate and its variable
    always_west = finalize(Theory(dnf=()), full_table)
    assert always_west.rendered == ""
    assert always_west.complexity == 0


def test_single_feature_program_cost_offset(full_table):
    # a one-feature program adds exactly the clause, the eastbound predicate
    # and the train variable on top of the feature fragment itself
    for spec in full_table:
        theory = finalize(Theory(dnf=(((spec.index, 1),),)), full_table)
        assert theory.complexity == spec.cost + 3, spec.name


def test_negated_literal_costs_one_operator(full_table):
    idx = feature_index(full_table, "ellipse")
    spec = full_table[idx]
    theory = finalize(Theory(dnf=(((idx, 0),),)), full_table)
    assert "not((has_car(T, C1), ellipse(C1)))" in theory.rendered
    assert theory.complexity == spec.cost + 4


RENDER_DIGEST = "7e3846546172c78df405aafeea145552439a6a13a808841ad607d07e62250bb0"


def test_every_feature_renders_as_pinned(full_table):
    # sha256 over the program text and complexity of every feature of the full
    # table rendered alone, negated, and first in a two-disjunct theory whose
    # other disjunct binds one car, so that a unary or pair feature is hoisted
    long = feature_index(full_table, "long")
    digest = hashlib.sha256()
    for spec in full_table:
        for dnf in (
            (((spec.index, 1),),),
            (((spec.index, 0),),),
            (((spec.index, 1),), ((long, 1),)),
        ):
            theory = finalize(Theory(dnf=dnf), full_table)
            digest.update(f"{theory.rendered}{theory.complexity}\n".encode())
    assert digest.hexdigest() == RENDER_DIGEST


def test_a_conjunct_hoists_one_car_and_binds_fresh_cars_for_the_rest(full_table):
    # (closed ∧ short) ∨ long: "some car is closed and some car is short" must
    # not become "one car is closed and short", which would also score lower
    f = lambda name: feature_index(full_table, name)
    theory = finalize(Theory(dnf=(((f("closed"), 1), (f("short"), 1)), ((f("long"), 1),))), full_table)
    assert theory.rendered == (
        "eastbound(T) :-\n"
        "    has_car(T, C),\n"
        "    ((closed(C), has_car(T, C1), short(C1)) ;\n"
        "    (long(C))).\n"
    )
    assert theory.complexity == 16


# half the literals are unary or pair features (indices below 406), the ones a
# disjunct can hoist; (closed ∧ short) ∨ long is ((10, 1), (6, 1)), ((5, 1),)
LITERALS = st.tuples(st.one_of(st.integers(0, 405), st.integers(0, 1198)), st.integers(0, 1))
DNFS = st.lists(st.lists(LITERALS, max_size=4).map(tuple), max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(DNFS, st.integers(0, 10**6))
@example((), 0)
@example(((),), 0)
@example((((10, 1),),), 0)
@example((((10, 1), (6, 1)),), 0)
@example((((10, 1), (6, 1)), ((5, 1),)), 0)
@example((((10, 1), (6, 1), (5, 0)), (), ((600, 1), (5, 1), (6, 1)), ((1198, 1),)), 1)
def test_emitted_programs_run_as_their_dnf_and_cost_what_their_literals_cost(full_table, dnf, seed):
    trains = random_trains(20, seed)
    text = render_program(Theory(dnf=dnf), full_table)
    want = evaluate_dnf(dnf, evaluate_features(trains, full_table).values).tolist()
    assert [run_eastbound(text, train) for train in trains] == want
    assert complexity(text) == reference_program_size(dnf, full_table)


THEORY_OFFSET = 3  # the clause neck, the eastbound atom and the train variable


@pytest.mark.parametrize(
    "fragment,score",
    [
        ("has_car(T, C), ellipse(C).", 5),
        ("has_car(T, C), short(C), closed(C).", 7),
        ("len1(T, 4).", 3),
        ("has_load1(T, hexagon).", 3),
        ("has_car(T, C), ellipse(C), arg(5, C, peaked).", 9),
        ("has_car(T, C), u_shaped(C), has_load(C, 0).", 8),
        ("infront(T, C1, C2), has_load0(C1, rectangle), arg(5, C2, jagged).", 11),
    ],
)
def test_fragment_scores_match_feature_costs(fragment, score):
    # the scorer reads clauses and facts, so a fragment is scored as a clause body
    assert complexity(f"eastbound(T) :- {fragment}") - THEORY_OFFSET == score


def test_fragment_scores_equal_table_costs(full_table):
    # the cost column of the feature table is the score of the feature's own
    # rendered body, less the clause head and neck
    for spec in full_table:
        rendered = finalize(Theory(dnf=(((spec.index, 1),),)), full_table).rendered
        body = rendered.split(":-", 1)[1].strip().rstrip(".")
        assert complexity(f"eastbound(T) :- {body}.") - THEORY_OFFSET == spec.cost
        assert complexity(rendered) == spec.cost + THEORY_OFFSET


def test_complexity_of_empty_and_commented_programs():
    assert complexity("") == 0
    assert complexity("% nothing here\n") == 0


def test_complexity_rejects_bad_syntax():
    with pytest.raises(ProgramSyntaxError):
        complexity("eastbound(T) :- ???")
    with pytest.raises(ProgramSyntaxError):
        complexity("eastbound(T) :- has_car(T, C)")  # missing final period
    with pytest.raises(ProgramSyntaxError):
        complexity("eastbound([T]).")  # lists are train syntax, not program syntax


def test_syntax_error_names_line_and_column():
    with pytest.raises(ProgramSyntaxError) as exc:
        complexity("eastbound(T) :-\n    has_car(T, C), [C].\n")
    assert str(exc.value) == "line 2, column 20: expected 'atom', found '['"


PROGRAM_PIECES = (
    "eastbound", "has_car", "not", "T", "C", "4", "(", ")", "[", ",", ";", ".", ":-", " ", "\n", "%",
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(PROGRAM_PIECES), max_size=40).map("".join)))
def test_arbitrary_text_scores_or_raises_syntax_error(text):
    try:
        score = complexity(text)
    except ProgramSyntaxError:
        return
    assert isinstance(score, int) and score >= 0


# --- classification and agreement -------------------------------------------

def test_reference_theory_classifies_first_train(
    reference_tree, matrix20, full_table, trains20
):
    simplified = simplify_dnf(tree_to_dnf(reference_tree), matrix20)
    assert classify(simplified, trains20[0], full_table) == EAST
    for train in trains20:
        assert classify(simplified, train, full_table) == train.label


def test_classify_matches_evaluate_dnf(reference_tree, matrix20, full_table):
    raw = tree_to_dnf(reference_tree)
    theories = (raw, simplify_dnf(raw, matrix20))
    trains = random_trains(25, seed=1234)
    matrix = evaluate_features(trains, full_table)
    for theory in theories:
        want = evaluate_dnf(theory.dnf, matrix.values)
        got = [classify(theory, train, full_table) == EAST for train in trains]
        assert got == list(want)


# tables whose feature indices differ from their predicate_vector slots
SUBSET_TABLES = (
    build_feature_table("unary_train"),
    build_feature_table(
        ["u_shaped", "short_closed", "long_infront_circle_load", "bucket_long", "train_3", "train_circle"]
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(SUBSET_TABLES), st.integers(0, 10**6))
def test_classify_and_agreement_match_the_matrix_on_subset_tables(data, table, seed):
    trains = random_trains(12, seed)
    values = evaluate_features(trains, table).values
    a, b = (Theory(dnf=data.draw(dnfs(len(table)))) for _ in range(2))
    for theory in (a, b):
        got = [classify(theory, train, table) == EAST for train in trains]
        assert got == list(evaluate_dnf(theory.dnf, values))
    same = evaluate_dnf(a.dnf, values) == evaluate_dnf(b.dnf, values)
    assert agreement(a, b, trains, table) == same.sum() / len(trains)


def test_always_west_theory_classifies_everything_west(trains20, full_table):
    theory = Theory(dnf=())
    for train in trains20:
        assert classify(theory, train, full_table) == WEST


def test_agreement_reflexive_and_symmetric(trains20, full_table):
    a = Theory(dnf=(((feature_index(full_table, "train_2"), 1),),))
    b = Theory(dnf=(((feature_index(full_table, "jagged_roof"), 1),),))
    assert agreement(a, a, trains20, full_table) == 1.0
    assert agreement(a, b, trains20, full_table) == agreement(b, a, trains20, full_table)


def test_agreement_requires_trains(full_table):
    theory = Theory(dnf=())
    with pytest.raises(ValueError):
        agreement(theory, theory, [], full_table)


def test_opposite_theories_agree_nowhere(trains20, full_table):
    always_east = Theory(dnf=((),))
    always_west = Theory(dnf=())
    assert agreement(always_east, always_west, trains20, full_table) == 0.0


# --- JSON interchange -------------------------------------------------------

def test_theory_json_round_trip(reference_tree, matrix20, full_table):
    simplified = finalize(simplify_dnf(tree_to_dnf(reference_tree), matrix20), full_table)
    back = theory_from_json(theory_to_json(simplified, full_table), full_table)
    assert back.dnf == simplified.dnf
    assert back.rendered == simplified.rendered
    assert back.complexity == simplified.complexity


@pytest.mark.parametrize(
    "data",
    [
        {"dnf": [[["train_2", True]]]},
        {"dnf": [[["train_2", 1.0]]]},
        {"dnf": [[["train_2", 1]]], "complexity": "x"},
        {"dnf": [[["train_2", 1]]], "complexity": False},
        {"dnf": [[["train_2", 1]]], "program": 3},
        [],
        {"program": ""},
    ],
    ids=["bool-literal", "float-literal", "str-complexity", "bool-complexity", "int-program",
         "not-an-object", "no-dnf"],
)
def test_theory_from_dict_rejects_wrong_types(full_table, data):
    with pytest.raises(ValueError):
        theory_from_json(json.dumps(data), full_table)


def test_theory_from_dict_names_an_unknown_feature(full_table):
    with pytest.raises(KeyError) as exc:
        theory_from_json(json.dumps({"dnf": [[["train_2", 1], ["nope", 0]]]}), full_table)
    assert exc.value.args == ("nope",)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["train_2", "ellipse"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, st.sampled_from([
    lambda v: v, lambda v: [v], lambda v: [[v]], lambda v: [[[v, 1]]], lambda v: [[["train_2", v]]],
]))
def test_theory_from_json_raises_only_typed_errors(full_table, value, place):
    # any JSON value as the dnf, a conjunction, a literal, a name or a value
    text = json.dumps({"dnf": place(value)})
    try:
        theory_from_json(text, full_table)
    except (ValueError, KeyError):
        pass


def leaf_counts(tree):
    if isinstance(tree, Leaf):
        return [tree.n_examples]
    return leaf_counts(tree.on_true) + leaf_counts(tree.on_false)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_tree_and_theory_json_round_trip(full_table, seed, count):
    trains = random_trains(count, seed)
    matrix = evaluate_features(trains, full_table)
    rng = np.random.default_rng(seed)
    bias = BiasVector(
        rng.uniform(0, B_MAX, matrix.n_features),
        float(rng.uniform(0, 1)),
        float(rng.uniform(CF_MIN, CF_MAX)),
    )
    tree = induce_tree(matrix, bias)
    text = tree_to_json(tree, full_table)
    back = tree_from_dict(json.loads(text), full_table)
    assert tree_to_json(back, full_table) == text
    assert tree_signature(back) == tree_signature(tree)
    assert leaf_counts(back) == leaf_counts(tree)

    theory = finalize(simplify_dnf(tree_to_dnf(tree), matrix), full_table)
    text = theory_to_json(theory, full_table)
    back = theory_from_json(text, full_table)
    assert (back.dnf, back.rendered, back.complexity) == (
        theory.dnf,
        theory.rendered,
        theory.complexity,
    )
    assert theory_to_json(back, full_table) == text
