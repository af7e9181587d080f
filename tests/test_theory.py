import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastwest.features import evaluate_features, feature_index
from eastwest.theory import (
    ProgramSyntaxError,
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
from eastwest.trains import random_trains
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

from oracles import reference_simplify

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
    assert complexity(fragment) == score


def test_fragment_scores_equal_table_costs(full_table):
    # the cost column of the feature table is the fragment score of the
    # feature's own body rendered without a clause head
    theory_offset = 3  # clause + eastbound predicate + train variable
    for spec in full_table:
        rendered = finalize(Theory(dnf=(((spec.index, 1),),)), full_table).rendered
        body = rendered.split(":-", 1)[1].strip().rstrip(".")
        assert complexity(body + ".") == spec.cost
        assert complexity(rendered) == spec.cost + theory_offset


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
