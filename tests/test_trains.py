import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastwest.trains import (
    Car,
    Train,
    TrainFormatError,
    load_trains,
    parse_trains,
    random_trains,
    render_car,
    render_train,
    render_trains,
)

FIRST_TRAIN_FACT = (
    "eastbound([c(1,rectangle,short,not_double,none,2,l(circle,1)), "
    "c(2,rectangle,long,not_double,none,3,l(hexagon,1)), "
    "c(3,rectangle,short,not_double,peaked,2,l(triangle,1)), "
    "c(4,rectangle,long,not_double,none,2,l(rectangle,3))])."
)


def test_parse_first_train_fact():
    trains = parse_trains(FIRST_TRAIN_FACT)
    assert len(trains) == 1
    t = trains[0]
    assert t.id == "east1"
    assert t.label == "east"
    assert len(t.cars) == 4
    assert t.cars[2].roof == "peaked"
    assert t.cars[0].load_shape == "circle"
    assert t.cars[3].load_count == 3


def test_parse_minimal_westbound_fact():
    trains = parse_trains(
        "westbound([c(1,rectangle,long,not_double,flat,2,l(circle,1))])."
    )
    assert len(trains) == 1
    assert trains[0].label == "west"
    assert len(trains[0].cars) == 1


def test_axles_out_of_range_rejected():
    with pytest.raises(TrainFormatError):
        parse_trains("eastbound([c(1,rectangle,short,not_double,none,4,l(circle,1))]).")


@pytest.mark.parametrize(
    "fact",
    [
        "eastbound([c(1,blob,short,not_double,none,2,l(circle,1))]).",  # bad shape
        "eastbound([c(1,rectangle,tall,not_double,none,2,l(circle,1))]).",  # bad length
        "eastbound([c(1,rectangle,short,thick,none,2,l(circle,1))]).",  # bad walls
        "eastbound([c(1,rectangle,short,not_double,domed,2,l(circle,1))]).",  # bad roof
        "eastbound([c(1,rectangle,short,not_double,none,2,l(star,1))]).",  # bad load shape
        "eastbound([c(1,rectangle,short,not_double,none,2,l(circle,4))]).",  # load count
        "eastbound([c(2,rectangle,short,not_double,none,2,l(circle,1))]).",  # position gap
        "eastbound([c(1,rectangle,short,not_double,none,2)]).",  # arity 6
        "eastbound([]).",  # no cars
    ],
)
def test_invalid_facts_rejected(fact):
    with pytest.raises(TrainFormatError):
        parse_trains(fact)


def test_syntax_error_carries_position():
    with pytest.raises(TrainFormatError) as exc:
        parse_trains("eastbound([c(1, rectangle, short, not_double, none, 2, ?")
    assert exc.value.line == 1
    assert exc.value.column is not None


@pytest.mark.parametrize(
    "line3,column,message",
    [
        ("  eastbound([c(1, ?", 19, "unexpected character '?'"),
        ("    eastbound([c(1,rectangle,short,not_double,none,2)]).", 16,
         "car term has arity 6, expected 7"),
        ("westbound([c(" + "7" * 5000 + ",", 14, "integer of 5000 digits is too long"),
    ],
    ids=["unexpected-character", "car-arity", "over-long-integer"],
)
def test_errors_carry_line_and_column(line3, column, message):
    with pytest.raises(TrainFormatError) as exc:
        parse_trains("% header\n\n" + line3 + "\n")
    assert (exc.value.line, exc.value.column) == (3, column)
    assert str(exc.value) == f"line 3, column {column}: {message}"


def test_unrelated_clauses_are_skipped():
    source = (
        "% comment line\n"
        ":- dynamic(foo).\n"
        "foo(bar).\n"
        "size(small).\n"
        + FIRST_TRAIN_FACT
        + "\nbaz(X) :- foo(X).\n"
    )
    trains = parse_trains(source)
    assert [t.id for t in trains] == ["east1"]


def test_skipped_clause_may_contain_disjunction():
    source = "foo :- a ; b.\n" + FIRST_TRAIN_FACT
    assert [t.id for t in parse_trains(source)] == ["east1"]


TRAIN_PIECES = (
    "eastbound", "westbound", "c", "l", "rectangle", "short", "not_double", "none", "circle",
    "X", "1", "2", "(", ")", "[", "]", ",", ".", ";", ":-", " ", "\n", "%",
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(TRAIN_PIECES), max_size=60).map("".join)))
def test_arbitrary_text_parses_or_raises_format_error(text):
    try:
        trains = parse_trains(text)
    except TrainFormatError:
        return
    assert all(isinstance(t, Train) for t in trains)


def test_random_trains_rejects_negative_count():
    with pytest.raises(ValueError):
        random_trains(-1, seed=0)


def test_ids_count_per_label_in_order():
    source = (
        "eastbound([c(1,rectangle,short,not_double,none,2,l(circle,1))]).\n"
        "westbound([c(1,rectangle,long,not_double,flat,2,l(circle,1))]).\n"
        "eastbound([c(1,bucket,short,not_double,none,2,l(triangle,2))]).\n"
    )
    assert [t.id for t in parse_trains(source)] == ["east1", "west1", "east2"]


def test_first_train_round_trips_verbatim_modulo_whitespace():
    [t] = parse_trains(FIRST_TRAIN_FACT)
    rendered = render_train(t)
    assert "".join(rendered.split()) == "".join(FIRST_TRAIN_FACT.split())
    assert parse_trains(rendered) == [t]


def test_single_car_round_trip():
    car = Car(1, "bucket", "short", "double", "arc", 3, "diamond", 0)
    train = Train("west1", "west", (car,))
    assert parse_trains(render_train(train)) == [train]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_random_trains_round_trip(seed, count):
    trains = random_trains(count, seed)
    assert parse_trains(render_trains(trains)) == trains


def test_bundled_datasets_load(trains10, trains20):
    assert len(trains10) == 10
    assert len(trains20) == 20
    assert sum(t.label == "east" for t in trains20) == 10
    assert sum(t.label == "west" for t in trains20) == 10


def test_small_dataset_is_prefix_of_large(trains10, trains20):
    by_id = {t.id: t for t in trains20}
    for t in trains10:
        assert by_id[t.id] == t


def test_render_car_text():
    car = Car(2, "hexagon", "long", "not_double", "flat", 3, "triangle", 2)
    assert render_car(car) == "c(2, hexagon, long, not_double, flat, 3, l(triangle, 2))"


def test_load_trains_matches_parse(tmp_path, trains20):
    path = tmp_path / "copy.pl"
    path.write_text(render_trains(trains20))
    assert load_trains(path) == trains20
