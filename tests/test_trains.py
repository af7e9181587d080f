import hashlib
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eastwest import trains as trains_mod
from eastwest.cli import data_path
from eastwest.features import build_feature_table
from eastwest.theory import Theory
from eastwest.trains import (
    CAR_FIELDS,
    Car,
    Train,
    TrainFormatError,
    _kind,
    _tokenize,
    complexity,
    load_trains,
    parse_trains,
    random_trains,
    render_car,
    render_train,
    render_trains,
)

from oracles import reference_tokenize

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
        "eastbound([c(x,rectangle,short,not_double,none,2,l(circle,1))]).",  # atom position
        "eastbound([c(1,rectangle,short,not_double,none,two,l(circle,1))]).",  # atom axles
        "eastbound([c(1,rectangle,short,not_double,none,2,l(circle,one))]).",  # atom load count
        "eastbound([c(2,rectangle,short,not_double,none,2,l(circle,1))]).",  # position gap
        "eastbound([c(1,rectangle,short,not_double,none,2)]).",  # arity 6
        "eastbound([]).",  # no cars
    ],
)
def test_invalid_facts_rejected(fact):
    with pytest.raises(TrainFormatError):
        parse_trains(fact)


def test_car_fields_table_follows_the_record():
    assert [name for name, _ in CAR_FIELDS] == list(Car._fields)[1:]


GOOD_CAR = dict(
    position=1, shape="bucket", length="short", walls="double", roof="arc",
    axles=3, load_shape="diamond", load_count=0,
)


def _record(kind):
    car = Car(**GOOD_CAR)
    return {
        "car": car,
        "train": Train("east1", "east", (car,)),
        "feature": build_feature_table("full")[0],
        "theory": Theory(dnf=(((0, 1),),)),
    }[kind]


@pytest.mark.parametrize("kind", ["car", "train", "feature", "theory"])
@pytest.mark.parametrize("name", ["field", "new-attribute"])
def test_records_cannot_be_assigned_to(kind, name):
    record = _record(kind)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0] if name == "field" else "extra", 1)


def test_a_record_is_the_tuple_of_its_values():
    # what a caller sees of records being typed tuples
    car = Car(**GOOD_CAR)
    assert car == tuple(GOOD_CAR.values()) and list(car) == list(GOOD_CAR.values())
    assert car._asdict() == GOOD_CAR


@pytest.mark.parametrize(
    "kind,change,message",
    [("car", {"position": 0}, "car position"), ("train", {"label": "north"}, "label must be")],
    ids=["car", "train"],
)
def test_replace_checks_a_record_as_its_constructor_does(kind, change, message):
    with pytest.raises(TrainFormatError, match=message):
        _record(kind)._replace(**change)


@pytest.mark.parametrize(
    "field,value",
    [
        ("position", "x"),
        ("position", True),
        ("position", 0),
        ("shape", "blob"),
        ("load_count", "x"),
        ("load_count", 2.5),
        ("load_count", 4),
        ("axles", 2.0),
        ("load_shape", None),
    ],
)
def test_bad_car_field_is_a_typed_error(field, value):
    # True == 1 and 2.0 == 2, but they would render as text parse_trains rejects
    with pytest.raises(TrainFormatError, match=f"^car {field} must be "):
        Car(**{**GOOD_CAR, field: value})


@pytest.mark.parametrize("cars", [[Car(**GOOD_CAR)], ("junk",), ()], ids=["list", "not-a-car", "empty"])
def test_bad_train_cars_is_a_typed_error(cars):
    with pytest.raises(TrainFormatError, match="^train cars must be a nonempty tuple of Car$"):
        Train("east1", "east", cars)


@pytest.mark.parametrize("train_id", [5, "", None, b"east1"], ids=["int", "empty", "none", "bytes"])
def test_bad_train_id_is_a_typed_error(train_id):
    with pytest.raises(TrainFormatError, match="^train id must be a nonempty string, got "):
        Train(train_id, "east", (Car(**GOOD_CAR),))


def test_syntax_error_carries_position():
    with pytest.raises(TrainFormatError) as exc:
        parse_trains("eastbound([c(1, rectangle, short, not_double, none, 2, ?")
    assert exc.value.line == 1
    assert exc.value.column is not None


def cars_at(*positions):
    return ", ".join(f"c({p},rectangle,short,not_double,none,2,l(circle,1))" for p in positions)


@pytest.mark.parametrize(
    "source,column,message",
    [
        ("% header\n\n  eastbound([c(1, ?\n", 19, "unexpected character '?'"),
        ("% header\n\n    eastbound([c(1,rectangle,short,not_double,none,2)]).\n", 16,
         "car term has arity 6, expected 7"),
        ("% header\n\nwestbound([c(" + "7" * 5000 + ",\n", 14, "integer of 5000 digits is too long"),
        ("eastbound(\n% a comment line\n[c(1,rectangle)]).\n", 2, "car term has arity 2, expected 7"),
        (FIRST_TRAIN_FACT + "\n% note\neastbound([c(1, % trailing comment", 15,
         "unexpected end of input"),
        ("% header\r\n\r\n  eastbound([c(1, ?\r\n", 19, "unexpected character '?'"),
        ("% header\r\n\r\nwestbound([" + cars_at(1, 3) + "]).\r\n", 1,
         "west1: car positions must be exactly 1..2 in order, got [1, 3]"),
        ("% header\n\n    eastbound([c(1,blob,short,not_double,none,2,l(circle,1))]).\n", 16,
         "car shape must be one of ('rectangle', 'hexagon', 'ellipse', 'u_shaped', 'bucket'), got 'blob'"),
        ("% header\n\nwestbound([c(1,rectangle,short,not_double,none," + "7" * 5000 + ",l(circle,1))]).\n",
         48, "integer of 5000 digits is too long"),
        ("% header\n\n    eastbound([d(1,rectangle,short,not_double,none,2,l(circle,1))]).\n", 16,
         "expected a c/7 car term, found d(1,rectangle,short,not_double,none,2,l(circle,1))"),
        ("% header\n\n    eastbound([c(1,rectangle,short,not_double,none,2,m(circle,1))]).\n", 16,
         "expected an l/2 load term, found m(circle,1)"),
        ("% header\n\nwestbound([" + cars_at("7" * 5000) + "]).\n", 14, "integer of 5000 digits is too long"),
        # positions that the fact pattern matches but Train or Car rejects
        ("% header\n\neastbound([" + cars_at(2, 1) + "]).\n", 1,
         "east1: car positions must be exactly 1..2 in order, got [2, 1]"),
        ("% header\n\neastbound([" + cars_at(0, 1) + "]).\n", 12, "car position must be an integer >= 1, got 0"),
        ("% header\n\neastbound([" + cars_at(1, 2, 2) + "]).\n", 1,
         "east1: car positions must be exactly 1..3 in order, got [1, 2, 2]"),
    ],
    ids=[
        "unexpected-character", "car-arity", "over-long-integer", "after-comment-line",
        "end-after-trailing-comment", "crlf-character", "crlf-train", "car-field-value",
        "over-long-integer-in-car-term", "car-functor", "load-functor",
        "over-long-position", "positions-swapped", "position-zero", "position-repeated",
    ],
)
def test_errors_carry_line_and_column(source, column, message):
    with pytest.raises(TrainFormatError) as exc:
        parse_trains(source)
    assert (exc.value.line, exc.value.column) == (3, column)
    assert str(exc.value) == f"line 3, column {column}: {message}"
    assert parse_or_error(source) == term_reader_or_error(source)


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


# pieces that reach every branch of the tokenizer: a non-ASCII digit, a
# non-ASCII letter, a no-break space, a lone ':', comments with and without a
# final newline, CRLF and an integer past the int-conversion limit
TOKEN_PIECES = TRAIN_PIECES + (
    "\u0663", "\u00e9", "\u00a0", ":", "% note", "% note\n", "\r\n", "_x", "Ab9", "7" * 5000,
)


def tokenize_or_error(tokenize, text):
    try:
        return [tok[:2] for tok in tokenize(text)]
    except TrainFormatError as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(TOKEN_PIECES), max_size=60).map("".join)))
def test_tokenize_matches_named_group_reference(text):
    def kinded_tokenize(source):
        return [(_kind(tok), tok) for tok in _tokenize(source)]

    assert tokenize_or_error(kinded_tokenize, text) == tokenize_or_error(reference_tokenize, text)


def parse_or_error(text):
    try:
        return parse_trains(text)
    except TrainFormatError as exc:
        return str(exc), exc.line, exc.column


def term_reader_or_error(text):
    """parse_or_error with the fact reader switched off, so the token reader
    reads all of the text."""
    with mock.patch.object(trains_mod, "_read_facts", lambda source, trains, counts: 0):
        return parse_or_error(text)


# a car term's ten parts are its functor, its position, its CAR_FIELDS values and
# its load functor; at most one part is replaced by text of the wrong kind, out
# of its domain, compound, a variable or an over-long integer, or by text one
# edit away from a domain value, which the fact pattern must not take either
PART_FAULTS = ("d", "blob", "7", "f(a)", "X", "7" * 5000,
               "rectangl", "rectangles", "u_shape", "longer", "02", "4")


def faulty_cars(lowest_fault):
    return st.tuples(
        st.tuples(*(st.sampled_from([str(v) for v in domain]) for _, domain in CAR_FIELDS)),
        st.integers(lowest_fault, 9),  # the part replaced; none when negative
        st.sampled_from(PART_FAULTS),
    )


def car_text(position, fields, fault, text):
    parts = ["c", str(position), *fields, "l"]
    if fault >= 0:
        parts[fault] = text
    return "{0}({1}, {2}, {3}, {4}, {5}, {6}, {9}({7}, {8}))".format(*parts)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["eastbound", "westbound"]), st.lists(faulty_cars(-3), min_size=1, max_size=3))
def test_car_term_fast_reader_matches_the_term_reader(functor, cars):
    text = f"{functor}([{', '.join(car_text(i, *car) for i, car in enumerate(cars, 1))}]).\n"
    assert parse_or_error(text) == term_reader_or_error(text)


def test_every_part_fault_reads_as_the_term_reader_reads_it():
    # each of the ten parts of one car replaced by each fault, so that no
    # field's pattern wider than its domain depends on what hypothesis draws
    fields = tuple(str(domain[0]) for _, domain in CAR_FIELDS)
    for fault in range(10):
        for text in PART_FAULTS:
            fact = f"eastbound([{car_text(1, fields, fault, text)}]).\n"
            assert parse_or_error(fact) == term_reader_or_error(fact), fact[:80]


# a car's position is its place in the train (None) or one of 0..4; most cars
# have no fault and their place, so that the fact reader takes many facts
placed_cars = st.lists(st.tuples(st.sampled_from((None,) * 5 + tuple(range(5))), faulty_cars(-30)),
                       min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(placed_cars)
def test_the_fact_reader_builds_only_records_that_pass_their_checks(cars):
    text = "westbound([{}]).\n".format(
        ", ".join(car_text(i if p is None else p, *car) for i, (p, car) in enumerate(cars, 1)))
    trains = []
    end = trains_mod._read_facts(text, trains, {"east": 0, "west": 0})
    # built without their checks, each record must still be the one that the
    # checking constructor builds from its values
    for train in trains:
        assert type(train) is Train and train == Train(*train)
        assert all(type(car) is Car and car == Car(*car) for car in train.cars)
    assert trains == term_reader_or_error(text[:end])


SPACES = ("", " ", "\t", "\r", "\n", "\u2003")
COMMENT_LINE = "% note\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), st.integers(0, 10**6))
def test_spaced_and_commented_facts_read_as_the_term_reader_reads_them(count, seed, gap_seed):
    # whitespace runs between any two tokens, comment lines between facts and
    # perhaps one more anywhere: the text still holds the same trains, and the
    # fact reader takes it unless a comment falls inside a fact
    trains = random_trains(count, seed)
    tokens = _tokenize(render_trains(trains))
    rng = random.Random(gap_seed)  # hundreds of gaps: one draw each from hypothesis is slow

    def gap(pieces):
        return "".join(rng.choices(pieces, k=rng.randrange(5)))

    gaps = [gap(SPACES + (COMMENT_LINE,)) if i == 0 or tokens[i - 1] == "." else gap(SPACES)
            for i in range(len(tokens) + 1)]
    comment_at = rng.randrange(-1, len(tokens) + 1)  # none when negative
    if comment_at >= 0:
        gaps[comment_at] += COMMENT_LINE
    text = "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
    assert parse_trains(text) == term_reader_or_error(text) == trains
    inside_a_fact = 0 < comment_at < len(tokens) and tokens[comment_at - 1] != "."
    # the fact reader takes each fact before the one that holds the comment,
    # and stops before the end only there
    read = []
    end = trains_mod._read_facts(text, read, {"east": 0, "west": 0})
    assert read == trains[:tokens[:comment_at].count(".") if inside_a_fact else count]
    assert (_tokenize(text, end) != []) == inside_a_fact


EDIT_CHARACTERS = "ceilstw019_XA()[],.;:% \t\r\n\u2003\u0663\u00e9"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["delete", "insert", "replace"]),
       st.sampled_from(EDIT_CHARACTERS), st.floats(0, 1, exclude_max=True))
def test_one_character_edits_read_as_the_term_reader_reads_them(seed, edit, character, where):
    text = render_trains(random_trains(2, seed))
    i = int(where * len(text))
    if edit == "insert":
        text = text[:i] + character + text[i:]
    else:
        text = text[:i] + ("" if edit == "delete" else character) + text[i + 1:]
    assert parse_or_error(text) == term_reader_or_error(text)


def test_a_fact_inside_a_comment_is_not_read():
    # a comment runs to the end of its line, even where the fact pattern could
    # match what follows its first character
    first = parse_trains(FIRST_TRAIN_FACT)
    for text, expected in [("% " + FIRST_TRAIN_FACT + "\n", []),
                           (FIRST_TRAIN_FACT + "\n%  " + FIRST_TRAIN_FACT, first)]:
        assert parse_trains(text) == term_reader_or_error(text) == expected


def test_non_ascii_decimal_digits_are_integers_on_both_readers():
    # \d matches them and int() reads them, so _kind must call them integers
    fact = "westbound([c(\u0661, rectangle, long, not_double, flat, \u0662, l(circle, \u0663))])."
    expected = [Train("west1", "west", (Car(1, "rectangle", "long", "not_double", "flat", 2, "circle", 3),))]
    assert parse_trains(fact) == term_reader_or_error(fact) == expected


def recording_parser(seen):
    """A `_Parser` that appends the tokens it is given to `seen`."""
    class Recording(trains_mod._Parser):
        def __init__(self, source, start=0):
            super().__init__(source, start)
            seen.append(self.tokens)

    return mock.patch.object(trains_mod, "_Parser", Recording)


def test_writer_shaped_cars_never_reach_the_term_reader(trains10, trains20):
    # the fact reader takes all of render_trains' output and of each bundled
    # file, so the token reader gets no token
    cases = [
        (render_trains(random_trains(200, 1)), random_trains(200, 1)),
        (Path(data_path("trains10.pl")).read_text(encoding="utf-8"), trains10),
        (Path(data_path("trains20.pl")).read_text(encoding="utf-8"), trains20),
    ]
    seen = []
    with recording_parser(seen):
        for text, expected in cases:
            assert parse_trains(text) == expected
    assert seen == [[]] * len(cases)


def test_the_token_reader_reads_on_from_the_fact_that_stops_the_fact_reader():
    # a writer-shaped fact, one whose axles are spelled 02, and another
    # writer-shaped fact: the token reader gets the tokens from the second
    # fact on and counts ids on from the first
    trains = [Train(f"east{i}", "east", (Car(1, "rectangle", "short", "not_double", "none", 2, "circle", i),))
              for i in (1, 2, 3)]
    facts = [render_train(t) for t in trains]
    facts[1] = facts[1].replace(", 2, l(", ", 02, l(")
    text = "".join(facts)
    seen = []
    with recording_parser(seen):
        assert parse_trains(text) == trains
    assert seen == [_tokenize(facts[1] + facts[2])]
    assert term_reader_or_error(text) == trains
    # an error after the handoff keeps its line and column in the whole text
    # and the id the token reader alone gives it
    text += "% a comment line\neastbound([" + cars_at(2) + "]).\n"
    expected = ("line 5, column 1: east4: car positions must be exactly 1..1 in order, got [2]", 5, 1)
    assert parse_or_error(text) == term_reader_or_error(text) == expected


def test_parse_peak_memory_of_2000_trains():
    # the fact reader's peak is about 2.8 MiB; the token reader's, which a
    # comment inside the first fact forces, about 3.9 MiB (16-17 MB when every
    # token carried its character offset, 11.5 MB as (kind, text) pairs)
    text = render_trains(random_trains(2000, 0))
    for source in (text, text.replace("(", "( % a comment inside the first fact\n", 1)):
        tracemalloc.start()
        try:
            parse_trains(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: parse_trains(None), "source"),
        (lambda: parse_trains(FIRST_TRAIN_FACT.encode()), "source"),
        (lambda: complexity(b"p."), "program_text"),
        (lambda: random_trains("3", 0), "count"),
        (lambda: build_feature_table(5), "feature_set"),
    ],
    ids=["parse-none", "parse-bytes", "complexity-bytes", "random-count-str", "table-int"],
)
def test_front_end_entries_raise_a_type_error_naming_the_argument(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be a"):
        call()


def test_random_trains_rejects_negative_count():
    with pytest.raises(ValueError):
        random_trains(-1, seed=0)


def test_random_trains_takes_a_numpy_count():
    import numpy as np

    assert random_trains(np.int64(3), 0) == random_trains(3, 0)


@pytest.mark.parametrize(
    "count,seed,digest",
    [
        (300, 0, "10a270a271473ec190e81a1d267b3758c1f19d98c0d7adc04a63f78cf4f16b77"),
        (2000, 0, "d71e6d528db827d43b7bec954d1c36f8fc7d53b095b7df23a48d862a13cf3f38"),
        (25, 7, "d5828178a1f4865b332a6bf1faf3b518025e55e03f788a04a0319443c6905c3f"),
    ],
)
def test_random_trains_stream_is_pinned(count, seed, digest):
    # the benchmark's train pools are random_trains output, so its goldens
    # hold only while the draws and their order stay the same
    text = render_trains(random_trains(count, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
