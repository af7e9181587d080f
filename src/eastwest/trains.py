"""Trains, their ground-fact encoding, and the size score of Prolog programs.

A train is a labeled, ordered list of cars.  The on-disk encoding is the
ground Prolog fact format used by the East-West train files::

    eastbound([c(1, rectangle, short, not_double, none, 2, l(circle, 1)), ...]).

Only this fact grammar is understood; any other clause in the input is
skipped so raw challenge files load unmodified.

Text made only of facts in the shape `render_train` writes, with
whitespace between tokens and `%` comment lines between facts, is read
fact by fact with one regular expression (`_read_facts`).  Any other text,
and any text holding an error, is read whole by the token reader, which
gives each error its line and column.

One tokenizer and one token cursor (`_Parser`) serve both the token
reader and the program scorer: `complexity` checks a program against the
emitter's grammar and counts its tokens with `program_size`, the rule
that also prices every feature.  The module loads without numpy
(`random_trains` imports it when called), so `eastwest score` never
loads it.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

CAR_SHAPES = ("rectangle", "hexagon", "ellipse", "u_shaped", "bucket")
LENGTHS = ("long", "short")
WALLS = ("double", "not_double")
ROOFS = ("none", "flat", "jagged", "peaked", "arc")
LOAD_SHAPES = ("circle", "hexagon", "rectangle", "triangle", "diamond", "utriangle")
AXLES = (2, 3)
LOAD_COUNTS = (0, 1, 2, 3)

# each Car field after `position`, in field order, with its closed domain:
# Car checks every value against it and random_trains draws from it
CAR_FIELDS = (
    ("shape", CAR_SHAPES),
    ("length", LENGTHS),
    ("walls", WALLS),
    ("roof", ROOFS),
    ("axles", AXLES),
    ("load_shape", LOAD_SHAPES),
    ("load_count", LOAD_COUNTS),
)

EAST = "east"
WEST = "west"
LABELS = (EAST, WEST)


class TrainFormatError(ValueError):
    """Raised for syntax errors or invariant violations in train input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


# Records are typed tuples, not dataclasses: importing `dataclasses` loads
# inspect, ast and dis, and a frozen dataclass sets each field of each car
# through object.__setattr__.  A NamedTuple body cannot define __new__, so a
# checked record is a subclass of its fields' NamedTuple whose __new__
# checks the values and builds the tuple.
class _CarFields(NamedTuple):
    position: int
    shape: str
    length: str
    walls: str
    roof: str
    axles: int
    load_shape: str
    load_count: int


class Car(_CarFields):
    __slots__ = ()

    def __new__(cls, position, shape, length, walls, roof, axles, load_shape, load_count):
        if type(position) is not int or position < 1:
            raise TrainFormatError(f"car position must be an integer >= 1, got {position!r}")
        values = (shape, length, walls, roof, axles, load_shape, load_count)
        for (name, domain), value in zip(CAR_FIELDS, values):
            # exact type: True or 2.0 would equal a domain value but render as
            # text that parse_trains cannot read back
            if type(value) is not type(domain[0]) or value not in domain:
                raise TrainFormatError(f"car {name} must be one of {domain}, got {value!r}")
        return tuple.__new__(cls, (position, *values))

    @classmethod
    def _make(cls, values):  # what _replace builds with: the checks apply there too
        return cls(*values)

    @property
    def load(self) -> str | None:
        """The shape of the carried load; None for a car that carries nothing."""
        return self.load_shape if self.load_count >= 1 else None


class _TrainFields(NamedTuple):
    id: str
    label: str
    cars: tuple[Car, ...]


class Train(_TrainFields):
    __slots__ = ()

    def __new__(cls, id, label, cars):
        if not (isinstance(id, str) and id):
            raise TrainFormatError(f"train id must be a nonempty string, got {id!r}")
        if label not in LABELS:
            raise TrainFormatError(f"label must be 'east' or 'west', got {label!r}")
        if not (isinstance(cars, tuple) and cars and all(isinstance(c, Car) for c in cars)):
            raise TrainFormatError("train cars must be a nonempty tuple of Car")
        positions = [c.position for c in cars]
        if positions != list(range(1, len(cars) + 1)):
            raise TrainFormatError(
                f"car positions must be exactly 1..{len(cars)} in order, got {positions}"
            )
        return tuple.__new__(cls, (id, label, cars))

    @classmethod
    def _make(cls, values):
        return cls(*values)


# --- tokenizer and token cursor (shared with the program scorer) ----------

# one group-free pattern; a token is its text
_TOKEN_RE = re.compile(r"%[^\n]*|:-|\d+|[a-z][A-Za-z0-9_]*|[A-Z_][A-Za-z0-9_]*|\S")

_ATOM_STARTS = frozenset("abcdefghijklmnopqrstuvwxyz")
_PUNCTUATION = frozenset("()[],.;")
_UNSIZED = _PUNCTUATION - {";"}  # what program_size does not count


def _kind(token: str) -> str | None:
    """A token's kind, read from its first character: 'int', 'atom', 'var'
    or 'neck' (`:-`); punctuation is its own kind, and a bad character has
    none."""
    first = token[0]
    if first in _ATOM_STARTS:
        return "atom"
    if "A" <= first <= "Z" or first == "_":
        return "var"
    if first.isdecimal():  # \d also matches non-ASCII decimal digits
        return "int"
    if token == ":-":
        return "neck"
    return token if token in _PUNCTUATION else None


def _token_position(source: str, index: int) -> tuple[int, int]:
    """1-based (line, column) of the index-th token, or of the text's start
    when there is no such token.

    Tokens carry no offsets: the text is rescanned, only when an error is
    raised.
    """
    starts = [m.start() for m in _TOKEN_RE.finditer(source) if source[m.start()] != "%"]
    offset = starts[index] if index < len(starts) else 0
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[str]:
    """The tokens' texts; comments are dropped."""
    tokens = [text for text in _TOKEN_RE.findall(source) if text[0] != "%"]
    # a text has few distinct tokens; the first bad one is looked for only
    # when one of them has no kind
    if None in map(_kind, set(tokens)):
        index = next(i for i, text in enumerate(tokens) if _kind(text) is None)
        raise TrainFormatError(f"unexpected character {tokens[index]!r}", *_token_position(source, index))
    return tokens


def program_size(tokens) -> int:
    """Size-complexity of tokenized Prolog text: its count of `:-`, `;`, atom,
    variable and integer tokens, that is, of the tokens that are not
    brackets, commas or full stops.

    In well-formed text each of these is one clause, operator (`;` or
    `not`), predicate, variable or constant occurrence.  The same count
    scores emitted programs and prices every feature.
    """
    return sum(token not in _UNSIZED for token in tokens)


class _Compound(tuple):
    """A parsed compound term, `(name, args)`, whose repr is its Prolog text
    (`f(a)`), so error messages quote the term as the input wrote it."""

    __slots__ = ()

    def __repr__(self):
        name, args = self
        return f"{name}({','.join(map(str, args))})"


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def error(self, message: str, index: int) -> TrainFormatError:
        """The error at the index-th token."""
        return TrainFormatError(message, *_token_position(self.source, index))

    def peek(self) -> str | None:
        """The next token; None past the last one."""
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", max(len(self.tokens) - 1, 0))
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if _kind(tok) != kind:
            raise self.error(f"expected {kind!r}, found {tok!r}", self.i - 1)
        return tok

    def parse_term(self):
        """Ground term: integer, atom, or compound atom(arg, ...)."""
        tok = self.next()
        kind = _kind(tok)
        if kind == "int":
            try:
                return int(tok)
            except ValueError:  # beyond the interpreter's int-conversion limit
                raise self.error(f"integer of {len(tok)} digits is too long", self.i - 1) from None
        if kind != "atom":
            raise self.error(f"expected a ground term, found {tok!r}", self.i - 1)
        if self.peek() == "(":
            self.next()
            args = [self.parse_term()]
            while self.peek() == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")")
            return _Compound((tok, tuple(args)))
        return tok

    def skip_clause(self):
        """Skip tokens up to and including the next clause-terminating '.'."""
        while self.next() != ".":
            pass


# --- program scorer --------------------------------------------------------

class ProgramSyntaxError(ValueError):
    pass


class _ProgParser(_Parser):
    """Syntax check for the emitter's restricted output grammar."""

    def parse_program(self):
        while self.peek() is not None:
            self.parse_unit()

    def parse_unit(self):
        # a clause, or a fact when there is no ':-'
        self.parse_literal()
        if self.peek() == ":-":
            self.next()
            self.parse_body()
        self.expect(".")

    def parse_body(self):
        self.parse_primary()
        while self.peek() in (",", ";"):
            self.next()
            self.parse_primary()

    def parse_primary(self):
        if self.peek() == "(":
            self.next()
            self.parse_body()
            self.expect(")")
        else:
            self.parse_literal()

    def parse_literal(self):
        if self.expect("atom") == "not":
            self.parse_primary()
        elif self.peek() == "(":
            self.next()
            self.parse_arg()
            while self.peek() == ",":
                self.next()
                self.parse_arg()
            self.expect(")")

    def parse_arg(self):
        kind = _kind(self.next())
        if kind not in ("var", "int", "atom"):
            raise self.error(f"expected an argument, found {kind!r}", self.i - 1)


def complexity(program_text: str) -> int:
    """Size of a program: its count of `:-`, `;`, atom, variable and integer tokens.

    This counts every clause, operator (`;`, `not`), predicate, variable and
    constant occurrence, in clauses and facts.  Raises ProgramSyntaxError,
    naming a line and a column, for text outside the emitter's grammar.
    """
    try:
        parser = _ProgParser(program_text)
        parser.parse_program()
    except TrainFormatError as exc:
        raise ProgramSyntaxError(str(exc)) from None
    except RecursionError:
        raise ProgramSyntaxError("the program is nested too deeply") from None
    return program_size(parser.tokens)


def _car_from_term(term) -> Car:
    if not (isinstance(term, tuple) and term[0] == "c"):
        raise TrainFormatError(f"expected a c/7 car term, found {term!r}")
    args = term[1]
    if len(args) != 7:
        raise TrainFormatError(f"car term has arity {len(args)}, expected 7")
    *fields, load = args
    if not (isinstance(load, tuple) and load[0] == "l"):
        raise TrainFormatError(f"expected an l/2 load term, found {load!r}")
    if len(load[1]) != 2:
        raise TrainFormatError(f"load term has arity {len(load[1])}, expected 2")
    return Car(*fields, *load[1])


_CAR_TEXT = "c({}, {}, {}, {}, {}, {}, l({}, {}))"  # a car term, fields in Car's order


def _spaced(shape: str, **parts: str) -> str:
    """A pattern for the tokens of `shape` with any whitespace between them;
    a variable token named in `parts` stands for that pattern."""
    return r"\s*".join(parts.get(tok) or re.escape(tok) for tok in _tokenize(shape))


@functools.cache  # compiled on first use: at import it would delay every command
def _fact_patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The fact, car and end patterns of `_read_facts`.

    Atoms and integers are spelled as in `_TOKEN_RE`, so text that these
    patterns accept tokenizes to the tokens they read.  A gap is whitespace
    and whole `%` comments.
    """
    # the lookahead keeps backtracking from ending a comment early and
    # reading a fact out of the rest of its line
    gap = r"\s*(?:%[^\n]*(?![^\n])\s*)*"
    car = _spaced(_CAR_TEXT.format(*"IAAAAIAI"), I=r"(\d+)", A="([a-z][A-Za-z0-9_]*)")
    fact = gap + _spaced("L([C]).", L=r"(east|west)bound", C=rf"({car}(?:\s*,\s*{car})*)")
    return re.compile(fact), re.compile(car), re.compile(gap + r"\Z")


def _read_facts(source: str) -> list[Train] | None:
    """The trains of text that holds nothing but train facts of the shape
    render_train writes, with gaps between facts; None for any other text,
    for an integer too long for int() and for an invalid car or train."""
    fact, car, end = _fact_patterns()
    trains: list[Train] = []
    counts = {EAST: 0, WEST: 0}
    pos = 0
    try:
        while m := fact.match(source, pos):
            label = m[1]  # "east" or "west", which are EAST and WEST
            counts[label] += 1
            cars = [Car(int(p), shape, length, walls, roof, int(axles), load, int(n))
                    for p, shape, length, walls, roof, axles, load, n in car.findall(m[2])]
            trains.append(Train(f"{label}{counts[label]}", label, tuple(cars)))
            pos = m.end()
    except ValueError:  # TrainFormatError is one; the token reader then reports it
        return None
    return trains if end.match(source, pos) else None


def parse_trains(source: str) -> list[Train]:
    """Parse eastbound/westbound facts into Train values, in file order.

    Unrelated clauses are skipped.  Ids are assigned east1.., west1.. per
    label in order of appearance.
    """
    trains = _read_facts(source)
    if trains is not None:
        return trains
    try:
        return _parse_facts(_Parser(source))
    except RecursionError:
        raise TrainFormatError("terms are nested too deeply") from None


def _parse_facts(parser: _Parser) -> list[Train]:
    trains: list[Train] = []
    counts = {EAST: 0, WEST: 0}
    while parser.peek() is not None:
        start = parser.i
        tok = parser.next()
        if tok in ("eastbound", "westbound"):
            if parser.peek() != "(":
                # a bare atom or something else; not a train fact
                parser.skip_clause()
                continue
            label = EAST if tok == "eastbound" else WEST
            parser.expect("(")
            parser.expect("[")
            cars = []
            while True:
                term_start = parser.i
                term = parser.parse_term()
                try:
                    cars.append(_car_from_term(term))
                except TrainFormatError as exc:
                    raise parser.error(str(exc), term_start) from None
                if parser.peek() != ",":
                    break
                parser.next()
            parser.expect("]")
            parser.expect(")")
            parser.expect(".")
            counts[label] += 1
            train_id = f"{label}{counts[label]}"
            try:
                trains.append(Train(train_id, label, tuple(cars)))
            except TrainFormatError as exc:
                raise parser.error(f"{train_id}: {exc}", start) from None
        elif tok != ".":
            parser.skip_clause()
    return trains


def render_car(car: Car) -> str:
    return _CAR_TEXT.format(*car)


def render_train(train: Train) -> str:
    """Render a train as a ground fact; parse_trains round-trips it."""
    functor = "eastbound" if train.label == EAST else "westbound"
    pad = " " * (len(functor) + 2)
    body = (",\n" + pad).join(render_car(c) for c in train.cars)
    return f"{functor}([{body}]).\n"


def render_trains(trains: list[Train]) -> str:
    return "\n".join(render_train(t) for t in trains)


def load_trains(path) -> list[Train]:
    with open(path, encoding="utf-8") as fh:
        return parse_trains(fh.read())


def random_trains(count: int, seed: int) -> list[Train]:
    """Generate `count` random trains, 2-4 cars, uniform over car attributes.

    These are synthetic stand-ins for experiments; they are not the
    challenge trains.  Labels are assigned uniformly at random and carry
    no hidden rule.
    """
    import numpy as np

    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    trains = []
    counts = {EAST: 0, WEST: 0}
    for _ in range(count):
        n_cars = int(rng.integers(2, 5))
        # one draw per field, in table order; the stream is part of the output
        cars = tuple(
            Car(pos, *(domain[rng.integers(len(domain))] for _, domain in CAR_FIELDS))
            for pos in range(1, n_cars + 1)
        )
        label = EAST if rng.random() < 0.5 else WEST
        counts[label] += 1
        trains.append(Train(f"{label}{counts[label]}", label, cars))
    return trains
