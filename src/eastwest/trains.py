"""Domain model for trains and a reader/writer for their ground-fact encoding.

A train is a labeled, ordered list of cars.  The on-disk encoding is the
ground Prolog fact format used by the East-West train files::

    eastbound([c(1, rectangle, short, not_double, none, 2, l(circle, 1)), ...]).

Only this fact grammar is understood; any other clause in the input is
skipped so raw challenge files load unmodified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

CAR_SHAPES = ("rectangle", "hexagon", "ellipse", "u_shaped", "bucket")
LENGTHS = ("long", "short")
WALLS = ("double", "not_double")
ROOFS = ("none", "flat", "jagged", "peaked", "arc")
LOAD_SHAPES = ("circle", "hexagon", "rectangle", "triangle", "diamond", "utriangle")
AXLES = (2, 3)

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


@dataclass(frozen=True)
class Car:
    position: int
    shape: str
    length: str
    walls: str
    roof: str
    axles: int
    load_shape: str
    load_count: int

    def __post_init__(self):
        if self.position < 1:
            raise TrainFormatError(f"car position must be >= 1, got {self.position}")
        if self.shape not in CAR_SHAPES:
            raise TrainFormatError(f"unknown car shape {self.shape!r}")
        if self.length not in LENGTHS:
            raise TrainFormatError(f"unknown car length {self.length!r}")
        if self.walls not in WALLS:
            raise TrainFormatError(f"unknown wall kind {self.walls!r}")
        if self.roof not in ROOFS:
            raise TrainFormatError(f"unknown roof kind {self.roof!r}")
        if self.axles not in AXLES:
            raise TrainFormatError(f"axles must be 2 or 3, got {self.axles}")
        if self.load_shape not in LOAD_SHAPES:
            raise TrainFormatError(f"unknown load shape {self.load_shape!r}")
        if not 0 <= self.load_count <= 3:
            raise TrainFormatError(f"load count must be in 0..3, got {self.load_count}")

    @property
    def load(self) -> str | None:
        """The shape of the carried load; None for a car that carries nothing."""
        return self.load_shape if self.load_count >= 1 else None


@dataclass(frozen=True)
class Train:
    id: str
    label: str
    cars: tuple[Car, ...]

    def __post_init__(self):
        if self.label not in LABELS:
            raise TrainFormatError(f"label must be 'east' or 'west', got {self.label!r}")
        if not self.cars:
            raise TrainFormatError("a train must have at least one car")
        positions = [c.position for c in self.cars]
        if positions != list(range(1, len(self.cars) + 1)):
            raise TrainFormatError(
                f"car positions must be exactly 1..{len(self.cars)} in order, got {positions}"
            )


# --- tokenizer and token cursor (shared with the program scorer) ----------

_TOKEN_RE = re.compile(
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

# what peek() returns past the last token
_END = (None, "", 0)


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str):
    """Tokens as (kind, text, offset); punctuation is its own kind."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        if kind == "bad":
            raise TrainFormatError(f"unexpected character {m.group()!r}", *_position(source, m.start()))
        text = m.group()
        if kind == "punct":
            kind = text
        tokens.append((kind, text, m.start()))
    return tokens


_SIZED_KINDS = frozenset(("neck", ";", "atom", "var", "int"))


def program_size(tokens) -> int:
    """Size-complexity of tokenized Prolog text: its count of `:-`, `;`, atom,
    variable and integer tokens.

    In well-formed text each of these is one clause, operator (`;` or
    `not`), predicate, variable or constant occurrence.  The same count
    scores emitted programs and prices every feature.
    """
    return sum(tok[0] in _SIZED_KINDS for tok in tokens)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def error(self, message: str, tok) -> TrainFormatError:
        return TrainFormatError(message, *_position(self.source, tok[2]))

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else _END

    def next(self):
        tok = self.peek()
        if tok is _END:
            raise self.error("unexpected end of input", self.tokens[-1] if self.tokens else _END)
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}", tok)
        return tok

    def parse_term(self):
        """Ground term: integer, atom, or compound atom(arg, ...)."""
        tok = self.next()
        if tok[0] == "int":
            try:
                return int(tok[1])
            except ValueError:  # beyond the interpreter's int-conversion limit
                raise self.error(f"integer of {len(tok[1])} digits is too long", tok) from None
        if tok[0] != "atom":
            raise self.error(f"expected a ground term, found {tok[1]!r}", tok)
        if self.peek()[0] == "(":
            self.next()
            args = [self.parse_term()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")")
            return tok[1], tuple(args)
        return tok[1]

    def skip_clause(self):
        """Skip tokens up to and including the next clause-terminating '.'."""
        while True:
            tok = self.next()
            if tok[0] == ".":
                return


def _car_from_term(term) -> Car:
    if not (isinstance(term, tuple) and term[0] == "c"):
        raise TrainFormatError(f"expected a c/7 car term, found {term!r}")
    args = term[1]
    if len(args) != 7:
        raise TrainFormatError(f"car term has arity {len(args)}, expected 7")
    pos, shape, length, walls, roof, axles, load = args
    if not isinstance(pos, int):
        raise TrainFormatError(f"car position must be an integer, got {pos!r}")
    if not isinstance(axles, int):
        raise TrainFormatError(f"axle count must be an integer, got {axles!r}")
    if not (isinstance(load, tuple) and load[0] == "l"):
        raise TrainFormatError(f"expected an l/2 load term, found {load!r}")
    if len(load[1]) != 2:
        raise TrainFormatError(f"load term has arity {len(load[1])}, expected 2")
    load_shape, load_count = load[1]
    if not isinstance(load_count, int):
        raise TrainFormatError(f"load count must be an integer, got {load_count!r}")
    return Car(pos, shape, length, walls, roof, axles, load_shape, load_count)


def parse_trains(source: str) -> list[Train]:
    """Parse eastbound/westbound facts into Train values, in file order.

    Unrelated clauses are skipped.  Ids are assigned east1.., west1.. per
    label in order of appearance.
    """
    try:
        return _parse_facts(_Parser(source))
    except RecursionError:
        raise TrainFormatError("terms are nested too deeply") from None


def _parse_facts(parser: _Parser) -> list[Train]:
    trains: list[Train] = []
    counts = {EAST: 0, WEST: 0}
    while parser.peek() is not _END:
        tok = parser.next()
        if tok[0] == "atom" and tok[1] in ("eastbound", "westbound"):
            if parser.peek()[0] != "(":
                # a bare atom or something else; not a train fact
                parser.skip_clause()
                continue
            label = EAST if tok[1] == "eastbound" else WEST
            parser.expect("(")
            parser.expect("[")
            cars = []
            while True:
                term_tok = parser.peek()
                term = parser.parse_term()
                try:
                    cars.append(_car_from_term(term))
                except TrainFormatError as exc:
                    raise parser.error(str(exc), term_tok) from None
                if parser.peek()[0] != ",":
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
                raise parser.error(f"{train_id}: {exc}", tok) from None
        elif tok[0] != ".":
            parser.skip_clause()
    return trains


def render_car(car: Car) -> str:
    return (
        f"c({car.position}, {car.shape}, {car.length}, {car.walls}, "
        f"{car.roof}, {car.axles}, l({car.load_shape}, {car.load_count}))"
    )


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
        cars = []
        for pos in range(1, n_cars + 1):
            cars.append(
                Car(
                    position=pos,
                    shape=CAR_SHAPES[rng.integers(len(CAR_SHAPES))],
                    length=LENGTHS[rng.integers(len(LENGTHS))],
                    walls=WALLS[rng.integers(len(WALLS))],
                    roof=ROOFS[rng.integers(len(ROOFS))],
                    axles=AXLES[rng.integers(len(AXLES))],
                    load_shape=LOAD_SHAPES[rng.integers(len(LOAD_SHAPES))],
                    load_count=int(rng.integers(0, 4)),
                )
            )
        label = EAST if rng.random() < 0.5 else WEST
        counts[label] += 1
        trains.append(Train(f"{label}{counts[label]}", label, tuple(cars)))
    return trains
