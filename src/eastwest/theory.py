"""Convert decision trees to logic programs and score their size.

A tree becomes a DNF over features (one conjunction per path to an east
leaf), gets greedily simplified against the training matrix, and is then
rendered as an `eastbound/1` clause built from each feature's Prolog
fragment.  The size of a program is the number of clause occurrences plus
predicate, variable, constant and operator occurrences, which is the same
counting rule that prices the features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import (
    CAR_PREDICATES,
    CAR_PREDICATE_INDEX,
    TRAIN_PREDICATES,
    TRAIN_PREDICATE_INDEX,
    FeatureMatrix,
    FeatureSpec,
    predicate_vector,
)
from .trains import EAST, WEST, Train, TrainFormatError, _tokenize
from .tree import Leaf, Tree

# a literal is (feature index, required value 0/1); a conjunction is a list
Literal = tuple[int, int]
Conjunction = tuple[Literal, ...]


@dataclass
class Theory:
    """DNF over features; satisfied conjunction => eastbound, else westbound."""

    dnf: tuple[Conjunction, ...]
    rendered: str = ""
    complexity: int = 0


def tree_to_dnf(tree: Tree) -> Theory:
    """One conjunction per root-to-east-leaf path."""
    conjunctions: list[Conjunction] = []

    def walk(node: Tree, path: tuple[Literal, ...]):
        if isinstance(node, Leaf):
            if node.label == EAST:
                conjunctions.append(path)
            return
        walk(node.on_true, path + ((node.feature, 1),))
        walk(node.on_false, path + ((node.feature, 0),))

    walk(tree, ())
    return Theory(dnf=tuple(conjunctions))


def evaluate_dnf(dnf: Sequence[Conjunction], values: np.ndarray) -> np.ndarray:
    """Boolean east-predictions of a DNF on feature-matrix rows."""
    out = np.zeros(values.shape[0], dtype=bool)
    for conj in dnf:
        sat = np.ones(values.shape[0], dtype=bool)
        for feat, val in conj:
            sat &= values[:, feat] == bool(val)
        out |= sat
    return out


def simplify_dnf(theory: Theory, matrix: FeatureMatrix) -> Theory:
    """Drop literals whose removal leaves every training prediction unchanged.

    Negated literals are tried first, then positive ones; repeats to a
    fixpoint.  The simplified theory classifies the training set exactly
    as the input theory does.
    """
    target = evaluate_dnf(theory.dnf, matrix.values)
    dnf = [list(conj) for conj in theory.dnf]
    changed = True
    while changed:
        changed = False
        for wanted_value in (0, 1):
            for ci, conj in enumerate(dnf):
                i = 0
                while i < len(conj):
                    if conj[i][1] != wanted_value:
                        i += 1
                        continue
                    candidate = [tuple(c) for c in dnf]
                    candidate[ci] = tuple(conj[:i] + conj[i + 1:])
                    if np.array_equal(evaluate_dnf(candidate, matrix.values), target):
                        del conj[i]
                        changed = True
                    else:
                        i += 1
    return Theory(dnf=tuple(tuple(c) for c in dnf))


class _VarNames:
    def __init__(self):
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        return f"C{self.count}"


def _feature_literals(spec: FeatureSpec, car_var: str | None, names: _VarNames) -> list[str]:
    """Fragment literals for one positive feature occurrence.

    `car_var` is the hoisted car variable; when given, unary/pair features
    use it without their own has_car literal.
    """
    if spec.kind == "train":
        pred = TRAIN_PREDICATES[TRAIN_PREDICATE_INDEX[spec.components[0]]]
        return [pred.literal("T")]
    if spec.kind == "infront":
        p = CAR_PREDICATES[CAR_PREDICATE_INDEX[spec.components[0]]]
        q = CAR_PREDICATES[CAR_PREDICATE_INDEX[spec.components[1]]]
        v1, v2 = names.fresh(), names.fresh()
        return [f"infront(T, {v1}, {v2})", p.literal(v1), q.literal(v2)]
    preds = [CAR_PREDICATES[CAR_PREDICATE_INDEX[name]] for name in spec.components]
    if car_var is None:
        var = names.fresh()
        lits = [f"has_car(T, {var})"]
    else:
        var = car_var
        lits = []
    lits += [p.literal(var) for p in preds]
    return lits


def _conjunction_text(
    conj: Conjunction, table: Sequence[FeatureSpec], hoisted_var: str | None, names: _VarNames
) -> str:
    parts: list[str] = []
    used_hoisted = False
    for feat, val in conj:
        spec = table[feat]
        if val == 1:
            car_var = None
            if hoisted_var is not None and spec.kind in ("unary", "pair") and not used_hoisted:
                car_var = hoisted_var
                used_hoisted = True
            parts.extend(_feature_literals(spec, car_var, names))
        else:
            # negation of the feature's existential fragment, always self-contained
            inner = _feature_literals(spec, None, names)
            if len(inner) == 1:
                parts.append(f"not({inner[0]})")
            else:
                parts.append("not((" + ", ".join(inner) + "))")
    return ", ".join(parts)


def render_program(theory: Theory, table: Sequence[FeatureSpec]) -> str:
    """Emit the theory as an eastbound/1 clause.

    With two or more disjuncts that each bind a single car variable, the
    shared `has_car(T, C)` is hoisted in front of the disjunction.
    """
    if not theory.dnf:
        return ""
    names = _VarNames()

    def binds_one_car(conj: Conjunction) -> bool:
        n = sum(1 for feat, val in conj if val == 1 and table[feat].kind in ("unary", "pair"))
        return n >= 1

    hoist = len(theory.dnf) >= 2 and sum(1 for c in theory.dnf if binds_one_car(c)) >= 2
    hoisted_var = "C" if hoist else None

    if len(theory.dnf) == 1:
        body = _conjunction_text(theory.dnf[0], table, None, names)
        if not body:
            return "eastbound(T).\n"
        return f"eastbound(T) :-\n    {body}.\n"

    disjuncts = [
        "(" + (_conjunction_text(c, table, hoisted_var, names) or "true") + ")"
        for c in theory.dnf
    ]
    lines = ["eastbound(T) :-"]
    if hoist:
        lines.append("    has_car(T, C),")
    lines.append("    (" + " ;\n    ".join(disjuncts) + ").")
    return "\n".join(lines) + "\n"


def finalize(theory: Theory, table: Sequence[FeatureSpec]) -> Theory:
    """Fill in the rendered program text and its complexity score."""
    theory.rendered = render_program(theory, table)
    theory.complexity = complexity(theory.rendered)
    return theory


# --- complexity scoring ----------------------------------------------------

class ProgramSyntaxError(ValueError):
    pass


class _Counter:
    def __init__(self):
        self.clauses = 0
        self.predicates = 0
        self.variables = 0
        self.constants = 0
        self.operators = 0

    @property
    def total(self):
        return self.clauses + self.predicates + self.variables + self.constants + self.operators


class _ProgParser:
    """Recursive-descent parser for the emitter's restricted output grammar."""

    def __init__(self, tokens, counter):
        self.tokens = tokens
        self.i = 0
        self.c = counter

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ProgramSyntaxError("unexpected end of program")
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ProgramSyntaxError(f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def parse_program(self):
        while self.peek()[0] is not None:
            self.parse_unit()

    def parse_unit(self):
        # a unit with ':-' is a clause; a bare comma-list is a fragment (0 clauses)
        self.parse_literal()
        if self.peek()[0] == "neck":
            self.next()
            self.c.clauses += 1
            self.parse_body()
        else:
            while self.peek()[0] == ",":
                self.next()
                self.parse_literal()
        self.expect(".")

    def parse_body(self):
        self.parse_conjunction()
        while self.peek()[0] == ";":
            self.next()
            self.c.operators += 1
            self.parse_conjunction()

    def parse_conjunction(self):
        self.parse_primary()
        while self.peek()[0] == ",":
            self.next()
            self.parse_primary()

    def parse_primary(self):
        kind, text, _, _ = self.peek()
        if kind == "(":
            self.next()
            self.parse_body()
            self.expect(")")
        elif kind == "atom" and text == "not":
            self.next()
            self.c.operators += 1
            self.parse_primary()
        else:
            self.parse_literal()

    def parse_literal(self):
        tok = self.expect("atom")
        if tok[1] == "not":
            self.c.operators += 1
            self.parse_primary()
            return
        self.c.predicates += 1
        if self.peek()[0] == "(":
            self.next()
            self.parse_arg()
            while self.peek()[0] == ",":
                self.next()
                self.parse_arg()
            self.expect(")")

    def parse_arg(self):
        kind = self.next()[0]
        if kind == "var":
            self.c.variables += 1
        elif kind in ("int", "atom"):
            self.c.constants += 1
        else:
            raise ProgramSyntaxError(f"expected an argument, found {kind!r}")


def complexity(program_text: str) -> int:
    """Size of a program: clauses + predicates + variables + constants + operators.

    Units without `:-` are scored as bodiless fragments (zero clause
    occurrences), matching how individual feature fragments are priced.
    """
    try:
        tokens = _tokenize(program_text)
    except TrainFormatError as exc:
        raise ProgramSyntaxError(str(exc)) from None
    if not tokens:
        return 0
    counter = _Counter()
    _ProgParser(tokens, counter).parse_program()
    return counter.total


# --- evaluation ------------------------------------------------------------

def classify(theory: Theory, train: Train, table: Sequence[FeatureSpec]) -> str:
    """East iff some conjunction is satisfied by the train's feature values."""
    vector = predicate_vector(train)
    for conj in theory.dnf:
        if all(vector[table[feat].slot] == bool(val) for feat, val in conj):
            return EAST
    return WEST


def agreement(a: Theory, b: Theory, trains: Sequence[Train], table: Sequence[FeatureSpec]) -> float:
    """Fraction of trains the two theories classify identically."""
    if not trains:
        raise ValueError("agreement needs a nonempty train list")
    same = sum(1 for t in trains if classify(a, t, table) == classify(b, t, table))
    return same / len(trains)


# --- JSON interchange ------------------------------------------------------

def theory_to_dict(theory: Theory, table: Sequence[FeatureSpec]) -> dict:
    return {
        "dnf": [[[table[f].name, v] for f, v in conj] for conj in theory.dnf],
        "program": theory.rendered,
        "complexity": theory.complexity,
    }


def theory_from_dict(data: dict, table: Sequence[FeatureSpec]) -> Theory:
    by_name = {s.name: s.index for s in table}
    dnf = tuple(
        tuple((by_name[name], int(v)) for name, v in conj) for conj in data["dnf"]
    )
    return Theory(dnf=dnf, rendered=data.get("program", ""), complexity=data.get("complexity", 0))


def theory_to_json(theory: Theory, table: Sequence[FeatureSpec]) -> str:
    return json.dumps(theory_to_dict(theory, table), indent=2) + "\n"


def theory_from_json(text: str, table: Sequence[FeatureSpec]) -> Theory:
    return theory_from_dict(json.loads(text), table)
