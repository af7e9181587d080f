"""Convert decision trees to logic programs and score their size.

A tree becomes a DNF over features (one conjunction per path to an east
leaf), gets greedily simplified against the training matrix, and is then
rendered as an `eastbound/1` clause built from each feature's Prolog
fragment.  The size of a program is its count of `:-`, `;`, atom, variable
and integer tokens (`trains.program_size`), the same rule that prices the
features.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .features import (
    HAS_CAR_TEMPLATE,
    INFRONT_TEMPLATE,
    PREDICATES,
    FeatureMatrix,
    FeatureSpec,
    predicate_vector,
)
from .trains import EAST, WEST, Train, TrainFormatError, _Parser, program_size
from .tree import Leaf, Tree

# a literal is (feature index, required value 0/1); a conjunction is a list
Literal = tuple[int, int]
Conjunction = tuple[Literal, ...]


@dataclass(frozen=True)
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
    """Drop each literal whose conjunction, without it, covers no training
    row that the theory predicts westbound.

    One pass: negated literals first, then positive ones, each in
    conjunction order.  The simplified theory classifies the training set
    exactly as the input theory does.
    """
    west_rows = matrix.values[~evaluate_dnf(theory.dnf, matrix.values)]
    dnf = [list(conj) for conj in theory.dnf]
    # Dropping a literal only widens its conjunction, so a prediction can only
    # flip from west to east: the theory keeps every prediction iff the
    # widened conjunction covers no west row, and a literal kept once is never
    # droppable later, because later drops only widen its conjunction further.
    for wanted_value in (0, 1):
        for conj in dnf:
            for lit in list(conj):
                i = conj.index(lit)
                rest = conj[:i] + conj[i + 1:]
                if lit[1] == wanted_value and not evaluate_dnf([rest], west_rows).any():
                    del conj[i]
    return Theory(dnf=tuple(tuple(c) for c in dnf))


def _feature_literals(spec: FeatureSpec, car_var: str | None, names: Iterator[int]) -> list[str]:
    """Fragment literals for one positive feature occurrence.

    `car_var` is the hoisted car variable; when given, unary/pair features
    use it without their own has_car literal.
    """
    preds = [PREDICATES[name] for name in spec.components]
    if spec.kind == "train":
        return [preds[0].literal("T")]
    if spec.kind == "infront":
        v1, v2 = f"C{next(names)}", f"C{next(names)}"
        return [INFRONT_TEMPLATE.format(v1, v2), preds[0].literal(v1), preds[1].literal(v2)]
    if car_var is None:
        var = f"C{next(names)}"
        lits = [HAS_CAR_TEMPLATE.format(var)]
    else:
        var = car_var
        lits = []
    lits += [p.literal(var) for p in preds]
    return lits


def _conjunction_text(
    conj: Conjunction, table: Sequence[FeatureSpec], hoisted_var: str | None, names: Iterator[int]
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

    With two or more disjuncts that each bind a single car variable, one
    shared has_car literal for car `C` is hoisted in front of the disjunction.
    """
    if not theory.dnf:
        return ""
    names = itertools.count(1)

    def binds_one_car(conj: Conjunction) -> bool:
        return any(val == 1 and table[feat].kind in ("unary", "pair") for feat, val in conj)

    hoist = sum(1 for c in theory.dnf if binds_one_car(c)) >= 2
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
        lines.append(f"    {HAS_CAR_TEMPLATE.format(hoisted_var)},")
    lines.append("    (" + " ;\n    ".join(disjuncts) + ").")
    return "\n".join(lines) + "\n"


def finalize(theory: Theory, table: Sequence[FeatureSpec]) -> Theory:
    """The theory with its rendered program text and complexity score filled in."""
    rendered = render_program(theory, table)
    return replace(theory, rendered=rendered, complexity=complexity(rendered))


# --- complexity scoring ----------------------------------------------------

class ProgramSyntaxError(ValueError):
    pass


class _ProgParser(_Parser):
    """Syntax check for the emitter's restricted output grammar."""

    def parse_program(self):
        while self.peek()[0] is not None:
            self.parse_unit()

    def parse_unit(self):
        # a unit with ':-' is a clause; a bare comma-list is a fragment
        self.parse_literal()
        if self.peek()[0] == "neck":
            self.next()
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
            self.parse_conjunction()

    def parse_conjunction(self):
        self.parse_primary()
        while self.peek()[0] == ",":
            self.next()
            self.parse_primary()

    def parse_primary(self):
        if self.peek()[0] == "(":
            self.next()
            self.parse_body()
            self.expect(")")
        else:
            self.parse_literal()

    def parse_literal(self):
        tok = self.expect("atom")
        if tok[1] == "not":
            self.parse_primary()
        elif self.peek()[0] == "(":
            self.next()
            self.parse_arg()
            while self.peek()[0] == ",":
                self.next()
                self.parse_arg()
            self.expect(")")

    def parse_arg(self):
        tok = self.next()
        if tok[0] not in ("var", "int", "atom"):
            raise self.error(f"expected an argument, found {tok[0]!r}", tok)


def complexity(program_text: str) -> int:
    """Size of a program: its count of `:-`, `;`, atom, variable and integer tokens.

    This counts every clause, operator (`;`, `not`), predicate, variable and
    constant occurrence.  Units without `:-` are bodiless fragments, which
    is how individual feature fragments are priced.  Raises
    ProgramSyntaxError, naming a line and a column, for text outside the
    emitter's grammar.
    """
    try:
        parser = _ProgParser(program_text)
        parser.parse_program()
    except TrainFormatError as exc:
        raise ProgramSyntaxError(str(exc)) from None
    except RecursionError:
        raise ProgramSyntaxError("the program is nested too deeply") from None
    return program_size(parser.tokens)


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

    def literal(name: str, value) -> Literal:
        if value not in (0, 1):
            raise ValueError(f"literal {name!r} has value {value!r}, not 0 or 1")
        return by_name[name], int(value)

    dnf = tuple(tuple(literal(name, v) for name, v in conj) for conj in data["dnf"])
    return Theory(dnf=dnf, rendered=data.get("program", ""), complexity=data.get("complexity", 0))


def theory_to_json(theory: Theory, table: Sequence[FeatureSpec]) -> str:
    return json.dumps(theory_to_dict(theory, table), indent=2) + "\n"


def theory_from_json(text: str, table: Sequence[FeatureSpec]) -> Theory:
    return theory_from_dict(json.loads(text), table)
