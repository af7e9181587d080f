"""Convert decision trees to logic programs.

A tree becomes a DNF over features (one conjunction per path to an east
leaf), gets greedily simplified against the training matrix, and is then
rendered as an `eastbound/1` clause built from each feature's Prolog
fragment.  `finalize` scores the rendered program with `trains.complexity`,
its count of `:-`, `;`, atom, variable and integer tokens, the same rule
that prices the features; the scorer lives in `trains` so that `eastwest
score` runs without numpy.

`simplify_dnf` and `evaluate_dnf` work on row sets, as `tree.InductionMemo`
does: `features.pack_columns` packs each column the DNF reads into an int
with bit i for matrix row i.  A conjunction's rows are the AND of its
literals' sets, a negated literal's set being its column's complement
within all rows, and the DNF's east rows are the OR of its conjunctions'.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator, NamedTuple, Sequence

from .features import HAS_CAR_TEMPLATE, FeatureMatrix, FeatureSpec, pack_columns, predicate_bits
# the scorer lives in trains, which loads without numpy; finalize calls it by this name
from .trains import EAST, WEST, Train, complexity

# a literal is (feature index, required value 0/1); a conjunction is a list
Literal = tuple[int, int]
Conjunction = tuple[Literal, ...]


class Theory(NamedTuple):
    """DNF over features; satisfied conjunction => eastbound, else westbound."""

    dnf: tuple[Conjunction, ...]
    rendered: str = ""
    complexity: int = 0


def tree_to_dnf(tree: Tree) -> Theory:
    """One conjunction per root-to-east-leaf path.  Raises TypeError naming
    `tree` unless its root is a `Node` or a `Leaf`."""
    from .tree import Leaf, _check_tree  # the learner and numpy load only where a tree is read

    _check_tree(tree)

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


def _used_features(dnf: Sequence[Conjunction], n_features: int) -> list[int]:
    """The feature indices the DNF reads, in order.  Raises TypeError naming
    `dnf` unless it is a sequence of conjunctions of (int, int) literals,
    and ValueError naming a literal whose index is outside [0, n_features)."""
    well_formed = isinstance(dnf, (tuple, list)) and all(
        isinstance(conj, (tuple, list))
        and all(type(lit) is tuple and len(lit) == 2 and type(lit[0]) is type(lit[1]) is int for lit in conj)
        for conj in dnf
    )
    if not well_formed:
        raise TypeError("dnf must be a sequence of conjunctions, each a sequence of (int, int) literals")
    used = sorted({feat for conj in dnf for feat, _ in conj})
    if used and (used[0] < 0 or used[-1] >= n_features):
        bad = used[0] if used[0] < 0 else used[-1]
        lit = next(lit for conj in dnf for lit in conj if lit[0] == bad)
        raise ValueError(f"literal {lit} reads feature {bad}, outside [0, {n_features})")
    return used


def _row_sets(dnf: Sequence[Conjunction], values: np.ndarray) -> tuple[dict[int, int], int]:
    """(true rows of each feature the DNF reads, all rows) of a feature matrix,
    as row sets: ints with bit i for row i, as `InductionMemo` holds them."""
    used = _used_features(dnf, values.shape[1])
    return dict(zip(used, pack_columns(values, used))), (1 << values.shape[0]) - 1


def _covered(conj: Sequence[Literal], cols: dict[int, int], rows: int) -> int:
    """The rows of `rows` that satisfy every literal of `conj`."""
    for feat, val in conj:
        if not rows:
            break
        rows &= cols[feat] if val else ~cols[feat]
    return rows


def _east_rows(dnf: Sequence[Conjunction], cols: dict[int, int], everyone: int) -> int:
    east = 0
    for conj in dnf:
        east |= _covered(conj, cols, everyone)
    return east


def evaluate_dnf(dnf: Sequence[Conjunction], values: np.ndarray) -> np.ndarray:
    """Boolean east-predictions of a DNF on feature-matrix rows.  Raises
    ValueError naming a literal whose feature index is not a column, and
    TypeError naming `dnf` for a DNF of the wrong shape."""
    import numpy as np

    n = values.shape[0]
    east = _east_rows(dnf, *_row_sets(dnf, values))
    packed = np.frombuffer(east.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


def simplify_dnf(theory: Theory, matrix: FeatureMatrix) -> Theory:
    """Drop each literal whose conjunction, without it, covers no training
    row that the theory predicts westbound.

    One pass: negated literals first, then positive ones, each in
    conjunction order.  The simplified theory classifies the training set
    exactly as the input theory does.  Raises ValueError naming a literal
    whose feature index is not a column of the matrix, and TypeError naming
    `dnf` for a DNF of the wrong shape.
    """
    cols, everyone = _row_sets(theory.dnf, matrix.values)
    west = everyone & ~_east_rows(theory.dnf, cols, everyone)
    dnf = [list(conj) for conj in theory.dnf]
    # Dropping a literal only widens its conjunction, so a prediction can only
    # flip from west to east: the theory keeps every prediction iff the
    # widened conjunction covers no west row, and a literal kept once is never
    # droppable later, because later drops only widen its conjunction further.
    for wanted_value in (0, 1):
        for conj in dnf:
            for lit in list(conj):
                i = conj.index(lit)
                if lit[1] == wanted_value and not _covered(conj[:i] + conj[i + 1:], cols, west):
                    del conj[i]
    return Theory(dnf=tuple(tuple(c) for c in dnf))


def _conjunction_text(
    conj: Conjunction, table: Sequence[FeatureSpec], hoisted_var: str | None, names: Iterator[int]
) -> str:
    parts: list[str] = []
    for feat, val in conj:
        fragment = table[feat].fragment
        if val == 1 and hoisted_var is not None and fragment[0] == HAS_CAR_TEMPLATE:
            # the hoisted car stands for the has_car scaffold; a negated
            # fragment never shares it, as it must be self-contained
            literals = [t.format(hoisted_var) for t in fragment[1:]]
            hoisted_var = None  # the conjunct's other car features bind fresh cars
        else:
            # a fresh car variable for each placeholder of the scaffold
            cars = [f"C{next(names)}" for _ in range(fragment[0].count("{"))]
            literals = [t.format(*cars) for t in fragment]
        if val == 1:
            parts += literals
        elif len(literals) == 1:
            parts.append(f"not({literals[0]})")
        else:
            parts.append("not((" + ", ".join(literals) + "))")
    return ", ".join(parts)


def render_program(theory: Theory, table: Sequence[FeatureSpec]) -> str:
    """Emit the theory as an eastbound/1 clause.

    With two or more disjuncts that each bind a single car variable, one
    shared has_car literal for car `C` is hoisted in front of the disjunction.
    Raises ValueError naming a literal whose feature index is not in the
    table, and TypeError naming `dnf` for a DNF of the wrong shape.
    """
    _used_features(theory.dnf, len(table))
    if not theory.dnf:
        return ""
    hoists = sum(any(val == 1 and table[f].fragment[0] == HAS_CAR_TEMPLATE for f, val in c) for c in theory.dnf)
    hoisted_var = "C" if hoists >= 2 else None
    names = itertools.count(1)
    bodies = [_conjunction_text(conj, table, hoisted_var, names) for conj in theory.dnf]
    if len(bodies) == 1:
        return f"eastbound(T) :-\n    {bodies[0]}.\n" if bodies[0] else "eastbound(T).\n"

    disjuncts = ["(" + (body or "true") + ")" for body in bodies]
    lines = ["eastbound(T) :-"]
    if hoisted_var is not None:
        lines.append(f"    {HAS_CAR_TEMPLATE.format(hoisted_var)},")
    lines.append("    (" + " ;\n    ".join(disjuncts) + ").")
    return "\n".join(lines) + "\n"


def finalize(theory: Theory, table: Sequence[FeatureSpec]) -> Theory:
    """The theory with its rendered program text and complexity score filled in."""
    rendered = render_program(theory, table)
    return theory._replace(rendered=rendered, complexity=complexity(rendered))


# --- evaluation ------------------------------------------------------------

def classify(theory: Theory, train: Train, table: Sequence[FeatureSpec]) -> str:
    """East iff some conjunction is satisfied by the train's feature values.

    Feature indices are not checked here, as this runs once per train and
    theory: `agreement` checks them once per call.  Called directly, an
    index past the table raises IndexError and a negative one counts from
    the table's end.
    """
    bits = predicate_bits(train)
    for conj in theory.dnf:
        # a plain loop: all() would build a generator for every conjunction
        for feat, val in conj:
            if (bits >> table[feat].slot & 1) != val:
                break
        else:
            return EAST
    return WEST


def agreement(a: Theory, b: Theory, trains: Sequence[Train], table: Sequence[FeatureSpec]) -> float:
    """Fraction of trains the two theories classify identically.  Raises
    ValueError for an empty train list, or naming a literal whose feature
    index is not in the table; TypeError naming `dnf` for a DNF of the
    wrong shape."""
    if not trains:
        raise ValueError("agreement needs a nonempty train list")
    for theory in (a, b):
        _used_features(theory.dnf, len(table))
    same = sum(1 for t in trains if classify(a, t, table) == classify(b, t, table))
    return same / len(trains)


# --- JSON interchange ------------------------------------------------------

def theory_to_json(theory: Theory, table: Sequence[FeatureSpec]) -> str:
    data = {
        "dnf": [[[table[f].name, v] for f, v in conj] for conj in theory.dnf],
        "program": theory.rendered,
        "complexity": theory.complexity,
    }
    return json.dumps(data, indent=2) + "\n"


def theory_from_json(text: str, table: Sequence[FeatureSpec]) -> Theory:
    """Raises ValueError for text that is not JSON of an object with a `dnf`
    key, a `dnf` that is not a list of lists of `[name, value]` lists, a
    literal value other than the int 0 or 1, or a `program` or `complexity`
    of the wrong type; KeyError for an unknown feature name (a name that is
    not a string is unknown)."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the JSON is nested too deeply") from None
    if not isinstance(data, dict) or "dnf" not in data:
        raise ValueError("a theory must be an object with a 'dnf' key")
    by_name = {s.name: s.index for s in table}

    def literal(name: str, value) -> Literal:
        if type(value) is not int or value not in (0, 1):
            raise ValueError(f"literal {name!r} has value {value!r}, not 0 or 1")
        if type(name) is not str:
            raise KeyError(name)
        return by_name[name], value

    conjunctions = data["dnf"]
    shaped = type(conjunctions) is list and all(
        type(conj) is list and all(type(lit) is list and len(lit) == 2 for lit in conj) for conj in conjunctions
    )
    if not shaped:
        raise ValueError("dnf must be a list of conjunctions, each a list of [name, value] literals")
    dnf = tuple(tuple(literal(name, v) for name, v in conj) for conj in conjunctions)
    program, score = data.get("program", ""), data.get("complexity", 0)
    if type(program) is not str:
        raise ValueError(f"program must be a string, got {type(program).__name__}")
    if type(score) is not int:
        raise ValueError(f"complexity must be an integer, got {type(score).__name__}")
    return Theory(dnf=dnf, rendered=program, complexity=score)
