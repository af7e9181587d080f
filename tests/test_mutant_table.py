"""The mutant table of `tools/mutants.py` stays aimed at the code: a mutant
whose text a change moved, or whose test a change renamed, fails here in a
second instead of only in the minutes-long mutant run."""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def mutants():
    return runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


def test_each_mutant_text_occurs_once_in_its_file():
    found = {m.name: (ROOT / m.file).read_text(encoding="utf-8").count(m.old) for m in mutants()}
    assert {name: count for name, count in found.items() if count != 1} == {}


def test_each_mutant_names_test_functions_that_exist():
    defined = {}  # test file -> the names of its top-level functions
    missing = []
    for mutant in mutants():
        for test in mutant.tests:
            path, _, name = test.partition("::")
            if path not in defined:
                module = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                defined[path] = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
            if name.partition("[")[0] not in defined[path]:
                missing.append(f"{mutant.name}: {test}")
    assert missing == []
