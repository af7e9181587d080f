import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eastwest
from eastwest.cli import data_path, main
from eastwest.features import build_feature_table, feature_index
from eastwest.theory import Theory, finalize, theory_to_json
from eastwest.trains import load_trains, random_trains, render_trains

from oracles import run_eastbound

TRAINS10 = str(data_path("trains10.pl"))
TRAINS20 = str(data_path("trains20.pl"))

FAST = ["--features", "unary-train", "--pop-size", "10", "--generations", "4"]

# what `induce --emit-dir` writes
ARTIFACTS = ("report.json", "report.txt", "tree.json", "history.csv", "theory.json", "program.pl")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_features_text_listing(capsys):
    code, out, _ = run(capsys, ["features"])
    lines = out.strip("\n").split("\n")
    assert code == 0
    assert len(lines) == 1199
    assert lines[0].split("\t") == ["0", "ellipse", "unary", "5"]


def test_features_json_listing(capsys):
    code, out, _ = run(capsys, ["features", "--format", "json"])
    data = json.loads(out)
    assert code == 0
    assert len(data) == 1199
    assert data[-1] == {"index": 1198, "name": "train_utriangle", "kind": "train", "cost": 3}


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("text", "5a1457deb55c9d82f4919d1cd95c2ab3f6a21755baf1a16f801a52506309257c"),
        ("json", "b71667fb3747111547fdbd77a13c05ec5e7acdd76b75529faa24aab70c398040"),
    ],
    ids=["text", "json"],
)
def test_features_listing_is_pinned(capsys, fmt, digest):
    # every name, kind, cost and index of the full table, in order
    code, out, _ = run(capsys, ["features", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_score_program_file(capsys, tmp_path):
    table = build_feature_table("full")
    theory = finalize(Theory(dnf=(((feature_index(table, "train_4"), 1),),)), table)
    path = tmp_path / "prog.pl"
    path.write_text(theory.rendered)
    code, out, _ = run(capsys, ["score", str(path)])
    assert code == 0
    assert out.strip() == "6"


def test_score_missing_file_is_a_cli_error(capsys, tmp_path):
    code, _, err = run(capsys, ["score", str(tmp_path / "absent.pl")])
    assert code == 2
    assert "error:" in err


def test_score_bad_program_is_a_cli_error(capsys, tmp_path):
    path = tmp_path / "bad.pl"
    path.write_text("eastbound(T) :- ???\n")
    code, _, err = run(capsys, ["score", str(path)])
    assert code == 2
    assert "error:" in err


def test_induce_text_report(capsys):
    code, out, _ = run(capsys, ["induce", "--data", TRAINS20, "--seed", "3"] + FAST)
    assert code == 0  # the dataset is separable, so the best tree has no errors
    assert "best tree:" in out
    assert "program complexity:" in out
    assert "eastbound(T)" in out


def test_induce_json_report(capsys):
    code, out, _ = run(capsys, ["induce", "--data", TRAINS20, "--format", "json"] + FAST)
    report = json.loads(out)
    assert code == 0
    assert report["n_trains"] == 20
    assert report["best"]["error_count"] == 0
    assert report["config"]["rng_seed"] == 0
    confusion = report["confusion"]
    assert confusion["east_as_east"] + confusion["east_as_west"] == 10


def test_induce_missing_data_is_a_cli_error(capsys):
    code, _, err = run(capsys, ["induce", "--data", "no_such_file.pl"] + FAST)
    assert code == 2
    assert "error:" in err


def test_induce_emits_artifact_files(capsys, tmp_path):
    outdir = tmp_path / "run"
    code, _, _ = run(
        capsys,
        ["induce", "--data", TRAINS20, "--emit-dir", str(outdir)] + FAST,
    )
    assert code == 0
    for name in ARTIFACTS:
        assert (outdir / name).exists(), name
    report = json.loads((outdir / "report.json").read_text())
    assert report["best"]["error_count"] == 0
    history = (outdir / "history.csv").read_text().strip("\n").split("\n")
    assert len(history) == 1 + 4  # header + one row per generation


def test_induce_reruns_are_byte_identical(capsys, tmp_path):
    args = ["induce", "--data", TRAINS20, "--seed", "5"] + FAST
    run(capsys, args + ["--emit-dir", str(tmp_path / "a")])
    run(capsys, args + ["--emit-dir", str(tmp_path / "b")])
    for name in ARTIFACTS:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_multi_totals_complexity(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "multi",
            "--data", TRAINS10,
            "--data", TRAINS20,
            "--format", "json",
            "--emit-dir", str(tmp_path / "multi"),
        ]
        + FAST,
    )
    summary = json.loads(out)
    assert code == 0
    assert len(summary["datasets"]) == 2
    assert summary["total_complexity"] == sum(
        d["complexity"] for d in summary["datasets"]
    )
    assert summary["total_errors"] == 0
    assert (tmp_path / "multi" / "summary.json").exists()
    assert (tmp_path / "multi" / "dataset1" / "report.json").exists()
    assert (tmp_path / "multi" / "dataset2" / "report.json").exists()


def test_multi_text_report(capsys):
    code, out, _ = run(capsys, ["multi", "--data", TRAINS10, "--data", TRAINS20] + FAST)
    assert code == 0
    *reports, totals = out.split("-" * 40 + "\n")
    # each dataset's report is the one induce prints for it alone
    for data, report in zip((TRAINS10, TRAINS20), reports, strict=True):
        assert run(capsys, ["induce", "--data", data] + FAST)[1] == report
    complexity = sum(int(re.search(r"^program complexity: (\d+)$", r, re.M)[1]) for r in reports)
    errors = sum(int(re.search(r"^best tree: .*, errors (\d+)$", r, re.M)[1]) for r in reports)
    assert totals == f"total complexity: {complexity}\ntotal errors: {errors}\n"


def test_induce_json_prints_the_report_json_it_writes(capsys, tmp_path):
    outdir = tmp_path / "run"
    _, out, _ = run(capsys, ["induce", "--data", TRAINS20, "--format", "json", "--emit-dir", str(outdir)] + FAST)
    assert out.encode() == (outdir / "report.json").read_bytes()
    assert sorted(p.name for p in outdir.iterdir()) == sorted(set(ARTIFACTS) - {"report.txt"})


def test_multi_writes_each_dataset_as_induce_does_alone(capsys, tmp_path):
    run(capsys, ["multi", "--data", TRAINS10, "--data", TRAINS20, "--emit-dir", str(tmp_path / "multi")] + FAST)
    for i, data in enumerate((TRAINS10, TRAINS20), start=1):
        alone = tmp_path / f"alone{i}"
        run(capsys, ["induce", "--data", data, "--emit-dir", str(alone)] + FAST)
        for name in ARTIFACTS:
            assert (tmp_path / "multi" / f"dataset{i}" / name).read_bytes() == (alone / name).read_bytes(), name
        assert len(list((tmp_path / "multi" / f"dataset{i}").iterdir())) == len(ARTIFACTS)


def test_multi_summary_json_is_the_printed_json(capsys, tmp_path):
    argv = ["multi", "--data", TRAINS10, "--data", TRAINS20, "--format", "json", "--emit-dir", str(tmp_path)]
    _, out, _ = run(capsys, argv + FAST)
    assert out.encode() == (tmp_path / "summary.json").read_bytes()


def test_agree_command(capsys, tmp_path):
    table = build_feature_table("full")
    a = finalize(Theory(dnf=(((feature_index(table, "train_2"), 1),),)), table)
    b = finalize(Theory(dnf=()), table)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(theory_to_json(a, table))
    path_b.write_text(theory_to_json(b, table))
    code, out, _ = run(capsys, ["agree", str(path_a), str(path_a), "--data", TRAINS20])
    assert code == 0
    assert out.strip() == "agreement: 100.0%"
    code, out, _ = run(capsys, ["agree", str(path_a), str(path_b), "--data", TRAINS20])
    assert code == 0
    assert out.strip().startswith("agreement: ")


def test_gen_trains_round_trips(capsys, tmp_path):
    out_path = tmp_path / "random.pl"
    code, _, _ = run(capsys, ["gen-trains", "--count", "6", "--seed", "11", "--out", str(out_path)])
    assert code == 0
    trains = load_trains(out_path)
    assert len(trains) == 6


def test_gen_trains_to_stdout(capsys):
    code, out, _ = run(capsys, ["gen-trains", "--count", "10", "--seed", "1"])
    assert code == 0
    assert out.count("bound([") == 10
    digest = "38456a32be8659feb93db21ba66b35790c49e368bda588b0303fc4e53825c4de"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_custom_feature_file(capsys, tmp_path):
    listing = tmp_path / "subset.txt"
    listing.write_text("train_2\njagged_roof\n")
    code, out, _ = run(capsys, ["features", "--features", str(listing)])
    assert code == 0
    names = [line.split("\t")[1] for line in out.strip("\n").split("\n")]
    assert sorted(names) == ["jagged_roof", "train_2"]


def test_unknown_feature_spec_is_a_cli_error(capsys):
    code, _, err = run(capsys, ["features", "--features", "no-such-set"])
    assert code == 2
    assert "error:" in err


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


COMPOUND_FIELD = "eastbound([c(1,rectangle,f(a),not_double,none,2,l(circle,1))]).\n"
# the error line quotes a term as the input spells it, not as a Python value
ERROR_TEXT = {
    "compound-car-field": "car length must be one of ('long', 'short'), got f(a)\n",
    "theory-complexity-not-an-int": "cannot load theory: complexity must be an integer, got str\n",
    "deep-theory-json": "cannot load theory: the JSON is nested too deeply\n",
    "theory-unknown-feature": "unknown feature 'nope'\n",
    "theory-without-dnf": "cannot load theory: a theory must be an object with a 'dnf' key\n",
    "usage-error": "error: eastwest induce: argument --pop-size: invalid int value: 'x'\n",
    "line-break-in-an-argument": "unrecognized arguments: a\\nb\n",
    "nul-in-data-path": "cannot read \x00: embedded null byte\n",
    "bare-comma-list": "line 1, column 14: expected '.', found ','\n",
}

NOT_UTF8 = b"eastbound([c(1,rectangle,short,not_double,none,2,l(circle,1))]).\n% \xff\n"


@pytest.mark.parametrize(
    "case",
    [
        lambda d: ["induce", "--data", TRAINS20, "--features", _write(d / "empty.txt", "")],
        lambda d: ["induce", "--data", TRAINS20, "--features", _write(d / "bad.txt", "nope\n")],
        lambda d: ["induce", "--data", TRAINS20, "--features", _write(d / "f.txt", b"\xff\n")],
        lambda d: ["induce", "--data", _write(d / "bad.pl", NOT_UTF8)],
        lambda d: ["induce", "--data", _write(d / "none.pl", "% no trains\nfoo(bar).\n")],
        lambda d: ["induce", "--data", TRAINS20, "--error-cost", "nan"],
        lambda d: ["induce", "--data", TRAINS20, "--error-cost", "inf"],
        lambda d: ["induce", "--data", TRAINS20, "--pop-size", "0"],
        lambda d: ["induce", "--data", TRAINS20, "--generations", "0"],
        lambda d: ["induce", "--data", TRAINS20, "--seed", "-1"],
        lambda d: ["multi", "--data", TRAINS20, "--features", _write(d / "empty.txt", "\n")],
        lambda d: ["score", _write(d / "prog.pl", b"eastbound(T) :- \xff.\n")],
        lambda d: ["agree", _write(d / "a.json", b"\xff"), _write(d / "b.json", "{}"), "--data", TRAINS20],
        lambda d: ["agree", _write(d / "a.json", "[]"), _write(d / "b.json", "[]"), "--data", TRAINS20],
        lambda d: ["gen-trains", "--count", "-1"],
        lambda d: ["induce", "--data", _write(d / "long.pl", f"eastbound([c({'9' * 5000}, x)]).\n")],
        lambda d: ["induce", "--data", _write(d / "deep.pl", f"eastbound([{'c(' * 3000}1{')' * 3000}]).\n")],
        lambda d: ["score", _write(d / "deep.pl", f"eastbound(T) :- {'not ' * 3000}short(T).\n")],
        lambda d: [
            "agree",
            _write(d / "a.json", '{"dnf": [[["train_2", 7]]]}'),
            _write(d / "b.json", '{"dnf": [[["train_2", 1]]]}'),
            "--data", TRAINS20,
        ],
        lambda d: [
            "agree",
            _write(d / "a.json", '{"dnf": [[["train_2", 1]]], "complexity": "x"}'),
            _write(d / "b.json", '{"dnf": [[["train_2", 1]]]}'),
            "--data", TRAINS20,
        ],
        lambda d: ["agree", _write(d / "a.json", "[" * 100_000), _write(d / "b.json", "{}"), "--data", TRAINS20],
        lambda d: [
            "agree",
            _write(d / "a.json", '{"dnf": [[["train_2", 1]]]}'),
            _write(d / "b.json", '{"dnf": [[["nope", 1]]]}'),
            "--data", TRAINS20,
        ],
        lambda d: ["agree", _write(d / "a.json", '{"dnf": [[["train_2", 1]]]}'), _write(d / "b.json", "{}"),
                   "--data", TRAINS20],
        lambda d: ["gen-trains", "--out", str(d / "missing" / "random.pl")],
        lambda d: ["induce", "--data", TRAINS20, "--emit-dir", _write(d / "file", "")] + FAST,
        lambda d: ["induce", "--data", _write(d / "compound.pl", COMPOUND_FIELD)],
        lambda d: ["induce", "--data", TRAINS20, "--pop-size", "x"],
        lambda d: ["induce", "--data", TRAINS20, "a\nb"],
        lambda d: ["induce", "--data", "\x00"],
        lambda d: ["induce", "--data", TRAINS20, "--emit-dir", "\x00"] + FAST,
        lambda d: ["gen-trains", "--out", "\x00"],
        lambda d: ["score", _write(d / "bare.pl", "has_car(T, C),\n    short(C).\n")],
    ],
    ids=[
        "empty-features-file",
        "unknown-feature-name",
        "non-utf8-features-file",
        "non-utf8-data",
        "no-train-facts",
        "nan-error-cost",
        "inf-error-cost",
        "zero-pop-size",
        "zero-generations",
        "negative-seed",
        "multi-empty-features-file",
        "non-utf8-program",
        "non-utf8-theory",
        "theory-not-an-object",
        "negative-count",
        "over-long-integer",
        "deep-term-nesting",
        "deep-program-nesting",
        "theory-literal-not-0-or-1",
        "theory-complexity-not-an-int",
        "deep-theory-json",
        "theory-unknown-feature",
        "theory-without-dnf",
        "gen-trains-out-in-missing-dir",
        "emit-dir-is-a-file",
        "compound-car-field",
        "usage-error",
        "line-break-in-an-argument",
        "nul-in-data-path",
        "nul-in-emit-dir",
        "nul-in-gen-trains-out",
        "bare-comma-list",
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, request, case):
    code, out, err = run(capsys, case(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert err.endswith(ERROR_TEXT.get(request.node.callspec.id, "")), err


def mutations(seed, pieces):
    """`seed` after one to four edits, each cutting up to 8 characters at some
    position and inserting a piece of the input's own syntax or up to 3
    arbitrary characters there."""
    edit = st.tuples(
        st.integers(0, len(seed)),
        st.integers(0, 8),
        st.one_of(st.sampled_from(pieces), st.text(max_size=3)),
    )

    def apply(edits):
        text = seed
        for at, cut, insert in edits:
            text = text[:at] + insert + text[at + cut:]
        return text

    return st.lists(edit, min_size=1, max_size=4).map(apply)


def run_on_file(tmp_path_factory, text, argv):
    """Exit code and stderr of `main(argv)` run in process. In argv, {} names a
    file of `text`, and {names}, {dir}, {file} and {missing} a file of feature
    names, an output directory, an empty file and a path in a missing directory.
    It runs in a directory below the temporary one, so an edit that turns some
    token into a relative output path, ".." included, writes in the latter.
    `--help` exits through SystemExit, whose code is taken."""
    base = tmp_path_factory.getbasetemp()
    paths = {
        "{}": base / "mutated",
        "{names}": base / "names.txt",
        "{dir}": base / "emitted",
        "{file}": base / "plain",
        "{missing}": base / "missing" / "out",
    }
    paths["{}"].write_text(text, encoding="utf-8")
    paths["{names}"].write_text(FEATURE_NAMES)
    paths["{file}"].write_text("")
    cwd = base / "cwd"
    cwd.mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.chdir(cwd)
        try:
            code = main([str(paths.get(arg, arg)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


PROGRAM = (
    "eastbound(T) :-\n"
    "    has_car(T, C),\n"
    "    ((short(C), not((has_car(T, C1), ellipse(C1)))) ;\n"
    "    (infront(T, C2, C3), arg(5, C2, peaked), has_load(C3, 0))).\n"
)
PROGRAM_PIECES = (
    "eastbound", "not", "not(", "T", "C", "(", ")", ",", ";", ".", ":-", "[", "'", "%", "\n", "9" * 40,
)

THEORY = '{"dnf": [[["train_2", 1], ["ellipse", 0]], [["short_closed", 1]]], "program": "", "complexity": 0}'
THEORY_PIECES = (
    '"dnf"', '"program"', '"complexity"', '"nope"', '"train_2"', "[", "]", "{", "}", ",", ":", '"',
    "0", "1", "-1", "2.5", "1e400", "NaN", "null", "true", "[[", "]]",
)

FEATURE_NAMES = "train_2\njagged_roof\nshort_closed\nlong_infront_circle_load\n"
NAME_PIECES = ("ellipse", "train_3", "_infront_", "_", "\n", "\r", " ", "\t", "full", "unary_train")


@settings(max_examples=150, deadline=None)
@given(mutations(PROGRAM, PROGRAM_PIECES))
def test_score_on_mutated_programs_exits_cleanly(tmp_path_factory, text):
    assert_clean_exit(*run_on_file(tmp_path_factory, text, ["score", "{}"]))


@settings(max_examples=150, deadline=None)
@given(mutations(THEORY, THEORY_PIECES))
def test_agree_on_mutated_theories_exits_cleanly(tmp_path_factory, text):
    other = tmp_path_factory.getbasetemp() / "theory.json"
    other.write_text(THEORY)
    assert_clean_exit(*run_on_file(tmp_path_factory, text, ["agree", "{}", str(other), "--data", TRAINS10]))


@settings(max_examples=100, deadline=None)
@given(mutations(FEATURE_NAMES, NAME_PIECES))
def test_features_on_mutated_name_files_exits_cleanly(tmp_path_factory, text):
    assert_clean_exit(*run_on_file(tmp_path_factory, text, ["features", "--features", "{}"]))


TRAIN_FACTS = Path(TRAINS10).read_text()
TRAIN_PIECES = (
    "eastbound(", "westbound(", "[", "]", "c(", "l(", "(", ")", ",", ".", "%", "'", "\n", "short", "long",
    "double", "peaked", "u_shaped", "circle", "0", "-1", "5", "X", "_", "9" * 40,
)

# tokens an argv edit inserts: options, values, the placeholders run_on_file fills
# in, and a line break and a NUL, which no path may hold
ARG_PIECES = (
    "--data", "--seed", "--features", "--emit-dir", "--format", "--out", "--count", "--bogus", "--help",
    "-", "--", "=", "json", "text", "full", "unary-train", "nope", "0", "-1", "x", "nan",
    "{}", "{names}", "{dir}", "{file}", "{missing}", "a\nb", "\x00",
)


def argv_mutations(base):
    """`base` after one to four edits, each cutting up to one token at some
    position and inserting an option, a value or up to 3 arbitrary characters
    there. No "/" is drawn, so no edit can name an absolute output path."""
    edit = st.tuples(
        st.integers(0, len(base)),
        st.integers(0, 1),
        st.one_of(st.none(), st.sampled_from(ARG_PIECES), st.text(st.characters(exclude_characters="/"), max_size=3)),
    )

    def apply(edits):
        argv = list(base)
        for at, cut, insert in edits:
            argv[at:at + cut] = [] if insert is None else [insert]
        return argv

    return st.lists(edit, min_size=1, max_size=4).map(apply)


def small_ga(pop_size, generations):
    """The GA options every induce and multi example ends with: the last
    occurrence of an option wins, so no edit can ask for a larger search."""
    return ["--pop-size", pop_size, "--generations", generations]


POP_SIZES = st.sampled_from(["1", "2", "4", "0", "-1", "x"])
GENERATIONS = st.sampled_from(["1", "2", "0", "x"])
INDUCE = ["induce", "--data", "{}", "--seed", "3", "--features", "{names}", "--emit-dir", "{dir}"]


@settings(max_examples=150, deadline=None)
@given(argv_mutations(INDUCE), POP_SIZES, GENERATIONS)
def test_induce_on_mutated_argv_exits_cleanly(tmp_path_factory, argv, pop_size, generations):
    assert_clean_exit(*run_on_file(tmp_path_factory, TRAIN_FACTS, argv + small_ga(pop_size, generations)))


@settings(max_examples=100, deadline=None)
@given(mutations(TRAIN_FACTS, TRAIN_PIECES), st.sampled_from(["full", "unary-train"]))
def test_induce_on_mutated_train_facts_exits_cleanly(tmp_path_factory, text, feature_set):
    argv = ["induce", "--data", "{}", "--features", feature_set] + small_ga("2", "1")
    assert_clean_exit(*run_on_file(tmp_path_factory, text, argv))


@settings(max_examples=100, deadline=None)
@given(
    argv_mutations(["multi", "--data", "{}", "--data", TRAINS10, "--format", "json", "--features", "unary-train"]),
    mutations(TRAIN_FACTS, TRAIN_PIECES),
    POP_SIZES,
    GENERATIONS,
)
def test_multi_on_mutated_argv_and_train_facts_exits_cleanly(tmp_path_factory, argv, text, pop_size, generations):
    assert_clean_exit(*run_on_file(tmp_path_factory, text, argv + small_ga(pop_size, generations)))


@settings(max_examples=150, deadline=None)
@given(
    argv_mutations(["gen-trains", "--seed", "7", "--out", "{file}"]),
    st.sampled_from(["0", "1", "5", "-1", "x", ""]),
)
def test_gen_trains_on_mutated_argv_exits_cleanly(tmp_path_factory, argv, count):
    assert_clean_exit(*run_on_file(tmp_path_factory, TRAIN_FACTS, argv + ["--count", count]))


def test_out_of_memory_in_evolve_is_a_cli_error(capsys, monkeypatch):
    # stands in for `--pop-size 1000000000`, whose population numpy cannot allocate
    def evolve(matrix, costs, config):
        raise MemoryError

    monkeypatch.setattr("eastwest.ga.evolve", evolve)
    code, out, err = run(capsys, ["induce", "--data", TRAINS20, "--pop-size", "1000000000"])
    assert (code, out) == (2, "")
    assert err == "error: out of memory for a population of 1000000000\n"


def _fresh_python(code, *args, site=True):
    """Run `code` in a fresh interpreter that imports this checkout's package;
    without `site`, the interpreter runs with -S and imports no site module."""
    src = str(Path(eastwest.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    flags = [] if site else ["-S"]
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True)


def _cli_import_loads(module):
    """Whether a fresh interpreter loads `module` when it imports eastwest.cli."""
    out = _fresh_python(f"import sys, eastwest.cli; print({module!r} in sys.modules)")
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats takes about a second to import; the pruning bound uses
    # scipy.special alone, and start-up time should stay that way
    assert not _cli_import_loads("scipy.stats")


def test_cli_import_does_not_load_scipy_special():
    # only pruning needs scipy (the bound's beta quantile), so the commands
    # that never prune (features, score, agree, gen-trains) never load it
    assert not _cli_import_loads("scipy.special")


def test_cli_and_theory_import_without_dataclasses():
    # records are typed tuples, as dataclasses loads inspect, ast and dis;
    # -S keeps a site .pth file that imports dataclasses itself from hiding
    # an import by the package
    code = "import sys, eastwest.cli, eastwest.theory; print('dataclasses' in sys.modules)"
    out = _fresh_python(code, site=False)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


# main in a fresh interpreter, then whether numpy and the learner's tree
# module were loaded; with numpy blocked, any import of it raises
# ImportError, which main does not catch
FRESH_MAIN = """
import sys
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None
from eastwest.cli import main
code = main(sys.argv[2:])
print(sys.modules.get("numpy") is not None, "eastwest.tree" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "case",
    ["score-rendered", "score-syntax-error", "features-text", "features-json", "usage-error",
     "agree", "agree-unknown-feature"],
)
def test_score_features_and_usage_errors_run_without_numpy(capsys, tmp_path, full_table, case):
    theory = finalize(Theory(dnf=(
        ((feature_index(full_table, "closed"), 1), (feature_index(full_table, "short"), 1)),
        ((feature_index(full_table, "closed_infront_peaked_roof"), 1), (feature_index(full_table, "train_4"), 0)),
    )), full_table)
    (tmp_path / "program.pl").write_text(theory.rendered)
    (tmp_path / "bad.pl").write_text("eastbound(T) :-\n    has_car(T, C), [C].\n")
    (tmp_path / "theory.json").write_text(theory_to_json(theory, full_table))
    (tmp_path / "short_closed.json").write_text('{"dnf": [[["short_closed", 1]]]}')
    (tmp_path / "unknown.json").write_text('{"dnf": [[["north", 1]]]}')
    argv = {
        "score-rendered": ["score", str(tmp_path / "program.pl")],
        "score-syntax-error": ["score", str(tmp_path / "bad.pl")],
        "features-text": ["features"],
        "features-json": ["features", "--format", "json"],
        "usage-error": ["induce", "--data", TRAINS20, "--pop-size", "x"],
        "agree": ["agree", str(tmp_path / "theory.json"), str(tmp_path / "short_closed.json"), "--data", TRAINS20],
        "agree-unknown-feature": ["agree", str(tmp_path / "theory.json"), str(tmp_path / "unknown.json"),
                                  "--data", TRAINS20],
    }[case]
    fresh = _fresh_python(FRESH_MAIN, "block-numpy", *argv)
    code, out, err = run(capsys, argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out + "False False\n", err)
    assert code == (0 if case in ("score-rendered", "features-text", "features-json", "agree") else 2)


def test_induce_in_a_fresh_interpreter_loads_numpy(capsys):
    argv = ["induce", "--data", TRAINS20, "--features", "unary-train", "--pop-size", "2", "--generations", "1"]
    fresh = _fresh_python(FRESH_MAIN, "allow-numpy", *argv)
    code, out, err = run(capsys, argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out + "True True\n", err)
    assert "best tree:" in out


# sha256 of the six artifacts of `eastwest induce --data trains20.pl --seed k --emit-dir out`
# at the default GA settings, run from the directory holding trains20.pl so the
# reports name a relative path; a changed search or rendering shows here
INDUCE_DIGESTS = {
    0: {
        "report.json": "d37b45b1e7c863231c1dc963cf987e8329c87fd7318e9eb6f4168c042ddde321",
        "report.txt": "a86edf2cecb3ec961fc2bea45c01ad827d15e044dd8dc07f51083ef2f0f2a49a",
        "tree.json": "1cdbed807191a84c2bc81dff4c98a72f39ce0334efb60d9a04bfdd93d954f741",
        "history.csv": "2b8f0e4eed33fe39e9a2e8032c8771487911b877c98d1e1ce9e6283a9666ca60",
        "theory.json": "558444e0988c0b34a297482060851fc307277c4167b53608e7195219e8dc6949",
        "program.pl": "6853b9ff2a09af4410481f94dbe542045e561031808d9f4436b28a393c295fa7",
    },
    1: {
        "report.json": "b6789b9616820da2a4eb36194dbddb3637c594ab0f9a297a63a63443fa765f26",
        "report.txt": "2a8203e35bb22f603c5ed946c88ace40ddebfcf6637d31dff2bc2e2f28f12241",
        "tree.json": "c4bbfd66966781dba6ba04bb7489162039b4984b36199092a7aad1fe2f34c316",
        "history.csv": "1d46e3ff0eb8144a72c99e670c7e401a6527b7ee3f3a3c94ab33c548738669dd",
        "theory.json": "0f0d56ab3767f794ef0a11781c6e6d61a3af7ec1af3c302d7821305568c877f9",
        "program.pl": "1b5e42e152f95bf9c5a33856136ee4878963f85382da50503decb0a25c7dfb25",
    },
    2: {
        "report.json": "4a609e67571e3db85e2613b40d77ec50e5a98f4319916894a2607da1682da8da",
        "report.txt": "9933d7122a5887317170ffd5dd91f8869d3905d466cc044a34297292ce50a6d0",
        "tree.json": "c4bbfd66966781dba6ba04bb7489162039b4984b36199092a7aad1fe2f34c316",
        "history.csv": "77f91e352d2f4d146173d9f1bab79e9410ac8cbf5a4283caa109c020a80a89ef",
        "theory.json": "0f0d56ab3767f794ef0a11781c6e6d61a3af7ec1af3c302d7821305568c877f9",
        "program.pl": "1b5e42e152f95bf9c5a33856136ee4878963f85382da50503decb0a25c7dfb25",
    },
    3: {
        "report.json": "0e74a73e5ab2b5d2d9bf2360ded5175db5f771365ff923f1a0d82e6e58ec2c41",
        "report.txt": "70270c2a9af244e20170165d3adca6531c2ed6efc2e20e3c5fbe5c32b112126c",
        "tree.json": "c4bbfd66966781dba6ba04bb7489162039b4984b36199092a7aad1fe2f34c316",
        "history.csv": "62e926f40de0442d77b7778b77468a96a85412ae9a4104aa973d9e3aca12f135",
        "theory.json": "0f0d56ab3767f794ef0a11781c6e6d61a3af7ec1af3c302d7821305568c877f9",
        "program.pl": "1b5e42e152f95bf9c5a33856136ee4878963f85382da50503decb0a25c7dfb25",
    },
    4: {
        "report.json": "9e723e66d10ac0f45c9690e36796d628772964996fbb78186b6013bf7e08c537",
        "report.txt": "1021a88d47fb625cf8349c4a92dfa5e7c21ea4879934df0201048fd9615cf434",
        "tree.json": "988fcf01e9e4ecfa19be4eac379a5ec80cbc74fc1dba65d35879df5a9a1c596f",
        "history.csv": "694e1540acd1ae43c845a3a775630cb0554f69a83cfd3ffc9691c85cbc407ad5",
        "theory.json": "fad748b8e627f9e99c0a2fd5a1e230e64fcb2260b7c2dfcf39440d63a8310fd8",
        "program.pl": "b4b554477af04535b6b51d7b79be7041bcf8f41c54ae8fcad91e663511ac7f76",
    },
    5: {
        "report.json": "86e94d1141c51e8b027d1a08e4e076a334ea9fe75faee2b0e96bfd8481d510a7",
        "report.txt": "582381c93c936805d0c9763bd499a46b696bdc4e7ad5c32682de6d80a5bbe340",
        "tree.json": "03bcbbfe9dfb08b84d3bf389558b22635b1df41135bb24c6612bb3c49a21035a",
        "history.csv": "44380bb88fb25ff43ac79f20592a0cc82a32dd18c192fd44ad7d65106a81573e",
        "theory.json": "c326708040e164d996c1bad2d704015c7b61584002e9dcb2601d4e86d307f8e5",
        "program.pl": "31bc5cb7352f3ddc114b8152bd840586770dc02776fc116a8bfa1a97b692d9a1",
    },
    6: {
        "report.json": "2db732a58d7bcfded25889c21aec3cd31377ce5baf9cf015942fe21ba25379e6",
        "report.txt": "cc85577cdfb911829dcb068d2dcdccca8e21e5fac3c79ef85c87dd32210d67c1",
        "tree.json": "03bcbbfe9dfb08b84d3bf389558b22635b1df41135bb24c6612bb3c49a21035a",
        "history.csv": "3de2f48660083d9b2608f3bf83eecf39721c49e97098cf7eb0035398d2970439",
        "theory.json": "c326708040e164d996c1bad2d704015c7b61584002e9dcb2601d4e86d307f8e5",
        "program.pl": "31bc5cb7352f3ddc114b8152bd840586770dc02776fc116a8bfa1a97b692d9a1",
    },
    7: {
        "report.json": "24001e702b24d48188dfe130351dc0127ead41393869647b675686fe41648397",
        "report.txt": "3726746c3576c57f1d0541c1ea63edf471b531b66d598dfb7a0a48fd159fc8b2",
        "tree.json": "c4bbfd66966781dba6ba04bb7489162039b4984b36199092a7aad1fe2f34c316",
        "history.csv": "5fc337abd8c1b2c4cb9b1dfe8da3dbd5e7deb97262fe92ae81fce5269da4f57c",
        "theory.json": "0f0d56ab3767f794ef0a11781c6e6d61a3af7ec1af3c302d7821305568c877f9",
        "program.pl": "1b5e42e152f95bf9c5a33856136ee4878963f85382da50503decb0a25c7dfb25",
    },
    8: {
        "report.json": "df73750e26d68969ccdb4ab7c72ce4141ab92b354d48991efda553e264a699f4",
        "report.txt": "10c4e859c596d8d0407a522c5cacea62e8bcaa1bd1358e1cb6315b063036b131",
        "tree.json": "c4bbfd66966781dba6ba04bb7489162039b4984b36199092a7aad1fe2f34c316",
        "history.csv": "77c086d37a034ad4ce0301698ffc974a25b2aa6bcdf49c5bbf2d1fda15e600e6",
        "theory.json": "0f0d56ab3767f794ef0a11781c6e6d61a3af7ec1af3c302d7821305568c877f9",
        "program.pl": "1b5e42e152f95bf9c5a33856136ee4878963f85382da50503decb0a25c7dfb25",
    },
    9: {
        "report.json": "b8505896d571ca801e2cdea1d8bb0e108e80274a9ed1eed4b9d8484b0935b117",
        "report.txt": "b716df8101b53d3a35863c2cd55f06ab753dcc743b09086de3db25db243336fe",
        "tree.json": "ea4c83fccb07b2b835668e731c5885f1397fcb9d29d2f290d347771825cb75c6",
        "history.csv": "492893e3d6f5f44775b1c1866db7f6c6921c47d3cb4750d1d5533e8ab7bb980b",
        "theory.json": "1275232a32e9298c0139f6c0d3466fa9c4f1a30b3e8cbef95b96bcc1b712c179",
        "program.pl": "139cd0ae8d29fe3bd74605f64d469a78ee142e72a539fbe62ce6d0b9aeffabc9",
    },
}


@pytest.fixture(scope="module")
def induce_runs(tmp_path_factory):
    """`induce_runs(k)`: the `out` directory of the run INDUCE_DIGESTS pins for
    seed k, made once per seed and module."""
    outdirs = {}

    def outdir(seed):
        if seed not in outdirs:
            cwd = tmp_path_factory.mktemp(f"induce-seed{seed}")
            (cwd / "trains20.pl").write_bytes(Path(TRAINS20).read_bytes())
            with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
                patch.chdir(cwd)
                assert main(["induce", "--data", "trains20.pl", "--seed", str(seed), "--emit-dir", "out"]) == 0
            outdirs[seed] = cwd / "out"
        return outdirs[seed]

    return outdir


@pytest.mark.parametrize("seed", range(10))
def test_induce_artifacts_are_pinned(induce_runs, seed):
    out = induce_runs(seed)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert digests == INDUCE_DIGESTS[seed]


@pytest.mark.parametrize("seed", range(10))
def test_induce_program_classifies_trains20_as_its_report_says(induce_runs, trains20, seed):
    out = induce_runs(seed)
    program = (out / "program.pl").read_text()
    said = json.loads((out / "report.json").read_text())["confusion"]
    ran = dict.fromkeys(said, 0)
    for train in trains20:
        ran[f"{train.label}_as_{'east' if run_eastbound(program, train) else 'west'}"] += 1
    assert ran == said


def _printed(argv):
    """(exit status, stdout) of main(argv)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    return code, printed.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 60), st.integers(0, 10**6), st.integers(0, 99))
def test_induce_on_random_trains_writes_a_program_that_does_what_its_report_says(
    tmp_path_factory, count, pool_seed, seed
):
    """End to end on generated data, at pop 4 x 2: the emitted program, run by
    the oracle interpreter, reproduces the report's confusion on every train;
    `score` prints the report's complexity; `agree` of theory.json with itself
    prints 100%."""
    base = tmp_path_factory.mktemp("random-induce")
    data, out = base / "random.pl", base / "out"
    data.write_text(render_trains(random_trains(count, pool_seed)))
    argv = ["induce", "--data", str(data), "--seed", str(seed), "--pop-size", "4", "--generations", "2"]
    code, _ = _printed(argv + ["--emit-dir", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == (0 if report["best"]["error_count"] == 0 else 1)
    program = (out / "program.pl").read_text()
    ran = dict.fromkeys(report["confusion"], 0)
    for train in load_trains(data):
        ran[f"{train.label}_as_{'east' if run_eastbound(program, train) else 'west'}"] += 1
    assert ran == report["confusion"]
    for command, want in (
        (["score", str(out / "program.pl")], f"{report['complexity']}\n"),
        (["agree", str(out / "theory.json"), str(out / "theory.json"), "--data", str(data)], "agreement: 100.0%\n"),
    ):
        assert _printed(command) == (0, want)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(10, 40), st.integers(0, 10**6)), min_size=1, max_size=3), st.integers(0, 99))
def test_multi_reports_what_induce_reports_on_each_file_and_totals_them(tmp_path_factory, pools, seed):
    """`multi` over k generated files, at pop 4 x 2: its datasets are the k
    reports `induce` prints for the files alone, in order, its totals are
    their sums and its exit status is the highest of theirs."""
    base = tmp_path_factory.mktemp("random-multi")
    paths = [str(base / f"random{i}.pl") for i in range(len(pools))]
    for path, (count, pool_seed) in zip(paths, pools):
        Path(path).write_text(render_trains(random_trains(count, pool_seed)))
    options = ["--seed", str(seed), "--pop-size", "4", "--generations", "2", "--format", "json"]
    code, out = _printed(["multi", *(arg for path in paths for arg in ("--data", path)), *options])
    alone = [_printed(["induce", "--data", path, *options]) for path in paths]
    reports = [json.loads(report) for _, report in alone]
    errors = sum(report["best"]["error_count"] for report in reports)
    assert json.loads(out) == {
        "datasets": reports,
        "total_complexity": sum(report["complexity"] for report in reports),
        "total_errors": errors,
    }
    assert code == (0 if errors == 0 else 1) == max(status for status, _ in alone)
