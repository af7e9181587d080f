import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eastwest
from eastwest.cli import data_path, main
from eastwest.features import build_feature_table, feature_index
from eastwest.theory import Theory, finalize, theory_to_json
from eastwest.trains import load_trains

TRAINS10 = str(data_path("trains10.pl"))
TRAINS20 = str(data_path("trains20.pl"))

FAST = ["--features", "unary-train", "--pop-size", "10", "--generations", "4"]


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
    for name in ("report.json", "report.txt", "tree.json", "history.csv", "program.pl", "theory.json"):
        assert (outdir / name).exists(), name
    report = json.loads((outdir / "report.json").read_text())
    assert report["best"]["error_count"] == 0
    history = (outdir / "history.csv").read_text().strip("\n").split("\n")
    assert len(history) == 1 + 4  # header + one row per generation


def test_induce_reruns_are_byte_identical(capsys, tmp_path):
    args = ["induce", "--data", TRAINS20, "--seed", "5"] + FAST
    run(capsys, args + ["--emit-dir", str(tmp_path / "a")])
    run(capsys, args + ["--emit-dir", str(tmp_path / "b")])
    for name in ("report.json", "report.txt", "tree.json", "history.csv", "program.pl", "theory.json"):
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
        lambda d: ["gen-trains", "--out", str(d / "missing" / "random.pl")],
        lambda d: ["induce", "--data", TRAINS20, "--emit-dir", _write(d / "file", "")] + FAST,
        lambda d: ["induce", "--data", _write(d / "compound.pl", COMPOUND_FIELD)],
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
        "gen-trains-out-in-missing-dir",
        "emit-dir-is-a-file",
        "compound-car-field",
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, request, case):
    code, out, err = run(capsys, case(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert err.endswith(ERROR_TEXT.get(request.node.callspec.id, "")), err


def _cli_import_loads(module):
    """Whether a fresh interpreter loads `module` when it imports eastwest.cli."""
    src = str(Path(eastwest.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = f"import sys, eastwest.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats takes about a second to import; the pruning bound uses
    # scipy.special alone, and start-up time should stay that way
    assert not _cli_import_loads("scipy.stats")


def test_cli_import_does_not_load_scipy_special():
    # only pruning needs scipy (the bound's beta quantile), so the commands
    # that never prune (features, score, agree, gen-trains) never load it
    assert not _cli_import_loads("scipy.special")
