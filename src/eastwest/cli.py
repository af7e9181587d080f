"""Command-line entry point: induction runs, multi-dataset totals, agreement.

Reports embed the full configuration and seed, and contain no timestamps,
so a rerun with the same inputs is byte-identical.

Only `features` and `trains` are imported here, and neither loads numpy, so
`score`, `features`, `--help` and usage errors start without it.  `induce`
and `multi` import the learner (`ga`, `theory`, `tree`) in their own
bodies; `agree` imports `theory` alone, which loads neither numpy nor
`tree` until a tree or a matrix is read.  Both call it through the module,
as the tests and the benchmark's hooks replace module attributes.

The records these modules define (`Car`, `Train`, `FeatureSpec`,
`FeatureMatrix`, `Theory`) are typed tuples, not dataclasses, so only
`induce` and `multi` load `dataclasses` (with `inspect`, `ast` and `dis`),
for the learner's records and the reports written from them.  A record
is iterable and compares equal to the plain tuple of its values.  With
bytecode caches, importing this module and building the full feature
table went from 22.5 to 10.9 ms, and a cold `score`, `features` or
`agree` runs 18-22% faster (README).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import features, trains as trains_mod


class CliError(Exception):
    pass


# what str.splitlines breaks at, escaped so that an error stays one line whatever it quotes
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"})


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are `CliError`s, reported as one line."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def data_path(name: str) -> Path:
    """Path of a bundled dataset, e.g. 'trains20.pl'."""
    from importlib import resources  # about 10 ms to import; no command needs it

    return Path(resources.files("eastwest.data") / name)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and a NUL in the path
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_text(path: Path, text: str, mkdir: bool = False) -> None:
    """Write `text` to `path`; with `mkdir`, create its directory first."""
    try:
        if mkdir:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise CliError(f"cannot write {path}: {exc}") from None


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _load_table(spec: str):
    if spec in ("full", "unary-train", "unary_train"):
        return features.build_feature_table("unary_train" if spec != "full" else "full")
    if not Path(spec).exists():
        raise CliError(f"feature set {spec!r} is neither a known name nor a file")
    names = [line.strip() for line in _read_text(spec).splitlines() if line.strip()]
    try:
        return features.build_feature_table(names)
    except ValueError as exc:
        raise CliError(f"{spec}: {exc}") from None


def _load_dataset(path: str):
    try:
        loaded = trains_mod.parse_trains(_read_text(path))
    except trains_mod.TrainFormatError as exc:
        raise CliError(f"{path}: {exc}") from None
    if not loaded:
        raise CliError(f"{path}: no train facts found")
    return loaded


def _run_one(data_file: str, args) -> tuple[dict, dict[str, str]]:
    """The run's report, and the text of each file `--emit-dir` writes, by name."""
    from dataclasses import asdict, fields

    import numpy as np

    from . import ga, theory as theory_mod, tree as tree_mod

    # each GA option's dest is its GaConfig field; one left out keeps the
    # field's default, which only GaConfig defines
    given = {f.name: value for f in fields(ga.GaConfig) if (value := getattr(args, f.name)) is not None}
    try:
        config = ga.GaConfig(**given)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    trains = _load_dataset(data_file)
    table = _load_table(args.features)
    matrix = features.evaluate_features(trains, table)
    costs = np.array([s.cost for s in table])
    try:
        result = ga.evolve(matrix, costs, config)
    except MemoryError:  # numpy's _ArrayMemoryError, e.g. for a huge --pop-size
        raise CliError(f"out of memory for a population of {config.population_size}") from None

    raw = theory_mod.tree_to_dnf(result.best_tree)
    simplified = theory_mod.finalize(theory_mod.simplify_dnf(raw, matrix), table)

    predictions = tree_mod.predict_all(result.best_tree, matrix)
    east = matrix.labels
    confusion = {
        "east_as_east": int((predictions & east).sum()),
        "east_as_west": int((~predictions & east).sum()),
        "west_as_west": int((~predictions & ~east).sum()),
        "west_as_east": int((predictions & ~east).sum()),
    }
    report = {
        "config": {
            "data": str(data_file),
            "features": args.features,
            "n_features": len(table),
            **asdict(config),
            "crossover_rate": ga.CROSSOVER_RATE,
            "mutation_rate": ga.MUTATION_RATE,
            "elitism_count": ga.ELITISM_COUNT,
        },
        "n_trains": len(trains),
        "best": asdict(result.best_report),
        "confusion": confusion,
        "program": simplified.rendered,
        "complexity": simplified.complexity,
    }
    artifacts = {"report.json": _json(report)}
    if args.format == "text":
        artifacts["report.txt"] = _report_text(report)
    artifacts["tree.json"] = tree_mod.tree_to_json(result.best_tree, table)
    artifacts["history.csv"] = ga.history_to_csv(result.history)
    artifacts["program.pl"] = report["program"]
    artifacts["theory.json"] = theory_mod.theory_to_json(simplified, table)
    return report, artifacts


def _report_text(report: dict) -> str:
    lines = []
    lines.append(f"data: {report['config']['data']} ({report['n_trains']} trains)")
    lines.append(
        f"features: {report['config']['features']} ({report['config']['n_features']}), "
        f"seed {report['config']['rng_seed']}"
    )
    best = report["best"]
    lines.append(
        f"best tree: fitness {best['fitness']:g}, test cost {best['test_cost']}, "
        f"errors {best['error_count']}"
    )
    c = report["confusion"]
    lines.append(
        f"confusion: east {c['east_as_east']}/{c['east_as_east'] + c['east_as_west']}, "
        f"west {c['west_as_west']}/{c['west_as_west'] + c['west_as_east']}"
    )
    lines.append(f"program complexity: {report['complexity']}")
    lines.append("program:")
    lines.append(report["program"].rstrip("\n") or "(empty: always westbound)")
    return "\n".join(lines) + "\n"


def _emit(outdir: Path, artifacts: dict[str, str]) -> None:
    for name, text in artifacts.items():
        _write_text(outdir / name, text, mkdir=True)


def cmd_induce(args) -> int:
    report, artifacts = _run_one(args.data, args)
    if args.emit_dir:
        _emit(Path(args.emit_dir), artifacts)
    print(artifacts["report.json" if args.format == "json" else "report.txt"], end="")
    return 0 if report["best"]["error_count"] == 0 else 1


def cmd_multi(args) -> int:
    reports = []
    for i, data_file in enumerate(args.data, start=1):
        report, artifacts = _run_one(data_file, args)
        if args.emit_dir:
            _emit(Path(args.emit_dir) / f"dataset{i}", artifacts)
        reports.append(report)
    total = sum(r["complexity"] for r in reports)
    errors = sum(r["best"]["error_count"] for r in reports)
    summary = {"datasets": reports, "total_complexity": total, "total_errors": errors}
    if args.emit_dir:
        _write_text(Path(args.emit_dir) / "summary.json", _json(summary))
    if args.format == "json":
        print(_json(summary), end="")
    else:
        for report in reports:
            print(_report_text(report), end="")
            print("-" * 40)
        print(f"total complexity: {total}")
        print(f"total errors: {errors}")
    return 0 if errors == 0 else 1


def cmd_agree(args) -> int:
    from . import theory as theory_mod

    table = features.build_feature_table("full")
    texts = [_read_text(path) for path in (args.theory_a, args.theory_b)]
    try:
        a, b = (theory_mod.theory_from_json(text, table) for text in texts)
    except KeyError as exc:
        raise CliError(f"unknown feature {exc.args[0]!r}") from None
    except ValueError as exc:  # covers bad JSON
        raise CliError(f"cannot load theory: {exc}") from None
    trains = _load_dataset(args.data)
    value = theory_mod.agreement(a, b, trains, table)
    print(f"agreement: {100.0 * value:.1f}%")
    return 0


def cmd_features(args) -> int:
    rows = [{"index": s.index, "name": s.name, "kind": s.kind, "cost": s.cost} for s in _load_table(args.features)]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(*row.values(), sep="\t")
    return 0


def cmd_score(args) -> int:
    text = _read_text(args.program)
    try:
        print(trains_mod.complexity(text))
    except trains_mod.ProgramSyntaxError as exc:
        raise CliError(f"{args.program}: {exc}") from None
    return 0


def cmd_gen_trains(args) -> int:
    try:
        generated = trains_mod.random_trains(args.count, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    text = trains_mod.render_trains(generated)
    if args.out:
        _write_text(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eastwest",
        description="Induce low-cost decision trees over train descriptions "
        "and emit them as sized logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ga_args(p):
        # no defaults here: _run_one passes GaConfig only the options given
        p.add_argument("--seed", type=int, dest="rng_seed", metavar="SEED")
        p.add_argument("--pop-size", type=int, dest="population_size", metavar="POP_SIZE")
        p.add_argument("--generations", type=int)
        p.add_argument("--error-cost", type=float)
        p.add_argument(
            "--features",
            default="full",
            help="'full', 'unary-train', or a file of feature names",
        )
        p.add_argument("--emit-dir", default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("induce", help="evolve a tree for one dataset")
    p.add_argument("--data", required=True)
    add_ga_args(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("multi", help="evolve one tree per dataset and total the sizes")
    p.add_argument("--data", action="append", required=True)
    add_ga_args(p)
    p.set_defaults(func=cmd_multi)

    p = sub.add_parser("agree", help="agreement of two stored theories on a dataset")
    p.add_argument("theory_a")
    p.add_argument("theory_b")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("features", help="dump the feature table with costs")
    p.add_argument("--features", default="full")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("score", help="size-complexity of a program file")
    p.add_argument("program")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("gen-trains", help="generate random trains (non-canonical)")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_trains)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
