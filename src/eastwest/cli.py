"""Command-line entry point: induction runs, multi-dataset totals, agreement.

Reports embed the full configuration and seed, and contain no timestamps,
so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import features, ga, theory as theory_mod, trains as trains_mod, tree as tree_mod


class CliError(Exception):
    pass


def data_path(name: str) -> Path:
    """Path of a bundled dataset, e.g. 'trains20.pl'."""
    return Path(resources.files("eastwest.data") / name)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_text(path: Path, text: str, mkdir: bool = False) -> None:
    """Write `text` to `path`; with `mkdir`, create its directory first."""
    try:
        if mkdir:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


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


def _run_one(data_file: str, args) -> dict:
    try:
        config = ga.GaConfig(
            population_size=args.pop_size,
            generations=args.generations,
            rng_seed=args.seed,
            error_cost=args.error_cost,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    trains = _load_dataset(data_file)
    table = _load_table(args.features)
    matrix = features.evaluate_features(trains, table)
    costs = np.array([s.cost for s in table])
    result = ga.evolve(matrix, costs, config)

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
            "population_size": config.population_size,
            "generations": config.generations,
            "crossover_rate": ga.CROSSOVER_RATE,
            "mutation_rate": ga.MUTATION_RATE,
            "elitism_count": ga.ELITISM_COUNT,
            "rng_seed": config.rng_seed,
            "error_cost": config.error_cost,
        },
        "n_trains": len(trains),
        "best": {
            "fitness": result.best_report.fitness,
            "test_cost": result.best_report.test_cost,
            "error_count": result.best_report.error_count,
            "error_rate": result.best_report.error_rate,
        },
        "confusion": confusion,
        "program": simplified.rendered,
        "complexity": simplified.complexity,
    }
    return {
        "report": report,
        "table": table,
        "result": result,
        "theory": simplified,
    }


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


def _emit(outdir: Path, bundle: dict, fmt: str):
    table = bundle["table"]
    result = bundle["result"]
    report = bundle["report"]
    _write_text(outdir / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n", mkdir=True)
    if fmt == "text":
        _write_text(outdir / "report.txt", _report_text(report))
    _write_text(outdir / "tree.json", tree_mod.tree_to_json(result.best_tree, table))
    _write_text(outdir / "history.csv", ga.history_to_csv(result.history))
    _write_text(outdir / "program.pl", report["program"])
    _write_text(outdir / "theory.json", theory_mod.theory_to_json(bundle["theory"], table))


def cmd_induce(args) -> int:
    bundle = _run_one(args.data, args)
    report = bundle["report"]
    if args.emit_dir:
        _emit(Path(args.emit_dir), bundle, args.format)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_report_text(report), end="")
    return 0 if report["best"]["error_count"] == 0 else 1

def cmd_multi(args) -> int:
    bundles = []
    for i, data_file in enumerate(args.data, start=1):
        bundle = _run_one(data_file, args)
        if args.emit_dir:
            _emit(Path(args.emit_dir) / f"dataset{i}", bundle, args.format)
        bundles.append(bundle)
    total = sum(b["report"]["complexity"] for b in bundles)
    errors = sum(b["report"]["best"]["error_count"] for b in bundles)
    summary = {
        "datasets": [b["report"] for b in bundles],
        "total_complexity": total,
        "total_errors": errors,
    }
    if args.emit_dir:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        _write_text(Path(args.emit_dir) / "summary.json", text)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for b in bundles:
            print(_report_text(b["report"]), end="")
            print("-" * 40)
        print(f"total complexity: {total}")
        print(f"total errors: {errors}")
    return 0 if errors == 0 else 1


def cmd_agree(args) -> int:
    table = features.build_feature_table("full")
    texts = [_read_text(path) for path in (args.theory_a, args.theory_b)]
    try:
        a, b = (theory_mod.theory_from_json(text, table) for text in texts)
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON
        raise CliError(f"cannot load theory: {exc}") from None
    trains = _load_dataset(args.data)
    value = theory_mod.agreement(a, b, trains, table)
    print(f"agreement: {100.0 * value:.1f}%")
    return 0


def cmd_features(args) -> int:
    table = _load_table(args.features)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"index": s.index, "name": s.name, "kind": s.kind, "cost": s.cost}
                    for s in table
                ],
                indent=2,
            )
        )
    else:
        for s in table:
            print(f"{s.index}\t{s.name}\t{s.kind}\t{s.cost}")
    return 0


def cmd_score(args) -> int:
    text = _read_text(args.program)
    try:
        print(theory_mod.complexity(text))
    except theory_mod.ProgramSyntaxError as exc:
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
    parser = argparse.ArgumentParser(
        prog="eastwest",
        description="Induce low-cost decision trees over train descriptions "
        "and emit them as sized logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ga_args(p):
        p.add_argument("--seed", type=int, default=ga.GaConfig.rng_seed)
        p.add_argument("--pop-size", type=int, default=ga.GaConfig.population_size)
        p.add_argument("--generations", type=int, default=ga.GaConfig.generations)
        p.add_argument("--error-cost", type=float, default=ga.GaConfig.error_cost)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
