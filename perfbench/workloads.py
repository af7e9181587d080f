"""The benchmark's workloads: inputs made from the seed, timed units, output checks.

Each workload writes its inputs into a work directory during untimed
set-up and then exposes a list of units; one pass runs every unit once.
The seed shuffles the train order of a fixed pool of trains.  The learner
is invariant to train order, so every seed has the same expected outputs
(held in goldens.json) and the same amount of work, while the program never
sees the same input file twice across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np

from eastwest import cli, features, theory, trains, tree
from spans import CLI_SPAN, HOOKS

# seed of the random-train pools of scale300-induce and theory-agree2000
POOL_SEED = 0
EMITTED = ("report.json", "tree.json", "history.csv", "program.pl", "theory.json")


def call_cli(argv, tracer=None):
    """Run eastwest.cli.main with its stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.span(CLI_SPAN, cli.main, argv)
    return code, out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _matrix_sha256(matrix) -> str:
    # rows sorted, so the digest does not depend on the seed's train order
    rows = np.packbits(np.column_stack([matrix.values, matrix.labels]), axis=1)
    return _sha256(b"".join(sorted(row.tobytes() for row in rows)))


def _write_shuffled(pool, seed, path: Path):
    order = list(pool)
    random.Random(seed).shuffle(order)
    path.write_text(trains.render_trains(order))


class Workload:
    """Shared bookkeeping: golden comparison and run-to-run identity."""

    name = ""
    golden_fields: tuple[str, ...] = ()
    required_hooks: frozenset[str] = frozenset()
    generations = 0

    def __init__(self, workdir: Path, seed: int, goldens: dict | None):
        self.workdir = workdir
        self.seed = seed
        self.goldens = goldens  # None while recording goldens
        self.first_seen: dict[str, dict] = {}
        self.table = features.build_feature_table("full")

    def units(self) -> list[str]:
        raise NotImplementedError

    def held_out_units(self) -> list[str]:
        """Units without goldens, checked after the timed section."""
        return []

    def run(self, unit: str, tracer=None):
        raise NotImplementedError

    def observe(self, unit: str, output, problems: list[str]) -> dict:
        """Values to compare across runs; appends failed output checks to problems."""
        raise NotImplementedError

    def check(self, unit: str, output) -> tuple[dict | None, list[str]]:
        problems: list[str] = []
        try:
            observed = self.observe(unit, output, problems)
        except Exception as exc:  # a malformed output is a failed check
            return None, [f"{unit}: checking the output raised {exc!r}"]
        if self.first_seen.setdefault(unit, observed) != observed:
            problems.append("output differs from this run's first output")
        if self.goldens is not None and unit in self.goldens:
            view = {k: observed[k] for k in self.golden_fields if k in observed}
            if view != self.goldens[unit]:
                problems.append(f"output {view} differs from the golden {self.goldens[unit]}")
        return observed, [f"{unit}: {p}" for p in problems]

    def golden(self) -> dict:
        """The goldens this run would record: its first output of each unit."""
        return {
            u: {k: v for k, v in self.first_seen[u].items() if k in self.golden_fields}
            for u in self.units()
        }

    def quality(self) -> tuple[float, float]:
        """(best_fitness, program_complexity) of the units with goldens."""
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Per-layer counters one traced pass must reproduce exactly."""
        raise NotImplementedError


ALL_INDUCE_HOOKS = frozenset(HOOKS) - {"theory.agreement", "theory.classify"}


class InduceWorkload(Workload):
    """`eastwest induce --emit-dir` over one data file, one unit per GA seed."""

    golden_fields = ("fitness", "complexity", "error_count")
    required_hooks = ALL_INDUCE_HOOKS
    ga_seeds: tuple[int, ...] = ()
    pop_size = 50
    generations = 20

    def __init__(self, workdir, seed, goldens):
        super().__init__(workdir, seed, goldens)
        self.data = workdir / "data.pl"
        _write_shuffled(self.pool(), seed, self.data)
        shuffled = trains.load_trains(self.data)
        self.matrix = features.evaluate_features(shuffled, self.table)

    def pool(self):
        raise NotImplementedError

    def units(self):
        return [f"ga_seed={s}" for s in self.ga_seeds]

    def run(self, unit, tracer=None):
        ga_seed = unit.split("=")[1]
        emit = self.workdir / unit.replace("=", "-")
        argv = [
            "induce", "--data", str(self.data), "--seed", ga_seed,
            "--pop-size", str(self.pop_size), "--generations", str(self.generations),
            "--emit-dir", str(emit),
        ]
        code, _ = call_cli(argv, tracer)
        return code, emit

    def observe(self, unit, output, problems):
        code, emit = output
        blobs = {name: (emit / name).read_bytes() for name in EMITTED}
        report = json.loads(blobs["report.json"])
        if report["config"]["data"] != str(self.data):
            problems.append("report.json names another data file")
        report["config"]["data"] = "<data>"  # the input path differs per checkout
        digests = {name: _sha256(blob) for name, blob in blobs.items()}
        digests["report.json"] = _sha256(
            (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        )

        errors = report["best"]["error_count"]
        if code != (0 if errors == 0 else 1):
            problems.append(f"exit code {code} with {errors} training errors")
        n = self.matrix.n_trains
        confusion = report["confusion"]
        if report["n_trains"] != n or sum(confusion.values()) != n:
            problems.append(f"confusion counts {confusion} do not sum to {n} trains")
        program = blobs["program.pl"].decode()
        if program != report["program"] or theory.complexity(program) != report["complexity"]:
            problems.append("program.pl does not re-score to the reported complexity")

        best_tree = tree.tree_from_dict(json.loads(blobs["tree.json"]), self.table)
        best_theory = theory.theory_from_json(blobs["theory.json"].decode(), self.table)
        if tree.tree_to_json(best_tree, self.table).encode() != blobs["tree.json"]:
            problems.append("tree.json does not round-trip")
        if theory.theory_to_json(best_theory, self.table).encode() != blobs["theory.json"]:
            problems.append("theory.json does not round-trip")
        by_tree = tree.predict_all(best_tree, self.matrix)
        by_theory = theory.evaluate_dnf(best_theory.dnf, self.matrix.values)
        if not np.array_equal(by_tree, by_theory):
            problems.append("tree.json and theory.json predict differently")
        if int((by_tree != self.matrix.labels).sum()) != errors:
            problems.append("tree.json's training errors differ from the report")
        if int(by_tree.sum()) != confusion["east_as_east"] + confusion["west_as_east"]:
            problems.append("tree.json's east predictions differ from the confusion counts")
        return {
            "digests": digests,
            "fitness": report["best"]["fitness"],
            "complexity": report["complexity"],
            "error_count": errors,
        }

    def quality(self):
        seen = [self.first_seen[u] for u in self.units() if u in self.first_seen]
        if not seen:  # every unit failed; the run reports failure
            return 0.0, 0.0
        return (
            sum(o["fitness"] for o in seen) / len(seen),
            float(sum(o["complexity"] for o in seen)),
        )

    def expected_counts(self):
        evaluations = self.pop_size * self.generations * len(self.ga_seeds)
        return {
            "ga.evaluations": evaluations,
            "tree.induce_calls": evaluations,
            "tree.prune_calls": evaluations,
            "theory.classify_calls": 0,
        }


class Trains20Induce(InduceWorkload):
    name = "trains20-induce"
    # every emitted file is byte-compared, so any change to the search shows
    golden_fields = ("digests", "fitness", "complexity", "error_count")
    ga_seeds = (0, 1, 2, 3, 4)
    held_out_base = 5

    def pool(self):
        return trains.load_trains(cli.data_path("trains20.pl"))

    def held_out_units(self):
        # a GA seed that has no golden, run twice back to back
        unit = f"ga_seed={self.held_out_base + self.seed}"
        return [unit, unit]


class Scale300Induce(InduceWorkload):
    name = "scale300-induce"
    ga_seeds = (0,)
    pop_size = 20
    generations = 5

    def pool(self):
        return trains.random_trains(300, POOL_SEED)


class TheoryAgree2000(Workload):
    """Agreement and scoring of two fixed theories over 2000 trains."""

    name = "theory-agree2000"
    golden_fields = ("agreement", "score", "matrix_sha256", "complexity", "tree_fitness")
    required_hooks = frozenset(
        {
            "trains.parse_trains",
            "features.build_feature_table",
            "features.evaluate_features",
            "theory.simplify_dnf",
            "theory.render_program",
            "theory.complexity",
            "theory.agreement",
            "theory.classify",
        }
    )
    n_trains = 2000
    slice_size = 200

    def __init__(self, workdir, seed, goldens):
        super().__init__(workdir, seed, goldens)
        pool = trains.random_trains(self.n_trains, POOL_SEED)
        self.data = workdir / "big.pl"
        _write_shuffled(pool, seed, self.data)
        self.trains = trains.load_trains(self.data)
        self.matrix = features.evaluate_features(self.trains, self.table)
        self.costs = np.array([s.cost for s in self.table], dtype=float)

        # two theories from fixed biases on an unshuffled slice, so they are
        # the same for every seed: cost-biased C4.5 and plain C4.5
        sample = features.evaluate_features(pool[: self.slice_size], self.table)
        biases = (
            tree.BiasVector(self.costs, 1.0, 25.0),
            tree.BiasVector(np.zeros(len(self.table)), 0.0, 25.0),
        )
        self.trees = [tree.induce_tree(sample, b) for b in biases]
        self.raw = [theory.tree_to_dnf(t) for t in self.trees]
        self.stored = [theory.finalize(theory.simplify_dnf(r, sample), self.table) for r in self.raw]
        self.theory_files = [workdir / "a.json", workdir / "b.json"]
        for path, th in zip(self.theory_files, self.stored):
            path.write_text(theory.theory_to_json(th, self.table))
        self.program = workdir / "program.pl"
        self.program.write_text(self.stored[0].rendered)

    def units(self):
        # one pass is split into its four steps, so a run takes more samples
        return ["agree", "score", "evaluate", "simplify"]

    def run(self, unit, tracer=None):
        if unit == "agree":
            a, b = (str(p) for p in self.theory_files)
            return call_cli(["agree", a, b, "--data", str(self.data)], tracer)
        if unit == "score":
            return call_cli(["score", str(self.program)], tracer)
        if unit == "evaluate":
            return features.evaluate_features(self.trains, self.table)
        return [
            theory.finalize(theory.simplify_dnf(raw, self.matrix), self.table) for raw in self.raw
        ]

    def observe(self, unit, output, problems):
        if unit in ("agree", "score"):
            code, out = output
            if code != 0:
                problems.append(f"exit code {code}")
        if unit == "agree":
            line = out.strip()
            a, b = (theory.evaluate_dnf(th.dnf, self.matrix.values) for th in self.stored)
            if line != f"agreement: {100.0 * float(np.mean(a == b)):.1f}%":
                problems.append(f"{line!r} disagrees with the theories' matrix predictions")
            return {"agreement": line}
        if unit == "score":
            score = int(out)
            if score != theory.complexity(self.program.read_text()):
                problems.append("score disagrees with complexity() of the same program")
            return {"score": score}
        if unit == "evaluate":
            if output.values.shape != (self.n_trains, len(self.table)):
                problems.append(f"feature matrix has shape {output.values.shape}")
            return {"matrix_sha256": _matrix_sha256(output)}
        for raw, th in zip(self.raw, output):
            before = theory.evaluate_dnf(raw.dnf, self.matrix.values)
            if not np.array_equal(before, theory.evaluate_dnf(th.dnf, self.matrix.values)):
                problems.append("simplify_dnf changed a prediction on the 2000 trains")
            if th.complexity != theory.complexity(th.rendered):
                problems.append("a finalized theory does not re-score to its complexity")
        return {
            "complexity": [th.complexity for th in output],
            "tree_fitness": [tree.fitness(t, self.matrix, self.costs).fitness for t in self.trees],
        }

    def quality(self):
        if "simplify" not in self.first_seen:  # every simplify failed; the run reports failure
            return 0.0, 0.0
        seen = self.first_seen["simplify"]
        fitness = seen["tree_fitness"]
        return sum(fitness) / len(fitness), float(sum(seen["complexity"]))

    def expected_counts(self):
        return {
            "ga.evaluations": 0,
            "tree.induce_calls": 0,
            "tree.prune_calls": 0,
            # agreement classifies every train once under each theory
            "theory.classify_calls": 2 * self.n_trains,
        }


WORKLOADS = {w.name: w for w in (Trains20Induce, Scale300Induce, TheoryAgree2000)}
