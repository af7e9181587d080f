"""Mutation checks: each mutant breaks one spot of the package, and the tests
named with it must then fail.

Run from anywhere, with numpy, scipy, pytest and hypothesis installed:

    python tools/mutants.py

For each mutant the runner copies `src/`, `tests/` and `pyproject.toml` into a
fresh temporary directory outside the checkout, replaces the mutant's old text
(which must occur exactly once in its file, so a refactor that moves the code
fails here loudly and the mutant must be re-targeted) with its new text, and
runs each of the mutant's tests there in its own pytest call. The mutant is
killed when every one of them fails. A pytest call that runs past TIMEOUT_S
seconds is stopped and reported as an error, never as a kill. A control copy
with no replacement runs every named test first and must pass. The mutants
then run WORKERS at a time, each in its own copy, and are reported in table
order. The exit status is 0 only when the control passes and every mutant is
killed.

A change that checks a new optimisation with a hand-made mutant adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 120  # per pytest call, so a mutant that makes a loop spin cannot hold the run
WORKERS = min(2, os.cpu_count() or 1)  # mutants tested at a time, each in its own copy


@dataclass(frozen=True)
class Mutant:
    name: str  # what the replacement breaks
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "gain-eps-filter",
        "src/eastwest/tree.py",
        "cand = np.flatnonzero(gains > _GAIN_EPS)",
        "cand = np.flatnonzero(gains > 0)",
        ("tests/test_tree.py::test_rounding_noise_gain_is_not_a_split",),
    ),
    Mutant(
        "bound-key-cf",
        "src/eastwest/tree.py",
        "key = (errors, n, cf)",
        "key = (errors, n)",
        (
            "tests/test_tree.py::test_exact_score_ties_break_toward_the_lowest_feature_as_the_reference_does",
            "tests/test_ga.py::test_evolved_trees_match_unmemoized_reference",
        ),
    ),
    Mutant(
        "packbits-bitorder",
        "src/eastwest/features.py",
        'np.packbits(values[:, columns].T, axis=1, bitorder="little")',
        'np.packbits(values[:, columns].T, axis=1, bitorder="big")',
        ("tests/test_tree.py::test_words_hold_each_column_row_by_row_with_zero_padding",),
    ),
    Mutant(
        "classify-slot",
        "src/eastwest/theory.py",
        "bits >> table[feat].slot & 1",
        "bits >> table[feat].index & 1",
        (
            "tests/test_theory.py::test_classify_matches_evaluate_dnf",
            "tests/test_theory.py::test_classify_and_agreement_match_the_matrix_on_subset_tables",
        ),
    ),
    Mutant(
        "classify-loop-continue",
        "src/eastwest/theory.py",
        "!= val:\n                break",
        "!= val:\n                continue",
        (
            "tests/test_theory.py::test_classify_matches_evaluate_dnf",
            "tests/test_theory.py::test_classify_and_agreement_match_the_matrix_on_subset_tables",
        ),
    ),
    Mutant(
        "simplify-order",
        "src/eastwest/theory.py",
        "for wanted_value in (0, 1):",
        "for wanted_value in (1, 0):",
        ("tests/test_theory.py::test_one_pass_simplify_matches_fixpoint_reference",),
    ),
    Mutant(
        "prune-tie",
        "src/eastwest/tree.py",
        "if leaf_est < subtree_est:",
        "if leaf_est <= subtree_est:",
        ("tests/test_tree.py::test_prune_recounts_a_branch_that_receives_no_example",),
    ),
    Mutant(
        "entropy-row-2",
        "src/eastwest/tree.py",
        "for n in range(2, n_max + 1):",
        "for n in range(3, n_max + 1):",
        ("tests/test_tree.py::test_entropy_table_matches_float_recipe",),
    ),
    Mutant(
        "fact-punctuation-escaped-twice",
        "src/eastwest/trains.py",
        "parts.get(tok) or re.escape(tok)",
        "parts.get(tok) or re.escape(re.escape(tok))",
        ("tests/test_trains.py::test_writer_shaped_cars_never_reach_the_term_reader",),
    ),
    Mutant(
        "fact-label-swapped",
        "src/eastwest/trains.py",
        "label = m[1]",
        "label = EAST",
        (
            "tests/test_trains.py::test_parse_minimal_westbound_fact",
            "tests/test_trains.py::test_ids_count_per_label_in_order",
        ),
    ),
    Mutant(
        "token-reader-rereads-from-the-start",
        "src/eastwest/trains.py",
        "_parse_facts(_Parser(source, start), trains, counts)",
        "_parse_facts(_Parser(source), trains, counts)",
        (
            "tests/test_trains.py::test_the_token_reader_reads_on_from_the_fact_that_stops_the_fact_reader",
            "tests/test_trains.py::test_writer_shaped_cars_never_reach_the_term_reader",
            "tests/test_trains.py::test_ids_count_per_label_in_order",
        ),
    ),
    Mutant(
        "error-position-counted-from-the-start",
        "src/eastwest/trains.py",
        "_TOKEN_RE.finditer(source, start)",
        "_TOKEN_RE.finditer(source)",
        (
            "tests/test_trains.py::test_the_token_reader_reads_on_from_the_fact_that_stops_the_fact_reader",
            "tests/test_trains.py::test_errors_carry_line_and_column[end-after-trailing-comment]",
        ),
    ),
    Mutant(
        "fact-counted-before-its-positions-check",
        "src/eastwest/trains.py",
        "            if [c.position for c in cars] != list(range(1, len(cars) + 1)):\n"
        "                break  # the token reader reports it\n"
        '            label = m[1]  # "east" or "west", which are EAST and WEST\n'
        "            counts[label] += 1\n",
        '            label = m[1]  # "east" or "west", which are EAST and WEST\n'
        "            counts[label] += 1\n"
        "            if [c.position for c in cars] != list(range(1, len(cars) + 1)):\n"
        "                break  # the token reader reports it\n",
        (
            "tests/test_trains.py::test_errors_carry_line_and_column[positions-swapped]",
            "tests/test_trains.py::test_errors_carry_line_and_column[position-repeated]",
        ),
    ),
    Mutant(
        "fact-shape-takes-any-atom",
        "src/eastwest/trains.py",
        'POSITION=group.format(r"\\d+"), **fields)',
        'POSITION=group.format(r"\\d+"), **{**fields, "SHAPE": group.format("[a-z][A-Za-z0-9_]*")})',
        (
            "tests/test_trains.py::test_errors_carry_line_and_column[car-field-value]",
            "tests/test_trains.py::test_every_part_fault_reads_as_the_term_reader_reads_it",
        ),
    ),
    Mutant(
        "fact-axles-take-any-digit",
        "src/eastwest/trains.py",
        'POSITION=group.format(r"\\d+"), **fields)',
        'POSITION=group.format(r"\\d+"), **{**fields, "AXLES": group.format(r"\\d")})',
        (
            "tests/test_trains.py::test_axles_out_of_range_rejected",
            "tests/test_trains.py::test_every_part_fault_reads_as_the_term_reader_reads_it",
        ),
    ),
    Mutant(
        "fact-positions-unchecked",
        "src/eastwest/trains.py",
        "if [c.position for c in cars] != list(range(1, len(cars) + 1)):",
        "if False:",
        (
            "tests/test_trains.py::test_errors_carry_line_and_column[positions-swapped]",
            "tests/test_trains.py::test_errors_carry_line_and_column[position-zero]",
            "tests/test_trains.py::test_errors_carry_line_and_column[position-repeated]",
            "tests/test_trains.py::test_errors_carry_line_and_column[crlf-train]",
            "tests/test_trains.py::test_the_fact_reader_builds_only_records_that_pass_their_checks",
        ),
    ),
    Mutant(
        "comment-may-end-before-its-line",
        "src/eastwest/trains.py",
        r'gap = r"\s*(?:%[^\n]*(?![^\n])\s*)*"',
        r'gap = r"\s*(?:%[^\n]*\s*)*"',
        ("tests/test_trains.py::test_a_fact_inside_a_comment_is_not_read",),
    ),
    Mutant(
        "car-functor-unchecked",
        "src/eastwest/trains.py",
        'isinstance(term, tuple) and term[0] == "c"',
        "isinstance(term, tuple)",
        ("tests/test_trains.py::test_errors_carry_line_and_column[car-functor]",),
    ),
    Mutant(
        "load-functor-unchecked",
        "src/eastwest/trains.py",
        'isinstance(load, tuple) and load[0] == "l"',
        "isinstance(load, tuple)",
        ("tests/test_trains.py::test_errors_carry_line_and_column[load-functor]",),
    ),
    Mutant(
        "error-rescan-counts-comments",
        "src/eastwest/trains.py",
        'for m in _TOKEN_RE.finditer(source, start) if source[m.start()] != "%"]',
        "for m in _TOKEN_RE.finditer(source, start)]",
        (
            "tests/test_trains.py::test_errors_carry_line_and_column[after-comment-line]",
            "tests/test_trains.py::test_errors_carry_line_and_column[end-after-trailing-comment]",
        ),
    ),
    Mutant(
        "kind-without-isdecimal",
        "src/eastwest/trains.py",
        "if first.isdecimal():",
        'if "0" <= first <= "9":',
        ("tests/test_trains.py::test_non_ascii_decimal_digits_are_integers_on_both_readers",),
    ),
    Mutant(
        "load-counts-short",
        "src/eastwest/trains.py",
        "LOAD_COUNTS = (0, 1, 2, 3)",
        "LOAD_COUNTS = (0, 1, 2)",
        (
            "tests/test_trains.py::test_parse_first_train_fact",
            "tests/test_trains.py::test_random_trains_stream_is_pinned",
        ),
    ),
    Mutant(
        "closed-without-arc",
        "src/eastwest/features.py",
        '"roof", ("flat", "jagged", "peaked", "arc")',
        '"roof", ("flat", "jagged", "peaked")',
        (
            "tests/test_features.py::test_matrix_matches_brute_force_oracle",
            "tests/test_features.py::test_predicate_bits_match_the_numpy_vector_and_brute_force",
        ),
    ),
    Mutant(
        "mutation-rate-doubled",
        "src/eastwest/ga.py",
        "limit = math.ceil(MUTATION_RATE * 2**53) << 11",
        "limit = math.ceil(2 * MUTATION_RATE * 2**53) << 11",
        (
            "tests/test_ga.py::test_evolve_matches_the_list_loop_reference",
            "tests/test_cli.py::test_induce_artifacts_are_pinned[0]",
        ),
    ),
    Mutant(
        "elite-from-the-worst-end",
        "src/eastwest/ga.py",
        "rows = order[:ELITISM_COUNT].tolist()",
        "rows = order[-ELITISM_COUNT:].tolist()",
        (
            "tests/test_ga.py::test_evolve_matches_the_list_loop_reference",
            "tests/test_cli.py::test_induce_artifacts_are_pinned[0]",
        ),
    ),
    Mutant(
        "lone-child-mutates-its-sibling",
        "src/eastwest/ga.py",
        "for row in range(k, min(k + 2, size)):",
        "for row in range(k, k + 2):",
        (
            "tests/test_ga.py::test_evolve_matches_the_list_loop_reference",
            "tests/test_cli.py::test_induce_artifacts_are_pinned[0]",
        ),
    ),
    Mutant(
        "leaf-memo-keyed-by-size",
        "src/eastwest/tree.py",
        "found = self.leaves.get(s)\n        if found is None:\n            n = s.bit_count()\n"
        "            found = self.leaves[s] =",
        "n = s.bit_count()\n        found = self.leaves.get(n)\n        if found is None:\n"
        "            found = self.leaves[n] =",
        (
            "tests/test_ga.py::test_leaves_are_shared_per_example_subset",
            "tests/test_ga.py::test_evolved_trees_match_unmemoized_reference",
            "tests/test_cli.py::test_induce_artifacts_are_pinned[0]",
        ),
    ),
    Mutant(
        "memo-holds-itself",
        "src/eastwest/tree.py",
        "self.leaves: dict[int, Leaf] = {}",
        "self.leaves: dict[int, Leaf] = {}\n        self.leaf_of = self.leaf",
        ("tests/test_ga.py::test_evolve_frees_its_memo_without_the_cycle_collector",),
    ),
    Mutant(
        "theory-literal-admits-bool",
        "src/eastwest/theory.py",
        "type(value) is not int",
        "not isinstance(value, int)",
        ("tests/test_theory.py::test_theory_from_dict_rejects_wrong_types[bool-literal]",),
    ),
    Mutant(
        "body-without-disjunction",
        "src/eastwest/trains.py",
        'while self.peek() in (",", ";"):',
        'while self.peek() in (",",):',
        ("tests/test_theory.py::test_every_feature_renders_as_pinned",),
    ),
    Mutant(
        "hoisted-feature-keeps-its-scaffold",
        "src/eastwest/theory.py",
        "t.format(hoisted_var) for t in fragment[1:]",
        "t.format(hoisted_var) for t in fragment",
        (
            "tests/test_theory.py::test_every_feature_renders_as_pinned",
            "tests/test_theory.py::test_emitted_programs_run_as_their_dnf_and_cost_what_their_literals_cost",
        ),
    ),
    Mutant(
        "second-infront-literal-on-the-first-car",
        "src/eastwest/features.py",
        "(INFRONT_TEMPLATE, first[i], second[j])",
        "(INFRONT_TEMPLATE, first[i], first[j])",
        (
            "tests/test_theory.py::test_every_feature_renders_as_pinned",
            "tests/test_theory.py::test_emitted_programs_run_as_their_dnf_and_cost_what_their_literals_cost",
        ),
    ),
    Mutant(
        "hoisted-car-shared-by-a-conjunct",
        "src/eastwest/theory.py",
        "hoisted_var = None",
        "pass",
        (
            "tests/test_theory.py::test_a_conjunct_hoists_one_car_and_binds_fresh_cars_for_the_rest",
            "tests/test_theory.py::test_emitted_programs_run_as_their_dnf_and_cost_what_their_literals_cost",
        ),
    ),
    Mutant(
        "always-two-fresh-cars",
        "src/eastwest/theory.py",
        'range(fragment[0].count("{"))',
        "range(2)",
        ("tests/test_theory.py::test_every_feature_renders_as_pinned",),
    ),
    Mutant(
        "prune-cache-without-cf",
        "src/eastwest/tree.py",
        "key = (id(tree), cf)",
        "key = id(tree)",
        (
            "tests/test_tree.py::test_prune_caches_per_tree_and_cf_not_per_node",
            "tests/test_cli.py::test_induce_artifacts_are_pinned[0]",
        ),
    ),
    Mutant(
        "node-table-without-feature",
        "src/eastwest/tree.py",
        "key = (feature, id(on_true), id(on_false))",
        "key = (id(on_true), id(on_false))",
        (
            "tests/test_tree.py::test_trees_of_one_signature_are_one_object_within_a_memo",
            "tests/test_ga.py::test_evolved_trees_match_unmemoized_reference",
        ),
    ),
    Mutant(
        "next-generation-keeps-the-older-splits",
        "src/eastwest/tree.py",
        "self._last_splits, self.splits = self.splits, {}",
        "self._last_splits, self.splits = self._last_splits, {}",
        ("tests/test_tree.py::test_next_generation_keeps_the_split_entries_read_in_the_last_two",),
    ),
    Mutant(
        "gene-redraw-without-low",
        "src/eastwest/ga.py",
        "next_pop[redrawn_rows, genes] = low + (highs[genes] - low) * draws",
        "next_pop[redrawn_rows, genes] = (highs[genes] - low) * draws",
        ("tests/test_ga.py::test_evolve_redraws_genes_as_the_reference_at_high_mutation_rates",),
    ),
    Mutant(
        "report-txt-in-every-format",
        "src/eastwest/cli.py",
        '    if args.format == "text":\n        artifacts["report.txt"]',
        '    if True:\n        artifacts["report.txt"]',
        ("tests/test_cli.py::test_induce_json_prints_the_report_json_it_writes",),
    ),
    Mutant(
        "cli-imports-numpy",
        "src/eastwest/cli.py",
        "from . import features, trains as trains_mod\n",
        "import numpy as np\n\nfrom . import features, trains as trains_mod\n",
        (
            "tests/test_cli.py::test_score_features_and_usage_errors_run_without_numpy[score-rendered]",
            "tests/test_cli.py::test_score_features_and_usage_errors_run_without_numpy[features-json]",
            "tests/test_cli.py::test_score_features_and_usage_errors_run_without_numpy[usage-error]",
        ),
    ),
    Mutant(
        "features-imports-numpy",
        "src/eastwest/features.py",
        "from .trains import CAR_FIELDS, Car, Train, EAST, LOAD_SHAPES, _tokenize, program_size\n",
        "import numpy as np\n\nfrom .trains import CAR_FIELDS, Car, Train, EAST, LOAD_SHAPES, _tokenize, program_size\n",
        (
            "tests/test_cli.py::test_score_features_and_usage_errors_run_without_numpy[score-syntax-error]",
            "tests/test_cli.py::test_score_features_and_usage_errors_run_without_numpy[features-text]",
        ),
    ),
    Mutant(
        "fitness-cache-without-the-costs",
        "src/eastwest/ga.py",
        "key = (id(tree), id(costs), config.error_cost)",
        "key = (id(tree), config.error_cost)",
        ("tests/test_ga.py::test_evaluate_individual_on_a_shared_memo_scores_under_the_costs_and_error_cost_given",),
    ),
    Mutant(
        "theory-json-without-the-dnf-shape-check",
        "src/eastwest/theory.py",
        "    if not shaped:\n",
        "    if False:\n",
        ("tests/test_theory.py::test_theory_from_json_raises_only_typed_errors",),
    ),
    Mutant(
        "bound-a-hair-high",
        "src/eastwest/tree.py",
        "return float(betaincinv(errors + 1, n - errors, 1.0 - cf / 100.0))",
        "return float(betaincinv(errors + 1, n - errors, 1.0 - cf / 100.0)) * (1 + 1e-12)",
        ("tests/test_tree.py::test_pessimistic_bound_equals_beta_ppf_exactly",),
    ),
    Mutant(
        "memo-shared-across-runs",
        "src/eastwest/ga.py",
        "memo = InductionMemo(matrix)  # lives as long as this run",
        "memo = evolve.memo = getattr(evolve, 'memo', None) or InductionMemo(matrix)",
        (
            "tests/test_ga.py::test_evolved_trees_match_unmemoized_reference",
            "tests/test_ga.py::test_evolve_frees_its_memo_without_the_cycle_collector",
        ),
    ),
    Mutant(
        "no-infront-on-five-or-more-cars",
        "src/eastwest/features.py",
        "in_front = spread\n",
        "in_front = spread if len(train.cars) < 5 else 0\n",
        ("tests/test_features.py::test_predicate_bits_match_the_numpy_vector_and_brute_force",),
    ),
    Mutant(
        "train-length-clamped-to-4",
        "src/eastwest/features.py",
        "_LENGTH_BITS.get(len(train.cars), 0)",
        "_LENGTH_BITS.get(min(len(train.cars), 4), 0)",
        (
            "tests/test_features.py::test_train_length_features_hold_for_their_length_only[5]",
            "tests/test_features.py::test_train_length_features_hold_for_their_length_only[6]",
        ),
    ),
    Mutant(
        "spread-row-0-dropped",
        "src/eastwest/features.py",
        "sum(1 << _N_CAR * i for i in held)",
        "sum(1 << _N_CAR * i for i in held if i)",
        (
            "tests/test_features.py::test_predicate_bits_match_the_numpy_vector_on_every_car",
            "tests/test_features.py::test_matrix_matches_brute_force_oracle",
        ),
    ),
    Mutant(
        "gather-shift-off-by-one",
        "src/eastwest/features.py",
        "values >>= (slots & 7).astype(np.uint8)",
        "values >>= (slots & 7 ^ 1).astype(np.uint8)",
        (
            "tests/test_features.py::test_matrix_matches_brute_force_oracle",
            "tests/test_features.py::test_first_train_feature_values",
        ),
    ),
    Mutant(
        "infront-from-the-current-car",
        "src/eastwest/features.py",
        "in_front << _INFRONT) * mask",
        "spread << _INFRONT) * mask",
        ("tests/test_features.py::test_predicate_bits_match_the_numpy_vector_on_every_car",),
    ),
    Mutant(
        "carried-loads-shifted-one-bit-off",
        "src/eastwest/features.py",
        "bits >> _CARRIED[0] & _LOAD_MASK",
        "bits >> _CARRIED[0] + 1 & _LOAD_MASK",
        ("tests/test_features.py::test_predicate_bits_match_the_numpy_vector_on_every_car",),
    ),
    Mutant(
        "car-tables-built-at-import",
        "src/eastwest/features.py",
        "    return tuple(tables)\n",
        "    return tuple(tables)\n\n\n_car_tables()\n",
        ("tests/test_features.py::test_car_tables_wait_for_the_first_train",),
    ),
    Mutant(
        "predict-drops-a-row",
        "src/eastwest/tree.py",
        "out[idx] = node.label == EAST",
        "out[idx[1:]] = node.label == EAST",
        (
            "tests/test_tree.py::test_predict_all_matches_row_loop_on_random_trees",
            "tests/test_tree.py::test_predict_all_matches_row_loop_on_grown_trees",
        ),
    ),
    Mutant(
        "bad-character-one-token-late",
        "src/eastwest/trains.py",
        "*_token_position(source, index, start))",
        "*_token_position(source, index + 1, start))",
        (
            "tests/test_trains.py::test_errors_carry_line_and_column[unexpected-character]",
            "tests/test_trains.py::test_tokenize_matches_named_group_reference",
        ),
    ),
    Mutant(
        "prune-reuses-a-leaf-without-a-recount",
        "src/eastwest/tree.py",
        "(node if node.n_examples == n else Leaf(node.label, n))",
        "node",
        ("tests/test_tree.py::test_prune_recounts_a_branch_that_receives_no_example",),
    ),
    Mutant(
        "prune-keeps-a-node-whose-children-changed",
        "src/eastwest/tree.py",
        "return memo.node(node.feature, on_true, on_false), subtree_est",
        "return node, subtree_est",
        ("tests/test_tree.py::test_induce_matches_reference_across_word_boundaries[63]",),
    ),
    Mutant(
        "words-read-big-endian",
        "src/eastwest/tree.py",
        'np.frombuffer(packed, "<u8")',
        'np.frombuffer(packed, ">u8")',
        ("tests/test_tree.py::test_gain_perfect_split",),
    ),
    Mutant(
        "one-word-too-few",
        "src/eastwest/tree.py",
        "n_words = -(-matrix.n_trains // 64)",
        "n_words = max(matrix.n_trains // 64, 1)",
        ("tests/test_tree.py::test_words_hold_each_column_row_by_row_with_zero_padding[65]",),
    ),
    Mutant(
        "pad-bits-set",
        "src/eastwest/features.py",
        "np.packbits(values[:, columns].T,",
        "np.packbits(np.pad(values[:, columns].T, ((0, 0), (0, 7)), constant_values=True),",
        ("tests/test_tree.py::test_words_hold_each_column_row_by_row_with_zero_padding[1]",),
    ),
    Mutant(
        "over-long-integer-escapes",
        "src/eastwest/trains.py",
        "            try:\n"
        "                return int(tok)\n"
        "            except ValueError:  # beyond the interpreter's int-conversion limit\n"
        '                raise self.error(f"integer of {len(tok)} digits is too long", self.i - 1) from None\n',
        "            return int(tok)\n",
        ("tests/test_trains.py::test_errors_carry_line_and_column[over-long-integer]",),
    ),
    Mutant(
        "fractional-costs-admitted",
        "src/eastwest/tree.py",
        'whole = costs.dtype.kind in "iu" or np.all(np.isfinite(costs) & (np.floor(costs) == costs))',
        "whole = True",
        ("tests/test_tree.py::test_fitness_rejects_costs_that_are_not_whole_numbers_from_zero[fraction]",),
    ),
    Mutant(
        "test-cost-skips-the-false-branch",
        "src/eastwest/tree.py",
        "int(costs[tree.feature]) + test_cost(tree.on_true, costs) + test_cost(tree.on_false, costs)",
        "int(costs[tree.feature]) + test_cost(tree.on_true, costs)",
        ("tests/test_tree.py::test_zero_error_fitness_equals_node_cost_sum",),
    ),
    Mutant(
        "theory-imports-numpy",
        "src/eastwest/theory.py",
        "from .features import HAS_CAR_TEMPLATE",
        "import numpy as np\n\nfrom .features import HAS_CAR_TEMPLATE",
        ("tests/test_cli.py::test_score_features_and_usage_errors_run_without_numpy[agree]",),
    ),
    Mutant(
        "west-unbounded",
        "src/eastwest/theory.py",
        "west = everyone & ~_east_rows(",
        "west = ~_east_rows(",
        ("tests/test_theory.py::test_simplify_empties_each_conjunction_of_a_theory_that_predicts_every_row_east",),
    ),
    Mutant(
        "negation-ignored",
        "src/eastwest/theory.py",
        "cols[feat] if val else ~cols[feat]",
        "cols[feat] if val else cols[feat]",
        ("tests/test_theory.py::test_dnf_matches_tree_predictions",),
    ),
    Mutant(
        "rows-unpacked-big-endian",
        "src/eastwest/theory.py",
        'np.unpackbits(packed, count=n, bitorder="little")',
        'np.unpackbits(packed, count=n, bitorder="big")',
        ("tests/test_theory.py::test_dnf_matches_tree_predictions",),
    ),
    Mutant(
        "negative-feature-index-admitted",
        "src/eastwest/theory.py",
        "if used and (used[0] < 0 or used[-1] >= n_features):",
        "if used and used[-1] >= n_features:",
        ("tests/test_theory.py::test_simplify_dnf_names_a_feature_index_outside_the_matrix[negative]",),
    ),
    Mutant(
        "error-term-floored",
        "src/eastwest/tree.py",
        "fitness=cost + rate * error_cost,",
        "fitness=cost + rate * error_cost // 1,",
        ("tests/test_ga.py::test_costs_and_error_cost_times_4_scale_only_the_fitnesses[random60-0]",),
    ),
    Mutant(
        "leaf-label-unchecked",
        "src/eastwest/tree.py",
        "if self.label not in (EAST, WEST):",
        "if False:",
        ("tests/test_tree.py::test_leaf_rejects_a_label_other_than_east_or_west[north]",),
    ),
    Mutant(
        "bias-omega-compared-unchecked",
        "src/eastwest/tree.py",
        '_within("omega", self.omega, OMEGA_MIN, OMEGA_MAX)',
        "OMEGA_MIN <= self.omega <= OMEGA_MAX",
        ("tests/test_tree.py::test_bias_vector_names_an_omega_or_cf_that_is_not_a_number[omega-string]",),
    ),
    Mutant(
        "bias-cf-compared-unchecked",
        "src/eastwest/tree.py",
        '_within("cf", self.cf, CF_MIN, CF_MAX)',
        "CF_MIN <= self.cf <= CF_MAX",
        ("tests/test_tree.py::test_bias_vector_names_an_omega_or_cf_that_is_not_a_number[cf-string]",),
    ),
    Mutant(
        "prune-cf-compared-unchecked",
        "src/eastwest/tree.py",
        '_within("cf", cf, CF_MIN, CF_MAX)',
        "CF_MIN <= cf <= CF_MAX",
        ("tests/test_tree.py::test_prune_names_a_cf_that_is_not_a_number[string]",),
    ),
    Mutant(
        "standalone-prune-keeps-its-memo",
        "src/eastwest/tree.py",
        "    memo = _memo_for(matrix, memo)\n    key = (id(tree), cf)",
        '    memo = prune.memo = memo or getattr(prune, "memo", None) or _memo_for(matrix, None)\n'
        "    key = (id(tree), cf)",
        ("tests/test_tree.py::test_standalone_prune_calls_share_no_memo",),
    ),
    Mutant(
        "miss-path-drops-a-row",
        "src/eastwest/tree.py",
        'np.frombuffer(s.to_bytes(width, "little")',
        'np.frombuffer((s & s - 1).to_bytes(width, "little")',
        ("tests/test_tree.py::test_induce_matches_reference_across_word_boundaries[63]",),
    ),
    Mutant(
        "full-feature-counts-no-east-row",
        "src/eastwest/tree.py",
        "gains = _gains(m, pos, n1, pos1, self.entropy)",
        "gains = _gains(m, pos, n1, np.where(n1 == m, 0, pos1).astype(pos1.dtype), self.entropy)",
        ("tests/test_tree.py::test_gain_constant_feature_is_zero",),
    ),
    Mutant(
        "fact-reader-load-count-altered",
        "src/eastwest/trains.py",
        "roof, int(axles), load, int(n))",
        "roof, int(axles), load, int(n) or 1)",
        ("tests/test_trains.py::test_single_car_round_trip",),
    ),
    Mutant(
        "trains-imports-dataclasses",
        "src/eastwest/trains.py",
        "import functools\nimport re\n",
        "import dataclasses\nimport functools\nimport re\n",
        ("tests/test_cli.py::test_cli_and_theory_import_without_dataclasses",),
    ),
    Mutant(
        "car-replace-unchecked",
        "src/eastwest/trains.py",
        "    @classmethod\n    def _make(cls, values):  # what _replace builds with: the checks apply there too\n"
        "        return cls(*values)\n",
        "",
        ("tests/test_trains.py::test_replace_checks_a_record_as_its_constructor_does[car]",),
    ),
    Mutant(
        "car-record-has-a-dict",
        "src/eastwest/trains.py",
        "class Car(_CarFields):\n    __slots__ = ()\n",
        "class Car(_CarFields):\n",
        ("tests/test_trains.py::test_records_cannot_be_assigned_to[new-attribute-car]",),
    ),
    Mutant(
        "agreement-checks-only-the-first-theory",
        "src/eastwest/theory.py",
        "for theory in (a, b):",
        "for theory in (a,):",
        (
            "tests/test_theory.py::test_agreement_names_a_feature_index_outside_the_table[second-negative]",
            "tests/test_theory.py::test_agreement_names_a_feature_index_outside_the_table[second-past-the-end]",
        ),
    ),
    Mutant(
        "tree-split-without-no-read",
        "src/eastwest/tree.py",
        '{"feature", "yes", "no"} <= node.keys()',
        '{"feature", "yes"} <= node.keys()',
        ("tests/test_tree.py::test_tree_from_dict_names_a_badly_shaped_node[no-branch]",),
    ),
    Mutant(
        "leaf-count-may-be-negative",
        "src/eastwest/tree.py",
        "type(self.n_examples) is not int or self.n_examples < 0",
        "type(self.n_examples) is not int",
        (
            "tests/test_tree.py::test_leaf_rejects_a_count_that_is_not_an_int_of_at_least_0[negative]",
            "tests/test_tree.py::test_tree_from_dict_names_the_path_of_a_bad_leaf[negative-count]",
        ),
    ),
    Mutant(
        "leaf-count-may-be-a-float",
        "src/eastwest/tree.py",
        "type(self.n_examples) is not int or self.n_examples < 0",
        "self.n_examples < 0",
        ("tests/test_tree.py::test_leaf_rejects_a_count_that_is_not_an_int_of_at_least_0[float]",),
    ),
    Mutant(
        "leaf-error-without-its-node-path",
        "src/eastwest/tree.py",
        'raise ValueError(f"tree node {where}: {exc}") from None',
        "raise",
        ("tests/test_tree.py::test_tree_from_dict_names_the_path_of_a_bad_leaf[bad-label]",),
    ),
    Mutant(
        "gene-redraw-past-highs",
        "src/eastwest/ga.py",
        "next_pop[redrawn_rows, genes] = low + (highs[genes] - low) * draws",
        "next_pop[redrawn_rows, genes] = low + (highs[genes] * 2 - low) * draws",
        ("tests/test_ga.py::test_every_bias_evolve_evaluates_passes_the_checks_and_is_its_genomes",),
    ),
    Mutant(
        "grow-hit-read-from-the-last-generation",
        "src/eastwest/tree.py",
        "cand, num = memo.splits.get(s) or memo.candidates(s)",
        "cand, num = memo._last_splits.get(s) or memo.candidates(s)",
        ("tests/test_tree.py::test_grow_moves_every_split_entry_it_reads_into_this_generation",),
    ),
    Mutant(
        "induce-takes-any-bias",
        "src/eastwest/tree.py",
        "    if not isinstance(bias, BiasVector):\n",
        "    if False:\n",
        (
            "tests/test_ga.py::test_learner_entries_raise_a_type_error_naming_the_argument[induce-bias]",
            "tests/test_ga.py::test_learner_entries_raise_a_type_error_naming_the_argument[induce-bias-tuple]",
        ),
    ),
    Mutant(
        "learner-takes-any-matrix",
        "src/eastwest/tree.py",
        "    if not isinstance(matrix, FeatureMatrix):\n",
        "    if False:\n",
        (
            "tests/test_ga.py::test_learner_entries_raise_a_type_error_naming_the_argument[induce-matrix]",
            "tests/test_ga.py::test_learner_entries_raise_a_type_error_naming_the_argument[prune-matrix]",
        ),
    ),
    Mutant(
        "tree-root-unchecked",
        "src/eastwest/tree.py",
        "    if not isinstance(tree, (Node, Leaf)):\n",
        "    if False:\n",
        (
            "tests/test_ga.py::test_learner_entries_raise_a_type_error_naming_the_argument[predict-tree-none]",
            "tests/test_ga.py::test_learner_entries_raise_a_type_error_naming_the_argument[dnf-tree-none]",
        ),
    ),
    Mutant(
        "dnf-shape-unchecked",
        "src/eastwest/theory.py",
        "    if not well_formed:\n",
        "    if False:\n",
        (
            "tests/test_theory.py::test_a_dnf_of_the_wrong_shape_is_a_type_error_naming_it[finalize-none]",
            "tests/test_theory.py::test_a_dnf_of_the_wrong_shape_is_a_type_error_naming_it[render-str]",
        ),
    ),
    Mutant(
        "generator-advanced-one-word-short",
        "src/eastwest/ga.py",
        "bits.advance(at)",
        "bits.advance(at - 1)",
        (
            "tests/test_ga.py::test_breeding_reads_the_stream_as_the_per_pair_loop",
            "tests/test_ga.py::test_evolve_matches_the_list_loop_reference",
        ),
    ),
    Mutant(
        "cut-point-rejection-dropped",
        "src/eastwest/ga.py",
        "if product & 0xFFFFFFFF >= reject:",
        "if True:",
        ("tests/test_ga.py::test_breeding_draws_a_rejected_cut_point_again_as_the_per_pair_loop",),
    ),
    Mutant(
        "buffered-half-word-ignored",
        "src/eastwest/ga.py",
        'has_half, half = saved["has_uint32"], saved["uinteger"]',
        'has_half, half = 0, saved["uinteger"]',
        ("tests/test_ga.py::test_breeding_reads_the_stream_as_the_per_pair_loop",),
    ),
    Mutant(
        "unused-half-word-discarded-after-each-cut-draw",
        "src/eastwest/ga.py",
        "            crossings.append((k, *sorted(cuts), *pair))\n",
        "            crossings.append((k, *sorted(cuts), *pair))\n            has_half = 0\n",
        ("tests/test_ga.py::test_breeding_draws_a_rejected_cut_point_again_as_the_per_pair_loop",),
    ),
    Mutant(
        "unused-half-word-not-kept",
        "src/eastwest/ga.py",
        "    state.update(has_uint32=has_half, uinteger=half)\n",
        "",
        (
            "tests/test_ga.py::test_breeding_reads_the_stream_as_the_per_pair_loop",
            "tests/test_ga.py::test_breeding_draws_a_rejected_cut_point_again_as_the_per_pair_loop",
        ),
    ),
    Mutant(
        "row-set-fitness-counts-the-wrong-label",
        "src/eastwest/tree.py",
        "return s.bit_count() - east if node.label == EAST else east",
        "return east if node.label == EAST else s.bit_count() - east",
        ("tests/test_tree.py::test_fitness_on_the_memo_row_sets_equals_the_row_loop",),
    ),
    Mutant(
        "entropy-table-out-of-memory-untyped",
        "src/eastwest/tree.py",
        "raise EntropyTableMemoryError(self.matrix.n_trains) from None",
        "raise",
        (
            "tests/test_tree.py::test_a_memo_out_of_memory_for_its_entropy_table_says_how_large_the_table_is",
            "tests/test_cli.py::test_out_of_memory_for_the_entropy_table_names_the_dataset",
        ),
    ),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _mutated(text: str, mutant: Mutant) -> str:
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"mutant {mutant.name!r}: {mutant.old!r} occurs {found} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def _run(command: list[str], cwd: Path, env: dict[str, str]) -> int | None:
    try:
        return subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _pytest(mutant: Mutant | None, groups: list[tuple[str, ...]]) -> list[int | None]:
    """pytest's exit status on each group of tests, in one fresh copy with
    `mutant` applied; None for a call that ran past TIMEOUT_S."""
    with tempfile.TemporaryDirectory(prefix="eastwest-mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            path = dest / mutant.file
            path.write_text(_mutated(path.read_text(), mutant))
        env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        return [_run([*command, *tests], dest, env) for tests in groups]


def _verdict(status: int | None) -> str:
    # 1 is "tests failed"; any other status (an import or collection error,
    # an unknown test id, a timeout) is not a kill that a test made
    if status is None:
        return "ERROR (timed out)"
    return "killed" if status == 1 else ("SURVIVED" if status == 0 else f"ERROR (pytest exit {status})")


def _trial(mutant: Mutant) -> tuple[list[int | None], float]:
    """The mutant's pytest statuses, one per test, and the seconds they took."""
    start = time.perf_counter()
    return _pytest(mutant, [(test,) for test in mutant.tests]), time.perf_counter() - start


def main() -> int:
    for mutant in MUTANTS:  # a stale target stops the run before any test runs
        _mutated((ROOT / mutant.file).read_text(), mutant)
    control = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    start = time.perf_counter()
    [status] = _pytest(None, [control])
    failure = "timed out" if status is None else f"pytest exit {status}"
    print(f"control: {'passed' if status == 0 else f'FAILED ({failure})'} "
          f"[{len(control)} tests, {time.perf_counter() - start:.1f} s]", flush=True)
    ok = status == 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, (statuses, seconds) in zip(MUTANTS, pool.map(_trial, MUTANTS)):
            killed = all(s == 1 for s in statuses)
            print(f"{mutant.name}: {'killed' if killed else 'NOT KILLED'} [{seconds:.1f} s]", flush=True)
            for test, s in zip(mutant.tests, statuses):
                print(f"  {_verdict(s)}: {test}")
            ok &= killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
