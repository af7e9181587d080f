"""The floats that the pinned induce artifacts rest on, one sha256 per kernel.

`tests/test_cli.py::test_induce_artifacts_are_pinned` fails when any of
these moves, but cannot say which. pyproject admits a range of NumPy and
SciPy versions; on a version whose `np.power`, `np.log2`, `betaincinv` or
PCG64 stream differs from the pinned one, this test names the kernel that
moved beside the artifact failure.
"""

import hashlib

import numpy as np

import eastwest.tree as tree_module
from eastwest.ga import GaConfig, _gene_bounds, evolve
from eastwest.tree import _entropy_table, _numerator_table, pessimistic_upper_bound

from oracles import TABULATED, tabulated_cells

BLOCK = 50 * 1201  # the random words one trains20 generation breeds from: population x genome

PINNED = {
    "entropy_table_300": "f65359558a8f805e3a0e370831263d3e3ee56deac08f14422b8ab6adf58f5b71",
    "bound_keys": "b3de562ce9697110286d1406e99922457714b0225c492c7b87f8374b2d50fa0d",
    "bounds": "e6d2d91c248916c5a6438c28dd1705aaadb2a166dd5d523468bb9091da7c5389",
    "denominators": "2dda12b109f2c5c871be522b77904f591547210d24445b66b5a96ca3a0a281ad",
    "pcg64_words": "fa37e31824d95772c98545ec72bdb8c903b3628b2ddb6f9536694414fb0d3c85",
    "numerator_tables": "2b23f3e1c23dfef3d968c1a0cbc7d7608430a2cd42fc5cad8fb1f74c573bdf9b",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_numerics_fingerprint_is_pinned(monkeypatch, matrix20, costs20):
    keys = set()

    def recording(errors, n, cf):
        keys.add((errors, n, cf))
        return pessimistic_upper_bound(errors, n, cf)

    monkeypatch.setattr(tree_module, "pessimistic_upper_bound", recording)
    for seed in range(5):  # the benchmark's trains20 runs
        evolve(matrix20, costs20, GaConfig(50, 20, seed))
    monkeypatch.undo()
    keys = sorted(keys)
    assert len(keys) == 2749

    lows, highs = _gene_bounds(matrix20.n_features)
    pop = np.random.default_rng(0).uniform(lows, highs, size=(50, matrix20.n_features + 2))  # evolve's first draw
    h = _entropy_table(TABULATED)
    tables = [_numerator_table(m, pos, h).take(n1 * (pos + 1) + pos1) for m, pos, n1, pos1 in tabulated_cells()]
    assert {
        "entropy_table_300": _sha(_entropy_table(300).tobytes()),
        "bound_keys": _sha(np.array(keys, dtype=float).tobytes()),
        "bounds": _sha(np.array([pessimistic_upper_bound(*key) for key in keys]).tobytes()),
        # as induce_tree computes each genome's denominators
        "denominators": _sha(b"".join(np.power(g[:-2] + 1.0, float(g[-2])).tobytes() for g in pop)),
        "pcg64_words": _sha(np.random.PCG64(0).random_raw(BLOCK).tobytes()),
        "numerator_tables": _sha(np.concatenate(tables).tobytes()),
    } == PINNED
