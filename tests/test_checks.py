"""The check suite: its names are the benchmark's, and each check can fail."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from psroth import checks, roth, zn_fourier

ROOT = Path(__file__).resolve().parents[1]


def test_check_names_match_the_benchmark_reference():
    # the benchmark's output check requires this list, in this order
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    pinned = [line.removeprefix("PASS ") for line in reference["steps"]["check"]["checks"]]
    assert [name for name, _, _ in checks.run_all()] == pinned


def _off_by_one_pairs(original):
    def varnavides_count(*args, **kwargs):
        rep = original(*args, **kwargs)
        return dataclasses.replace(rep, good_pairs=rep.good_pairs + 1)
    return varnavides_count


def _conjugated_twist(original):
    """grid_power_sums with weight row 0's twist e(+p s/G) conjugated.  With
    G = S L, grid row s then reads F(S c - s) where it should read
    F(S c + s), a permutation of the grid within each parity: the power sums
    stay, the values at `at` move."""
    def grid_power_sums(positions, weights, grid_size, r, at=(), threads=1):
        totals, evens, values = original(positions, weights, grid_size, r, at, threads)
        S = zn_fourier._row_count(grid_size)
        at = np.asarray(at)
        moved = (at - 2 * (at % S)) % grid_size
        values[0] = original(positions, weights[:1], grid_size, r, moved, threads)[2][0]
        return totals, evens, values
    return grid_power_sums


def _first_weight_dropped(original):
    def sparse_fourier_on_grid(positions, weights, grid_size):
        return original(positions[1:], weights[1:], grid_size)
    return sparse_fourier_on_grid


@pytest.mark.parametrize("module, name, mutant, check", [
    (roth, "varnavides_count", _off_by_one_pairs, checks.check_varnavides_identity),
    (zn_fourier, "grid_power_sums", _conjugated_twist, checks.check_inversion_and_parseval),
    (zn_fourier, "sparse_fourier_on_grid", _first_weight_dropped,
     checks.check_inversion_and_parseval),
], ids=["varnavides-off-by-one", "twist-conjugated", "weight-dropped"])
def test_check_fails_on_a_mutant(module, name, mutant, check, monkeypatch):
    assert check()[1]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert not check()[1]
