"""The three benchmark workloads: their fixed step lists and seeded inputs.

Sizes never depend on the seed, so every seed does the same amount of work.
The seed reaches the program as ``--seed`` (restriction coefficients), as the
choice among VAUGHAN_SEEDS (the Vaughan draws) and as the generated
``inject_A`` set.  This module imports only numpy, so run.py and verify.py
can use it without importing the package under test.
"""

from __future__ import annotations

import os

import numpy as np

THREADS = min(2, os.cpu_count() or 1)

WORKLOADS = {
    "ps_scale": ("psgen", "errsweep"),
    "zn_roth": ("roth", "restrict", "roth_inject", "smoothing_chain"),
    "identities": ("check", "vaughan"),
}

ALL_STEPS = tuple(s for steps in WORKLOADS.values() for s in steps)

PSGEN_N = 30_000_000
# example h1 of the function family; the default pure power never reaches
# the Newton inversion, this kind does
H1 = {"kind": "power_log", "c": 1.2, "x0": 3.0, "params": {"A": 2.0}}
ERRSWEEP_N_LIST = [2 ** k for k in range(18, 24)]
VAUGHAN = {"P": 16000, "draws": 10}
# CLI seeds whose ten Vaughan draws all have the moduli q = 1,1,1,1,1,2,2,2,3,3
# (found by running `psroth vaughan` at small P over seeds 0..399).  The
# split repeats its work once per residue mod q, so a free CLI seed would
# change the amount of work with the seed; the benchmark seed picks one of
# these instead.
VAUGHAN_SEEDS = (15, 16, 32, 61, 69, 75, 76, 85, 95, 102, 108, 111, 128, 146, 151,
                 154, 184, 189, 197, 214, 241, 249, 251, 256, 263, 267, 284, 290,
                 293, 329, 339, 348, 360, 363, 369)

# integer-mode inject_A: 1% of [0, 2^17), with the top element always present
# so that the counted interval, and with it the work, is the same every seed
INJECT_TOP = 2 ** 17 - 1
INJECT_SIZE = round(0.01 * 2 ** 17)

SMOOTHING_GAMMA = 0.95
SMOOTHING_N = 100_000
SMOOTHING_DELTA_FRAC = 0.3
SMOOTHING_EPS = 0.2


def inject_set(seed):
    """Seeded subset of [0, 2^17) of fixed size, sorted, containing 2^17 - 1."""
    rng = np.random.default_rng(seed)
    rest = rng.choice(INJECT_TOP, size=INJECT_SIZE - 1, replace=False)
    return sorted(int(x) for x in rest) + [INJECT_TOP]


def cli_step(step, seed, out_dir):
    """(argv, config) for a CLI step; config is None where defaults are used."""
    common = ["--seed", str(seed), "--threads", str(THREADS), "--out-dir", out_dir]
    if step == "psgen":
        return ["psgen", "--n", str(PSGEN_N)] + common, None
    if step == "errsweep":
        return ["errsweep"] + common, {"function": H1, "N_list": ERRSWEEP_N_LIST}
    if step in ("roth", "restrict", "check"):
        return [step] + common, None
    if step == "roth_inject":
        return ["roth"] + common, {"inject_A": inject_set(seed)}
    if step == "vaughan":
        common[1] = str(VAUGHAN_SEEDS[seed % len(VAUGHAN_SEEDS)])
        return ["vaughan"] + common, dict(VAUGHAN)
    raise KeyError(f"{step} is not a CLI step")
