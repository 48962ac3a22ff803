"""Output checks for the benchmark steps, independent of the package under test.

Nothing here imports psroth.  Primality comes from this file's own sieve,
floor-image membership from evaluating h(k) = k^(20/19) here (with an exact
integer decision near integers), and progression counts from pair counting.
Each check returns a list of problems; an empty list means the step passed.

Outputs are also compared with a recorded reference (reference.json):
integer cells exactly, other text exactly, float cells within FLOAT_RTOL.
Steps whose output depends on the seed are compared only for the seeds the
reference holds.  Columns that hold round-off residuals are gated by their
own bounds instead of being compared.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

import workloads

FLOAT_RTOL = 1e-9
ROUNDOFF_COLUMNS = {"residual_abs", "residual_rel"}
SEEDED_STEPS = ("restrict", "roth_inject", "vaughan")
# files compared by hash and row count instead of row by row
HASHED_FILES = {"psprimes.csv"}
STEP_FILES = {
    "psgen": ("psprimes.csv", "density.csv"),
    "errsweep": ("errsweep.csv",),
    "roth": ("roth.csv",),
    "restrict": ("restrict.csv",),
    "roth_inject": ("roth.csv",),
    "vaughan": ("vaughan.csv",),
    "smoothing_chain": (),
    "check": (),
}
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
PS_EXPONENT = Fraction(20, 19)  # h(x) = x^(1/0.95), the default function


# -- independent arithmetic ------------------------------------------------------

def prime_mask(limit):
    """is_prime[0..limit] by a plain sieve of Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return mask


def floor_h(ks):
    """floor(k^(20/19)) for int64 k, exact: float64 decides unless the value
    lies within a relative 1e-12 of an integer (the float power is good to a
    few 1e-15), where integer powers decide."""
    ks = np.asarray(ks, dtype=np.int64)
    v = ks.astype(float) ** float(PS_EXPONENT)
    out = np.floor(v).astype(np.int64)
    near = np.abs(v - np.rint(v)) < 1e-12 * np.maximum(v, 1.0)
    for i in np.flatnonzero(near):
        k, p = int(ks[i]), int(np.rint(v[i]))
        # p <= k^(20/19)  <=>  p^19 <= k^20
        out[i] = p if p ** 19 <= k ** 20 else p - 1
    return out


def floor_image_primes(lo, hi, is_prime):
    """Primes p in (lo, hi] with p = floor(k^(20/19)) for some k >= 1."""
    k_hi = int(float(hi + 1) ** (19 / 20)) + 2
    ps = np.unique(floor_h(np.arange(1, k_hi + 1)))
    ps = ps[(ps > lo) & (ps <= hi)]
    return ps[is_prime[ps]]


def count_cyclic_3aps(A, N):
    """Ordered (x, d) in Z_N^2, d = 0 included, with x, x+d, x+2d in A:
    the pairs (x, z) whose midpoint (x+z)/2 mod N (N odd) lies in A."""
    mask = np.zeros(N, dtype=bool)
    mask[A] = True
    inv2 = (N + 1) // 2
    total = 0
    for chunk in np.array_split(A, max(1, A.size // 256)):
        mids = ((chunk[:, None] + A[None, :]) % N) * inv2 % N
        total += int(np.count_nonzero(mask[mids]))
    return total


def count_integer_3aps(A):
    """Ordered progressions with d != 0 inside the integer set A."""
    A = np.asarray(sorted(set(A)), dtype=np.int64)
    mask = np.zeros(int(A[-1]) + 1, dtype=bool)
    mask[A] = True
    total = 0
    for i in range(A.size - 1):
        s = A[i] + A[i + 1:]
        s = s[s % 2 == 0] // 2
        total += int(np.count_nonzero(mask[s]))
    return 2 * total


# -- reading outputs -------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(out_dir):
    paths = glob.glob(os.path.join(out_dir, "*_manifest.json"))
    if len(paths) != 1:
        raise ValueError(f"expected one manifest in {out_dir}, found {len(paths)}")
    with open(paths[0]) as fh:
        return json.load(fh)


def extract(step, out_dir):
    """The step's outputs in the form the reference stores."""
    if step == "smoothing_chain":
        with open(os.path.join(out_dir, "smoothing_chain.json")) as fh:
            rec = json.load(fh)
        return {"values": {k: v for k, v in rec.items() if k != "identity_gap"}}
    if step == "check":
        with open(os.path.join(out_dir, "stdout.txt")) as fh:
            lines = fh.read().splitlines()
        return {"checks": [ln.split(":")[0] for ln in lines if ln.split(" ")[0] in ("PASS", "FAIL")]}
    out = {}
    for name in STEP_FILES[step]:
        path = os.path.join(out_dir, name)
        if name in HASHED_FILES:
            with open(path, "rb") as fh:
                data = fh.read()
            out[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                         "lines": data.count(b"\n")}
        else:
            header, rows = read_csv(path)
            keep = [i for i, h in enumerate(header) if h not in ROUNDOFF_COLUMNS]
            out[name] = {"header": [header[i] for i in keep],
                         "rows": [[row[i] for i in keep] for row in rows]}
    return out


def _cell_matches(got, ref):
    try:
        int(ref)
        return got == ref
    except ValueError:
        pass
    try:
        r = float(ref)
    except ValueError:
        return got == ref
    try:
        g = float(got)
    except ValueError:
        return False
    return g == r or abs(g - r) <= FLOAT_RTOL * abs(r)


def _values_match(got, ref):
    if isinstance(ref, list):
        g, r = complex(*got), complex(*ref)
        return abs(g - r) <= FLOAT_RTOL * abs(r)
    if isinstance(ref, int):
        return got == ref
    return abs(got - ref) <= FLOAT_RTOL * abs(ref)


def compare(got, ref):
    """Problems found comparing extracted outputs with their reference."""
    problems = []
    for name, r in ref.items():
        g = got.get(name)
        if g is None:
            problems.append(f"{name}: missing")
        elif name == "checks":
            if g != r:
                problems.append(f"check list {g} differs from reference {r}")
        elif name == "values":
            bad = [k for k in r if k not in g or not _values_match(g[k], r[k])]
            if bad:
                problems.append(f"smoothing chain values differ: {bad}")
        elif "sha256" in r:
            if g != r:
                problems.append(f"{name}: {g['lines']} lines, sha256 differs from reference")
        elif g["header"] != r["header"] or len(g["rows"]) != len(r["rows"]):
            problems.append(f"{name}: header or row count differs from reference")
        else:
            for i, (grow, rrow) in enumerate(zip(g["rows"], r["rows"])):
                bad = [r["header"][j] for j, (a, b) in enumerate(zip(grow, rrow))
                       if not _cell_matches(a, b)]
                if bad:
                    problems.append(f"{name} row {i}: {bad} differ from reference")
                    break
    return problems


def load_reference():
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"steps": {}, "seeded": {}}


def reference_for(ref, step, seed):
    if step in SEEDED_STEPS:
        return ref["seeded"].get(str(seed), {}).get(step)
    return ref["steps"].get(step)


# -- independent checks, one per step --------------------------------------------

class Checker:
    """Runs the checks; caches the sieve that the psgen and roth checks share."""

    def __init__(self, seed):
        self.seed = seed
        self._primes = None
        self._psgen_seen = {}

    def primes(self, limit):
        if self._primes is None or self._primes.size <= limit:
            self._primes = prime_mask(limit)
        return self._primes

    def check(self, step, out_dir):
        return getattr(self, f"check_{step}")(out_dir)

    def check_psgen(self, out_dir):
        # passes of one run write the same files; check each distinct pair once
        h = hashlib.sha256()
        for name in STEP_FILES["psgen"]:
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
        key = h.hexdigest()
        if key not in self._psgen_seen:
            self._psgen_seen[key] = self._check_psgen(out_dir)
        return self._psgen_seen[key]

    def _check_psgen(self, out_dir):
        data = np.loadtxt(os.path.join(out_dir, "psprimes.csv"), delimiter=",",
                          skiprows=1, dtype=np.int64, ndmin=2)
        ns, ps = data[:, 0], data[:, 1]
        problems = []
        if ps.size == 0 or ps.max() > workloads.PSGEN_N or np.any(np.diff(ps) <= 0):
            problems.append("psprimes: members not increasing inside [2, N]")
            return problems
        is_prime = self.primes(workloads.PSGEN_N)
        if not np.all(is_prime[ps]):
            problems.append(f"psprimes: {int(np.sum(~is_prime[ps]))} rows are not prime")
        if not np.array_equal(floor_h(ns), ps):
            problems.append("psprimes: p != floor(h(n_witness)) on some rows")
        _, rows = read_csv(os.path.join(out_dir, "density.csv"))
        for row in rows:
            if int(row[1]) != int(np.count_nonzero(ps <= int(row[0]))):
                problems.append(f"density: count at N={row[0]} disagrees with psprimes")
                break
        return problems

    def check_errsweep(self, out_dir):
        header, rows = read_csv(os.path.join(out_dir, "errsweep.csv"))
        if [int(r[0]) for r in rows] != workloads.ERRSWEEP_N_LIST:
            return ["errsweep: N column differs from N_list"]
        vals = np.array([[float(x) for x in r[1:]] for r in rows])
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            return ["errsweep: non-finite or negative values"]
        return []

    def check_roth(self, out_dir):
        header, rows = read_csv(os.path.join(out_dir, "roth.csv"))
        row = dict(zip(header, rows[0]))
        n, m, b, N = (int(row[k]) for k in ("n", "m_primorial", "b_residue", "N_prime"))
        size, lam3, nontriv = (int(row[k]) for k in ("set_size", "lam3_ordered",
                                                      "nontrivial_ordered"))
        problems = []
        if lam3 != size + nontriv:
            problems.append("roth: lam3_ordered != set_size + nontrivial_ordered")
        is_prime = self.primes(4 * n)
        if not (is_prime[N] and 2 * n / m <= N <= 4 * n / m):
            problems.append(f"roth: N_prime={N} is not a prime in [2n/m, 4n/m]")
        window = floor_image_primes(n // 2, n, is_prime)
        A = (window[window % m == b] - b) // m
        if A.size != size:
            problems.append(f"roth: set_size {size}, independent image has {A.size}")
        elif count_cyclic_3aps(A, N) != lam3:
            problems.append("roth: lam3_ordered differs from the pair count")
        M = int(read_manifest(out_dir)["config"]["M"])
        if Fraction(row["Z_lower_rational"]) != Fraction(int(row["good_pairs"]), M * M):
            problems.append("roth: Z_lower != good_pairs / M^2")
        problems += self._witness(row["witness"], set(A.tolist()), N)
        return problems

    def check_roth_inject(self, out_dir):
        header, rows = read_csv(os.path.join(out_dir, "roth.csv"))
        row = dict(zip(header, rows[0]))
        A = workloads.inject_set(self.seed)
        size, lam3, nontriv = (int(row[k]) for k in ("set_size", "lam3_ordered",
                                                      "nontrivial_ordered"))
        problems = []
        if size != len(set(A)):
            problems.append("roth_inject: set_size differs from the injected set")
        if lam3 != size + nontriv:
            problems.append("roth_inject: lam3_ordered != set_size + nontrivial_ordered")
        if nontriv != count_integer_3aps(A):
            problems.append("roth_inject: nontrivial_ordered differs from the pair count")
        problems += self._witness(row["witness"], set(A), None)
        if nontriv and not row["witness"]:
            problems.append("roth_inject: progressions counted but no witness")
        return problems

    @staticmethod
    def _witness(text, A, N):
        if not text:
            return []
        x, y, z = (int(t) for t in text.split("|"))
        d1, d2 = y - x, z - y
        if N is not None:
            d1, d2 = d1 % N, d2 % N
        if not ({x, y, z} <= A and d1 == d2 and d1 != 0):
            return [f"witness {text} is not a progression inside A"]
        return []

    def check_restrict(self, out_dir):
        _, rows = read_csv(os.path.join(out_dir, "restrict.csv"))
        ratios = np.array([float(r[1]) for r in rows])
        manifest = read_manifest(out_dir)
        problems = []
        if ratios.size != int(manifest["config"]["trials"]):
            problems.append(f"restrict: {ratios.size} trials")
        if not (np.all(np.isfinite(ratios)) and np.all(ratios > 0)):
            problems.append("restrict: ratios not finite and positive")
        elif manifest["summary"]["max_ratio"] != float(np.max(ratios)):
            problems.append("restrict: manifest max_ratio != CSV maximum")
        return problems

    def check_smoothing_chain(self, out_dir):
        with open(os.path.join(out_dir, "smoothing_chain.json")) as fh:
            rec = json.load(fh)
        problems = []
        if not rec["identity_gap"] <= 1e-9:
            problems.append(f"smoothing: identity_gap {rec['identity_gap']} > 1e-9")
        if not abs(complex(*rec["difference"])) <= rec["triangle_bound"]:
            problems.append("smoothing: |difference| > triangle_bound")
        return problems

    def check_check(self, out_dir):
        with open(os.path.join(out_dir, "stdout.txt")) as fh:
            lines = fh.read().splitlines()
        verdicts = [ln for ln in lines if ln.split(" ")[0] in ("PASS", "FAIL")]
        if not verdicts or any(not ln.startswith("PASS") for ln in verdicts):
            return ["check: not every check line says PASS"]
        return []

    def check_vaughan(self, out_dir):
        header, rows = read_csv(os.path.join(out_dir, "vaughan.csv"))
        if len(rows) != workloads.VAUGHAN["draws"]:
            return [f"vaughan: {len(rows)} draws"]
        rel = [float(r[header.index("residual_rel")]) for r in rows]
        if not all(x <= 1e-6 for x in rel):
            return [f"vaughan: residual_rel {max(rel)} > 1e-6"]
        return []
