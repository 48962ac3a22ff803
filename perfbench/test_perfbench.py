"""Self-tests of the benchmark: tracing, counters and the output checks.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from psroth import checks, cli, hfun, measures, roth, sieve, zn_fourier  # noqa: E402


def _snapshot():
    snap = {(name, attr): obj for name, mod in tracer.MODULES.items()
            for attr, obj in vars(mod).items()}
    snap["COMMANDS"] = dict(cli.COMMANDS)
    for _, cls, name in tracer.METHODS:
        snap[(cls.__name__, name)] = cls.__dict__[name]
    return snap


def _traced(fn):
    """Run fn() under a fresh tracer and return the tracer's metrics."""
    tr = tracer.Tracer()
    tr.install()
    try:
        fn()
    finally:
        tr.uninstall()
    rec = [{"step": "check", "t0": 0.0, "seconds": 1.0}]
    return tr.report(rec, rec)["metrics"]


def test_uninstall_restores_every_original():
    before = _snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert zn_fourier.dft is not before[("zn_fourier", "dft")]
        assert cli.COMMANDS["roth"] is not before["COMMANDS"]["roth"]
        assert checks.ALL_CHECKS[0] is not before[("checks", "ALL_CHECKS")][0]
        assert sieve.PrimeTable.mangoldt_array is not before[("PrimeTable", "mangoldt_array")]
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k != "COMMANDS")
    assert all(after["COMMANDS"][k] is v for k, v in before["COMMANDS"].items())


def _tiny_runs(out):
    inv_cfg = {"function": workloads.H1, "N_list": [2 ** 12, 2 ** 13]}
    runs = [
        (["psgen", "--n", "20000"], None),
        (["errsweep", "--threads", "2"], inv_cfg),
        (["vaughan"], {"P": 400, "draws": 2}),
        (["restrict"], {"N": 2000, "trials": 3}),
        (["roth", "--n", "2000"], None),
        (["roth"], {"inject_A": workloads.inject_set(3)[:40]}),
    ]
    for i, (argv, cfg) in enumerate(runs):
        d = os.path.join(out, str(i))
        os.makedirs(d)
        if cfg is not None:
            with open(os.path.join(d, "config.json"), "w") as fh:
                json.dump(cfg, fh)
            argv = argv + ["--config", os.path.join(d, "config.json")]
        assert cli.main(argv + ["--seed", "5", "--out-dir", d]) == 0


def test_traced_and_untraced_runs_write_identical_csvs(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    _tiny_runs(str(plain))
    _traced(lambda: _tiny_runs(str(traced)))
    csvs = sorted(p.relative_to(plain) for p in plain.rglob("*.csv"))
    assert len(csvs) == 7
    for rel in csvs:
        assert (plain / rel).read_bytes() == (traced / rel).read_bytes(), rel


def test_transform_counters_equal_hand_counts():
    m = _traced(lambda: zn_fourier.dft(np.ones(101)))
    assert m["zn_fourier.dft.calls"] == 1
    assert m["zn_fourier.points"] == 101
    assert m["zn_fourier.smooth_len_share"] == 0

    x = np.arange(17) + 1j
    y = x[::-1].copy()
    m = _traced(lambda: zn_fourier.trilinear_fft(x, x, x.copy()))
    assert m["zn_fourier.trilinear_fft.repeat_input_share"] == 1
    m = _traced(lambda: (zn_fourier.trilinear_fft(x, x, x), zn_fourier.trilinear_fft(x, y, x),
                         zn_fourier.fourier_on_grid(np.ones(3), 1024)))
    assert m["zn_fourier.trilinear_fft.repeat_input_share"] == 0.5
    assert m["zn_fourier.points"] == 17 + 17 + 1024
    assert m["zn_fourier.smooth_len_share"] == 1024 / 1058


def test_layer_counters_equal_hand_counts():
    spec = hfun.ps_exponent_spec(0.95)
    inv = hfun.inverse_of(spec)
    m = _traced(lambda: hfun.eval_h(spec, np.arange(1.0, 8.0)))
    assert m["hfun.eval_h.calls"] == 1 and m["hfun.eval_h.points"] == 7
    m = _traced(lambda: hfun.eval_phi(inv, np.arange(2.0, 7.0)))
    assert m["hfun.eval_phi.points"] == 5

    def calls():
        t = sieve.sieve_primes(1000)
        sieve.sieve_primes(1000)
        sieve.sieve_primes(500)
        sieve.enumerate_ps_primes(inv, 1000, t)
        measures.bohr_set([1, 2], 101, 0.1)
        roth.varnavides_count([1, 5, 9], 101, 5, d_list=[1, 2, 3])
        roth.varnavides_count([1, 5, 9], 101, 5)

    m = _traced(calls)
    tables = [sieve.sieve_primes(n) for n in (1000, 1000, 500)]
    nbytes = sum(a.nbytes for t in tables for a in vars(t).values()
                 if isinstance(a, np.ndarray))
    assert m["sieve.sieve_primes.calls"] == 3
    assert m["sieve.integers"] == 2500
    assert m["sieve.distinct_limit_ratio"] == 2 / 3
    assert m["sieve.table_bytes_per_integer"] == nbytes / 2500
    assert m["sieve.members"] == sieve.enumerate_ps_primes(inv, 1000, tables[0]).members.size
    assert m["measures.bohr_set.points"] == 202
    assert m["roth.varnavides_count.d_scanned"] == 3 + 100


def test_check_failures_and_output_bytes_are_counted(tmp_path):
    m = _traced(lambda: checks.run_all())
    assert m["checks.failed"] == 0
    assert all(m[f"checks.{n}.self_s"] > 0 for n in tracer.CHECK_NAMES)
    m = _traced(lambda: cli.main(["psgen", "--n", "5000", "--out-dir", str(tmp_path)]))
    assert m["cli.output_bytes"] == sum(p.stat().st_size for p in tmp_path.iterdir())
    assert m["cli.output_bytes"] > 0


def test_self_time_subtracts_the_union_of_children():
    tr = tracer.Tracer()
    parent = tracer.Span("p", "roth", None)
    parent.t0, parent.t1 = 0.0, 10.0
    kids = []
    for a, b in ((1.0, 3.0), (2.0, 5.0), (8.0, 9.0)):  # two overlap, as across threads
        s = tracer.Span("c", "zn_fourier", parent)
        s.t0, s.t1 = a, b
        kids.append(s)
    tr.spans = [parent] + kids
    selfs = dict((id(s), st) for s, st in tr.self_times())
    assert selfs[id(parent)] == pytest.approx(10.0 - 5.0)
    assert tracer.union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6


def test_own_oracles_agree_with_brute_force():
    rng = np.random.default_rng(0)
    mask = verify.prime_mask(1000)
    assert [n for n in range(1001) if mask[n]] == [
        n for n in range(2, 1001) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    ks = np.concatenate([np.arange(1, 3000), [2 ** 19, 3 ** 19 - 1, 3 ** 19]])
    for k, p in zip(ks.tolist(), verify.floor_h(ks).tolist()):
        assert p ** 19 <= k ** 20 < (p + 1) ** 19
    for N in (7, 11, 31):
        A = np.flatnonzero(rng.random(N) < 0.4)
        brute = sum(1 for x in range(N) for d in range(N)
                    if {x, (x + d) % N, (x + 2 * d) % N} <= set(A.tolist()))
        assert verify.count_cyclic_3aps(A, N) == brute
    A = sorted(rng.choice(60, 20, replace=False).tolist())
    brute = sum(1 for x in A for d in range(-60, 61)
                if d and x + d in A and x + 2 * d in A)
    assert verify.count_integer_3aps(A) == brute


def test_reference_comparison_tolerances(tmp_path):
    (tmp_path / "restrict.csv").write_text("trial,ratio_dimensionless\n0,0.5\n1,0.25\n")
    ref = verify.extract("restrict", str(tmp_path))
    assert verify.compare(ref, ref) == []
    (tmp_path / "restrict.csv").write_text(
        "trial,ratio_dimensionless\n0,0.5000000000001\n1,0.25\n")
    assert verify.compare(verify.extract("restrict", str(tmp_path)), ref) == []
    (tmp_path / "restrict.csv").write_text("trial,ratio_dimensionless\n0,0.5001\n1,0.25\n")
    assert verify.compare(verify.extract("restrict", str(tmp_path)), ref)
    (tmp_path / "restrict.csv").write_text("trial,ratio_dimensionless\n2,0.5\n1,0.25\n")
    assert verify.compare(verify.extract("restrict", str(tmp_path)), ref)


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()
