import csv
import inspect
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import psroth
from psroth import checks, cli, hfun, sieve
from psroth.cli import main

H1 = {"kind": "power_log", "c": 1.2, "x0": 3.0, "params": {"A": 2.0}}


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_config(tmp_path, **kv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kv))
    return str(path)


def test_missing_config_exits_1(tmp_path):
    assert run(tmp_path, "psgen", "--config", str(tmp_path / "nope.json")) == 1


def test_unknown_key_exits_1(tmp_path):
    cfg = write_config(tmp_path, bogus=1)
    assert run(tmp_path, "psgen", "--config", cfg) == 1


@pytest.mark.parametrize("key", ["delta", "epsilon", "phase_m", "xi", "n"])
def test_retired_keys_exit_1(tmp_path, capsys, key):
    # four keys no command read, and n, which N replaced
    cfg = write_config(tmp_path, **{key: 1})
    assert run(tmp_path, "psgen", "--config", cfg) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("errsweep", "grid", None), ("restrict", "trials", 2.5), ("psgen", "N", 2000.0),
    ("vaughan", "seed", "7"), ("roth", "W", 1.5), ("psgen", "sieve_budget", True)])
def test_non_integer_keys_exit_1(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert run(tmp_path, command, "--config", cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_every_default_key_is_read():
    # a key no command reads would still enter config_sha256
    source = inspect.getsource(cli)
    assert [k for k in cli.DEFAULTS if f'cfg["{k}"]' not in source] == []


def test_malformed_json_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(tmp_path, "psgen", "--config", str(path)) == 1


def test_bad_gamma_exits_1(tmp_path):
    assert run(tmp_path, "psgen", "--gamma", "0.2") == 1


def test_budget_ceiling_exits_2(tmp_path):
    cfg = write_config(tmp_path, N=100000, sieve_budget=1000)
    assert run(tmp_path, "psgen", "--config", cfg) == 2


def test_forced_numerical_failure_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "run_all",
                        lambda: [("synthetic", False, "forced")])
    assert run(tmp_path, "check") == 3


def test_check_passes(tmp_path, capsys):
    assert run(tmp_path, "check") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "checks passed" in out


def test_psgen_outputs_and_manifest(tmp_path):
    assert run(tmp_path, "psgen", "--gamma", "0.95", "--n", "2000") == 0
    rows = read_csv(tmp_path / "psprimes.csv")
    assert rows[0] == ["n_witness_index", "p_prime"]
    assert len(rows) > 100
    dens = read_csv(tmp_path / "density.csv")
    assert dens[0][0] == "N"
    assert int(dens[-1][0]) == 2000
    man = json.loads((tmp_path / "ps-prime_generation_manifest.json").read_text())
    assert man["experiment"] == "ps-prime generation"
    assert man["seed"] == 20260814
    assert len(man["config_sha256"]) == 64
    assert [out["path"] for out in man["outputs"]] == ["psprimes.csv", "density.csv"]
    for out in man["outputs"]:
        assert out["bytes"] == (tmp_path / out["path"]).stat().st_size > 0
    assert man["summary"]["members"] == len(rows) - 1


@pytest.mark.parametrize("command", ["psgen", "restrict"])
def test_manifest_outputs_do_not_depend_on_out_dir(tmp_path, monkeypatch, command):
    # an absolute out_dir and a relative one of another length write the
    # same manifest but for its timestamp: out_dir is not in it
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, N=2000, trials=2)
    mans = []
    for d in (str(tmp_path / "a" / "much_longer_directory_name"), "b"):
        assert main([command, "--config", cfg, "--out-dir", d]) == 0
        name = next(f for f in os.listdir(d) if f.endswith("_manifest.json"))
        with open(os.path.join(d, name)) as fh:
            mans.append(json.load(fh))
        del mans[-1]["timestamp_utc"]
    assert mans[0] == mans[1]
    assert "out_dir" not in mans[0]["config"]
    assert all(out["bytes"] > 0 and os.sep not in out["path"]
               for out in mans[0]["outputs"])


def test_psgen_degenerate_N(tmp_path):
    assert run(tmp_path, "psgen", "--n", "1") == 0
    assert read_csv(tmp_path / "psprimes.csv") == [["n_witness_index", "p_prime"]]
    dens = read_csv(tmp_path / "density.csv")
    assert len(dens) == 1


def test_psgen_N_list_above_N_exits_1(tmp_path, capsys):
    # the 2000 row would count only the members up to N = 1000
    cfg = write_config(tmp_path, N_list=[500, 2000])
    assert run(tmp_path, "psgen", "--n", "1000", "--config", cfg) == 1
    assert "N_list" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest.json"))
    cfg = write_config(tmp_path, N_list=[500, 1000])
    assert run(tmp_path, "psgen", "--n", "1000", "--config", cfg) == 0
    assert [row[0] for row in read_csv(tmp_path / "density.csv")] == ["N", "500", "1000"]


@pytest.mark.parametrize("N_list", [[0, 4096], [-5, 4096], [1, 4096]])
def test_errsweep_N_list_below_2_exits_1(tmp_path, capsys, N_list):
    # 0 divided the sup by zero; -5 wrote a junk row and exited 0
    cfg = write_config(tmp_path, N_list=N_list, grid=256)
    assert run(tmp_path, "errsweep", "--config", cfg) == 1
    assert "N_list" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest.json"))


def test_psgen_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["psgen", "--gamma", "0.95", "--n", "3000",
                     "--out-dir", str(d)]) == 0
    for name in ("psprimes.csv", "density.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "ps-prime_generation_manifest.json").read_text())
    mb = json.loads((b / "ps-prime_generation_manifest.json").read_text())
    assert ma["config_sha256"] == mb["config_sha256"]


def test_gamma_flag_matches_default_function(tmp_path):
    # --gamma 0.95 names the default h(x) = x^(1/0.95), so the config hash agrees
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["psgen", "--out-dir", str(a)]) == 0
    assert main(["psgen", "--gamma", "0.95", "--out-dir", str(b)]) == 0
    ma = json.loads((a / "ps-prime_generation_manifest.json").read_text())
    mb = json.loads((b / "ps-prime_generation_manifest.json").read_text())
    assert ma["config"]["function"] == mb["config"]["function"]
    assert ma["config_sha256"] == mb["config_sha256"]


def test_errsweep_identity_map_all_zero(tmp_path):
    cfg = write_config(tmp_path, N_list=[4096, 8192], grid=256)
    assert run(tmp_path, "errsweep", "--config", cfg, "--gamma", "1.0") == 0
    rows = read_csv(tmp_path / "errsweep.csv")
    assert rows[0][0] == "N"
    for row in rows[1:]:
        assert float(row[1]) == 0.0
        assert float(row[4]) == 0.0
    man = json.loads((tmp_path / "error-term_sweep_manifest.json").read_text())
    assert math.isnan(man["summary"]["loglog_slope"])


def test_errsweep_slope_recorded(tmp_path):
    cfg = write_config(tmp_path, N_list=[4096, 16384], grid=256)
    assert run(tmp_path, "errsweep", "--config", cfg, "--gamma", "0.99") == 0
    man = json.loads((tmp_path / "error-term_sweep_manifest.json").read_text())
    assert float(man["summary"]["loglog_slope"]) < 1.0


def test_errsweep_threads_do_not_change_outputs(tmp_path):
    cfg = write_config(tmp_path, N_list=[4096, 8192, 16384], grid=256)
    runs = {}
    for threads in ("1", "2"):
        d = tmp_path / threads
        assert main(["errsweep", "--config", cfg, "--gamma", "0.95",
                     "--threads", threads, "--out-dir", str(d)]) == 0
        man = json.loads((d / "error-term_sweep_manifest.json").read_text())
        runs[threads] = ((d / "errsweep.csv").read_bytes(), man["config_sha256"])
    assert runs["1"] == runs["2"]


def test_psgen_threads_do_not_change_outputs(tmp_path):
    # N = 5e6 spans three blocks of n and three CSV blocks of rows
    runs = {}
    for threads in ("1", "2"):
        d = tmp_path / threads
        assert main(["psgen", "--n", "5000000", "--threads", threads,
                     "--out-dir", str(d)]) == 0
        man = json.loads((d / "ps-prime_generation_manifest.json").read_text())
        runs[threads] = ((d / "psprimes.csv").read_bytes(),
                         (d / "density.csv").read_bytes(), man["config_sha256"])
    assert runs["1"][0].count(b"\n") > 2 * 2 ** 16
    assert runs["1"] == runs["2"]


@pytest.mark.parametrize("command", ["psgen", "errsweep", "restrict", "roth"])
@pytest.mark.parametrize("threads", [0, -1])
def test_bad_threads_exit_1(tmp_path, capsys, command, threads):
    assert run(tmp_path, command, "--threads", str(threads)) == 1
    assert "config error" in capsys.readouterr().err
    cfg = write_config(tmp_path, threads=threads)
    assert run(tmp_path, command, "--config", cfg) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_vaughan_determinism_and_residuals(tmp_path):
    cfg = write_config(tmp_path, P=300, draws=4)
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["vaughan", "--config", cfg, "--gamma", "0.95",
                     "--seed", "99", "--out-dir", str(d)]) == 0
    assert (a / "vaughan.csv").read_bytes() == (b / "vaughan.csv").read_bytes()
    rows = read_csv(a / "vaughan.csv")
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row[-1]) <= 1e-6
    c = tmp_path / "c"
    assert main(["vaughan", "--config", cfg, "--gamma", "0.95",
                 "--seed", "100", "--out-dir", str(c)]) == 0
    assert (a / "vaughan.csv").read_bytes() != (c / "vaughan.csv").read_bytes()


@pytest.mark.parametrize("draws", [0, -2])
def test_vaughan_draws_below_1_exit_1(tmp_path, capsys, draws):
    cfg = write_config(tmp_path, P=300, draws=draws)
    assert run(tmp_path, "vaughan", "--config", cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "vaughan.csv").exists()
    assert not list(tmp_path.glob("*manifest.json"))


def test_restrict_run(tmp_path):
    cfg = write_config(tmp_path, N=1500, trials=3)
    assert run(tmp_path, "restrict", "--config", cfg, "--gamma", "0.95") == 0
    rows = read_csv(tmp_path / "restrict.csv")
    assert len(rows) == 4
    man = json.loads((tmp_path / "restriction_ensemble_manifest.json").read_text())
    assert abs(man["summary"]["control_ratio"] - 1.0) <= 1e-9
    assert man["summary"]["grid"] >= 4 * 1500


def test_restrict_threads_do_not_change_outputs(tmp_path):
    cfg = write_config(tmp_path, N=1500, trials=5)
    runs = {}
    for threads in ("1", "2"):
        d = tmp_path / threads
        assert main(["restrict", "--config", cfg, "--threads", threads,
                     "--out-dir", str(d)]) == 0
        man = json.loads((d / "restriction_ensemble_manifest.json").read_text())
        runs[threads] = ((d / "restrict.csv").read_bytes(), man["config_sha256"],
                         man["summary"])
    assert runs["1"] == runs["2"]


def test_restrict_ignores_grid(tmp_path):
    # restrict's grid is always 8N; the grid key is errsweep's alone
    runs = []
    for grid in (4096, 10 ** 7):
        d = tmp_path / str(grid)
        cfg = write_config(tmp_path, N=1500, trials=3, grid=grid)
        assert main(["restrict", "--config", cfg, "--out-dir", str(d)]) == 0
        man = json.loads((d / "restriction_ensemble_manifest.json").read_text())
        assert man["summary"]["grid"] == 8 * 1500
        runs.append((d / "restrict.csv").read_bytes())
    assert runs[0] == runs[1]


def test_roth_injected_set(tmp_path):
    cfg = write_config(tmp_path, inject_A=[1, 2, 3])
    assert run(tmp_path, "roth", "--config", cfg) == 0
    rows = read_csv(tmp_path / "roth.csv")
    assert rows[0] == ["set_size", "lam3_ordered", "nontrivial_ordered", "witness"]
    assert rows[1] == ["3", "5", "2", "1|2|3"]


def test_roth_injected_empty_set(tmp_path):
    # an empty list is the empty set, not the transference run
    cfg = write_config(tmp_path, inject_A=[])
    assert run(tmp_path, "roth", "--config", cfg) == 0
    rows = read_csv(tmp_path / "roth.csv")
    assert rows == [["set_size", "lam3_ordered", "nontrivial_ordered", "witness"],
                    ["0", "0", "0", ""]]
    man = json.loads((tmp_path / "progression_count_manifest.json").read_text())
    assert man["experiment"] == "progression count"


def test_roth_full_pipeline(tmp_path):
    assert run(tmp_path, "roth", "--gamma", "0.95", "--n", "2000") == 0
    rows = read_csv(tmp_path / "roth.csv")
    header, row = rows[0], dict(zip(rows[0], rows[1]))
    assert "N_prime" in header and "Z_lower_rational" in header
    n, N = int(row["n"]), int(row["N_prime"])
    m = int(row["m_primorial"])
    assert n == 2000
    assert 2 * n / m <= N <= 4 * n // m
    assert int(row["lam3_ordered"]) >= int(row["set_size"])
    man = json.loads((tmp_path / "transference_run_manifest.json").read_text())
    assert man["summary"]["mass_ratio"] == pytest.approx(1.0)


@pytest.mark.parametrize("W, N, m", [(11, 2000, 2310), (7, 300, 210)])
def test_roth_W_too_large_for_N_exits_1(tmp_path, capsys, W, N, m):
    # the primorial m must not exceed N/2
    cfg = write_config(tmp_path, W=W, N=N)
    assert run(tmp_path, "roth", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert f"W={W} " in err and f"m={m} " in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_roth_threads_do_not_change_outputs(tmp_path):
    # n = 4000 puts N above 4096, so the Varnavides scan takes the stride sample
    runs = {}
    for threads in ("1", "2", "3"):
        d = tmp_path / threads
        assert main(["roth", "--gamma", "0.95", "--n", "4000", "--threads", threads,
                     "--out-dir", str(d)]) == 0
        man = json.loads((d / "transference_run_manifest.json").read_text())
        runs[threads] = ((d / "roth.csv").read_bytes(), man["config_sha256"])
    assert runs["1"] == runs["2"] == runs["3"]


def test_roth_reads_config_N(tmp_path):
    cfg = write_config(tmp_path, N=2000)
    assert run(tmp_path, "roth", "--config", cfg, "--gamma", "0.95") == 0
    row = dict(zip(*read_csv(tmp_path / "roth.csv")))
    assert int(row["n"]) == 2000


def test_verbose_lowers_log_level_only(tmp_path, monkeypatch):
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    for flags in ([], ["-v"], ["-vv"], ["--verbose", "--verbose", "-v"]):
        d = tmp_path / (" ".join(flags) or "quiet")
        assert main(["psgen", "--n", "2000", *flags, "--out-dir", str(d)]) == 0
    assert levels == [logging.INFO, logging.DEBUG, logging.DEBUG]
    quiet, loud = tmp_path / "quiet", tmp_path / "-vv"
    for name in ("psprimes.csv", "density.csv"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()
    mq, ml = (json.loads((d / "ps-prime_generation_manifest.json").read_text())
              for d in (quiet, loud))
    assert mq["config"].keys() == ml["config"].keys()
    assert not any("verbose" in key for key in mq["config"])
    assert mq["config_sha256"] == ml["config_sha256"]


def test_verbose_shows_enumeration_log_line(tmp_path):
    # a fresh process, so the root logger has no handlers yet
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(psroth.__file__)))
    err = {}
    for flags in ([], ["-vv"]):
        proc = subprocess.run(
            [sys.executable, "-m", "psroth", "psgen", "--n", "2000", *flags,
             "--out-dir", str(tmp_path / str(len(flags)))],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        err[len(flags)] = proc.stderr
    assert "members below small-p threshold" in err[1]
    assert "psroth.sieve" in err[1]
    assert err[0] == ""


def test_errsweep_reads_no_dense_mangoldt_array(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("errsweep read the dense Mangoldt array")

    monkeypatch.setattr(sieve.PrimeTable, "mangoldt_array", refuse)
    cfg = write_config(tmp_path, function=H1, N_list=[4096, 8192], grid=256, q=4, a=3)
    assert run(tmp_path, "errsweep", "--config", cfg) == 0
    assert len(read_csv(tmp_path / "errsweep.csv")) == 3


def test_errsweep_memory_at_benchmark_ladder(tmp_path):
    # h1 over the ladder 2^18..2^23 on 2 threads: the top's inputs are the k,
    # the middle weights and the primes (4.5 MB each), and the sieve table
    # (12.6 MB) is freed before phi is taken; the traced peak of the whole
    # command is about 26.5 MiB
    cfg = write_config(tmp_path, function=H1, N_list=[2 ** k for k in range(18, 24)])
    tracemalloc.start()
    try:
        assert run(tmp_path, "errsweep", "--config", cfg, "--threads", "2") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_csv(tmp_path / "errsweep.csv")) == 7
    assert peak < 32 << 20


def test_errsweep_ladder_inverts_phi_twice(tmp_path, monkeypatch):
    # one enumeration and one inversion of phi at k and k + 1 serve the
    # whole ladder; the enumeration is done up front, since its own bounds
    # and cross-check invert phi too
    ladder = [2 ** k for k in range(12, 18)]
    inv = hfun.inverse_of(hfun.spec_from_config(H1))
    ps = sieve.enumerate_ps_primes(inv, max(ladder), sieve.sieve_primes(max(ladder)))
    tops = []

    def enumerated(inv, N, table, threads=1):
        tops.append(N)
        return ps

    real, calls = hfun._newton_phi, []

    def counting(inv, y):
        calls.append(y.size)
        return real(inv, y)

    monkeypatch.setattr(sieve, "enumerate_ps_primes", enumerated)
    monkeypatch.setattr(hfun, "_newton_phi", counting)
    cfg = write_config(tmp_path, function=H1, N_list=ladder, grid=256)
    assert run(tmp_path, "errsweep", "--config", cfg, "--threads", "2") == 0
    assert tops == [max(ladder)]
    assert len(calls) == 2
    assert len(read_csv(tmp_path / "errsweep.csv")) == len(ladder) + 1


@pytest.mark.parametrize("command, key, value", [
    ("restrict", "r", "3"), ("restrict", "r", True), ("restrict", "r", None),
    ("vaughan", "v", "x"), ("vaughan", "v", False), ("vaughan", "v", [10]),
    ("errsweep", "N_list", [4096.5, 8192]), ("psgen", "N_list", 4096),
    ("psgen", "N_list", [True, 200]), ("roth", "inject_A", [1.7, 2, 3]),
    ("roth", "inject_A", "1,2,3"), ("roth", "inject_A", [1, None])])
def test_untyped_number_and_list_keys_exit_1(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert run(tmp_path, command, "--config", cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, key", [("restrict", "r"), ("vaughan", "v")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_number_keys_exit_1(tmp_path, capsys, command, key, value):
    # json reads NaN and Infinity: r = NaN wrote nan ratios and exited 0
    cfg = write_config(tmp_path, **{key: value})
    assert run(tmp_path, command, "--config", cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest.json"))


@pytest.mark.parametrize("q", [0, -3])
def test_errsweep_modulus_below_1_exits_1(tmp_path, capsys, q):
    # q = 0 divided by zero in a % q; q = -3 wrote a sweep and exited 0
    cfg = write_config(tmp_path, q=q, a=1, N_list=[4096], grid=256)
    assert run(tmp_path, "errsweep", "--config", cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest.json"))


@pytest.mark.parametrize("key, value", [
    ("r", 3), ("r", 2.5), ("v", None), ("v", 12), ("v", 12.5), ("N_list", None),
    ("N_list", [100, 200]), ("N_list", []), ("inject_A", None), ("inject_A", [0, 3, 7])])
def test_typed_number_and_list_keys_load(tmp_path, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert cli.load_config(cli.build_parser().parse_args(["psgen", "--config", cfg]))[key] == value


def test_psgen_builds_no_prime_table(tmp_path, monkeypatch):
    # psgen sieves its value segments itself and checks the budget up front
    def refuse(*args, **kwargs):
        raise AssertionError("psgen built a whole-range prime table")

    monkeypatch.setattr(sieve, "sieve_primes", refuse)
    assert run(tmp_path, "psgen", "--n", "20000") == 0
    cfg = write_config(tmp_path, sieve_budget=19999)
    assert run(tmp_path, "psgen", "--n", "20000", "--config", cfg) == 2


@pytest.mark.parametrize("function", [
    {**H1, "c": None}, {**H1, "x0": "3"}, {**H1, "x0": math.inf},
    {**H1, "params": {"A": "x"}}, {**H1, "gama": 2},
    {**H1, "params": {"A": 2.0, "B": 0.5}},
    {"kind": "iterated_log", "c": 1.0, "params": {"m": 2.7}}],
    ids=["c_null", "x0_string", "x0_infinite", "A_string", "unknown_key",
         "unread_param", "m_fraction"])
def test_bad_function_block_exits_1(tmp_path, capsys, function):
    # each raised a TypeError or OverflowError, or was silently ignored,
    # truncated or hashed into config_sha256
    cfg = write_config(tmp_path, function=function)
    assert run(tmp_path, "psgen", "--n", "2000", "--config", cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*manifest.json"))


@pytest.mark.parametrize("function, spec", [
    (cli.DEFAULTS["function"], hfun.ps_exponent_spec(0.95)),
    (H1, hfun.power_log(1.2, 2.0, x0=3.0)),
    ({"kind": "iterated_log", "c": 1, "params": {"m": 2}}, hfun.iterated_log(2))])
def test_function_blocks_load_unchanged(tmp_path, function, spec):
    # the block is hashed as written, and read as the same spec
    cfg = write_config(tmp_path, function=function)
    loaded = cli.load_config(cli.build_parser().parse_args(["psgen", "--config", cfg]))
    assert loaded["function"] == function
    assert hfun.spec_from_config(loaded["function"]) == spec
