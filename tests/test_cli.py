import csv
import json
import math
import os

import pytest

from psroth import checks
from psroth.cli import main


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
    assert all(os.path.exists(p) for p in man["outputs"])
    assert man["summary"]["members"] == len(rows) - 1


def test_psgen_degenerate_N(tmp_path):
    assert run(tmp_path, "psgen", "--n", "1") == 0
    assert read_csv(tmp_path / "psprimes.csv") == [["n_witness_index", "p_prime"]]
    dens = read_csv(tmp_path / "density.csv")
    assert len(dens) == 1


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


def test_restrict_run(tmp_path):
    cfg = write_config(tmp_path, N=1500, trials=3)
    assert run(tmp_path, "restrict", "--config", cfg, "--gamma", "0.95") == 0
    rows = read_csv(tmp_path / "restrict.csv")
    assert len(rows) == 4
    man = json.loads((tmp_path / "restriction_ensemble_manifest.json").read_text())
    assert abs(man["summary"]["control_ratio"] - 1.0) <= 1e-9
    assert man["summary"]["grid"] >= 4 * 1500


def test_roth_injected_set(tmp_path):
    cfg = write_config(tmp_path, inject_A=[1, 2, 3])
    assert run(tmp_path, "roth", "--config", cfg) == 0
    rows = read_csv(tmp_path / "roth.csv")
    assert rows[0] == ["set_size", "lam3_ordered", "nontrivial_ordered", "witness"]
    assert rows[1] == ["3", "5", "2", "1|2|3"]


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
