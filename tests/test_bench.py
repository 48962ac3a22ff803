"""Smoke test of bench/cli_defaults.py at a tiny config, so the script
cannot rot; its full runs of every command stay out of the test suite."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "cli_defaults.py"


def test_cli_bench_runs_and_compares(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"N": 2000}))
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--commands", "psgen", "--threads", "1",
                    "--rounds", "1", "--config", str(cfg), "--out", str(out)],
                   check=True, capture_output=True, cwd=tmp_path)
    result = json.loads(out.read_text())
    run, = result["runs"]
    assert (run["command"], run["threads"], run["round"], run["exit"]) == ("psgen", 1, 0, 0)
    assert run["wall_s"] > 0 and run["maxrss_mb"] > 0 and run["minflt"] > 0
    assert run["stime_s"] >= 0
    assert result["environment"]["python"] and result["config"] == {"N": 2000}
    report = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(out), str(out)],
                            check=True, capture_output=True, text=True).stdout
    # a file against itself: the same medians, and B never lower
    rows = [line.split() for line in report.splitlines() if line.startswith("psgen")]
    assert [row[2] for row in rows] == ["wall_s", "maxrss_mb", "minflt", "stime_s"]
    assert all(row[3] == row[4] and row[-1] == "0/1" for row in rows)
