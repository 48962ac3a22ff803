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
    assert report.splitlines()[-1] == "0 digest differences"
    # a digest per output, the manifest's among them, and one of stdout
    assert set(run["outputs"]) == {"psprimes.csv", "density.csv",
                                   "ps-prime_generation_manifest.json"}
    digest = run["outputs"]["density.csv"]
    assert len(digest["sha256"]) == 64 and digest["bytes"] > 0
    assert len(run["stdout_sha256"]) == 64
    # one hand-edited digest, beside an unedited copy of the run at 2 threads:
    # --compare names the file against A and across B's threads, and exits 1
    result["runs"].append(json.loads(json.dumps({**run, "threads": 2})))
    digest["sha256"] = "0" * 64
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(result))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(out), str(edited)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-3:] == [
        "digest differs between A and B: psgen threads 1 density.csv",
        "digest differs across threads or rounds in B: psgen density.csv",
        "2 digest differences"]
