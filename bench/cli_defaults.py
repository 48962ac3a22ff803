"""Time every psroth command at its defaults, each run in a fresh process.

Run from anywhere; paths are resolved against the current directory:

    python3 bench/cli_defaults.py --rounds 3 --out BENCH_cli.json
    python3 bench/cli_defaults.py --src ../parent/src --out parent.json
    python3 bench/cli_defaults.py --compare parent.json BENCH_cli.json

Each round runs every (command, threads) cell once as ``python -m psroth``
with PYTHONPATH set to --src (default: this checkout's src), each run in a
temporary out_dir of its own.  Even rounds take the cells in order, odd
rounds in reverse, so no cell always follows the same neighbour.  A run
records its wall time (time.perf_counter around the child), and from the
child's own rusage (os.wait4) its peak RSS, minor page faults and system
time: ru_maxrss under RUSAGE_CHILDREN is a maximum over every child reaped
so far, not the child's own.  --config passes one JSON config file to every
command, for runs at other than the defaults.  A run also records the sha256
and size of every file it wrote and the sha256 of its stdout; a manifest is
hashed without its timestamp_utc and config.threads, the two fields that
change from run to run of the same outputs.

--compare A B reads two such files and prints, for each cell and metric,
A's and B's medians, A's interquartile range and in how many rounds B read
lower than A in the same round.  It then lists every (command, threads,
file) whose digests differ between A and B, and every output whose digest
differs across thread counts or rounds within A or within B, and exits 1 if
it listed any.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("psgen", "errsweep", "vaughan", "restrict", "roth", "check")
METRICS = ("wall_s", "maxrss_mb", "minflt", "stime_s")
# the name under which --compare lists a run's stdout beside its files
STDOUT = "<stdout>"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def output_digests(out_dir):
    """{relative path: {sha256, bytes}} of every file under out_dir; manifests
    are hashed as sorted-key JSON without timestamp_utc and config.threads."""
    digests = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith("_manifest.json"):
                man = json.loads(data)
                man.pop("timestamp_utc", None)
                man.get("config", {}).pop("threads", None)
                data = json.dumps(man, sort_keys=True).encode()
            digests[os.path.relpath(path, out_dir)] = {
                "sha256": _sha256(data), "bytes": os.path.getsize(path)}
    return digests


def run_once(src, command, threads, config):
    """One fresh ``python -m psroth`` run of command: its exit code, metrics
    and output digests."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        argv = [sys.executable, "-m", "psroth", command, "--threads", str(threads),
                "--out-dir", out_dir]
        if config:
            argv += ["--config", config]
        env = dict(os.environ, PYTHONPATH=src)
        with open(os.path.join(tmp, "stderr.txt"), "w+") as err, \
                open(os.path.join(tmp, "stdout.txt"), "wb+") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            # wait4 reaped the child, so Popen must not wait for it again
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-2000:]
            out.seek(0)
            stdout_sha256 = _sha256(out.read())
        outputs = output_digests(out_dir)
    record = {"command": command, "threads": threads, "exit": proc.returncode,
              "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024,
              "minflt": usage.ru_minflt, "stime_s": usage.ru_stime,
              "stdout_sha256": stdout_sha256, "outputs": outputs}
    if proc.returncode:
        record["stderr"] = tail
    return record


def source_digest(src):
    """sha256 over the package's .py files, names and bytes, in name order."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "psroth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(src):
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        model = None
    # a checkout without .git has no commit; never report an enclosing repo's.
    # Uncommitted edits read as "<commit>-dirty"; source_sha256 names the code.
    root = os.path.dirname(src)
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                                cwd=root, env=git_env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "commit": commit, "source_sha256": source_digest(src),
            "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def bench(args):
    src = os.path.abspath(args.src)
    config = os.path.abspath(args.config) if args.config else None
    cells = [(c, t) for c in args.commands for t in args.threads]
    runs = []
    for rnd in range(args.rounds):
        for command, threads in cells if rnd % 2 == 0 else cells[::-1]:
            rec = run_once(src, command, threads, config)
            rec["round"] = rnd
            runs.append(rec)
            print(f"round {rnd} {command:8s} threads {threads}: exit {rec['exit']}  "
                  + "  ".join(f"{m} {rec[m]:.3f}" if isinstance(rec[m], float)
                              else f"{m} {rec[m]}" for m in METRICS), flush=True)
    config_record = None
    if config:
        with open(config) as fh:
            config_record = json.load(fh)
    result = {"environment": environment(src), "config": config_record, "rounds": args.rounds,
              "metrics": list(METRICS), "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    failed = sum(1 for r in runs if r["exit"])
    print(f"wrote {args.out}: {len(runs)} runs, {failed} failed")
    return 1 if failed else 0


def _runs(path):
    with open(path) as fh:
        return json.load(fh)["runs"]


def _by_cell(runs):
    """{(command, threads): {round: run}} of a bench file's runs."""
    cells = {}
    for r in runs:
        cells.setdefault((r["command"], r["threads"]), {})[r["round"]] = r
    return cells


def _digests(runs):
    """{(command, threads, file): set of sha256 over the rounds}; stdout is
    the file STDOUT.  Runs recorded without digests add nothing."""
    found = {}
    for r in runs:
        files = {name: d["sha256"] for name, d in r.get("outputs", {}).items()}
        if "stdout_sha256" in r:
            files[STDOUT] = r["stdout_sha256"]
        for name, digest in files.items():
            found.setdefault((r["command"], r["threads"], name), set()).add(digest)
    return found


def digest_differences(runs_a, runs_b):
    """Lines naming each (command, threads, file) whose digests differ between
    A and B, a file written on one side only included, and each (command,
    file) whose digest is not one across the threads and rounds of A or of B."""
    da, db = _digests(runs_a), _digests(runs_b)
    # cells that only one side ran, or ran without digests, compare nothing
    both = {key[:2] for key in da} & {key[:2] for key in db}
    lines = [f"digest differs between A and B: {c} threads {t} {f}"
             for c, t, f in sorted(da.keys() | db.keys())
             if (c, t) in both and da.get((c, t, f)) != db.get((c, t, f))]
    for label, d in (("A", da), ("B", db)):
        per_file = {}
        for (c, t, f), digests in d.items():
            per_file.setdefault((c, f), set()).update(digests)
        lines += [f"digest differs across threads or rounds in {label}: {c} {f}"
                  for (c, f), digests in sorted(per_file.items()) if len(digests) > 1]
    return lines


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(path_a, path_b):
    runs_a, runs_b = _runs(path_a), _runs(path_b)
    a, b = _by_cell(runs_a), _by_cell(runs_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'command':9s}{'thr':>4s} {'metric':10s}{'median A':>12s}{'median B':>12s}"
          f"{'IQR A':>10s}  B lower")
    for cell in sorted(a.keys() & b.keys()):
        rounds = sorted(a[cell].keys() & b[cell].keys())
        for m in METRICS:
            va = [a[cell][k][m] for k in sorted(a[cell])]
            vb = [b[cell][k][m] for k in sorted(b[cell])]
            lower = sum(b[cell][k][m] < a[cell][k][m] for k in rounds)
            print(f"{cell[0]:9s}{cell[1]:4d} {m:10s}{statistics.median(va):12.3f}"
                  f"{statistics.median(vb):12.3f}{_iqr(va):10.3f}  {lower}/{len(rounds)}")
    diffs = digest_differences(runs_a, runs_b)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} digest differences")
    return 1 if diffs else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src directory of the checkout to time")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--commands", nargs="+", choices=COMMANDS, default=list(COMMANDS))
    ap.add_argument("--config", help="JSON config file passed to every command")
    ap.add_argument("--out", default="BENCH_cli.json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two bench files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
