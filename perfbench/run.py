"""psroth benchmark: run one workload end to end, or traced layer by layer.

Run from the root of a checkout (the directory holding ``src/psroth``):

    python3 perfbench/run.py --workload zn_roth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workload's steps run in a fresh interpreter (worker.py), so its peak RSS
belongs to it alone.  Afterwards this process checks every step's outputs
(verify.py) and times SETUP_SAMPLES more fresh interpreters from start until
``import psroth`` and ``psroth.cli`` are done.  It never imports the package
itself.

``--trace 0`` reports the end-to-end metrics: wall_s (the sum over the
workload's steps of each step's median time), setup_s (median of the set-up
samples) and peak_rss_mb (ru_maxrss of the worker after its first pass).  ``--trace 1`` reports
the per-layer metrics of tracer.py.  Human-readable lines come first; the
last line of standard output is the JSON result.  ``--record-reference``
rewrites reference.json from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = "import psroth, psroth.cli; print('ready', flush=True)"


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample(root, env):
    """Seconds from starting a fresh interpreter until psroth.cli is imported."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("importing psroth failed in a fresh interpreter")
    return dt


def run_worker(root, env, args, run_dir, deadline, steps=None):
    result = os.path.join(run_dir, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(run_dir, "out"), "--result", result]
    if steps:
        cmd += ["--steps", ",".join(steps)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def check_steps(records, seed, reference):
    """Attach the problems found in each step's outputs; return the failures."""
    checker = verify.Checker(seed)
    failed = 0
    for rec in records:
        problems = []
        if rec["status"] != "ok":
            problems.append(rec["error"])
        else:
            try:
                problems += checker.check(rec["step"], rec["out_dir"])
                ref = verify.reference_for(reference, rec["step"], seed)
                if ref is not None:
                    problems += verify.compare(verify.extract(rec["step"], rec["out_dir"]), ref)
            except Exception as exc:  # unreadable output fails the step
                problems.append(f"output unreadable: {exc!r}")
        rec["problems"] = problems
        failed += bool(problems)
    return failed


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "psroth")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment(root, args):
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or None)
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    # a checkout without .git has no commit; never report an enclosing repo's
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), **versions,
        "commit": commit, "source_sha256": source_digest(root),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": workloads.THREADS,
        # derived from array sizes, not measured
        "computed": ["sieve.table_bytes_per_integer"],
    }


def run_workload(root, args):
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    run_dir = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        record = run_worker(root, env, args, run_dir, deadline)
        if not record["package_file"].startswith(os.path.join(root, "src") + os.sep):
            raise RuntimeError(f"worker imported psroth from {record['package_file']}")
        failed = check_steps(record["steps"], args.seed, verify.load_reference())
        setup = [setup_sample(root, env) for _ in range(SETUP_SAMPLES)] if not args.trace else []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steps = record["steps"]
    times = {}
    for rec in steps:
        if not rec["traced"]:
            times.setdefault(rec["step"], []).append(rec["seconds"])
    medians = {s: statistics.median(v) for s, v in times.items()}
    report = {"environment": environment(root, args), "steps": steps,
              "step_samples_s": times, "step_median_s": medians}
    if args.trace:
        metrics = {k: {"value": v, "unit": record["trace"]["units"][k]}
                   for k, v in record["trace"]["metrics"].items()}
        report["trace_steps"] = record["trace"]["steps"]
    else:
        values = {"wall_s": sum(medians.values()), "setup_s": statistics.median(setup),
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report["setup_samples_s"] = setup
    result = {"correct": failed == 0, "attempted": len(steps), "failed": failed,
              "metrics": metrics}
    report["result"] = result
    os.makedirs(os.path.join(root, ".perfbench", "results"), exist_ok=True)
    with open(os.path.join(root, ".perfbench", "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(args.workload, report)
    return result


def print_report(workload, report):
    result = report["result"]
    print("environment: " + json.dumps(report["environment"]))
    for rec in report["steps"]:
        for problem in rec["problems"]:
            print(f"FAILED {rec['step']} (pass {rec['pass']}): {problem}")
    row = "{:<11} {:<50} {:>16} {:<9} {}"
    print(row.format("workload", "metric", "value", "unit", "samples"))
    for step, med in report["step_median_s"].items():
        samples = len(report["step_samples_s"][step])
        print(row.format(workload, f"{step}_s", f"{med:.4f}", "s", samples))
    for name, m in result["metrics"].items():
        print(row.format(workload, name, f"{m['value']:.6g}", m["unit"], ""))
    frac = result["failed"] / result["attempted"]
    print(row.format(workload, "failed_frac", f"{frac:.4g}", "share", result["attempted"]))
    for step, info in report.get("trace_steps", {}).items():
        top = ", ".join(f"{name} {sec:.3f}" for name, sec in info["top_self_s"])
        print(f"{workload} traced {step} {info['seconds']:.3f} s; top self time: {top}")


def run_all(args):
    """Every workload, each through its own run of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return None
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def record_reference(root, names, seeds):
    """Record the outputs of the named workloads into reference.json: every
    step once, the seeded steps for each seed.  Entries of other workloads
    are kept.  Refuses to record outputs that fail the independent checks."""
    ref = verify.load_reference()
    ref["float_rtol"] = verify.FLOAT_RTOL
    env = child_env(root)
    for name in names:
        for seed in seeds:
            steps = None if seed == seeds[0] else [
                s for s in workloads.WORKLOADS[name] if s in verify.SEEDED_STEPS]
            if steps == []:
                continue
            run = argparse.Namespace(workload=name, seed=seed, seconds=0, trace=0)
            run_dir = os.path.join(root, ".perfbench", f"record-{name}-{seed}-{os.getpid()}")
            os.makedirs(run_dir)
            try:
                recs = run_worker(root, env, run, run_dir, time.monotonic() + 600, steps)["steps"]
                if check_steps(recs, seed, {"steps": {}, "seeded": {}}):
                    raise RuntimeError(f"{name} seed {seed}: "
                                       f"{[r['problems'] for r in recs if r['problems']]}")
                for rec in recs:
                    got = verify.extract(rec["step"], rec["out_dir"])
                    if rec["step"] in verify.SEEDED_STEPS:
                        ref["seeded"].setdefault(str(seed), {})[rec["step"]] = got
                    else:
                        ref["steps"][rec["step"]] = got
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            print(f"recorded {name} seed {seed}", flush=True)
    with open(verify.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", metavar="FIRST:STOP",
                    help="record reference outputs for seeds FIRST..STOP-1 "
                         "(of --workload, or of every workload)")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "psroth", "__init__.py")):
        print("perfbench: no src/psroth here; run from the root of a psroth checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        first, stop = (int(x) for x in args.record_reference.split(":"))
        names = list(workloads.WORKLOADS) if args.workload in (None, "all") else [args.workload]
        record_reference(root, names, list(range(first, stop)))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run_all(args) if args.workload == "all" else run_workload(root, args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
