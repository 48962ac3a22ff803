"""Run one workload's steps in this fresh process and record their timings.

run.py starts this script with the checkout's ``src`` first on PYTHONPATH,
so the process memory it reports belongs to the workload alone.  Each step is
timed with perf_counter around the call into the package; writing the
generated config before the call and the captured text after it are not
timed.  The steps run back to back (a closed loop with one client).

Untraced: after one whole pass the steps keep cycling in order for as long
as the next step, at its last measured time, still ends within
``--seconds``.  Traced: two untraced passes, then one pass with every layer
wrapped (see tracer.py); the tracing overhead is the traced pass minus the
second untraced pass.

Writes a JSON record to ``--result``: every step run with its time and
status, the process's peak RSS after the first pass, and the trace report
when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import tracer
import workloads

import psroth
from psroth import cli, hfun, measures, roth, sieve


def run_cli(step, seed, out_dir):
    argv, cfg = workloads.cli_step(step, seed, out_dir)
    if cfg is not None:
        path = os.path.join(out_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = argv + ["--config", path]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        dt = time.perf_counter() - t0
        for name, buf in (("stdout.txt", out), ("stderr.txt", err)):
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(buf.getvalue())
    return dt, code


def run_smoothing_chain(seed, out_dir):
    """transference image A, its normalized indicator on Z_N, the spectrum
    and Bohr set at 0.3 * mass, then the smoothing bound chain."""
    t0 = time.perf_counter()
    inv = hfun.inverse_of(hfun.ps_exponent_spec(workloads.SMOOTHING_GAMMA))
    table = sieve.sieve_primes(workloads.SMOOTHING_N)
    rep = roth.transference_build(inv, table, workloads.SMOOTHING_N)
    w = np.zeros(rep.N)
    w[rep.A] = 1.0 / rep.A.size
    a = measures.WeightedSequence(rep.N, w, "indicator")
    spec = measures.spectrum_and_bohr(a, workloads.SMOOTHING_DELTA_FRAC * a.mass,
                                      workloads.SMOOTHING_EPS)
    chain = roth.smoothing_bound_chain(a, spec)
    dt = time.perf_counter() - t0
    record = {"N": int(rep.N), "set_size": int(rep.A.size), "k": spec.k,
              "bohr_size": int(spec.bohr.size)}
    for key, val in chain.items():
        record[key] = [val.real, val.imag] if isinstance(val, complex) else float(val)
    with open(os.path.join(out_dir, "smoothing_chain.json"), "w") as fh:
        json.dump(record, fh)
    return dt, 0


def run_step(step, seed, root, k, traced):
    out_dir = os.path.join(root, f"pass{k}", step)
    os.makedirs(out_dir)
    rec = {"step": step, "pass": k, "traced": traced, "out_dir": out_dir,
           "status": "ok", "error": None}
    t0 = time.perf_counter()
    try:
        if step == "smoothing_chain":
            dt, code = run_smoothing_chain(seed, out_dir)
        else:
            dt, code = run_cli(step, seed, out_dir)
        if code != 0:
            rec["status"], rec["error"] = "exit", f"exit code {code}"
    except Exception:  # a crashed step is a failed step; keep going
        dt = time.perf_counter() - t0
        rec["status"], rec["error"] = "raised", traceback.format_exc(limit=3)
    rec["t0"], rec["seconds"] = t0, dt
    return rec


def run_pass(steps, seed, root, k, traced):
    return [run_step(step, seed, root, k, traced) for step in steps]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for step outputs")
    ap.add_argument("--result", required=True, help="JSON file to write")
    ap.add_argument("--steps", help="comma-separated subset of the workload's steps")
    args = ap.parse_args(argv)

    steps = workloads.WORKLOADS[args.workload]
    if args.steps:
        steps = tuple(s for s in steps if s in args.steps.split(","))
    record = {"package_file": psroth.__file__, "trace": None}
    start = time.perf_counter()
    recs = run_pass(steps, args.seed, args.out, 0, False)
    # later passes reuse memory the allocator kept, which makes the process
    # peak vary from run to run; one pass in a fresh process is what a user
    # of the command line sees
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # compare the traced pass with a warm untraced one: the first pass
        # also pays for first calls, which would hide the tracing overhead
        untraced = run_pass(steps, args.seed, args.out, 1, False)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_pass(steps, args.seed, args.out, 2, True)
        finally:
            tr.uninstall()
        recs += untraced + traced
        record["trace"] = tr.report(untraced, traced)
    else:
        last = {rec["step"]: rec["seconds"] for rec in recs}
        for k in itertools.count(1):
            for step in steps:
                if time.perf_counter() - start + last[step] > args.seconds:
                    break
                rec = run_step(step, args.seed, args.out, k, False)
                recs.append(rec)
                last[step] = rec["seconds"]
            else:
                continue
            break
    record["steps"] = recs
    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
