"""Command line front end.

Subcommands: psgen, errsweep, vaughan, restrict, roth, check.  Settings come
from defaults, then an optional JSON config file, then flags (flags win).
Every run writes its CSV series plus a JSON manifest (resolved config, seed,
config hash, timestamp, output list); CSV bytes depend only on config+seed.

Exit codes: 0 ok, 1 bad config/arguments, 2 resource ceiling, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import checks, expsums, hfun, measures, roth, sieve
from .errors import NumericalError, ResourceError

DEFAULTS = {
    "function": {"kind": "pure_power", "c": 1.0 / 0.95, "C_h": 1.0, "x0": 1.0},
    "N": 100000,
    "N_list": None,
    "q": 1,
    "a": 0,
    "W": None,
    "delta": 0.2,
    "epsilon": 0.25,
    "r": 3.0,
    "trials": 50,
    "seed": 20260814,
    "grid": 4096,
    "threads": None,
    "out_dir": "out",
    "P": 1000,
    "phase_m": 2,
    "xi": 0.25,
    "v": None,
    "draws": 10,
    "n": 100000,
    "M": 8,
    "inject_A": None,
    "sieve_budget": 1 << 27,
}


def load_config(args):
    cfg = dict(DEFAULTS)
    cfg["function"] = dict(DEFAULTS["function"])
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config root must be an object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    if args.gamma is not None:
        cfg["function"] = hfun.spec_to_config(hfun.ps_exponent_spec(args.gamma))
    for key in ("seed", "threads", "out_dir", "grid"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.n is not None:
        cfg["N"] = cfg["n"] = args.n
    # fail early on an unusable function block
    hfun.spec_from_config(cfg["function"])
    return cfg


def _spec(cfg):
    return hfun.spec_from_config(cfg["function"])


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


def _manifest(out_dir, name, cfg, outputs, extra=None):
    # out_dir and threads change where/how the run happens, not its results,
    # so they stay out of the identifying hash
    body = json.dumps({k: v for k, v in cfg.items()
                       if k not in ("out_dir", "threads")},
                      sort_keys=True, default=str)
    man = {
        "experiment": name,
        "config": cfg,
        "seed": cfg.get("seed"),
        "config_sha256": hashlib.sha256(body.encode()).hexdigest(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    if extra:
        man["summary"] = extra
    path = os.path.join(out_dir, f"{name.replace(' ', '_')}_manifest.json")
    with open(path, "w") as fh:
        json.dump(man, fh, indent=1, default=str)
    return path


def cmd_psgen(cfg):
    spec = _spec(cfg)
    inv = hfun.inverse_of(spec)
    N = int(cfg["N"])
    table = sieve.sieve_primes(max(N, 2), budget=cfg["sieve_budget"])
    ps = sieve.enumerate_ps_primes(inv, N, table)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    ps_path = os.path.join(out, "psprimes.csv")
    ps.to_csv(ps_path)
    dens_rows = []
    Ns = cfg["N_list"] or _halvings(N)
    for Ni in Ns:
        if Ni < 2:
            continue
        cnt = int(np.count_nonzero(ps.members <= Ni))
        target = float(hfun.eval_phi(inv, float(Ni))) / math.log(Ni)
        dens_rows.append((Ni, cnt, target, cnt / target if target else math.inf))
    dens_path = os.path.join(out, "density.csv")
    _write_csv(dens_path, ["N", "pi_h_count", "phi_over_logN", "ratio_dimensionless"],
               dens_rows)
    _manifest(out, "ps-prime generation", cfg, [ps_path, dens_path],
              extra={"members": int(ps.members.size), "p_min": float(ps.p_min)})
    return 0


def _halvings(N, floor=100):
    out = [N]
    while N // 2 >= floor:
        N //= 2
        out.append(N)
    return out[::-1]


def cmd_errsweep(cfg):
    spec = _spec(cfg)
    inv = hfun.inverse_of(spec)
    Ns = cfg["N_list"] or [2 ** k for k in range(16, 23)]
    top = max(int(x) for x in Ns)
    table = sieve.sieve_primes(top, budget=cfg["sieve_budget"])
    grid = int(cfg["grid"])
    q, a = int(cfg["q"]), int(cfg["a"])

    def one(Ni):
        rep = expsums.error_term_sup(inv, int(Ni), q, a, table, grid)
        return (int(Ni), rep.sup_diff, rep.sup_diff / Ni,
                float(np.max(rep.per_xi_middle)), rep.route_gap)

    threads = cfg["threads"] or 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            rows = list(pool.map(one, Ns))
    else:
        rows = [one(Ni) for Ni in Ns]
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "errsweep.csv")
    _write_csv(path, ["N", "sup_diff_weighted", "sup_diff_over_N",
                      "middle_sup_weighted", "route_gap_weighted"], rows)
    slope = math.nan
    if len(rows) >= 2 and all(r[1] > 0 for r in rows):
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[1] for r in rows]), 1)[0])
    _manifest(out, "error-term sweep", cfg, [path], extra={"loglog_slope": slope})
    return 0


def cmd_vaughan(cfg):
    spec = _spec(cfg)
    inv = hfun.inverse_of(spec)
    P = int(cfg["P"])
    table = sieve.sieve_primes(2 * P, budget=cfg["sieve_budget"])
    rng = np.random.Generator(np.random.Philox(int(cfg["seed"])))
    rows = []
    for i in range(int(cfg["draws"])):
        xi = float(rng.random())
        m = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        q = int(rng.choice([1, 1, 2, 3]))
        a = 0 if q == 1 else [r for r in range(q) if math.gcd(r, q) == 1][
            int(rng.integers(0, q - 1 if q > 2 else 1))]
        pp = expsums.PhaseParams(xi, m, a, q, P, 2 * P)
        split = expsums.vaughan_decompose(inv, pp, table, v=cfg["v"])
        rows.append((i, xi, m, q, a, split.v, abs(split.direct),
                     abs(split.recombined), split.residual,
                     split.residual / max(1.0, abs(split.direct))))
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "vaughan.csv")
    _write_csv(path, ["draw", "xi_frequency", "m_multiplier", "q_modulus",
                      "a_residue", "v_cutoff", "abs_direct", "abs_recombined",
                      "residual_abs", "residual_rel"], rows)
    worst = max(r[-1] for r in rows) if rows else 0.0
    _manifest(out, "prime-sum split sweep", cfg, [path],
              extra={"worst_rel_residual": worst})
    if worst > 1e-6:
        raise NumericalError(f"split residual {worst} above 1e-6")
    return 0


def cmd_restrict(cfg):
    spec = _spec(cfg)
    inv = hfun.inverse_of(spec)
    N = int(cfg["N"])
    table = sieve.sieve_primes(N, budget=cfg["sieve_budget"])
    grid = cfg["grid"] if cfg["grid"] and cfg["grid"] >= 4 * N else 8 * N
    rep = roth.restriction_ratio(inv, table, N, float(cfg["r"]),
                                 int(cfg["trials"]), int(cfg["seed"]), grid=grid)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "restrict.csv")
    _write_csv(path, ["trial", "ratio_dimensionless"],
               [(t, float(x)) for t, x in enumerate(rep.ratios)])
    _manifest(out, "restriction ensemble", cfg, [path],
              extra={"max_ratio": rep.max_ratio, "control_ratio": rep.control_ratio,
                     "grid": rep.grid})
    return 0


def cmd_roth(cfg):
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    if cfg["inject_A"]:
        A = [int(x) for x in cfg["inject_A"]]
        rep = roth.count_3aps(A, max(A) + 1, mode="integer")
        path = os.path.join(out, "roth.csv")
        _write_csv(path, ["set_size", "lam3_ordered", "nontrivial_ordered",
                          "witness"],
                   [(rep.size, rep.lam3, rep.nontrivial,
                     "" if rep.witness is None else "|".join(map(str, rep.witness)))])
        _manifest(out, "progression count", cfg, [path],
                  extra={"witness": rep.witness})
        return 0
    spec = _spec(cfg)
    inv = hfun.inverse_of(spec)
    n = int(cfg["n"])
    table = sieve.sieve_primes(n, budget=cfg["sieve_budget"])
    trep = roth.transference_build(inv, table, n, override_W=cfg["W"])
    arep = roth.count_3aps(trep.A, trep.N, mode="cyclic", method="auto")
    vrep = roth.varnavides_count(trep.A, trep.N, int(cfg["M"]))
    path = os.path.join(out, "roth.csv")
    _write_csv(path, ["n", "W", "m_primorial", "b_residue", "N_prime",
                      "set_size", "mass_dimensionless", "window_mass_dimensionless",
                      "lam3_ordered", "nontrivial_ordered", "good_pairs",
                      "Z_lower_rational", "witness"],
               [(trep.n, trep.params.W, trep.params.m, trep.params.b, trep.N,
                 int(trep.A.size), trep.mass, trep.window_mass,
                 arep.lam3, arep.nontrivial, vrep.good_pairs,
                 str(vrep.Z_lower),
                 "" if arep.witness is None else "|".join(map(str, arep.witness)))])
    _manifest(out, "transference run", cfg, [path],
              extra={"mass_ratio": trep.mass / trep.window_mass
                     if trep.window_mass else math.inf})
    return 0


def cmd_check(cfg):
    results = checks.run_all()
    failed = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failed += not passed
    if failed:
        raise NumericalError(f"{failed} checks failed")
    print(f"all {len(results)} checks passed")
    return 0


COMMANDS = {
    "psgen": cmd_psgen,
    "errsweep": cmd_errsweep,
    "vaughan": cmd_vaughan,
    "restrict": cmd_restrict,
    "roth": cmd_roth,
    "check": cmd_check,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="psroth",
                                 description="floor-image prime and progression experiments")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--threads", type=int,
                    help="worker threads for errsweep (the only command that reads it)")
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--gamma", type=float, help="use h(x) = x^(1/gamma)")
    ap.add_argument("--n", type=int, help="main size parameter (sets N and n)")
    ap.add_argument("--grid", type=int)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg)
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
