"""Command line front end.

Subcommands: psgen, errsweep, vaughan, restrict, roth, check.  Settings come
from defaults, then an optional JSON config file, then flags (flags win).
Every run writes its CSV series plus a JSON manifest (resolved config, seed,
config hash, timestamp, output list); CSV bytes depend only on config+seed.
-v (repeatable) lowers the logging level; it is not part of the config.

Exit codes: 0 ok, 1 bad config/arguments, 2 resource ceiling, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import checks, expsums, hfun, roth, run, sieve
from .errors import NumericalError, ResourceError

DEFAULTS = {
    "function": {"kind": "pure_power", "c": 1.0 / 0.95, "C_h": 1.0, "x0": 1.0},
    "N": 100000,
    "N_list": None,
    "q": 1,
    "a": 0,
    "W": None,
    "r": 3.0,
    "trials": 50,
    "seed": 20260814,
    "grid": 4096,
    "threads": 1,
    "out_dir": "out",
    "P": 1000,
    "v": None,
    "draws": 10,
    "M": 8,
    "inject_A": None,
    "sieve_budget": 1 << 27,
}
# each must be a JSON integer (W may also be null); commands read them uncast
_INT_KEYS = ("N", "P", "q", "a", "M", "trials", "draws", "seed", "grid",
             "sieve_budget", "threads", "W")
# r must be a finite JSON number and v null or one; lists null or int lists
_NUMBER_KEYS = ("r", "v")
_INT_LIST_KEYS = ("N_list", "inject_A")


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
        cfg["N"] = args.n
    is_int = functools.partial(hfun._is_number, integer=True)
    for key in _INT_KEYS:
        if not is_int(cfg[key]) and not (key == "W" and cfg[key] is None):
            raise ValueError(f"{key} must be an integer, got {cfg[key]!r}")
    for key in _NUMBER_KEYS:
        if not hfun._is_number(cfg[key]) and not (key == "v" and cfg[key] is None):
            raise ValueError(f"{key} must be a finite number, got {cfg[key]!r}")
    for key in _INT_LIST_KEYS:
        val = cfg[key]
        if val is not None and not (isinstance(val, list) and all(map(is_int, val))):
            raise ValueError(f"{key} must be null or a list of integers, got {val!r}")
    if cfg["threads"] < 1:
        raise ValueError(f"threads must be an integer >= 1, got {cfg['threads']!r}")
    # every N of a density series or an error-term ladder is divided by or
    # logged, so it needs at least one prime below it
    if min(cfg["N_list"] or [2]) < 2:
        raise ValueError(f"N_list entries must be >= 2, got {cfg['N_list']}")
    # fail early on an unusable function block
    _inverse(cfg)
    return cfg


def _inverse(cfg):
    return hfun.inverse_of(hfun.spec_from_config(cfg["function"]))


def _out_path(cfg, name):
    """Path of output `name` in the run's out_dir, creating the directory."""
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return os.path.join(cfg["out_dir"], name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


def _manifest(name, cfg, outputs, extra=None):
    # out_dir and threads change where/how the run happens, not its results,
    # so they stay out of the identifying hash
    body = json.dumps({k: v for k, v in cfg.items()
                       if k not in ("out_dir", "threads")},
                      sort_keys=True, default=str)
    man = {
        "experiment": name,
        "config": cfg,
        "seed": cfg["seed"],
        "config_sha256": hashlib.sha256(body.encode()).hexdigest(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    if extra:
        man["summary"] = extra
    path = _out_path(cfg, f"{name.replace(' ', '_')}_manifest.json")
    with open(path, "w") as fh:
        json.dump(man, fh, indent=1, default=str)
    return path


def cmd_psgen(cfg):
    inv = _inverse(cfg)
    N = cfg["N"]
    # the density rows count members up to each Ni, enumerated only up to N
    if max(cfg["N_list"] or [N]) > N:
        raise ValueError(f"N_list entries must be <= N = {N}, got {cfg['N_list']}")
    # the enumeration sieves its value segments itself, up to N
    if N > cfg["sieve_budget"]:
        raise ResourceError(f"limit {N} exceeds budget {cfg['sieve_budget']}")
    ps = sieve.enumerate_ps_primes(inv, N, threads=cfg["threads"])
    ps_path = _out_path(cfg, "psprimes.csv")
    ps.to_csv(ps_path, threads=cfg["threads"])
    dens_rows = []
    Ns = [Ni for Ni in cfg["N_list"] or _halvings(N) if Ni >= 2]
    # the members ascend, so the count up to Ni is a search position
    counts = np.searchsorted(ps.members, Ns, side="right").tolist()
    for Ni, cnt in zip(Ns, counts):
        target = float(hfun.eval_phi(inv, float(Ni))) / math.log(Ni)
        dens_rows.append((Ni, cnt, target, cnt / target if target else math.inf))
    dens_path = _out_path(cfg, "density.csv")
    _write_csv(dens_path, ["N", "pi_h_count", "phi_over_logN", "ratio_dimensionless"],
               dens_rows)
    _manifest("ps-prime generation", cfg, [ps_path, dens_path],
              extra={"members": int(ps.members.size), "p_min": float(ps.p_min)})
    return 0


def _halvings(N):
    """N, N/2, N/4, ... down to the last one >= 100, ascending."""
    out = [N]
    while N // 2 >= 100:
        N //= 2
        out.append(N)
    return out[::-1]


def cmd_errsweep(cfg):
    inv = _inverse(cfg)
    Ns = cfg["N_list"] or [2 ** k for k in range(16, 23)]
    top = max(Ns)
    # every N of the ladder reads prefixes of one enumeration and one
    # inversion of phi at the top; the table goes in the call alone, so it
    # is freed once error_term_inputs has read the class's primes
    inputs = expsums.error_term_inputs(
        inv, top, cfg["q"], cfg["a"],
        sieve.sieve_primes(top, budget=cfg["sieve_budget"]), threads=cfg["threads"])

    def one(Ni):
        rep = expsums.error_term_sup(inputs, Ni, cfg["grid"])
        return (Ni, rep.sup_diff, rep.sup_diff / Ni,
                float(np.max(rep.per_xi_middle)), rep.route_gap)

    rows = list(run.in_order(one, Ns, cfg["threads"]))
    path = _out_path(cfg, "errsweep.csv")
    _write_csv(path, ["N", "sup_diff_weighted", "sup_diff_over_N",
                      "middle_sup_weighted", "route_gap_weighted"], rows)
    slope = math.nan
    if len(rows) >= 2 and all(r[1] > 0 for r in rows):
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[1] for r in rows]), 1)[0])
    _manifest("error-term sweep", cfg, [path], extra={"loglog_slope": slope})
    return 0


def cmd_vaughan(cfg):
    inv = _inverse(cfg)
    P = cfg["P"]
    table = sieve.sieve_primes(2 * P, budget=cfg["sieve_budget"])
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    draws = []
    for _ in range(cfg["draws"]):
        xi = float(rng.random())
        m = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        q = int(rng.choice([1, 1, 2, 3]))
        a = 0 if q == 1 else [r for r in range(q) if math.gcd(r, q) == 1][
            int(rng.integers(0, q - 1 if q > 2 else 1))]
        draws.append(expsums.PhaseParams(xi, m, a, q, P, 2 * P))
    splits = expsums.vaughan_decompose(inv, draws, table, v=cfg["v"])
    rows = [(i, pp.xi, pp.m, pp.q, pp.a, split.v, abs(split.direct),
             abs(split.recombined), split.residual,
             split.residual / max(1.0, abs(split.direct)))
            for i, (pp, split) in enumerate(zip(draws, splits))]
    path = _out_path(cfg, "vaughan.csv")
    _write_csv(path, ["draw", "xi_frequency", "m_multiplier", "q_modulus",
                      "a_residue", "v_cutoff", "abs_direct", "abs_recombined",
                      "residual_abs", "residual_rel"], rows)
    worst = max(r[-1] for r in rows)
    _manifest("prime-sum split sweep", cfg, [path],
              extra={"worst_rel_residual": worst})
    if worst > 1e-6:
        raise NumericalError(f"split residual {worst} above 1e-6")
    return 0


def cmd_restrict(cfg):
    inv = _inverse(cfg)
    N = cfg["N"]
    table = sieve.sieve_primes(N, budget=cfg["sieve_budget"])
    rep = roth.restriction_ratio(inv, table, N, cfg["r"], cfg["trials"],
                                 cfg["seed"], threads=cfg["threads"])
    path = _out_path(cfg, "restrict.csv")
    _write_csv(path, ["trial", "ratio_dimensionless"],
               [(t, float(x)) for t, x in enumerate(rep.ratios)])
    _manifest("restriction ensemble", cfg, [path],
              extra={"max_ratio": rep.max_ratio, "control_ratio": rep.control_ratio,
                     "grid": rep.grid})
    return 0


def _witness_text(witness):
    """A progression witness as roth.csv writes it: x|y|z, or empty for none."""
    return "" if witness is None else "|".join(map(str, witness))


def cmd_roth(cfg):
    if cfg["inject_A"] is not None:
        A = cfg["inject_A"]
        rep = roth.count_3aps(A, max(A, default=0) + 1, mode="integer")
        path = _out_path(cfg, "roth.csv")
        _write_csv(path, ["set_size", "lam3_ordered", "nontrivial_ordered",
                          "witness"],
                   [(rep.size, rep.lam3, rep.nontrivial, _witness_text(rep.witness))])
        _manifest("progression count", cfg, [path], extra={"witness": rep.witness})
        return 0
    inv = _inverse(cfg)
    n = cfg["N"]
    table = sieve.sieve_primes(n, budget=cfg["sieve_budget"])
    trep = roth.transference_build(inv, table, n, override_W=cfg["W"])
    arep = roth.count_3aps(trep.A, trep.N, mode="cyclic")
    vrep = roth.varnavides_count(trep.A, trep.N, cfg["M"], threads=cfg["threads"])
    path = _out_path(cfg, "roth.csv")
    _write_csv(path, ["n", "W", "m_primorial", "b_residue", "N_prime",
                      "set_size", "mass_dimensionless", "window_mass_dimensionless",
                      "lam3_ordered", "nontrivial_ordered", "good_pairs",
                      "Z_lower_rational", "witness"],
               [(trep.n, trep.W, trep.m, trep.b, trep.N,
                 int(trep.A.size), trep.mass, trep.window_mass,
                 arep.lam3, arep.nontrivial, vrep.good_pairs,
                 str(vrep.Z_lower), _witness_text(arep.witness))])
    _manifest("transference run", cfg, [path],
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
                    help="run.in_order's worker threads (an integer >= 1, else "
                         "exit 1) for psgen (enumeration and CSV blocks), errsweep "
                         "(enumeration, phi inversion, N ladder), restrict (grid "
                         "rows) and roth (Varnavides scan); vaughan and check ignore it")
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--gamma", type=float, help="use h(x) = x^(1/gamma)")
    ap.add_argument("--n", type=int, help="main size parameter (sets N)")
    ap.add_argument("--grid", type=int,
                    help="errsweep's frequency grid (restrict always uses 8N)")
    ap.add_argument("-v", "--verbose", action="count", default=0,
                    help="show log lines: -v info, -vv debug (not part of the "
                         "config, so outputs and config_sha256 do not change)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=max(logging.DEBUG, logging.WARNING - 10 * args.verbose))
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
