"""Outside-in tracing of the package's layers, for the traced benchmark run.

Tracer.install replaces every public function of each layer module (names
without a leading underscore, defined in that module) with a wrapper that
records a span.  Calls between modules and bare-name calls inside a module
both look the name up in the module's globals, so both are caught.  Function
references bound at import time are patched too: the entries of tuples and
dicts held by a layer module (``checks.ALL_CHECKS``, ``cli.COMMANDS``), and
the methods ``PrimeTable.mangoldt_array`` and ``PsPrimeSet.to_csv``.
Tracer.uninstall puts every original back.

Each thread keeps its own span stack.  A span that opens on a worker thread
with an empty stack (errsweep's thread pool) takes the innermost open span of
the main thread as its parent.  Spans stay in memory; report() turns them
into self times: a span's duration minus the union of its children's
intervals.  Counters are computed from the arguments and return values at the
wrapped calls, never from private helpers of the package.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

import numpy as np

import workloads
from psroth import checks, cli, expsums, hfun, measures, roth, sieve, zn_fourier

MODULES = {"hfun": hfun, "sieve": sieve, "zn_fourier": zn_fourier,
           "measures": measures, "expsums": expsums, "roth": roth,
           "checks": checks, "cli": cli}
LAYERS = tuple(MODULES)
METHODS = (("sieve", sieve.PrimeTable, "mangoldt_array"),
           ("sieve", sieve.PsPrimeSet, "to_csv"))

# functions that get their own <layer>.<fn>.calls and .self_s metrics
REPORTED = {
    "hfun": ("eval_h", "eval_phi", "eval_h_deriv", "eval_phi_deriv"),
    "sieve": ("sieve_primes", "enumerate_ps_primes", "mangoldt_array",
              "vaughan_coefficients"),
    "zn_fourier": ("dft", "inverse_dft", "convolve", "trilinear_fft",
                   "trilinear_direct", "fourier_on_grid", "sparse_fourier_on_grid"),
    "measures": ("spectrum_and_bohr", "bohr_set", "smooth"),
    "expsums": ("vaughan_decompose", "exp_sum_direct", "error_term_sup"),
    "roth": ("count_3aps", "varnavides_count", "restriction_ratio",
             "transference_build", "smoothing_bound_chain"),
}
CHECK_NAMES = ("check_trilinear_routes", "check_inversion_and_parseval",
               "check_bohr_pigeonhole", "check_varnavides_identity",
               "check_lam3_decomposition", "check_vaughan_residual",
               "check_floor_identity_matches_enumeration",
               "check_chebyshev_identity")
# zn_fourier entry points that request a transform, and where the length is
TRANSFORM_LENGTH = {"dft": (0, "f"), "inverse_dft": (0, "F"), "convolve": (0, "f"),
                    "trilinear_fft": (0, "f"), "fourier_on_grid": (1, "grid_size"),
                    "sparse_fourier_on_grid": (2, "grid_size")}


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        for fn in REPORTED.get(layer, ()):
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update({
        "hfun.eval_h.points": "count",
        "hfun.eval_phi.points": "count",
        "sieve.integers": "count",
        "sieve.members": "count",
        "sieve.table_bytes_per_integer": "B/integer",
        "sieve.distinct_limit_ratio": "ratio",
        "zn_fourier.points": "count",
        "zn_fourier.smooth_len_share": "share",
        "zn_fourier.trilinear_fft.repeat_input_share": "share",
        "measures.bohr_set.points": "count",
        "roth.varnavides_count.d_scanned": "count",
    })
    for name in CHECK_NAMES:
        units[f"checks.{name}.self_s"] = "s"
    units["checks.failed"] = "count"
    units["cli.output_bytes"] = "B"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "share"
    for step in workloads.ALL_STEPS:
        units[f"steps.{step}.uncovered_share"] = "share"
    return units


def is_13_smooth(n):
    n = int(n)
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            n //= p
    return n == 1


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _length(x):
    return int(np.size(getattr(x, "values", x)))


def _dir_sizes(path):
    try:
        return {e.name: e.stat().st_size for e in os.scandir(path) if e.is_file()}
    except OSError:
        return {}


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals clipped to [lo, hi)."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Span:
    __slots__ = ("name", "layer", "t0", "t1", "parent")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.t0 = self.t1 = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.sieve_limits = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patches = []

    # -- recording -----------------------------------------------------------

    def add(self, name, value):
        with self._lock:
            self.counters[name] += value

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def wrap(self, fn, layer, name):
        count = getattr(self, f"_count_{layer}_{name}", None)
        if count is None and layer == "zn_fourier" and name in TRANSFORM_LENGTH:
            count = functools.partial(self._count_transform, name)
        if count is None and layer == "checks" and fn in checks.ALL_CHECKS:
            count = self._count_check
        pre = None
        if layer == "cli" and name.startswith("cmd_"):
            pre, count = self._snapshot_out_dir, self._count_cli_cmd
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and stack is not main else None
            span = Span(name, layer, parent)
            state = pre(args, kwargs) if pre else None
            result = exc = None
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if count:
                    count(args, kwargs, result, exc, state)
            return result

        return wrapper

    # -- counters at the boundaries ---------------------------------------------
    # each runs after the wrapped call, outside its span, with the call's
    # arguments, its return value (None if it raised) and its exception

    def _count_hfun_eval_h(self, a, k, res, exc, state):
        self.add("hfun.eval_h.points", np.size(_arg(a, k, 1, "x")))

    def _count_hfun_eval_phi(self, a, k, res, exc, state):
        self.add("hfun.eval_phi.points", np.size(_arg(a, k, 1, "y")))

    def _count_sieve_sieve_primes(self, a, k, res, exc, state):
        if res is None:
            return
        limit = int(_arg(a, k, 0, "limit"))
        with self._lock:
            self.sieve_limits.append(limit)
        self.add("sieve.integers", limit)
        # computed from array sizes, not measured memory
        nbytes = sum(v.nbytes for v in vars(res).values() if isinstance(v, np.ndarray))
        self.add("sieve.table_bytes", nbytes)
        self.add("sieve.table_limit", res.limit)

    def _count_sieve_enumerate_ps_primes(self, a, k, res, exc, state):
        if res is not None:
            self.add("sieve.members", res.members.size)

    def _count_transform(self, fn, a, k, res, exc, state):
        i, name = TRANSFORM_LENGTH[fn]
        x = _arg(a, k, i, name)
        n = int(x) if name == "grid_size" else _length(x)
        self.add("zn_fourier.points", n)
        self.add("zn_fourier.smooth_points", n if is_13_smooth(n) else 0)

    def _count_zn_fourier_trilinear_fft(self, a, k, res, exc, state):
        self._count_transform("trilinear_fft", a, k, res, exc, state)
        f, g, h = (np.asarray(getattr(x, "values", x))
                   for x in (_arg(a, k, 0, "f"), _arg(a, k, 1, "g"), _arg(a, k, 2, "h")))
        same = np.array_equal(f, g) and np.array_equal(g, h)
        self.add("zn_fourier.trilinear_fft.repeat_calls", int(same))
        self.add("zn_fourier.trilinear_fft.calls", 1)

    def _count_measures_bohr_set(self, a, k, res, exc, state):
        freqs = _arg(a, k, 0, "freqs")
        self.add("measures.bohr_set.points", np.size(freqs) * int(_arg(a, k, 1, "N")))

    def _count_roth_varnavides_count(self, a, k, res, exc, state):
        d_list = _arg(a, k, 4, "d_list")
        if d_list is None:
            # the documented default: every d up to N = 4096, a stride beyond
            N = int(_arg(a, k, 1, "N"))
            d_list = range(1, N, max(1, (N - 1) // 2048))
        self.add("roth.varnavides_count.d_scanned", len(d_list))

    def _count_check(self, a, k, res, exc, state):
        self.add("checks.failed", int(exc is not None or not res[1]))

    def _snapshot_out_dir(self, a, k):
        return _dir_sizes(_arg(a, k, 0, "cfg")["out_dir"])

    def _count_cli_cmd(self, a, k, res, exc, state):
        after = _dir_sizes(_arg(a, k, 0, "cfg")["out_dir"])
        self.add("cli.output_bytes", sum(size for name, size in after.items()
                                         if state.get(name) != size))

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        wrapped = {}
        for layer, mod in MODULES.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[obj] = self.wrap(obj, layer, name)
                self._patch(mod, name, wrapped[obj])
        for layer, cls, name in METHODS:
            self._patch(cls, name, self.wrap(getattr(cls, name), layer, name))
        # references bound at import: tuples and dicts of functions
        for mod in MODULES.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, tuple) and any(callable(f) and f in wrapped for f in obj):
                    self._patch(mod, name, tuple(wrapped.get(f, f) if callable(f) else f
                                                 for f in obj))
                elif isinstance(obj, dict) and any(
                        callable(v) and v in wrapped for v in obj.values()):
                    for key, v in list(obj.items()):
                        if callable(v) and v in wrapped:
                            self._patches.append((obj, key, v, True))
                            obj[key] = wrapped[v]

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name), False))
        setattr(owner, name, new)

    def uninstall(self):
        while self._patches:
            owner, name, old, is_item = self._patches.pop()
            if is_item:
                owner[name] = old
            else:
                setattr(owner, name, old)

    # -- report ------------------------------------------------------------------

    def self_times(self):
        """(span, self seconds) for every recorded span."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.t0, s.t1))
        return [(s, (s.t1 - s.t0) - union_length(children[id(s)], s.t0, s.t1))
                for s in self.spans]

    def report(self, untraced, traced):
        """Per-layer metrics plus, per traced step, its uncovered share and
        the functions with the most self time.  `untraced` and `traced` are
        the step records of the two passes over the same steps."""
        selfs = self.self_times()
        units = metric_units()
        m = {name: 0 if unit == "count" else 0.0 for name, unit in units.items()}
        for span, st in selfs:
            m[f"{span.layer}.self_s"] += st
            if span.name in REPORTED.get(span.layer, ()):
                m[f"{span.layer}.{span.name}.calls"] += 1
                m[f"{span.layer}.{span.name}.self_s"] += st
            elif span.layer == "checks" and span.name in CHECK_NAMES:
                m[f"checks.{span.name}.self_s"] += st
        c = self.counters
        for key in ("hfun.eval_h.points", "hfun.eval_phi.points", "sieve.integers",
                    "sieve.members", "zn_fourier.points", "measures.bohr_set.points",
                    "roth.varnavides_count.d_scanned", "checks.failed",
                    "cli.output_bytes"):
            m[key] = int(c[key])
        if c["sieve.table_limit"]:
            m["sieve.table_bytes_per_integer"] = c["sieve.table_bytes"] / c["sieve.table_limit"]
        if self.sieve_limits:
            m["sieve.distinct_limit_ratio"] = len(set(self.sieve_limits)) / len(self.sieve_limits)
        if c["zn_fourier.points"]:
            m["zn_fourier.smooth_len_share"] = c["zn_fourier.smooth_points"] / c["zn_fourier.points"]
        if c["zn_fourier.trilinear_fft.calls"]:
            m["zn_fourier.trilinear_fft.repeat_input_share"] = (
                c["zn_fourier.trilinear_fft.repeat_calls"] / c["zn_fourier.trilinear_fft.calls"])
        wall_untraced = sum(r["seconds"] for r in untraced)
        wall_traced = sum(r["seconds"] for r in traced)
        m["trace.overhead_s"] = wall_traced - wall_untraced
        m["trace.overhead_share"] = (wall_traced - wall_untraced) / wall_untraced
        steps = {}
        roots = [(s.t0, s.t1) for s in self.spans if s.parent is None]
        for rec in traced:
            lo, hi = rec["t0"], rec["t0"] + rec["seconds"]
            per_fn = defaultdict(float)
            for span, st in selfs:
                if lo <= span.t0 < hi:
                    per_fn[f"{span.layer}.{span.name}"] += st
            top = sorted(per_fn.items(), key=lambda kv: -kv[1])[:5]
            uncovered = 1.0 - union_length(roots, lo, hi) / rec["seconds"]
            m[f"steps.{rec['step']}.uncovered_share"] = uncovered
            steps[rec["step"]] = {"seconds": rec["seconds"], "top_self_s": top}
        return {"metrics": m, "units": units, "steps": steps}
