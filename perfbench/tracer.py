"""Outside-in tracing of the channelmoments layers.

The benchmark wraps functions of each layer module from its own code; no
file of the package changes.  Every call of a timed function records a span
(name, start, end, parent) in memory.  Self time is a span's duration minus
the durations of its child spans.  There is one process and one thread, so
no layer waits on another: spans measure busy time only.

Element-level helpers (``compose``, ``inverse``, ``mobius``, ``Permutation``
...) stay unwrapped.  They run up to t!^2 times inside the calls listed here,
and their time counts as the caller's self time.  ``specs`` and
``channels`` do negligible work, so their public functions are counted, not
timed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "channelmoments"

# Timed functions per layer module.  The two private table builders are
# wrapped because the cold-table metrics are defined on them; if a later
# version removes or renames any name here, it is listed as absent and the
# metrics that need it are left out of the result.
TIMED = {
    "symmgroup": ("symmetric_group", "group_index", "conjugacy_classes",
                  "enumerate_subpermutations"),
    "weingarten": ("_pair_class_table", "gram_matrix", "weingarten_function",
                   "weingarten_matrix", "haar_transfer_perm", "chaar_transfer_perm",
                   "jucys_murphy_sum", "character_sum"),
    "exactalg": ("solve_exact", "invert_exact", "invert_bareiss", "mat_eq",
                 "product_is_identity", "identity_exact"),
    "localized": ("_subperm_table", "phi_inverse", "phi_matrix", "localized_gram",
                  "to_localized", "support_pattern", "scaling_exponents"),
    "moments": ("transfer", "gram", "gram_for", "concatenate", "norm_squared", "trace",
                "spectrum", "hierarchy_scan", "invariance_checks",
                "design_distance_depolarize", "exact_t2_chaar", "frame_potential_mc",
                "sample_haar_unitary", "sample_stinespring_kraus"),
    "twirlsim": ("evolve", "pauli_sandwich", "pauli_left", "pauli_right",
                 "apply_1q_channel", "initial_two_copy_state", "purity",
                 "reference_purities", "composite_noise_norm", "mc_expectation_moments"),
    "cli": ("main",),
}
COUNTED = ("specs", "channels")

GATE_TWIRL = ("twirlsim.pauli_sandwich", "twirlsim.pauli_left", "twirlsim.pauli_right")
NOISE_STEP = ("twirlsim.apply_1q_channel",)
SAMPLERS = ("moments.sample_haar_unitary", "moments.sample_stinespring_kraus")
CLI_COMMANDS = ("weingarten", "transfer", "hierarchy", "spectrum", "simulate", "mc", "verify")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _scan_points(args, kwargs, result):
    return len(result.rows)


def _mc_samples(args, kwargs, result):
    return result.samples


def _operand_bytes(args, kwargs, result):
    return _first_arg(args, kwargs, "m").nbytes


def _cli_command(args, kwargs, result):
    argv = _first_arg(args, kwargs, "argv") or sys.argv[1:]
    return next((a for a in argv if a in CLI_COMMANDS), "other")


def _gate_steps(args, kwargs, result):
    spec = _first_arg(args, kwargs, "spec")
    return spec.layers * len(sys.modules[PACKAGE + ".twirlsim"].generators(spec))


# Values observed per call, outside the span's own timing.
OBSERVE = {
    "moments.hierarchy_scan": _scan_points,
    "moments.frame_potential_mc": _mc_samples,
    "twirlsim.evolve": _gate_steps,
    "cli.main": _cli_command,
    **{name: _operand_bytes for name in GATE_TWIRL + NOISE_STEP},
}


class Tracer:
    """In-memory span store plus call counters; spans are parallel lists."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.observed: dict = {}  # span index -> observed value
        self.counts: dict = {}
        self.absent: list = []
        self.caches: dict = {}  # name -> original lru_cache object
        self._stack: list = []

    def timed(self, name, fn):
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack = self._stack
        observe = OBSERVE.get(name)
        observed = self.observed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observed[idx] = observe(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function in every package namespace that binds it.

        A function imported by name (``from .exactalg import solve_exact``)
        lives in several module dicts; each binding of the same object is
        replaced, so calls through any of them are recorded.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short, fnames in TIMED.items():
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            for fname in fnames:
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    self.absent.append(f"{short}.{fname}")
                    continue
                if hasattr(orig, "cache_info"):
                    self.caches[f"{short}.{fname}"] = orig
                _rebind(modules, orig, self.timed(f"{short}.{fname}", orig))
        for short in COUNTED:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                self.absent.append(short)
                continue
            for fname, obj in list(vars(mod).items()):
                if (not fname.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    _rebind(modules, obj, self.counted(f"{short}.{fname}", obj))


def _rebind(modules, orig, wrapper):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def write_spans(tr: Tracer, path):
    """Write spans as gzip JSON lines: [name, start, end, parent]."""
    with gzip.open(path, "wt") as fh:
        for i, name in enumerate(tr.names):
            fh.write(json.dumps([name, tr.start[i], tr.end[i], tr.parent[i]]) + "\n")


def _percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    pos = p * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def high_percentile(n: int) -> float:
    """Highest of p99.9 / p99 / p90 / p50 with at least ten samples beyond it."""
    for p in (0.999, 0.99, 0.9):
        if n * (1 - p) >= 10:
            return p
    return 0.5


def summarize(tr: Tracer, unit_windows: list) -> tuple:
    """Per-layer metrics from the recorded spans of one fresh process.

    ``unit_windows`` lists (first_span, end_span, seconds) per timed unit.
    Returns (metrics, notes): metrics maps a name to its value, notes holds
    the percentiles chosen and absent names.
    """
    n = len(tr.names)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tr.parent):
        if p >= 0:
            child[p] += dur[i]
    by_name: dict = {}
    for i, name in enumerate(tr.names):
        by_name.setdefault(name, []).append(i)
    absent = set(tr.absent)
    m: dict = {}
    notes: dict = {"absent": sorted(absent), "call_percentiles": {}}

    def have(*fnames):
        return not any(f in absent for f in fnames)

    def total(*fnames):
        return sum(dur[i] for f in fnames for i in by_name.get(f, ()))

    def calls(*fnames):
        return sum(len(by_name.get(f, ())) for f in fnames)

    def outermost(fnames):
        """Spans of ``fnames`` whose parent is not itself one of ``fnames``."""
        group = set(fnames)
        return [i for f in fnames for i in by_name.get(f, ())
                if tr.parent[i] < 0 or tr.names[tr.parent[i]] not in group]

    def per_call(key, idx):
        vals = sorted(dur[i] for i in idx)
        p = high_percentile(len(vals))
        m[f"{key}_call_p50_s"] = _percentile(vals, 0.5)
        m[f"{key}_call_phigh_s"] = _percentile(vals, p)
        notes["call_percentiles"][key] = {"phigh": p, "calls": len(vals)}

    def rate(fname):
        secs = total(fname)
        count = sum(tr.observed.get(i, 0) for i in by_name.get(fname, ()))
        return count / secs if secs > 0 else 0.0

    for short in TIMED:
        prefix = short + "."
        idx = [i for i, name in enumerate(tr.names) if name.startswith(prefix)]
        m[f"{short}.self_s"] = sum(dur[i] - child[i] for i in idx)
        m[f"{short}.calls"] = len(idx)
    for short in COUNTED:
        if have(short):
            m[f"{short}.calls"] = sum(v for k, v in tr.counts.items()
                                      if k.startswith(short + "."))

    simple = {
        "symmgroup.symmetric_group_s": "symmgroup.symmetric_group",
        "weingarten.pair_table_s": "weingarten._pair_class_table",
        "weingarten.weingarten_function_s": "weingarten.weingarten_function",
        "exactalg.solve_exact_s": "exactalg.solve_exact",
        "exactalg.product_is_identity_s": "exactalg.product_is_identity",
        "exactalg.mat_eq_s": "exactalg.mat_eq",
        "localized.subperm_table_s": "localized._subperm_table",
        "localized.to_localized_s": "localized.to_localized",
        "localized.localized_gram_s": "localized.localized_gram",
        "moments.norm_squared_s": "moments.norm_squared",
        "moments.concatenate_s": "moments.concatenate",
        "moments.trace_s": "moments.trace",
        "moments.spectrum_s": "moments.spectrum",
        "moments.hierarchy_scan_s": "moments.hierarchy_scan",
        "moments.frame_potential_mc_s": "moments.frame_potential_mc",
        "twirlsim.evolve_s": "twirlsim.evolve",
        "twirlsim.noise_step_s": "twirlsim.apply_1q_channel",
    }
    for metric, fname in simple.items():
        if have(fname):
            m[metric] = total(fname)
    if have("weingarten.weingarten_function"):
        m["weingarten.weingarten_function_calls"] = calls("weingarten.weingarten_function")
        hits, misses = tr.caches["weingarten.weingarten_function"].cache_info()[:2]
        m["weingarten.weingarten_function_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    if have("localized.phi_matrix"):
        m["localized.phi_matrix_calls"] = calls("localized.phi_matrix")
    if have("moments.hierarchy_scan"):
        m["moments.scan_points_per_s"] = rate("moments.hierarchy_scan")
    if have("moments.frame_potential_mc"):
        m["moments.samples_per_s"] = rate("moments.frame_potential_mc")
    if have(*SAMPLERS):
        idx = outermost(SAMPLERS)
        m["moments.sampler_s"] = sum(dur[i] for i in idx)
        m["moments.sampler_calls"] = len(idx)
        per_call("moments.sampler", idx)
    if have(*GATE_TWIRL):
        idx = outermost(GATE_TWIRL)
        m["twirlsim.gate_twirl_s"] = sum(dur[i] for i in idx)
        per_call("twirlsim.gate_twirl", idx)
    if have(*NOISE_STEP):
        idx = by_name.get(NOISE_STEP[0], [])
        m["twirlsim.noise_calls"] = len(idx)
        per_call("twirlsim.noise_step", idx)
    if have("twirlsim.evolve"):
        m["twirlsim.gate_steps_per_s"] = rate("twirlsim.evolve")
    if have(*GATE_TWIRL, *NOISE_STEP):
        m["twirlsim.state_bytes"] = max(
            (tr.observed[i] for f in GATE_TWIRL + NOISE_STEP for i in by_name.get(f, ())),
            default=0)
    if have("cli.main"):
        main_idx = by_name.get("cli.main", [])
        m["cli.self_s"] = sum(dur[i] - child[i] for i in main_idx)
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = sum(dur[i] for i in main_idx if tr.observed.get(i) == cmd)

    covered = 0.0
    for first, stop, _ in unit_windows:
        covered += sum(dur[i] for i in range(first, stop) if tr.parent[i] < 0)
    unit_total = sum(secs for _, _, secs in unit_windows)
    m["trace.coverage"] = covered / unit_total if unit_total > 0 else 0.0
    m["trace.spans"] = n
    m["trace.units"] = len(unit_windows)
    return m, notes
