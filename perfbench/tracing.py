"""Span recorder that wraps csrank's layer functions at every binding site.

A function imported with ``from .hankel import hankel_matrix`` is bound
again in the importing module, so wrapping only ``csrank.hankel`` would miss
the calls made from ``csrank.certify``.  ``instrument`` replaces the object
under every name that holds it in any loaded ``csrank.*`` module and restores
the originals on exit.  Classes are traced through their ``__init__``.

Spans (name, start, end, parent, job id) are kept in flat arrays in memory
and written once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer -> public functions (and one class) whose calls become spans.
LAYERS = {
    "cli": ["main"],
    "fock": ["state_from_descriptor", "coherent_amplitudes", "superposition_to_fock"],
    "hankel": ["hankel_matrix", "plain_bound", "rescaled_bound", "optimized_bound"],
    "certify": ["certify_rank", "recurrence_order"],
    "decomp": [
        "fit_superposition",
        "best_single_coherent",
        "circle_decomposition_report",
        "delta_cat_product",
        "minimize",
    ],
    "multimode": ["multimode_lower_bound", "evolve_fock_state", "MultimodeSuperposition"],
    "permanent": [
        "verify_permanent_bound",
        "permanent_glynn",
        "permanent_ryser",
        "permanent_naive",
        "haar_unitary",
        "evaluate_formula",
    ],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self._name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.jobs = array("i")
        self.job_id = -1
        self.counters = Counter()
        # per span name id: calls, inclusive time, self time, open spans
        self.calls = [0] * len(SPAN_NAMES)
        self.busy = [0.0] * len(SPAN_NAMES)
        self.self_time = [0.0] * len(SPAN_NAMES)
        self._open = [0] * len(SPAN_NAMES)
        self._stack = []  # [span index, time covered by child spans]

    def inside(self, name: str) -> bool:
        """True while a span of ``name`` is open."""
        return self._open[self._name_id[name]] > 0

    def stats(self, name: str) -> tuple:
        i = self._name_id[name]
        return self.calls[i], self.busy[i], self.self_time[i]

    def wrap(self, name: str, fn, hook=None):
        i = self._name_id[name]
        stack, open_, calls, busy, self_time = (
            self._stack, self._open, self.calls, self.busy, self.self_time)
        name_ids, starts, ends, parents, jobs = (
            self.name_ids, self.starts, self.ends, self.parents, self.jobs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(name_ids), 0.0]
            name_ids.append(i)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(frame)
            open_[i] += 1
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[frame[0]] = end
                stack.pop()
                open_[i] -= 1
                dur = end - start
                calls[i] += 1
                busy[i] += dur
                self_time[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            job=np.frombuffer(self.jobs, dtype=np.int32),
        )


def _count_search_build(tracer, args, result):
    if tracer.inside("hankel.optimized_bound"):
        tracer.counters["search_builds"] += 1


def _count_certify_search(tracer, args, result):
    if tracer.inside("certify.certify_rank"):
        tracer.counters["certify_searches"] += 1


def _count_fit_minimize(tracer, args, result):
    if tracer.inside("decomp.fit_superposition"):
        tracer.counters["fit_minimize"] += 1
        tracer.counters["nfev"] += int(result.nfev)
        tracer.counters["nit"] += int(result.nit)
        tracer.counters["converged"] += int(bool(result.success))


def _count_glynn_ops(tracer, args, result):
    n = np.shape(args[0])[0]
    if n:
        tracer.counters["glynn_ops"] += n * 2 ** (n - 1)


def _count_trials(tracer, args, result):
    tracer.counters["trials"] += len(result.trials)


HOOKS = {
    "hankel.hankel_matrix": _count_search_build,
    "hankel.optimized_bound": _count_certify_search,
    "decomp.minimize": _count_fit_minimize,
    "permanent.permanent_glynn": _count_glynn_ops,
    "permanent.verify_permanent_bound": _count_trials,
}


@contextmanager
def instrument(tracer: Tracer):
    """Trace every LAYERS entry at all of its bindings inside csrank.*."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "csrank" or name.startswith("csrank."))
    ]
    targets = []  # (span name, original, [(owner, attribute), ...])
    for layer, fns in LAYERS.items():
        home = sys.modules[f"csrank.{layer}"]
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            original = getattr(home, fn_name)
            if isinstance(original, type):
                targets.append((name, original.__init__, [(original, "__init__")]))
                continue
            sites = [
                (module, attr)
                for module in modules
                for attr, value in vars(module).items()
                if value is original
            ]
            targets.append((name, original, sites))
    try:
        for name, original, sites in targets:
            wrapper = tracer.wrap(name, original, HOOKS.get(name))
            for owner, attr in sites:
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for _, original, sites in targets:
            for owner, attr in sites:
                setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for every span plus the derived layer ratios."""
    out = {}
    for name in SPAN_NAMES:
        calls, busy, self_time = tracer.stats(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (self_time, "s")
    c = tracer.counters
    out["hankel.builds_per_search"] = (
        _ratio(c["search_builds"], tracer.stats("hankel.optimized_bound")[0]), "builds/search")
    out["certify.searches_per_certificate"] = (
        _ratio(c["certify_searches"], tracer.stats("certify.certify_rank")[0]), "searches/cert")
    out["decomp.nfev"] = (c["nfev"], "count")
    out["decomp.nit"] = (c["nit"], "count")
    out["decomp.converged_ratio"] = (_ratio(c["converged"], c["fit_minimize"]), "ratio")
    out["decomp.eval_us"] = (
        1e6 * _ratio(tracer.stats("decomp.fit_superposition")[1], c["nfev"]), "us")
    out["permanent.glynn_ops"] = (c["glynn_ops"], "ops")
    out["permanent.glynn_ops_per_s"] = (
        _ratio(c["glynn_ops"], tracer.stats("permanent.permanent_glynn")[1]), "ops/s")
    out["permanent.trials"] = (c["trials"], "count")
    out["trace.spans"] = (len(tracer.starts), "count")
    return out


def self_shares(tracer: Tracer, kinds, latencies) -> dict:
    """kind -> {layer: self time of the layer's spans / job time of the kind}.

    ``kinds[j]`` and ``latencies[j]`` belong to job id j; "all" covers every
    job.  Whatever no span covers (the client, unwrapped helpers) is left out,
    so a kind's shares sum to at most 1.
    """
    name = np.frombuffer(tracer.name_ids, dtype=np.int32)
    starts = np.frombuffer(tracer.starts, dtype=np.float64)
    dur = np.frombuffer(tracer.ends, dtype=np.float64) - starts
    parent = np.frombuffer(tracer.parents, dtype=np.int32)
    job = np.frombuffer(tracer.jobs, dtype=np.int32)
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    layer_of = [span.split(".")[0] for span in SPAN_NAMES]
    busy, totals = {}, {}
    for kind, dt in zip(kinds, latencies):
        for key in (kind, "all"):
            totals[key] = totals.get(key, 0.0) + dt
    for i, t, j in zip(name.tolist(), self_time.tolist(), job.tolist()):
        for key in (kinds[j], "all"):
            layers = busy.setdefault(key, {})
            layers[layer_of[i]] = layers.get(layer_of[i], 0.0) + t
    return {
        key: {layer: round(t / totals[key], 4) for layer, t in sorted(layers.items())}
        for key, layers in sorted(busy.items())
    }
