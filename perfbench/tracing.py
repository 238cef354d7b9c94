"""Spans around the calls into each `bitspectral` module, and the per-layer metrics.

`Tracer.install` replaces each traced function at the module attribute
through which its caller reaches it (harness reaches `generate_dataset` as
`bitspectral.harness.generate_dataset`, `fantope_admm` reaches
`fantope_project` as `bitspectral.sparse.fantope_project`) and puts the
originals back on exit.  A span is a list [name, parent, trial, start, end,
count]: two clock reads and one append per call, plus a count read off the
result for the iterative stages.  Spans stay in memory until `write`.
"""

import contextlib
import importlib
import math
import statistics
from time import perf_counter


# Counts read off a result: (work done, whether the stage stopped on its cap).
# power_method, fantope_admm and truncated_power_method report converged=False
# only when their iteration cap ends the loop.
def _iterations(report):
    return report.iterations, not report.converged


def _dataset_rows(dataset):
    return dataset.labels.shape[0], False


# (module, attribute, span name, count function or None)
TARGETS = (
    ("bitspectral.harness", "lowdim_trial", "harness.trial", None),
    ("bitspectral.harness", "sparse_trial", "harness.trial", None),
    ("bitspectral.harness", "derive_rng", "rng.derive", None),
    ("bitspectral.harness", "generate_dataset", "synth.generate", _dataset_rows),
    ("bitspectral.harness", "moments", "links.moments", None),
    ("bitspectral.harness", "second_moment", "estimator.moment", None),
    ("bitspectral.harness", "second_moment_sum", "estimator.moment", None),
    ("bitspectral.sparse", "second_moment", "estimator.moment", None),
    ("bitspectral.sparse", "second_moment_sum", "estimator.moment", None),
    ("bitspectral.harness", "power_method", "spectral.power", _iterations),
    ("bitspectral.harness", "top_two_eigs", "spectral.eigs", None),
    ("bitspectral.sparse", "top_two_eigs", "spectral.eigs", None),
    ("bitspectral.sparse", "fantope_admm", "sparse.admm", _iterations),
    ("bitspectral.sparse", "fantope_project", "sparse.project", None),
    ("bitspectral.sparse", "truncated_power_method", "sparse.tpm", _iterations),
)

START, END, COUNT = 3, 4, 5  # span fields written after the call


class Tracer:
    def __init__(self):
        self.spans = []
        self.current = -1  # index of the open span, -1 outside any
        self.trial = -1  # id shared by the spans of one trial
        self.trials = 0

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run fn inside a span called `name`."""
        spans = self.spans
        parent = self.current
        if name == "harness.trial":
            self.trial = self.trials
            self.trials += 1
        span = [name, parent, self.trial, 0.0, 0.0, None]
        self.current = len(spans)
        spans.append(span)
        span[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self.current = parent
        if count is not None:
            span[COUNT] = count(out)
        return out

    def _wrap(self, name, fn, count):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, count=count, **kwargs)

        return traced

    @contextlib.contextmanager
    def install(self):
        """Trace every function in TARGETS until the block exits."""
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as CSV, one per line, indexed in call order."""
        with open(path, "w", newline="") as fh:
            fh.write("index,name,parent,trial,start_s,end_s,count\n")
            for i, (name, parent, trial, start, end, count) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{trial},{start!r},{end!r},"
                         f"{'' if count is None else count[0]}\n")

    def layer_metrics(self) -> dict:
        """Per-layer totals over the run, as {metric: (value, unit)}."""
        total, calls, child = {}, {}, [0.0] * len(self.spans)
        iters, caps = {}, {}
        for name, parent, _, start, end, count in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += dur
            if count is not None:
                iters[name] = iters.get(name, 0) + count[0]
                caps[name] = caps.get(name, 0) + count[1]

        def self_time(name):
            return sum(end - start - child[i] for i, (n, _, _, start, end, _) in
                       enumerate(self.spans) if n == name)

        trial_s = sorted(end - start for n, _, _, start, end, _ in self.spans
                         if n == "harness.trial")
        project_calls = calls.get("sparse.project", 0)
        return {
            "harness.trial_p50_s": (statistics.median(trial_s) if trial_s else 0.0, "s"),
            "harness.trial_p90_s": (nearest_rank(trial_s, 0.9), "s"),
            "harness.self_s": (self_time("harness.trial"), "s"),
            "rng.derive_s": (total.get("rng.derive", 0.0), "s"),
            "synth.generate_s": (total.get("synth.generate", 0.0), "s"),
            "synth.rows": (iters.get("synth.generate", 0), "count"),
            "links.moments_s": (total.get("links.moments", 0.0), "s"),
            "links.moments_calls": (calls.get("links.moments", 0), "count"),
            "estimator.moment_s": (total.get("estimator.moment", 0.0), "s"),
            "spectral.power_s": (total.get("spectral.power", 0.0), "s"),
            "spectral.power_iters": (iters.get("spectral.power", 0), "count"),
            "spectral.power_cap_hits": (caps.get("spectral.power", 0), "count"),
            "spectral.eigs_s": (total.get("spectral.eigs", 0.0), "s"),
            "sparse.admm_s": (total.get("sparse.admm", 0.0), "s"),
            "sparse.admm_iters": (iters.get("sparse.admm", 0), "count"),
            "sparse.admm_cap_hits": (caps.get("sparse.admm", 0), "count"),
            "sparse.project_s": (total.get("sparse.project", 0.0), "s"),
            "sparse.project_calls": (project_calls, "count"),
            "sparse.project_ms": (1e3 * total.get("sparse.project", 0.0) / project_calls
                                  if project_calls else 0.0, "ms"),
            "sparse.tpm_s": (total.get("sparse.tpm", 0.0), "s"),
            "sparse.tpm_iters": (iters.get("sparse.tpm", 0), "count"),
            "cli.self_s": (self_time("cli.main"), "s"),
        }


def nearest_rank(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
