"""In-memory span tracing of cmtforest's public functions.

A traced function is rebound in every loaded ``cmtforest`` module namespace
that holds it, so calls between modules (``points.level_csv`` calling
``forest.height``) become nested spans. Each span records its name, start,
end, parent span and the id of the benchmark operation that caused it. Spans
stay in memory until the run ends; self time is a span's duration minus the
durations of its direct children.

Tracing assumes one thread: the CLI is driven with ``--threads 1``.
"""

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# Span name -> (module, attribute path). A dotted attribute is a method.
TRACED = {
    "cli.main": ("cmtforest.cli", "main"),
    "lattice.sample_lattice_cmt": ("cmtforest.lattice", "sample_lattice_cmt"),
    "forest.build_forest": ("cmtforest.forest", "build_forest"),
    "forest.components": ("cmtforest.forest", "components"),
    "forest.reverse_jump": ("cmtforest.forest", "reverse_jump"),
    "forest.height": ("cmtforest.forest", "height"),
    "points.sample_poisson": ("cmtforest.points", "sample_poisson"),
    "points.strip_point_map": ("cmtforest.points", "strip_point_map"),
    "points.discrete_strip": ("cmtforest.points", "discrete_strip"),
    "points.level_csv": ("cmtforest.points", "level_csv"),
    "analysis.component_statistic_survey": ("cmtforest.analysis", "component_statistic_survey"),
    "analysis.in_degree_profile": ("cmtforest.analysis", "in_degree_profile"),
    "analysis.nested_level_average": ("cmtforest.analysis", "nested_level_average"),
    "analysis.LatticeChainModel.run": ("cmtforest.analysis", "LatticeChainModel.run"),
    "analysis.green_table": ("cmtforest.analysis", "green_table"),
    "analysis.count_components_probe": ("cmtforest.analysis", "count_components_probe"),
    "analysis.connectivity_decay_probe": ("cmtforest.analysis", "connectivity_decay_probe"),
    "analysis.one_endedness_probe": ("cmtforest.analysis", "one_endedness_probe"),
    "analysis.probe_csv": ("cmtforest.analysis", "probe_csv"),
    "analysis.probe_json": ("cmtforest.analysis", "probe_json"),
    "chains.tv_profile": ("cmtforest.chains", "tv_profile"),
    "chains.meet_and_stick_coupling": ("cmtforest.chains", "meet_and_stick_coupling"),
    "chains.shift_coupling": ("cmtforest.chains", "shift_coupling"),
    "wusf.wilson_ust": ("cmtforest.wusf", "wilson_ust"),
    "wusf.conditional_wilson": ("cmtforest.wusf", "conditional_wilson"),
    "wusf.lerw": ("cmtforest.wusf", "lerw"),
    "seeds.rng_for": ("cmtforest.seeds", "rng_for"),
    "seeds.derive_seed": ("cmtforest.seeds", "derive_seed"),
}

# Spans whose return values are kept, to read window and cloud counters.
KEEP_RESULTS = ("forest.build_forest", "points.sample_poisson")

NAME, START, END, PARENT, OP = range(5)

# The least share of an operation's time its root spans must cover. A step
# spends little time outside traced calls: the root spans covered at least
# 0.95 of every step at the tiny size on a 2-vCPU Xeon VM.
MIN_COVER = 0.8


class Tracer:
    """Collects spans; ``op`` names the benchmark operation now running."""

    def __init__(self):
        self.spans = []
        self.results = {name: [] for name in KEEP_RESULTS}
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        kept = self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(out)
            return out

        return traced

    def self_times(self):
        """Per-span self time, in span order."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def problems(self, step_seconds):
        """Spans that cannot be right, given {op: its measured seconds}: a
        span that ends before it starts, a span not inside its parent or of
        another op, or an op whose root spans do not cover between
        MIN_COVER and all of its time (a lost or misplaced span)."""
        problems = []
        covered = dict.fromkeys(step_seconds, 0.0)
        for i, s in enumerate(self.spans):
            if s[END] < s[START]:
                problems.append(f"span {i} ({s[NAME]}) ends before it starts")
            if s[PARENT] < 0:
                if s[OP] not in covered:
                    problems.append(f"span {i} ({s[NAME]}) belongs to no operation")
                else:
                    covered[s[OP]] += s[END] - s[START]
                continue
            up = self.spans[s[PARENT]]
            if not (s[PARENT] < i and up[START] <= s[START] and s[END] <= up[END]
                    and up[OP] == s[OP]):
                problems.append(f"span {i} ({s[NAME]}) is not inside its parent {s[PARENT]}")
        for op, seconds in step_seconds.items():
            if not MIN_COVER * seconds <= covered[op] <= seconds:
                problems.append(f"root spans of {op} cover {covered[op]} s of its {seconds} s")
        return problems

    def summary(self):
        """{span name: (calls, total self time)}."""
        out = {name: [0, 0.0] for name in TRACED}
        for s, own in zip(self.spans, self.self_times()):
            entry = out[s[NAME]]
            entry[0] += 1
            entry[1] += own
        return {name: tuple(v) for name, v in out.items()}


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(tracer):
    """Rebind every function in TRACED to a span-recording wrapper, in
    every cmtforest module that refers to it, and restore them on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cmtforest" or n.startswith("cmtforest."))]
    undo = []
    try:
        for name, (module_name, path) in TRACED.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            holders = [(owner, attr)] if owner not in modules else []
            for mod in modules:
                holders.extend((mod, k) for k, v in vars(mod).items() if v is original)
            for holder, key in holders:
                setattr(holder, key, wrapper)
                undo.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
