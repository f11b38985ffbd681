"""In-memory span tracer that wraps functions from outside the program.

A span holds a name, a start, an end and the index of its parent span. The
tracer installs wrappers at the attributes through which callers look the
traced functions up (a module global, a module attribute or a class
attribute), keeps every span in memory until the round ends, and puts the
original attributes back when the ``installed`` block exits.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), None, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self, points):
        """Wrap each (owner, attribute, span name) of `points` for the
        duration of the block. Class-level classmethods and staticmethods are
        rewrapped as such."""
        saved = []
        try:
            for owner, attr, name in points:
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self):
        """{span name: (summed self time, call count)}. A span's self time is
        its duration minus the durations of its direct children; children of
        one span run inside it and one after another, so they never overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: [0.0, 0])
        for s, c in zip(self.spans, child):
            out[s.name][0] += (s.end - s.start) - c
            out[s.name][1] += 1
        return {k: tuple(v) for k, v in out.items()}


def span_cost(calls=20_000):
    """Seconds one traced call adds over a plain call: the best of three
    timings of a wrapped no-op against the same no-op unwrapped."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop")

    def best(fn):
        times = []
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - t0)
        return min(times)

    return max(best(traced) - best(noop), 0.0) / calls


def wrap_points():
    """Where each layer of noise_id is entered, as (owner, attribute, span
    name). A function imported by name into another module is wrapped in the
    importing module too, since that is where its caller finds it."""
    from noise_id import _kernels, cli, consensus, datasets, features
    from noise_id import identifiability, matrices, noisegen

    points = [
        (cli, "main", "cli"),
        (datasets.NoisyDataset, "to_csv", "datasets.to_csv"),
        (datasets.NoisyDataset, "from_csv", "datasets.from_csv"),
        (noisegen, "sample_iid_noisy", "noisegen.sample"),
        (noisegen, "instance_noise", "noisegen.sample"),
        (features, "sample_with_features", "features.sample"),
        (consensus, "empirical_joint", "consensus.empirical_joint"),
        (consensus, "estimate", "consensus.estimate"),
        (features, "empirical_three_view", "features.empirical_three_view"),
        (_kernels, "fit_symmetric", "kernels.fit_symmetric"),
        (_kernels, "fit_general", "kernels.fit_general"),
        (_kernels, "refine_boundary", "kernels.refine_boundary"),
        (consensus, "align_permutation", "matrices.align"),
        (consensus, "max_trace_permutation", "matrices.align"),
        (features, "max_trace_permutation", "matrices.align"),
        (identifiability, "kruskal_rank", "matrices.kruskal_rank"),
        (matrices, "kruskal_rank", "matrices.kruskal_rank"),
    ]
    for fn in (
        "check_instance_three_labels",
        "check_kruskal_sum",
        "check_group_features",
        "check_unknown_groups",
        "check_generic",
    ):
        points.append((identifiability, fn, "identifiability.check"))
    return points
