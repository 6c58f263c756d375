"""Span recorder that measures the program's modules from outside.

:class:`Tracer` replaces each function named in ``SPANS`` and ``METHODS``
by a wrapper that records one span per call -- name, parent span, start,
end -- and puts the original back on :meth:`Tracer.restore`.  A module
function is replaced in every ``dbnlearn`` module that binds it (for
example ``count_transitions`` in ``scoring``, ``learn`` and
``evaluate``), so calls through any import path are seen.  Spans stay
in memory until :meth:`Tracer.take` hands them over.

A function that no longer exists is reported by :meth:`Tracer.install`
and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# (module, function, span name, optional tally of the result into a counter)
SPANS = (
    ("dbnlearn.simulate", "sample_random_dbn", "simulate.truth", None),
    ("dbnlearn.simulate", "sample_trajectories", "simulate.sample", None),
    ("dbnlearn.core", "is_acyclic", "core.is_acyclic", None),
    ("dbnlearn.scoring", "family_score", "scoring.family_score", None),
    ("dbnlearn.scoring", "count_transitions", "scoring.count_transitions",
     ("scoring.rows_counted", lambda table: table.grand_total)),
    ("dbnlearn.scoring", "bge_family_score", "scoring.bge", None),
    ("dbnlearn.scoring", "fit_linear_gaussian", "scoring.fit_linear_gaussian", None),
    ("dbnlearn.acyclicity", "h_expm", "acyclicity.expm", None),
    ("dbnlearn.acyclicity", "h_expm_grad", "acyclicity.expm", None),
    ("dbnlearn.acyclicity", "threshold_and_repair", "acyclicity.repair", None),
    ("dbnlearn.learn", "exact_search", "learn.exact", None),
    ("dbnlearn.learn", "hill_climb", "learn.hill",
     ("learn.hill.moves", lambda report: report.extras.get("moves", 0))),
    ("dbnlearn.learn", "continuous_oneshot", "learn.dynotears",
     ("learn.dynotears.outer", lambda report: len(report.trace))),
    ("dbnlearn.learn", "bounded_oneshot", "learn.bounded", None),
    ("dbnlearn.evaluate", "holdout_loglik", "evaluate.holdout", None),
    ("dbnlearn.evaluate", "shd", "evaluate.metrics", None),
    ("dbnlearn.evaluate", "auroc", "evaluate.metrics", None),
    # foreign solvers: replaced on their own module only, where learn looks them up
    ("scipy.optimize", "lsq_linear", "learn.bounded.lsq_linear", None),
    ("numpy.linalg", "lstsq", "learn.bounded.lstsq", None),
)

# (module, class, attribute, span name)
METHODS = (
    ("dbnlearn.core", "DbnStructure", "__post_init__", "core.structure"),
    ("dbnlearn.core", "TrajectoryDataset", "parent_columns", "core.parent_columns"),
    ("dbnlearn.scoring", "FamilyScorer", "__call__", "scoring.lookup"),
    ("dbnlearn.evaluate", "EdgeUniverse", "build", "evaluate.metrics"),
    ("dbnlearn.evaluate", "EdgeUniverse", "vector", "evaluate.metrics"),
    ("dbnlearn.evaluate", "EdgeUniverse", "scores", "evaluate.metrics"),
)

# Python-level draws of the trajectory sampler: counted, not timed, as a
# span per value would cost more than the draw it measures
COUNTERS = (("dbnlearn.simulate", "_draw_child", "simulate.draws"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name: str, fn, tally=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace_everywhere(self, module_name: str, attribute: str, make) -> bool:
        home = importlib.import_module(module_name)
        original = getattr(home, attribute, None)
        if original is None:
            return False
        wrapped = make(original)
        owners = [home] if not module_name.startswith("dbnlearn") else [
            m for name, m in sys.modules.items()
            if m is not None and (name == "dbnlearn" or name.startswith("dbnlearn."))]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, wrapped)
        return True

    def install(self) -> list[str]:
        """Wrap every listed function; returns the names that were not found."""
        missing = []
        for module_name, attribute, name, tally in SPANS:
            if not self._replace_everywhere(
                    module_name, attribute, lambda fn, n=name, t=tally: self._span(n, fn, t)):
                missing.append(f"{module_name}.{attribute}")
        for module_name, attribute, name in COUNTERS:
            if not self._replace_everywhere(
                    module_name, attribute, lambda fn, n=name: self._counter(n, fn)):
                missing.append(f"{module_name}.{attribute}")
        for module_name, cls_name, attribute, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__.get(attribute)
            if raw is None:
                missing.append(f"{module_name}.{cls_name}.{attribute}")
                continue
            wrapped = staticmethod(self._span(name, raw.__func__)) \
                if isinstance(raw, staticmethod) else self._span(name, raw)
            self._undo.append((cls, attribute, raw))
            setattr(cls, attribute, wrapped)
        return missing

    def restore(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def take(self) -> tuple[np.ndarray, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans = np.array(self.spans, dtype=float).reshape(-1, 4)
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def span_totals(names: list[str], spans: np.ndarray) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  A span
    directly inside a span of the same name is not added to that name's
    total again.
    """
    name = spans[:, 0].astype(int)
    parent = spans[:, 1].astype(int)
    dur = spans[:, 3] - spans[:, 2]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    outer = np.ones(len(dur), dtype=bool)
    outer[has_parent] = name[parent[has_parent]] != name[has_parent]
    out = {}
    for nid, label in enumerate(names):
        sel = name == nid
        out[label] = {"calls": int(np.count_nonzero(sel)),
                      "s": float(dur[sel & outer].sum()),
                      "self_s": float((dur[sel] - child_time[sel]).sum())}
    return out


def calls_under(names: list[str], spans: np.ndarray, child: str, parent: str) -> int:
    """Spans named ``child`` whose direct parent span is named ``parent``."""
    if child not in names or parent not in names:
        return 0
    name = spans[:, 0].astype(int)
    up = spans[:, 1].astype(int)
    sel = (name == names.index(child)) & (up >= 0)
    return int(np.count_nonzero(name[up[sel]] == names.index(parent)))
