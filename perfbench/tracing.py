"""Spans around the public functions of each edgeclust layer.

The wrappers are installed from the benchmark's own files, at the name each
caller looks up: `pipeline` imports its stage functions by name, `corrclust`
calls `linprog` through its module global, and the densities are methods.
Spans (name, start, end, parent, attributes) are kept in memory and written
out by the caller when the run ends. Nothing is installed while the untraced
instances run, so those execute the unmodified program.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

from edgeclust import analysis, corrclust, densities, density, pipeline

_TIGHT_SLACK = 1e-7


def _kernel_evals(args, kwargs, result):
    model, x = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    queries = 1 if x.ndim == 1 else x.shape[0]
    return {"kernel_evals": int(queries) * int(model.m)}


def _highs_stats(args, kwargs, result):
    a_ub = kwargs.get("A_ub")
    rows = 0 if a_ub is None else int(a_ub.shape[0])
    slack = getattr(result, "slack", None)
    tight = 0 if rows == 0 or slack is None else int(np.sum(np.asarray(slack) <= _TIGHT_SLACK))
    return {"rows": rows, "nit": int(getattr(result, "nit", 0) or 0), "tight": tight}


def _targets():
    """(owner, attribute, span name, attribute probe) for every wrapped call
    site. A later refactor that removes a name simply leaves its layer empty,
    which the self-test reports."""
    out = [
        (pipeline, "gen_synthetic", "datagen.gen_synthetic", None),
        (pipeline, "gen_edge_level", "datagen.gen_edge_level", None),
        (pipeline, "sample_labeled_pairs", "edge_features.sample_labeled_pairs", None),
        (pipeline, "build_edge_features", "edge_features.build_edge_features", None),
        (pipeline, "kde_fit", "density.kde_fit", None),
        (pipeline, "build_signed_graph", "density.build_signed_graph", None),
        (pipeline, "log_likelihood", "analysis.log_likelihood", None),
        (density.DensityModel, "logpdf_many", "density.logpdf_many", _kernel_evals),
        (corrclust, "solve", "corrclust.solve", None),
        (corrclust, "lp_relax", "corrclust.lp_relax", None),
        (corrclust, "round_regions", "corrclust.round_regions", None),
        (corrclust, "kwik_cluster", "corrclust.kwik_cluster", None),
        (corrclust, "linprog", "corrclust.highs", _highs_stats),
        (analysis, "expected_dis", "analysis.expected_dis", None),
    ]
    for cls in (densities.GaussianDensity, densities.UniformBoxDensity,
                densities.MixtureDensity):
        out.append((cls, "sample", "densities.sample", None))
        out.append((cls, "logpdf_many", "densities.logpdf_many", None))
    return [t for t in out if hasattr(t[0], t[1])]


class Tracer:
    """In-memory span recorder. Each span is a dict with id, name, start,
    end, parent (id or None) and optional attributes. One thread only: the
    benchmark caps EDGECLUST_THREADS at 1, so expected_dis runs inline."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, probe=None, **kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if probe is not None:
            span["attrs"] = probe(args, kwargs, result)
        return result

    def root(self, name, fn, *args):
        """Run fn under a new top-level span; returns (result, span id)."""
        root_id = len(self.spans)
        return self.call(name, fn, *args), root_id

    def wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, probe=probe, **kwargs)
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals on
    exit."""
    saved = []
    try:
        for owner, attr, name, probe in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, probe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _children(spans):
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s["id"])
    return children


def _subtree(spans, children, root_id):
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.append(spans[sid])
        todo.extend(children[sid])
    return out


def _outermost(spans_by_id, span):
    """True when no ancestor of the span has the same name (a mixture's
    component calls are counted inside the mixture's span)."""
    pid = span["parent"]
    while pid is not None:
        parent = spans_by_id[pid]
        if parent["name"] == span["name"]:
            return False
        pid = parent["parent"]
    return True


def root_metrics(spans, root_id, children=None):
    """Per-layer numbers for the spans under one root span: busy seconds and
    calls per layer, lp_relax self time, HiGHS counts and KDE kernel work."""
    if children is None:
        children = _children(spans)
    sub = _subtree(spans, children, root_id)
    out = defaultdict(float)
    for s in sub:
        if s["id"] == root_id or not _outermost(spans, s):
            continue
        dur = s["end"] - s["start"]
        out[f"{s['name']}.s"] += dur
        out[f"{s['name']}.calls"] += 1
        attrs = s.get("attrs") or {}
        if s["name"] == "density.logpdf_many":
            out["density.kernel_evals"] += attrs.get("kernel_evals", 0)
        if s["name"] == "corrclust.highs":
            out["corrclust.highs.rounds"] += 1
            out["corrclust.highs.rows_solved"] += attrs.get("rows", 0)
            out["corrclust.highs.iterations"] += attrs.get("nit", 0)
        if s["name"] == "corrclust.lp_relax":
            kids = sorted((spans[c] for c in children[s["id"]]), key=lambda k: k["start"])
            out["corrclust.lp_relax.self_s"] += dur - sum(k["end"] - k["start"] for k in kids)
            rounds = [k for k in kids if k["name"] == "corrclust.highs"]
            if rounds:
                last = rounds[-1].get("attrs") or {}
                out["corrclust.highs.rows_final"] += last.get("rows", 0)
                out["corrclust.rows_tight"] += last.get("tight", 0)
    return dict(out)
