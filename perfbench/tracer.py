"""In-memory span tracer that wraps subtlesw's public callables from outside.

A span is recorded around each call into a layer: its name, start, end, the
span that was open when it began (its parent), and a small per-call payload
(kernel steps, theta term counts, the row index).  Nothing is written while
the run goes on; ``summarize`` and ``layer_metrics`` turn the spans into
per-layer figures at the end.

Callers inside subtlesw bind many of these functions with ``from ... import``,
so a function is wrapped under every name that refers to it: each loaded
``subtlesw`` module and the classes listed in ``install``.  The kernel is
wrapped on the module that ``backend.active()`` returns, because the Groebner
layer looks ``normal_form_terms`` up there on every call.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, payload]
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, payload=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if payload is not None:
                span[4] = payload(args, result)
            return result

        return traced


def _rebind(namespaces, original, wrapper):
    """Point every binding of ``original`` in ``namespaces`` at ``wrapper``."""
    hits = 0
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapper)
                hits += 1
    if not hits:
        raise LookupError(f"no binding of {original!r} to wrap")


def _kernel_payload(args, result):
    nf, steps = result
    return (len(args[0]), steps, nf is not None and not nf)


def install(tracer):
    """Wrap the layer entry points of an imported subtlesw; return the tracer."""
    from subtlesw import backend, cli, formsf2, grobner, poly, spaces, steenrod

    modules = [m for k, m in sys.modules.items() if k == "subtlesw" or k.startswith("subtlesw.")]
    targets = [
        (modules, steenrod.theta, "steenrod.theta", lambda a, r: len(r.terms)),
        ([poly.Poly], poly.Poly.__add__, "poly.add", None),
        ([poly.Poly], poly.Poly.__mul__, "poly.mul", None),
        (modules, grobner.groebner_basis, "grobner.basis", None),
        ([grobner.RegularSequenceChecker], grobner.RegularSequenceChecker.append, "grobner.append", None),
        (modules, grobner.normal_form, "grobner.nf", None),
        (modules, grobner.ideal_member, "grobner.member", None),
        ([backend.active()], backend.active().normal_form_terms, "kernel", _kernel_payload),
        (modules, grobner.hilbert_series, "hilbert.series", None),
        (modules, grobner.krull_dimension, "hilbert.krull", None),
        (modules, formsf2.h_of, "formsf2.h_of", None),
        (modules, formsf2.quillen_form, "formsf2.quillen_form", None),
        (modules, formsf2.right_radical, "formsf2.right_radical", None),
        (modules, spaces.k_row, "spaces.k_row", lambda a, r: a[0]),
        (modules, cli.main, "cli.main", None),
    ]
    for namespaces, original, name, payload in targets:
        _rebind(namespaces, original, tracer.wrap(original, name, payload))
    return tracer


def summarize(spans):
    """Per span name: calls, self seconds, and the inclusive seconds and
    (payload, seconds) pairs of its layer-outermost calls.

    The layer is the part of the name before the first dot.  A call made
    while another span of the same layer is open (theta recursing into
    theta, ``ideal_member`` calling ``normal_form``) adds to ``calls`` and
    ``self`` only, so no layer's time is counted twice.  ``self`` is a span's
    duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, payload) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "payloads": []})
        s["calls"] += 1
        s["self"] += (t1 - t0) - child[i]
        layer = name.split(".")[0]
        p = parent
        while p >= 0 and spans[p][0].split(".")[0] != layer:
            p = spans[p][3]
        if p < 0:
            s["incl"] += t1 - t0
            if payload is not None:
                s["payloads"].append((payload, t1 - t0))
    return out


def merge(summaries):
    """Add up summaries of several passes or processes."""
    out = {}
    for summary in summaries:
        for name, v in summary.items():
            m = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "payloads": []})
            for k in ("calls", "incl", "self"):
                m[k] += v[k]
            m["payloads"] += v["payloads"]
    return out


def layer_metrics(summary, run_s):
    """The per-layer metrics of one traced pass whose timed part took run_s."""
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "payloads": []}

    def get(name):
        return summary.get(name, empty)

    def incl(*names):
        return sum(get(n)["incl"] for n in names)

    kernel = get("kernel")
    kernel_calls = [p for p, _ in kernel["payloads"]]
    steps = sum(p[1] for p in kernel_calls)
    rows = get("spaces.k_row")["payloads"]
    return {
        "steenrod.theta_s": incl("steenrod.theta"),
        "steenrod.theta_terms": sum(p for p, _ in get("steenrod.theta")["payloads"]),
        "poly.add_s": incl("poly.add"),
        "poly.add_calls": get("poly.add")["calls"],
        "poly.mul_s": incl("poly.mul"),
        "poly.mul_calls": get("poly.mul")["calls"],
        "grobner.basis_s": incl("grobner.basis"),
        "grobner.driver_self_s": get("grobner.basis")["self"] + get("grobner.append")["self"],
        "grobner.nf_s": incl("grobner.nf"),
        "grobner.append_s": incl("grobner.append"),
        "grobner.append_calls": get("grobner.append")["calls"],
        "grobner.member_s": incl("grobner.member"),
        "kernel.s": kernel["incl"],
        "kernel.calls": kernel["calls"],
        "kernel.steps": steps,
        "kernel.terms_in": sum(p[0] for p in kernel_calls),
        "kernel.zero_ratio": sum(p[2] for p in kernel_calls) / len(kernel_calls) if kernel_calls else 0.0,
        "kernel.steps_per_s": steps / kernel["incl"] if kernel["incl"] else 0.0,
        "hilbert.s": incl("hilbert.series", "hilbert.krull"),
        "formsf2.s": incl("formsf2.h_of", "formsf2.quillen_form", "formsf2.right_radical"),
        "spaces.row_s.n13": sum((dt for n, dt in rows if n == 13), 0.0),
        "spaces.row_s.n2_12": sum((dt for n, dt in rows if 2 <= n <= 12), 0.0),
        "trace.coverage_ratio": sum(s["self"] for s in summary.values()) / run_s,
    }
