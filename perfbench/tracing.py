"""Per-layer tracing by wrapping enmeas' module attributes at run time.

Spans are recorded around the calls into each layer's public functions:
name, start, end and the enclosing span. Counts are taken at the same
boundaries. Everything is kept in memory and summarised when the run
ends; a layer's self time is its span minus the spans directly inside it.
Wrapping costs time on every call, so end-to-end figures come only from
untraced runs.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy

from enmeas import bessel, charact, distances, sdp, tau

# per-layer metric name -> unit; the order is the order of the report
METRICS = {
    "sdp.solves": "count",
    "sdp.constraints": "count",
    "sdp.blocks": "count",
    "sdp.solve_ms": "ms",
    "sdp.iterations": "count",
    "sdp.ms_per_iteration": "ms",
    "sdp.nonoptimal_solves": "count",
    "sdp.compiles": "count",
    "sdp.compile_ms": "ms",
    "sdp.eigh_calls": "count",
    "sdp.trace_calls": "count",
    "charact.calls": "count",
    "charact.self_ms": "ms",
    "distances.quantum_ms": "ms",
    "distances.classical_ms": "ms",
    "bessel.phi_calls": "count",
    "bessel.phi_ms": "ms",
    "bessel.power_state_ms": "ms",
    "bessel.jv_evals": "count",
    "tau.of_state_ms": "ms",
    "tau.coherent_ms": "ms",
}


class Tracer:
    """Wraps module attributes with span recorders and call counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple] = []
        self.origin = time.perf_counter()

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def span(self, owner, attr, name, before=None, after=None) -> None:
        """Record a span around every call of owner.attr."""
        fn = getattr(owner, attr)
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            is_open[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                is_open[name] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr, counter, inside=None) -> None:
        """Count calls of owner.attr, only within a span named ``inside``."""
        fn = getattr(owner, attr)
        counts, is_open = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or is_open[inside]:
                counts[counter] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def layers(self) -> dict:
        """Calls, total and self milliseconds for every span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * (end - start - inner)
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start_ms": 1e3 * (s - self.origin),
                 "end_ms": 1e3 * (e - self.origin), "parent": p}
                for n, s, e, p in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of sdp, charact, distances, bessel and tau."""
    counts = tracer.counts

    def program_size(problem, *args, **kwargs):
        counts["sdp.constraints"] += len(problem.equalities) + len(problem.inequalities)
        counts["sdp.blocks"] += len(problem.block_dims)

    def solve_outcome(sol):
        counts["sdp.iterations"] += sol.iterations
        if sol.status not in ("optimal", "feasible"):
            counts["sdp.nonoptimal_solves"] += 1

    tracer.span(sdp, "solve", "sdp.solve", before=program_size, after=solve_outcome)
    tracer.span(sdp.BlockSdp, "compile", "sdp.compile")
    tracer.span(charact, "membership_finite", "charact.membership_finite")
    tracer.span(distances, "classical_distance", "distances.classical_distance")
    tracer.span(distances, "quantum_distance", "distances.quantum_distance")
    tracer.span(bessel, "phi", "bessel.phi")
    tracer.span(bessel, "power_state", "bessel.power_state")
    tracer.span(tau, "tau_of_state", "tau.tau_of_state")
    tracer.span(tau, "tau_coherent", "tau.tau_coherent")
    tracer.count(bessel, "jv", "bessel.jv_evals")
    tracer.count(numpy.linalg, "eigh", "sdp.eigh_calls", inside="sdp.solve")
    tracer.count(numpy.linalg, "eigvalsh", "sdp.eigh_calls", inside="sdp.solve")
    tracer.count(numpy, "trace", "sdp.trace_calls", inside="sdp.solve")


def per_layer(tracer: Tracer, passes: int) -> dict:
    """The per-layer metrics of METRICS, per pass."""
    lay = tracer.layers()

    def total(name, key="total_ms"):
        return lay.get(name, {}).get(key, 0)

    raw = {
        "sdp.solves": total("sdp.solve", "calls"),
        "sdp.constraints": tracer.counts["sdp.constraints"],
        "sdp.blocks": tracer.counts["sdp.blocks"],
        "sdp.solve_ms": total("sdp.solve"),
        "sdp.iterations": tracer.counts["sdp.iterations"],
        "sdp.nonoptimal_solves": tracer.counts["sdp.nonoptimal_solves"],
        "sdp.compiles": total("sdp.compile", "calls"),
        "sdp.compile_ms": total("sdp.compile"),
        "sdp.eigh_calls": tracer.counts["sdp.eigh_calls"],
        "sdp.trace_calls": tracer.counts["sdp.trace_calls"],
        "charact.calls": total("charact.membership_finite", "calls"),
        "charact.self_ms": total("charact.membership_finite", "self_ms"),
        "distances.quantum_ms": total("distances.quantum_distance"),
        "distances.classical_ms": total("distances.classical_distance"),
        "bessel.phi_calls": total("bessel.phi", "calls"),
        "bessel.phi_ms": total("bessel.phi"),
        "bessel.power_state_ms": total("bessel.power_state"),
        "bessel.jv_evals": tracer.counts["bessel.jv_evals"],
        "tau.of_state_ms": total("tau.tau_of_state"),
        "tau.coherent_ms": total("tau.tau_coherent"),
    }
    out = {}
    for name, value in raw.items():
        # passes repeat the same operations, so counts divide exactly
        if METRICS[name] == "count" and value % passes == 0:
            out[name] = value // passes
        else:
            out[name] = value / passes
    iters = raw["sdp.iterations"]
    out["sdp.ms_per_iteration"] = raw["sdp.solve_ms"] / iters if iters else 0.0
    return {name: out[name] for name in METRICS}
