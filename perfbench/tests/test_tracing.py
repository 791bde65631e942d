import time
import types

import tracing


def _module():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.01)
    mod.leaf = lambda: 1

    def outer():
        mod.inner()
        mod.leaf()
        return 7

    mod.outer = outer
    return mod


def test_spans_nest_and_self_time_excludes_children():
    mod = _module()
    tr = tracing.Tracer()
    tr.span(mod, "outer", "outer")
    tr.span(mod, "inner", "inner")
    tr.count(mod, "leaf", "leaves", inside="inner")
    tr.count(mod, "inner", "inners", inside="outer")
    assert mod.outer() == 7
    mod.leaf()
    lay = tr.layers()
    assert lay["outer"]["calls"] == lay["inner"]["calls"] == 1
    assert lay["inner"]["total_ms"] >= 10.0
    assert lay["outer"]["self_ms"] < lay["outer"]["total_ms"] - 9.0
    assert tr.counts["inners"] == 1 and tr.counts["leaves"] == 0
    assert [s["parent"] for s in tr.span_records()] == [-1, 0]


def test_restore_puts_the_originals_back():
    mod = _module()
    before = (mod.outer, mod.inner)
    tr = tracing.Tracer()
    tr.span(mod, "outer", "outer")
    tr.count(mod, "inner", "n")
    tr.restore()
    assert (mod.outer, mod.inner) == before


def test_per_layer_reports_every_metric_per_pass():
    tr = tracing.Tracer()
    tr.counts.update({"bessel.jv_evals": 10, "sdp.iterations": 0})
    tr.spans += [["bessel.phi", 0.0, 0.002, -1], ["bessel.phi", 0.002, 0.004, -1]]
    out = tracing.per_layer(tr, 2)
    assert list(out) == list(tracing.METRICS)
    assert out["bessel.jv_evals"] == 5 and isinstance(out["bessel.jv_evals"], int)
    assert out["bessel.phi_calls"] == 1
    assert abs(out["bessel.phi_ms"] - 2.0) < 1e-9
    assert out["sdp.ms_per_iteration"] == 0.0
