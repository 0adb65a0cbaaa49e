"""Span tracing of the program's layers, from outside the program.

`Tracer.install` wraps every public function of the nine layer modules and
rebinds the wrapper under the same name in every `verlinde.*` namespace
that holds the original, so calls inside one module and between modules
are caught.  Only public names are touched.

Each call becomes one span (name, start, end, parent span, op id, raised)
appended to flat arrays in memory; `Tracer.save` writes them out once the
pass is over, and `layer_metrics` reads that file back.  A span's self
time is its duration minus the durations of its direct child spans, which
never overlap because the load is one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "graphs",
    "weights",
    "fusion",
    "newstead",
    "su2reps",
    "gauge",
    "thetacst",
    "modular",
    "cli",
)

# Work counts read from the return value at selected boundaries.
COUNTERS = {
    "graphs.enumerate_trivalent": len,
    "weights.enumerate_weights": len,
    "modular.six_j_table": lambda out: len(out.entries),
    "thetacst.abelian_cst": lambda out: len(out.coefficients or ()),
    "gauge.spin_network_value": lambda out: 1,
    "gauge.peter_weyl_probe": lambda out: out.samples * len(out.colorings),
    "gauge.distinguishability_probe": lambda out: 2 * out.samples,
}


class Tracer:
    """In-memory span recorder; `op` is set by the caller around each op."""

    def __init__(self):
        self.names = []
        self.name_ = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts = {}
        self.stack = [-1]
        self.op = [-1]

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        name_, parent, opid = self.name_.append, self.parent.append, self.opid.append
        start, end, raised = self.start, self.end, self.raised
        stack, op, counts, clock = self.stack, self.op, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_(nid)
            parent(stack[-1])
            opid(op[0])
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counts[i] = counter(out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of every layer."""
        import verlinde.cli  # noqa: F401  (loads all nine layers)

        spaces = [m for n, m in sys.modules.items() if n == "verlinde" or n.startswith("verlinde.")]
        for layer in LAYERS:
            mod = sys.modules[f"verlinde.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{name}", obj)
                for space in spaces:
                    if vars(space).get(name) is obj:
                        setattr(space, name, traced)

    def save(self, path):
        idx = np.fromiter(self.counts.keys(), dtype=np.int64, count=len(self.counts))
        val = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name_, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            count_index=idx,
            count_value=val,
        )


def _has_marked_ancestor(parent, marked):
    """For each span, whether some proper ancestor is marked (pointer jumping)."""
    n = len(parent)
    up = np.where(parent >= 0, parent, n).astype(np.int64)
    up = np.append(up, n)
    flag = np.append(marked, False)[up]
    flag[n] = False
    while True:
        hop = up[up]
        if np.array_equal(hop, up):
            return flag[:n]
        flag = flag | flag[up]
        up = hop


PER_FUNCTION = {
    # metric suffix -> (function, quantity)
    "graphs.canonical_form.calls": ("graphs.canonical_form", "calls"),
    "graphs.canonical_form.self_s": ("graphs.canonical_form", "self"),
    "weights.enumerate_weights.self_s": ("weights.enumerate_weights", "self"),
    "fusion.rk.calls": ("fusion.rk", "calls"),
    "fusion.rk.busy_s": ("fusion.rk", "busy"),
    "fusion.verlinde.busy_s": ("fusion.verlinde", "busy"),
    "modular.pentagon_check.self_s": ("modular.pentagon_check", "self"),
    "modular.six_j_table.self_s": ("modular.six_j_table", "self"),
    "modular.fusion_matrix.calls": ("modular.fusion_matrix", "calls"),
    "modular.block_space.self_s": ("modular.block_space", "self"),
    "modular.residual_report.busy_s": ("modular.residual_report", "busy"),
    "thetacst.theta_char.calls": ("thetacst.theta_char", "calls"),
    "thetacst.theta_char.self_s": ("thetacst.theta_char", "self"),
    "thetacst.abelian_cst.self_s": ("thetacst.abelian_cst", "self"),
    "gauge.spin_network_value.calls": ("gauge.spin_network_value", "calls"),
    "gauge.spin_network_value.self_s": ("gauge.spin_network_value", "self"),
    "gauge.peter_weyl_probe.self_s": ("gauge.peter_weyl_probe", "self"),
    "cli.requests": ("cli.run", "calls"),
}


def layer_metrics(path, wall_s):
    """Per-layer metrics of the spans inside the timed ops of one pass."""
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        name, parent, op = data["name"], data["parent"], data["op"]
        dur = data["end"] - data["start"]
        raised = data["raised"].astype(bool)
        count = np.zeros(len(name), dtype=np.int64)
        count[data["count_index"]] = data["count_value"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(name))
    own = dur - child
    timed = op >= 0
    layer = np.array([LAYERS.index(n.split(".")[0]) for n in names])[name]
    ids = {n: i for i, n in enumerate(names)}

    def fn_mask(qualname):
        return (name == ids[qualname]) if qualname in ids else np.zeros(len(name), bool)

    def busy(mask):
        outer = mask & ~_has_marked_ancestor(parent, mask)
        return float(dur[outer & timed].sum())

    out = {}
    for li, L in enumerate(LAYERS):
        m = (layer == li) & timed
        out[f"{L}.calls"] = (int(m.sum()), "count")
        out[f"{L}.busy_s"] = (busy(layer == li), "s")
        out[f"{L}.self_s"] = (float(own[m].sum()), "s")
        out[f"{L}.errors"] = (int((raised & m).sum()), "count")
    for metric, (fn, what) in PER_FUNCTION.items():
        m = fn_mask(fn)
        if what == "calls":
            out[metric] = (int((m & timed).sum()), "count")
        elif what == "self":
            out[metric] = (float(own[m & timed].sum()), "s")
        else:
            out[metric] = (busy(m), "s")

    enum = fn_mask("graphs.enumerate_trivalent")
    canon_in_enum = fn_mask("graphs.canonical_form") & _has_marked_ancestor(parent, enum) & timed
    classes = int(count[enum & timed].sum())
    n_canon = int(canon_in_enum.sum())
    out["graphs.classes_per_canonical_call"] = (classes / n_canon if n_canon else 0.0, "ratio")

    ew = fn_mask("weights.enumerate_weights")
    emitted = int(count[ew & timed].sum())
    ew_busy = busy(ew)
    out["weights.emitted"] = (emitted, "count")
    out["weights.emitted_per_s"] = (emitted / ew_busy if ew_busy else 0.0, "1/s")
    out["modular.six_j_entries"] = (int(count[fn_mask("modular.six_j_table") & timed].sum()), "count")
    out["thetacst.cst_coefficients"] = (
        int(count[fn_mask("thetacst.abelian_cst") & timed].sum()),
        "count",
    )
    values = sum(
        count[fn_mask(f) & timed].sum()
        for f in ("gauge.spin_network_value", "gauge.peter_weyl_probe", "gauge.distinguishability_probe")
    )
    out["gauge.values"] = (int(values), "count")
    top = timed & (parent < 0)
    out["bench.self_s"] = (wall_s - float(dur[top].sum()), "s")
    out["bench.spans"] = (int(timed.sum()), "count")
    return out
