"""Span tracing around mcsim's public functions, installed from outside.

install() wraps each traced function once and rebinds its name in every
mcsim module that holds it (eval_dag, for instance, is bound in netlist,
executor, analysis and components), so calls through any import path
are seen. Spans (name, parent, start, end) stay in memory in flat arrays
and are written out once, at the end of a run. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

# Functions reported one by one, per layer. Every build_* function of
# components is reported as the single name "components.build".
REPORTED = {
    "ternary_core": ("res_full", "cubeset_canonicalize"),
    "netlist": ("eval_dag", "parse_netlist", "make_circuit"),
    "executor": ("implements", "outputs", "reach"),
    "analysis": ("closure_bool", "is_natural", "prime_implicants", "synthesize",
                 "find_natural_subfunction", "metastable_witness"),
    "components": ("clock_sync_select", "build"),
    "cli": ("main",),
}

# Wrapped only so that their time lands in their own layer rather than
# in the caller's; not reported by name.
ATTRIBUTED = {
    "ternary_core": ("res_members", "precision"),
    "netlist": ("emit_netlist", "validate", "dag_toposort"),
    "executor": ("successors", "read_outcomes", "run_trace", "emit_trace",
                 "parse_trace", "trace_check"),
    "analysis": ("natural_spec", "general_spec", "closure_general",
                 "parse_spec_table", "emit_spec_table", "parse_truth_table",
                 "unroll", "pivotal_sequence"),
    "components": ("mux_spec", "cmux_spec", "masking_fanout_spec"),
}

LAYERS = tuple(REPORTED)
ROOT = "bench.item"

COUNTS = ("netlist.eval_dag.gate_evals", "executor.implements.inputs",
          "executor.reach.rounds", "executor.reach.peak_cubes",
          "analysis.synthesize.gates")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for layer, fns in REPORTED.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(name, "count") for name in COUNTS]
    out += [("ternary_core.cubeset_canonicalize.kept_ratio", "ratio"),
            ("bench.items", "count"), ("bench.untraced_s", "s"),
            ("bench.trace_overhead_ratio", "ratio")]
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = [ROOT]      # span name id -> "layer.function"
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.canon = [0, 0]                  # cubes in, cubes out

    # -- recording -------------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.parents)
        self.name_ids.append(fid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def item(self, fn, *args):
        """Run one benchmark item under a root span."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, observe):
        if name in self.names:               # the build_* functions share one name
            fid = self.names.index(name)
        else:
            fid = len(self.names)
            self.names.append(name)
        open_, close, stack = self._open, self._close, self.stack

        def traced(*args, **kwargs):
            if stack[-1] < 0:               # outside any item: not recorded
                return fn(*args, **kwargs)
            idx = open_(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self) -> dict:
        counts, canon = self.counts, self.canon

        def eval_dag(args, kwargs, result):
            counts["netlist.eval_dag.gate_evals"] += len(args[0].gates)

        def reach(args, kwargs, result):
            r = args[2] if len(args) > 2 else kwargs["r"]
            counts["executor.reach.rounds"] += r
            if len(result) > counts["executor.reach.peak_cubes"]:
                counts["executor.reach.peak_cubes"] = len(result)

        def synthesize(args, kwargs, result):
            counts["analysis.synthesize.gates"] += len(result.dag.gates)

        def canonicalize(args, kwargs, result):
            canon[0] += len(args[0])
            canon[1] += len(result)

        return {"netlist.eval_dag": eval_dag, "executor.reach": reach,
                "analysis.synthesize": synthesize,
                "ternary_core.cubeset_canonicalize": canonicalize}

    def install(self, modules: dict) -> None:
        """Wrap the traced functions of the given mcsim modules (layer name
        -> module) and rebind every name that refers to one of them."""
        observers = self._observers()
        replace = {}
        for layer, module in modules.items():
            wanted = REPORTED.get(layer, ()) + ATTRIBUTED.get(layer, ())
            names = [n for n in wanted if n != "build"]
            if "build" in wanted:
                names += sorted(n for n in vars(module) if n.startswith("build_"))
            for n in names:
                fn = getattr(module, n)
                label = f"{layer}.build" if n.startswith("build_") else f"{layer}.{n}"
                replace[id(fn)] = (fn, self._wrap(label, fn, observers.get(label)))
        for module in modules.values():
            for n, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, n, hit[1])

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, self time and counts per reported name and per layer."""
        n = len(self.parents)
        dur = array("d", (self.ends[i] - self.starts[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        inputs = 0
        fid = {name: i for i, name in enumerate(self.names)}
        implements, outputs = fid.get("executor.implements"), fid.get("executor.outputs")
        for i in range(n):
            k = self.name_ids[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            if k == outputs and self.parents[i] >= 0 \
                    and self.name_ids[self.parents[i]] == implements:
                inputs += 1
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for k, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_s[k]
        for layer, fns in REPORTED.items():
            for fn in fns:
                k = fid.get(f"{layer}.{fn}")
                out[f"{layer}.{fn}.calls"] = calls[k] if k is not None else 0
                out[f"{layer}.{fn}.self_s"] = self_s[k] if k is not None else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out.update(self.counts)
        out["executor.implements.inputs"] = inputs
        cin, cout = self.canon
        out["ternary_core.cubeset_canonicalize.kept_ratio"] = cout / cin if cin else 1.0
        out["bench.items"] = calls[0]
        return out

    def write(self, path: str) -> int:
        """Write every span as `id parent name start_s end_s`; returns the count."""
        n = len(self.parents)
        t0 = self.starts[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(n):
                fh.write(f"{i}\t{self.parents[i]}\t{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")
        return n
