"""Run-time tracing of the library's public functions.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (label, start, end, parent span,
operation id, raised or not).  A function is replaced under every name
that binds it, including names re-bound by importing modules such as
``infolat.relation.close_rows`` or ``infolat.tini.pullback``.  ``Rel``
construction (``__post_init__``), ``Rel.is_transitive`` and
``Rel.bit_tuple`` are wrapped as well.  ``poset.bits`` is not: it runs
millions of times per check and its cost stays in its callers' self
time.

When a wrapped call returns a generator, the call span covers only its
creation; each later resumption gets a span of its own (kind 1), whose
parent is whatever span was open when the consumer resumed it.

Spans are kept in flat arrays and written out by ``write``.
"""

import json
import types
from array import array
from time import perf_counter_ns

MODULES = ("poset", "relation", "loi", "loci", "tini", "powerdomain",
           "catalog", "cli")
SKIP = {"bits"}
CALL, RESUME = 0, 1


class Tracer:
    def __init__(self, tallies):
        self.labels = []
        self.label = array("H")
        self.kind = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op_id = array("l")
        self.raised = array("B")
        self.stack = []
        self.op = -1
        # label -> (counter name, result -> int), summed over calls
        self.tallies = tallies
        self.tally = {}

    def _open(self, label_id, kind):
        idx = len(self.label)
        self.label.append(label_id)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.raised.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx, raised):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()
        if raised:
            self.raised[idx] = 1

    def wrap(self, label, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        tally = self.tallies.get(label)
        tracer = self

        def resumed(gen):
            while True:
                idx = tracer._open(label_id, RESUME)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(idx, False)
                    return
                except BaseException:
                    tracer._close(idx, True)
                    raise
                tracer._close(idx, False)
                yield item

        def wrapper(*args, **kwargs):
            idx = tracer._open(label_id, CALL)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if tally is not None:
                name, count = tally
                tracer.tally[name] = tracer.tally.get(name, 0) + count(result)
            if isinstance(result, types.GeneratorType):
                return resumed(result)
            return result

        return wrapper

    def install(self, il):
        """Wrap the public functions of ``il``'s modules in place."""
        modules = [getattr(il, name) for name in MODULES] + [il]
        wrapped = {}
        for name in MODULES:
            for attr, obj in vars(getattr(il, name)).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == f"{il.__name__}.{name}"
                        and attr not in SKIP):
                    wrapped[obj] = self.wrap(f"{name}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        rel = il.relation.Rel
        rel.__post_init__ = self.wrap("relation.Rel", rel.__post_init__)
        rel.bit_tuple = self.wrap("relation.bit_tuple", rel.bit_tuple)
        rel.is_transitive = property(
            self.wrap("relation.is_transitive", rel.is_transitive.fget))

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def layer_metrics(self, factors):
        """Per module: calls, self seconds and calls that raised; plus the
        call count of every label.  Each span's self time is multiplied by
        ``factors[op_id]``, the speed scale of its operation."""
        own = self.self_times()
        modules = [label.split(".")[0] for label in self.labels]
        calls = {label: 0 for label in self.labels}
        out = {}
        for name in MODULES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.errors"] = 0
        for idx, label_id in enumerate(self.label):
            module = modules[label_id]
            out[f"{module}.self_s"] += own[idx] * factors[self.op_id[idx]] / 1e9
            if self.raised[idx]:
                out[f"{module}.errors"] += 1
            if self.kind[idx] == CALL:
                out[f"{module}.calls"] += 1
                calls[self.labels[label_id]] += 1
        return out, calls

    def write(self, path):
        """Spans as one JSON header line, then the raw column arrays.

        The header names the labels and, per column, its array typecode
        and length; the columns follow in header order, native byte
        order.
        """
        columns = ("label", "kind", "start", "end", "parent", "op_id", "raised")
        header = {
            "labels": self.labels,
            "columns": [[c, getattr(self, c).typecode, len(getattr(self, c))]
                        for c in columns],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(out)
