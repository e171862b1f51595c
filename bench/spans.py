"""Runtime span tracing of the zinbiel2 layers, installed from outside.

`Tracer.install(lib)` replaces each function or method named in TARGETS, in
every zinbiel2 module namespace that holds it, with a wrapper that records a
span: name, start, end, parent span and the current item id.  Spans stay in
memory (one flat array per column) and `write` dumps them when the run ends.
Nothing under src/ is edited; `uninstall` puts every original back.

Self time of a span is its duration minus the durations of its child spans;
in one thread the children of a span never overlap, so that is the time the
children cover.  The hottest leaf calls (field arithmetic, report appends,
LinMap construction) are only counted, so their time stays in their caller.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import Counter

# (module, attribute path, how): "span" records a span per call; "count"
# only counts calls; "gen" records one span per resumption of a generator;
# "table" and "mode" key the span name on the condition table (always the
# second positional argument) or the relation; "found" also counts calls
# whose result starts with a true value (successful equivalence searches).
TARGETS = (
    ("cli", "main", "span"),
    ("io", "pretty_dumps", "span"),
    ("io", "load_document", "span"),
    ("io", "canonical_dumps", "span"),
    ("classify", "census", "span"),
    ("classify", "enumerate_valid_data", "gen"),
    ("classify", "EnumerationSpec.datum_at", "span"),
    ("classify", "compute_quotients", "mode"),
    ("classify", "are_equivalent", "found"),
    ("classify", "morphism_from_rs", "span"),
    ("classify", "check_rs_conditions", "span"),
    ("classify", "check_rs_direct", "span"),
    ("unified", "ExtendingDatum.__init__", "span"),
    ("unified", "build_unified_product", "span"),
    ("unified", "check_datum_direct", "span"),
    ("unified", "extract_datum", "span"),
    ("unified", "verify_psi", "span"),
    ("special", "build_crossed_product", "span"),
    ("special", "build_bicrossed_product", "span"),
    ("special", "check_crossed_system", "span"),
    ("special", "check_matched_pair", "span"),
    ("engine", "evaluate_conditions", "table"),
    ("core", "check_crossed_module", "span"),
    ("core", "check_action", "span"),
    ("core", "check_bimodule", "span"),
    ("core", "check_zinbiel", "span"),
    ("core", "check_2alg_morphism", "span"),
    ("core", "ConditionReport.add", "count"),
    ("linalg", "BilMap.__init__", "span"),
    ("linalg", "BilMap.eval", "span"),
    ("linalg", "BilMap.eval_bb", "span"),
    ("linalg", "LinMap.__init__", "count"),
    ("linalg", "LinMap.apply", "span"),
    ("linalg", "inverse", "span"),
    ("fields", "PrimeField.add", "count"),
    ("fields", "PrimeField.mul", "count"),
)


def _span_name(module, path):
    """`linalg.BilMap.__init__` is reported as `linalg.BilMap` (construction)."""
    name = f"{module}.{path}"
    return name[:-len(".__init__")] if name.endswith(".__init__") else name


class Tracer:
    """Span recorder.  `item` is the operation the spans belong to: the
    workload sets it before each item, and a one-operation pass leaves it 0."""

    def __init__(self):
        self.item = 0
        self.active = False
        self.names, self._name_ids = [], {}
        self.name_id = array("i")
        self.parent = array("q")
        self.item_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.counts = Counter()     # calls of "count" targets
        self.results = Counter()    # "found" hits and generator yields
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_id.append(self.item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, how):
        tracer = self

        if how == "count":
            counts = self.counts

            def wrapper(*args, **kwargs):
                if tracer.active:
                    counts[name] += 1
                return fn(*args, **kwargs)
        elif how == "gen":
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                return tracer._traced_generator(name, inner) if tracer.active else inner
        else:
            key = {"table": lambda args, kwargs: args[1].name,
                   "mode": lambda args, kwargs: kwargs.get(
                       "mode", args[1] if len(args) > 1 else "equivalent")}.get(how)

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                idx = tracer._open(name if key is None else f"{name}.{key(args, kwargs)}")
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if how == "found" and result[0]:
                    tracer.results[f"{name}.found"] += 1
                return result
        return wrapper

    def _traced_generator(self, name, inner):
        while True:
            idx = self._open(name)
            try:
                value = next(inner)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.results[f"{name}.yields"] += 1
            yield value

    # -- installation ----------------------------------------------------------

    def install(self, lib):
        """Wrap every target, inactive until `active` is set; forked workers
        see the wrappers switched off."""
        modules = list(vars(lib).values())
        for module, path, how in TARGETS:
            owner = getattr(lib, module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(_span_name(module, path), original, how)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        os.register_at_fork(after_in_child=self._in_child)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _in_child(self):
        self.active = False

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def aggregate(self):
        """Per span name: {"calls": n, "self_s": seconds}."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, self_ns = Counter(), Counter()
        names, name_id = self.names, self.name_id
        for i in range(n):
            name = names[name_id[i]]
            calls[name] += 1
            self_ns[name] += end[i] - start[i] - child[i]
        return {name: {"calls": calls[name], "self_s": self_ns[name] / 1e9}
                for name in names}

    def write(self, path):
        """Write every span as gzip'd TSV: id, parent, item, name, start_ns, end_ns."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\titem\tname\tstart_ns\tend_ns\n")
            rows = zip(range(len(self.start)), self.parent, self.item_id,
                       self.name_id, self.start, self.end)
            fh.writelines(f"{i}\t{p}\t{it}\t{names[nid]}\t{s}\t{e}\n"
                          for i, p, it, nid, s, e in rows)
