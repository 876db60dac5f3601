"""Spans around skostka's public functions, installed from outside.

`Tracer.install()` rebinds module and class attributes of the skostka
package in the current process, so every call that looks the name up at
call time (module globals, `gfp.rref`-style attribute access, methods)
goes through a wrapper that records a span: name, start, end and parent.
No file of the package changes. Spans stay in memory; `layer_metrics`
folds them into the per-layer figures and `dump` writes them as JSON.

Self time is a span's duration minus the durations of its child spans.
"""

import functools
import json
import time

SPLIT_SPAN = "modrep.decompose_summands"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        # one row per span: [name id, start, end, parent index, child time]
        self.spans = []
        self.stack = []
        self.counts = {}
        self.modules = []  # one record per decompose_summands call

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counts[key] += amount

    def inside(self, name):
        nid = self.name_ids[name]
        return any(self.spans[i][0] == nid for i in self.stack)

    def span(self, fn, name, measure=None):
        """fn wrapped to record one span per call.

        measure(span, args, kwargs, result) runs after the call, outside
        the span, to add counts such as matrix cells.
        """
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [nid, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - span[1]
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        return traced

    def wrap(self, owners, attr, name, measure=None):
        """Rebind owner.attr on every owner to one traced wrapper."""
        traced = self.span(getattr(owners[0], attr), name, measure)
        for owner in owners:
            setattr(owner, attr, traced)

    # -- what is traced ---------------------------------------------------

    def install(self):
        from skostka import cli, combinat, gfp, modrep, reduction

        for key in (
            "gfp.rref.cells", "gfp.matmul.flops", "modrep.hom.cells",
            "modrep.split.rounds", "modrep.split.splits", "reduction.supp.tuples",
        ):
            self.counts[key] = 0

        def cells(span, args, kwargs, result):
            rows, cols = args[0].shape
            self.count("gfp.rref.cells", rows * cols)

        def flops(span, args, kwargs, result):
            a, b = args[0], args[1]
            m = a.shape[0] if a.ndim > 1 else 1
            n = b.shape[-1] if b.ndim > 1 else 1
            self.count("gfp.matmul.flops", 2 * m * a.shape[-1] * n)

        self.wrap([gfp], "rref", "gfp.rref", cells)
        self.wrap([gfp], "matmul", "gfp.matmul", flops)
        self.wrap([gfp], "nullspace", "gfp.nullspace")
        self.wrap([gfp], "inverse", "gfp.inverse", self._count_split)
        self.wrap([gfp.Echelon], "add", "gfp.echelon_add")

        self.wrap([modrep], "build_module", "modrep.build_module")
        self.wrap([modrep.HomBasis], "sample", "modrep.end_sample")
        self.wrap([modrep], "matrix_minpoly", "modrep.minpoly", self._count_round)
        self.wrap([modrep], "decompose_summands", SPLIT_SPAN, self._record_module)
        self.wrap([modrep.Summand], "fingerprint", "modrep.fingerprint")
        self.wrap([modrep.DirectEngine], "registry_for", "modrep.registry")
        self.wrap([modrep], "modules_isomorphic", "modrep.iso")
        self._wrap_hom_misses(modrep)

        def tuples(span, args, kwargs, result):
            self.count("reduction.supp.tuples", len(result))

        self.wrap([reduction], "signed_kostka", "reduction.signed_kostka")
        self.wrap([reduction], "enumerate_lambda_supp", "reduction.supp", tuples)
        self.wrap([reduction], "principal_part_formula", "reduction.principal")
        # reduction imported these two by name, so both bindings are rebound
        self.wrap([combinat, reduction], "p_adic_expansion", "combinat.p_adic_expansion")
        self.wrap([combinat, reduction], "digit", "combinat.digit")

        self.wrap([cli], "save_cache", "cli.save_cache")

    def _wrap_hom_misses(self, modrep):
        """DirectEngine.hom spans only for calls that build a new basis."""
        hom = modrep.DirectEngine.hom
        key_of = modrep._canonical_pair

        def cells(span, args, kwargs, basis):
            self.count("modrep.hom.cells", basis.shape[0] * basis.shape[1])

        miss = self.span(hom, "modrep.hom", cells)

        @functools.wraps(hom)
        def traced(engine, ab, cd):
            if (key_of(ab), key_of(cd)) in engine.homs:
                return hom(engine, ab, cd)
            return miss(engine, ab, cd)

        modrep.DirectEngine.hom = traced

    def _count_round(self, span, args, kwargs, result):
        if self.inside(SPLIT_SPAN):
            self.count("modrep.split.rounds")

    def _count_split(self, span, args, kwargs, result):
        # Under decompose_summands, gfp.inverse runs once per successful
        # split (the change of basis onto the generalized kernels).
        if self.inside(SPLIT_SPAN):
            self.count("modrep.split.splits")

    def _record_module(self, span, args, kwargs, result):
        module = args[0]
        start = kwargs.get("start", args[4] if len(args) > 4 else None)
        self.modules.append(
            {
                "module": [list(module.ab[0]), list(module.ab[1])],
                "dim": module.dim if start is None else start[0].shape[1],
                "leaves": len(result),
                "seconds": span[2] - span[1],
            }
        )

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Calls, self time and longest span of every traced name, plus
        the counts; zeros included, so every run has the same keys."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        longest = dict.fromkeys(self.names, 0.0)
        for nid, start, end, parent, child in self.spans:
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (end - start) - child
            longest[name] = max(longest[name], end - start)
        out = dict(self.counts)
        for name in self.names:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
            out[name + ".max_s"] = longest[name]
        rounds, splits = out["modrep.split.rounds"], out["modrep.split.splits"]
        out["modrep.split.refused"] = rounds - splits
        out["modrep.split.useful_ratio"] = splits / rounds if rounds else 0.0
        out["modrep.iso.questions"] = calls["modrep.iso"]
        return out

    def root_seconds(self):
        """Total duration of the spans that have no parent span."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path, extra):
        doc = dict(extra)
        doc["names"] = self.names
        doc["span_fields"] = ["name", "start", "end", "parent"]
        doc["spans"] = [s[:4] for s in self.spans]
        doc["modules"] = self.modules
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
