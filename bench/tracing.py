"""Per-layer tracing of trusslab from outside the program.

`Tracer.install()` replaces each traced public function or method of
trusslab by a wrapper, everywhere the name is looked up: in every
trusslab module that imported it and in module-level tables such as the
CLI's verifier map.  `uninstall()` puts the originals back.

A wrapper records a span: name, layer, metric key, start, end, parent
span and the id of the benchmark item it ran under.  Scalar operations
of `fields` are called millions of times per item, so they are not
stored one by one: each is counted, and its time is added to the span
that called it as "leaf" time.  The cost of computing a counter from
the operands (terms of a product, nnz of a Kronecker product) is kept
apart the same way, so it lands in no layer's self time.

A layer's self time is the duration of its spans minus the time their
child spans, leaf calls and counter hooks cover; `fields.self_s` is the
leaf time.  A metric key's `_s` total sums only spans not nested in a
span of the same key, and its `_calls` total counts every span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

NAME, LAYER, KEY, T0, T1, PARENT, ITEM, LEAF, HOOK, NESTED = range(10)

# -- counter hooks ----------------------------------------------------------------


def _compose_terms(counts, args, kwargs):
    g, f = args
    cols = Counter(j for (_, j), _v in g.items())
    rows = Counter(i for (i, _), _v in f.items())
    counts["linmap.compose_terms"] += sum(c * rows[k] for k, c in cols.items())


def _kron_nnz(counts, args, kwargs):
    counts["linmap.kron_nnz"] += len(args[0].items()) * len(args[1].items())


def _entries_built(counts, args, kwargs):
    entries = args[4] if len(args) > 4 else kwargs.get("entries")
    if hasattr(entries, "__len__"):
        counts["linmap.entries_built"] += len(entries)


def _residual_nnz(counts, args, out):
    if out.residual is not None:
        counts["report.residual_nnz"] += len(out.residual.items())


def _found(key):
    def hook(counts, args, out):
        counts[key] += len(out)
    return hook


def _bytes_in(counts, args, kwargs):
    counts["algfile.bytes_in"] += len(args[0])


def _bytes_out(counts, args, out):
    counts["algfile.bytes_out"] += len(out)


# (module, attribute, layer, metric key, hook before the call, hook after it)
SPANS = [
    ("linmap", "LinMap.compose", "linmap", "linmap.compose", _compose_terms, None),
    ("linmap", "LinMap.kron", "linmap", "linmap.kron", _kron_nnz, None),
    ("linmap", "LinMap.__init__", "linmap", None, _entries_built, None),
] + [("linmap", f"LinMap.{m}", "linmap", None, None, None)
     for m in ("__add__", "__sub__", "__neg__", "__eq__", "scale", "transpose", "rows",
               "from_rows", "from_columns")] + [
    ("linmap", f, "linmap", "linmap.elim", None, None)
    for f in ("nullspace", "invert", "solve_through", "split_idempotent", "rank",
              "image_basis")
] + [
    ("report", "equation", "report", "report.equation", None, _residual_nnz),
    ("coalgebra", "solve_antipode", "coalgebra", "coalgebra.solve_antipode", None, None),
    ("coalgebra", "convolution_inverse", "coalgebra", None, None, None),
    ("coalgebra", "find_unit", "coalgebra", None, None, None),
    ("coalgebra", "grouplikes", "coalgebra", None, None, None),
] + [("coalgebra", f, "coalgebra", "coalgebra.verify", None, None)
     for f in ("verify_comonoid", "verify_monoid", "verify_nonunital_bimonoid",
               "verify_hopf_monoid")] + [
    ("hopftruss", "verify_hopf_truss", "hopftruss", "hopftruss.verify", None, None),
    ("hopftruss", "twisted_action", "hopftruss", "hopftruss.twisted_action", None, None),
    ("hopftruss", "twisted_product", "hopftruss", None, None, None),
    ("hopftruss", "derive_cocycle", "hopftruss", None, None, None),
    ("cocycle", "cocycle_of_truss", "cocycle", "cocycle.of_truss", None, None),
    ("cocycle", "truss_of_cocycle", "cocycle", "cocycle.to_truss", None, None),
    ("cocycle", "verify_cocycle", "cocycle", "cocycle.verify", None, None),
    ("cocycle", "roundtrip_report", "cocycle", "cocycle.roundtrip", None, None),
    ("cocycle", "verify_cocycle_morphism", "cocycle", None, None, None),
] + [("modules", f, "modules", "modules.functor", None, None)
     for f in ("functor_G_H", "functor_H_tr_pi", "regular_truss_module",
               "regular_pi_module", "induction_truss_module", "restrict_along")] + [
    ("modules", f, "modules", "modules.verify", None, None)
    for f in ("verify_truss_module", "verify_pi_module", "verify_pi_module_morphism")
] + [
    ("modules", "module_twisted_action", "modules", None, None, None),
    ("hopfmodules", "coinvariants", "hopfmodules", "hopfmodules.coinvariants", None, None),
    ("hopfmodules", "fundamental_iso", "hopfmodules", "hopfmodules.fundamental", None, None),
    ("hopfmodules", "adjunction_check", "hopfmodules", "hopfmodules.adjunction", None, None),
] + [("hopfmodules", f, "hopfmodules", None, None, None)
     for f in ("induction_functor", "verify_comodule", "verify_hopf_module",
               "verify_truss_hopf_module")] + [
    ("settruss", "enumerate_skew_trusses", "settruss", "settruss.enumerate", None,
     _found("settruss.trusses_found")),
    ("settruss", "isomorphism_classes", "settruss", "settruss.classify", None,
     _found("settruss.classes_found")),
    ("settruss", "canonical_form", "settruss", "settruss.canonical_form", None, None),
    ("settruss", "linearize", "settruss", "settruss.linearize", None, None),
    ("settruss", "verify_skew_truss", "settruss", None, None, None),
    ("settruss", "truss_of_grouplikes", "settruss", None, None, None),
    ("algfile", "loads", "algfile", "algfile.parse", _bytes_in, None),
    ("algfile", "parse_document", "algfile", "algfile.parse", None, None),
    ("algfile", "serialize", "algfile", "algfile.serialize", None, _bytes_out),
    ("algfile", "document_of", "algfile", "algfile.serialize", None, None),
] + [("cli", f, "cli", None, None, None)
     for f in ("main", "cmd_verify", "cmd_enumerate", "cmd_pipeline")]

# FieldSpec method -> counter; every call adds leaf time to the calling span.
LEAVES = {"mul": "fields.mul_calls", "add": "fields.add_calls",
          "sub": "fields.add_calls", "inv": "fields.inv_calls",
          "coerce": "fields.coerce_calls", "neg": "fields.other_calls",
          "div": "fields.other_calls", "is_zero": "fields.other_calls",
          "parse": "fields.other_calls", "fmt": "fields.other_calls"}


class Tracer:
    def __init__(self) -> None:
        self.spans = [["root", "bench", None, perf(), 0.0, -1, 0, 0.0, 0.0, False]]
        self.stack = [0]
        self.open_keys = Counter()
        self.counts = Counter()
        self.item = 0
        self.in_leaf = False
        self._patches = []

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name, layer, key, fn, pre, post):
        spans, stack, open_keys, counts = self.spans, self.stack, self.open_keys, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if pre is not None:
                h = perf()
                pre(counts, args, kwargs)
                spans[parent][HOOK] += perf() - h
            nested = open_keys[key] > 0
            open_keys[key] += 1
            rec = [name, layer, key, 0.0, 0.0, parent, tracer.item, 0.0, 0.0, nested]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = perf()
                stack.pop()
                open_keys[key] -= 1
            if post is not None:
                h = perf()
                post(counts, args, out)
                spans[parent][HOOK] += perf() - h
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, counter, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        def wrapper(*args):
            counts[counter] += 1
            if tracer.in_leaf:
                return fn(*args)
            tracer.in_leaf = True
            t0 = perf()
            try:
                return fn(*args)
            finally:
                spans[stack[-1]][LEAF] += perf() - t0
                tracer.in_leaf = False

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------------

    def _set(self, holder, name, value, is_dict=False) -> None:
        old = holder[name] if is_dict else holder.__dict__[name]
        self._patches.append((holder, name, old, is_dict))
        if is_dict:
            holder[name] = value
        else:
            setattr(holder, name, value)

    def install(self) -> None:
        """Wrap every traced name in every loaded trusslab module."""
        if self._patches:
            return
        import trusslab.fields

        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "trusslab" or n.startswith("trusslab."))]
        for method, counter in LEAVES.items():
            cls = trusslab.fields.FieldSpec
            self._set(cls, method, self._leaf(counter, cls.__dict__[method]))
        for modname, attr, layer, key, pre, post in SPANS:
            mod = sys.modules.get(f"trusslab.{modname}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                fn = orig.__func__ if isinstance(orig, classmethod) else orig
                wrapped = self._span(attr, layer, key, fn, pre, post)
                self._set(cls, meth, classmethod(wrapped) if isinstance(orig, classmethod)
                          else wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self._span(f"{modname}.{attr}", layer, key, orig, pre, post)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapped)
                    elif isinstance(value, dict) and not name.startswith("__"):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._set(value, k, wrapped, is_dict=True)

    def uninstall(self) -> None:
        for holder, name, old, is_dict in reversed(self._patches):
            if is_dict:
                holder[name] = old
            else:
                setattr(holder, name, old)
        self._patches = []

    # -- spans owned by the benchmark -------------------------------------------------

    def open(self, name: str, layer: str = "bench", key=None) -> int:
        rec = [name, layer, key, perf(), 0.0, self.stack[-1], self.item, 0.0, 0.0, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return self.stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid][T1] = perf()
        self.stack.pop()

    def absorb(self, dump: dict, parent: int) -> None:
        """Merge the spans and counts a traced child process wrote out."""
        offset = len(self.spans) - 1
        for rec in dump["spans"][1:]:
            rec[PARENT] = parent if rec[PARENT] == 0 else rec[PARENT] + offset
            rec[ITEM] = self.item
            self.spans.append(rec)
        self.counts.update(dump["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, rec in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": rec[NAME], "layer": rec[LAYER],
                                      "start": rec[T0], "end": rec[T1],
                                      "parent": rec[PARENT], "item": rec[ITEM],
                                      "leaf_s": rec[LEAF]}) + "\n")

    # -- metrics ---------------------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> Counter:
        """Self time per layer and per-key totals over spans[lo:hi]."""
        spans = self.spans
        child = defaultdict(float)
        for rec in spans[lo:hi]:
            child[rec[PARENT]] += rec[T1] - rec[T0]
        out = Counter()
        for sid in range(lo, hi):
            rec = spans[sid]
            dur = rec[T1] - rec[T0]
            out[rec[LAYER] + ".self_s"] += dur - child[sid] - rec[LEAF] - rec[HOOK]
            out["fields.self_s"] += rec[LEAF]
            if rec[KEY]:
                out[rec[KEY] + "_calls"] += 1
                if not rec[NESTED]:
                    out[rec[KEY] + "_s"] += dur
        return out
