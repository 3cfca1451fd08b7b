"""Spans around the public functions of each teamseq layer.

`Tracer.install` replaces every wrapped function at each binding a teamseq
module holds (the defining module, modules that imported it by name, and
the package namespace), so calls between layers and calls from the
benchmark both pass through a wrapper.  Function-local imports inside
teamseq read the module attribute at call time and see the wrapper too.
Nothing under `src/` is edited; `uninstall` restores the originals.

A span is (function, start, end, parent, raised).  Only the outermost
call of a function opens a span, so recursive functions such as
`eliminate_cuts` and `derivation_from_json` are not counted twice; the
inner calls run unwrapped inside the outer span.  Spans stay in memory
until the run ends.  Hot helpers (`mset`, `render`, the rule builders,
`check_inference`) are deliberately not wrapped: their time is self time
of the layer that calls them.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer -> functions wrapped in that layer (module teamseq.<layer>)
WRAPPED = {
    "syntax": ("parse_sequent", "sequent_from_json", "sequent_to_json"),
    "semantics": ("satisfies", "sequent_valid"),
    "resolutions": ("resolution_choices", "resolution_steps",
                    "resolutions_multiset"),
    "calculus": ("check_derivation", "is_cutfree", "derivation_from_json",
                 "derivation_to_json"),
    "prover": ("prove_or_countermodel",),
    "transforms": ("eliminate_cuts", "normalize", "resolve_derivation",
                   "weaken"),
    "interpolation": ("interpolate_partition", "verify_interpolant",
                      "polarity_bounds"),
    "cli": ("run",),
}

# functions whose arguments and result are kept for count metrics
KEEP_IO = {"semantics.sequent_valid", "prover.prove_or_countermodel",
           "calculus.check_derivation", "transforms.eliminate_cuts",
           "transforms.normalize", "transforms.resolve_derivation",
           "interpolation.interpolate_partition"}

FIELDS = ("calls", "busy_s", "self_s")


def function_names():
    return [f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.spans = []  # [fid, start, end, parent, raised]
        self.io = []     # (span index, args, result) for KEEP_IO
        self._stack = []
        self._depth = [0] * len(self.names)
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fid, fn):
        spans, stack, depth, io = self.spans, self._stack, self._depth, self.io
        keep = self.names[fid] in KEEP_IO
        clock = perf_counter

        def traced(*args, **kwargs):
            if depth[fid]:
                return fn(*args, **kwargs)
            depth[fid] = 1
            idx = len(spans)
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(rec)
            stack.append(idx)
            try:
                rec[1] = clock()
                out = fn(*args, **kwargs)
                rec[2] = clock()
            except BaseException:
                rec[2] = clock()
                rec[4] = True
                raise
            finally:
                stack.pop()
                depth[fid] = 0
            if keep:
                io.append((idx, args, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "teamseq"
                                      or name.startswith("teamseq."))]
        for fid, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            home = importlib.import_module(f"teamseq.{layer}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(fid, original)
            for mod in mods:
                if getattr(mod, fn_name, None) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def span_table(self):
        """The spans as a JSON-ready table, for writing out at exit."""
        return {"functions": self.names,
                "columns": ["function", "start", "end", "parent", "raised"],
                "spans": self.spans}

    def layer_times(self, wall: float) -> dict:
        """Per-function calls, busy and self seconds, per-layer self
        seconds, and the part of the traced pass's `wall` seconds that no
        span covers."""
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        child = [0.0] * len(self.spans)
        top = 0.0
        for fid, start, end, parent, _ in self.spans:
            dur = end - start
            calls[fid] += 1
            busy[fid] += dur
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
        own = [0.0] * n
        for i, (fid, start, end, _, _) in enumerate(self.spans):
            own[fid] += (end - start) - child[i]
        out = {}
        layer_self = {layer: 0.0 for layer in WRAPPED}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[fid], "count")
            out[f"{name}.busy_s"] = (busy[fid], "s")
            out[f"{name}.self_s"] = (own[fid], "s")
            layer_self[name.split(".")[0]] += own[fid]
        for layer, t in layer_self.items():
            out[f"{layer}.self_s"] = (t, "s")
        out["bench.self_s"] = (wall - top, "s")
        out["bench.spans"] = (len(self.spans), "count")
        return out

    def oracle_checked_frac(self) -> float:
        """Share of `verify_interpolant` spans in which both oracle calls
        (`sequent_valid`) returned; 0 when there are none."""
        verify = self.names.index("interpolation.verify_interpolant")
        valid = self.names.index("semantics.sequent_valid")
        done = {}
        for fid, _, _, parent, raised in self.spans:
            if fid == valid and not raised and parent >= 0 \
                    and self.spans[parent][0] == verify:
                done[parent] = done.get(parent, 0) + 1
        total = sum(1 for s in self.spans if s[0] == verify)
        checked = sum(1 for c in done.values() if c >= 2)
        return checked / total if total else 0.0
