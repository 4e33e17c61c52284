"""In-memory spans around the public calls of gvblocks.

The tracer never edits gvblocks.  ``install`` rebinds each traced public
function, in every loaded ``gvblocks`` module that refers to it, to a wrapper
that records a span; ``uninstall`` puts the originals back.  Calls between
layers (``lattice`` calling ``forms.make_qform``, ``cli`` calling
``pointed.check_axioms``) therefore show up as nested spans.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id the benchmark set when the call
was made.  Counts that describe the work of a call (``pairs``, ``entries``,
``labelings``, ``classes``) are computed from the call's arguments and result
and kept beside the span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: Public calls to trace, by "<module>.<function>".  The module is the layer.
TRACED = (
    "forms.make_qform",
    "forms.radical",
    "forms.gauss_sum",
    "lattice.make_lattice",
    "lattice.to_pointed_gv",
    "lattice.discriminant_data",
    "lattice.discriminant_form",
    "pointed.make_category",
    "pointed.check_axioms",
    "pointed.verdicts",
    "pointed.mueger_center",
    "torus.st_matrices",
    "torus.check_relations",
    "torus.anomaly",
    "torus.fusion_from_s",
    "surfaces.enumerate_decompositions",
    "surfaces.whitehead_move",
    "surfaces.s_move",
    "graphs.canonical_form",
    "blocks.block_dim_direct",
    "blocks.block_dim_glued",
    "blocks.verlinde_dim",
    "config.parse_config",
)

LAYERS = ("forms", "lattice", "pointed", "torus", "surfaces", "graphs", "blocks", "config", "cli")


def _non_loop_edges(pd) -> int:
    attach = pd.dual.attach_map
    return sum(attach[a] != attach[b] for a, b in pd.dual.pairing)


def _counts(name, args, result) -> dict:
    if name == "pointed.check_axioms":
        return {"pairs": args[0].group.order ** 2}
    if name == "torus.st_matrices":
        return {"entries": args[0].group.order ** 2}
    if name == "torus.fusion_from_s":
        return {"entries": args[0].rank ** 3}
    if name == "blocks.block_dim_glued":
        return {"labelings": args[0].group.order ** _non_loop_edges(args[1])}
    if name == "surfaces.enumerate_decompositions":
        return {"classes": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: dict[int, dict] = {}
        self.cold: set[int] = set()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._surfaces_seen: set[tuple[int, int]] = set()

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            counts = _counts(name, args, result)
            if counts:
                tracer.counts[idx] = counts
            if name == "surfaces.enumerate_decompositions":
                key = (args[0].genus, args[0].n)
                if key not in tracer._surfaces_seen:
                    tracer._surfaces_seen.add(key)
                    tracer.cold.add(idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function in every loaded gvblocks module."""
        import gvblocks

        modules = [m for n, m in sys.modules.items() if n == "gvblocks" or n.startswith("gvblocks.")]
        for qualname in TRACED:
            layer, func = qualname.split(".")
            original = getattr(getattr(gvblocks, layer), func)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                rec.update(self.counts.get(i, {}))
                f.write(json.dumps(rec) + "\n")

    # --- derived numbers --------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Inclusive seconds per span name inside operations, counting only
        the outermost span of each name so nested calls are not counted twice."""
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            if not self._has_ancestor_named(i, name):
                out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        """Calls per span name inside operations."""
        out: dict[str, int] = defaultdict(int)
        for name, _, _, _, op in self.spans:
            if op is not None:
                out[name] += 1
        return out

    def count_sum(self, name: str, key: str) -> int:
        return sum(
            c.get(key, 0)
            for i, c in self.counts.items()
            if self.spans[i][0] == name and self.spans[i][4] is not None
        )

    def enumeration(self) -> dict[str, float]:
        """Cold (first call for a surface in this process) against warm calls,
        over every span including set-up, where the cold calls usually are."""
        cold = warm = 0.0
        classes = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name != "surfaces.enumerate_decompositions":
                continue
            if i in self.cold:
                cold += end - start
                classes += self.counts.get(i, {}).get("classes", 0)
            else:
                warm += end - start
        return {"cold_busy_s": cold, "warm_busy_s": warm, "classes": classes}

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the time covered by its child spans, summed per
        layer over the spans inside operations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op is None:
                continue
            out[name.split(".")[0]] += (end - start) - child_time[i]
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
