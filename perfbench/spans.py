"""Span tracing of the public lrpc_rings functions, from outside the library.

`Recorder.install()` replaces each function in `TARGETS` by a wrapper that
records one span per call: name, start and end (`perf_counter_ns`), the
enclosing span, the trial it belongs to and one integer attribute (the
element count of an arithmetic call, the ring of a unit-pivot
factorization, or the exit line of a decode).  Module-level functions are
rebound wherever a module of the package holds them, because modules
import them by name; methods are replaced on their class.  Spans stay in
memory until `save()`.

`reduce_spans()` turns spans into the per-layer metrics that
BENCHMARK.json lists.  It does not rely on how the spans were recorded,
so the tests check it on hand-built span trees.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array

import numpy as np

# (layer metric prefix, module, attribute path inside the module)
TARGETS = (
    ("simulate.run_trials", "simulate", "run_trials"),
    ("lrpc.generate_code", "lrpc", "generate_code"),
    ("lrpc.LrpcCode", "lrpc", "LrpcCode.__init__"),
    ("lrpc.encode", "lrpc", "encode"),
    ("lrpc.sample_error", "lrpc", "sample_error"),
    ("lrpc.decode_local", "lrpc", "decode_local"),
    ("lrpc.syndrome", "lrpc", "syndrome"),
    ("lrpc.erasure_decode", "lrpc", "erasure_decode"),
    ("product_ring.generate_product_code", "product_ring", "generate_product_code"),
    ("product_ring.decode_product", "product_ring", "decode_product"),
    ("modlin.unit_pivot_factor", "modlin", "unit_pivot_factor"),
    ("modlin.column_jordan", "modlin", "column_jordan"),
    ("modlin.gauss_inverse", "modlin", "gauss_inverse"),
    ("modlin.free_module_test", "modlin", "free_module_test"),
    ("modlin.intersect_with_free", "modlin", "intersect_with_free"),
    ("modlin.module_product", "modlin", "module_product"),
    ("modlin.square_property_check", "modlin", "square_property_check"),
    ("modlin.sample_free_submodule", "modlin", "sample_free_submodule"),
    ("modlin.Submodule.coefficients_of", "modlin", "Submodule.coefficients_of"),
    ("extension.mul", "extension", "ExtensionDesc.mul"),
    ("extension.matmul", "extension", "ExtensionDesc.matmul"),
    ("extension.inverse", "extension", "ExtensionDesc.inverse"),
    ("rings.mul", "rings", "LocalRingDesc.mul"),
    ("rings.matmul", "rings", "LocalRingDesc.matmul"),
    ("rings.inverse", "rings", "LocalRingDesc.inverse"),
    ("rings.left_kernel", "rings", "LocalRingDesc.left_kernel"),
    ("chain.ChainRing.howell", "chain", "ChainRing.howell"),
    ("chain.HowellForm.member_solve", "chain", "HowellForm.member_solve"),
    ("fq.Fq.matrix_rank", "fq", "Fq.matrix_rank"),
    ("specparse.parse_spec_parts", "specparse", "parse_spec_parts"),
)
LAYER_NAMES = tuple(name for name, _, _ in TARGETS)
HOOK = "bench.hook"
PACKAGE = "lrpc_rings"
EXIT_LINES = (5, 8, 14, 16, 18)


def _elems_mul(args, _result):
    """Extension or ring products in one `mul` call: the broadcast size of
    the leading axes."""
    a, b = np.shape(args[1]), np.shape(args[2])
    return int(np.prod(np.broadcast_shapes(a[:-1], b[:-1]), dtype=np.int64))


def _elems_matmul(args, _result):
    """Products in one (r, k) x (k, c) `matmul` call: r * k * c."""
    a, b = np.shape(args[1]), np.shape(args[2])
    return a[0] * a[1] * b[1]


def _over_extension(args, _result):
    """1 when a unit-pivot factorization runs over the extension S, 0 over R."""
    from lrpc_rings.extension import ExtensionDesc
    return int(isinstance(args[0], ExtensionDesc))


def _exit_line(_args, result):
    """Decoder exit: 0 for a returned word, else the failing line."""
    return getattr(result, "line", 0)


ATTRS = {
    "extension.mul": _elems_mul,
    "rings.mul": _elems_mul,
    "extension.matmul": _elems_matmul,
    "modlin.unit_pivot_factor": _over_extension,
    "lrpc.decode_local": _exit_line,
}


class Recorder:
    """In-memory span store plus the patches that fill it."""

    def __init__(self):
        self.names = list(LAYER_NAMES) + [HOOK]
        self.kind = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attr = array("q")
        self.current_trial = 0
        self.paused = False
        self._stack = [-1]
        self._undo = []

    def wrap(self, name, fn):
        """`fn` with a span of kind `name` around each call."""
        kid = self.names.index(name)
        attr_of = ATTRS.get(name)
        kind, parent, trial = self.kind, self.parent, self.trial
        start, end, attr, stack = self.start, self.end, self.attr, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            trial.append(self.current_trial)
            attr.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if attr_of is not None:
                attr[idx] = attr_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target; `uninstall()` restores the originals."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for name, mod_name, path in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            traced = self.wrap(name, original)
            if cls_path:
                self._set(owner, attr, traced, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced, original)

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside the block record no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def arrays(self):
        """The spans as numpy arrays, keyed as `reduce_spans` expects."""
        return {"kind": np.frombuffer(self.kind, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "trial": np.frombuffer(self.trial, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "attr": np.frombuffer(self.attr, dtype=np.int64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def covered_ns(parent, start, end):
    """For each span, the length of the union of its children's intervals,
    clipped to the span's own interval."""
    n = len(parent)
    covered = np.zeros(n, dtype=np.int64)
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return covered
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur_parent, reach = -1, 0
    for i in order.tolist():
        p = int(parent[i])
        lo, hi = max(int(start[i]), int(start[p])), min(int(end[i]), int(end[p]))
        if p != cur_parent:
            cur_parent, reach = p, int(start[p])
        lo = max(lo, reach)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return covered


def outermost(kind, parent):
    """True for spans with no ancestor of the same kind, so that a kind's
    total time counts a recursive call once."""
    n = len(kind)
    inner = np.zeros(n, dtype=bool)
    anc = parent.astype(np.int64)
    live = anc >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        inner[idx] |= kind[anc[idx]] == kind[idx]
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return ~inner


def reduce_spans(names, spans):
    """Per-layer metrics from spans whose kinds index `names`.

    `spans` maps kind, parent, start, end (ns) and attr to equal-length
    arrays; parent is -1 for a root span.  For each layer F it gives
    F.calls, F.ms (time inside F, counting nested calls of F once) and
    F.self_ms (time inside F but outside every child span), plus the
    element counts, the unit-pivot split by ring, decode latency
    percentiles, rejection-sampling acceptance ratios and decoder exits;
    a layer with no spans reports zeros.
    """
    kind = np.asarray(spans["kind"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    start = np.asarray(spans["start"], dtype=np.int64)
    end = np.asarray(spans["end"], dtype=np.int64)
    attr = np.asarray(spans["attr"], dtype=np.int64)
    dur = end - start
    self_ns = dur - covered_ns(parent, start, end)
    top = outermost(kind, parent)
    kid = {name: i for i, name in enumerate(names)}
    out = {}

    def of(name):
        return kind == kid.get(name, -1)

    for name in names:
        sel = of(name)
        out[f"{name}.calls"] = int(sel.sum())
        out[f"{name}.ms"] = dur[sel & top].sum() / 1e6
        out[f"{name}.self_ms"] = self_ns[sel].sum() / 1e6

    for name in ("extension.mul", "extension.matmul", "rings.mul"):
        out[f"{name}.elems"] = int(attr[of(name)].sum())
    for name in ("extension.mul", "rings.mul"):
        elems = out[f"{name}.elems"]
        out[f"{name}.ns_per_elem"] = (out[f"{name}.ms"] * 1e6 / elems
                                      if elems else 0.0)

    upf = of("modlin.unit_pivot_factor") & top
    out["modlin.unit_pivot_factor.over_ext.ms"] = dur[upf & (attr == 1)].sum() / 1e6
    out["modlin.unit_pivot_factor.over_base.ms"] = dur[upf & (attr == 0)].sum() / 1e6

    dec = of("lrpc.decode_local")
    dec_ms = dur[dec] / 1e6
    for q, label in ((50, "ms_p50"), (90, "ms_p90")):
        out[f"lrpc.decode_local.{label}"] = (float(np.percentile(dec_ms, q))
                                             if dec_ms.size else 0.0)
    out["lrpc.decode_local.exit_ok"] = int((dec & (attr == 0)).sum())
    for line in EXIT_LINES:
        out[f"lrpc.decode_local.exit_line{line}"] = int((dec & (attr == line)).sum())

    parent_kind = np.where(parent >= 0, kind[np.maximum(parent, 0)], -1)

    def child_count(child, of_parent):
        return int((of(child) & (parent_kind == kid.get(of_parent, -2))).sum())

    def ratio(useful, attempts):
        return useful / attempts if attempts else 0.0

    out["lrpc.generate_code.accept_ratio"] = ratio(
        int(of("lrpc.generate_code").sum()),
        child_count("modlin.unit_pivot_factor", "lrpc.generate_code"))
    for name in ("lrpc.sample_error", "modlin.sample_free_submodule"):
        out[f"{name}.accept_ratio"] = ratio(
            int(of(name).sum()), child_count("fq.Fq.matrix_rank", name))
    return out
