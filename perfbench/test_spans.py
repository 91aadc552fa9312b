"""Tests of the span reducer and of the patching that records spans.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import spans  # noqa: E402

MS = 1_000_000  # ns


def tree(rows):
    """Spans from (name, start_ms, end_ms, parent, attr) rows."""
    names = list(spans.LAYER_NAMES)
    cols = list(zip(*rows))
    return names, {
        "kind": np.array([names.index(n) for n in cols[0]]),
        "start": np.array(cols[1]) * MS,
        "end": np.array(cols[2]) * MS,
        "parent": np.array(cols[3]),
        "attr": np.array(cols[4]),
    }


def test_union_of_children_is_clipped_and_merged():
    parent = np.array([-1, 0, 0, 0, 0])
    start = np.array([0, 10, 30, 70, 90])
    end = np.array([100, 40, 60, 70, 120])
    # [10, 40] and [30, 60] overlap, [70, 70] is empty, [90, 120] is clipped.
    assert spans.covered_ns(parent, start, end).tolist() == [60, 0, 0, 0, 0]


def test_self_time_calls_and_recursion():
    names, sp = tree([
        ("simulate.run_trials", 0, 100, -1, 0),   # 0
        ("lrpc.decode_local", 10, 50, 0, 0),      # 1: exits ok
        ("extension.mul", 20, 30, 1, 4),          # 2
        ("extension.mul", 30, 30, 1, 0),          # 3: zero length
        ("extension.mul", 35, 45, 1, 4),          # 4: sibling of 2
        ("lrpc.decode_local", 60, 90, 0, 5),      # 5: exits at line 5
        ("extension.mul", 70, 80, 5, 2),          # 6
        ("extension.mul", 72, 75, 6, 2),          # 7: nested in a mul
        ("lrpc.sample_error", 100, 130, -1, 0),   # 8: a second root
        ("fq.Fq.matrix_rank", 101, 110, 8, 0),    # 9
        ("fq.Fq.matrix_rank", 111, 120, 8, 0),    # 10
    ])
    out = spans.reduce_spans(names, sp)
    assert out["simulate.run_trials.calls"] == 1
    assert out["simulate.run_trials.ms"] == 100
    assert out["simulate.run_trials.self_ms"] == 100 - 40 - 30
    assert out["lrpc.decode_local.calls"] == 2
    assert out["lrpc.decode_local.ms"] == 70
    assert out["lrpc.decode_local.self_ms"] == (40 - 20) + (30 - 10)
    assert out["extension.mul.calls"] == 5
    assert out["extension.mul.ms"] == 30          # span 7 lies inside span 6
    assert out["extension.mul.self_ms"] == 10 + 0 + 10 + 7 + 3
    assert out["extension.mul.elems"] == 12
    assert out["extension.mul.ns_per_elem"] == pytest.approx(30 * MS / 12)
    assert out["lrpc.decode_local.exit_ok"] == 1
    assert out["lrpc.decode_local.exit_line5"] == 1
    assert out["lrpc.decode_local.ms_p50"] == pytest.approx(35)
    assert out["lrpc.sample_error.accept_ratio"] == pytest.approx(0.5)
    assert out["fq.Fq.matrix_rank.self_ms"] == 18
    assert out["rings.mul.calls"] == 0 and out["rings.mul.ns_per_elem"] == 0


def test_install_patches_every_binding_and_records_nesting():
    from lrpc_rings import (CodeParams, ExtensionDesc, Zmod, decode_local,
                            encode, generate_code, lrpc, product_ring,
                            sample_error, simulate)
    import lrpc_rings

    original = lrpc.decode_local
    rec = spans.Recorder()
    rec.install()
    try:
        for owner in (lrpc, simulate, product_ring, lrpc_rings):
            assert owner.decode_local is not original
            assert owner.decode_local.__wrapped__ is original
        rng = np.random.default_rng(7)
        ext = ExtensionDesc(Zmod(4), 10)
        code = generate_code(CodeParams(10, 4, 2, 2), ext, rng)
        cw = encode(code, ext.rand(rng, (4,)))
        with rec.pause():
            err = sample_error(ext, 10, 2, rng)
        before = len(rec.kind)
        out = lrpc.decode_local(code, (cw + err) % 4)
    finally:
        rec.uninstall()
    assert lrpc.decode_local is original and lrpc_rings.decode_local is original
    assert decode_local is original
    assert np.array_equal(out, cw)
    arr = rec.arrays()
    assert rec.names.index("lrpc.sample_error") not in arr["kind"]
    root = before
    assert rec.names[arr["kind"][root]] == "lrpc.decode_local"
    children = {rec.names[k] for k in arr["kind"][arr["parent"] == root]}
    assert {"lrpc.syndrome", "modlin.free_module_test",
            "lrpc.erasure_decode"} <= children
    assert (arr["end"] >= arr["start"]).all()
