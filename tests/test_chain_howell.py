"""Brute-force validation of the Howell-form machinery over chain rings."""

import numpy as np
import pytest

from lrpc_rings import ChainRing


@pytest.mark.parametrize("p,s,mu", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_left_kernel_complete(p, s, mu, rng):
    ring = ChainRing(p, s, mu)
    char, q = ring.char, ring.q

    def all_elems():
        grids = np.meshgrid(*([np.arange(char)] * mu), indexing="ij")
        return np.stack(grids, -1).reshape(-1, mu)

    elems = all_elems()
    for _ in range(30):
        rows, cols = rng.integers(1, 4, 2)
        m = rng.integers(0, char, size=(rows, cols, mu))
        ker = ring.left_kernel(m)
        # brute: all x in R0^rows with x M = 0
        idx = np.indices([len(elems)] * rows).reshape(rows, -1).T
        xs = elems[idx]
        brute = set()
        for x in xs:
            acc = np.zeros((cols, mu), dtype=np.int64)
            for r in range(rows):
                acc = ring.add(acc, ring.mul(x[r][None, :], m[r]))
            if not acc.any():
                brute.add(x.tobytes())
        # span of kernel gens
        span = {np.zeros((rows, mu), dtype=np.int64).tobytes()}
        cur = np.zeros((1, rows, mu), dtype=np.int64)
        for g in ker:
            scaled = ring.mul(elems[:, None, :], g[None, :, :])
            cur = (cur[None] + scaled[:, None]).reshape(-1, rows, mu) % char
            cur = np.unique(cur.reshape(len(cur), -1), axis=0).reshape(-1, rows, mu)
        span = {x.tobytes() for x in cur}
        assert span == brute


@pytest.mark.parametrize("p,s,mu", [(2, 2, 1), (3, 2, 1), (2, 2, 2)])
def test_solve_complete(p, s, mu, rng):
    ring = ChainRing(p, s, mu)
    char = ring.char
    grids = np.meshgrid(*([np.arange(char)] * mu), indexing="ij")
    elems = np.stack(grids, -1).reshape(-1, mu)
    for trial in range(30):
        m_, n_ = rng.integers(1, 4, 2)
        a = rng.integers(0, char, size=(m_, n_, mu))
        if trial % 2:
            x0 = rng.integers(0, char, size=(n_, mu))
            b = np.zeros((m_, mu), dtype=np.int64)
            for j in range(n_):
                b = ring.add(b, ring.mul(a[:, j], x0[j][None, :]))
        else:
            b = rng.integers(0, char, size=(m_, mu))
        part, ker = ring.solve(a, b)
        idx = np.indices([len(elems)] * n_).reshape(n_, -1).T
        xs = elems[idx]
        brute = set()
        for x in xs:
            acc = np.zeros((m_, mu), dtype=np.int64)
            for j in range(n_):
                acc = ring.add(acc, ring.mul(a[:, j], x[j][None, :]))
            if np.array_equal(acc, b):
                brute.add(x.tobytes())
        if part is None:
            assert not brute
            continue
        cur = np.zeros((1, n_, mu), dtype=np.int64)
        for g in ker:
            scaled = ring.mul(elems[:, None, :], g[None, :, :])
            cur = (cur[None] + scaled[:, None]).reshape(-1, n_, mu) % char
            cur = np.unique(cur.reshape(len(cur), -1), axis=0).reshape(-1, n_, mu)
        mine = {((x + part) % char).tobytes() for x in cur}
        assert mine == brute


def test_membership_roundtrip(rng):
    ring = ChainRing(2, 3, 1)
    for _ in range(40):
        rows = rng.integers(1, 4)
        m = rng.integers(0, 8, size=(rows, 3, 1))
        hf = ring.howell(m)
        coeffs = rng.integers(0, 8, size=(rows, 1))
        v = np.zeros((3, 1), dtype=np.int64)
        for r in range(rows):
            v = ring.add(v, ring.mul(coeffs[r][None, :], m[r]))
        assert hf.member_solve(v) is not None
        # a vector outside: perturb by an element not in the row module
        hf2 = ring.howell(np.concatenate([m, np.eye(3, dtype=np.int64)[:1][..., None]]))
        if len(hf2.cols) > len(hf.cols) or hf2.vals != hf.vals:
            w = v.copy()
            w[0] = (w[0] + 1) % 8
            if hf.member_solve(w) is None:
                assert True
