"""End-to-end encode/decode over base rings beyond Z4: a quotient with
nilpotents (gamma = 2), a Galois ring with residue degree 2, and Z9."""

import numpy as np
import pytest

from lrpc_rings import (CodeParams, DecodingFailure, ExtensionDesc, Zmod,
                        decode_local, encode, galois_ring, generate_code,
                        quotient_ring, sample_error, theoretical_bound)


@pytest.mark.parametrize("make_ring", [
    lambda: quotient_ring(2, 2, [0, 0, 1]),   # gamma = 2
    lambda: galois_ring(2, 2, 2),             # mu = 2
    lambda: Zmod(9),                          # odd characteristic
], ids=["Z4[x]/(x^2)", "GR(4,2)", "Z9"])
def test_decode_roundtrip_general_base(make_ring):
    ring = make_ring()
    rng = np.random.default_rng(17)
    ext = ExtensionDesc(ring, 6)
    params = CodeParams(6, 2, 2, 1)
    code = generate_code(params, ext, rng)
    assert all(code.flags.values())
    n_trials = 120
    ok = 0
    for _ in range(n_trials):
        msg = ext.rand(rng, (params.k,))
        cw = encode(code, msg)
        err = sample_error(ext, params.n, 1, rng)
        out = decode_local(code, (cw + err) % ext.char)
        if not isinstance(out, DecodingFailure):
            assert np.array_equal(out, cw)  # never a wrong codeword
            ok += 1
    bound = float(theoretical_bound(ring.q, params.lam, 1, ext.m,
                                    params.n, params.k))
    sigma = (bound * (1 - bound) / n_trials) ** 0.5
    assert ok / n_trials >= bound - 3 * sigma


def test_contract_name_aliases(rxi, s5):
    assert int(rxi.residue_codes(rxi.from_poly([3, 2]).flat)) == 1
    th = s5.theta().flat
    assert np.array_equal(s5.mul(s5.inverse(th), th), s5.one)
