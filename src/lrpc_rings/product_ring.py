"""Arbitrary finite commutative rings as products of local rings.

A finite commutative ring decomposes as R = R_(1) x ... x R_(rho) with
local factors; this module represents such rings explicitly as tuples of
local coordinates (Z_N input is converted at the boundary by the Chinese
remainder theorem) and decodes LRPC codes over them by running the
local-ring decoder factor by factor and recombining.

Product elements, vectors and matrices are tuples holding one coordinate
array per factor; the j-th projection is plain component access.  Factor
decoders are independent (embarrassingly parallel); recombination is a
pure fold.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import fq, specparse
from .errors import (ExtensionMismatch, IndexOutOfRange, RingMismatch,
                     UnsupportedRing)
from .extension import ExtensionDesc
# decode_local is unused here: a module attribute that perfbench/test_spans.py patches
from .lrpc import (CodeParams, DecodingFailure, LrpcCode, _as_svector,  # noqa: F401
                   decode_batch, decode_local, encode, generate_codes, sample_errors,
                   syndrome)
from .modlin import Submodule, free_module_test, module_rank
from .rings import LocalRingDesc, Zmod


class ProductRingDesc:
    """A finite commutative ring given by its local factors."""

    def __init__(self, factors: Sequence[LocalRingDesc], modulus: Optional[int] = None):
        if not factors:
            raise UnsupportedRing("a product ring needs at least one factor")
        self.factors = list(factors)
        self.rho = len(self.factors)
        self.modulus = modulus
        self.spec_string = " x ".join(r.spec_string for r in self.factors)

    def __repr__(self):
        return f"ProductRingDesc({self.spec_string})"

    # -- Z_N boundary conversion --

    def to_residues(self, x: int):
        """CRT forward map Z_N -> product of Z_{p^e} (requires modulus)."""
        if self.modulus is None:
            raise UnsupportedRing("ring was not built from a composite modulus")
        return tuple(int(x) % r.char for r in self.factors)

    def from_residues(self, residues):
        """CRT inverse map: the unique x mod N with the given residues."""
        if self.modulus is None:
            raise UnsupportedRing("ring was not built from a composite modulus")
        n = self.modulus
        x = 0
        for r, res in zip(self.factors, residues):
            m_i = n // r.char
            x += int(res) * m_i * pow(m_i, -1, r.char)
        return x % n

    def coerce(self, v):
        """Product element from an int or a tuple of factor coercibles."""
        if isinstance(v, (int, np.integer)):
            return tuple(r.coerce(int(v)) for r in self.factors)
        if len(v) != self.rho:
            raise RingMismatch(f"expected {self.rho} factor components")
        return tuple(r.coerce(c) for r, c in zip(self.factors, v))


def decompose_ring(spec) -> ProductRingDesc:
    """Decompose a ring specification into local factors.

    Accepts: a composite (or prime-power) integer N for Z_N, a
    LocalRingDesc, a list of LocalRingDesc, or a product spec string.
    """
    if isinstance(spec, ProductRingDesc):
        return spec
    if isinstance(spec, LocalRingDesc):
        return ProductRingDesc([spec])
    if isinstance(spec, (int, np.integer)):
        n = int(spec)
        if n < 2:
            raise UnsupportedRing(f"Z_{n} is not a finite ring spec")
        factors = [Zmod(p ** e) for p, e in fq.factor_into_prime_powers(n)]
        return ProductRingDesc(factors, modulus=n)
    if isinstance(spec, (list, tuple)):
        return ProductRingDesc([decompose_ring(s).factors[0] if not isinstance(s, LocalRingDesc) else s
                                for s in spec])
    if isinstance(spec, str):
        cur = specparse._Cursor(specparse.tokenize(spec), spec)
        factors, modulus = specparse.parse_product(cur)
        if cur.peek() is not None:
            raise UnsupportedRing(f"trailing input in ring spec {spec!r}")
        return ProductRingDesc(factors, modulus=modulus)
    raise UnsupportedRing(f"cannot decompose {spec!r}")


class ProductExtensionDesc:
    """Degree-m Galois extensions of every factor, S = S_(1) x ... x S_(rho)."""

    def __init__(self, ring: ProductRingDesc, m: int, f_int_poly=None):
        self.ring = ring
        self.m = m
        self.rho = ring.rho
        self.factors = []
        for r in ring.factors:
            if f_int_poly is None:
                self.factors.append(ExtensionDesc(r, m))
            else:
                f_arr = np.array([r.coerce(int(c)) for c in f_int_poly])
                self.factors.append(ExtensionDesc(r, m, f=f_arr))
        self.spec_string = f"{ring.spec_string} ext m={m}"

    def __repr__(self):
        return f"ProductExtensionDesc({self.spec_string})"

    def rand_vector(self, rng, length):
        return tuple(ext.rand(rng, (length,)) for ext in self.factors)

    def add(self, a, b):
        _check_components(self, a, b)
        return tuple(ext.add(x, y) for ext, x, y in zip(self.factors, a, b))

    def equal(self, a, b) -> bool:
        _check_components(self, a, b)
        return all(np.array_equal(x % ext.char, y % ext.char)
                   for ext, x, y in zip(self.factors, a, b))


def _check_components(ext: ProductExtensionDesc, *parts):
    """Raise ExtensionMismatch unless each of ``parts`` holds exactly one
    component per factor of ``ext``."""
    for part in parts:
        if len(part) != ext.rho:
            raise ExtensionMismatch(f"expected {ext.rho} factor components, got {len(part)}")


def project(obj, j: int):
    """The j-th projection (1-based) of a product element, vector, matrix,
    submodule or code."""
    if isinstance(obj, ProductSubmodule):
        seq = obj.factors
    elif isinstance(obj, ProductLrpcCode):
        seq = obj.codes
    elif isinstance(obj, (tuple, list)):
        seq = obj
    else:
        raise UnsupportedRing(f"cannot project {type(obj).__name__}")
    if not 1 <= j <= len(seq):
        raise IndexOutOfRange(f"factor index {j} outside 1..{len(seq)}")
    return seq[j - 1]


class ProductSubmodule:
    """A submodule of (R_(1) x ... x R_(rho))^n given by aligned factor
    generator matrices (the projections of a common generator list)."""

    def __init__(self, factors: Sequence[Submodule]):
        if not factors:
            raise UnsupportedRing("need at least one factor module")
        ambients = {s.ambient for s in factors}
        if len(ambients) != 1:
            raise ExtensionMismatch("factor modules have mismatched ambients")
        self.factors = list(factors)
        self.ambient = factors[0].ambient


def localized_rank(n_mod: ProductSubmodule):
    """(rank, free_rank, is_free) of a product-ring submodule.

    Rank is the maximum of the factor ranks, free rank the minimum of the
    factor free ranks; the module is free iff every factor is free of the
    same rank.
    """
    ranks = [module_rank(s) for s in n_mod.factors]
    frees = [free_module_test(s) for s in n_mod.factors]
    frks = {r for r, _ in frees}
    is_free = all(free for _, free in frees) and len(frks) == 1
    return max(ranks), min(frks), is_free


class ProductDecodingFailure:
    """Joint failure: the set of failing factor indices (1-based) with
    their line-tagged local failures."""

    __slots__ = ("failures",)

    def __init__(self, failures: dict):
        self.failures = failures

    def __repr__(self):
        inner = ", ".join(f"{j}: line {f.line}" for j, f in sorted(self.failures.items()))
        return f"ProductDecodingFailure({{{inner}}})"


class ProductLrpcCode:
    """An LRPC code over a product ring: one local code per factor with
    shared (n, k, lambda); the combined parity-check matrix is the tuple
    of the factor matrices (its j-th projection)."""

    def __init__(self, ext: ProductExtensionDesc, params: CodeParams,
                 codes: Sequence[LrpcCode]):
        if len(codes) != ext.rho:
            raise ExtensionMismatch("need one local code per factor")
        self.ext = ext
        self.params = params
        self.codes = list(codes)

    @property
    def H(self):
        return tuple(c.H for c in self.codes)

    def __repr__(self):
        p = self.params
        return (f"ProductLrpcCode(n={p.n}, k={p.k}, lambda={p.lam}, "
                f"ring={self.ext.ring.spec_string})")


def generate_product_code(params: CodeParams, ext: ProductExtensionDesc,
                          rng) -> ProductLrpcCode:
    """Independent local-code generation per factor, from one generator:
    :func:`generate_product_codes` on ``rng`` alone."""
    return generate_product_codes(params, ext, [rng])[0]


def generate_product_codes(params: CodeParams, ext: ProductExtensionDesc,
                           rngs) -> list:
    """The product code of every generator of ``rngs``: factor by factor,
    :func:`lrpc.generate_codes` makes the factor's code of every generator
    in lockstep, so each generator draws its factor codes in factor order,
    as one generate_code call per factor would.  A generator that runs out
    of a budget draws no further factor, and neither do those after it;
    the GenerationFailed of the first such generator in the list is
    raised."""
    per_factor, failure = [], None
    for fac in ext.factors:
        codes, fail = generate_codes(params, fac, rngs)
        per_factor.append(codes)
        if fail is not None:  # it stops at an earlier generator than any failure before
            failure, rngs = fail, rngs[:len(codes)]
    if failure is not None:
        raise failure
    return [ProductLrpcCode(ext, params, codes) for codes in zip(*per_factor)]


def _factor_codes(code):
    """(ext, the code of each factor) for a product code, or for a list of
    product codes, one per word of a stack, where each factor's code is the
    list of the words' codes in that factor, which :func:`lrpc.encode` and
    :func:`lrpc.decode_batch` read as one stack."""
    if isinstance(code, ProductLrpcCode):
        return code.ext, code.codes
    if not len(code):
        raise ExtensionMismatch("a stack of codes needs at least one code")
    return code[0].ext, [list(codes) for codes in zip(*(c.codes for c in code))]


def encode_product(code, msg) -> tuple:
    """Per-factor codewords of a per-factor message or stack of messages;
    ``code`` is a ProductLrpcCode or a list of them, one per message of
    per-factor stacks (B, k, D_S)."""
    ext, codes = _factor_codes(code)
    _check_components(ext, msg)
    return tuple(encode(c, m) for c, m in zip(codes, msg))


def syndrome_product(code: ProductLrpcCode, received) -> tuple:
    _check_components(code.ext, received)
    return tuple(syndrome(c, r) for c, r in zip(code.codes, received))


def sample_error_product(ext: ProductExtensionDesc, n: int, t_per_factor,
                         rng) -> tuple:
    """Per-factor uniform errors with free support of rank t_(j):
    :func:`sample_errors_product` on the one generator ``rng``."""
    return tuple(e[0] for e in sample_errors_product(ext, n, t_per_factor, [rng]))


def sample_errors_product(ext: ProductExtensionDesc, n: int, t_per_factor,
                          rngs) -> tuple:
    """The per-factor stacks (B, n, D_S) of the errors that
    :func:`sample_error_product` draws from each generator of ``rngs``:
    factor by factor, :func:`lrpc.sample_errors` samples the factor's
    errors of every generator in lockstep, so each generator draws its
    factor errors in factor order.  A generator that runs out of a budget
    draws no further factor, and neither do those after it; the
    GenerationFailed of the first such generator in the list is raised."""
    if isinstance(t_per_factor, int):
        t_per_factor = [t_per_factor] * ext.rho
    if len(t_per_factor) != ext.rho:
        raise ExtensionMismatch("need one error rank per factor")
    errs, failure = [], None
    for fac, t in zip(ext.factors, t_per_factor):
        err, fail = sample_errors(fac, n, t, rngs)
        errs.append(err)
        if fail is not None:  # it stops at an earlier generator than any failure before
            failure, rngs = fail, rngs[:len(err)]
    if failure is not None:
        raise failure
    return tuple(errs)


def decode_product(code: ProductLrpcCode, received):
    """Run the local-ring decoder on every projection and recombine:
    :func:`decode_product_batch` on a stack of the one word ``received``,
    which holds one vector over S_(j) per factor, in any form that
    :func:`lrpc.decode_local` takes.

    Succeeds iff every factor decoder succeeds; the recombined output is
    the unique codeword whose j-th projection is the j-th local output.
    Failures carry the failing factor indices and their line tags.
    """
    _check_components(code.ext, received)
    [out] = decode_product_batch(code, tuple(_as_svector(c.ext, r, c.params.n)[None]
                                             for c, r in zip(code.codes, received)))
    return out


def decode_product_batch(code, received) -> list:
    """:func:`decode_product` of every word of a stack: ``received`` holds
    one stack (B, n, D_S) per factor, and the list of the B results, in
    order.  ``code`` is the words' ProductLrpcCode, or the list of their B
    product codes, one per word, and each word is decoded by its own.
    Every factor's stack, of any size, goes through one
    :func:`lrpc.decode_batch` call."""
    ext, codes = _factor_codes(code)
    _check_components(ext, received)
    per_factor = [decode_batch(c, r) for c, r in zip(codes, received)]
    out = []
    for results in zip(*per_factor):
        failures = {j: res for j, res in enumerate(results, start=1)
                    if isinstance(res, DecodingFailure)}
        out.append(ProductDecodingFailure(failures) if failures else results)
    return out
