"""Finite commutative local rings presented over a maximal Galois subring.

A local ring R here is always one of
  * a Galois ring GR(p^s, mu) = Z_{p^s}[x]/(h), or
  * a univariate quotient Z_{p^s}[x]/(g) whose reduction mod p is a power
    of a single irreducible polynomial (the necessary and sufficient
    condition for the quotient to be local).

R is stored as a free algebra of rank gamma over its maximal Galois
subring R0 = GR(p^s, mu).  An element is a flat coordinate vector of
length D = gamma * mu over Z_{p^s}: index ell*mu + u holds the coefficient
of z_ell * y^u, where z_1..z_gamma is the R0-basis of R (z_1 = 1) and y
generates R0 over Z_{p^s}.  Multiplication is a bilinear form given by a
precomputed (D, D, D) structure tensor, so all arithmetic vectorizes over
numpy arrays with trailing axis D.

Rings are valid by construction.  Each constructor checks its input once:
p prime, s, mu >= 1, a monic modulus that is irreducible mod p (Galois
rings) or a power w^e of one irreducible mod p (quotients), and the rank
and residue-field caps.  Locality follows from those checks, and every
structure tensor is a power-basis tensor or its change of basis by an
inverted matrix, so nothing is re-verified when a ring is built.

Left kernels come from the unit-pivot kernel of ``modlin`` whenever the
kernel is free, and from the Howell form of the expansion over R0
otherwise.

Descriptors are immutable after construction and safely shareable across
threads; elements are plain values and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fq
from .chain import (ChainRing, RingElem, TensorAlgebra, check_rank,
                    check_residue_field, poly_string, power_basis_tensor)
from .errors import MalformedModulus, NotLocal, NotPrime, UnsupportedRing

ENUMERATION_CAP = 2 ** 16


@dataclass(frozen=True)
class GaloisRingParams:
    """Parameters of GR(p^s, mu): characteristic p^s, residue degree mu,
    monic modulus h of degree mu, irreducible mod p.  A plain record:
    :func:`construct_local_ring` checks it when it builds the ring."""

    p: int
    s: int
    mu: int
    h: tuple


@dataclass(frozen=True)
class QuotientSpec:
    """A quotient Z_{char}[x]/(poly) with char = p^s a prime power."""

    char: int
    poly: tuple


class LocalRingDesc(TensorAlgebra):
    """Descriptor of a finite commutative local ring (immutable once built).

    Carries the structure tensor, residue projection, maximal ideal data
    and the chain subring R0 used for linear-system solving.  Elements are
    plain numpy coordinate arrays; the methods broadcast over leading axes.

    The constructors below are the only intended callers: they check their
    input, and what they pass is valid by construction.  ``psi_mat`` maps
    flat coordinates to residue digits; its first mu rows are the identity,
    since the flat basis starts 1, y, ..., y^(mu-1) and the residue field
    is F_p[y]/(h mod p).
    """

    def __init__(self, chain: ChainRing, gamma, tensor, psi_mat,
                 maximal_ideal_gen_coords, spec_string, power_basis=True):
        super().__init__(chain.char, chain.p, chain.q, chain.s * gamma, tensor)
        self.chain = chain
        self.base = GaloisRingParams(chain.p, chain.s, chain.mu, tuple(chain.h.tolist()))
        self.s = chain.s
        self.mu = mu = chain.mu
        self.gamma = gamma
        self.size = self.char ** self.D
        self.psi_mat = np.asarray(psi_mat, dtype=np.int64) % self.p
        self.maximal_ideal_gens = [np.asarray(g, dtype=np.int64) % self.char
                                   for g in maximal_ideal_gen_coords]
        self.spec_string = spec_string
        self.power_basis = power_basis
        self.residue_field = fq.Fq(self.p, [c % self.p for c in self.base.h])
        self._psi_powers = self.p ** np.arange(mu, dtype=np.int64)
        # the residue map is x -> x[:mu] + x[mu:] @ psi[mu:]: its kernel has
        # the rows e_j - psi[j] (j >= mu), and e_u lifts the digit e_u
        self._psi_kernel = np.concatenate(
            [-self.psi_mat[mu:] % self.p, np.eye(self.D - mu, dtype=np.int64)], axis=1)
        self._psi_lift = np.eye(mu, self.D, dtype=np.int64)
        self._zvecs = np.zeros((gamma, self.D), dtype=np.int64)
        for ell in range(gamma):
            self._zvecs[ell, ell * mu] = 1

    # ------------------------------------------------------------------
    # arithmetic: TensorAlgebra's, bound again in this class's own dict so
    # that perfbench/spans.py can trace base-ring calls apart from S's

    mul = TensorAlgebra.mul
    matmul = TensorAlgebra.matmul
    inverse = TensorAlgebra.inverse

    def residue(self, a):
        """Residue-field image as digit vectors (..., mu) over F_p."""
        return (np.asarray(a) % self.p) @ self.psi_mat % self.p

    def residue_codes(self, a):
        """Residue-field image as integer codes (base-p digits)."""
        return self.residue(a) @ self._psi_powers

    def is_unit(self, a):
        """True where the residue image is nonzero."""
        if self.D == 1:
            return (np.asarray(a)[..., 0] % self.p) != 0
        return self.residue(np.asarray(a)).any(axis=-1)

    # ------------------------------------------------------------------
    # element construction and sampling

    def from_poly(self, coeffs) -> "RingElem":
        """Element from polynomial coefficients in the presentation variable
        (only meaningful for presentations whose flat basis is the power
        basis, which covers every ring the string grammar can produce)."""
        if not self.power_basis:
            raise UnsupportedRing("ring coordinates are not power-basis coordinates")
        coeffs = list(coeffs)
        if len(coeffs) > self.D:
            raise MalformedModulus("too many coefficients")
        flat = np.zeros(self.D, dtype=np.int64)
        flat[:len(coeffs)] = [int(c) % self.char for c in coeffs]
        return RingElem(self, flat)

    def rand_ideal(self, rng, shape=()):
        """Uniform over the maximal ideal (the kernel of the residue map)."""
        shape = tuple(shape)
        kdim = self._psi_kernel.shape[0]
        coeffs = rng.integers(0, self.p, size=shape + (kdim,), dtype=np.int64)
        head = coeffs @ self._psi_kernel % self.p
        tail = rng.integers(0, self.char // self.p, size=shape + (self.D,), dtype=np.int64)
        return (head + self.p * tail) % self.char

    def rand_with_residue(self, rng, digits):
        """Uniform over the elements whose residue has the given digit
        vector(s); digits has shape (..., mu)."""
        digits = np.asarray(digits, dtype=np.int64) % self.p
        head = digits @ self._psi_lift % self.p
        return (head + self.rand_ideal(rng, digits.shape[:-1])) % self.char

    def rand_unit_or_zero(self, rng, shape=()):
        """Uniform over R* union {0}: zero with probability 1/(|R*| + 1),
        else a uniform unit.  Past int64 (|R*| >= 2^63) uniform elements are
        redrawn until each is a unit or zero instead."""
        shape = tuple(shape)
        n_units = self.size - self.size // self.q
        if n_units >= 2 ** 63:
            return self.rand_accepted(
                rng, shape, lambda a: self.is_unit(a) | ~a.any(axis=-1))
        pick = rng.integers(0, n_units + 1, size=shape)
        out = self.rand_unit(rng, shape)
        return np.where(np.asarray(pick == 0)[..., None], 0, out)

    def enumerate_elements(self, cap=ENUMERATION_CAP):
        if self.size > cap:
            raise UnsupportedRing(f"ring too large to enumerate ({self.size} elements)")
        grids = np.meshgrid(*([np.arange(self.char, dtype=np.int64)] * self.D),
                            indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.D)

    # ------------------------------------------------------------------
    # expansion over the Galois subring R0 (for linear solving)

    def expand_matrix(self, a):
        """R0-expansion of an R-matrix for right systems A x = b.

        (r, c, D) -> (gamma*r, gamma*c, mu) with block
        M[(i,k),(j,l)] = coord_k(A_ij * z_l).
        """
        a = np.asarray(a, dtype=np.int64)
        r, c = a.shape[0], a.shape[1]
        g, mu = self.gamma, self.mu
        z = self.mul(a[:, :, None, :], self._zvecs[None, None, :, :])
        z = z.reshape(r, c, g, g, mu)  # axes: i, j, l, k, u
        return z.transpose(0, 3, 1, 2, 4).reshape(r * g, c * g, mu)

    def expand_rows(self, gens):
        """R0-expansion of the rows of ``gens`` (k, n, D): the coordinate
        rows of z_l * g_i, shape (gamma*k, gamma*n, mu), which span the
        row module over R0."""
        return np.swapaxes(self.expand_matrix(np.swapaxes(gens, 0, 1)), 0, 1)

    def expand_vector(self, b):
        b = np.asarray(b, dtype=np.int64)
        r = b.shape[0]
        return b.reshape(r * self.gamma, self.mu)

    def contract_vectors(self, x):
        x = np.asarray(x, dtype=np.int64)
        lead = x.shape[:-2]
        n = x.shape[-2] // self.gamma
        return x.reshape(lead + (n, self.D))

    def solve_right(self, a, b):
        """Complete solution of A x = b over R: (particular | None, kernel)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        part, ker = self.chain.solve(self.expand_matrix(a), self.expand_vector(b))
        particular = None if part is None else self.contract_vectors(part[None])[0]
        return particular, self.contract_vectors(ker)

    def left_kernel(self, m):
        """Generators of {x in R^k : x M = 0} for M of shape (k, n, D)."""
        return self._left_kernel(m)[0]

    def _left_kernel(self, m):
        """(generators, free) of {x in R^k : x M = 0} for M (k, n, D).

        The unit-pivot kernel on (M | I_k), with pivots in M's n columns,
        gives W = (U M[:, perm] | U) for an invertible U.  When W[r:, :n] = 0
        (no non-unit left below the r pivots) the kernel is free, with basis
        U[r:] = W[r:, n:], and free is True.  Otherwise the Howell form of
        M's expansion over R0 gives generators, which need not be a basis,
        and free is False.
        """
        from .modlin import _with_identity, unit_pivot_factor  # modlin imports this module
        m = np.asarray(m, dtype=np.int64)
        n = m.shape[1]
        w, _, r = unit_pivot_factor(self, _with_identity(self, m), ncols=n)
        if not w[r:, :n].any():
            return w[r:, n:], True
        return self.contract_vectors(self.chain.left_kernel(self.expand_rows(m))), False

    def solve_form(self, gens):
        """Cacheable Howell form for repeated solves of x . gens = v (same
        gens): :meth:`ChainRing.kernel_form` of the R0-expanded rows."""
        return self.chain.kernel_form(self.expand_rows(gens))

    def __repr__(self):
        return f"LocalRingDesc({self.spec_string})"

    def coords(self, flat):
        """(gamma, mu) grid of Galois-subring coordinates."""
        return np.asarray(flat).reshape(self.gamma, self.mu)

    @property
    def struct_consts(self):
        """Structure constants c[i][j][k] as R0-elements: (gamma, gamma, gamma, mu)
        with z_i * z_j = sum_k c[i][j][k] z_k."""
        t = self.mult_tensor.reshape(self.gamma, self.mu, self.gamma, self.mu,
                                     self.gamma, self.mu)
        return t[:, 0, :, 0]


# ---------------------------------------------------------------------------
# constructors


def _galois(chain: ChainRing, spec) -> LocalRingDesc:
    """The Galois ring ``chain`` as a local ring: gamma = 1, maximal ideal (p)."""
    mgen = np.zeros(chain.mu, dtype=np.int64)
    mgen[0] = chain.p
    return LocalRingDesc(chain, 1, chain.mult_tensor, np.eye(chain.mu, dtype=np.int64),
                         [mgen], spec)


def galois_ring(p: int, s: int, mu: int = 1, h=None) -> LocalRingDesc:
    """The Galois ring GR(p^s, mu); gamma = 1, maximal ideal (p)."""
    chain = ChainRing(p, s, mu, h)
    char, h_red = chain.char, chain.h.tolist()
    if mu == 1:
        spec = f"Z{char}"
    elif h is None or h_red == fq.smallest_irreducible(fq.Fq(p), mu):
        spec = f"GR({char},{mu})"
    else:
        # grammar-compatible form that pins the non-default modulus
        spec = f"Z{char}[x]/({poly_string(h_red, spec=True)})"
    return _galois(chain, spec)


def Zmod(q: int) -> LocalRingDesc:
    """Z_q for a prime power q."""
    pp = fq.prime_power(q)
    if pp is None:
        raise NotLocal(f"Z_{q} is not local (composite modulus); "
                       "use the product-ring constructors")
    p, s = pp
    return galois_ring(p, s, 1)


def quotient_ring(p: int, s: int, g) -> LocalRingDesc:
    """Z_{p^s}[x]/(g) for monic g whose reduction mod p is w^e with w
    irreducible; raises NotLocal otherwise."""
    if not fq.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    char = p ** s
    g = [int(c) % char for c in g]
    g = g[:max(i for i, c in enumerate(g) if c) + 1] if any(g) else [0]
    d = len(g) - 1
    if d < 1 or g[-1] != 1:
        raise MalformedModulus("quotient modulus must be monic of degree >= 1")
    check_rank(d, f"Z{char}[x]/(g) with deg g = {d}")
    shape = fq.power_of_irreducible(fq.Fq(p), [c % p for c in g])
    if shape is None:
        raise NotLocal(f"{poly_string(g, spec=True)} mod {p} is not a power of a single "
                       "irreducible; the quotient is not local")
    w, e = shape
    mu = len(w) - 1
    spec = f"Z{char}[x]/({poly_string(g, spec=True)})"
    check_residue_field(p, mu, spec)
    if e == 1:
        # the quotient is itself a Galois ring with modulus g
        return _galois(ChainRing(p, s, mu, g), spec)
    if mu == 1:
        # R0 = Z_{p^s}; power basis 1, xi, ..., xi^(d-1)
        a = (-w[0]) % p  # w = x - a
        psi = np.array([[pow(int(a), i, p)] for i in range(d)], dtype=np.int64)
        p_gen = np.zeros(d, dtype=np.int64)
        p_gen[0] = p
        w_gen = np.zeros(d, dtype=np.int64)
        w_gen[0] = (-a) % char
        w_gen[1] = 1
        return LocalRingDesc(ChainRing(p, s, 1), e, power_basis_tensor(g, char), psi,
                             [p_gen, w_gen], spec)
    return _quotient_ring_general(p, s, g, w, e, spec)


def _quotient_ring_general(p, s, g, w, e, spec):
    """Quotient with residue degree mu > 1 and nilpotency e > 1.

    Finds the maximal Galois subring by Hensel-lifting a root y of the
    lifted w inside the power-basis presentation, then rebases to the
    basis {w(xi)^i * y^u}.
    """
    from .modlin import gauss_inverse  # modlin imports this module

    char = p ** s
    d = len(g) - 1
    mu = len(w) - 1

    # residue map in the power basis, xi |-> xbar in F_p[x]/(w): row i of
    # xbar_pows holds the digits of xbar^i (xbar has code p)
    fqw = fq.Fq(p, w)
    xbar_pows = fqw.digits([fqw.pow(p, i) for i in range(d)])

    # the quotient in its power basis; its maximal ideal (p, w) has
    # nilpotency index at most s*e, and its units have nonzero residue
    pw = TensorAlgebra(char, p, fqw.q, s * e, power_basis_tensor(g, char))
    pw.is_unit = lambda a: ((np.asarray(a) % p) @ xbar_pows % p).any(axis=-1)

    def peval(poly, x):
        # evaluate an integer-coefficient polynomial at a power-basis element
        acc = pw.zero
        for c in reversed(poly):
            acc = pw.mul(acc, x)
            acc[0] = (acc[0] + c) % char
        return acc

    h = [int(c) % char for c in w]  # lift of w with coefficients in {0..p-1}
    hprime = [(i * h[i]) % char for i in range(1, len(h))]
    y = np.zeros(d, dtype=np.int64)
    y[1] = 1  # start at xi
    for _ in range(8 * s * e):
        fy = peval(h, y)
        if not fy.any():
            break
        y = (y - pw.mul(fy, pw.inverse(peval(hprime, y)))) % char
    else:  # pragma: no cover
        raise NotLocal("Hensel lifting of the Galois subring failed")

    w_of_xi = peval([c % char for c in w], np.array([0, 1] + [0] * (d - 2), dtype=np.int64))
    # basis elements z_i * y^u in power coordinates
    cols = []
    z = pw.one
    for i in range(e):
        yu = pw.one
        for u in range(mu):
            cols.append(pw.mul(z, yu))
            yu = pw.mul(yu, y)
        z = pw.mul(z, w_of_xi)
    c_mat = np.array(cols, dtype=np.int64).T  # power coords of new basis, columns
    c_inv = gauss_inverse(ChainRing(p, s, 1), c_mat[..., None], exc=NotLocal)[..., 0]

    dd = d
    new_tensor = np.zeros((dd, dd, dd), dtype=np.int64)
    basis_power = [np.array(col, dtype=np.int64) for col in np.array(cols)]
    for a_i in range(dd):
        for b_i in range(a_i, dd):
            prod = pw.mul(basis_power[a_i], basis_power[b_i])
            coords = c_inv @ prod % char
            new_tensor[a_i, b_i] = coords
            new_tensor[b_i, a_i] = coords
    psi = np.zeros((dd, mu), dtype=np.int64)
    for u in range(mu):
        psi[u, u] = 1  # z_1 y^u |-> xbar^u; z_{i>1} blocks map to 0
    p_gen = (c_inv @ np.array([p] + [0] * (d - 1), dtype=np.int64)) % char
    w_gen = (c_inv @ w_of_xi) % char
    return LocalRingDesc(ChainRing(p, s, mu, h), e, new_tensor, psi, [p_gen, w_gen], spec,
                         power_basis=False)


def construct_local_ring(spec) -> LocalRingDesc:
    """Build a validated local ring from construction data.

    Accepts a GaloisRingParams, a QuotientSpec, or a plain integer q
    (meaning Z_q with q a prime power).
    """
    if isinstance(spec, LocalRingDesc):
        return spec
    if isinstance(spec, GaloisRingParams):
        return galois_ring(spec.p, spec.s, spec.mu, list(spec.h))
    if isinstance(spec, QuotientSpec):
        pp = fq.prime_power(spec.char)
        if pp is None:
            raise NotLocal(f"coefficient modulus {spec.char} is not a prime power")
        p, s = pp
        return quotient_ring(p, s, list(spec.poly))
    if isinstance(spec, (int, np.integer)):
        return Zmod(int(spec))
    raise UnsupportedRing(f"cannot build a local ring from {spec!r}")
