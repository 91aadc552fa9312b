"""Prime- and extension-field helpers used for residue computations.

Residue fields F_q with q = p^mu appear as quotients R/m of the local rings
in this package.  Field elements are encoded as integers in [0, q): the
base-p digits of the code are the coefficients of the representing
polynomial modulo the field's defining irreducible w(x).  The prime field
is ``Fq(p)``, where the code of an element is the element itself.

Polynomials over a field are lists of element codes, ascending degree;
the routines below take the field as their first argument.  Matrices over
F_q are reduced over F_p, by the vectorized routines ``rank_mod_p`` and
``rref_mod_p``; over F_2 these XOR rows packed into Python ints
(``pack_rows``), as the residue-first elimination of ``modlin`` does.  For
odd p every matrix is a stack, of one if need be, reduced by
``unit_pivot_rref``: one step per pivot for the whole stack.  The same
kernel, with char = p^s, is ``modlin``'s unit-pivot Jordan form over
Z_(p^s).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import NotPrime

# ---------------------------------------------------------------------------
# primes


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def prime_power(n: int):
    """Return (p, e) with n = p^e, or None if n is not a prime power."""
    if n < 2:
        return None
    for e in range(1, n.bit_length()):
        r = _iroot(n, e)
        if r ** e == n and is_prime(r):
            return r, e
    return None


def _rho_factor(n: int) -> int:
    """A nontrivial factor of a composite n (Pollard's rho in Brent's
    variant, gcds batched 128 steps at a time)."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ValueError(f"{n} is prime")  # pragma: no cover


def factor_into_prime_powers(n: int) -> list[tuple[int, int]]:
    """Factor n >= 2 into [(p, e), ...] with p ascending: trial division by
    the integers below 1000, then Pollard-Brent rho on the cofactor."""
    counts = {}
    m = n
    for p in range(2, 1000):
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    rest = [m] if m > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return sorted(counts.items())


# ---------------------------------------------------------------------------
# polynomials over a field F (lists of element codes, ascending degree)


def trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def poly_sub(F, a, b):
    n = max(len(a), len(b))
    return trim([F.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                 for i in range(n)])


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return trim(out)


def poly_mod(F, a, m):
    """Remainder of a modulo m (m need not be monic; leading coeff inverted)."""
    a = trim(a)
    m = trim(m)
    dm = len(m) - 1
    inv_lead = F.inv(m[-1])
    while a and len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        c = F.mul(a[-1], inv_lead)
        for i, mi in enumerate(m):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, mi))
        a = trim(a)
    return a


def poly_gcd(F, a, b):
    """Monic gcd of a and b."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(inv, c) for c in a]
    return a


def poly_powmod(F, base, exp, m):
    result = [1]
    base = poly_mod(F, base, m)
    while exp:
        if exp & 1:
            result = poly_mod(F, poly_mul(F, result, base), m)
        base = poly_mod(F, poly_mul(F, base, base), m)
        exp >>= 1
    return result


def irreducible(F, poly) -> bool:
    """Rabin irreducibility test over F."""
    poly = trim(poly)
    n = len(poly) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    # x^(q^n) == x mod poly
    if poly_sub(F, poly_powmod(F, x, F.q ** n, poly), x):
        return False
    for d in sorted({r for r, _ in factor_into_prime_powers(n)}):
        t = poly_powmod(F, x, F.q ** (n // d), poly)
        if len(poly_gcd(F, poly_sub(F, t, x), poly)) > 1:
            return False
    return True


def power_of_irreducible(F, gbar):
    """Decompose gbar = w^e over F with w irreducible.

    Returns (w, e) or None when gbar has at least two distinct irreducible
    factors.  Uses distinct-degree gcds: scanning mu upward, the first
    nontrivial gcd(gbar, x^(q^mu) - x) collects exactly the distinct
    degree-mu factors.
    """
    gbar = trim(gbar)
    deg = len(gbar) - 1
    if deg <= 0:
        return None
    x = t = [0, 1]
    for mu in range(1, deg + 1):
        t = poly_powmod(F, t, F.q, gbar)  # x^(q^mu) by one more Frobenius
        g = poly_gcd(F, poly_sub(F, t, x), gbar)
        dg = len(g) - 1
        if dg <= 0:
            continue
        if dg != mu:
            return None  # >= 2 distinct factors of degree mu
        if deg % mu:
            return None
        w = g
        # verify exact power: gbar == w^e up to the (monic) normalization
        e = deg // mu
        acc = [1]
        for _ in range(e):
            acc = poly_mul(F, acc, w)
        if poly_sub(F, gbar, [F.mul(gbar[-1], c) for c in acc]):
            return None
        return w, e
    return None


def smallest_irreducible(F, deg):
    """The monic irreducible of the given degree over F whose non-leading
    coefficient codes, read as the base-q digits of an integer, are
    smallest; x itself when deg = 1."""
    q = F.q
    for code in range(q ** deg):
        if code % q == 0 and deg > 1:
            continue  # divisible by x
        poly = [code // q ** i % q for i in range(deg)] + [1]
        if irreducible(F, poly):
            return poly
    raise NotPrime(f"no irreducible of degree {deg} over F_{q}")  # unreachable for prime p


# ---------------------------------------------------------------------------
# F_p matrix routines (vectorized; F_2 on rows packed into Python ints)


def pack_rows(bits) -> list:
    """The rows of a 0/1 matrix (rows, cols) as Python ints: bit j of the
    i-th int is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


def unpack_rows(rows, width) -> np.ndarray:
    """The int64 0/1 matrix (len(rows), width) whose rows ``pack_rows``
    would pack into ``rows``."""
    nbytes = (width + 7) // 8
    data = b"".join(x.to_bytes(nbytes, "little") for x in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").astype(np.int64)


def _rref_mod_2(rows) -> dict:
    """RREF over F_2 of packed rows: {pivot bit: row}.  Each row has its
    pivot as its lowest bit and no other row's pivot bit, so the rows in
    order of their pivot bits are the unique RREF."""
    piv = {}
    for x in rows:
        for bit, y in piv.items():
            if x & bit:
                x ^= y
        if x:
            low = x & -x
            for bit, y in piv.items():
                if y & low:
                    piv[bit] = y ^ x
            piv[low] = x
    return piv


def rank_mod_p(mat, p):
    """Rank of an integer matrix over F_p, or the ranks (B,) of a stack
    (B, rows, cols): the pivot count of :func:`unit_pivot_rref` for odd p.
    Over F_2 the packed rows of each matrix's shorter side are reduced one
    matrix at a time, which beat the stacked steps at every stack size up
    to 16 (10 x 2, 3 x 10 and 10 x 20 matrices)."""
    m = np.asarray(mat, dtype=np.int64) % p
    if m.ndim == 2:
        return int(rank_mod_p(m[None], p)[0])
    if p > 2:
        return unit_pivot_rref(m, p, p, m.shape[2])[2]
    if m.shape[1] > m.shape[2]:
        m = m.swapaxes(1, 2)
    rows = pack_rows(m.reshape(-1, m.shape[2]))
    s = m.shape[1]
    return np.array([len(_rref_mod_2(rows[i * s:i * s + s])) for i in range(len(m))],
                    dtype=np.intp)


def rref_mod_p(mat, p):
    """Reduced row echelon form over F_p: (rref, pivot_columns) of a
    matrix, or (m, pivots, rank) of a stack (B, rows, cols) as
    :func:`unit_pivot_rref` returns them.  Over F_2 the rows of the whole
    stack are packed once and each matrix is reduced by :func:`_rref_mod_2`;
    for odd p every stack, and a matrix as a stack of one, takes the stacked
    steps.  The RREF is unique, so both paths give the same result."""
    m = np.asarray(mat, dtype=np.int64) % p
    if m.ndim == 2:
        m, pivots, rank = rref_mod_p(m[None], p)
        return m[0, :rank[0]], pivots[0, :rank[0]].tolist()
    B, rows, cols = m.shape
    if p > 2:
        return unit_pivot_rref(m, p, p, cols)
    rank = np.zeros(B, dtype=np.intp)
    pivots = np.zeros((B, min(rows, cols)), dtype=np.intp)
    packed = pack_rows(m.reshape(-1, cols))
    reduced = []
    for b in range(B):
        piv = _rref_mod_2(packed[b * rows:b * rows + rows])
        bits = sorted(piv)
        reduced += [piv[x] for x in bits] + [0] * (rows - len(bits))
        rank[b] = len(bits)
        pivots[b, :rank[b]] = [x.bit_length() - 1 for x in bits]
    return unpack_rows(reduced, cols).reshape(m.shape), pivots, rank


def unit_pivot_rref(m, p, char, ncols):
    """Gauss-Jordan elimination with unit pivots of every matrix of a stack
    m (B, rows, cols) of integers in [0, char), char a power of the prime
    p, in place: (m, pivots, rank).  A unit is an entry not divisible by p.

    Step h runs on every matrix still live, each of rank h so far.  Each
    pivots on its leftmost column below ``ncols`` with a unit in rows h..,
    and on the topmost unit row there, which is swapped to row h, scaled
    to a leading 1 by its Python-int inverse mod char, and clears the
    column in every other row.  No column swaps are needed: earlier pivot
    columns are 0 in rows h.., and a column with no unit in those rows
    never gains one.  A matrix with no unit left drops out, so rank[b] is
    the number of steps m[b] stayed live and pivots[b, :rank[b]] are its
    pivot columns, ascending.  Over F_p (char == p) the first rank[b] rows
    of m[b] are its RREF and the rows below are 0.
    """
    B, rows = m.shape[:2]
    k = min(rows, ncols)
    pivots = np.zeros((B, k), dtype=np.intp)
    rank = np.zeros(B, dtype=np.intp)
    live = ar = np.arange(B)
    x, pc = m, pivots  # the live matrices and their pivots: m itself while all are live
    for h in range(k):
        below = x[:, h:]
        # the first unit of each block in column-major order: lowest column, then topmost row
        units = np.remainder(below[:, :, :ncols].swapaxes(1, 2), p, order="C") != 0
        c, i = np.divmod(units.reshape(len(x), ncols * (rows - h)).argmax(axis=1), rows - h)
        inv = [pow(d, -1, char) if d % p else 0 for d in below[ar, i, c].tolist()]
        if 0 in inv:  # no unit left in these matrices
            keep = np.array(inv) != 0
            done = ~keep
            rank[live[done]] = h
            if x is not m:
                m[live[done]] = x[done]
                pivots[live[done]] = pc[done]
            live, x, pc, c, i = live[keep], x[keep], pc[keep], c[keep], i[keep]
            if not live.size:
                return m, pivots, rank
            inv = [d for d in inv if d]
            ar = np.arange(len(live))
            below = x[:, h:]
        if i.any():
            top = below[ar, i]
            below[ar, i] = x[:, h]
        else:
            top = x[:, h]
        piv = top * np.array(inv, dtype=np.int64)[:, None]
        piv %= char
        x[:, h] = piv
        coefs = x[ar, :, c]
        coefs[:, h] = 0
        x -= coefs[:, :, None] * piv[:, None]
        x %= char
        pc[:, h] = c
    rank[live] = k
    if x is not m:
        m[live] = x
        pivots[live] = pc
    return m, pivots, rank


# ---------------------------------------------------------------------------
# F_q = F_p[x]/(w), elements as integer codes (base-p digit vectors)


class Fq:
    """Small extension field F_{p^mu} with integer-coded elements; Fq(p)
    is the prime field."""

    def __init__(self, p: int, w=(0, 1)):
        self.p = p
        self.w = trim(w)
        self.mu = mu = len(self.w) - 1
        self.q = p ** mu
        self.prime = self if mu == 1 else Fq(p)
        self._place = p ** np.arange(mu, dtype=np.int64)
        # digits of x^j mod w for j < 2 mu - 1; _shift[u, k] holds those of
        # x^(u+k), so that digits(a x^u) = digits(a) @ _shift[u]
        pows = self.digits([self.encode(poly_mod(self.prime, [0] * j + [1], self.w))
                            for j in range(2 * mu - 1)])
        self._xpows = pows.tolist()
        self._shift = pows[np.add.outer(np.arange(mu), np.arange(mu))]

    def __repr__(self):
        return f"Fq(p={self.p}, mu={self.mu})"

    def encode(self, digits) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + int(d) % self.p
        return code

    def decode(self, code: int):
        out = []
        c = int(code)
        for _ in range(self.mu):
            out.append(c % self.p)
            c //= self.p
        return out

    def digits(self, codes):
        """Digit vectors (..., mu) of an array of codes (...)."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self._place % self.p

    def add(self, a, b):
        if self.mu == 1:
            return (a + b) % self.p
        return self.encode([(x + y) % self.p for x, y in zip(self.decode(a), self.decode(b))])

    def sub(self, a, b):
        if self.mu == 1:
            return (a - b) % self.p
        return self.encode([(x - y) % self.p for x, y in zip(self.decode(a), self.decode(b))])

    def mul(self, a, b):
        if self.mu == 1:
            return a * b % self.p
        conv = [0] * (2 * self.mu - 1)
        db = self.decode(b)
        for i, ai in enumerate(self.decode(a)):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] += ai * bj
        out = conv[:self.mu]
        for j in range(self.mu, 2 * self.mu - 1):  # fold x^j back below x^mu
            if conv[j]:
                out = [o + conv[j] * r for o, r in zip(out, self._xpows[j])]
        return self.encode(out)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_q")
        if self.mu == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- matrices of integer-coded elements, reduced over F_p --

    def expand(self, mat):
        """The F_p image of an F_q matrix of codes (r, c), or of each matrix
        of a stack (..., r, c): row i becomes the digit rows of x^u A[i, :]
        for u < mu, shape (..., r*mu, c*mu).  Its row space is the F_q row
        space of A, so its F_p rank is mu times the F_q rank of A."""
        a = self.digits(mat)  # (..., r, c, mu)
        (r, c), mu = a.shape[-3:-1], self.mu
        out = a[..., :, None, :, :] @ self._shift % self.p
        return out.reshape(a.shape[:-3] + (r * mu, c * mu))

    def matrix_rank(self, mat):
        """Rank over F_q of a matrix of codes, or the ranks (B,) of a stack
        (B, r, c)."""
        if self.mu == 1:
            return rank_mod_p(mat, self.p)
        return rank_mod_p(self.expand(mat), self.p) // self.mu

    def rref(self, mat):
        """RREF over F_q as digit vectors: ((r, cols, mu), pivot columns) of
        a matrix, or (digits (B, r, cols, mu), pivots, rank) of a stack
        (B, r, cols), laid out as :func:`rref_mod_p` lays out a stack.  The
        rows are every mu-th row of the F_p RREF of the expansion, where the
        pivots of row i are the columns mu*piv_i + u, u < mu."""
        mat = np.asarray(mat)
        if mat.ndim == 2:
            digits, pivots, rank = self.rref(mat[None])
            return digits[0, :rank[0]], pivots[0, :rank[0]].tolist()
        if self.mu == 1:
            rows, pivots, rank = rref_mod_p(mat, self.p)
            return rows[..., None], pivots, rank
        rows, pivots, rank = rref_mod_p(self.expand(mat), self.p)
        return (rows[:, ::self.mu].reshape(mat.shape + (self.mu,)),
                pivots[:, ::self.mu] // self.mu, rank // self.mu)
