"""Parser for ring/extension specification strings.

Grammar (whitespace-insensitive):

    spec     := product 'ext' 'm' '=' INT ['f' '=' poly]
    product  := atom ('x' atom)*
    atom     := 'Z' INT ['[x]/(' poly ')'] | 'GR' '(' INT ',' INT ')'
    poly     := ['-'] term (('+'|'-') term)*
    term     := INT ['*' 'x' ['^' INT]] | 'x' ['^' INT]

`Z N` with composite N is decomposed into its prime-power factors.  Parse
errors carry the offending position and the expected token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import fq
from .errors import ParseError, UnsupportedRing
from .rings import LocalRingDesc, Zmod, galois_ring, quotient_ring

_TOKEN_RE = re.compile(r"\s*(?:(?P<INT>\d+)|(?P<NAME>[A-Za-z]+)|(?P<SYM>[\[\]()/^*+=,-]))")


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        for kind in ("INT", "NAME", "SYM"):
            val = m.group(kind)
            if val is not None:
                tokens.append(Token(kind, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect(self, kind, value=None, expected=None):
        tok = self.peek()
        want = expected or (value if value else kind)
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text), want)
        if tok.kind != kind or (value is not None and tok.value != value):
            raise ParseError(f"unexpected token {tok.value!r}", tok.pos, want)
        self.i += 1
        return tok

    @property
    def pos(self):
        tok = self.peek()
        return tok.pos if tok is not None else len(self.text)


def _parse_poly(cur: _Cursor):
    """Sparse integer polynomial -> ascending coefficient list."""
    coeffs = {}
    sign = 1
    tok = cur.peek()
    if tok is not None and tok.kind == "SYM" and tok.value == "-":
        cur.next()
        sign = -1
    while True:
        tok = cur.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial", len(cur.text),
                             "coefficient or x")
        if tok.kind == "INT":
            cur.next()
            c = sign * int(tok.value)
            deg = 0
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "SYM" and nxt.value == "*":
                cur.next()
                cur.expect("NAME", "x")
                deg = 1
                nxt = cur.peek()
                if nxt is not None and nxt.kind == "SYM" and nxt.value == "^":
                    cur.next()
                    deg = int(cur.expect("INT", expected="exponent").value)
        elif tok.kind == "NAME" and tok.value == "x":
            cur.next()
            c = sign
            deg = 1
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "SYM" and nxt.value == "^":
                cur.next()
                deg = int(cur.expect("INT", expected="exponent").value)
        else:
            raise ParseError(f"unexpected token {tok.value!r} in polynomial",
                             tok.pos, "coefficient or x")
        coeffs[deg] = coeffs.get(deg, 0) + c
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "SYM" and nxt.value in "+-":
            sign = 1 if nxt.value == "+" else -1
            cur.next()
            continue
        break
    top = max(coeffs) if coeffs else 0
    return [coeffs.get(d, 0) for d in range(top + 1)]


def _parse_atom(cur: _Cursor):
    """One ring atom; returns a LocalRingDesc or ('zn', N) for composite N."""
    tok = cur.expect("NAME", expected="Z or GR")
    if tok.value == "Z":
        q = int(cur.expect("INT", expected="modulus").value)
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "SYM" and nxt.value == "[":
            pp = fq.prime_power(q)
            if pp is None:
                raise UnsupportedRing(
                    f"quotient base Z{q} must have prime-power modulus")
            cur.expect("SYM", "[")
            cur.expect("NAME", "x")
            cur.expect("SYM", "]")
            cur.expect("SYM", "/")
            cur.expect("SYM", "(")
            poly = _parse_poly(cur)
            cur.expect("SYM", ")")
            return quotient_ring(pp[0], pp[1], poly)
        pp = fq.prime_power(q)
        if pp is None:
            if q < 2:
                raise UnsupportedRing(f"Z{q} is not a finite ring spec")
            return ("zn", q)
        return Zmod(q)
    if tok.value == "GR":
        cur.expect("SYM", "(")
        q = int(cur.expect("INT", expected="characteristic p^s").value)
        cur.expect("SYM", ",")
        mu = int(cur.expect("INT", expected="residue degree").value)
        cur.expect("SYM", ")")
        pp = fq.prime_power(q)
        if pp is None:
            raise UnsupportedRing(f"GR characteristic {q} must be a prime power")
        return galois_ring(pp[0], pp[1], mu)
    raise ParseError(f"unknown ring constructor {tok.value!r}", tok.pos, "Z or GR")


def parse_local_atom(text: str) -> LocalRingDesc:
    """Parse a single local-ring atom (no products, no extension clause)."""
    cur = _Cursor(tokenize(text), text)
    ring = _parse_atom(cur)
    if isinstance(ring, tuple):
        raise UnsupportedRing(f"Z{ring[1]} is not local; it decomposes into "
                              "prime-power factors")
    if cur.peek() is not None:
        raise ParseError(f"trailing input {cur.peek().value!r}", cur.pos, "end of input")
    return ring


def parse_product(cur: _Cursor):
    """product := atom ('x' atom)*  ->  (local factors, modulus).

    A Z N atom with composite N expands into its prime-power factors; the
    modulus is N when the product is that one atom (the CRT input
    conversion needs it), else None.
    """
    factors = []
    atoms = []
    while True:
        atom = _parse_atom(cur)
        atoms.append(atom)
        if isinstance(atom, tuple):
            for p, e in fq.factor_into_prime_powers(atom[1]):
                factors.append(Zmod(p ** e))
        else:
            factors.append(atom)
        tok = cur.peek()
        if tok is not None and tok.kind == "NAME" and tok.value == "x":
            cur.next()
            continue
        break
    modulus = atoms[0][1] if len(atoms) == 1 and isinstance(atoms[0], tuple) else None
    return factors, modulus


def parse_spec_parts(text: str):
    """Full grammar -> (local factors, modulus, m, f or None); the modulus
    is as in :func:`parse_product`."""
    cur = _Cursor(tokenize(text), text)
    factors, modulus = parse_product(cur)
    cur.expect("NAME", "ext", expected="'ext' clause")
    cur.expect("NAME", "m")
    cur.expect("SYM", "=")
    m = int(cur.expect("INT", expected="extension degree").value)
    f_poly = None
    tok = cur.peek()
    if tok is not None and tok.kind == "NAME" and tok.value == "f":
        cur.next()
        cur.expect("SYM", "=")
        f_poly = _parse_poly(cur)
    if cur.peek() is not None:
        raise ParseError(f"trailing input {cur.peek().value!r}", cur.pos,
                         "end of input")
    return factors, modulus, m, f_poly
