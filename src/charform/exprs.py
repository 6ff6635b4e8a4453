"""Algebra-expression DSL for the command line and presentation files.

Grammar: constructors Z(n) (one-generated ladder quotient), C(n) (chain),
B(n) (Boolean with n atoms), product `x`, concatenation `+` (binding looser
than `x`), quotient `expr / nabla(i)` by the principal filter of element i,
and truncations trunc(name, k) for the built-ins Zinf, Zprime, Zstar, KG.

Sizes are capped before any table is built.  Z(n) and C(n) past n = 64,
B(n) past n = 10, and a product or concatenation past 1024 elements (the
size of B(10)) raise `SizeLimit`.
"""

from __future__ import annotations

import re

from .algebra import SizeLimit, concat, principal_filter, product, quotient
from .rn import boolean, chain, rn_algebra, trunc

MAX_CHAIN = 64
MAX_ELEMENTS = 1 << 10


class ExprError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


_TOKEN = re.compile(r"\s*([A-Za-z]+|\d+|[()+/,])")


def parse_algebra_expr(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ExprError("unexpected character", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    i = 0

    def peek():
        return tokens[i][0] if i < len(tokens) else None

    def take(expected=None):
        nonlocal i
        if i >= len(tokens):
            raise ExprError(f"expected {expected or 'more input'}", len(text))
        tok, p = tokens[i]
        if expected is not None and tok != expected:
            raise ExprError(f"expected {expected!r}, got {tok!r}", p)
        i += 1
        return tok, p

    def parse_int():
        tok, p = take()
        if not tok.isdigit():
            raise ExprError("expected a number", p)
        return int(tok)

    def parse_concat():
        a = parse_product()
        while peek() == "+":
            take()
            b = parse_product()
            _check_size(a.size + b.size - 1, "concatenation")
            a = concat(a, b)
        return a

    def parse_product():
        a = parse_quot()
        while peek() == "x":
            take()
            b = parse_quot()
            _check_size(a.size * b.size, "product")
            a = product(a, b)
        return a

    def parse_quot():
        a = parse_atom()
        while peek() == "/":
            take()
            take("nabla")
            take("(")
            e = parse_int()
            take(")")
            if e >= a.size:
                raise ExprError(f"element {e} out of range", tokens[i - 2][1])
            a, _ = quotient(a, principal_filter(a, e))
        return a

    def parse_atom():
        tok, p = take()
        if tok == "(":
            a = parse_concat()
            take(")")
            return a
        if tok in ("Z", "C", "B"):
            take("(")
            n = parse_int()
            take(")")
            if tok == "Z":
                if n < 1:
                    raise ExprError("Z(n) needs n >= 1", p)
                return rn_algebra(n)
            if tok == "C":
                if n < 1:
                    raise ExprError("C(n) needs n >= 1", p)
                if n > MAX_CHAIN:
                    raise SizeLimit(f"chains are capped at {MAX_CHAIN} "
                                    "elements")
                return chain(n)
            if n > 10:
                raise SizeLimit("Boolean algebras are capped at 10 atoms")
            return boolean(n)
        if tok == "trunc":
            take("(")
            name, np_ = take()
            take(",")
            k = parse_int()
            take(")")
            try:
                return trunc(name, k)
            except KeyError:
                raise ExprError(f"unknown built-in {name!r}", np_) from None
        raise ExprError(f"unexpected token {tok!r}", p)

    a = parse_concat()
    if i < len(tokens):
        raise ExprError(f"unexpected token {tokens[i][0]!r}", tokens[i][1])
    return a


def _check_size(n, what):
    if n > MAX_ELEMENTS:
        raise SizeLimit(f"a {what} of {n} elements exceeds the cap of "
                        f"{MAX_ELEMENTS}")
