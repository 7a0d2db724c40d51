"""Recursive-descent parser for expression text.

Grammar (whitespace insignificant)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := number | symbol | '(' expr ')' | '-' factor
    exponent := ('-')? number | '(' expr ')'

Numbers are unsigned decimal literals and parse to exact rationals
(``1.5`` becomes 3/2).  Symbols match ``[A-Za-z][A-Za-z0-9_]*``; no
name is reserved.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .expr import (
    _MINUS_ONE,
    Expr,
    Sym,
    add,
    mul,
    num,
    pow_,
)


def _read_int(digits: str) -> int:
    """int(digits), also past the interpreter's limit on str-to-int
    conversion (4300 digits), which ``expr._digits`` prints past: the
    digits are read in 4000-digit chunks."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected input {self.text[self.pos]!r}")
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            if self.accept("+"):
                terms.append(self.term())
            elif self.accept("-"):
                terms.append(mul(_MINUS_ONE, self.term()))
            else:
                return add(*terms)

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            if self.accept("*"):
                factors.append(self.factor())
            elif self.accept("/"):
                factors.append(pow_(self.factor(), _MINUS_ONE))
            else:
                return mul(*factors)

    def factor(self) -> Expr:
        b = self.base()
        if self.accept("^"):
            return pow_(b, self.exponent())
        return b

    def base(self) -> Expr:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch == "-":
            self.pos += 1
            return mul(_MINUS_ONE, self.factor())
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.symbol()
        self.error(f"unexpected character {ch!r}")

    def exponent(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        negative = False
        if ch == "-":
            self.pos += 1
            negative = True
        n = self.number()
        return mul(_MINUS_ONE, n) if negative else n

    def number(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        lit = self.text[start:self.pos]
        if lit in ("", "."):
            self.error("expected a number", start)
        whole, _, frac = lit.partition(".")
        try:
            return num(Fraction(_read_int(whole + frac), 10 ** len(frac)))
        except ValueError:
            self.error(f"bad number literal {lit!r}", start)

    def symbol(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return Sym(self.text[start:self.pos])


def parse(text: str) -> Expr:
    """Parse expression text into a canonical expression tree.

    Raises ParseError (with byte offset) on malformed input.
    """
    return _Parser(text).parse()
