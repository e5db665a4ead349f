"""Character-loop form of the expression lexer and parser: the test oracle
for `raydiss.exprcore.parse`.

This is the hand-written front end that `exprcore` used before its lexer
became one token pattern and its two left-associative levels one loop. It
reads a digit with `str.isdigit`, which also holds for non-ASCII digits,
so it agrees with `parse` on ASCII text only: there the two give equal
ASTs, or raise `ParseError`s with equal messages, offsets and `expected`
tuples. On text with a non-ASCII digit it may misread the digit (`q٣` as
`q3`, `1٣` as 13.0) or raise a `ValueError` (`q²`).
"""

import math

from raydiss.exprcore import (FUNCTIONS, BinOp, Call, Const, Coord, Neg,
                              Param, ParseError, Vel)

_NUM_START = set("0123456789.")


def _tokenize(source):
    """Yield (kind, text, offset) triples; kind in {num, ident, op, eof}."""
    toks = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            toks.append(("op", c, i))
            i += 1
            continue
        if c in _NUM_START:
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i)
            toks.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    toks.append(("eof", "", n))
    return toks


class _Parser:
    def __init__(self, source):
        self.source = source
        self.toks = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.next()
        raise ParseError(f"unexpected token '{text or 'end of input'}'", off,
                         expected=(f"'{op}'",))

    def parse(self):
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input '{text}'", off,
                             expected=("operator", "end of input"))
        return e

    def expr(self):
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                left = BinOp(text, left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                left = BinOp(text, left, self.factor())
            else:
                return left

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.factor())
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            if math.isinf(float(text)):
                raise ParseError(f"number '{text}' overflows a double", off)
            return Const(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", off)
                self.next()
                args = [self.expr()]
                while True:
                    k2, t2, o2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.next()
                        args.append(self.expr())
                    elif k2 == "op" and t2 == ")":
                        self.next()
                        break
                    else:
                        raise ParseError(
                            f"unexpected token '{t2 or 'end of input'}'", o2,
                            expected=("','", "')'"))
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        f"function '{text}' takes {FUNCTIONS[text]} "
                        f"argument(s), got {len(args)}", off)
                if text == "pow":
                    return BinOp("^", args[0], args[1])
                return Call(text, tuple(args))
            return _classify_ident(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token '{text or 'end of input'}'", off,
                         expected=("expression",))


def _classify_ident(name):
    if len(name) > 1 and name[0] in "qv" and name[1:].isdigit():
        idx = int(name[1:])
        return Coord(idx) if name[0] == "q" else Vel(idx)
    return Param(name)


def parse(source):
    """Parse source text into an AST. Raises ParseError with offset."""
    return _Parser(source).parse()

