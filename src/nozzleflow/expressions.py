"""Tiny arithmetic grammar for analytic data in configuration files.

Numbers, the variables x and t, the four arithmetic operators, ^ for powers
(right associative), parentheses, unary sign, and exp/log/sin/tanh.  Parsed
by recursive descent into closures that evaluate with numpy, so compiled
expressions broadcast over arrays.  No external expression engine, no eval.

A part made of numbers alone is evaluated once, when it is parsed, in Python
floats, which raise or turn complex where numpy would give a value that is
not finite (1/0, 0^-1, 10^400, (-8)^(1/3)): such a part is an
``ExpressionError`` naming the expression.
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError, ExpressionError

_FUNCTIONS = {"exp": np.exp, "log": np.log, "sin": np.sin, "tanh": np.tanh}
_VARIABLES = ("x", "t")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

#: Deepest nesting of parentheses, calls, unary signs and exponents accepted.
#: One level costs the parser up to seven stack frames and the compiled
#: expression two, so this stays well below the interpreter's recursion limit.
_MAX_DEPTH = 50


def _tokenize(src: str):
    text = src.replace("×", "*").replace("÷", "/").replace("−", "-")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_exp = False
            while j < n:
                cj = text[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_exp and j + 1 < n and (
                        text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", pos=i) from None
            tokens.append(("num", value, i))
            i = j
        elif c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {c!r}", pos=i)
    tokens.append(("end", "", n))
    return tokens


def _constant(value):
    """A node that gives ``value``, kept on it as ``value`` for folding."""
    node = lambda env: value
    node.value = value
    return node


class _Parser:
    def __init__(self, tokens, source):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.depth = 0
        self.uses = set()

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}", pos=tok[2])
        self.pos += 1
        return tok

    def fold(self, op, *nodes):
        """The node of ``op`` applied to ``nodes``, evaluated now if every
        one of them is a constant; None if one is not."""
        if not all(hasattr(node, "value") for node in nodes):
            return None
        try:
            value = op(*(node.value for node in nodes))
        except (ZeroDivisionError, OverflowError) as exc:
            why = "division by zero" if isinstance(exc, ZeroDivisionError) else "overflow"
            raise ExpressionError(f"{self.source!r} cannot be evaluated: {why}") from None
        if isinstance(value, complex):
            raise ExpressionError(f"{self.source!r} cannot be evaluated: its value is complex")
        return _constant(value)

    def expression(self):
        return self._chain(self.term, ("+", "-"))

    def term(self):
        return self._chain(self.factor, ("*", "/"))

    def _chain(self, operand, ops):
        """A left-associative run of ``ops``, folded by one loop, not nested."""
        node = operand()
        rest = []
        while self.peek()[0] in ops:
            op = _BINARY[self.take()[0]]
            rhs = operand()
            # A run of constants from the left is one constant.
            folded = not rest and self.fold(op, node, rhs)
            if folded:
                node = folded
            else:
                rest.append((op, rhs))
        if not rest:
            return node

        def chain(env, first=node, rest=tuple(rest)):
            acc = first(env)
            for op, rhs in rest:
                acc = op(acc, rhs(env))
            return acc

        return chain

    def factor(self):
        # Every nesting (parentheses, a call, a unary sign, an exponent)
        # passes through here, so this one counter bounds the recursion.
        tok = self.peek()
        if self.depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {_MAX_DEPTH} levels",
                                  pos=tok[2])
        self.depth += 1
        if tok[0] == "+":
            self.take()
            node = self.factor()
        elif tok[0] == "-":
            self.take()
            inner = self.factor()
            node = self.fold(operator.neg, inner) or (lambda env, a=inner: -a(env))
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            exponent = self.factor()  # right associative, unary signs allowed
            return (self.fold(operator.pow, base, exponent)
                    or (lambda env, a=base, b=exponent: a(env) ** b(env)))
        return base

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            return _constant(tok[1])
        if tok[0] == "name":
            name = tok[1]
            if name in _FUNCTIONS:
                self.take("(")
                arg = self.expression()
                self.take(")")
                fn = _FUNCTIONS[name]
                return lambda env, f=fn, a=arg: f(a(env))
            if name in _VARIABLES:
                self.uses.add(name)
                return lambda env, n=name: env[n]
            raise ExpressionError(f"unknown name {name!r}", pos=tok[2])
        if tok[0] == "(":
            node = self.expression()
            self.take(")")
            return node
        raise ExpressionError(f"unexpected token {tok[1]!r}", pos=tok[2])


class Expr:
    """A compiled expression; call with keyword arrays/scalars x= and/or t=."""

    def __init__(self, source: str, fn, uses):
        self.source = source
        self._fn = fn
        self.uses = frozenset(uses)

    def __call__(self, x=None, t=None):
        env = {}
        for name, val in (("x", x), ("t", t)):
            if name in self.uses:
                if val is None:
                    raise DomainError(f"expression {self.source!r} needs {name}")
                env[name] = np.asarray(val, dtype=float)
        out = self._fn(env)
        ref = x if x is not None else t
        if ref is not None and np.ndim(ref) > 0 and np.ndim(out) == 0:
            out = np.full(np.shape(ref), float(out))
        return out

    def __repr__(self):
        return f"Expr({self.source!r})"


def parse_expression(src: str) -> Expr:
    if not src.strip():
        raise ExpressionError("empty expression")
    parser = _Parser(_tokenize(src), src)
    fn = parser.expression()
    end = parser.peek()
    if end[0] != "end":
        raise ExpressionError(f"trailing input {end[1]!r}", pos=end[2])
    return Expr(src, fn, parser.uses)
