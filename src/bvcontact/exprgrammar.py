"""Tiny arithmetic DSL for surface densities over p, x1, x2.

Grammar (EBNF, also in docs/density-grammar.md):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = [ "-" | "+" ] power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | VAR | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;
    VAR     = "p" | "x1" | "x2" ;
    FUNC    = "abs" | "min" | "max" | "sqrt" ;
    NUMBER  = digits [ "." digits ] [ ("e" | "E") [ "+" | "-" ] digits ] ;

abs and sqrt take one argument, min and max take two.  Evaluation is
numpy-vectorized in p.  Parse failures raise ParseError with a byte offset.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError

_TOKEN = re.compile(r"""
    (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_VARS = ("p", "x1", "x2")
_FUNCS = {"abs": 1, "sqrt": 1, "min": 2, "max": 2}


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] in ("-", "+"):
            op = self.next()[1]
            node = self.unary()
            return node if op == "+" else ("neg", node)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.next()
            node = ("^", node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("const", float(val))
        if kind == "name":
            if val in _VARS:
                return ("var", val)
            if val in _FUNCS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != _FUNCS[val]:
                    raise ParseError(f"{val} takes {_FUNCS[val]} argument(s)", pos)
                return ("call", val, args)
            raise ParseError(f"unknown name {val!r}", pos)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_expression(text: str):
    """Parse a density expression; returns the AST root."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


def eval_ast(node, p, x1=0.0, x2=0.0):
    """Evaluate an AST at p (scalar or ndarray) and boundary point (x1, x2)."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return {"p": p, "x1": x1, "x2": x2}[node[1]]
    if op == "neg":
        return -eval_ast(node[1], p, x1, x2)
    if op == "call":
        args = [eval_ast(a, p, x1, x2) for a in node[2]]
        if node[1] == "abs":
            return np.abs(args[0])
        if node[1] == "sqrt":
            with np.errstate(invalid="ignore"):
                return np.sqrt(args[0])
        if node[1] == "min":
            return np.minimum(args[0], args[1])
        return np.maximum(args[0], args[1])
    a = eval_ast(node[1], p, x1, x2)
    b = eval_ast(node[2], p, x1, x2)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    if op == "^":
        return a ** b
    raise AssertionError(f"unknown op {op}")


def ast_vars(node) -> set:
    """Names of the variables an AST references."""
    if node[0] == "var":
        return {node[1]}
    kids = node[2] if node[0] == "call" else [k for k in node[1:] if isinstance(k, tuple)]
    return set().union(*map(ast_vars, kids))

