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
kinks lists where an expression piecewise linear in p bends, for the exact
transform search.
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


def kinks(node, x1=0.0, x2=0.0, limit=2 ** 15):
    """The kinks in p of an expression that is piecewise linear in p, at the
    boundary point (x1, x2): scalars, or columns (n, 1) for one row per
    sample.  Returns an array (rows, K) with rows 1 or n, each row a sorted
    superset of the kinks without repeats, padded with NaN; None when p
    enters other than through +, -, * with one factor reading p, / by a
    p-free denominator, abs, min and max, or when the kinks of a
    subexpression take more than limit elements over all rows.  Past its
    outermost kink the expression is affine."""
    if "p" not in ast_vars(node) or node[0] == "var":
        return np.empty((1, 0))
    if node[0] == "neg":
        return kinks(node[1], x1, x2, limit)
    if node[0] in ("*", "/", "^"):
        reads = ["p" in ast_vars(k) for k in node[1:]]
        if node[0] == "^" or reads[1] and (node[0] == "/" or reads[0]):
            return None
        return kinks(node[1] if reads[0] else node[2], x1, x2, limit)
    if node[0] == "call" and node[1] == "sqrt":
        return None
    args = node[2] if node[0] == "call" else node[1:]
    ks = [kinks(a, x1, x2, limit) for a in args]
    if any(k is None for k in ks):
        return None
    k = _cat(*ks)
    if node[0] == "call":
        # abs(e) bends where e = 0; min(a, b) and max(a, b) where a - b = 0
        e = args[0] if node[1] == "abs" else ("-", *args)
        k = _cat(k, _zeros(e, k, x1, x2))
    k = _compact(k)
    return k if k.shape[1] * max(np.size(x1), np.size(x2)) <= limit else None


def _cat(*ks):
    rows = max(k.shape[0] for k in ks)
    return np.concatenate([np.broadcast_to(k, (rows, k.shape[1])) for k in ks], axis=1)


def _compact(k):
    """Each row of k sorted, its finite entries once each, then NaN, in as
    many columns as its fullest row needs."""
    k = np.sort(np.where(np.isfinite(k), k, np.nan), axis=1)     # NaN sorts last
    k[:, 1:][k[:, 1:] == k[:, :-1]] = np.nan
    k = np.sort(k, axis=1)
    return k[:, :np.isfinite(k).sum(axis=1).max(initial=0)]


def _zeros(node, t, x1, x2):
    """The zeros in p of an expression affine between the points t (rows, m)
    and past the outermost: per piece, the root of its line where the root
    lies on the piece, else NaN.  A piece whose end values differ by no more
    than rounding at the scale of its values and ends is constant and has no
    root: p - (p - 0.094) reads 0.094 and 0.09399999999999997 at 0 and 1,
    whose line crosses zero near 3.4e15."""
    t = np.sort(np.where(np.isfinite(t), t, 0.0), axis=1)   # any extra point will do
    if t.shape[1] == 0:
        t = np.zeros((t.shape[0], 1))
    ends = np.concatenate([t[:, :1] - 1.0, t, t[:, -1:] + 1.0], axis=1)
    ends, f = np.broadcast_arrays(ends, eval_ast(node, ends, x1, x2))
    a, b, fa, fb = ends[:, :-1], ends[:, 1:], f[:, :-1], f[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = fa / (fa - fb)                    # the root at a + (b - a) lam
    on = (lam >= 0) & (lam <= 1)
    on[:, 0] = lam[:, 0] <= 1                   # the pieces reaching -inf and +inf
    on[:, -1] = lam[:, -1] >= 0
    on &= np.isfinite(lam)
    on &= np.abs(fa - fb) > 16 * np.finfo(float).eps * (np.abs(fa) + np.abs(fb) + np.abs(a)
                                                         + np.abs(b))
    return np.where(on, a + (b - a) * np.where(on, lam, 0.0), np.nan)

