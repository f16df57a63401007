"""Rational and omega-rational expressions: syntax, parser, printer, evaluation.

The grammar is unit-free and star-free on purpose: every finitary expression
denotes a proper series (no empty-word term), and iteration is the plus.
Omega power applies to finitary subexpressions only, omega expressions can
be summed and prefixed by finitary factors, nothing else.

    expr   := term ('+' term)*
    term   := factor+
    factor := atom ('^+' | '^w')*
    atom   := INT? LETTER | '(' expr ')'

A LETTER is one of ``LETTERS``, ASCII ``a``-``z``; words and alphabets
are spelled in the same letters.

AST nodes compare by identity (shared subterms are cheap), so structural
comparison goes through :func:`expr_equal`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def check_alphabet(letters) -> tuple:
    """The letters of an alphabet as a tuple; ValueError if one is not in
    ``LETTERS`` or one comes twice."""
    letters = tuple(letters)
    foreign = sorted(set(letters) - set(LETTERS))
    if foreign:
        raise ValueError(f"has {', '.join(map(repr, foreign))}, not letters a-z")
    repeated = sorted(ch for ch, count in Counter(letters).items() if count > 1)
    if repeated:
        raise ValueError(f"repeats {', '.join(map(repr, repeated))}")
    return letters


@dataclass(frozen=True, eq=False)
class Letter:
    ch: str


@dataclass(frozen=True, eq=False)
class Scalar:
    coef: int
    arg: object


@dataclass(frozen=True, eq=False)
class Sum:
    left: object
    right: object


@dataclass(frozen=True, eq=False)
class Prod:
    left: object
    right: object


@dataclass(frozen=True, eq=False)
class Plus:
    arg: object


@dataclass(frozen=True, eq=False)
class OmegaPow:
    arg: object


@dataclass(frozen=True, eq=False)
class ActProd:
    head: object   # finitary
    tail: object   # omega


@dataclass(frozen=True, eq=False)
class OmegaSum:
    left: object
    right: object


FIN_NODES = (Letter, Scalar, Sum, Prod, Plus)
OMEGA_NODES = (OmegaPow, ActProd, OmegaSum)


def is_omega(e) -> bool:
    return isinstance(e, OMEGA_NODES)


def expr_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Letter):
        return a.ch == b.ch
    if isinstance(a, Scalar):
        return a.coef == b.coef and expr_equal(a.arg, b.arg)
    if isinstance(a, (Sum, Prod, OmegaSum)):
        return expr_equal(a.left, b.left) and expr_equal(a.right, b.right)
    if isinstance(a, (Plus, OmegaPow)):
        return expr_equal(a.arg, b.arg)
    if isinstance(a, ActProd):
        return expr_equal(a.head, b.head) and expr_equal(a.tail, b.tail)
    raise TypeError(f"not an expression node: {a!r}")


def letters_of(e) -> set:
    if isinstance(e, Letter):
        return {e.ch}
    if isinstance(e, Scalar):
        return letters_of(e.arg)
    if isinstance(e, (Plus, OmegaPow)):
        return letters_of(e.arg)
    if isinstance(e, (Sum, Prod, OmegaSum)):
        return letters_of(e.left) | letters_of(e.right)
    if isinstance(e, ActProd):
        return letters_of(e.head) | letters_of(e.tail)
    raise TypeError(f"not an expression node: {e!r}")


# --- printing ------------------------------------------------------------------

_SUM, _PROD, _ATOM = 0, 1, 2


def to_text(e) -> str:
    return _render(e, _SUM)


def _render(e, level) -> str:
    if isinstance(e, Letter):
        return e.ch
    if isinstance(e, Scalar):
        if isinstance(e.arg, Letter):
            return f"{e.coef}{e.arg.ch}"
        return f"{e.coef}({_render(e.arg, _SUM)})"
    if isinstance(e, (Sum, OmegaSum)):
        text = f"{_render(e.left, _SUM)} + {_render(e.right, _PROD)}"
        return f"({text})" if level > _SUM else text
    if isinstance(e, Prod):
        text = f"{_render(e.left, _PROD)}{_render(e.right, _ATOM)}"
        return f"({text})" if level > _PROD else text
    if isinstance(e, ActProd):
        text = f"{_render(e.head, _PROD)}{_render(e.tail, _ATOM)}"
        return f"({text})" if level > _PROD else text
    if isinstance(e, Plus):
        return f"{_render(e.arg, _ATOM)}^+"
    if isinstance(e, OmegaPow):
        return f"{_render(e.arg, _ATOM)}^w"
    raise TypeError(f"not an expression node: {e!r}")


# --- parsing --------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch in LETTERS:
            tokens.append(("letter", ch, i))
            i += 1
        elif ch in "()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "+":
            tokens.append(("+", "+", i))
            i += 1
        elif ch == "^":
            if text[i:i + 2] == "^+":
                tokens.append(("plus", "^+", i))
                i += 2
            elif text[i:i + 2] == "^w":
                tokens.append(("omega", "^w", i))
                i += 2
            else:
                raise ParseError("expected ^+ or ^w", i)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        terms = [self.term()]
        while self.peek()[0] == "+":
            self.next()
            terms.append(self.term())
        kinds = {is_omega(t) for t in terms}
        if kinds == {False}:
            out = terms[0]
            for t in terms[1:]:
                out = Sum(out, t)
            return out
        if kinds == {True}:
            out = terms[0]
            for t in terms[1:]:
                out = OmegaSum(out, t)
            return out
        raise ParseError("cannot mix finitary and omega terms in a sum",
                         self.peek()[2])

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] in ("int", "letter", "("):
            factors.append(self.factor())
        omegas = [i for i, f in enumerate(factors) if is_omega(f)]
        if not omegas:
            out = factors[0]
            for f in factors[1:]:
                out = Prod(out, f)
            return out
        if omegas != [len(factors) - 1]:
            raise ParseError("an omega factor must be the last factor of a product",
                             self.peek()[2])
        if len(factors) == 1:
            return factors[0]
        head = factors[0]
        for f in factors[1:-1]:
            head = Prod(head, f)
        return ActProd(head, factors[-1])

    def factor(self):
        out = self.atom()
        while self.peek()[0] in ("plus", "omega"):
            kind, _, pos = self.next()
            if kind == "plus":
                if is_omega(out):
                    raise ParseError("plus does not apply to omega expressions", pos)
                out = Plus(out)
            else:
                if is_omega(out):
                    raise ParseError("omega power does not apply twice", pos)
                out = OmegaPow(out)
        return out

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            nkind, nvalue, npos = self.next()
            if nkind != "letter":
                raise ParseError("a scalar coefficient must prefix a letter", npos)
            return Scalar(value, Letter(nvalue))
        if kind == "letter":
            return Letter(value)
        if kind == "(":
            inner = self.expr()
            closing = self.next()
            if closing[0] != ")":
                raise ParseError("expected )", closing[2])
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str):
    """Parse an expression; raises :class:`ParseError` with a position."""
    p = _Parser(text)
    out = p.expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return out


# --- random expressions ------------------------------------------------------------

def random_expr(rng: random.Random, max_depth: int, kind="fin", alphabet=("a", "b")):
    """Seeded random expression, uniform over node kinds within the depth budget."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")

    def leaf():
        ch = rng.choice(alphabet)
        if rng.random() < 0.25:
            return Scalar(rng.randrange(2, 4), Letter(ch))
        return Letter(ch)

    def fin(depth):
        if depth <= 1:
            return leaf()
        kind = rng.randrange(4)
        if kind == 0:
            return Sum(fin(depth - 1), fin(depth - 1))
        if kind == 1:
            return Prod(fin(depth - 1), fin(depth - 1))
        if kind == 2:
            return Plus(fin(depth - 1))
        return leaf()

    def omega(depth):
        if depth <= 1:
            return OmegaPow(leaf())
        kind = rng.randrange(3)
        if kind == 0:
            return OmegaPow(fin(depth - 1))
        if kind == 1:
            return ActProd(fin(depth - 1), omega(depth - 1))
        return OmegaSum(omega(depth - 1), omega(depth - 1))

    if kind == "fin":
        return fin(max_depth)
    if kind == "omega":
        return omega(max_depth)
    raise ValueError("kind must be 'fin' or 'omega'")


# --- evaluation ----------------------------------------------------------------------

def eval_fin_in_carrier(e, carrier, letter_fn, _memo=None):
    """Homomorphic evaluation of a finitary expression into any carrier.

    ``letter_fn(ch)`` interprets letters; Sum/Prod/Plus map to the carrier
    operations and integer scalars to the n-fold sum.  Shared subterms are
    evaluated once (evaluation is DAG-aware), which matters for the large
    shared expressions produced by state elimination.
    """
    memo = _memo if _memo is not None else {}

    def go(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Letter):
            out = letter_fn(node.ch)
        elif isinstance(node, Scalar):
            out = carrier.nat_act(node.coef, go(node.arg))
        elif isinstance(node, Sum):
            out = carrier.add(go(node.left), go(node.right))
        elif isinstance(node, Prod):
            out = carrier.mul(go(node.left), go(node.right))
        elif isinstance(node, Plus):
            out = carrier.plus(go(node.arg))
        else:
            raise TypeError(f"not a finitary node: {node!r}")
        memo[key] = out
        return out

    return go(e)


def eval_omega_in_pair(e, pair, letter_fn):
    """Evaluate an omega expression in a hemiring-hemimodule pair."""
    fin_memo = {}
    memo = {}

    def go(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, OmegaPow):
            out = pair.omega(eval_fin_in_carrier(node.arg, pair.hemiring, letter_fn, fin_memo))
        elif isinstance(node, ActProd):
            head = eval_fin_in_carrier(node.head, pair.hemiring, letter_fn, fin_memo)
            out = pair.act(head, go(node.tail))
        elif isinstance(node, OmegaSum):
            out = pair.module.add(go(node.left), go(node.right))
        else:
            raise TypeError(f"not an omega node: {node!r}")
        memo[key] = out
        return out

    return go(e)


def eval_fin(e, instance, alphabet=("a", "b"), bound=8):
    """Evaluate a finitary expression to a series over a valuation instance."""
    from .series import SeriesCarrier
    carrier = SeriesCarrier(instance, alphabet, bound)
    return eval_fin_in_carrier(e, carrier, carrier.letter)
