"""Rational and omega-rational expressions: syntax, parser, printer, evaluation.

The grammar is unit-free and star-free on purpose: every finitary expression
denotes a proper series (no empty-word term), and iteration is the plus.
Omega power applies to finitary subexpressions only, omega expressions can
be summed and prefixed by finitary factors, nothing else.

    expr   := term ('+' term)*
    term   := factor+
    factor := atom ('^+' | '^w')*
    atom   := INT? (LETTER | '(' expr ')')

A scalar prefixes a finitary atom only.  A LETTER is one of ``LETTERS``,
ASCII ``a``-``z``; words and alphabets are spelled in the same letters.

AST nodes compare by identity (shared subterms are cheap), so structural
comparison goes through :func:`expr_equal`.  Every walk over an expression
is a :func:`fold`: iterative, and once per distinct node of the DAG.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import reduce

from .core import Frozen

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


# An expression node is immutable, and equal only to itself (structural
# equality is :func:`expr_equal`).  Each node class lists its fields in
# ``__slots__``, in the order its constructor takes them.

class Letter(Frozen):
    __slots__ = ("ch",)

    def __init__(self, ch: str):
        object.__setattr__(self, "ch", ch)


class Scalar(Frozen):
    __slots__ = ("coef", "arg")

    def __init__(self, coef: int, arg):
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "arg", arg)


class Sum(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Prod(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Plus(Frozen):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)


class OmegaPow(Frozen):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)


class ActProd(Frozen):
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        object.__setattr__(self, "head", head)   # finitary
        object.__setattr__(self, "tail", tail)   # omega


class OmegaSum(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


OMEGA_NODES = (OmegaPow, ActProd, OmegaSum)


def is_omega(e) -> bool:
    return isinstance(e, OMEGA_NODES)


# The children of each node class; every walk reads them here.
_CHILDREN = {
    Letter: lambda e: (),
    **dict.fromkeys((Scalar, Plus, OmegaPow), lambda e: (e.arg,)),
    **dict.fromkeys((Sum, Prod, OmegaSum), lambda e: (e.left, e.right)),
    ActProd: lambda e: (e.head, e.tail),
}


def fold(e, rules):
    """The value of the expression ``e`` under ``rules``, which maps a node
    class to a function of the node and its children's values.

    Without recursion, each distinct node of the DAG is valued once, children
    first in the order of the text, and its value dropped once its last parent
    read it.  A node whose class has no rule raises TypeError.
    """
    # The distinct nodes in post-order, children left to right (so pushed in
    # reverse), each with its children; and how many parent slots read each.
    order, seen, reads, stack = [], set(), {}, [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            order.append((node, kids))
        elif id(node) not in seen:
            if type(node) not in rules:
                raise TypeError(f"not an expression node this walk reads: {node!r}")
            seen.add(id(node))
            kids = _CHILDREN[type(node)](node)
            stack.append((node, kids))
            for k in reversed(kids):
                reads[id(k)] = reads.get(id(k), 0) + 1
                stack.append((k, None))
    values = {}
    for node, kids in order:
        values[id(node)] = rules[type(node)](node, *[values[id(k)] for k in kids])
        for k in kids:
            reads[id(k)] -= 1
            if not reads[id(k)]:
                del values[id(k)]
    return values[id(e)]


def expr_equal(a, b) -> bool:
    """Structural equality, linear in the sizes of the two DAGs: each node
    is numbered by its class, its letter or coefficient and its children's
    numbers, and equal numbers mean equal trees."""
    numbers = {}

    def number(node, *kids):
        key = (type(node), getattr(node, "ch", None), getattr(node, "coef", None), kids)
        return numbers.setdefault(key, len(numbers))

    rules = dict.fromkeys(_CHILDREN, number)
    return fold(a, rules) == fold(b, rules)


_LETTERS_OF_RULES = dict.fromkeys(_CHILDREN, lambda node, *kids: set().union(*kids))
_LETTERS_OF_RULES[Letter] = lambda node: {node.ch}


def letters_of(e) -> set:
    return fold(e, _LETTERS_OF_RULES)


# --- printing ------------------------------------------------------------------

# A printed node is its text and its level; a parent brackets a child whose
# level is below the one its position needs (a scalar's, a letter's).
_SUM, _PROD, _ATOM, _LETTER = 0, 1, 2, 3


def _at(part, level) -> str:
    text, own = part
    return f"({text})" if own < level else text


def _sum_text(node, x, y):
    return f"{x[0]} + {_at(y, _PROD)}", _SUM


def _prod_text(node, x, y):
    return f"{_at(x, _PROD)}{_at(y, _ATOM)}", _PROD


_TEXT_RULES = {
    Letter: lambda node: (node.ch, _LETTER),
    Scalar: lambda node, x: (f"{node.coef}{_at(x, _LETTER)}", _ATOM),
    **dict.fromkeys((Sum, OmegaSum), _sum_text),
    **dict.fromkeys((Prod, ActProd), _prod_text),
    Plus: lambda node, x: (f"{_at(x, _ATOM)}^+", _ATOM),
    OmegaPow: lambda node, x: (f"{_at(x, _ATOM)}^w", _ATOM),
}


def to_text(e) -> str:
    """The expression in the grammar's syntax; a shared subterm is printed
    at each of its occurrences."""
    return fold(e, _TEXT_RULES)[0]


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
        elif ch in "()+":
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "^":
            kind = {"^+": "plus", "^w": "omega"}.get(text[i:i + 2])
            if kind is None:
                raise ParseError("expected ^+ or ^w", i)
            tokens.append((kind, text[i:i + 2], i))
            i += 2
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


# The parser recurses once per open parenthesis, so their nesting is capped
# well inside the interpreter's default stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        if len(kinds) > 1:
            raise ParseError("cannot mix finitary and omega terms in a sum",
                             self.peek()[2])
        return reduce(OmegaSum if kinds == {True} else Sum, terms)

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] in ("int", "letter", "("):
            factors.append(self.factor())
        if any(map(is_omega, factors[:-1])):
            raise ParseError("an omega factor must be the last factor of a product",
                             self.peek()[2])
        if len(factors) > 1 and is_omega(factors[-1]):
            return ActProd(reduce(Prod, factors[:-1]), factors[-1])
        return reduce(Prod, factors)

    def factor(self):
        out = self.atom()
        while self.peek()[0] in ("plus", "omega"):
            kind, _, pos = self.next()
            if is_omega(out):
                raise ParseError("plus does not apply to omega expressions" if kind == "plus"
                                 else "omega power does not apply twice", pos)
            out = Plus(out) if kind == "plus" else OmegaPow(out)
        return out

    def atom(self):
        kind, value, pos = self.next()
        coef = value if kind == "int" else None
        if coef is not None:
            kind, value, pos = self.next()
        if kind == "letter":
            out = Letter(value)
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            closing = self.next()
            if closing[0] != ")":
                raise ParseError("expected )", closing[2])
        else:
            raise ParseError(f"unexpected token {value!r}" if coef is None
                             else "a scalar coefficient must prefix a letter or '('", pos)
        if coef is None:
            return out
        if is_omega(out):
            raise ParseError("a scalar does not apply to omega expressions", pos)
        return Scalar(coef, out)


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

def _fin_rules(carrier, letter_fn) -> dict:
    return {
        Letter: lambda node: letter_fn(node.ch),
        Scalar: lambda node, x: carrier.nat_act(node.coef, x),
        Sum: lambda node, x, y: carrier.add(x, y),
        Prod: lambda node, x, y: carrier.mul(x, y),
        Plus: lambda node, x: carrier.plus(x),
    }


def eval_fin_in_carrier(e, carrier, letter_fn):
    """Homomorphic evaluation of a finitary expression into any carrier.

    ``letter_fn(ch)`` interprets letters; Sum/Prod/Plus map to the carrier
    operations and integer scalars to the natural action.  Shared subterms
    are evaluated once, which matters for the large shared expressions
    produced by state elimination.
    """
    return fold(e, _fin_rules(carrier, letter_fn))


def eval_omega_in_pair(e, pair, letter_fn):
    """Evaluate an omega expression in a hemiring-hemimodule pair; its
    finitary parts evaluate in the pair's hemiring, in the same walk."""
    if not is_omega(e):
        raise TypeError(f"not an omega node: {e!r}")
    return fold(e, {
        **_fin_rules(pair.hemiring, letter_fn),
        OmegaPow: lambda node, x: pair.omega(x),
        ActProd: lambda node, x, y: pair.act(x, y),
        OmegaSum: lambda node, x, y: pair.module.add(x, y),
    })


def eval_fin(e, instance, alphabet=("a", "b"), bound=8):
    """Evaluate a finitary expression to a series over a valuation instance."""
    from .series import SeriesCarrier
    carrier = SeriesCarrier(instance, alphabet, bound)
    return eval_fin_in_carrier(e, carrier, carrier.letter)
