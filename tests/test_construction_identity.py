"""Automaton constructions, pinned byte for byte.

The digest covers ``automaton_to_json`` of every automaton ``compile`` makes
from a seeded corpus (finitary and omega expressions of depth 2-5 over bool,
nat and disc, plus zero-scalar shapes), of ``omega_automaton`` and
``series_act`` on them (also with every state of an omega automaton made
final, so that an operand's repeated states are dropped), and the
``to_text`` of both sides of ``eliminate`` (or its error message) on each
compiled automaton with at most 16 states.  A change to how states are
numbered, edges ordered or matrices built shows here even where every
behavior stays the same.

Re-pin it (only when a construction is meant to change) with the digest

    PYTHONPATH=src python tests/test_construction_identity.py

prints.
"""

import hashlib
import json
import random

from omegalg import automata as A, ratexpr as rx, valuation as V
from omegalg.instances import make_instance

AB = ("a", "b")
DIGEST = "d96090456cddbebc804e2179fd8c300c148f9ab9e7118aa32ce07d624c568d79"

ZERO_SCALARS = ("0a", "(0a + b)^+", "(0a)^w", "a(0b)^w", "0a + b", "(0(ab))^+ b")


def _instances():
    return {"bool": V.from_carrier(make_instance("bool")),
            "nat": V.from_carrier(make_instance("nat")),
            "disc": V.make_valuation_instance("disc", lam=0.5)}


def _corpus(seed):
    rng = random.Random(seed)
    exprs = [rx.parse(text) for text in ZERO_SCALARS]
    for _ in range(150):
        kind = rng.choice(("fin", "omega"))
        exprs.append(rx.random_expr(rng, rng.randint(2, 5), kind=kind))
    return exprs


def _automata(inst, seed):
    """(label, automaton, compiled?) for each construction on the corpus."""
    prev_omega = A.compile(rx.parse("(ab)^w"), inst, AB)
    for expr in _corpus(seed):
        aut = A.compile(expr, inst, AB)
        text = rx.to_text(expr)
        yield text, aut, True
        fin = aut
        if aut.k:
            text = f"final {text}"
            fin = A.MatrixAutomaton(inst, AB, aut.n, aut.k, aut.alpha, (1,) * aut.n, aut.edges)
        yield f"omega_automaton({text})", A.omega_automaton(fin), False
        yield (f"series_act({text}, previous omega)",
               A.series_act(fin, prev_omega).backing, False)
        if aut.k:
            prev_omega = aut


def _eliminated(aut) -> list:
    try:
        fin, om = A.eliminate(aut)
    except ValueError as exc:
        return [f"error: {exc}"]
    return ["0" if e is None else rx.to_text(e) for e in (fin, om)]


def corpus_digest() -> str:
    h = hashlib.sha256()
    for seed, (name, inst) in enumerate(_instances().items()):
        for label, aut, compiled in _automata(inst, 100 + seed):
            record = {"instance": name, "of": label, "automaton": A.automaton_to_json(aut)}
            if compiled and aut.n <= 16:
                record["eliminated"] = _eliminated(aut)
            h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def test_constructions_match_the_pinned_digest():
    assert corpus_digest() == DIGEST


def _has_zero_scalar(expr) -> bool:
    return rx.fold(expr, {rx.Letter: lambda node: False,
                          rx.Scalar: lambda node, a: a or node.coef == 0,
                          **dict.fromkeys((rx.Sum, rx.Prod, rx.Plus, rx.OmegaPow, rx.ActProd,
                                           rx.OmegaSum), lambda node, *kids: any(kids))})


def _reachable(aut, start) -> set:
    import networkx as nx
    graph = nx.DiGraph([(i, j) for i, _, j, _ in aut.edges])
    graph.add_node(start)
    return nx.descendants(graph, start) | {start}


def test_compile_builds_the_position_automaton():
    """Every automaton ``compile`` makes from the corpus has one initial
    state, of coefficient 1, and otherwise a state per letter occurrence and
    per boundary copy of an omega power: unless a zero scalar cuts a subterm
    off, the initial state reaches every state.  The corpus compiles to
    2,373 states in all."""
    total = 0
    for seed, inst in enumerate(_instances().values()):
        for expr in _corpus(100 + seed):
            aut = A.compile(expr, inst, AB)
            total += aut.n
            initial = [q for q in range(aut.n) if aut.alpha[q]]
            assert len(initial) == 1 and aut.alpha[initial[0]] == 1, rx.to_text(expr)
            if not _has_zero_scalar(expr):
                assert _reachable(aut, initial[0]) == set(range(aut.n)), rx.to_text(expr)
    assert total == 2373


if __name__ == "__main__":
    print(corpus_digest())
