"""Infinitary coefficients, pinned value for value.

The digest covers ``infinitary_coeff`` on the 352 canonical lassos (stem and
period at most 4) for the seven strategies of the ``lasso`` benchmark: bool,
sup, limsup, limsup-avg, disc-0.5, disc-0.99 and lattice-inf.  Each runs on
seeded random omega expressions, compiled and with random weights, and on
random graphs, among them graphs with no initial state and graphs with no
repeated state (k = 0).  A value is hashed with its type, a float by
``float.hex`` and a lattice element by its sorted atoms, so the digest does
not depend on the hash seed and moves when any value changes by any amount,
even to an equal value of another type or the other zero's sign.

Re-pin it (only when a value is meant to change) with the digest

    PYTHONPATH=src python tests/test_infinitary_identity.py

prints.
"""

import hashlib
import random

from omegalg import automata as A, omegalang, ratexpr as rx, valuation as V
from omegalg.instances import NEG_INF, make_instance

AB = ("a", "b")
DIGEST = "12b76c2f5589127492648145fba75c94e9ecb04b3a92779d9eaa3695a44fa8f6"


def _instances():
    return {"bool": V.from_carrier(make_instance("bool")),
            "sup": V.make_valuation_instance("sup"),
            "limsup": V.make_valuation_instance("limsup"),
            "limsup-avg": V.make_valuation_instance("limsup-avg"),
            "disc-0.5": V.make_valuation_instance("disc", lam=0.5),
            "disc-0.99": V.make_valuation_instance("disc", lam=0.99),
            "lattice-inf": V.make_valuation_instance("lattice-inf")}


def _weight(inst, rng):
    if inst.strategy == "boolean":
        return rng.random() < 0.8
    if inst.strategy == "lattice":
        return inst.monoid.sample(rng)
    return NEG_INF if rng.random() < 0.05 else rng.choice((0.5, 1.0, 2.0, 3.0, -1.0, 7.25))


def _with_weights(aut, rng, edges=None, k=None, alpha=None):
    """``aut`` with random weights on ``edges`` (source, letter, target), by
    default its own, and with ``k`` and ``alpha`` if given."""
    if edges is None:
        edges = [(i, ch, j) for i, ch, j, _ in aut.edges]
    return A.MatrixAutomaton(aut.instance, AB, aut.n, aut.k if k is None else k,
                             aut.alpha if alpha is None else alpha, aut.beta,
                             tuple((i, ch, j, _weight(aut.instance, rng)) for i, ch, j in edges))


def _automata(inst, rng):
    for _ in range(12):
        compiled = A.compile(rx.random_expr(rng, 3, kind="omega"), inst, AB)
        yield compiled
        yield _with_weights(compiled, rng)
    for shape, count in (("plain", 6), ("no initial state", 2), ("k = 0", 2)):
        for _ in range(count):
            n = rng.randint(2, 5)
            edges = [(i, ch, j) for i in range(n) for ch in AB for j in range(n)
                     if rng.random() < 0.4]
            alpha = tuple(int(rng.random() < 0.5) for _ in range(n))
            if shape == "no initial state":
                alpha = (0,) * n
            k = 0 if shape == "k = 0" else rng.randint(1, n)
            yield _with_weights(A.MatrixAutomaton(inst, AB, n, k, alpha, (0,) * n, ()), rng,
                                edges, k, alpha)


def _form(value) -> str:
    if isinstance(value, float):
        body = value.hex()
    elif isinstance(value, frozenset):
        body = ",".join(sorted(value))
    else:
        body = repr(value)
    return f"{type(value).__name__}:{body}"


def values_digest() -> str:
    lassos = [w for group in omegalang.canonical_lassos(AB).values() for w in group]
    assert len(lassos) == 352
    h = hashlib.sha256()
    for seed, (name, inst) in enumerate(_instances().items()):
        rng = random.Random(2200 + seed)
        for num, aut in enumerate(_automata(inst, rng)):
            h.update(f"{name} {num}:".encode())
            h.update(";".join(_form(A.infinitary_coeff(aut, w)) for w in lassos).encode())
    return h.hexdigest()


def test_infinitary_values_match_the_pinned_digest():
    assert values_digest() == DIGEST


if __name__ == "__main__":
    print(values_digest())
