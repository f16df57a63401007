"""Command-line front end: law suites, coefficients, compilation, behaviors,
group checks and counterexample reproduction.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit codes:
0 all checks passed, 1 a law or property failed (expected for the
counterexample instances), 2 bad input: a one-line ``Error:`` message on
stderr, never a traceback.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass

import click

from . import automata, core, matrices, omegalang, ratexpr, valuation
from .instances import make_instance
from .series import OmegaWord, language_instance, parse_word

DEFAULT_SEED = 42


class BadInput(click.ClickException):
    """Bad input: one ``Error: ...`` line on stderr and exit code 2."""

    exit_code = 2


def _default_seed():
    env = os.environ.get("OMEGA_WEIGHTS_SEED")
    return int(env) if env else DEFAULT_SEED


@dataclass
class InstanceManifest:
    name: str
    params: dict
    bound_length: int
    depth: int
    seed: int

    def to_json(self):
        return asdict(self)


_CARRIER_NAMES = ("bool", "nat", "minplus", "lattice")
_VALUATION_NAMES = ("sup", "limsup", "liminf", "disc", "limsup-avg", "lattice-inf")


def weight_instance(name, lam=0.5, base=3) -> valuation.OmegaValuation:
    """Resolve an instance name to a weight structure for series/automata work."""
    if name in _CARRIER_NAMES:
        return valuation.from_carrier(make_instance(name))
    if name == "disc":
        try:
            return valuation.make_valuation_instance("disc", lam=lam)
        except ValueError as exc:
            raise BadInput(f"--lambda {lam}: {exc}")
    if name == "lattice-inf":
        return valuation.make_valuation_instance("lattice-inf", base=base)
    if name in _VALUATION_NAMES:
        return valuation.make_valuation_instance(name)
    raise BadInput(f"unknown instance {name!r}")


def _emit(report: core.LawReport) -> int:
    print(json.dumps(report.to_json(), indent=2))
    print(str(report), file=sys.stderr)
    return 0 if report.ok else 1


@click.group()
def main():
    """Algebraic law suites, series evaluation and automaton behaviors."""


@main.command()
@click.option("--instance", "name", required=True)
@click.option("--suite", required=True,
              type=click.Choice(["conway-semiring", "conway-hemiring", "hemimodule",
                                 "multi-hemiring", "omega-valuation"]))
@click.option("--samples", default=core.DEFAULT_TRIALS, show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--bound", default=8, show_default=True, help="word length bound for series equality")
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
def laws(name, suite, samples, seed, bound, lam):
    """Run a law suite against an instance; exit 0 iff no failures."""
    _check_bound(bound)
    seed = seed if seed is not None else _default_seed()
    if suite in ("multi-hemiring", "omega-valuation"):
        if name in _CARRIER_NAMES:
            inst = valuation.from_carrier(make_instance(name))
        elif name in _VALUATION_NAMES:
            inst = weight_instance(name, lam=lam)
        else:
            raise BadInput(f"unknown instance {name!r}")
        fn = (valuation.multi_hemiring_laws if suite == "multi-hemiring"
              else valuation.omega_valuation_laws)
        sys.exit(_emit(fn(inst, trials=samples, seed=seed)))
    if suite == "hemimodule":
        if name == "lang":
            pair = omegalang.language_pair(bound=bound)
            report = core.hemimodule_pair_laws(pair, trials=min(samples, 60), seed=seed)
        elif name == "limsup-avg":
            report = valuation.product_omega_witness_report()
        elif name in ("bool", "minplus", "lattice"):
            report = core.hemimodule_pair_laws(core.self_pair(make_instance(name)),
                                               trials=samples, seed=seed)
        else:
            raise BadInput(f"no hemimodule pair for instance {name!r}")
        sys.exit(_emit(report))
    if name == "lang":
        carrier = language_instance(bound=bound)
        if suite == "conway-semiring":
            raise BadInput("the language instance has no unit; use conway-hemiring")
        report = core.conway_hemiring_laws(carrier, trials=min(samples, 120), seed=seed)
        sys.exit(_emit(report))
    try:
        carrier = make_instance(name)
    except ValueError as exc:
        raise BadInput(str(exc))
    if suite == "conway-semiring":
        if not core.has_star(carrier):
            raise BadInput(f"{name} has no star operation")
        report = core.conway_semiring_laws(carrier, trials=samples, seed=seed)
    else:
        if not core.has_plus(carrier):
            raise BadInput(f"{name} has no plus operation")
        report = core.conway_hemiring_laws(carrier, trials=samples, seed=seed)
    sys.exit(_emit(report))


def _check_letters(what, letters, alphabet):
    foreign = sorted(set(letters) - set(alphabet))
    if foreign:
        raise BadInput(f"{what} uses {', '.join(map(repr, foreign))}, "
                       f"outside the alphabet {''.join(alphabet)!r}")


def _parse_expr(text, alphabet):
    try:
        e = ratexpr.parse(text)
    except ratexpr.ParseError as exc:
        raise BadInput(f"bad expression: {exc}")
    _check_letters("the expression", ratexpr.letters_of(e), alphabet)
    return e


def _parse_cli_word(text, alphabet):
    try:
        w = parse_word(text)
    except ValueError as exc:
        raise BadInput(str(exc))
    letters = w.prefix + w.period if isinstance(w, OmegaWord) else w
    _check_letters("the word", letters, alphabet)
    return w


def _check_bound(bound):
    if bound < 1:
        raise BadInput(f"--bound {bound}: series equality needs a word length of at least 1")


def _require_strategy(inst):
    if inst.strategy is None:
        raise BadInput(f"instance {inst.name!r} has no infinitary coefficients")


@main.command()
@click.option("--instance", "name", required=True)
@click.option("--expr", "text", required=True)
@click.option("--word", required=True)
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
@click.option("--alphabet", default="ab", show_default=True)
def coeff(name, text, word, lam, alphabet):
    """Coefficient of an expression's series at a finite or omega word."""
    inst = weight_instance(name, lam=lam)
    letters = tuple(alphabet)
    e = _parse_expr(text, letters)
    w = _parse_cli_word(word, letters)
    if ratexpr.is_omega(e):
        if not isinstance(w, OmegaWord):
            raise BadInput("an omega expression needs a word of shape u(v)^w")
        _require_strategy(inst)
        value = ratexpr.eval_omega(e, inst, letters).coeff(w)
    else:
        if isinstance(w, OmegaWord):
            raise BadInput("a finitary expression needs a finite word")
        if not w:
            raise BadInput("finitary coefficients live on nonempty words")
        # bound 0 tabulates nothing up front: the query builds on w's factors only
        value = ratexpr.eval_fin(e, inst, letters, bound=0).coeff(w)
    print(inst.show(value))


@main.command(name="compile")
@click.option("--instance", "name", required=True)
@click.option("--expr", "text", required=True)
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
@click.option("--alphabet", default="ab", show_default=True)
def compile_cmd(name, text, lam, alphabet):
    """Compile an expression to an automaton (JSON on stdout)."""
    inst = weight_instance(name, lam=lam)
    letters = tuple(alphabet)
    aut = automata.compile(_parse_expr(text, letters), inst, letters)
    print(json.dumps(automata.automaton_to_json(aut), indent=2))
    print(f"{aut.n} states, {aut.k} repeated", file=sys.stderr)


@main.command()
@click.option("--aut", "path", required=True, type=click.Path(exists=True))
@click.option("--instance", "name", required=True)
@click.option("--word", required=True)
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
def behavior(path, name, word, lam):
    """Finitary or infinitary coefficient of an automaton loaded from JSON."""
    inst = weight_instance(name, lam=lam)
    try:
        with open(path) as fh:
            aut = automata.automaton_from_json(fh.read(), inst)
    except (OSError, ValueError) as exc:
        raise BadInput(f"--aut {path}: {exc}")
    w = _parse_cli_word(word, aut.alphabet)
    if isinstance(w, OmegaWord):
        _require_strategy(inst)
        value = automata.infinitary_coeff(aut, w)
    else:
        if not w:
            raise BadInput("finitary coefficients live on nonempty words")
        value = automata.finitary_coeff(aut, w)
    print(inst.show(value))


@main.command(name="group-check")
@click.option("--group", "gname", required=True)
@click.option("--instance", "name", required=True)
@click.option("--samples", default=30, show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--bound", default=6, show_default=True)
def group_check(gname, name, samples, seed, bound):
    """Plus-form (and omega-form where available) group identities."""
    _check_bound(bound)
    seed = seed if seed is not None else _default_seed()
    groups = matrices.builtin_groups()
    if gname not in groups:
        raise BadInput(f"unknown group {gname!r}; known: {sorted(groups)}")
    g = groups[gname]
    if name == "lang":
        carrier = language_instance(bound=bound)
        pair = omegalang.language_pair(bound=bound)
        report = matrices.group_identity_check(g, carrier, trials=min(samples, 5),
                                               seed=seed, pair=pair)
    else:
        try:
            carrier = make_instance(name)
        except ValueError as exc:
            raise BadInput(str(exc))
        if not core.has_plus(carrier):
            raise BadInput(f"{name} has no plus operation")
        pair = core.self_pair(carrier) if core.has_omega(carrier) else None
        report = matrices.group_identity_check(g, carrier, trials=samples,
                                               seed=seed, pair=pair)
    sys.exit(_emit(report))


_COUNTEREXAMPLES = ("liminf-regroup", "avg-regroup", "avg-product-omega")


@main.command()
@click.option("--name", required=True, type=click.Choice(_COUNTEREXAMPLES))
@click.option("--depth", default=None, type=int)
def counterexample(name, depth):
    """Reproduce one of the quantitative counterexamples (exit 1: it holds)."""
    if name == "liminf-regroup":
        inst = valuation.make_valuation_instance("liminf")
        seq = valuation.WeightedSeq((), ((1, 0.0), (1, 1.0)))
        direct = inst.val_omega(seq).value
        regrouped = inst.val_omega(seq.regroup(2, inst)).value
        print(json.dumps({"direct": direct, "regrouped": regrouped}))
        print(f"liminf: direct {direct} vs regrouped {regrouped}", file=sys.stderr)
        sys.exit(1 if direct != regrouped else 0)
    if name == "avg-regroup":
        trace = valuation.counterexample_regroup_avg(depth or 24)
        print(json.dumps(trace.to_json(), indent=2))
        print(f"limsup-avg: direct ≈ {trace.direct_estimate:.4f}, "
              f"regrouped ≈ {trace.regrouped_estimate:.4f}", file=sys.stderr)
        sys.exit(1 if abs(trace.direct_estimate - trace.regrouped_estimate) > 1e-6 else 0)
    trace = valuation.counterexample_product_omega(depth or 8)
    print(json.dumps(trace.to_json(), indent=2))
    lhs, rhs = float(trace.lhs_estimates[-1]), float(trace.rhs_estimates[-1])
    print(f"product omega: lhs {lhs} vs rhs {rhs:.4f} (climbing to 1)", file=sys.stderr)
    sys.exit(1 if abs(lhs - rhs) > 1e-6 else 0)


@main.command()
@click.option("--instance", "name", required=True)
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
@click.option("--bound", default=8, show_default=True)
@click.option("--depth", default=24, show_default=True)
@click.option("--seed", default=None, type=int)
def manifest(name, lam, bound, depth, seed):
    """Print the manifest (name, params, bounds, seed) of an instance."""
    seed = seed if seed is not None else _default_seed()
    inst = weight_instance(name, lam=lam)
    m = InstanceManifest(inst.name, dict(inst.params), bound, depth, seed)
    print(json.dumps(m.to_json(), indent=2))


if __name__ == "__main__":
    main()
