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

import click

from . import automata, core, matrices, ratexpr, valuation
from .series import OmegaWord, parse_word

DEFAULT_SEED = 42


class BadInput(click.ClickException):
    """Bad input: one ``Error: ...`` line on stderr and exit code 2."""

    exit_code = 2


def _default_seed():
    env = os.environ.get("OMEGA_WEIGHTS_SEED")
    return int(env) if env else DEFAULT_SEED


def _instance(name, role, **options):
    """The registry entry of ``name`` and its ``role``, built with those of
    the command's ``options`` that the entry takes."""
    try:
        entry = valuation.lookup(name)
        return entry, entry.make(role, **entry.bind(options))
    except ValueError as exc:
        raise BadInput(str(exc))


def _emit(report: core.LawReport) -> int:
    print(json.dumps(report.to_json(), indent=2))
    print(str(report), file=sys.stderr)
    return 0 if report.ok else 1


@click.group()
def main():
    """Algebraic law suites, series evaluation and automaton behaviors."""


# suite -> the role of the instance it checks, the operation it needs, its laws
_SUITES = {
    "conway-semiring": ("carrier", "star", core.conway_semiring_laws),
    "conway-hemiring": ("carrier", "plus", core.conway_hemiring_laws),
    "hemimodule": ("pair", None, core.hemimodule_pair_laws),
    "multi-hemiring": ("weights", None, valuation.multi_hemiring_laws),
    "omega-valuation": ("weights", None, valuation.omega_valuation_laws),
}


@main.command()
@click.option("--instance", "name", required=True)
@click.option("--suite", required=True, type=click.Choice(list(_SUITES)))
@click.option("--samples", default=core.DEFAULT_TRIALS, show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--bound", default=8, show_default=True, help="word length bound for series equality")
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
def laws(name, suite, samples, seed, bound, lam):
    """Run a law suite against an instance; exit 0 iff no failures."""
    _check_bound(bound)
    _check_samples(samples)
    seed = seed if seed is not None else _default_seed()
    role, op, suite_laws = _SUITES[suite]
    entry, subject = _instance(name, role, lam=lam, bound=bound)
    if op and not callable(getattr(subject, op, None)):
        raise BadInput(f"{name} has no {op} operation")
    # a pair whose identity fails only on an explicit witness comes as its report
    report = subject if isinstance(subject, core.LawReport) else suite_laws(
        subject, trials=entry.trials(suite, samples), seed=seed)
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


def _check_samples(samples):
    if samples < 1:
        raise BadInput(f"--samples {samples}: a law check needs at least 1 trial")


def _print_coeff(inst, aut, w):
    """Print the coefficient of ``aut``'s behavior at the finite or omega word ``w``."""
    if isinstance(w, OmegaWord):
        if inst.strategy is None:
            raise BadInput(f"instance {inst.name!r} has no infinitary coefficients")
        value = automata.infinitary_coeff(aut, w)
    else:
        if not w:
            raise BadInput("finitary coefficients live on nonempty words")
        value = automata.finitary_coeff(aut, w)
    print(inst.show(value))


@main.command()
@click.option("--instance", "name", required=True)
@click.option("--expr", "text", required=True)
@click.option("--word", required=True)
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
@click.option("--alphabet", default="ab", show_default=True)
def coeff(name, text, word, lam, alphabet):
    """Coefficient of an expression's series at a finite or omega word."""
    _, inst = _instance(name, "weights", lam=lam)
    letters = tuple(alphabet)
    e = _parse_expr(text, letters)
    w = _parse_cli_word(word, letters)
    if ratexpr.is_omega(e) and not isinstance(w, OmegaWord):
        raise BadInput("an omega expression needs a word of shape u(v)^w")
    if not ratexpr.is_omega(e) and isinstance(w, OmegaWord):
        raise BadInput("a finitary expression needs a finite word")
    _print_coeff(inst, automata.compile(e, inst, letters), w)


@main.command(name="compile")
@click.option("--instance", "name", required=True)
@click.option("--expr", "text", required=True)
@click.option("--lam", "--lambda", "lam", default=0.5, show_default=True)
@click.option("--alphabet", default="ab", show_default=True)
def compile_cmd(name, text, lam, alphabet):
    """Compile an expression to an automaton (JSON on stdout)."""
    _, inst = _instance(name, "weights", lam=lam)
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
    _, inst = _instance(name, "weights", lam=lam)
    try:
        with open(path) as fh:
            aut = automata.automaton_from_json(fh.read(), inst)
    except (OSError, ValueError) as exc:
        raise BadInput(f"--aut {path}: {exc}")
    _print_coeff(inst, aut, _parse_cli_word(word, aut.alphabet))


@main.command(name="group-check")
@click.option("--group", "gname", required=True)
@click.option("--instance", "name", required=True)
@click.option("--samples", default=30, show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--bound", default=6, show_default=True)
def group_check(gname, name, samples, seed, bound):
    """Plus-form (and omega-form where available) group identities."""
    _check_bound(bound)
    _check_samples(samples)
    seed = seed if seed is not None else _default_seed()
    groups = matrices.builtin_groups()
    if gname not in groups:
        raise BadInput(f"unknown group {gname!r}; known: {sorted(groups)}")
    entry, carrier = _instance(name, "carrier", bound=bound)
    if not core.has_plus(carrier):
        raise BadInput(f"{name} has no plus operation")
    pair = _instance(name, "pair", bound=bound)[1] if "pair" in entry.roles else None
    sys.exit(_emit(matrices.group_identity_check(
        groups[gname], carrier, trials=entry.trials("group-check", samples), seed=seed,
        pair=pair)))


def _trace(counterexample, depth):
    """The counterexample's trace at ``depth``, or at its default depth."""
    try:
        return counterexample() if depth is None else counterexample(depth)
    except ValueError as exc:
        raise BadInput(f"--depth {depth}: {exc}")


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
        trace = _trace(valuation.counterexample_regroup_avg, depth)
        if trace.regrouped_estimate is None:
            raise BadInput(f"--depth {depth}: the first regrouped group ends at block 3")
        print(json.dumps(trace.to_json(), indent=2))
        print(f"limsup-avg: direct ≈ {trace.direct_estimate:.4f}, "
              f"regrouped ≈ {trace.regrouped_estimate:.4f}", file=sys.stderr)
        sys.exit(1 if abs(trace.direct_estimate - trace.regrouped_estimate) > 1e-6 else 0)
    trace = _trace(valuation.counterexample_product_omega, depth)
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
    entry, _ = _instance(name, "weights", lam=lam)
    print(json.dumps({"name": name, "params": entry.bind({"lam": lam}), "bound_length": bound,
                      "depth": depth, "seed": seed}, indent=2))


if __name__ == "__main__":
    main()
