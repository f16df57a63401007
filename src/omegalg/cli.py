"""Command-line front end: law suites, coefficients, compilation, behaviors,
group checks and counterexample reproduction.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit codes:
0 all checks passed, 1 a law or property failed (expected for the
counterexample instances), 2 bad input: a one-line ``Error:`` message on
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# the rest of the library loads in the commands that run it, so a cold call
# pays only for its own modules
from . import core, valuation


class BadInput(Exception):
    """Bad input: one ``Error: ...`` line on stderr and exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are bad input; options take no
    abbreviations, and ``--help`` is the only help option."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise BadInput(message)


def _default_seed():
    env = os.environ.get("OMEGA_WEIGHTS_SEED")
    try:
        return int(env) if env else core.DEFAULT_SEED
    except ValueError:
        raise BadInput(f"OMEGA_WEIGHTS_SEED={env!r} is not an integer") from None


def _count(text):
    """``--bound``, ``--samples`` and the manifest's ``--depth``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


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


# suite -> the role of the instance it checks, the operation it needs, its laws
_SUITES = {
    "conway-semiring": ("carrier", "star", core.conway_semiring_laws),
    "conway-hemiring": ("carrier", "plus", core.conway_hemiring_laws),
    "hemimodule": ("pair", None, core.hemimodule_pair_laws),
    "multi-hemiring": ("weights", None, valuation.multi_hemiring_laws),
    "omega-valuation": ("weights", None, valuation.omega_valuation_laws),
}


def laws(name, suite, samples, seed, bound, lam):
    """Run a law suite against an instance; exit 0 iff no failures."""
    role, op, suite_laws = _SUITES[suite]
    entry, subject = _instance(name, role, lam=lam, bound=bound)
    if op and not callable(getattr(subject, op, None)):
        raise BadInput(f"{name} has no {op} operation")
    # a pair whose identity fails only on an explicit witness comes as its report
    report = subject if isinstance(subject, core.LawReport) else suite_laws(
        subject, trials=entry.trials(suite, samples), seed=seed)
    return _emit(report)


def _check_letters(what, letters, alphabet):
    foreign = sorted(set(letters) - set(alphabet))
    if foreign:
        raise BadInput(f"{what} uses {', '.join(map(repr, foreign))}, "
                       f"outside the alphabet {''.join(alphabet)!r}")


def _parse_alphabet(alphabet):
    """The letters of ``--alphabet``, each once and each one the grammar spells."""
    from .ratexpr import check_alphabet
    try:
        return check_alphabet(alphabet)
    except ValueError as exc:
        raise BadInput(f"--alphabet {alphabet!r} {exc}")


def _parse_expr(text, alphabet):
    from . import ratexpr
    try:
        e = ratexpr.parse(text)
    except ratexpr.ParseError as exc:
        raise BadInput(f"bad expression: {exc}")
    _check_letters("the expression", ratexpr.letters_of(e), alphabet)
    return e


def _parse_cli_word(text, alphabet):
    from .series import OmegaWord, parse_word
    try:
        w = parse_word(text)
    except ValueError as exc:
        raise BadInput(str(exc))
    letters = w.prefix + w.period if isinstance(w, OmegaWord) else w
    _check_letters("the word", letters, alphabet)
    return w


def _check_query(inst, w):
    """A coefficient of ``inst``'s weights at the finite or omega word ``w``
    exists, or bad input."""
    from .series import OmegaWord
    if isinstance(w, OmegaWord):
        if inst.strategy is None:
            raise BadInput(f"instance {inst.name!r} has no infinitary coefficients")
    elif not w:
        raise BadInput("finitary coefficients live on nonempty words")


def _print_coeff(inst, aut, w):
    """Print the coefficient of ``aut``'s behavior at the finite or omega word ``w``."""
    from . import automata
    from .series import OmegaWord
    if isinstance(w, OmegaWord):
        value = automata.infinitary_coeff(aut, w)
    else:
        value = automata.finitary_coeff(aut, w)
    print(inst.show(value))


def coeff(name, text, word, lam, alphabet):
    """Coefficient of an expression's series at a finite or omega word."""
    # every check runs before the compiler loads, so bad input never pays for it
    from . import ratexpr
    _, inst = _instance(name, "weights", lam=lam)
    letters = _parse_alphabet(alphabet)
    e = _parse_expr(text, letters)
    w = _parse_cli_word(word, letters)
    from .series import OmegaWord
    if ratexpr.is_omega(e) and not isinstance(w, OmegaWord):
        raise BadInput("an omega expression needs a word of shape u(v)^w")
    if not ratexpr.is_omega(e) and isinstance(w, OmegaWord):
        raise BadInput("a finitary expression needs a finite word")
    _check_query(inst, w)
    from . import automata
    _print_coeff(inst, automata.compile(e, inst, letters), w)


def compile_cmd(name, text, lam, alphabet):
    """Compile an expression to an automaton (JSON on stdout)."""
    from . import automata
    _, inst = _instance(name, "weights", lam=lam)
    letters = _parse_alphabet(alphabet)
    aut = automata.compile(_parse_expr(text, letters), inst, letters)
    print(json.dumps(automata.automaton_to_json(aut), indent=2))
    print(f"{aut.n} states, {aut.k} repeated", file=sys.stderr)


def behavior(path, name, word, lam):
    """Finitary or infinitary coefficient of an automaton loaded from JSON."""
    from . import automata
    _, inst = _instance(name, "weights", lam=lam)
    try:
        with open(path) as fh:
            aut = automata.automaton_from_json(fh.read(), inst)
    except (OSError, ValueError) as exc:
        raise BadInput(f"--aut {path}: {exc}")
    w = _parse_cli_word(word, aut.alphabet)
    _check_query(inst, w)
    _print_coeff(inst, aut, w)


def group_check(gname, name, samples, seed, bound):
    """Plus-form (and omega-form where available) group identities."""
    from . import matrices
    groups = matrices.builtin_groups()
    if gname not in groups:
        raise BadInput(f"unknown group {gname!r}; known: {sorted(groups)}")
    entry, carrier = _instance(name, "carrier", bound=bound)
    if not core.has_plus(carrier):
        raise BadInput(f"{name} has no plus operation")
    pair = _instance(name, "pair", bound=bound)[1] if "pair" in entry.roles else None
    return _emit(matrices.group_identity_check(
        groups[gname], carrier, trials=entry.trials("group-check", samples), seed=seed,
        pair=pair))


def _trace(counterexample, depth):
    """The counterexample's trace at ``depth``, or at its default depth."""
    try:
        return counterexample() if depth is None else counterexample(depth)
    except ValueError as exc:
        raise BadInput(f"--depth {depth}: {exc}")


_COUNTEREXAMPLES = ("liminf-regroup", "avg-regroup", "avg-product-omega")


def counterexample(name, depth):
    """Reproduce one of the quantitative counterexamples (exit 1: it holds)."""
    if name == "liminf-regroup":
        if depth is not None:
            raise BadInput(f"--depth {depth}: liminf-regroup is exact and has no depth")
        inst = valuation.make_valuation_instance("liminf")
        seq = valuation.WeightedSeq((), ((1, 0.0), (1, 1.0)))
        direct = inst.val_omega(seq).value
        regrouped = inst.val_omega(seq.regroup(2, inst)).value
        print(json.dumps({"direct": direct, "regrouped": regrouped}))
        print(f"liminf: direct {direct} vs regrouped {regrouped}", file=sys.stderr)
        return 0 if inst.eq(direct, regrouped) else 1
    eq = valuation.make_valuation_instance("limsup-avg").eq
    if name == "avg-regroup":
        trace = _trace(valuation.counterexample_regroup_avg, depth)
        if trace.regrouped_estimate is None:
            raise BadInput(f"--depth {depth}: the first regrouped group ends at block 3")
        print(json.dumps(trace.to_json(), indent=2))
        print(f"limsup-avg: direct ≈ {trace.direct_estimate:.4f}, "
              f"regrouped ≈ {trace.regrouped_estimate:.4f}", file=sys.stderr)
        return 0 if eq(trace.direct_estimate, trace.regrouped_estimate) else 1
    trace = _trace(valuation.counterexample_product_omega, depth)
    print(json.dumps(trace.to_json(), indent=2))
    lhs, rhs = float(trace.lhs_estimates[-1]), float(trace.rhs_estimates[-1])
    print(f"product omega: lhs {lhs} vs rhs {rhs:.4f} (climbing to 1)", file=sys.stderr)
    return 0 if eq(lhs, rhs) else 1


def manifest(name, lam, bound, depth, seed):
    """Print the manifest (name, params, bounds, seed) of an instance."""
    entry, _ = _instance(name, "weights", lam=lam)
    print(json.dumps({"name": name, "params": entry.bind({"lam": lam}), "bound_length": bound,
                      "depth": depth, "seed": seed}, indent=2))


def _parser():
    """One subcommand per command function; the options several commands
    share are declared once, each in its own parent parser."""
    instance, lam, seed, alphabet = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    instance.add_argument("--instance", dest="name", required=True)
    lam.add_argument("--lam", "--lambda", type=float, default=0.5)
    seed.add_argument("--seed", type=int)
    alphabet.add_argument("--alphabet", default="ab")
    parser = _Parser(prog="omegalg",
                     description="Algebraic law suites, series evaluation and automaton behaviors.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, *parents):
        sub = commands.add_parser(name, parents=parents, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sub = command("laws", laws, instance, seed, lam)
    sub.add_argument("--suite", required=True, choices=list(_SUITES))
    sub.add_argument("--samples", type=_count, default=core.DEFAULT_TRIALS)
    sub.add_argument("--bound", type=_count, default=8,
                     help="word length bound for series equality")
    sub = command("coeff", coeff, instance, lam, alphabet)
    sub.add_argument("--expr", dest="text", required=True)
    sub.add_argument("--word", required=True)
    sub = command("compile", compile_cmd, instance, lam, alphabet)
    sub.add_argument("--expr", dest="text", required=True)
    sub = command("behavior", behavior, instance, lam)
    sub.add_argument("--aut", dest="path", required=True)
    sub.add_argument("--word", required=True)
    sub = command("group-check", group_check, instance, seed)
    sub.add_argument("--group", dest="gname", required=True)
    sub.add_argument("--samples", type=_count, default=30)
    sub.add_argument("--bound", type=_count, default=6)
    sub = command("counterexample", counterexample)
    sub.add_argument("--name", required=True, choices=_COUNTEREXAMPLES)
    sub.add_argument("--depth", type=int)
    sub = command("manifest", manifest, instance, lam, seed)
    sub.add_argument("--bound", type=_count, default=8)
    sub.add_argument("--depth", type=_count, default=24)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names (by default the process's arguments)
    and return its exit code; every bad input ends here as exit code 2."""
    try:
        args = vars(_parser().parse_args(argv))
        run = args.pop("run")
        if "seed" in args and args["seed"] is None:
            args["seed"] = _default_seed()
        return run(**args) or 0
    except BadInput as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
