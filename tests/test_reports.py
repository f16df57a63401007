"""Every law-report producer, pinned.

``tests/data/reports.json`` holds the ``to_json()`` of each report producer
(suite, trials, failures with their formatted inputs, skipped laws) at two
seeds, and the message of each construction-time validation, on lawful and
on deliberately broken inputs so that the failure caps are reached.  A
change to how reports are filled must leave every entry byte-identical.

Regenerate the file (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_reports.py --write
"""

import json
import pathlib
import sys

from omegalg import core, extension as E, matrices as M, series
from omegalg import valuation as V
from omegalg.instances import MinPlusCarrier

DATA = pathlib.Path(__file__).parent / "data" / "reports.json"
SEEDS = (1, 2)


class SkewedMinPlus(MinPlusCarrier):
    """Min-plus with wrong star, plus and omega: most iteration laws fail."""

    name = "minplus-skewed"

    def star(self, a):
        return a

    def plus(self, a):
        return self.mul(a, a)

    def omega(self, a):
        return a


def skewed_weights():
    """A weight structure whose products are neither associative nor
    distributive and whose valuation ignores the products."""
    return V.OmegaValuation(
        "skewed", MinPlusCarrier(),
        prod=lambda m, n, a, b: min(m * a + b, 99),
        prod_omega=lambda m, a, b: min(a + m * b, 99),
        valw_periodic=lambda prefix, block: min(d for _, d in prefix + block) + len(block),
        unit=0)


def _error(build):
    try:
        build()
    except E.ExtensionError as exc:
        return {"error": str(exc)}
    return {"error": None}


def produce() -> dict:
    """Every pinned report and validation outcome, by a descriptive key."""
    out = {}
    boolean, minplus, lattice = (V.lookup(n).make("carrier")
                                 for n in ("bool", "minplus", "lattice"))
    skewed = SkewedMinPlus()
    lang = series.language_instance(bound=3)
    lang_pair = V.lookup("lang").make("pair", bound=3)
    nat_series = series.nat_series_instance(bound=3)
    weights = {n: V.make_valuation_instance(n) for n in
               ("bool", "nat", "minplus", "sup", "liminf", "disc", "limsup-avg", "lattice-inf")}
    weights["skewed"] = skewed_weights()
    broken_bi = E.BiAction(left=lambda x, a: a, right=lambda a, x: a)
    for seed in SEEDS:
        def put(key, report):
            out[f"{key}@{seed}"] = report.to_json()

        for c in (boolean, minplus, lattice, skewed):
            put(f"conway-semiring:{c.name}",
                core.conway_semiring_laws(c, trials=60, seed=seed, derived=True))
            put(f"conway-hemiring:{c.name}", core.conway_hemiring_laws(c, trials=60, seed=seed))
        put("conway-semiring:minplus-skewed:sampled",
            core.conway_semiring_laws(skewed, trials=5, seed=seed))
        put("conway-hemiring:lang", core.conway_hemiring_laws(lang, trials=4, seed=seed))
        for c in (boolean, minplus, lattice, skewed):
            put(f"hemimodule:{c.name}", core.hemimodule_pair_laws(core.self_pair(c), trials=40,
                                                                  seed=seed))
        put("hemimodule:lang", core.hemimodule_pair_laws(lang_pair, trials=2, seed=seed))
        for name, inst in weights.items():
            put(f"multi-hemiring:{name}", V.multi_hemiring_laws(inst, trials=40, seed=seed))
            put(f"omega-valuation:{name}", V.omega_valuation_laws(inst, trials=40, seed=seed))
        put("omega-valuation:skewed:few", V.omega_valuation_laws(weights["skewed"], trials=3,
                                                                 seed=seed))

        bool_ext = E.extension(boolean, lang, validate_samples=3, seed=seed)
        nat_ext = E.extension(V.lookup("nat").make("carrier"), nat_series,
                              validate_samples=3, seed=seed)
        put("partial-conway:bool-lang", E.partial_conway_laws(bool_ext, trials=6, seed=seed))
        put("partial-conway:nat-series", E.partial_conway_laws(nat_ext, trials=6, seed=seed))
        for key, bi in (("doubled", E.BiAction(left=lambda x, a: nat_series.add(a, a),
                                              right=lambda a, x: a)),
                        ("shifted", E.BiAction(left=nat_series.nat_act,
                                              right=lambda a, x: nat_series.nat_act(x + 1, a)))):
            bad_ext = E.ExtensionAlgebra(nat_ext.s0, nat_series, bi, validate_samples=0)
            put(f"partial-conway:{key}", E.partial_conway_laws(bad_ext, trials=6, seed=seed))
        ident = E.ExtensionMorphism(nat_ext, nat_ext, lambda x: x, lambda a: a,
                                    validate_samples=3, seed=seed)
        put("morphism:identity", ident.homomorphism_report(trials=8, seed=seed))
        lifted = E.ExtensionMorphism(nat_ext, nat_ext, lambda x: 2 * x,
                                     lambda a: nat_series.add(a, a), validate_samples=0)
        put("morphism:lifted", lifted.homomorphism_report(trials=14, seed=seed))
        for pair in (lang_pair, core.self_pair(minplus), core.self_pair(skewed)):
            put(f"nat-omega:{pair.name}",
                E.nat_omega_commutation_report(pair, trials=10, seed=seed))

        out[f"validate:bi-action@{seed}"] = _error(
            lambda: E.ExtensionAlgebra(boolean, lang, broken_bi, validate_samples=20, seed=seed))
        V_ = lang_pair.module
        out[f"validate:pair@{seed}"] = _error(lambda: E.ExtensionPair(
            bool_ext, V_, h_act=lang_pair.act, h_omega=lang_pair.omega,
            s0_act=lambda x, v: V_.zero, s0_omega=lambda x: V_.zero,
            validate_samples=20, seed=seed))
        out[f"validate:pair-ok@{seed}"] = _error(lambda: E.ExtensionPair(
            bool_ext, V_, h_act=lang_pair.act, h_omega=lang_pair.omega,
            s0_act=lambda x, v: v if x else V_.zero, s0_omega=lambda x: V_.zero,
            validate_samples=3, seed=seed))
        out[f"validate:morphism@{seed}"] = _error(lambda: E.ExtensionMorphism(
            bool_ext, bool_ext, lambda x: False, lang.plus, validate_samples=20, seed=seed))

        letter = nat_series.poly({"ab"[seed - 1]: seed})
        other = nat_series.poly({"a": 1, "b": 2})
        put("fixed-point:nat-series",
            core.iterative_fixed_point_check(nat_series, letter, other, bound_length=3))
        put("fixed-point:lang", core.iterative_fixed_point_check(
            lang, lang.language("ab"[seed - 1]), lang.language("a", "bb"), bound_length=3))
        squared = series.nat_series_instance(bound=3)
        squared.plus = lambda f: squared.mul(f, f)
        put("fixed-point:squared-plus", core.iterative_fixed_point_check(
            squared, squared.poly({"a": 1}), squared.poly({"b": seed}), bound_length=3))

        def powers(c):
            def build(rng):
                m = M.mat([[c.sample(rng) for _ in range(2)] for _ in range(2)])
                return m, m, M.mat_mul(c, m, m)
            return build

        def advisory(c):
            def build(rng):
                m = M.mat([[c.sample(rng) for _ in range(2)] for _ in range(2)])
                n = M.mat([[c.sample(rng) for _ in range(2)] for _ in range(2)])
                return m, n, m
            return build

        for c in (minplus, skewed, nat_series):
            put(f"simulation:{c.name}",
                M.simulation_check(c, [powers(c), advisory(c)], trials=4, seed=seed))
        groups = M.builtin_groups()
        for gname in ("Z3", "V4", "S3"):
            for c in (minplus, skewed):
                put(f"group:{gname}:{c.name}", M.group_identity_check(
                    groups[gname], c, trials=30, seed=seed, pair=core.self_pair(c)))

        f = nat_series.plus(nat_series.poly({"a": seed, "b": 1}))
        put("bounded-eq:equal", series.bounded_eq(f, nat_series.plus(
            nat_series.poly({"b": 1, "a": seed})), 4))
        put("bounded-eq:capped", series.bounded_eq(f, nat_series.mul(f, f), 5))
        put("bounded-eq:few", series.bounded_eq(nat_series.poly({"a": 1, "ba": seed}),
                                                nat_series.poly({"a": 2}), 3))
    return out


def test_reports_match_pinned():
    want = json.loads(DATA.read_text())
    got = produce()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reports.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(produce(), indent=1, ensure_ascii=False) + "\n")
