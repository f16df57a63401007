"""The command-line surface: exit codes, JSON shapes, determinism."""

import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import omegalg
from omegalg import valuation as V
from omegalg.cli import main

SRC = os.path.dirname(os.path.dirname(omegalg.__file__))


@pytest.fixture
def runner(capsys, monkeypatch):
    """Runs ``main`` in this process with ``env`` added to the environment;
    returns its exit code and what it wrote to stdout and stderr."""
    def invoke(args, env=None):
        with monkeypatch.context() as patch:
            for key, value in (env or {}).items():
                patch.setenv(key, value)
            capsys.readouterr()
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(exit_code=code, stdout=out, stderr=err)
    return invoke


def run(runner, *args, env=None):
    return runner(list(args), env=env)


def test_laws_pass_exit_zero(runner):
    res = run(runner, "laws", "--instance", "minplus", "--suite", "conway-semiring",
              "--samples", "200")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["failures"] == []
    assert data["suite"] == "conway-semiring"


def test_laws_liminf_fails_exit_one(runner):
    res = run(runner, "laws", "--instance", "liminf", "--suite", "omega-valuation",
              "--samples", "60")
    assert res.exit_code == 1
    data = json.loads(res.stdout)
    assert any(f["law"] == "regrouping_invariance" for f in data["failures"])


def test_laws_unknown_instance_exit_two(runner):
    res = run(runner, "laws", "--instance", "nosuch", "--suite", "conway-semiring")
    assert res.exit_code == 2


def test_laws_language_hemiring(runner):
    res = run(runner, "laws", "--instance", "lang", "--suite", "conway-hemiring",
              "--samples", "30", "--bound", "6")
    assert res.exit_code == 0


def test_laws_hemimodule_pairs(runner):
    res = run(runner, "laws", "--instance", "minplus", "--suite", "hemimodule",
              "--samples", "100")
    assert res.exit_code == 0
    res2 = run(runner, "laws", "--instance", "limsup-avg", "--suite", "hemimodule")
    assert res2.exit_code == 1
    data = json.loads(res2.stdout)
    assert data["failures"][0]["law"] == "product_omega"


def test_coeff_commands(runner):
    res = run(runner, "coeff", "--instance", "nat", "--expr", "(2a)^+", "--word", "aa")
    assert res.exit_code == 0 and res.stdout.strip() == "4"
    res2 = run(runner, "coeff", "--instance", "bool", "--expr", "(ab)^w",
               "--word", "(ab)^w")
    assert res2.exit_code == 0 and res2.stdout.strip() == "1"
    res3 = run(runner, "coeff", "--instance", "bool", "--expr", "a^+", "--word", "")
    assert res3.exit_code == 2


def test_coeff_word_kind_mismatch(runner):
    res = run(runner, "coeff", "--instance", "bool", "--expr", "a^w", "--word", "aa")
    assert res.exit_code == 2
    res2 = run(runner, "coeff", "--instance", "bool", "--expr", "a^+", "--word", "a^w")
    assert res2.exit_code == 2


def test_coeff_parse_error(runner):
    res = run(runner, "coeff", "--instance", "bool", "--expr", "a +", "--word", "a")
    assert res.exit_code == 2


def test_compile_and_behavior(runner, tmp_path):
    res = run(runner, "compile", "--instance", "disc", "--expr", "a^w",
              "--alphabet", "a")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["k"] >= 1
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(data))
    res2 = run(runner, "behavior", "--aut", str(path), "--instance", "disc",
               "--word", "a^w", "--lambda", "0.5")
    assert res2.exit_code == 0
    assert abs(float(res2.stdout.strip()) - 2.0) <= 1e-6


def test_behavior_finite_word(runner, tmp_path):
    res = run(runner, "compile", "--instance", "nat", "--expr", "(2a)^+",
              "--alphabet", "a")
    path = tmp_path / "aut.json"
    path.write_text(res.stdout)
    res2 = run(runner, "behavior", "--aut", str(path), "--instance", "nat",
               "--word", "aa")
    assert res2.stdout.strip() == "4"


def test_group_check(runner):
    res = run(runner, "group-check", "--group", "S3", "--instance", "minplus",
              "--samples", "8")
    assert res.exit_code == 0
    res2 = run(runner, "group-check", "--group", "K9", "--instance", "minplus")
    assert res2.exit_code == 2


def test_counterexamples(runner):
    res = run(runner, "counterexample", "--name", "liminf-regroup")
    assert res.exit_code == 1
    data = json.loads(res.stdout)
    assert data["direct"] == 0.0 and data["regrouped"] == 1.0
    res2 = run(runner, "counterexample", "--name", "avg-regroup", "--depth", "24")
    assert res2.exit_code == 1
    data2 = json.loads(res2.stdout)
    assert abs(data2["direct_estimate"] - 2 / 3) <= 0.02
    assert abs(data2["regrouped_estimate"] - 1 / 3) <= 0.02
    res3 = run(runner, "counterexample", "--name", "avg-product-omega", "--depth", "8")
    assert res3.exit_code == 1
    data3 = json.loads(res3.stdout)
    assert data3["lhs"][-1] == 0.5 and data3["rhs"][-1] >= 0.9


def test_seed_determinism(runner):
    args = ("laws", "--instance", "minplus", "--suite", "conway-semiring",
            "--samples", "50", "--seed", "7")
    assert run(runner, *args).stdout == run(runner, *args).stdout


def test_lang_hemimodule_report_does_not_depend_on_hash_order():
    """Fingerprints are sets of interned lassos hashed by identity, so they
    iterate in an order set by addresses and string hashes; the report must
    not depend on it.  Two processes with different string hash seeds print
    the same bytes."""
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "omegalg.cli", "laws", "--instance", "lang",
                               "--suite", "hemimodule", "--seed", "3"], capture_output=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": SRC,
                                               "PYTHONHASHSEED": hash_seed})
        assert proc.returncode in (0, 1), proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["suite"] == "hemimodule:lang-pair(ab)"


def test_env_seed_override(runner):
    res = run(runner, "manifest", "--instance", "disc", env={"OMEGA_WEIGHTS_SEED": "99"})
    data = json.loads(res.stdout)
    assert data["seed"] == 99
    assert data["params"] == {"lam": 0.5}


def test_manifest_shape(runner):
    res = run(runner, "manifest", "--instance", "lattice-inf")
    data = json.loads(res.stdout)
    assert set(data) == {"name", "params", "bound_length", "depth", "seed"}


def assert_bad_input(res):
    """Exit 2, nothing on stdout, one ``Error:`` line on stderr."""
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), res.stderr


def test_coeff_rejects_foreign_letter_in_finite_word(runner):
    assert_bad_input(run(runner, "coeff", "--instance", "bool", "--expr", "a", "--word", "c"))


def test_coeff_rejects_foreign_letter_in_omega_word(runner):
    assert_bad_input(run(runner, "coeff", "--instance", "bool", "--expr", "(ab)^w",
                         "--word", "c^w"))


def test_expression_letters_outside_alphabet_rejected(runner):
    assert_bad_input(run(runner, "coeff", "--instance", "nat", "--expr", "a + c",
                         "--word", "a"))
    assert_bad_input(run(runner, "compile", "--instance", "bool", "--expr", "c^w"))


def test_coeff_rejects_lambda_outside_unit_interval(runner):
    assert_bad_input(run(runner, "coeff", "--instance", "disc", "--expr", "a^+",
                         "--word", "a", "--lambda", "1.5"))


def test_coeff_omega_needs_infinitary_strategy(runner):
    assert_bad_input(run(runner, "coeff", "--instance", "liminf", "--expr", "a^w",
                         "--word", "a^w"))


def test_group_check_needs_plus(runner):
    assert_bad_input(run(runner, "group-check", "--group", "S3", "--instance", "nat"))


def test_coeff_exact_on_words_longer_than_the_default_bound(runner):
    # series tabulate words up to length 8 by default; this word is longer
    res = run(runner, "coeff", "--instance", "nat", "--expr", "(2a)^+",
              "--word", "a" * 12)
    assert res.exit_code == 0 and res.stdout.strip() == "4096"


def test_coeff_long_word_on_a_dense_series(runner):
    # the support of (a+b)^+ is every nonempty word; the query must stay
    # polynomial in the word's length
    word = "abbabaabbbaababbbaaabaabbabaababbaabbaba"
    res = run(runner, "coeff", "--instance", "bool", "--expr", "(a+b)^+", "--word", word)
    assert res.exit_code == 0 and res.stdout.strip() == "1"
    res = run(runner, "coeff", "--instance", "nat", "--expr", "(a+b+c+d)^+",
              "--word", "abcd" * 8, "--alphabet", "abcd")
    assert res.exit_code == 0 and res.stdout.strip() == "1"


def _aut_file(tmp_path, text):
    path = tmp_path / "aut.json"
    path.write_text(text)
    return str(path)


def test_behavior_rejects_non_json_automaton(tmp_path, runner):
    path = _aut_file(tmp_path, "states: 2\n")
    assert_bad_input(run(runner, "behavior", "--aut", path, "--instance", "bool",
                         "--word", "a"))


def test_behavior_rejects_automaton_without_transitions(tmp_path, runner):
    path = _aut_file(tmp_path, json.dumps({"n": 1}))
    assert_bad_input(run(runner, "behavior", "--aut", path, "--instance", "bool",
                         "--word", "a"))


def test_behavior_rejects_state_out_of_range(tmp_path, runner):
    aut = {"n": 2, "k": 0, "alphabet": ["a"], "alpha": ["1", "0"], "beta": ["0", "1"],
           "transitions": [{"from": 0, "to": 2, "letter": "a", "weight": "1"}]}
    path = _aut_file(tmp_path, json.dumps(aut))
    assert_bad_input(run(runner, "behavior", "--aut", path, "--instance", "bool",
                         "--word", "a"))
    aut["transitions"][0]["to"] = 1
    res = run(runner, "behavior", "--aut", _aut_file(tmp_path, json.dumps(aut)),
              "--instance", "bool", "--word", "a")
    assert res.exit_code == 0 and res.stdout.strip() == "1"


def test_behavior_rejects_bad_shapes_and_weights(tmp_path, runner):
    good = {"n": 1, "k": 1, "alphabet": ["a"], "alpha": ["1"], "beta": ["0"],
            "transitions": [{"from": 0, "to": 0, "letter": "a", "weight": "2"}]}
    bad = [dict(good, k=2), dict(good, alphabet="a"), dict(good, alpha=["1", "1"]),
           dict(good, transitions=[dict(good["transitions"][0], letter="b")]),
           dict(good, transitions=[dict(good["transitions"][0], weight="x")]),
           dict(good, transitions=[{"from": 0}]), [good],
           dict(good, alpha=[1.5]), dict(good, alpha=[True]), dict(good, alpha=[1e300]),
           dict(good, n=-1), dict(good, alpha=["x"]), dict(good, transitions={})]
    bad += [dict(good, transitions=[dict(good["transitions"][0], weight=weight)])
            for weight in ("nan", float("nan"), None)]  # NaN as a string and as a literal; null

    def weighted(weight):
        return dict(good, beta=["1"], transitions=[dict(good["transitions"][0], weight=weight)])
    bad = [("limsup", "a^w", data) for data in bad]
    bad += [(instance, "a", weighted(weight)) for instance, weight in (
        ("minplus", "5000000000"), ("minplus", "-1"),  # above the cap, below zero
        ("bool", "maybe"), ("nat", "-1"), ("lattice", "a"), ("lattice", "{z}"))]
    for instance, word, data in bad:
        path = _aut_file(tmp_path, json.dumps(data))
        assert_bad_input(run(runner, "behavior", "--aut", path, "--instance", instance,
                             "--word", word))
    res = run(runner, "behavior", "--aut", _aut_file(tmp_path, json.dumps(good)),
              "--instance", "limsup", "--word", "a^w")
    assert res.exit_code == 0 and float(res.stdout) == 2.0
    for weight in ("0", "false"):   # the boolean zero, spelled two ways
        res = run(runner, "behavior", "--aut", _aut_file(tmp_path, json.dumps(weighted(weight))),
                  "--instance", "bool", "--word", "a")
        assert res.exit_code == 0 and res.stdout == "0\n"


@pytest.mark.parametrize("alphabet, problem", [
    (["a", "a"], "repeats 'a'"),
    (["a", "\u00e9"], "not letters a-z"),
    (["a", " "], "not letters a-z"),
    (["a", "ab"], "not letters a-z"),
    (["a", "a", "\u00e9", " "], "not letters a-z"),
])
def test_behavior_rejects_alphabets_the_grammar_cannot_spell(tmp_path, runner, alphabet, problem):
    aut = {"n": 1, "k": 0, "alphabet": alphabet, "alpha": ["1"], "beta": ["1"],
           "transitions": [{"from": 0, "to": 0, "letter": "a", "weight": "1"}]}
    res = run(runner, "behavior", "--aut", _aut_file(tmp_path, json.dumps(aut)),
              "--instance", "nat", "--word", "a")
    assert_bad_input(res)
    assert problem in res.stderr


def test_bound_below_one_rejected(runner):
    for bound in ("0", "-1"):
        assert_bad_input(run(runner, "laws", "--instance", "lang", "--suite",
                             "conway-hemiring", "--bound", bound))
        assert_bad_input(run(runner, "group-check", "--group", "S3", "--instance", "lang",
                             "--bound", bound))


@pytest.mark.parametrize("bound", ["15", "200"])
def test_lang_laws_at_long_bounds_finish(runner, bound):
    """Language equality walks pairs of DFA states once, so its cost does not
    grow with the word-length bound."""
    t0 = time.perf_counter()
    res = run(runner, "laws", "--instance", "lang", "--suite", "conway-hemiring",
              "--bound", bound)
    elapsed = time.perf_counter() - t0
    assert res.exit_code == 0 and json.loads(res.stdout)["failures"] == []
    assert elapsed < 3.0, elapsed


@pytest.mark.parametrize("name,depth", [
    ("avg-product-omega", "2"), ("avg-product-omega", "0"), ("avg-regroup", "-3"),
    ("avg-regroup", "0"), ("avg-regroup", "1"), ("avg-regroup", "2")])
def test_counterexample_depth_too_small_rejected(runner, name, depth):
    assert_bad_input(run(runner, "counterexample", "--name", name, "--depth", depth))


def test_counterexample_smallest_depths(runner):
    res = run(runner, "counterexample", "--name", "avg-regroup", "--depth", "3")
    assert res.exit_code == 1
    assert len(json.loads(res.stdout)["regrouped"]) == 1
    res = run(runner, "counterexample", "--name", "avg-product-omega", "--depth", "4")
    assert res.exit_code == 1 and len(json.loads(res.stdout)["lhs"]) == 4


@pytest.mark.parametrize("name,cap", [("avg-regroup", V.MAX_REGROUP_BLOCKS),
                                      ("avg-product-omega", V.MAX_PRODUCT_OMEGA_DEPTH)])
def test_counterexample_depth_capped(runner, name, cap):
    start = time.monotonic()
    res = run(runner, "counterexample", "--name", name, "--depth", str(cap))
    assert time.monotonic() - start < 3.0
    assert res.exit_code == 1
    assert_bad_input(run(runner, "counterexample", "--name", name, "--depth", str(cap + 1)))


def test_laws_report_skipped_omega_laws(runner):
    res = run(runner, "laws", "--instance", "nat", "--suite", "omega-valuation",
              "--samples", "3", "--seed", "1")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["trials"] == 30 and data["failures"] == []
    assert set(data["skipped"]) == {"valuation_peel", "infinitary_distributivity",
                                    "regrouping_invariance"}
    assert set(data["skipped"].values()) == {"nat: no exact infinitary valuation"}
    assert res.stderr.startswith("[omega-valuation:nat] 30 trials: ok; skipped valuation_peel")
    # an instance with an exact infinitary valuation checks them all
    res = run(runner, "laws", "--instance", "sup", "--suite", "omega-valuation",
              "--samples", "3", "--seed", "1")
    assert res.exit_code == 0 and "skipped" not in res.stdout + res.stderr


def test_laws_rejects_samples_below_one(runner):
    for samples in ("0", "-4"):
        assert_bad_input(run(runner, "laws", "--instance", "minplus", "--suite",
                             "conway-hemiring", "--samples", samples))


def test_group_check_rejects_samples_below_one(runner):
    for samples in ("0", "-4"):
        assert_bad_input(run(runner, "group-check", "--group", "S3", "--instance", "minplus",
                             "--samples", samples))


@pytest.mark.parametrize("args,message", [
    (("coeff", "--instance", "extreal", "--expr", "a", "--word", "a"),
     "instance 'extreal' has no weights"),
    (("laws", "--instance", "sup", "--suite", "conway-hemiring"), "instance 'sup' has no carrier"),
    (("laws", "--instance", "lattice-inf", "--suite", "conway-semiring"),
     "instance 'lattice-inf' has no carrier"),
    (("laws", "--instance", "lang", "--suite", "multi-hemiring"), "instance 'lang' has no weights"),
    (("laws", "--instance", "nat", "--suite", "hemimodule"), "instance 'nat' has no pair"),
    (("group-check", "--group", "S3", "--instance", "sup"), "instance 'sup' has no carrier"),
    (("manifest", "--instance", "lang"), "instance 'lang' has no weights"),
    (("compile", "--instance", "nosuch", "--expr", "a"), "unknown instance 'nosuch'"),
    (("laws", "--instance", "nat", "--suite", "conway-semiring"), "nat has no star operation")])
def test_instance_without_the_role_rejected(runner, args, message):
    res = run(runner, *args)
    assert_bad_input(res)
    assert res.stderr == f"Error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (("--expr", "a", "--word", "a(b"), "not a word: 'a(b'"),
    (("--expr", "a^w", "--word", "(ab)^w^w"), "not an omega word: '(ab)^w^w'"),
    (("--expr", "a)", "--word", "a"), "bad expression: trailing input ')' (at position 1)")])
def test_unreadable_words_and_expressions_rejected(runner, args, message):
    res = run(runner, "coeff", "--instance", "bool", *args)
    assert_bad_input(res)
    assert res.stderr == f"Error: {message}\n"


def test_manifest_params_come_from_the_registry(runner):
    def params(*args):
        return json.loads(run(runner, "manifest", "--instance", *args).stdout)["params"]

    assert params("lattice-inf") == {"base": 3}
    assert params("disc", "--lambda", "0.7") == {"lam": 0.7}
    assert params("bool") == {}


@pytest.mark.parametrize("args", [("--bound", "0"), ("--bound", "-1"), ("--depth", "0"),
                                  ("--depth", "-3")])
def test_manifest_rejects_what_the_commands_reject(runner, args):
    assert_bad_input(run(runner, "manifest", "--instance", "disc", *args))


@pytest.mark.parametrize("args", [
    ("compile", "--instance", "nat", "--expr", "a+a", "--alphabet", "aa"),
    ("coeff", "--instance", "nat", "--expr", "a", "--word", "a", "--alphabet", "abb"),
])
def test_alphabet_with_a_repeated_letter_rejected(runner, args):
    res = run(runner, *args)
    assert_bad_input(res)
    assert "repeats" in res.stderr


@pytest.mark.parametrize("args", [
    ("compile", "--instance", "nat", "--expr", "a", "--alphabet", "a b("),
    ("coeff", "--instance", "nat", "--expr", "a", "--word", "a", "--alphabet", "a+2"),
    ("compile", "--instance", "nat", "--expr", "\u00e9", "--alphabet", "\u00e9"),
    ("coeff", "--instance", "nat", "--expr", "\u00e9", "--word", "\u00e9", "--alphabet", "\u00e9"),
])
def test_letters_outside_a_to_z_rejected(runner, args):
    assert_bad_input(run(runner, *args))


def test_malformed_env_seed_rejected(runner):
    res = run(runner, "manifest", "--instance", "disc", env={"OMEGA_WEIGHTS_SEED": "abc"})
    assert_bad_input(res)
    assert "OMEGA_WEIGHTS_SEED" in res.stderr


@pytest.mark.parametrize("args", [
    ("laws", "--instance", "minplus"),
    ("manifest", "--instance", "disc", "--nosuch", "1"),
    ("manifest", "--inst", "disc"),
    ("laws", "--instance", "minplus", "--suite", "conway-semiring", "--samples", "many"),
    ("laws", "--instance", "minplus", "--suite", "nosuch"),
    ("counterexample", "--name", "nosuch"),
    ("nosuch",),
    (),
], ids=["missing-option", "unknown-option", "abbreviated-option", "non-integer-samples",
        "unknown-suite", "unknown-name", "unknown-command", "no-command"])
def test_usage_errors_are_bad_input(runner, args):
    assert_bad_input(run(runner, *args))


def _ring_automaton(n):
    """An n-state automaton over {a, b}: two out-edges per state and letter."""
    edges = [{"from": i, "to": t, "letter": ch, "weight": str((7 * i + t) % 5)}
             for i in range(n) for ch in "ab" for t in ((i + 1) % n, (3 * i + 7) % n)]
    return {"n": n, "k": n // 2, "alphabet": ["a", "b"], "alpha": ["1"] + ["0"] * (n - 1),
            "beta": ["1"] * n, "transitions": edges}


_LASSO_8000 = "a" * 4000 + "(" + "ab" * 1999 + "b)^w"


# Each user-controlled parameter at a large value, with a time budget of
# about five times the time measured in-process on a shared 2-core machine
# (at least 1 s); (args, budget in s, exit code).
_SWEEP = {
    "depth-liminf-regroup": (("counterexample", "--name", "liminf-regroup", "--depth", "24"),
                             1.0, 2),
    "depth-avg-regroup": (("counterexample", "--name", "avg-regroup",
                           "--depth", str(V.MAX_REGROUP_BLOCKS)), 1.0, 1),
    "depth-avg-product-omega": (("counterexample", "--name", "avg-product-omega",
                                 "--depth", str(V.MAX_PRODUCT_OMEGA_DEPTH)), 1.0, 1),
    "bound-1000": (("laws", "--instance", "lang", "--suite", "conway-hemiring",
                    "--bound", "1000"), 1.0, 0),
    "samples-20000": (("laws", "--instance", "minplus", "--suite", "conway-semiring",
                       "--samples", "20000"), 3.0, 0),
    "lambda-to-1": (("coeff", "--instance", "disc", "--expr", "(a+b)^+ (ab+b)^w",
                     "--word", "ab(abb)^w", "--lambda", "0.999999999"), 1.0, 0),
    **{f"laws-disc-{lam}": (("laws", "--instance", "disc", "--suite", "omega-valuation",
                             "--lambda", lam), 1.0, 0) for lam in ("0.9999", "0.9999999999")},
    "word-20000": (("coeff", "--instance", "nat", "--expr", "(a+b)^+ (ab+b)^+",
                    "--word", "ab" * 10000), 3.0, 0),
    "lasso-8000": (("coeff", "--instance", "disc", "--expr", "(a+b)^+ (ab+b)^w",
                    "--word", _LASSO_8000), 1.0, 0),
    "aut-2000-word": (("behavior", "--aut", "{aut}", "--instance", "limsup",
                       "--word", "ab" * 50), 1.5, 0),
    "aut-2000-lasso": (("behavior", "--aut", "{aut}", "--instance", "disc",
                        "--word", "a(ab)^w"), 1.0, 0),
    "aut-2000-limsup-avg": (("behavior", "--aut", "{aut}", "--instance", "limsup-avg",
                             "--word", "a(ab)^w"), 1.0, 0),
    **{f"group-{g}-{inst}": (("group-check", "--group", g, "--instance", inst), 1.0, 0)
       for g in ("S3", "Z6") for inst in ("bool", "minplus", "lattice")},
    "scalar-nat": (("coeff", "--instance", "nat", "--expr", "10000000a", "--word", "a"),
                   1.0, 0),
    "scalar-disc": (("coeff", "--instance", "disc", "--expr", "10000000a", "--word", "a"),
                    1.0, 0),
    "scalar-bool-omega": (("coeff", "--instance", "bool", "--expr", "(10000000a)^w",
                           "--word", "a^w"), 1.0, 0),
    "aut-alpha-1e20": (("behavior", "--aut", "{alpha}", "--instance", "nat", "--word", "a"),
                       1.0, 0),
}


def _scaled_automaton(alpha):
    """One state over {a}, initial coefficient ``alpha``, a loop of weight 1."""
    return {"n": 1, "k": 1, "alphabet": ["a"], "alpha": [str(alpha)], "beta": ["1"],
            "transitions": [{"from": 0, "to": 0, "letter": "a", "weight": "1"}]}


@pytest.mark.parametrize("case", list(_SWEEP))
def test_parameter_sweep_within_budget(runner, tmp_path, case):
    args, budget, code = _SWEEP[case]
    files = {"{aut}": _ring_automaton(2000), "{alpha}": _scaled_automaton(10 ** 20)}
    for name, data in files.items():
        path = tmp_path / f"{name[1:-1]}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)
    args = [files.get(a, a) for a in args]
    t0 = time.perf_counter()
    res = run(runner, *args)
    elapsed = time.perf_counter() - t0
    assert res.exit_code == code, res.stderr
    assert elapsed < budget, elapsed


def test_large_scalars_are_exact(runner, tmp_path):
    """A scalar's value does not set the run time, and it is printed exactly."""
    res = run(runner, "coeff", "--instance", "nat", "--expr", "99999999999999999999a",
              "--word", "a")
    assert res.exit_code == 0 and res.stdout.strip() == "99999999999999999999"
    aut = tmp_path / "alpha.json"
    aut.write_text(json.dumps(_scaled_automaton(10 ** 20)))
    res = run(runner, "behavior", "--aut", str(aut), "--instance", "nat", "--word", "aaa")
    assert res.exit_code == 0 and res.stdout.strip() == str(10 ** 20)


def test_nat_prints_numbers_past_the_str_digit_limit(runner):
    """(a + a)^+ on 15,000 a's is 2^15000, 4,516 digits: more than ``str``
    converts by default.  It is printed exactly, and Python's limit stays."""
    limit = sys.get_int_max_str_digits()
    res = run(runner, "coeff", "--instance", "nat", "--expr", "(a+a)^+", "--word", "a" * 15000)
    assert res.exit_code == 0, res.stderr
    digits = res.stdout.strip()
    value = 0
    for i in range(0, len(digits), 1000):           # int() has the same limit
        value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    assert len(digits) == 4516 and value == 2 ** 15000
    assert sys.get_int_max_str_digits() == limit


def test_limsup_avg_policy_iteration_ends_on_a_long_period(tmp_path):
    """Three states and a random period: 2,000 letters at seed 0, 12,000 at
    seed 3.  Rounding along a cycle of the product once made each bias pass
    of Howard's iteration report a switch that changed no edge (seed 0), and
    then accept gains within the rounding of a bias summed along 36,000
    nodes, so that edges took turns (seed 3): neither query ended."""
    for seed, m, want in ((0, 2000, "2.583"), (3, 12000, "3.5418333333333334")):
        rng = random.Random(seed)
        edges = [{"from": i, "to": t, "letter": ch, "weight": str(rng.randrange(5))}
                 for i in range(3) for ch in "ab" for t in range(3) if rng.random() < 0.7]
        period = "".join(rng.choice("ab") for _ in range(m))
        aut = tmp_path / "aut.json"
        aut.write_text(json.dumps({"n": 3, "k": 3, "alphabet": ["a", "b"],
                                   "alpha": ["1", "0", "0"], "beta": ["1", "1", "1"],
                                   "transitions": edges}))
        proc = subprocess.run([sys.executable, "-m", "omegalg.cli", "behavior", "--aut", str(aut),
                               "--instance", "limsup-avg", "--word", f"a({period})^w"],
                              capture_output=True, text=True, timeout=10, check=True,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.stdout.strip() == want, seed


# ``python -m omegalg.cli`` under a recursion limit far below the depth of
# the expressions below, so a walk that recursed over their nodes would fail.
_SHALLOW_CLI = ("import sys; sys.setrecursionlimit(150); from omegalg.cli import main; "
                "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("instance, expr, word, want", [
    ("nat", "a" * 2000, "a" * 2000, "1"),
    ("nat", "+".join("a" * 2000), "a", "2000"),
    ("nat", "a" + "^+" * 2000, "aa", "2000"),
    ("bool", "a" * 1000 + "(ab)^w", "a" * 1000 + "(ab)^w", "1"),
], ids=["product", "sum", "plus", "omega"])
def test_long_expressions_read_without_recursion(instance, expr, word, want):
    for args in (("coeff", "--word", word), ("compile",)):
        proc = subprocess.run([sys.executable, "-c", _SHALLOW_CLI, args[0], "--instance", instance,
                               "--expr", expr, *args[1:]], capture_output=True, text=True,
                              timeout=10, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        if args[0] == "coeff":
            assert proc.stdout.strip() == want
        else:
            assert json.loads(proc.stdout)["n"] > 1


def test_deeply_nested_parentheses_are_bad_input(runner):
    assert_bad_input(run(runner, "coeff", "--instance", "nat",
                         "--expr", "(" * 400 + "a" + ")" * 400, "--word", "a"))


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="ROADMAP item 2: with subsets reduced to their inclusion-maximal "
                   "states the check still takes about 5 s, above this 3 s budget")
def test_lang_group_check_z6_within_budget():
    subprocess.run([sys.executable, "-m", "omegalg.cli", "group-check", "--group", "Z6",
                    "--instance", "lang", "--seed", "2"], capture_output=True, timeout=3,
                   check=True, env={**os.environ, "PYTHONPATH": SRC})


# Runs ``python -m omegalg.cli ARGS`` through runpy and prints, as the last
# stdout line, the omegalg modules loaded by then, and click, dataclasses and
# inspect if the call loaded them (the bare interpreter may already hold some).
_LOADED_BY = """
import sys
held = set(sys.modules)
import runpy
sys.argv = ["omegalg.cli", *sys.argv[1:]]
try:
    runpy.run_module("omegalg.cli", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(m for m in sys.modules if m.startswith("omegalg.")
                          or m in {"click", "dataclasses", "inspect"} - held)))
"""

_LIBRARY = {"automata", "matrices", "ratexpr", "series", "dfa", "omegalang", "extension"}


def _loaded(cwd, *args, bad=False):
    """The modules a call loads; ``bad``: the call is bad input."""
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY, *args], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    if bad:
        assert proc.returncode == 2 and proc.stderr.startswith("Error: "), proc.stderr
    else:   # 0: checks passed, 1: a law failed or a counterexample holds
        assert proc.returncode in (0, 1) and "Error" not in proc.stderr, proc.stderr
    loaded = {m.removeprefix("omegalg.") for m in proc.stdout.splitlines()[-1].split()}
    assert not loaded & {"click", "dataclasses", "inspect"}, (args, loaded)
    return loaded


def test_import_omegalg_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, omegalg; "
         "print([m for m in sys.modules if m.startswith('omegalg.')])"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.strip() == "[]"


def test_no_submodule_loads_dataclasses():
    names = sorted(f[:-3] for f in os.listdir(os.path.join(SRC, "omegalg"))
                   if f.endswith(".py") and f != "__init__.py")
    proc = subprocess.run(
        [sys.executable, "-c", "import importlib, sys\n"
         f"for name in {names!r}: importlib.import_module('omegalg.' + name)\n"
         "print(len([m for m in sys.modules if m.startswith('omegalg.')]), "
         "'dataclasses' in sys.modules, 'inspect' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.split() == [str(len(names)), "False", "False"], names


@pytest.mark.parametrize("args", [
    ("manifest", "--instance", "disc"),
    ("counterexample", "--name", "liminf-regroup"),
    ("counterexample", "--name", "avg-regroup"),
    ("counterexample", "--name", "avg-product-omega"),
    ("laws", "--instance", "minplus", "--suite", "conway-semiring", "--samples", "5"),
])
def test_commands_without_series_load_no_library_module(tmp_path, args):
    assert not _loaded(tmp_path, *args) & _LIBRARY


def test_series_commands_load_no_matrices_or_languages(tmp_path):
    (tmp_path / "aut.json").write_text(json.dumps(_ring_automaton(3)))
    for args in [("coeff", "--instance", "nat", "--expr", "(2a)^+", "--word", "aa"),
                 ("coeff", "--instance", "bool", "--expr", "(ab)^w", "--word", "(ab)^w"),
                 ("compile", "--instance", "disc", "--expr", "a^w"),
                 ("behavior", "--aut", "aut.json", "--instance", "disc", "--word", "a(ab)^w")]:
        loaded = _loaded(tmp_path, *args)
        assert {"automata", "ratexpr", "series"} <= loaded, args
        assert not loaded & {"matrices", "dfa", "omegalang", "extension"}, args


@pytest.mark.parametrize("instance, expr, word, more, unloaded", [
    ("bool", "a +", "a", (), {"automata", "series"}),
    ("disc", "a^+", "a", ("--lambda", "1.5"), {"automata", "series"}),
    ("bool", "a^+", "", (), {"automata"}),
    ("bool", "a", "c", (), {"automata"}),
    ("liminf", "a^w", "a^w", (), {"automata"}),
], ids=["parse-error", "lambda-1.5", "empty-word", "foreign-letter", "no-strategy"])
def test_bad_coeff_input_loads_no_compiler(tmp_path, instance, expr, word, more, unloaded):
    loaded = _loaded(tmp_path, "coeff", "--instance", instance, "--expr", expr, "--word", word,
                     *more, bad=True)
    assert not loaded & unloaded, loaded


def test_language_pair_laws_load_no_automata(tmp_path):
    loaded = _loaded(tmp_path, "laws", "--instance", "lang", "--suite", "hemimodule",
                     "--samples", "2")
    assert {"dfa", "omegalang"} <= loaded
    assert not loaded & {"automata", "matrices", "extension"}


def test_group_check_loads_matrices(tmp_path):
    assert "matrices" in _loaded(tmp_path, "group-check", "--group", "S3", "--instance",
                                 "minplus", "--samples", "2")


def test_package_names_resolve_to_their_submodules():
    assert omegalg.__all__ == [
        "HemimodulePair", "LawReport", "OmegaWord", "Series", "WeightedSeq",
        "bounded_eq", "conway_hemiring_laws", "conway_semiring_laws",
        "hemimodule_pair_laws", "iterative_fixed_point_check", "language_instance",
        "make_instance", "make_valuation_instance", "parse_word", "plus_from_star",
        "self_pair", "star_from_plus"]
    for name in omegalg.__all__:
        value = getattr(omegalg, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("omegalg.") and getattr(home, name) is value, name
        assert name in dir(omegalg)
    with pytest.raises(AttributeError):
        omegalg.no_such_name
