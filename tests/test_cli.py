"""The command-line surface: exit codes, JSON shapes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import omegalg
from omegalg import valuation as V
from omegalg.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


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
           dict(good, transitions=[{"from": 0}]), [good]]
    for data in bad:
        path = _aut_file(tmp_path, json.dumps(data))
        assert_bad_input(run(runner, "behavior", "--aut", path, "--instance", "limsup",
                             "--word", "a^w"))
    res = run(runner, "behavior", "--aut", _aut_file(tmp_path, json.dumps(good)),
              "--instance", "limsup", "--word", "a^w")
    assert res.exit_code == 0 and float(res.stdout) == 2.0


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
    (("compile", "--instance", "nosuch", "--expr", "a"), "unknown instance 'nosuch'")])
def test_instance_without_the_role_rejected(runner, args, message):
    res = run(runner, *args)
    assert_bad_input(res)
    assert res.stderr == f"Error: {message}\n"


def test_manifest_params_come_from_the_registry(runner):
    def params(*args):
        return json.loads(run(runner, "manifest", "--instance", *args).stdout)["params"]

    assert params("lattice-inf") == {"base": 3}
    assert params("disc", "--lambda", "0.7") == {"lam": 0.7}
    assert params("bool") == {}


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
}


@pytest.mark.parametrize("case", list(_SWEEP))
def test_parameter_sweep_within_budget(runner, tmp_path, case):
    args, budget, code = _SWEEP[case]
    aut = _aut_file(tmp_path, json.dumps(_ring_automaton(2000)))
    args = [aut if a == "{aut}" else a for a in args]
    t0 = time.perf_counter()
    res = run(runner, *args)
    elapsed = time.perf_counter() - t0
    assert res.exit_code == code, res.stderr
    assert elapsed < budget, elapsed


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="ROADMAP item 2: the language carrier's products blow up "
                   "on the entries of the Z6 group matrix")
def test_lang_group_check_z6_within_budget():
    src = os.path.dirname(os.path.dirname(omegalg.__file__))
    subprocess.run([sys.executable, "-m", "omegalg.cli", "group-check", "--group", "Z6",
                    "--instance", "lang", "--seed", "2"], capture_output=True, timeout=3,
                   check=True, env={**os.environ, "PYTHONPATH": src})
