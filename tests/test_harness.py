import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wfa_hedge.approx import divergence_inf, kl_divergence
from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.cli import main as cli_main
from wfa_hedge.harness import (ExperimentConfig, _gen_awake, build_automaton, compare,
                               gen_losses, read_awake_csv, read_losses_csv,
                               report_to_json, run_experiment, write_losses_csv)
from wfa_hedge.hedge import horizon_product, tune_eta_fixed
from wfa_hedge.ngram import bigram_phi_machine, fixed_share_bigram
from wfa_hedge.sleeping import sleeping_regret
from wfa_hedge.wfa import count_accepting_paths, intersect

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "automaton": {"builder": "kshift", "params": {"num_experts": 3, "shifts": 2}},
    "horizon": 6,
    "losses": {"generator": "iid_uniform", "seed": 7},
    "eta": 0.8,
    "seed": 11,
}


def cfg_with(**kw):
    return ExperimentConfig.from_dict({**BASE, **kw})


# -- loss generators ---------------------------------------------------------------


def test_iid_uniform_is_seed_deterministic():
    a = gen_losses("iid_uniform", {}, 3, 10, 4)
    b = gen_losses("iid_uniform", {}, 3, 10, 4)
    assert (a == b).all()
    c = gen_losses("iid_uniform", {}, 4, 10, 4)
    assert (a != c).any()


def test_adversarial_best_path_target_has_zero_loss():
    target = "aabbc"
    losses = gen_losses("adversarial_best_path", {"target": target}, 0, 5, 3)
    sym = {"a": 0, "b": 1, "c": 2}
    assert sum(losses[t][sym[c]] for t, c in enumerate(target)) == 0.0
    others = [losses[t][j] for t in range(5) for j in range(3) if j != sym[target[t]]]
    assert min(others) >= 0.5


def test_adversarial_best_path_names_a_target_symbol_outside_the_alphabet():
    with pytest.raises(ValueError, match=r"target symbol 'z' at round 3 is not in the alphabet"):
        gen_losses("adversarial_best_path", {"target": "abz"}, 0, 3, 3)


def test_adversarial_best_path_refuses_an_alphabet_of_another_size():
    with pytest.raises(ValueError, match="alphabet has 2 symbols for 3 experts"):
        gen_losses("adversarial_best_path", {"target": "ab", "alphabet": "ab"}, 0, 2, 3)


def test_piecewise_stationary_gap():
    seg = 500
    losses = gen_losses("piecewise_stationary",
                        {"segment_length": seg, "low": 0.1, "high": 0.9},
                        5, 3 * seg, 3)
    assert losses.shape == (3 * seg, 3)
    assert set(np.unique(losses)) <= {0.0, 1.0}
    # identify the favored expert per segment from the sample means and
    # check the 0.9 - 0.1 = 0.8 gap against everyone else
    for s in range(3):
        block = losses[s * seg:(s + 1) * seg]
        means = block.mean(axis=0)
        favored = int(means.argmin())
        others = np.delete(means, favored)
        assert abs(means[favored] - 0.1) < 0.06
        assert abs(others.mean() - 0.9) < 0.06
        assert others.mean() - means[favored] == pytest.approx(0.8, abs=0.1)


def test_losses_csv_roundtrip(tmp_path):
    losses = gen_losses("iid_uniform", {}, 1, 6, 3)
    path = tmp_path / "l.csv"
    write_losses_csv(losses, path)
    again = read_losses_csv(path)
    assert (again == losses).all()


def test_losses_csv_names_the_line_of_a_short_row(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0.1,0.2\n\n0.3\n")
    with pytest.raises(ValueError, match=r"l\.csv line 3: 1 losses, the first row has 2"):
        read_losses_csv(path)


def test_losses_csv_names_the_line_of_a_field_that_is_not_a_number(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0.1,0.2\n0.3,x\n")
    with pytest.raises(ValueError, match=r"l\.csv line 2: could not convert string to float: 'x'"):
        read_losses_csv(path)
    path.write_text("0.1,nan\n")  # read; run_experiment refuses it as out of [0, 1]
    assert math.isnan(read_losses_csv(path)[0, 1])


def test_awake_csv_formats(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("101\nb;c\n111\n")
    masks = read_awake_csv(path, ("a", "b", "c"))
    assert (masks[0] == [True, False, True]).all()
    assert (masks[1] == [False, True, True]).all()
    assert (masks[2] == [True, True, True]).all()


def test_awake_csv_names_the_bad_row(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("101\na;x\n")
    with pytest.raises(ValueError, match=r"awake line 2, 'a;x': unknown expert 'x'"):
        read_awake_csv(path, ("a", "b", "c"))
    path.write_text("b\n\n10\n")
    with pytest.raises(ValueError, match=r"awake line 3, '10': a bitstring needs 3 digits"):
        read_awake_csv(path, ("a", "b", "c"))


@pytest.mark.parametrize("awake, message", [
    ({"generator": "random_subsets", "params": {"density": 0.0}}, "density must lie in"),
    ({"generator": "random_subsets", "params": {"density": -0.5}}, "density must lie in"),
    ({"generator": "random_subsets", "params": {"density": float("nan")}}, "density must lie in"),
    ({"generator": "random_subsets", "params": {"density": 1.5}}, "density must lie in"),
    ({"generator": "bursty", "params": {"density": 0.5}}, "unknown awake generator 'bursty'"),
])
def test_awake_generator_rejects_bad_sources(awake, message):
    # A density of 0 or below, or NaN, used to redraw an empty mask forever.
    cfg = cfg_with(algorithm="awake-hedge", awake=awake)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)


def test_awake_generator_at_a_tiny_density_returns_at_once():
    # Redrawing whole masks until one expert wakes took ~1e12 draws here.
    code = ("from wfa_hedge.harness import _gen_awake; "
            "masks = _gen_awake('random_subsets', {'density': 1e-12}, 0, 3, 3); "
            "assert len(masks) == 3 and all(m.any() for m in masks)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    masks = _gen_awake("random_subsets", {"density": 1e-12}, 0, 200, 5)
    assert all(m.sum() == 1 for m in masks)


def test_awake_generator_keeps_the_nonempty_conditional():
    # Empty first draws are common at density 0.2 over 3 experts; the
    # masks must still follow P(mask) = p^k (1-p)^(3-k) / (1 - (1-p)^3).
    p = 0.2
    sizes = np.array(_gen_awake("random_subsets", {"density": p}, 1, 20000, 3)).sum(axis=1)
    want = np.array([3 * p * (1 - p) ** 2, 3 * p * p * (1 - p), p ** 3]) / (1 - (1 - p) ** 3)
    assert sizes.min() == 1
    assert np.abs(np.bincount(sizes, minlength=4)[1:] / len(sizes) - want).max() < 0.01


# -- config validation ----------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**BASE, "mystery": 1})


def test_config_requires_awake_source():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**BASE, "algorithm": "awake-hedge"})


def test_config_checks_files_exist():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            {**BASE, "losses": {"path": "/nonexistent/l.csv"}})
    with pytest.raises(ValueError, match="missing file /nonexistent/awake.csv"):
        ExperimentConfig.from_dict({**BASE, "algorithm": "awake-hedge",
                                    "awake": {"path": "/nonexistent/awake.csv"}})


@pytest.mark.parametrize("key, value, message", [
    ("horizon", "10", "horizon must be an integer >= 1"),
    ("horizon", 10.5, "horizon must be an integer >= 1"),
    ("horizon", 10.0, "horizon must be an integer >= 1"),
    ("horizon", True, "horizon must be an integer >= 1"),
    ("horizon", 0, "horizon must be an integer >= 1"),
    ("seed", 1.5, "seed must be a non-negative integer"),
    ("seed", -1, "seed must be a non-negative integer"),
    ("seed", False, "seed must be a non-negative integer"),
    ("eta", True, "eta must be a positive number, 'fixed' or 'renyi'"),
    ("eta", 0, "eta must be a positive number, 'fixed' or 'renyi'"),
    ("eta", "tuned", "eta must be a positive number, 'fixed' or 'renyi'"),
    ("automaton", [], "automaton must be an object"),
    ("automaton", {"builder": "kshift", "params": [3, 2]}, "automaton params must be an object"),
    ("automaton", {"path": "machine.fsa"}, "an automaton path needs symbols"),
    ("losses", "iid_uniform", "losses must be an object"),
    ("losses", {}, "losses need a path or a generator"),
    ("losses", {"generator": "piecewise_stationary", "params": None},
     "losses params must be an object"),
    ("approximation", [], "approximation must be an object or null"),
    ("approximation", {}, "approximation needs a kind"),
    ("awake", "random_subsets", "awake must be an object or null"),
    ("awake", {"generator": "random_subsets", "params": 0.7}, "awake params must be an object"),
    ("phi", "yes", "phi must be true or false"),
    ("phi", 1, "phi must be true or false"),
    ("label", 3, "label must be a string or null"),
])
def test_cli_refuses_a_config_value_of_the_wrong_type(tmp_path, capsys, key, value, message):
    # Booleans count as bad input although Python counts them as ints.
    assert cli_main(["run", "--config", str(write_config(tmp_path, {key: value}))]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_build_automaton_builders():
    m = build_automaton({"builder": "weighted-shift",
                         "params": {"weights": [[0.9, 0.1], [0.2, 0.8]]}})
    assert m.num_states == 3
    m = build_automaton({"builder": "hierarchy",
                         "params": {"tiers": [["a", 0], ["b", 1]]}})
    assert m.alphabet == ("a", "b")
    m = build_automaton({"builder": "sequences",
                         "params": {"sequences": [["a", "b"], ["b", "a"]]}})
    assert m.num_states == 5
    with pytest.raises(ValueError):
        build_automaton({"builder": "nope"})


# -- experiments ------------------------------------------------------------------------


def test_run_replays_byte_identical():
    cfg = cfg_with()
    a = report_to_json(run_experiment(cfg))
    b = report_to_json(run_experiment(cfg))
    assert a == b


def test_run_embeds_config_and_counters():
    rep = run_experiment(cfg_with())
    assert rep["config"]["horizon"] == 6
    assert rep["num_sequences"] == 120
    assert len(rep["touched_edges_per_round"]) == 6
    assert rep["verdicts"]["weighted_bound_ok"]
    assert rep["verdicts"]["unweighted_bound_ok"]


def test_run_exact_machine_beyond_enumeration_range():
    # 394,632 competitor sequences: the uniform-weight check reads the
    # extreme path log-weights instead of listing every path
    rep = run_experiment(cfg_with(
        automaton={"builder": "kshift", "params": {"num_experts": 4, "shifts": 3}},
        horizon=30, eta="fixed",
        losses={"generator": "piecewise_stationary", "seed": 5}))
    assert rep["num_sequences"] == 394_632
    assert rep["verdicts"] == {"weighted_bound_ok": True, "unweighted_bound_ok": True}


def test_run_eta_tuners():
    rep_f = run_experiment(cfg_with(eta="fixed"))
    assert rep_f["eta"] == pytest.approx(math.sqrt(8 * math.log(120) / 6))
    rep_r = run_experiment(cfg_with(eta="renyi"))
    assert rep_r["eta"] == pytest.approx(rep_f["eta"], rel=1e-6)  # uniform weights


def test_run_approximation_reports_divergence():
    rep = run_experiment(cfg_with(
        horizon=8, approximation={"kind": "ml-ngram", "order": 2}))
    assert rep["approximation"]["order"] == 2
    assert rep["approximation"]["divergence"] > 0
    assert "approx_bound_ok" in rep["verdicts"]


def test_run_model_select_approximation():
    rep = run_experiment(cfg_with(
        automaton={"builder": "kshift", "params": {"num_experts": 3, "shifts": 0}},
        approximation={"kind": "model-select", "iters": 30, "budget": 9}))
    assert rep["approximation"]["order"] == 2
    assert rep["approximation"]["feasible"]
    assert rep["verdicts"]["approx_bound_ok"]


def test_run_prod_eg_approximation():
    rep = run_experiment(cfg_with(
        approximation={"kind": "prod-eg", "order": 1, "iters": 100}))
    assert rep["approximation"]["order"] == 1
    assert rep["approximation"]["divergence"] >= 0
    assert rep["verdicts"]["approx_bound_ok"]


def test_run_fixed_share_versus_exact_automaton():
    shared = {"generator": "piecewise_stationary",
              "params": {"segment_length": 3}, "seed": 2}
    exact = cfg_with(horizon=9, losses=shared, label="exact")
    fs = cfg_with(horizon=9, losses=shared, label="fixed-share",
                  approximation={"kind": "fixed-share-bigram"})
    out = compare([exact, fs])
    rows = {r["label"]: r for r in out["rows"]}
    # both satisfy their bounds; distributions differ
    assert all(all(r["verdicts"].values()) for r in out["rows"])
    p_exact = out["reports"][0]["p_rounds"]
    p_fs = out["reports"][1]["p_rounds"]
    assert any(np.abs(np.array(a) - np.array(b)).max() > 1e-6
               for a, b in zip(p_exact, p_fs))
    # the approximated run pays at most the divergence on top
    assert rows["fixed-share"]["weighted_regret"] <= \
        rows["exact"]["weighted_regret"] + out["reports"][1]["approximation"]["divergence"] + 1e-9


def test_compare_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        compare([cfg_with(), cfg_with(horizon=5)])


def test_compare_builds_each_automaton_once(monkeypatch):
    from wfa_hedge import harness
    cfgs = [cfg_with(label="fixed"),
            cfg_with(label="awake", losses={"generator": "iid_uniform", "seed": 8},
                     algorithm="awake-hedge",
                     awake={"generator": "random_subsets", "params": {"density": 0.7}})]
    # Each config on the first one's losses, run on its own.
    want = [run_experiment(ExperimentConfig.from_dict({**c.to_dict(), "losses": BASE["losses"]}))
            for c in cfgs]
    calls = []
    build = harness.build_automaton

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(harness, "build_automaton", counted)
    out = compare(cfgs)
    assert calls == [c.automaton for c in cfgs]
    assert out["reports"] == want
    assert [(r["label"], r["cumulative_loss"], r["verdicts"]) for r in out["rows"]] == [
        (c.label, w["cumulative_loss"], w["verdicts"]) for c, w in zip(cfgs, want)]
    calls.clear()
    with pytest.raises(ValueError, match=r"^config  has \(3, 5\), expected \(3, 6\)$"):
        compare([cfg_with(), cfg_with(horizon=5)])
    assert len(calls) == 2


def test_phi_compare_identical_regret_smaller_levels():
    shared = {"generator": "iid_uniform", "seed": 3}
    n = 6
    base = {
        "automaton": {"builder": "kshift", "params": {"num_experts": n, "shifts": 1}},
        "horizon": 7, "losses": shared, "eta": 0.6, "seed": 1,
        "approximation": {"kind": "fixed-share-bigram"},
    }
    plain = ExperimentConfig.from_dict({**base, "label": "plain"})
    compact = ExperimentConfig.from_dict({**base, "phi": True, "label": "phi"})
    out = compare([plain, compact])
    rows = {r["label"]: r for r in out["rows"]}
    assert rows["plain"]["weighted_regret"] == pytest.approx(
        rows["phi"]["weighted_regret"], abs=1e-9)
    assert rows["phi"]["max_touched_edges"] <= 4 * n
    assert rows["plain"]["max_touched_edges"] >= n * n


def test_awake_run_verdict():
    rep = run_experiment(cfg_with(
        algorithm="awake-hedge",
        awake={"generator": "random_subsets", "params": {"density": 0.7}, "seed": 5}))
    assert rep["verdicts"]["sleeping_bound_ok"]
    assert len(rep["awake_sets"]) == 6


def test_awake_run_plays_the_phi_form_of_an_approximation(tmp_path):
    # The sleeping engine on the compressed Fixed-Share bigram gives the
    # distributions and the verdict of the same bigram played plain.
    base = {"automaton": {"builder": "kshift", "params": {"num_experts": 3, "shifts": 1}},
            "horizon": 8, "eta": 0.5, "algorithm": "awake-hedge",
            "awake": {"generator": "random_subsets", "params": {"density": 0.7}, "seed": 3},
            "approximation": {"kind": "fixed-share-bigram"},
            "losses": {"generator": "iid_uniform", "seed": 11}, "seed": 6}
    reports = {}
    for phi in (True, False):
        path = tmp_path / f"phi-{phi}.json"
        path.write_text(json.dumps({**base, "phi": phi}))
        reports[phi] = run_experiment(ExperimentConfig.load(path))
    got, want = reports[True], reports[False]
    assert got["approximation"]["phi_form"] == "shared-shift-hub"
    assert got["verdicts"] == want["verdicts"] == {"sleeping_bound_ok": True}
    assert np.abs(np.array(got["p_awake_rounds"]) - want["p_awake_rounds"]).max() <= 1e-12
    assert got["sleeping_bound_margin"] == pytest.approx(want["sleeping_bound_margin"],
                                                         abs=1e-12)
    assert cli_main(["run", "--config", str(tmp_path / "phi-True.json"),
                     "--out", str(tmp_path / "r.json")]) == 0


def test_awake_phi_run_never_expands(tmp_path, no_expansion):
    # The sleeping verdict of a phi run reads K, the worst comparator and
    # its support off the run's compiled arrays.
    path = tmp_path / "awake-phi.json"
    path.write_text(json.dumps({
        "automaton": {"builder": "kshift", "params": {"num_experts": 4, "shifts": 2}},
        "horizon": 20, "eta": "fixed", "algorithm": "awake-hedge", "phi": True,
        "awake": {"generator": "random_subsets", "params": {"density": 0.6}, "seed": 2},
        "approximation": {"kind": "fixed-share-bigram"},
        "losses": {"generator": "iid_uniform", "seed": 4}, "seed": 1}))
    rep = run_experiment(ExperimentConfig.load(path))
    assert rep["approximation"]["phi_form"] == "shared-shift-hub"
    assert rep["verdicts"] == {"sleeping_bound_ok": True}


def test_sleeping_verdict_checks_the_worst_comparator_beyond_200_paths():
    # K = 660 point-mass comparators; the run checks the worst of them
    # through one best-path sweep, exactly as checking every one does.
    rep = run_experiment(ExperimentConfig.from_dict({
        "automaton": {"builder": "kshift", "params": {"num_experts": 3, "shifts": 2}},
        "horizon": 12, "eta": "fixed", "algorithm": "awake-hedge",
        "awake": {"generator": "random_subsets", "params": {"density": 0.5}, "seed": 0},
        "losses": {"generator": "iid_uniform", "seed": 0}, "seed": 0}))
    competitor = horizon_product(exact_shift_automaton(3, 2), 12)
    assert count_accepting_paths(competitor) == 660
    masks = [np.array([c == "1" for c in s]) for s in rep["awake_sets"]]
    args = (masks, [np.array(p) for p in rep["p_awake_rounds"]],
            gen_losses("iid_uniform", {}, 0, 12, 3), competitor)
    worst = max(r.value - r.bound for r in (sleeping_regret(*args, u, rep["eta"])
                                            for u in oracles.vertex_comparators(competitor)))
    assert rep["sleeping_bound_margin"] == -worst
    assert rep["sleeping_bound_margin"] == pytest.approx(3.523399, abs=1e-6)
    assert rep["verdicts"] == {"sleeping_bound_ok": True}


def test_run_with_loss_file(tmp_path):
    losses = gen_losses("iid_uniform", {}, 9, 6, 3)
    path = tmp_path / "l.csv"
    write_losses_csv(losses, path)
    rep = run_experiment(cfg_with(losses={"path": str(path)}))
    assert rep["verdicts"]["weighted_bound_ok"]


def test_run_rejects_nan_in_loss_file(tmp_path):
    losses = gen_losses("iid_uniform", {}, 9, 6, 3)
    losses[2, 1] = math.nan
    path = tmp_path / "l.csv"
    write_losses_csv(losses, path)
    with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
        run_experiment(cfg_with(losses={"path": str(path)}))


def test_exact_run_takes_its_regrets_from_summarize(monkeypatch):
    from wfa_hedge import hedge
    calls = []
    best_competitor = hedge.best_competitor

    def counted(competitor, losses, weighted):
        calls.append(weighted)
        return best_competitor(competitor, losses, weighted)

    monkeypatch.setattr(hedge, "best_competitor", counted)
    cfg = cfg_with()
    rep = run_experiment(cfg)
    monkeypatch.undo()
    assert sorted(calls) == [False, True]
    # Bit for bit what the regret functions give on the competitor.
    machine = build_automaton(cfg.automaton)
    competitor = horizon_product(machine, cfg.horizon)
    ps = [np.array(p) for p in rep["p_rounds"]]
    losses = list(gen_losses("iid_uniform", {}, 7, cfg.horizon, 3))
    assert rep["weighted_regret"] == hedge.weighted_regret(ps, losses, competitor)
    assert rep["unweighted_regret"] == hedge.unweighted_regret(ps, losses, competitor)


# -- command line -------------------------------------------------------------------------


def write_config(tmp_path, extra=None):
    cfg = dict(BASE)
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_run_and_replay(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_exit_code_on_forced_verdict_failure(tmp_path):
    cfg = write_config(tmp_path)
    code = cli_main(["run", "--config", str(cfg), "--force-verdict-failure",
                     "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_cli_error_exit_code(tmp_path):
    code = cli_main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 1


def test_cli_build_approximate_divergence(tmp_path):
    assert cli_main(["build", "--builder", "kshift",
                     "--param", "num_experts=3", "--param", "shifts=2",
                     "--out", str(tmp_path / "m")]) == 0
    assert (tmp_path / "m.fsa").exists() and (tmp_path / "m.syms").exists()
    assert cli_main(["approximate", "--automaton", str(tmp_path / "m.fsa"),
                     "--symbols", str(tmp_path / "m.syms"), "--horizon", "6",
                     "--kind", "ml-ngram", "--order", "2",
                     "--out", str(tmp_path / "model.json")]) == 0
    assert cli_main(["divergence", "--automaton", str(tmp_path / "m.fsa"),
                     "--symbols", str(tmp_path / "m.syms"),
                     "--model", str(tmp_path / "model.json"), "--horizon", "6",
                     "--out", str(tmp_path / "d.json")]) == 0
    payload = json.loads((tmp_path / "d.json").read_text())
    assert payload["divergence"] >= 0


def test_cli_approximate_kinds(tmp_path):
    assert cli_main(["build", "--builder", "kshift",
                     "--param", "num_experts=3", "--param", "shifts=0",
                     "--out", str(tmp_path / "m")]) == 0
    for kind, extra in (("prod-eg", ["--order", "1", "--iters", "50"]),
                        ("model-select", ["--iters", "30", "--budget", "9"])):
        out = tmp_path / f"{kind}.json"
        assert cli_main(["approximate", "--automaton", str(tmp_path / "m.fsa"),
                         "--symbols", str(tmp_path / "m.syms"), "--horizon", "6",
                         "--kind", kind, *extra, "--out", str(out)]) == 0
        from wfa_hedge.ngram import NGramModel
        NGramModel.from_json(out.read_text())  # parses and validates


def test_cli_fits_and_runs_do_not_enumerate(tmp_path, monkeypatch):
    # kshift(4, 3) has 394,632 sequences of length 30: n-gram fits, the
    # sleeping verdict and the regret report all run without listing them.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_support called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wfa_hedge" and hasattr(module, "enumerate_support"):
            monkeypatch.setattr(module, "enumerate_support", refuse)
    m = str(tmp_path / "m")
    assert cli_main(["build", "--builder", "kshift", "--param", "num_experts=4",
                     "--param", "shifts=3", "--out", m]) == 0
    fit = ["approximate", "--automaton", m + ".fsa", "--symbols", m + ".syms", "--horizon", "30"]
    assert cli_main([*fit, "--kind", "ml-ngram", "--order", "2",
                     "--out", str(tmp_path / "ml.json")]) == 0
    assert cli_main([*fit, "--kind", "model-select", "--iters", "50", "--budget", "4096",
                     "--out", str(tmp_path / "ms.json")]) == 0
    for name in ("sleeping_subsets", "kshift_tracking"):
        assert cli_main(["run", "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(tmp_path / f"{name}.json")]) == 0
    # The entropy tuner and the relative entropy at the same size.  The
    # weights are uniform, so every Renyi entropy is log K.
    cfg = tmp_path / "renyi.json"
    cfg.write_text(json.dumps({**BASE, "automaton": {"builder": "kshift", "params": {
        "num_experts": 4, "shifts": 3}}, "horizon": 30, "eta": "renyi"}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "renyi-out.json")]) == 0
    eta = json.loads((tmp_path / "renyi-out.json").read_text())["eta"]
    assert eta == pytest.approx(tune_eta_fixed(30, 394_632), rel=1e-8)
    ct = horizon_product(exact_shift_automaton(4, 3), 30)
    model = fixed_share_bigram(4, 3, 30)
    kl = kl_divergence(ct, model)
    assert math.isfinite(kl) and kl <= divergence_inf(ct, model).value + 1e-12


def test_cli_fits_refuse_phi_machine_files(tmp_path, capsys, monkeypatch):
    # A plain intersection would drop the phi edges and fit the 4
    # constant sequences of this machine instead of its 4^10; the file is
    # refused before any product is built.
    from wfa_hedge import cli
    from wfa_hedge.textio import write_automaton, write_symbols
    machine = bigram_phi_machine(fixed_share_bigram(4, 1, 10))
    write_automaton(machine, tmp_path / "m.fsa")
    write_symbols(machine.alphabet, tmp_path / "m.syms")
    fit = ["--automaton", str(tmp_path / "m.fsa"), "--symbols", str(tmp_path / "m.syms"),
           "--horizon", "10"]
    monkeypatch.setattr(cli, "horizon_product", None)  # calling it would raise TypeError
    (tmp_path / "model.json").write_text(fixed_share_bigram(4, 1, 10).to_json())
    for args, out in ((["approximate", *fit, "--kind", "ml-ngram", "--order", "2"], "ml.json"),
                      (["divergence", *fit, "--model", str(tmp_path / "model.json")], "d.json")):
        assert cli_main([*args, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'm.fsa'} has failure (phi) transitions; "
                       "the fits read plain machines\n")
        assert not (tmp_path / out).exists()


def test_cli_fits_exit_1_on_a_horizon_without_sequences(tmp_path, capsys):
    # Two experts cannot switch three times in three rounds.
    m = str(tmp_path / "m")
    assert cli_main(["build", "--builder", "kshift", "--param", "num_experts=2",
                     "--param", "shifts=3", "--out", m]) == 0
    (tmp_path / "model.json").write_text(fixed_share_bigram(2, 1, 3).to_json())
    fit = ["--automaton", m + ".fsa", "--symbols", m + ".syms", "--horizon", "3"]
    for args in (["approximate", *fit, "--out", str(tmp_path / "ml.json")],
                 ["divergence", *fit, "--model", str(tmp_path / "model.json")]):
        assert cli_main(args) == 1
        assert "error: no competitor sequence of this length" in capsys.readouterr().err
    assert not (tmp_path / "ml.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--automaton", "m.fsa"], "--automaton needs --symbols, the symbol table file"),
    ([], "give --automaton and --symbols, or --builder"),
])
def test_cli_names_a_missing_machine_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "ml.json"
    assert cli_main(["approximate", *flags, "--horizon", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_approximate_exits_1_on_order_0(tmp_path, capsys):
    out = tmp_path / "ml.json"
    assert cli_main(["approximate", "--builder", "kshift", "--param", "num_experts=3",
                     "--param", "shifts=1", "--horizon", "4", "--order", "0",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: order must be >= 1\n"
    assert not out.exists()


def test_cli_phi_convert_roundtrip(tmp_path):
    # a machine with shareable fan-in compresses; counts drop
    from wfa_hedge.textio import write_automaton, write_symbols
    import oracles
    rng = np.random.default_rng(2)
    m = None
    while m is None:
        m = oracles.random_shared_structure_wfa(rng)
    write_automaton(m, tmp_path / "m.fsa")
    write_symbols(m.alphabet, tmp_path / "m.syms")
    assert cli_main(["phi-convert", "--automaton", str(tmp_path / "m.fsa"),
                     "--symbols", str(tmp_path / "m.syms"),
                     "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p.fsa").exists()


def test_cli_phi_convert_exits_1_on_a_nondeterministic_machine(tmp_path, capsys):
    (tmp_path / "m.fsa").write_text("0 1 a 0.5\n0 2 a 0.25\n1 3 b\n2 3 b\n3\n")
    (tmp_path / "m.syms").write_text("a 0\nb 1\n")
    assert cli_main(["phi-convert", "--automaton", str(tmp_path / "m.fsa"),
                     "--symbols", str(tmp_path / "m.syms"),
                     "--out", str(tmp_path / "p")]) == 1
    assert "two 'a'-transitions leave state 0" in capsys.readouterr().err
    assert not (tmp_path / "p.fsa").exists()


def test_cli_compare(tmp_path):
    c1 = write_config(tmp_path)
    c2 = tmp_path / "cfg2.json"
    c2.write_text(json.dumps({**BASE, "phi": True, "label": "phi"}))
    out = tmp_path / "cmp.json"
    assert cli_main(["compare", "--config", str(c1), str(c2),
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2


def test_cli_gen_losses(tmp_path):
    out = tmp_path / "l.csv"
    assert cli_main(["gen-losses", "--kind", "iid_uniform", "--seed", "4",
                     "--horizon", "5", "--experts", "3", "--out", str(out)]) == 0
    assert read_losses_csv(out).shape == (5, 3)


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write_config(tmp_path)
    env = dict(os.environ, WFA_HEDGE_LOG="ERROR")
    proc = subprocess.run(
        [sys.executable, "-m", "wfa_hedge.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"]["weighted_bound_ok"]


@pytest.mark.parametrize("extra", [
    {},
    {"algorithm": "awake-hedge",
     "awake": {"generator": "random_subsets", "params": {"density": 0.7}, "seed": 5}},
])
def test_run_experiment_intersects_the_competitor_once(monkeypatch, extra):
    from wfa_hedge import harness, hedge, sleeping
    calls = []
    unroll = hedge._unroll

    def counted(competitor, *args):
        calls.append(competitor)
        return unroll(competitor, *args)

    monkeypatch.setattr(hedge, "_unroll", counted)
    cfg = cfg_with(**extra)
    report = report_to_json(run_experiment(cfg))
    assert len(calls) == 1
    # The same report as when the engine intersects the played machine again.
    machine = build_automaton(cfg.automaton)
    monkeypatch.setattr(harness, "HedgeState",
                        lambda _, horizon, eta: hedge.hedge_init(machine, horizon, eta))
    monkeypatch.setattr(harness, "AwakeState",
                        lambda _, horizon, eta: sleeping.awake_init(machine, horizon, eta))
    assert report_to_json(run_experiment(cfg)) == report
    assert len(calls) == 3


def test_engine_paths_run_no_product_search(monkeypatch):
    # The engine unrolls its competitor; intersect and phi_intersect are
    # for general products.  The n-gram fits' context product still
    # intersects, so the run takes no approximation.
    from wfa_hedge import phi, wfa
    from wfa_hedge.hedge import hedge_init
    from wfa_hedge.sleeping import awake_init

    def refuse(*args, **kwargs):
        raise AssertionError("the engine searched a product")

    searches = (wfa.intersect, phi.phi_intersect)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wfa_hedge":
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in searches):
                    monkeypatch.setattr(module, attr, refuse)
    converted = phi.phi_convert(oracles.random_shared_structure_wfa(np.random.default_rng(3),
                                                                    layers=(1, 3, 3, 1)))
    assert converted.has_phi()
    for machine, horizon in ((exact_shift_automaton(3, 2), 8), (converted, 3),
                             (bigram_phi_machine(fixed_share_bigram(4, 2, 12)), 12)):
        for init in (hedge_init, awake_init):
            assert init(machine, horizon, 0.5).K > 0
    awake = {"algorithm": "awake-hedge",
             "awake": {"generator": "random_subsets", "params": {"density": 0.7}, "seed": 5}}
    for extra in ({}, {"phi": True}, awake):
        run_experiment(cfg_with(**extra))


@pytest.mark.parametrize("extra", [
    {},
    {"algorithm": "awake-hedge",
     "awake": {"generator": "random_subsets", "params": {"density": 0.7}, "seed": 5}},
])
def test_run_experiment_counts_the_paths_once(monkeypatch, extra):
    # The tuned eta, the exact run's report and the sleeping bound all
    # need K; it is counted once, on the product's compiled arrays, and
    # kept there.
    from wfa_hedge import hedge
    sweeps = []
    count = hedge.CompiledMachine.count_paths

    def counted(cm, labels=None):
        if labels is None:  # the sleeping support check passes a sequence
            sweeps.append(cm)
        return count(cm, labels)

    monkeypatch.setattr(hedge.CompiledMachine, "count_paths", counted)
    cfg = cfg_with(eta="fixed", **extra)
    report = run_experiment(cfg)
    assert len(sweeps) == 1
    k = sweeps[0].num_paths
    assert len(sweeps) == 1  # a later call reads the kept count
    product = intersect(build_automaton(cfg.automaton), length_automaton(3, 6))
    assert k == oracles.count_accepting_paths(product)
    assert report["eta"] == math.sqrt(8 * math.log(k) / 6)


def test_log_z_is_swept_only_where_it_is_read(monkeypatch):
    # Set-up sweeps the eta power alone: an awake run never reads log Z,
    # and a plain run's report sweeps power 1 once.  Every backward
    # sweep, kept arrays or log only, passes CompiledMachine._sweep.
    from wfa_hedge import harness, hedge
    powers = []
    sweep, report = hedge.CompiledMachine._sweep, harness.summarize

    def recorded(cm, power, *args):
        powers.append(power)
        return sweep(cm, power, *args)

    def summarize(state):
        powers.append("summarize")
        return report(state)

    monkeypatch.setattr(hedge.CompiledMachine, "_sweep", recorded)
    monkeypatch.setattr(harness, "summarize", summarize)
    hedge.hedge_init(exact_shift_automaton(3, 2), 6, 0.5)
    assert powers == [0.5]
    awake = {"algorithm": "awake-hedge",
             "awake": {"generator": "random_subsets", "params": {"density": 0.7}, "seed": 5}}
    for extra, after in ((awake, []), ({}, ["summarize", 1.0])):
        powers.clear()
        eta = run_experiment(cfg_with(eta="fixed", **extra))["eta"]
        assert powers == [eta] + after


@pytest.mark.parametrize("config, extra", [
    ("kshift_tracking", {}),
    ("sleeping_subsets", {}),
    ("kshift_tracking", {"eta": 0.5}),
    ("sleeping_subsets", {"eta": "fixed"}),
    ("kshift_tracking", {"phi": True}),
    ("fixed_share_phi", {}),
    ("kshift_tracking", {"approximation": {"kind": "ml-ngram", "order": 2}}),
])
def test_a_run_without_approximation_builds_no_kahn_plan(monkeypatch, config, extra):
    # K, log Z, the best paths, the sleeping verdict, the ML fit's
    # posteriors and the fits' divergences read the products' compiled
    # arrays: no machine with compiled arrays gets a Kahn plan.  The only
    # plan left is phi_convert's ordering of the competitor, which counts
    # no paths on it.
    from wfa_hedge import hedge, wfa
    cfg = ExperimentConfig.from_dict({**json.loads((CONFIGS / f"{config}.json").read_text()),
                                      **extra})
    want = report_to_json(run_experiment(cfg))
    plan, planned = wfa._plan, []
    product, products = hedge.horizon_product, []

    def record_plan(machine):
        planned.append(machine)
        return plan(machine)

    def record_product(*args):
        products.append(product(*args))
        return products[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wfa_hedge":
            for attr, value in list(vars(module).items()):
                if value is plan:
                    monkeypatch.setattr(module, attr, record_plan)
                elif value is product:
                    monkeypatch.setattr(module, attr, record_product)
    assert report_to_json(run_experiment(cfg)) == want
    fits = [c for p in products for c, _ in p._products.values()]
    assert bool(fits) == (cfg.approximation is not None)  # a fit and its divergence
    assert products and all(m._topo is None for m in products + fits)
    assert not [m for m in planned if m.compiled is not None]
    # (The k-shift competitor has stay loops: it gets no plan.)
    assert all(m._topo is None or m._topo.paths is wfa._UNCOUNTED for m in planned)
    planned = list({id(m): m for m in planned}.values())  # a plan is built once, read often
    converted = cfg.phi and cfg.approximation is None  # a bigram takes the shared-hub form
    assert len(planned) == converted


def test_an_awake_run_conditions_each_round_once(monkeypatch):
    # The round's step builds its awake mask and conditions p_t once; the
    # sample reads that conditioned distribution.
    from wfa_hedge import sleeping
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / "sleeping_subsets.json").read_text()))
    want = report_to_json(run_experiment(cfg))
    masks, calls = sleeping._awake_mask, []

    def counted(*args):
        calls.append(None)
        return masks(*args)

    monkeypatch.setattr(sleeping, "_awake_mask", counted)
    assert report_to_json(run_experiment(cfg)) == want
    assert len(calls) == cfg.horizon
