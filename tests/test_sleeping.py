import math
from pathlib import Path

import numpy as np
import pytest

from wfa_hedge import harness
from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.hedge import hedge_init, hedge_step, horizon_product
from wfa_hedge.sleeping import (ZeroAwakeMassError, awake_distribution,
                                awake_init, awake_step, sleeping_regret)
from wfa_hedge.wfa import Wfa, count_accepting_paths, enumerate_support

import oracles


def machine_path_weights(state, support):
    """Path weights implied by the engine's current edge weights."""
    m = state.machine
    out = []
    for seq, _ in support:
        q, lw = m.initial, 0.0
        ok = True
        for a in seq:
            t = m.arcs(q).get(a)
            if t is None:
                ok = False
                break
            lw += state.log_w[m.transitions.index(t)]
            q = t.dst
        out.append(math.exp(lw) * m.final_weight(q) if ok else 0.0)
    return np.array(out)


def random_awake_losses(rng, horizon, n, density=0.6):
    masks, losses = [], []
    for _ in range(horizon):
        mask = np.zeros(n, dtype=bool)
        while not mask.any():
            mask = rng.random(n) < density
        masks.append(mask)
        losses.append(rng.random(n) * mask)
    return masks, losses


def test_awake_distribution_full_set_is_identity():
    st = awake_init(exact_shift_automaton(3, 1), 4, 0.5)
    p = awake_distribution(st, np.ones(3, dtype=bool))
    assert np.allclose(p, st.p_current)


def test_awake_distribution_singleton():
    st = awake_init(exact_shift_automaton(3, 1), 4, 0.5)
    p = awake_distribution(st, ["b"])
    assert p[1] == 1.0 and p[0] == p[2] == 0.0


def test_awake_sets_read_the_same_in_every_input_form():
    st = awake_init(exact_shift_automaton(3, 1), 4, 0.5)
    array = np.array([True, False, True])
    want = awake_distribution(st, ["a", "c"])
    for form in (array, [True, False, True], [np.True_, np.False_, np.True_], ("c", "a")):
        assert awake_distribution(st, form).tobytes() == want.tobytes()
    # A bool array is copied: the state keeps the round's mask as played.
    awake_step(st, array, [0.3, 0.0, 0.1])
    array[:] = False
    assert st.awake_history[0].tolist() == [True, False, True]
    for empty in ([], np.zeros(3, bool), [False, False, False]):
        with pytest.raises(ZeroAwakeMassError, match="empty awake set"):
            awake_distribution(st, empty)
    # A bool array or list of another length is read as symbol names.
    for names in (["a", "x"], np.ones(2, bool), [True, True]):
        with pytest.raises(ValueError, match="unknown expert"):
            awake_distribution(st, names)


def test_awake_distribution_matches_path_conditional():
    eta = 0.7
    st = awake_init(exact_shift_automaton(3, 1), 4, eta)
    support = enumerate_support(oracles.played(st))
    mask = np.array([True, False, True])
    sym = {a: i for i, a in enumerate(st.alphabet)}
    z = sum(w for _, w in support)
    q = np.array([(w / z) ** eta for _, w in support])
    q /= q.sum()
    marg = np.zeros(3)
    for i, (seq, _) in enumerate(support):
        marg[sym[seq[0]]] += q[i]
    want = np.where(mask, marg, 0)
    want /= want.sum()
    assert np.allclose(awake_distribution(st, mask), want, atol=1e-12)


def test_awake_distribution_zero_mass_rejected():
    st = awake_init(exact_shift_automaton(3, 1), 4, 0.5)
    with pytest.raises(ZeroAwakeMassError):
        awake_distribution(st, [])


def test_all_awake_reduces_to_plain_engine():
    eta, horizon = 0.8, 5
    st_a = awake_init(exact_shift_automaton(3, 1), horizon, eta)
    st_h = hedge_init(exact_shift_automaton(3, 1), horizon, eta)
    rng = np.random.default_rng(0)
    full = np.ones(3, dtype=bool)
    for t in range(horizon):
        loss = rng.random(3)
        assert np.abs(st_a.p_current - st_h.p_current).max() <= 1e-12
        awake_step(st_a, full, loss)
        hedge_step(st_h, loss)


def test_asleep_paths_keep_their_mass():
    eta, horizon = 0.6, 4
    st = awake_init(exact_shift_automaton(3, 1), horizon, eta)
    support = enumerate_support(oracles.played(st))
    sym = {a: i for i, a in enumerate(st.alphabet)}
    rng = np.random.default_rng(1)
    masks, losses = random_awake_losses(rng, horizon, 3)
    for t in range(horizon):
        before = machine_path_weights(st, support)
        awake_step(st, masks[t], losses[t])
        after = machine_path_weights(st, support)
        asleep = [i for i, (seq, _) in enumerate(support)
                  if not masks[t][sym[seq[t]]]]
        awake = [i for i in range(len(support)) if i not in asleep]
        for i in asleep:
            assert after[i] == pytest.approx(before[i], rel=1e-12)
        assert after[awake].sum() == pytest.approx(before[awake].sum(), rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_matches_path_level_simulation(seed):
    eta, horizon = 0.7, 4
    st = awake_init(exact_shift_automaton(3, 1), horizon, eta)
    support = enumerate_support(oracles.played(st))
    rng = np.random.default_rng(seed)
    masks, losses = random_awake_losses(rng, horizon, 3)
    p_oracle, q_final = oracles.brute_awake_run(support, eta, st.alphabet,
                                                masks, losses)
    for t in range(horizon):
        p = awake_distribution(st, masks[t])
        assert np.abs(p - p_oracle[t]).max() <= 1e-9
        awake_step(st, masks[t], losses[t])
    q_engine = machine_path_weights(st, support)
    q_engine /= q_engine.sum()
    assert np.abs(q_engine - q_final / q_final.sum()).max() <= 1e-9


def test_awake_step_rejects_loss_on_asleep_expert():
    st = awake_init(exact_shift_automaton(3, 1), 4, 0.5)
    mask = np.array([True, True, False])
    loss = np.array([0.2, 0.1, 0.3])
    with pytest.raises(ValueError):
        awake_step(st, mask, loss)


def test_awake_step_rejects_nan_loss_before_any_change():
    st = awake_init(exact_shift_automaton(3, 1), 4, 0.5)
    mask = np.array([True, True, False])
    p = st.p_current.copy()
    with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
        awake_step(st, mask, [math.nan, 0.0, 0.0])
    assert st.rounds_done == 0 and st.cumulative_loss == 0.0
    assert st.expected_losses == st.loss_history == st.awake_history == []
    assert (st.p_current == p).all()


def test_log_w_is_powered_weights_plus_the_sleeping_charges():
    eta, horizon = 0.7, 5
    st = awake_init(exact_shift_automaton(4, 2), horizon, eta)
    masks, losses = random_awake_losses(np.random.default_rng(4), horizon, 4)
    for mask, loss in zip(masks, losses):
        awake_step(st, mask, loss)
    # Round t charges each awake label -eta * loss plus the rescale that
    # keeps the awake mass: log(sum_awake p) - log(sum_awake p e^(-eta loss)).
    charges = []
    for p, mask, loss in zip(st.p_history, masks, losses):
        rescale = math.log(p[mask].sum() / (p[mask] @ np.exp(-eta * loss[mask])))
        charges.append(np.where(mask, -eta * loss + rescale, 0.0))
    m = st.machine
    want = [eta * math.log(t.weight) + charges[m.state_names[t.src][1]][st.sym_index[t.label]]
            for t in m.transitions]
    assert st.log_w == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_a_round_sweeps_its_level_once(monkeypatch):
    from wfa_hedge.hedge import HedgeState
    st = awake_init(exact_shift_automaton(3, 2), 6, 0.5)
    sweeps = []
    readout = HedgeState._readout

    def counted(state):
        sweeps.append(state.rounds_done)
        return readout(state)

    bincounts = []
    bincount = np.bincount

    def counted_bincount(*args, **kwargs):
        bincounts[-1] += 1
        return bincount(*args, **kwargs)

    monkeypatch.setattr(HedgeState, "_readout", counted)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    rng = np.random.default_rng(3)
    for t in range(6):
        mask = rng.random(3) < 0.6
        mask[t % 3] = True
        bincounts.append(0)
        awake_step(st, mask, rng.random(3) * mask)
    # One readout of each next level (none on the last round), and one
    # bincount each for the advance and the readout.
    assert sweeps == [1, 2, 3, 4, 5]
    assert bincounts == [2, 2, 2, 2, 2, 1]
    assert st.touched_per_round == [3, 9, 18, 21, 18, 9]
    assert st.work_per_round == [6, 18, 36, 42, 36, 18]


def test_regret_bound_for_every_vertex():
    eta, horizon = 0.5, 5
    rng = np.random.default_rng(2)
    for seed in range(5):
        st = awake_init(exact_shift_automaton(3, 1), horizon, eta)
        masks, losses = random_awake_losses(rng, horizon, 3)
        for t in range(horizon):
            awake_step(st, masks[t], losses[t])
        k = count_accepting_paths(oracles.played(st))
        assert k <= 200
        for u in oracles.vertex_comparators(oracles.played(st)):
            r = sleeping_regret(masks, st.p_awake_history, losses,
                                oracles.played(st), u, eta)
            assert r.value <= r.bound


def test_regret_hand_computed_instance():
    # two paths ab and ba, both rounds all-awake: reduces to plain
    # unweighted regret against the better path
    eta = 0.9
    st = awake_init(exact_shift_automaton(2, 1), 2, eta)
    masks = [np.ones(2, dtype=bool)] * 2
    losses = [np.array([0.8, 0.1]), np.array([0.3, 0.6])]
    expected_algo = []
    for t in range(2):
        p = awake_distribution(st, masks[t])
        expected_algo.append(float(p @ losses[t]))
        awake_step(st, masks[t], losses[t])
    # comparator: point mass on ("b","a"), total loss 0.1 + 0.3
    u = {("b", "a"): 1.0}
    r = sleeping_regret(masks, st.p_awake_history, losses, oracles.played(st), u, eta)
    assert r.value == pytest.approx(sum(expected_algo) - 0.4, rel=1e-12)
    assert r.bound == pytest.approx(eta / 8 * 2 + math.log(2) / eta, rel=1e-12)


def test_sleeping_regret_validates_comparator():
    st = awake_init(exact_shift_automaton(2, 1), 2, 0.5)
    masks = [np.ones(2, dtype=bool)] * 2
    losses = [np.zeros(2)] * 2
    for t in range(2):
        awake_step(st, masks[t], losses[t])
    # The plain product, and the run state read off its compiled arrays.
    for competitor in (oracles.played(st), st):
        args = (masks, st.p_awake_history, losses, competitor)
        for seq in (("a", "a"), ("a",), ("a", "z")):  # unsupported paths
            with pytest.raises(ValueError, match="unsupported path"):
                sleeping_regret(*args, {seq: 1.0}, 0.5)
        with pytest.raises(ValueError, match="must be a distribution"):
            sleeping_regret(*args, {("a", "b"): 0.7}, 0.5)
        assert sleeping_regret(*args, {("a", "b"): 1.0}, 0.5).awake_mass == 2.0


def test_emitted_awake_distributions_are_supported_and_normalized():
    st = awake_init(exact_shift_automaton(3, 2), 6, 0.4)
    rng = np.random.default_rng(3)
    masks, losses = random_awake_losses(rng, 6, 3)
    for t in range(6):
        p = awake_distribution(st, masks[t])
        assert abs(p.sum() - 1.0) <= 1e-9
        assert (p[~masks[t]] == 0).all()
        awake_step(st, masks[t], losses[t])


def test_sleeping_verdict_builds_no_transition_objects(request, monkeypatch):
    # worst_comparator and sleeping_regret (its support check and K) read
    # the competitor's edge columns only.
    built = request.getfixturevalue("built_transitions")
    during = []

    def watched(fn):
        def call(*args):
            before = len(built)
            result = fn(*args)
            during.append(len(built) - before)
            return result
        return call

    for name in ("worst_comparator", "sleeping_regret"):
        monkeypatch.setattr(harness, name, watched(getattr(harness, name)))
    cfg = harness.ExperimentConfig.load(Path(__file__).resolve().parent.parent
                                        / "configs" / "sleeping_subsets.json")
    report = harness.run_experiment(cfg)
    assert during == [0, 0]
    assert report["verdicts"] == {"sleeping_bound_ok": True}


def test_sleeping_regret_reads_support_without_multiplying_weights():
    # A length-120 path of arc weight 1e-3 has weight 1e-360, which
    # underflows to 0: the support check counts paths on the compiled
    # arrays instead, of the run's product or of the machine's.
    plain = length_automaton(2, 120)
    c = plain.columns
    light = Wfa.from_columns(plain.alphabet, plain.num_states, plain.initial, plain.finals,
                             c.src, c.label, np.full(len(c.src), 1e-3), c.dst)
    st = awake_init(light, 120, 0.5)
    losses = np.random.default_rng(4).random((120, 2))
    masks = [np.ones(2, bool)] * 120
    for mask, loss in zip(masks, losses):
        awake_step(st, mask, loss)
    args = (masks, st.p_awake_history, losses)
    u = {("a",) * 120: 1.0}
    want = sleeping_regret(*args, st, u, 0.5)
    for competitor in (st.machine, horizon_product(light, 120)):
        assert sleeping_regret(*args, competitor, u, 0.5) == want
    assert want.bound == pytest.approx(0.5 / 8 * 120 + 120 * math.log(2) / 0.5, rel=1e-15)


def test_a_long_awake_run_reads_its_bound_from_the_float_log_k(monkeypatch):
    # kshift(10, 5) at T = 1,250: K = 10 * 9^5 * C(1249, 5), about 1.5e19,
    # lies past int64 (it passes 2^63 at T = 1,137), so there is no exact
    # count, and eta and the sleeping bound read log K from the scaled
    # sweep at power 0.
    n, k, horizon = 10, 5, 1250
    verdicts = []

    def recorded(*args):
        verdicts.append(sleeping_regret(*args))
        return verdicts[-1]

    monkeypatch.setattr(harness, "sleeping_regret", recorded)
    cfg = harness.ExperimentConfig.from_dict({
        "automaton": {"builder": "kshift", "params": {"num_experts": n, "shifts": k}},
        "horizon": horizon, "eta": "fixed", "algorithm": "awake-hedge", "seed": 3,
        "awake": {"generator": "random_subsets", "params": {"density": 0.7}, "seed": 1},
        "losses": {"generator": "piecewise_stationary", "params": {"segment_length": 208},
                   "seed": 2}})
    report = harness.run_experiment(cfg)
    assert report["verdicts"] == {"sleeping_bound_ok": True}
    [r] = verdicts
    log_k = math.log(n * (n - 1) ** k * math.comb(horizon - 1, k))
    eta = report["eta"]
    assert eta == pytest.approx(math.sqrt(8 * log_k / horizon), rel=1e-14)
    assert r.bound == pytest.approx(eta / 8 * r.awake_mass + log_k / eta, rel=1e-14)
    assert report["sleeping_bound_margin"] == r.bound - r.value > 0
    assert horizon_product(exact_shift_automaton(n, k), horizon).compiled.num_paths is None
