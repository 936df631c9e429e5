import math
import re
import warnings

import numpy as np
import pytest

from wfa_hedge.builders import (exact_shift_automaton, hierarchy_automaton,
                                length_automaton, weighted_shift_automaton)
from wfa_hedge.hedge import (NEG_INF, HedgeState, best_competitor, hedge_init, hedge_step,
                             horizon_product, renyi_entropy, renyi_entropy_machine, sample,
                             shannon_entropy,
                             summarize, tune_eta_fixed, tune_eta_renyi,
                             unweighted_regret, weighted_regret)
from wfa_hedge.ngram import bigram_phi_machine, fixed_share_bigram
from wfa_hedge.phi import phi_convert
from wfa_hedge.sleeping import AwakeState, awake_init
from wfa_hedge.wfa import enumerate_support, intersect

import oracles


def run_rounds(state, losses):
    for loss in losses:
        hedge_step(state, loss)
    return state


# -- initialization ----------------------------------------------------------------


def test_p1_uniform_on_length_machine():
    st = hedge_init(length_automaton(4, 3), 3, 0.5)
    assert np.allclose(st.p_current, 0.25)


def test_p1_matches_first_position_marginal():
    st = hedge_init(exact_shift_automaton(3, 2), 6, 1.0)
    support = enumerate_support(oracles.played(st))
    marg = np.zeros(3)
    sym = {a: i for i, a in enumerate(st.alphabet)}
    for seq, w in support:
        marg[sym[seq[0]]] += w
    marg /= marg.sum()
    assert np.allclose(st.p_current, marg, atol=1e-12)


def test_p1_reflects_eta_power_of_weights():
    w = np.array([[0.9, 0.1], [0.1, 0.9]])
    m = weighted_shift_automaton(w, initial_weights=[0.8, 0.2])
    eta = 0.5
    st = hedge_init(m, 3, eta)
    support = enumerate_support(oracles.played(st))
    z = sum(wt for _, wt in support)
    tilted = {}
    for seq, wt in support:
        tilted[seq] = (wt / z) ** eta
    znew = sum(tilted.values())
    marg = np.zeros(2)
    sym = {a: i for i, a in enumerate(st.alphabet)}
    for seq, wt in tilted.items():
        marg[sym[seq[0]]] += wt / znew
    assert np.allclose(st.p_current, marg, atol=1e-12)


def test_init_rejects_empty_intersection():
    # two experts, three shifts, horizon 3: impossible
    with pytest.raises(ValueError):
        hedge_init(exact_shift_automaton(2, 3), 3, 0.5)


def test_init_rejects_bad_eta():
    # Every engine constructor, also on a product built elsewhere; an
    # infinite rate is refused before the set-up sweeps multiply it by 0.
    machine = length_automaton(2, 2)
    product = horizon_product(machine, 2)
    for eta in (0.0, -1.0, math.nan, math.inf):
        for build in (lambda: HedgeState(product, 2, eta), lambda: AwakeState(product, 2, eta),
                      lambda: hedge_init(machine, 2, eta), lambda: awake_init(machine, 2, eta)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="learning rate must be positive and finite"):
                    build()


@pytest.mark.parametrize("horizon", [3.0, 2.5, math.nan, True, "3", 0, -2, None])
def test_horizon_product_refuses_a_horizon_that_is_not_an_integer_of_at_least_one(horizon):
    with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
        horizon_product(length_automaton(2, 3), horizon)


@pytest.mark.parametrize("horizon", [math.nan, 0, -3, 2.5, True, "3"])
@pytest.mark.parametrize("tune", ["fixed", "renyi"])
def test_tuners_refuse_a_horizon_as_horizon_product_does(tune, horizon):
    competitor = horizon_product(length_automaton(2, 3), 3)
    call = {"fixed": lambda: tune_eta_fixed(horizon, 10),
            "renyi": lambda: tune_eta_renyi(competitor, horizon)}[tune]
    with pytest.raises(ValueError, match=re.escape(f"horizon must be an integer >= 1, "
                                                   f"not {horizon!r}")):
        call()


def test_engine_plays_only_a_horizon_product_of_its_horizon():
    machine = length_automaton(2, 2)
    product = horizon_product(machine, 2)
    for build in (HedgeState, AwakeState):
        for m, horizon in ((machine, 2), (product, 3), (intersect(machine, machine), 2)):
            with pytest.raises(ValueError, match=r"plays horizon_product\(competitor, "):
                build(m, horizon, 0.5)
        assert build(product, 2, 0.5).K == 4


# -- per-round distributions -----------------------------------------------------------


def test_zero_losses_keep_prior_marginals():
    st = hedge_init(exact_shift_automaton(3, 1), 5, 0.7)
    support = enumerate_support(oracles.played(st))
    oracle = oracles.brute_distributions(
        support, 0.7, [np.zeros(3)] * 5, st.alphabet)
    ps = [st.p_current]
    for _ in range(4):
        ps.append(hedge_step(st, np.zeros(3)))
    for got, want in zip(ps, oracle):
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_matches_brute_force_on_kshift(seed):
    eta = 0.6
    st = hedge_init(exact_shift_automaton(3, 2), 6, eta)
    rng = np.random.default_rng(seed)
    losses = [rng.random(3) for _ in range(6)]
    support = enumerate_support(oracles.played(st))
    oracle = oracles.brute_distributions(support, eta, losses, st.alphabet)
    ps = [st.p_current]
    for t in range(6):
        nxt = hedge_step(st, losses[t])
        if nxt is not None:
            ps.append(nxt)
    for got, want in zip(ps, oracle):
        assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_matches_brute_force_on_weighted_machine(seed):
    w = np.array([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]])
    machine = weighted_shift_automaton(w, initial_weights=[0.5, 0.3, 0.2])
    eta, horizon = 0.9, 5
    st = hedge_init(machine, horizon, eta)
    rng = np.random.default_rng(100 + seed)
    losses = [rng.random(3) for _ in range(horizon)]
    support = enumerate_support(oracles.played(st))
    oracle = oracles.brute_distributions(support, eta, losses, st.alphabet)
    ps = [st.p_current]
    for t in range(horizon):
        nxt = hedge_step(st, losses[t])
        if nxt is not None:
            ps.append(nxt)
    for got, want in zip(ps, oracle):
        assert np.abs(got - want).max() < 1e-9


def test_two_expert_concentration_rate():
    # one expert losing 1 every round: odds decay like exp(-eta t)
    eta = 0.5
    st = hedge_init(exact_shift_automaton(2, 0), 6, eta)
    loss = np.array([1.0, 0.0])
    ratios = []
    p = st.p_current
    for _ in range(5):
        p = hedge_step(st, loss)
        ratios.append(p[0] / p[1])
    for t, r in enumerate(ratios, start=1):
        assert r == pytest.approx(math.exp(-eta * t), rel=1e-9)


def test_step_validates_input():
    st = hedge_init(length_automaton(2, 2), 2, 0.5)
    with pytest.raises(ValueError):
        hedge_step(st, [0.5])
    with pytest.raises(ValueError):
        hedge_step(st, [0.5, 1.5])
    hedge_step(st, [0.1, 0.2])
    hedge_step(st, [0.1, 0.2])
    with pytest.raises(ValueError):
        hedge_step(st, [0.1, 0.2])


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -0.5]])
def test_step_rejects_losses_outside_unit_interval_before_any_change(bad):
    st = hedge_init(exact_shift_automaton(3, 1), 4, 0.5)
    hedge_step(st, [0.1, 0.2, 0.3])
    p, alpha = st.p_current.copy(), st.alpha.copy()
    with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
        hedge_step(st, bad)
    assert st.rounds_done == 1 and st.cumulative_loss == pytest.approx(st.expected_losses[0])
    assert len(st.loss_history) == len(st.expected_losses) == 1 and len(st.p_history) == 2
    assert (st.p_current == p).all() and (st.alpha == alpha).all()


def test_log_w_is_powered_weights_plus_the_charged_losses():
    eta, horizon = 0.7, 5
    st = hedge_init(exact_shift_automaton(4, 2), horizon, eta)
    run_rounds(st, np.random.default_rng(2).random((horizon, 4)))
    m = st.machine
    want = [eta * math.log(t.weight)
            - eta * st.loss_history[m.state_names[t.src][1]][st.sym_index[t.label]]
            for t in m.transitions]
    assert st.log_w == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_distributions_normalized():
    st = hedge_init(exact_shift_automaton(4, 2), 7, 1.3)
    rng = np.random.default_rng(8)
    for _ in range(6):
        p = hedge_step(st, rng.random(4))
        assert p.min() >= 0 and abs(p.sum() - 1.0) < 1e-9


def test_long_horizon_stays_normalized():
    # half a million competitor sequences: enumeration is hopeless, the
    # level recursion is not, and the log-domain weights cannot underflow
    horizon = 300
    st = hedge_init(exact_shift_automaton(3, 2), horizon, 0.5)
    assert st.K > 500_000
    rng = np.random.default_rng(0)
    for _ in range(horizon):
        p = st.p_current
        assert p.min() >= 0 and abs(p.sum() - 1.0) <= 1e-9
        hedge_step(st, rng.random(3))
    rep = summarize(st)
    assert rep.weighted_regret <= rep.weighted_bound


def test_free_length_machine_is_uniform_past_linear_range():
    # 10^320 sequences: unscaled linear backward weights overflow here
    horizon = 320
    st = hedge_init(length_automaton(10, horizon), horizon, 0.1)
    rng = np.random.default_rng(1)
    for _ in range(horizon):
        assert np.abs(st.p_current - 0.1).max() <= 1e-12
        if hedge_step(st, rng.random(10)) is None:
            break
    assert st.log_Z == pytest.approx(horizon * math.log(10), rel=1e-12)


def run_against_fixed_share(machine, n, k, horizon, eta, seed):
    st = hedge_init(machine, horizon, eta)
    losses = np.random.default_rng(seed).random((horizon, n))
    ps = [st.p_current]
    for loss in losses:
        p = hedge_step(st, loss)
        if p is not None:
            ps.append(p)
    want = oracles.fixed_share_distributions(n, k, horizon, eta, losses)
    assert np.isfinite(ps).all()
    assert np.abs(np.array(ps) - want).max() <= 1e-12


def test_fixed_share_plain_machine_long_horizon():
    from wfa_hedge.ngram import ngram_to_wfa
    model = fixed_share_bigram(20, 5, 700)
    run_against_fixed_share(ngram_to_wfa(model), 20, 5, 700, 0.3, seed=2)


def test_fixed_share_phi_machine_long_horizon():
    model = fixed_share_bigram(50, 5, 500)
    run_against_fixed_share(bigram_phi_machine(model), 50, 5, 500, 0.3, seed=3)


def test_summarize_on_fixed_share_phi_machine():
    # the best path's linear weight underflows to 0 at this horizon
    n, k, horizon = 30, 3, 300
    machine = bigram_phi_machine(fixed_share_bigram(n, k, horizon))
    eta = tune_eta_fixed(horizon, n * (n - 1) ** k * math.comb(horizon - 1, k))
    st = hedge_init(machine, horizon, eta)
    run_rounds(st, np.random.default_rng(4).random((horizon, n)))
    rep = summarize(st)
    assert math.isfinite(rep.weighted_regret)
    assert rep.weighted_regret <= rep.weighted_bound


def test_summarize_builds_no_transition_objects(request):
    # The report reads K, log Z and the best paths off the compiled
    # arrays; no per-edge object is built after set-up.
    n, k, horizon = 30, 3, 300
    st = hedge_init(bigram_phi_machine(fixed_share_bigram(n, k, horizon)), horizon, 0.3)
    run_rounds(st, np.random.default_rng(5).random((horizon, n)))
    built = request.getfixturevalue("built_transitions")
    rep = summarize(st)
    assert built == []
    # Fixed-Share gives every sequence weight: K = N^T, past int64, so
    # the report carries no K and the bounds read log K.
    assert rep.num_sequences is None
    assert st.log_K == pytest.approx(horizon * math.log(n), rel=1e-12)
    assert rep.weighted_regret <= rep.weighted_bound


def test_summarize_never_expands_a_phi_run(no_expansion):
    n, k, horizon = 6, 2, 40
    st = hedge_init(bigram_phi_machine(fixed_share_bigram(n, k, horizon)), horizon, 0.4)
    run_rounds(st, np.random.default_rng(7).random((horizon, n)))
    rep = summarize(st)
    assert rep.num_sequences is None  # K = N^T, past int64
    assert st.log_K == pytest.approx(horizon * math.log(n), rel=1e-12)
    assert rep.weighted_regret <= rep.weighted_bound
    with pytest.raises(AssertionError, match="expanded"):
        oracles.summarize(st)


@pytest.mark.parametrize("n, k, horizon", [(4, 1, 10), (10, 2, 50), (30, 3, 300)])
def test_fixed_share_phi_count_is_every_sequence(n, k, horizon):
    # Fixed-Share gives every sequence positive weight: K = N^T, here up
    # to 444 digits, counted on the compiled arrays with their
    # corrections: exactly by the reference count, and by the engine
    # where it fits int64, else as log K.
    st = hedge_init(bigram_phi_machine(fixed_share_bigram(n, k, horizon)), horizon, 0.5)
    assert oracles.compiled_count(st.compiled) == n ** horizon
    assert st.K == (n ** horizon if n ** horizon < 2 ** 63 else None)
    assert st.log_K == pytest.approx(horizon * math.log(n), rel=1e-12)


@pytest.mark.parametrize("n, k, horizon", [(3, 2, 6), (4, 3, 30), (10, 5, 200)])
def test_kshift_count_is_the_closed_form(n, k, horizon):
    st = hedge_init(exact_shift_automaton(n, k), horizon, 0.5)
    assert st.K == n * (n - 1) ** k * math.comb(horizon - 1, k)


@pytest.mark.parametrize("horizon", [1000, 1250, 2000])
def test_kshift_count_is_exact_below_2_63_and_none_above(horizon):
    # K = N (N-1)^k C(T-1, k) for kshift(10, 5): 4.8e18 at T = 1000, below
    # 2^63; 1.5e19 at T = 1250, which int64 wraps to a negative value; and
    # 1.6e20 at T = 2000, which it wraps to a positive one.  Never a
    # wrapped value.
    k = 10 * 9 ** 5 * math.comb(horizon - 1, 5)
    cm = horizon_product(exact_shift_automaton(10, 5), horizon).compiled
    assert cm.num_paths == (k if k < 2 ** 63 else None)
    assert cm.log_K == pytest.approx(math.log(k), rel=1e-12)


def test_long_fixed_share_run_reads_log_k_in_bounded_memory():
    # K = 30^3000 has 4,432 digits: the report carries log K, counted on
    # the compiled arrays in floats with a small, bounded peak.
    import tracemalloc
    n, k, horizon = 30, 3, 3000
    st = hedge_init(bigram_phi_machine(fixed_share_bigram(n, k, horizon)), horizon, 0.05)
    run_rounds(st, np.random.default_rng(6).random((horizon, n)))
    tracemalloc.start()
    try:
        assert st.K is None
        log_k = st.log_K
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log_k == pytest.approx(horizon * math.log(n), rel=1e-12)
    assert peak < 20e6
    rep = summarize(st)
    assert rep.num_sequences is None
    assert rep.weighted_regret <= rep.weighted_bound


def test_count_skips_zero_weight_edges_phi_edges_and_finals():
    from wfa_hedge.phi import PHI, PhiWfa, phi_expand
    from wfa_hedge.wfa import Transition, Wfa, count_accepting_paths
    # Of aa, ab, ba, bb only aa has positive weight: ab ends on a final
    # of weight 0, ba and bb start on an edge of weight 0.
    plain = Wfa(("a", "b"), 4, 0, {2: 1.0, 3: 0.0},
                [Transition(0, "a", 0.5, 1), Transition(0, "b", 0.0, 1),
                 Transition(1, "a", 1.0, 2), Transition(1, "b", 1.0, 3)])
    assert hedge_init(plain, 2, 1.0).K == 1
    # From state 0: a is its own, b and c would come down its phi edge of
    # weight 0 (K = 1).  From state 1: b is its own, c comes from state 2
    # and state 2's a has weight 0 (K = 2).
    phi = PhiWfa(("a", "b", "c"), 4, 0, {3: 1.0},
                 [Transition(0, "a", 0.3, 3), Transition(0, PHI, 0.0, 1),
                  Transition(1, PHI, 0.5, 2), Transition(1, "b", 0.2, 3),
                  Transition(2, "a", 0.0, 3), Transition(2, "c", 0.4, 3)])
    st = hedge_init(phi, 1, 1.0)
    assert st.K == count_accepting_paths(phi_expand(st.machine)) == 1
    assert hedge_init(PhiWfa(("a", "b", "c"), 4, 1, {3: 1.0}, phi.transitions), 1, 1.0).K == 2


def test_best_sequence_differs_from_the_expansion_only_on_a_float_tie():
    # "a" reads through the hub: log(0.71) + log(0.3) is one ulp below
    # log(0.71 * 0.3), the weight of "b" and of the expanded "a" edge.
    # The expansion ties and takes "a"; the compiled sweep sees "b" ahead.
    from wfa_hedge.phi import PHI, PhiWfa
    from wfa_hedge.wfa import Transition
    phi_w, w_a = 0.71, 0.3
    assert math.log(phi_w) + math.log(w_a) < math.log(phi_w * w_a)
    machine = PhiWfa(("a", "b"), 3, 0, {1: 1.0},
                     [Transition(0, "b", phi_w * w_a, 1), Transition(0, PHI, phi_w, 2),
                      Transition(2, "a", w_a, 1), Transition(2, "b", 0.5, 1)])
    st = run_rounds(hedge_init(machine, 1, 1.0), [[0.0, 0.0]])
    got, want = summarize(st), oracles.summarize(st)
    assert (got.best_sequence, want.best_sequence) == (("b",), ("a",))
    assert got.weighted_regret == pytest.approx(want.weighted_regret, abs=1e-15)
    assert got.num_sequences == want.num_sequences == 2


def test_touched_edges_equal_level_sizes():
    st = hedge_init(exact_shift_automaton(3, 2), 6, 0.5)
    cm = st.compiled
    level_sizes = (cm.real_end - cm.edge_off[:-1]).tolist()
    rng = np.random.default_rng(0)
    for _ in range(6):
        hedge_step(st, rng.random(3))
    assert st.touched_per_round == level_sizes[:6]


def test_touched_and_work_counts_on_a_phi_bigram():
    # Stay, phi and hub edges plus the corrections whose source carries
    # mass: 4 at level 0, where only the start state has mass.
    st = hedge_init(bigram_phi_machine(fixed_share_bigram(4, 2, 8)), 8, 0.5)
    run_rounds(st, np.random.default_rng(3).random((8, 4)))
    assert st.touched_per_round == [4] + [16] * 7
    assert st.work_per_round == [8] + [32] * 7


# -- failure-transition backend ----------------------------------------------------------


def test_phi_backend_equals_plain_on_converted_machine():
    rng = np.random.default_rng(9)
    p = None
    while p is None or not p.has_phi():
        m = oracles.random_shared_structure_wfa(rng, layers=(1, 4, 3, 2, 1))
        if m is None:
            continue
        p = phi_convert(m)
    horizon, eta = 4, 0.8
    st_plain = hedge_init(m, horizon, eta)
    st_phi = hedge_init(p, horizon, eta)
    for t in range(horizon):
        loss = rng.random(3)
        a = hedge_step(st_plain, loss)
        b = hedge_step(st_phi, loss)
        if a is not None:
            assert np.abs(a - b).max() < 1e-9


def test_phi_backend_differential_sweep():
    # many random convertible machines, several loss streams each
    rng = np.random.default_rng(77)
    machines = []
    while len(machines) < 12:
        depth = int(rng.integers(2, 5))
        layers = tuple([1] + [int(rng.integers(2, 5)) for _ in range(depth)] + [1])
        m = oracles.random_shared_structure_wfa(rng, layers=layers)
        if m is None:
            continue
        p = phi_convert(m)
        if p.has_phi():
            machines.append((m, p))
    for m, p in machines:
        horizon = min(4, max(len(s) for s, _ in enumerate_support(m)))
        for seed in range(3):
            eta = 0.3 + 0.4 * ((seed + 1) / 3)
            try:
                st_plain = hedge_init(m, horizon, eta)
            except ValueError:
                continue  # no sequence of that length
            st_phi = hedge_init(p, horizon, eta)
            loss_rng = np.random.default_rng(seed)
            for _ in range(horizon):
                loss = loss_rng.random(3)
                a = hedge_step(st_plain, loss)
                b = hedge_step(st_phi, loss)
                if a is not None:
                    assert np.abs(a - b).max() < 1e-9


def test_phi_backend_two_hop_chain_shadowing():
    # fallback chain u -> h1 -> h2 with shadowing at both depths: u's
    # direct a hides h2's a two hops down, h1's direct b hides h2's b
    from wfa_hedge.phi import PHI, PhiWfa, phi_expand
    from wfa_hedge.wfa import Transition
    ts = [
        Transition(0, "a", 0.3, 1), Transition(0, "b", 0.3, 1),
        Transition(0, "c", 0.4, 1),
        Transition(1, "a", 0.6, 4),
        Transition(1, PHI, 0.5, 2),
        Transition(2, "b", 0.7, 4),
        Transition(2, PHI, 0.25, 3),
        Transition(3, "a", 0.2, 4), Transition(3, "b", 0.1, 4),
        Transition(3, "c", 0.9, 4),
    ]
    machine = PhiWfa(("a", "b", "c"), 5, 0, {4: 1.0}, ts)
    assert machine.max_phi_chain_depth() == 2
    plain = phi_expand(machine)
    for eta in (0.4, 1.1):
        for seed in range(5):
            st_phi = hedge_init(machine, 2, eta)
            st_plain = hedge_init(plain, 2, eta)
            rng = np.random.default_rng(seed)
            assert np.abs(st_phi.p_current - st_plain.p_current).max() < 1e-12
            for _ in range(2):
                loss = rng.random(3)
                a = hedge_step(st_plain, loss)
                b = hedge_step(st_phi, loss)
                if a is not None:
                    assert np.abs(a - b).max() < 1e-12


def test_phi_backend_equals_plain_on_compact_bigram():
    n, k, horizon = 5, 1, 8
    model = fixed_share_bigram(n, k, horizon)
    from wfa_hedge.ngram import ngram_to_wfa
    plain = ngram_to_wfa(model)
    compact = bigram_phi_machine(model)
    eta = 0.9
    st_plain = hedge_init(plain, horizon, eta)
    st_phi = hedge_init(compact, horizon, eta)
    rng = np.random.default_rng(10)
    for t in range(horizon):
        loss = rng.random(n)
        a = hedge_step(st_plain, loss)
        b = hedge_step(st_phi, loss)
        if a is not None:
            assert np.abs(a - b).max() < 1e-9
    assert max(st_phi.touched_per_round) <= 4 * n
    assert max(st_plain.touched_per_round) >= n * n


# -- sampling -----------------------------------------------------------------------------


def test_sample_point_mass():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample(np.array([0.0, 1.0, 0.0]), rng) == 1


class TopDraw:
    """A generator whose draws are all the largest value ``random()`` returns."""

    def random(self):
        return 1.0 - 2.0 ** -53


def test_sample_past_the_rounded_sum_takes_the_last_expert_with_mass():
    # Ten times 0.1 sums to 1 - 2**-53 in floats, so the top draw passes
    # every partial sum; the trailing and the inner zeros are never drawn.
    assert sum([0.1] * 10) == TopDraw().random()
    assert sample(np.append(np.full(10, 0.1), 0.0), TopDraw()) == 9
    assert sample(np.concatenate((np.full(5, 0.1), [0.0], np.full(5, 0.1), [0.0, 0.0])),
                  TopDraw()) == 10
    assert sample(np.array([0.0, 1.0, 0.0]), TopDraw()) == 1


def test_sample_deterministic_replay():
    draws1 = [sample(np.ones(3) / 3, np.random.default_rng(42)) for _ in range(1)]
    draws2 = [sample(np.ones(3) / 3, np.random.default_rng(42)) for _ in range(1)]
    assert draws1 == draws2


def test_sample_frequencies():
    p = np.array([0.2, 0.5, 0.3])
    rng = np.random.default_rng(7)
    n = 100_000
    counts = np.bincount([sample(p, rng) for _ in range(n)], minlength=3)
    freq = counts / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(freq - p) <= 3 * sigma).all()


# -- regret ------------------------------------------------------------------------------


def test_summarize_finds_each_best_path_once(monkeypatch):
    from wfa_hedge import hedge
    calls = []

    def counted(competitor, losses, weighted):
        calls.append(weighted)
        return best_competitor(competitor, losses, weighted)

    st = run_rounds(hedge_init(exact_shift_automaton(3, 2), 6, 0.8),
                    np.random.default_rng(6).random((6, 3)))
    monkeypatch.setattr(hedge, "best_competitor", counted)
    rep = summarize(st)
    assert sorted(calls) == [False, True]
    ps, ls = st.p_history, st.loss_history
    assert rep.weighted_regret == weighted_regret(ps, ls, oracles.played(st))
    assert rep.unweighted_regret == unweighted_regret(ps, ls, oracles.played(st))


def test_weighted_regret_matches_enumeration():
    eta = 0.6
    st = hedge_init(exact_shift_automaton(3, 2), 6, eta)
    rng = np.random.default_rng(11)
    losses = [rng.random(3) for _ in range(6)]
    run_rounds(st, losses)
    support = enumerate_support(oracles.played(st))
    algo = sum(st.expected_losses)
    z = sum(w for _, w in support)
    sym = {a: i for i, a in enumerate(st.alphabet)}
    brute = max(
        algo - sum(losses[t][sym[a]] for t, a in enumerate(seq))
        + math.log(w / z) + math.log(len(support))
        for seq, w in support)
    got = weighted_regret(st.p_history, losses, oracles.played(st))
    assert got == pytest.approx(brute, rel=1e-12)


def test_uniform_weights_make_regrets_equal():
    eta = 0.4
    st = hedge_init(exact_shift_automaton(3, 1), 5, eta)
    rng = np.random.default_rng(12)
    losses = [rng.random(3) for _ in range(5)]
    run_rounds(st, losses)
    w = weighted_regret(st.p_history, losses, oracles.played(st))
    u = unweighted_regret(st.p_history, losses, oracles.played(st))
    assert w == pytest.approx(u, abs=1e-9)


def test_constant_sequences_reduce_to_static_regret():
    eta = 0.5
    st = hedge_init(exact_shift_automaton(3, 0), 5, eta)
    rng = np.random.default_rng(13)
    losses = [rng.random(3) for _ in range(5)]
    run_rounds(st, losses)
    static = max(
        sum(st.expected_losses) - sum(l[i] for l in losses)
        for i in range(3))
    assert unweighted_regret(st.p_history, losses, oracles.played(st)) == pytest.approx(static)
    assert weighted_regret(st.p_history, losses, oracles.played(st)) == pytest.approx(static)


@pytest.mark.parametrize("builder", ["kshift", "weighted", "hierarchy"])
@pytest.mark.parametrize("seed", range(4))
def test_regret_bounds_hold(builder, seed):
    if builder == "kshift":
        machine = exact_shift_automaton(3, 2)
    elif builder == "weighted":
        w = np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
        machine = weighted_shift_automaton(w)
    else:
        machine = hierarchy_automaton([("a", 0), ("b", 1), ("c", 2)])
    horizon, eta = 6, 0.7
    st = hedge_init(machine, horizon, eta)
    rng = np.random.default_rng(seed)
    losses = [rng.random(3) for _ in range(horizon)]
    run_rounds(st, losses)
    rep = summarize(st)
    assert rep.weighted_regret <= rep.weighted_bound
    assert rep.weighted_bound <= rep.weighted_bound_loose + 1e-12


def test_entropy_tuned_rate_bound():
    # at the entropy-tuned rate, regret is within
    # sqrt(T H / 2) - H + log K, which beats sqrt(T log K / 2) when the
    # competitor distribution is concentrated
    w = np.array([[0.85, 0.1, 0.05], [0.05, 0.9, 0.05], [0.1, 0.1, 0.8]])
    machine = weighted_shift_automaton(w)
    horizon = 8
    probe = hedge_init(machine, horizon, 0.5)
    support = enumerate_support(oracles.played(probe))
    z = sum(x for _, x in support)
    q = np.array([x / z for _, x in support])
    eta = tune_eta_renyi(oracles.played(probe), horizon)
    h = renyi_entropy(q, eta)
    bound = math.sqrt(horizon * h / 2) - h + math.log(len(q))
    assert h < math.log(len(q))  # concentration makes the bound tighter
    for seed in range(10):
        st = hedge_init(machine, horizon, eta)
        rng = np.random.default_rng(seed)
        losses = [rng.random(3) for _ in range(horizon)]
        run_rounds(st, losses)
        assert weighted_regret(st.p_history, losses, oracles.played(st)) <= bound


def test_zero_loss_target_gives_clean_regret():
    # losses crafted so one switching sequence never loses: the regret
    # against it is exactly the cumulative expected loss
    from wfa_hedge.harness import gen_losses
    horizon = 6
    target = "aabbcc"
    losses = list(gen_losses("adversarial_best_path", {"target": target},
                             3, horizon, 3))
    st = hedge_init(exact_shift_automaton(3, 2), horizon, 0.8)
    run_rounds(st, losses)
    u = unweighted_regret(st.p_history, losses, oracles.played(st))
    assert u == pytest.approx(sum(st.expected_losses), rel=1e-12)
    rep = summarize(st)
    assert u <= rep.unweighted_bound


def test_log_sum():
    assert oracles.log_sum([]) == NEG_INF
    vals = [0.3, 1.7, 0.001]
    assert oracles.log_sum([math.log(v) for v in vals]) == pytest.approx(math.log(sum(vals)))


# -- entropies and tuning ----------------------------------------------------------------


def test_renyi_entropy_uniform_is_log_k():
    q = np.ones(120) / 120
    for eta in (0.1, 0.5, 0.9, 2.0):
        assert renyi_entropy(q, eta) == pytest.approx(math.log(120), rel=1e-12)


def test_renyi_entropy_order_zero_counts_support():
    q = np.array([0.9, 0.05, 0.05, 0.0])
    assert renyi_entropy(q, 0.0) == pytest.approx(math.log(3))
    assert renyi_entropy(q, 1e-9) == pytest.approx(math.log(3), rel=1e-6)


def test_renyi_entropy_rejects_order_one():
    with pytest.raises(ValueError):
        renyi_entropy(np.ones(4) / 4, 1.0)


def test_renyi_entropy_concentrated_distribution():
    # nearly all mass on 3 of 1000 outcomes: entropy close to log 3
    q = np.full(1000, 1e-9)
    q[:3] = (1 - q[3:].sum()) / 3
    h = renyi_entropy(q, 0.5)
    assert h <= math.log(3) + 0.1


def test_renyi_entropy_machine_matches_enumeration():
    b = horizon_product(exact_shift_automaton(3, 2), 6)
    support = enumerate_support(b)
    z = sum(w for _, w in support)
    q = np.array([w / z for _, w in support])
    for eta in (0.3, 0.8, 2.0):
        assert renyi_entropy_machine(b, eta) == pytest.approx(
            renyi_entropy(q, eta), rel=1e-12)
    # order 1: the Shannon limit, from the edge posteriors
    assert renyi_entropy_machine(b, 1.0) == pytest.approx(shannon_entropy(q), rel=1e-12)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, -0.5])
def test_renyi_entropy_refuses_an_order_that_is_not_finite_and_non_negative(order):
    # A NaN order would give a NaN entropy.
    with pytest.raises(ValueError, match=re.escape(
            f"order must be finite and non-negative, not {order!r}")):
        renyi_entropy([0.5, 0.5], order)


@pytest.mark.parametrize("competitor, horizon, order", [
    (exact_shift_automaton(4, 1), 6, math.nan),
    (exact_shift_automaton(4, 1), 6, math.inf),
    (weighted_shift_automaton([[0.5, 0], [0.25, 0.75]]), 4, -0.5),
])
def test_renyi_entropy_machine_refuses_an_order_that_is_not_finite_and_non_negative(
        competitor, horizon, order):
    # A NaN order would give a NaN entropy, and inf or -0.5 an invalid
    # value inside the sweep.  Order 0 stays: it is log K.
    machine = horizon_product(competitor, horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"order must be finite and non-negative, not {order!r}")):
            renyi_entropy_machine(machine, order)
    assert renyi_entropy_machine(machine, 0.0) == pytest.approx(machine.compiled.log_K,
                                                                rel=1e-12)


def test_tune_eta_fixed():
    assert tune_eta_fixed(32, math.exp(4)) == pytest.approx(1.0)  # T = 8 log K
    assert tune_eta_fixed(10, 1) == 1e-6  # clamped floor
    eta = tune_eta_fixed(100, 50)
    bound = lambda e: e * 100 / 8 + math.log(50) / e
    for trial in np.linspace(0.01, 3.0, 100):
        assert bound(eta) <= bound(trial) + 1e-9


def test_tune_eta_fixed_refuses_a_count_it_cannot_read():
    # None is what K reads past int64, where only log K is known.
    past_int64 = horizon_product(exact_shift_automaton(10, 5), 1250)
    assert past_int64.compiled.num_paths is None
    with pytest.raises(ValueError, match="None, as a count past int64 is; the bounds read log K"):
        tune_eta_fixed(1250, past_int64.compiled.num_paths)
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"must be a number, not {flag}"):
            tune_eta_fixed(10, flag)


def test_tune_eta_renyi_uniform_matches_fixed():
    q = np.ones(64) / 64
    star = horizon_product(oracles.star_machine(q), 1)
    assert tune_eta_renyi(star, 50) == pytest.approx(tune_eta_fixed(50, 64), rel=1e-8)


def test_tune_eta_renyi_residual_and_monotonicity():
    rng = np.random.default_rng(14)
    q = rng.random(40)
    q /= q.sum()
    etas = []
    for horizon in (10, 20, 40, 80):
        eta = tune_eta_renyi(horizon_product(oracles.star_machine(q), 1), horizon)
        h = renyi_entropy(q, eta) if eta != 1.0 else shannon_entropy(q)
        assert abs(eta / math.sqrt(h) - math.sqrt(8.0 / horizon)) <= 1e-9
        etas.append(eta)
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_tune_eta_renyi_rejects_singleton():
    with pytest.raises(ValueError):
        tune_eta_renyi(horizon_product(oracles.star_machine([1.0]), 1), 10)
