import math

import numpy as np
import pytest

from wfa_hedge.approx import (divergence_inf, kl_divergence, prod_eg,
                              ratio_subgradient, select_order)
from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.hedge import hedge_init, hedge_step, weighted_regret
from wfa_hedge.ngram import (fixed_share_bigram, ml_ngram, ngram_to_wfa,
                             uniform_model)
from wfa_hedge.wfa import Wfa, count_accepting_paths, enumerate_support

import oracles


# -- divergence -------------------------------------------------------------------


def test_divergence_zero_on_matching_model():
    m = fixed_share_bigram(3, 1, 6)
    ct = __import__("wfa_hedge.wfa", fromlist=["intersect"]).intersect(
        ngram_to_wfa(m), length_automaton(3, 4))
    d = divergence_inf(ct, m)
    assert d.value == pytest.approx(0.0, abs=1e-12)


def test_divergence_matches_enumeration_on_kshift():
    from wfa_hedge.wfa import intersect
    ct = intersect(exact_shift_automaton(3, 2), length_automaton(3, 6))
    m = ml_ngram(ct, 2)
    d = divergence_inf(ct, m)
    support = enumerate_support(ct)
    z = sum(w for _, w in support)
    vals = {seq: math.log(w / z) - m.sequence_logprob(seq) for seq, w in support}
    best = max(vals.values())
    assert d.value == pytest.approx(best, rel=1e-12)
    assert vals[d.witness] == pytest.approx(best, rel=1e-12)


def test_divergence_dominates_relative_entropy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ct = oracles.random_leveled_wfa(rng, horizon=5,
                                        support_size=int(rng.integers(3, 10)))
        for order in (1, 2):
            m = ml_ngram(ct, order)
            assert kl_divergence(ct, m) <= divergence_inf(ct, m).value + 1e-12


def test_divergence_infinite_when_model_misses_support():
    ct = Wfa.from_sequences([("a", "a"), ("b", "b")], alphabet=("a", "b"))
    m = uniform_model(("a", "b"), 1).copy()
    m.tables[()] = np.array([1.0, 0.0])
    d = divergence_inf(ct, m)
    assert d.value == math.inf
    assert d.witness[0] == "b"


def test_max_ratio_path_breaks_ties_lexicographically():
    s = length_automaton(2, 3)
    m = uniform_model(("a", "b"), 1)
    assert divergence_inf(s, m).witness == ("a", "a", "a")


def test_divergence_alphabet_mismatch():
    with pytest.raises(ValueError):
        divergence_inf(length_automaton(2, 2), uniform_model(("a", "b", "c"), 1))


# -- subgradient -------------------------------------------------------------------


def test_subgradient_counts_and_zeros():
    m = uniform_model(("a", "b"), 1)
    g = ratio_subgradient(m, ("a", "a", "b"))
    assert g[()][0] == pytest.approx(-2 / 0.5)
    assert g[()][1] == pytest.approx(-1 / 0.5)
    g2 = ratio_subgradient(m, ("b", "b", "b"))
    assert g2[()][0] == 0.0


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    alphabet = ("a", "b")
    for _ in range(5):
        m = uniform_model(alphabet, 2)
        for ctx, row in m.tables.items():
            row[:] = rng.dirichlet(np.ones(2))
        seq = tuple(rng.choice(alphabet, 4))
        got = ratio_subgradient(m, seq)

        def neg_logprob(tables):
            total = 0.0
            for t, a in enumerate(seq):
                ctx = tuple(seq[max(0, t - 1):t])
                total -= math.log(tables[ctx][0 if a == "a" else 1])
            return total

        want = oracles.finite_difference_gradient(neg_logprob, m.tables)
        for ctx in m.tables:
            assert np.abs(got[ctx] - want[ctx]).max() < 1e-6


def test_subgradient_rejects_zero_touched_weight():
    m = uniform_model(("a", "b"), 1).copy()
    m.tables[()] = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        ratio_subgradient(m, ("b",))


# -- optimization ------------------------------------------------------------------


def test_prod_eg_stays_uniform_when_already_optimal():
    s = length_automaton(2, 4)
    result = prod_eg(s, 1, 50)
    assert np.allclose(result.model.tables[()], 0.5, atol=1e-12)
    assert result.objective == pytest.approx(0.0, abs=1e-9)


def test_prod_eg_two_symbol_reaches_grid_optimum():
    rng = np.random.default_rng(2)
    ct = oracles.random_leveled_wfa(rng, horizon=6, support_size=10)
    result = prod_eg(ct, 1, 2000)
    grid_val, _ = oracles.grid_unigram_divergence(enumerate_support(ct))
    assert result.objective <= grid_val + 1e-3


def test_prod_eg_beats_uniform_start():
    # every supported sequence has at most one b, so the optimal unigram
    # sits far from uniform and the averaged iterate must improve
    rng = np.random.default_rng(3)
    horizon = 6
    for seed in range(5):
        one_b = [tuple("b" if i == j else "a" for i in range(horizon))
                 for j in sorted(rng.choice(horizon, size=3, replace=False))]
        ct = Wfa.from_sequences([("a",) * horizon] + one_b, alphabet=("a", "b"))
        start = divergence_inf(ct, uniform_model(ct.alphabet, 1)).value
        result = prod_eg(ct, 1, 300)
        assert result.objective < start - 0.5


def test_prod_eg_average_within_slack_of_start_when_uniform_optimal():
    # symmetric support: uniform is optimal and the average oscillates
    # around it, so only the convergence slack separates the two
    ct = Wfa.from_sequences([("a",) * 5, ("b",) * 5], alphabet=("a", "b"))
    start = divergence_inf(ct, uniform_model(("a", "b"), 1)).value
    result = prod_eg(ct, 1, 500)
    assert result.objective >= start - 1e-12  # uniform is the optimum
    assert result.objective <= start + 0.05


def test_prod_eg_average_iterate_bound():
    # the mirror-descent guarantee for the averaged iterate, with the
    # constant step configured from a probe of the gradient scale
    rng = np.random.default_rng(4)
    ct = oracles.random_leveled_wfa(rng, horizon=6, support_size=10)
    tau = 2000
    probe = prod_eg(ct, 1, 20)
    big_l = max(probe.grad_sup_norms)
    eta = math.sqrt(math.log(2) / (2 * big_l * tau))
    result = prod_eg(ct, 1, tau, step_mode="constant", step_scale=eta)
    big_l = max(big_l, max(result.grad_sup_norms))
    bound = math.log(2) / (eta * tau) + 2 * eta * big_l
    grid_val, _ = oracles.grid_unigram_divergence(enumerate_support(ct))
    assert result.objective - grid_val <= bound


# -- order selection -----------------------------------------------------------------


def test_select_order_accepts_unigram_on_uniform_machine():
    s = length_automaton(3, 4)
    sel = select_order(s, 50, budget=100)
    assert sel.order == 1 and sel.feasible
    assert sel.objective == pytest.approx(0.0, abs=1e-9)


def test_select_order_upgrades_when_needed():
    from wfa_hedge.wfa import intersect
    # constant sequences: a unigram is so wrong (divergence (T-1) log N)
    # that the violation fires immediately; the bigram is exact
    ct = intersect(exact_shift_automaton(3, 0), length_automaton(3, 6))
    sel = select_order(ct, 30, budget=3 ** 2)
    assert sel.order == 2
    assert sel.feasible
    assert sel.objective - sel.slack <= math.sqrt(6)
    # minimality of the binary search: the unigram fails at full budget
    unigram_rows = [t for t in sel.tried if t[0] == 1]
    assert unigram_rows and not any(ok for _, ok, _, _ in unigram_rows)


def test_select_order_flags_budget_limit():
    from wfa_hedge.wfa import intersect
    ct = intersect(exact_shift_automaton(3, 0), length_automaton(3, 6))
    sel = select_order(ct, 10, budget=3)  # a bigram level (9) cannot fit
    assert sel.order == 1
    assert sel.budget_limited and not sel.feasible


def test_select_order_rejects_tiny_budget():
    with pytest.raises(ValueError):
        select_order(length_automaton(3, 3), 10, budget=2)


# -- composition with the engine ------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2])
def test_approximation_regret_bound(order):
    from wfa_hedge.wfa import intersect
    horizon, eta = 8, 0.5
    ct = intersect(exact_shift_automaton(3, 2), length_automaton(3, horizon))
    model = ml_ngram(ct, order)
    support = enumerate_support(ct)
    z = sum(w for _, w in support)
    div = max(math.log(w / z) - model.sequence_logprob(seq) for seq, w in support)
    k = count_accepting_paths(ct)
    rng = np.random.default_rng(5)
    for seed in range(10):
        st = hedge_init(ngram_to_wfa(model), horizon, eta)
        losses = [rng.random(3) for _ in range(horizon)]
        for loss in losses:
            hedge_step(st, loss)
        regret = weighted_regret(st.p_history, losses, ct)
        bound = eta * horizon / 8 + math.log(k) / eta + div
        assert regret <= bound
