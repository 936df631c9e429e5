import math
from itertools import product

import numpy as np
import pytest

from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.hedge import horizon_product
from wfa_hedge.ngram import (NGramModel, bigram_phi_machine, fixed_share_bigram,
                             minimax_unigram, ml_ngram, ngram_to_wfa,
                             uniform_model)
from wfa_hedge.phi import phi_expand
from wfa_hedge.wfa import Wfa, enumerate_support, evaluate, intersect

import oracles


# -- the model type -------------------------------------------------------------------


def test_simplex_invariant_enforced():
    with pytest.raises(ValueError):
        NGramModel(("a", "b"), 1, {(): np.array([0.6, 0.6])})
    with pytest.raises(ValueError):
        NGramModel(("a", "b"), 1, {(): np.array([1.2, -0.2])})


def test_context_coverage_enforced():
    with pytest.raises(ValueError):
        NGramModel(("a", "b"), 2, {(): np.array([0.5, 0.5])})


def test_non_finite_weights_are_refused_by_name():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"table for \(\) has a non-finite weight"):
            NGramModel(("a", "b"), 1, {(): [bad, 1.0]})
    text = '{"alphabet": ["a", "b"], "order": 2, "tables": {"": {"a": 0.5, "b": 0.5}, ' \
           '"a": {"a": 0.5, "b": 0.5}, "b": {"a": NaN, "b": 1.0}}}'
    with pytest.raises(ValueError, match=r"table for \('b',\) has a non-finite weight"):
        NGramModel.from_json(text)


def test_from_json_names_a_missing_symbol():
    text = '{"alphabet": ["a", "b"], "order": 2, "tables": {"": {"a": 0.5, "b": 0.5}, ' \
           '"a": {"a": 1.0}, "b": {"a": 0.5, "b": 0.5}}}'
    with pytest.raises(ValueError, match=r"table for \('a',\) has no weight for symbol 'b'"):
        NGramModel.from_json(text)


def test_from_json_names_a_symbol_outside_the_alphabet():
    # Dropping the weight of 'zz' would load the row as if it were absent.
    text = ('{"alphabet": ["a", "b", "c"], "order": 1, '
            '"tables": {"": {"a": 0.2, "b": 0.3, "c": 0.5, "zz": 0.3}}}')
    with pytest.raises(ValueError, match=r"^table for \(\) has a weight for symbol 'zz', "
                                         r"which is not in the alphabet$"):
        NGramModel.from_json(text)


def test_tables_are_read_only_views_of_one_array():
    m = uniform_model(("a", "b", "c"), 2)
    assert m.probs.shape == (4, 3)
    assert list(m.tables) == list(m.contexts) == NGramModel._all_contexts(m.alphabet, 2)
    with pytest.raises(TypeError):
        m.tables[("a",)] = np.array([1.0, 0.0, 0.0])
    m.tables[("b",)][:] = [0.0, 1.0, 0.0]
    assert (m.probs[2] == [0.0, 1.0, 0.0]).all()
    assert m.cond(("c", "b"), "b") == 1.0
    again = m.copy()
    again.tables[("b",)][:] = [1.0, 0.0, 0.0]
    assert m.cond(("b",), "b") == 1.0
    with pytest.raises(ValueError, match="shape"):
        NGramModel(("a", "b"), 2, np.full((2, 2), 0.5))


@pytest.mark.parametrize("n_sym,order", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 3), (3, 4)])
def test_context_machine_matches_the_dict_walk(n_sym, order):
    rng = np.random.default_rng(n_sym * 10 + order)
    alphabet = tuple("abcd"[:n_sym])
    model = NGramModel(alphabet, order, rng.dirichlet(np.ones(n_sym),
                                                      len(NGramModel._all_contexts(alphabet,
                                                                                   order))))
    got, want = ngram_to_wfa(model), oracles.ngram_to_wfa(model)
    for a, b in zip(got.columns, want.columns):
        assert a.tobytes() == b.tobytes()
    assert (got.num_states, got.finals, got.state_names) == (want.num_states, want.finals,
                                                              want.state_names)


def test_sequence_prob_is_conditional_product():
    m = fixed_share_bigram(3, 1, 8)
    seq = ("a", "a", "b", "b")
    ref = (1 / 3) * m.cond(("a",), "a") * m.cond(("a",), "b") * m.cond(("b",), "b")
    assert m.sequence_prob(seq) == pytest.approx(ref, rel=1e-15)


def test_json_roundtrip_bit_exact():
    m = fixed_share_bigram(3, 2, 11)
    again = NGramModel.from_json(m.to_json())
    for ctx in m.tables:
        assert (again.tables[ctx] == m.tables[ctx]).all()


# -- automaton form --------------------------------------------------------------------


def test_uniform_unigram_machine_is_one_state():
    w = ngram_to_wfa(uniform_model(("a", "b", "c"), 1))
    assert w.num_states == 1
    assert len(w.transitions) == 3
    for t in w.transitions:
        assert t.src == t.dst == 0 and t.weight == pytest.approx(1 / 3)


def test_bigram_machine_topology():
    w = ngram_to_wfa(uniform_model(("a", "b", "c"), 2))
    assert w.num_states == 4  # empty context plus one per symbol
    assert len(w.finals) == 4
    assert len(w.transitions) == 12


def test_machine_weights_equal_conditional_products():
    m = fixed_share_bigram(2, 1, 6)
    w = ngram_to_wfa(m)
    b = intersect(w, length_automaton(2, 4))
    for seq, wt in enumerate_support(b):
        assert wt == pytest.approx(m.sequence_prob(seq), rel=1e-12)
    for x in product("ab", repeat=4):
        assert evaluate(b, x) == pytest.approx(m.sequence_prob(x), rel=1e-12)


def test_ngram_machine_round_trips_through_json():
    m = fixed_share_bigram(3, 1, 9)
    again = NGramModel.from_json(m.to_json())
    w1, w2 = ngram_to_wfa(m), ngram_to_wfa(again)
    assert [(t.src, t.label, t.weight, t.dst) for t in w1.transitions] == \
           [(t.src, t.label, t.weight, t.dst) for t in w2.transitions]


# -- maximum likelihood ------------------------------------------------------------------


def test_ml_bigram_matches_closed_form():
    for n, k, t in ((3, 2, 11), (4, 1, 9), (2, 3, 12)):
        ct = horizon_product(exact_shift_automaton(n, k), t)
        fitted = ml_ngram(ct, 2)
        closed = fixed_share_bigram(n, k, t)
        for ctx in closed.tables:
            assert np.abs(fitted.tables[ctx] - closed.tables[ctx]).max() <= 1e-12


def test_ml_bigram_of_a_long_kshift_is_the_closed_form_to_a_few_ulps():
    # kshift(10, 5) at T = 300: the scaled forward-backward posteriors put
    # the fit about 1.6e-15 (relative) from the closed form.
    fit = ml_ngram(horizon_product(exact_shift_automaton(10, 5), 300), 2)
    closed = fixed_share_bigram(10, 5, 300)
    assert (np.abs(fit.probs - closed.probs) <= 4e-15 * closed.probs).all()


def test_ml_bigram_joint_values():
    # N=3, k=2, T=11: joint stay 0.8/3, each shift pair 0.1/3
    ct = horizon_product(exact_shift_automaton(3, 2), 11)
    m = ml_ngram(ct, 2)
    for i, a in enumerate(("a", "b", "c")):
        for j in range(3):
            joint = (1 / 3) * m.tables[(a,)][j]
            want = (0.8 / 3) if i == j else (0.1 / 3)
            assert joint == pytest.approx(want, rel=1e-12)


def test_ml_full_order_is_exact():
    rng = np.random.default_rng(0)
    ct = horizon_product(oracles.random_leveled_wfa(rng, horizon=4, support_size=6), 4)
    m = ml_ngram(ct, 4)
    support = enumerate_support(ct)
    z = sum(w for _, w in support)
    for seq, w in support:
        assert m.sequence_prob(seq) == pytest.approx(w / z, rel=1e-9)


def test_ml_unigram_is_average_frequency():
    rng = np.random.default_rng(1)
    ct = horizon_product(oracles.random_leveled_wfa(rng, horizon=5, support_size=7), 5)
    m = ml_ngram(ct, 1)
    support = enumerate_support(ct)
    z = sum(w for _, w in support)
    freq = np.zeros(2)
    sym = {a: i for i, a in enumerate(ct.alphabet)}
    for seq, w in support:
        for a in seq:
            freq[sym[a]] += w / z
    freq /= freq.sum()
    assert np.allclose(m.tables[()], freq, atol=1e-12)


def test_ml_methods_agree():
    ct = horizon_product(exact_shift_automaton(3, 1), 6)
    counts = oracles._expected_counts_enumerate(ct, 2, 100_000)
    m = ml_ngram(ct, 2)
    assert set(counts) == set(m.tables)
    for ctx, row in counts.items():
        assert np.abs(row / row.sum() - m.tables[ctx]).max() <= 1e-12


def _dict_walk_tables(machine, order):
    """ML tables and uniform-filled contexts from the dict forward pass."""
    counts = oracles._expected_counts_forward_backward(machine, order)
    n = len(machine.alphabet)
    tables, filled = {}, []
    for ctx in NGramModel._all_contexts(machine.alphabet, order):
        row = counts.get(ctx)
        if row is None or row.sum() <= 0.0:
            tables[ctx] = np.full(n, 1.0 / n)
            filled.append(ctx)
        else:
            tables[ctx] = row / row.sum()
    return tables, tuple(filled)


@pytest.mark.parametrize("num_experts,shifts,horizon,order", [
    (3, 2, 11, 2), (3, 1, 6, 2), (2, 1, 5, 2), (4, 3, 30, 1), (4, 3, 30, 2),
    (10, 5, 200, 1), (10, 5, 200, 2)])
def test_ml_matches_dict_forward_backward(num_experts, shifts, horizon, order):
    # includes the benchmark's fits: kshift(4, 3) at T = 30 and (10, 5) at 200
    ct = horizon_product(exact_shift_automaton(num_experts, shifts), horizon)
    want, filled = _dict_walk_tables(ct, order)
    m = ml_ngram(ct, order)
    assert m.uniform_filled_contexts == filled
    for ctx, row in want.items():
        assert np.abs(m.tables[ctx] - row).max() <= 1e-12


@pytest.mark.parametrize("horizon", [320, 3000])
def test_ml_is_uniform_at_long_horizons(horizon):
    # 10^320 paths: a linear backward pass overflows and returned NaN rows
    m = ml_ngram(horizon_product(length_automaton(10, horizon), horizon), 2)
    assert m.uniform_filled_contexts == ()
    for row in m.tables.values():
        assert np.abs(row - 0.1).max() <= 1e-12


def test_ml_flags_unseen_contexts():
    ct = horizon_product(Wfa.from_sequences([("a", "a", "a")], alphabet=("a", "b")), 3)
    m = ml_ngram(ct, 2)
    assert (("b",) in m.uniform_filled_contexts)
    assert np.allclose(m.tables[("b",)], 0.5)


def test_ml_refuses_order_0():
    ct = horizon_product(exact_shift_automaton(3, 1), 4)
    with pytest.raises(ValueError, match=r"^order must be >= 1$"):
        ml_ngram(ct, 0)


def test_ml_minimizes_relative_entropy_locally():
    from wfa_hedge.approx import kl_divergence
    ct = horizon_product(exact_shift_automaton(2, 1), 5)
    fitted = ml_ngram(ct, 2)
    base = kl_divergence(ct, fitted)
    rng = np.random.default_rng(2)
    for _ in range(100):
        perturbed = fitted.copy()
        for ctx, row in perturbed.tables.items():
            noise = rng.normal(scale=0.02, size=row.shape)
            row[:] = np.clip(row + noise, 1e-6, None)
            row /= row.sum()
        assert kl_divergence(ct, perturbed) >= base - 1e-12


def test_fixed_share_bigram_validates_horizon():
    with pytest.raises(ValueError):
        fixed_share_bigram(3, 2, 3)


def test_fixed_share_bigram_zero_shifts():
    m = fixed_share_bigram(3, 0, 5)
    for i, a in enumerate(("a", "b", "c")):
        row = m.tables[(a,)]
        assert row[i] == 1.0 and row.sum() == 1.0


# -- minimax unigram ----------------------------------------------------------------------


def test_minimax_unigram_worked_example():
    # one path with 55 of 100 positions on the first symbol, the other 99
    # paths with 99 each: candidate from the min count wins at 0.55
    horizon, gamma = 100, 0.05
    n1 = int((0.5 + gamma) * horizon)
    special = tuple("a" if i < n1 else "b" for i in range(horizon))
    others = []
    for i in range(horizon - 1):
        seq = ["a"] * horizon
        seq[i] = "b"
        others.append(tuple(seq))
    machine = horizon_product(Wfa.from_sequences([special] + others, alphabet=("a", "b")),
                              horizon)
    m = minimax_unigram(machine)
    assert m.tables[()][0] == pytest.approx((1 + 2 * gamma) / 2, abs=1e-12)
    ml = ml_ngram(machine, 1)
    assert ml.tables[()][0] > 0.98  # maximum likelihood puts ~all mass on a


def test_minimax_unigram_symmetric_support():
    seqs = [("a", "b", "a", "b"), ("b", "a", "b", "a")]
    m = minimax_unigram(horizon_product(Wfa.from_sequences(seqs, alphabet=("a", "b")), 4))
    assert np.allclose(m.tables[()], 0.5)


def test_minimax_unigram_matches_grid_search():
    from wfa_hedge.approx import divergence_inf
    rng = np.random.default_rng(3)
    for trial in range(20):
        horizon = int(rng.integers(3, 9))
        ct = horizon_product(oracles.random_leveled_wfa(
            rng, horizon, support_size=int(rng.integers(2, 9))), horizon)
        closed = minimax_unigram(ct)
        val = divergence_inf(ct, closed).value
        grid_val, _ = oracles.grid_unigram_divergence(enumerate_support(ct),
                                                      first_symbol="a")
        assert val <= grid_val + 1e-3


def test_minimax_unigram_rejects_bad_inputs():
    with pytest.raises(ValueError):
        minimax_unigram(horizon_product(length_automaton(3, 3), 3))
    nonuni = Wfa(("a", "b"), 2, 0,
                 {1: 1.0},
                 [__import__("wfa_hedge.wfa", fromlist=["Transition"]).Transition(0, "a", 0.3, 1),
                  __import__("wfa_hedge.wfa", fromlist=["Transition"]).Transition(0, "b", 0.7, 1)])
    with pytest.raises(ValueError, match="uniform path weights"):
        minimax_unigram(horizon_product(nonuni, 1))


# -- compact bigram ----------------------------------------------------------------------


def test_bigram_phi_machine_equals_plain_bigram():
    m = fixed_share_bigram(4, 2, 9)
    compact = bigram_phi_machine(m)
    plain = ngram_to_wfa(m)
    expanded = phi_expand(compact)
    for x in product("abcd", repeat=3):
        assert evaluate(expanded, x) == pytest.approx(evaluate(plain, x), rel=1e-12)


def test_bigram_phi_machine_size():
    n = 6
    m = fixed_share_bigram(n, 1, 9)
    compact = bigram_phi_machine(m)
    plain = ngram_to_wfa(m)
    assert len(plain.transitions) == n * n + n
    assert len(compact.transitions) == 3 * n + n  # stays, phis, hub edges, start


def test_bigram_phi_machine_rejects_unshared_columns():
    m = uniform_model(("a", "b", "c"), 2).copy()
    m.tables[("a",)][:] = [0.5, 0.25, 0.25]
    m.tables[("b",)][:] = [0.3, 0.4, 0.3]
    m.tables[("c",)][:] = [0.1, 0.2, 0.7]
    with pytest.raises(ValueError):
        bigram_phi_machine(m)
