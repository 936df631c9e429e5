import math
from itertools import product

import numpy as np
import pytest

from wfa_hedge.builders import (exact_shift_automaton, hierarchy_automaton,
                                length_automaton, weighted_shift_automaton)
from wfa_hedge.hedge import horizon_product
from wfa_hedge.wfa import (CyclicAutomatonError, Transition, Wfa,
                           backward_distances, count_accepting_paths,
                           enumerate_support, evaluate, intersect,
                           leveled_best_path, levels, power_weights,
                           topological_order, validate, weight_push)

import oracles


# -- the column form -------------------------------------------------------------


def test_from_columns_equals_the_transition_form():
    ts = [Transition(1, "b", 0.5, 2), Transition(0, "a", 2.0, 1), Transition(0, "b", 1.0, 2)]
    by_objects = Wfa(("a", "b"), 3, 0, {2: 1.0}, ts)
    by_columns = Wfa.from_columns(("a", "b"), 3, 0, {2: 1.0}, [1, 0, 0], [1, 0, 1],
                                  [0.5, 2.0, 1.0], [2, 1, 2])
    for m in (by_objects, by_columns):
        assert m.transitions == tuple(ts)
        assert m.arcs(0) == {"a": ts[1], "b": ts[2]}
        np.testing.assert_array_equal(m.columns.label, [1, 0, 1])
        assert not m.columns.weight.flags.writeable
    assert by_objects.transitions[0] is ts[0]


def test_from_columns_checks_ranges_and_labels():
    with pytest.raises(ValueError, match="transition 1 .* out of range"):
        Wfa.from_columns(("a",), 2, 0, {}, [0, 1], [0, 0], [1.0, 1.0], [1, 2])
    with pytest.raises(ValueError, match="unknown symbol id 1"):
        Wfa.from_columns(("a",), 2, 0, {}, [0], [1], [1.0], [1])
    with pytest.raises(ValueError, match="one length"):
        Wfa.from_columns(("a",), 2, 0, {}, [0], [0, 0], [1.0], [1])
    with pytest.raises(ValueError, match="unknown symbol 'z'"):
        Wfa(("a",), 2, 0, {}, [Transition(0, "z", 1.0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Wfa(("a",), 2, 0, {}, [Transition(0, "a", 1.0, 5)])


# -- builders ---------------------------------------------------------------------


def test_length_automaton_shape():
    s = length_automaton(3, 3)
    assert s.num_states == 4
    assert len(s.transitions) == 9
    assert list(s.finals) == [3]
    for x in product("abc", repeat=3):
        assert evaluate(s, x) == 1.0
    assert count_accepting_paths(s) == 27


@pytest.mark.parametrize("horizon, want", [(62, 2 ** 62), (64, None)])
def test_path_count_is_swept_once_also_where_it_does_not_fit_int64(monkeypatch, horizon, want):
    # 2^64 paths do not fit int64: the count is None, kept on the plan
    # like an exact one, so a second call sweeps nothing.
    from wfa_hedge import wfa
    sweeps, path_count = [], wfa._path_count
    monkeypatch.setattr(wfa, "_path_count", lambda *a: sweeps.append(a) or path_count(*a))
    s = length_automaton(2, horizon)
    assert count_accepting_paths(s) == want
    assert count_accepting_paths(s) == want
    assert len(sweeps) == 1


def test_kshift_support_is_exactly_k_changes():
    c = exact_shift_automaton(3, 2)
    b = intersect(c, length_automaton(3, 6))
    expected = 0
    for x in product("abc", repeat=6):
        accepted = oracles.count_changes(x) == 2
        expected += accepted
        assert evaluate(b, x) == (1.0 if accepted else 0.0)
    # C(5,2) * 3 * 2^2 distinct change placements / experts
    assert expected == math.comb(5, 2) * 3 * 4 == 120
    assert count_accepting_paths(b) == 120


def test_kshift_zero_shifts_accepts_constants():
    c = exact_shift_automaton(3, 0)
    b = intersect(c, length_automaton(3, 4))
    assert count_accepting_paths(b) == 3
    assert evaluate(b, ("a",) * 4) == 1.0
    assert evaluate(b, ("a", "a", "b", "a")) == 0.0


def test_kshift_two_experts_one_shift():
    c = exact_shift_automaton(2, 1)
    b = intersect(c, length_automaton(2, 2))
    support = {seq for seq, _ in enumerate_support(b)}
    assert support == {("a", "b"), ("b", "a")}


def test_kshift_at_most_flag():
    c = exact_shift_automaton(3, 2, at_most=True)
    b = intersect(c, length_automaton(3, 5))
    for x in product("abc", repeat=5):
        assert evaluate(b, x) == (1.0 if oracles.count_changes(x) <= 2 else 0.0)


def test_kshift_rejects_impossible():
    with pytest.raises(ValueError):
        exact_shift_automaton(1, 1)


def test_weighted_shift_identity_matrix():
    m = weighted_shift_automaton(np.eye(3))
    b = intersect(m, length_automaton(3, 4))
    for seq, w in enumerate_support(b):
        assert len(set(seq)) == 1 and w == 1.0
    assert count_accepting_paths(b) == 3


def test_weighted_shift_uniform_matrix_is_uniform_over_strings():
    n = 3
    m = weighted_shift_automaton(np.full((n, n), 1.0 / n),
                                 initial_weights=[1.0 / n] * n)
    b = intersect(m, length_automaton(n, 3))
    vals = {seq: w for seq, w in enumerate_support(b)}
    assert len(vals) == 27
    for w in vals.values():
        assert w == pytest.approx(1.0 / 27, rel=1e-12)


def test_weighted_shift_negative_weight_rejected():
    with pytest.raises(ValueError):
        weighted_shift_automaton(np.array([[0.5, -0.1], [0.3, 0.7]]))


def test_weighted_shift_path_weight():
    w = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
    m = weighted_shift_automaton(w)
    assert evaluate(m, ("a", "a", "b")) == pytest.approx(1.0 * 0.9 * 0.05)


def _hierarchy_oracle(tiers, seq):
    symbols = [s for s, _ in tiers]
    budgets = {s: b for s, b in tiers}
    if not seq or seq[0] != symbols[0]:
        return False
    cur = seq[0]
    for nxt in seq[1:]:
        if nxt != cur:
            if nxt not in budgets or budgets[nxt] == 0:
                return False
            budgets[nxt] -= 1
            cur = nxt
    return True


def test_hierarchy_figure_instance():
    tiers = [("a", 0), ("b", 1), ("c", 2)]
    h = hierarchy_automaton(tiers)
    b = intersect(h, length_automaton(3, 3))
    assert evaluate(b, ("a", "a", "a")) == 1.0
    assert evaluate(b, ("b", "a", "a")) == 0.0
    for x in product("abc", repeat=3):
        assert evaluate(b, x) == (1.0 if _hierarchy_oracle(tiers, x) else 0.0), x


def test_hierarchy_single_tier():
    h = hierarchy_automaton([("a", 0)])
    b = intersect(h, length_automaton(1, 5, alphabet=("a",)))
    assert [s for s, _ in enumerate_support(b)] == [("a",) * 5]


def test_hierarchy_empty_rejected():
    with pytest.raises(ValueError):
        hierarchy_automaton([])


# -- evaluation and intersection -----------------------------------------------------


def test_evaluate_no_path_is_zero():
    w = Wfa.from_sequences([("a", "b")])
    assert evaluate(w, ("b",)) == 0.0
    assert evaluate(w, ("a",)) == 0.0  # non-final endpoint


def test_intersect_pointwise_dyadic_bit_exact():
    rng = np.random.default_rng(1)
    for trial in range(10):
        a1 = oracles.random_acyclic_wfa(rng, 6, ("a", "b"), weights="dyadic")
        a2 = oracles.random_acyclic_wfa(rng, 5, ("a", "b"), weights="dyadic")
        inter = intersect(a1, a2)
        for x in product("ab", repeat=5):
            assert evaluate(inter, x) == evaluate(a1, x) * evaluate(a2, x)


def test_intersect_pointwise_general_weights():
    rng = np.random.default_rng(2)
    for trial in range(10):
        a1 = oracles.random_acyclic_wfa(rng, 6, ("a", "b"), weights="uniform")
        a2 = oracles.random_acyclic_wfa(rng, 5, ("a", "b"), weights="uniform")
        inter = intersect(a1, a2)
        for x in product("ab", repeat=5):
            v, ref = evaluate(inter, x), evaluate(a1, x) * evaluate(a2, x)
            assert v == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_intersect_idempotent_on_length_machine():
    s = length_automaton(2, 4)
    ss = intersect(s, s)
    assert count_accepting_paths(ss) == 16
    for x in product("ab", repeat=4):
        assert evaluate(ss, x) == 1.0


def test_intersect_alphabet_mismatch():
    with pytest.raises(ValueError):
        intersect(length_automaton(2, 2), length_automaton(3, 2))


def test_intersect_of_disjoint_languages_is_the_empty_machine():
    aa = Wfa.from_sequences([("a", "a")], alphabet=("a", "b"))
    bb = Wfa.from_sequences([("b", "b")], alphabet=("a", "b"))
    empty = intersect(aa, bb)
    assert (empty.num_states, empty.finals, empty.transitions) == (1, {}, ())
    assert empty.state_names == ((0, 0),)


def test_intersect_is_trim():
    # b only accepts 'aa'; pairs reachable via 'b' must be pruned
    a = length_automaton(2, 2)
    b = Wfa.from_sequences([("a", "a")], alphabet=("a", "b"))
    inter = intersect(a, b)
    d = validate(inter)
    assert d.ok and not d.warnings


# -- reweighting ----------------------------------------------------------------------


def test_power_weights_identity():
    s = length_automaton(3, 3)
    assert power_weights(s, 1.0) is s
    p = power_weights(s, 0.37)
    for x in product("abc", repeat=3):
        assert evaluate(p, x) == 1.0


def test_power_weights_matches_per_path_exponent():
    w = np.full((2, 2), 0.1)
    np.fill_diagonal(w, 0.9)
    m = weighted_shift_automaton(w)
    p = power_weights(m, 0.5)
    assert evaluate(p, ("a", "b")) == pytest.approx((0.9 * 0.1) ** 0.5 / 0.9 ** 0.5, rel=1e-12)
    # full-path check against enumeration
    b = intersect(m, length_automaton(2, 3))
    pb = power_weights(b, 0.5)
    for seq, wt in enumerate_support(b):
        assert evaluate(pb, seq) == pytest.approx(wt ** 0.5, rel=1e-12)


def test_power_weights_rejects_nonpositive():
    with pytest.raises(ValueError):
        power_weights(length_automaton(2, 2), 0.0)


# -- backward distances, pushing ------------------------------------------------------


def test_backward_distance_on_length_machine():
    s = length_automaton(3, 4)
    d = backward_distances(s)
    for level in range(5):
        assert d[level] == pytest.approx(3.0 ** (4 - level))


def test_backward_distance_equals_enumeration_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = oracles.random_acyclic_wfa(rng, 7)
        d = backward_distances(m)
        total = sum(w for _, w in enumerate_support(m))
        assert d[m.initial] == pytest.approx(total, rel=1e-12)


def test_backward_distance_rejects_cycles():
    c = exact_shift_automaton(2, 1)
    with pytest.raises(CyclicAutomatonError):
        backward_distances(c)


def test_weight_push_stochastic_and_preserving():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = oracles.random_acyclic_wfa(rng, 7)
        d0 = backward_distances(m)[m.initial]
        pushed = weight_push(m)
        for q in range(pushed.num_states):
            total = pushed.final_weight(q) + sum(t.weight for t in pushed.arcs(q).values())
            assert abs(total - 1.0) <= 1e-12
        for seq, w in enumerate_support(m):
            assert evaluate(pushed, seq) * d0 == pytest.approx(w, rel=1e-12)


def test_weight_push_kshift_uniform():
    b = intersect(exact_shift_automaton(3, 2), length_automaton(3, 6))
    pushed = weight_push(b)
    for seq, w in enumerate_support(pushed):
        assert w == pytest.approx(1.0 / 120, rel=1e-12)


def test_weight_push_length_machine_gives_uniform_rows():
    pushed = weight_push(length_automaton(4, 3))
    for t in pushed.transitions:
        assert t.weight == pytest.approx(0.25)


def test_weight_push_stays_finite_past_the_float_range():
    # 10^320 paths: a linear backward sum overflows to inf and w * inf / inf is NaN.
    pushed = weight_push(length_automaton(10, 320))
    assert pushed.num_states == 321 and len(pushed.columns.weight) == 3200
    assert np.abs(pushed.columns.weight - 0.1).max() <= 1e-12
    assert pushed.finals == {320: 1.0}


def test_weight_push_empty_language():
    w = Wfa(("a",), 2, 0, {}, [Transition(0, "a", 1.0, 1)])
    with pytest.raises(ValueError):
        weight_push(w)


# -- counting and enumeration ----------------------------------------------------------


def test_count_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = oracles.random_acyclic_wfa(rng, 7)
        assert count_accepting_paths(m) == len(enumerate_support(m))


def test_enumeration_limit():
    s = length_automaton(3, 5)
    with pytest.raises(ValueError):
        enumerate_support(s, limit=10)


def test_enumeration_walks_paths_past_the_recursion_limit():
    assert enumerate_support(length_automaton(1, 1500)) == [(("a",) * 1500, 1.0)]


def test_duplicate_labels_are_named_not_reported_as_a_cycle():
    # Acyclic, but two 'b'-transitions leave state 1.
    m = Wfa(("a", "b"), 4, 0, {3: 1.0},
            [Transition(0, "a", 1.0, 1), Transition(1, "b", 1.0, 2),
             Transition(1, "b", 0.5, 3), Transition(2, "a", 1.0, 3)])
    for f in (topological_order, count_accepting_paths):
        with pytest.raises(ValueError, match="two 'b'-transitions leave state 1") as err:
            f(m)
        assert not isinstance(err.value, CyclicAutomatonError)


def test_enumeration_agrees_with_evaluate():
    rng = np.random.default_rng(6)
    m = oracles.random_acyclic_wfa(rng, 8)
    for seq, w in enumerate_support(m):
        assert evaluate(m, seq) == pytest.approx(w, rel=1e-15)


# -- leveled best path ------------------------------------------------------------------


def test_leveled_best_path_matches_enumeration():
    rng = np.random.default_rng(7)
    b = horizon_product(exact_shift_automaton(3, 1), 5)
    losses = np.array([rng.random(3) for _ in range(5)])
    c = b.columns
    val, seq, _ = leveled_best_path(b, -losses[levels(b)[c.src], c.label])
    ref = oracles.brute_best_sequence(enumerate_support(b), losses, b.alphabet)
    assert val == pytest.approx(ref[0], rel=1e-12)
    assert seq == ref[1]


def test_leveled_best_path_tie_breaks_lexicographically():
    s = horizon_product(length_automaton(2, 3), 3)
    _, seq, _ = leveled_best_path(s, np.zeros(len(s.columns.src)))
    assert seq == ("a", "a", "a")


@pytest.mark.parametrize("ts", [
    # State 2 is entered after "a" and after "ab".
    [(0, "a", 1), (1, "b", 2), (0, "b", 2), (4, "a", 1)],
    # State 4 is entered after "aa" and after "baa", from states that share
    # a Kahn generation: the unreachable chain 5 -> 6 delays state 1.
    [(5, "a", 6), (6, "a", 1), (0, "a", 1), (0, "b", 2), (2, "a", 3), (1, "a", 4),
     (3, "a", 4)],
])
def test_leveled_best_path_refuses_a_state_reached_at_two_depths(ts):
    # The plain machine is refused; each horizon product has the state
    # once per level and sweeps the sequences of its length.
    m = Wfa(("a", "b"), 7, 0, {2: 1.0, 4: 1.0}, [Transition(p, a, 1.0, q) for p, a, q in ts])
    score = np.zeros(len(m.columns.src))
    for sweep in (lambda: leveled_best_path(m, score), lambda: levels(m)):
        with pytest.raises(ValueError, match=r"horizon_product\(machine, T\)"):
            sweep()
    with pytest.raises(ValueError, match="automaton is not leveled"):
        oracles.frontier_best_path(m, lambda lv, e: score[e])
    support = [seq for seq, _ in enumerate_support(m)]
    for horizon in sorted({len(seq) for seq in support}):
        p = horizon_product(m, horizon)
        got = leveled_best_path(p, np.zeros(len(p.columns.src)))
        assert got.sequence == min(seq for seq in support if len(seq) == horizon)
        assert got.value == 0.0


def test_leveled_best_path_ignores_arcs_off_the_positive_paths():
    # The zero-weight arc stays in the product but is on no path, and
    # the unreachable state 4 leaves it.
    fine = Wfa(("a", "b"), 5, 0, {2: 1.0},
               [Transition(0, "a", 1.0, 1), Transition(1, "b", 1.0, 2),
                Transition(0, "b", 0.0, 1), Transition(4, "a", 1.0, 1)])
    p = horizon_product(fine, 2)
    assert levels(p).tolist() == [0, 1, 2]
    assert levels(p).dtype == np.int32 and not levels(p).flags.writeable
    assert "sweep" not in vars(p.compiled)  # the levels are the compile's, not the plan's
    assert sorted(t.label for t in p.transitions) == ["a", "b", "b"]
    favour_zero = np.where(p.columns.weight == 0.0, 5.0, 0.0)
    assert leveled_best_path(p, favour_zero).sequence == ("a", "b")


def test_leveled_best_path_on_edges_out_of_depth_order():
    # The first column entry of the plain machine leaves a depth-1 state;
    # its product's sweep equals the frontier oracle on the plain machine.
    # Both sequences of length 2 tie on the zero score.
    m = Wfa(("a", "b"), 5, 0, {1: 1.0, 4: 1.0},
            [Transition(3, "a", 1.0, 1), Transition(0, "a", 1.0, 3),
             Transition(0, "b", 1.0, 2), Transition(2, "b", 1.0, 1),
             Transition(2, "a", 1.0, 4)])
    p = horizon_product(m, 2)
    assert levels(p).tolist() == [t for _, t in p.state_names]
    arc = oracles.product_arcs(p, m)
    for score in (np.zeros(5), np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
                  np.array([0.0, 0.0, 0.0, 1.0, 2.0])):
        got = leveled_best_path(p, score[arc])
        want = oracles.frontier_best_path(m, lambda lv, e: score[e])
        assert (got.value, got.sequence, arc[got.edges].tolist()) == (
            want.value, want.sequence, want.edges.tolist())
    assert leveled_best_path(p, np.zeros(5)).sequence == ("a", "a")
    assert leveled_best_path(p, np.array([0.0, 0.0, 0.0, 1.0, 2.0])[arc]).sequence == ("b", "a")


def test_leveled_best_path_wants_one_score_per_transition():
    s = horizon_product(length_automaton(2, 3), 3)
    with pytest.raises(ValueError, match="one entry per transition"):
        leveled_best_path(s, np.zeros(len(s.columns.src) - 1))


# -- diagnostics ------------------------------------------------------------------------


def test_validate_clean_machine():
    d = validate(length_automaton(3, 3))
    assert d.ok and not d.errors and not d.warnings


def test_validate_reports_duplicate_labels():
    w = Wfa(("a",), 2, 0, {1: 1.0},
            [Transition(0, "a", 1.0, 1), Transition(0, "a", 0.5, 1)])
    d = validate(w)
    assert not d.ok and any("a" in e for e in d.errors)


def test_validate_reports_unreachable():
    w = Wfa(("a",), 3, 0, {1: 1.0}, [Transition(0, "a", 1.0, 1)])
    d = validate(w)
    assert d.ok
    assert any("unreachable" in x for x in d.warnings)


# -- the arc index, the Kahn generations, the range minima ---------------------------


def test_arc_lookups_agree_that_the_first_arc_wins_in_string_order():
    # "e10" sorts before "e3" although its id is larger, so the rank-keyed
    # index and the label ids disagree on order; the repeated (0, "e3")
    # keeps its first transition everywhere.
    from wfa_hedge.wfa import _find_arcs, default_alphabet
    alphabet = default_alphabet(30)
    ts = [Transition(0, "e3", 0.5, 1), Transition(0, "e10", 0.25, 2),
          Transition(0, "e3", 0.125, 2), Transition(1, "e29", 0.75, 2)]
    m = Wfa(alphabet, 3, 0, {1: 1.0, 2: 0.5}, ts)
    assert evaluate(m, ["e3"]) == 0.5
    assert evaluate(m, ["e10"]) == 0.125
    assert evaluate(m, ["e3", "e29"]) == 0.5 * 0.75 * 0.5
    assert evaluate(m, ["e29"]) == evaluate(m, ["e4"]) == evaluate(m, ["zz"]) == 0.0
    assert m.arcs(0) == {"e3": ts[0], "e10": ts[1]}
    got = _find_arcs(m, np.array([0, 0, 1, 1, 2]), np.array([3, 10, 29, 3, 0]))
    np.testing.assert_array_equal(got, [0, 1, 3, -1, -1])
    assert validate(m).errors == ["two 'e3'-transitions leave state 0"]
    with pytest.raises(ValueError, match="two 'e3'-transitions leave state 0"):
        topological_order(m)


def fifo_kahn(src, dst, n):
    """A FIFO Kahn queue, one state at a time: the states in queue order,
    each one's generation (one more than its last predecessor's)."""
    from collections import deque
    indeg, succ = [0] * n, [[] for _ in range(n)]
    for s, d in zip(src, dst):
        indeg[d] += 1
        succ[s].append(d)
    queue = deque(q for q in range(n) if indeg[q] == 0)
    gen, order = dict.fromkeys(queue, 0), []
    while queue:
        q = queue.popleft()
        order.append(q)
        for d in succ[q]:
            indeg[d] -= 1
            if indeg[d] == 0:
                gen[d] = gen[q] + 1
                queue.append(d)
    return order, gen


@pytest.mark.parametrize("seed", range(40))
def test_generations_equal_a_fifo_kahn_queue(seed):
    from wfa_hedge.wfa import _generations
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(0, 30))
    src = rng.integers(0, n, m)
    dst = np.minimum(src + rng.integers(1, 4, m), n - 1)  # forward, or a loop at n - 1
    keep = src < dst
    src, dst = src[keep], dst[keep]
    if len(src):  # repeated edges
        again = rng.integers(0, len(src), 3)
        src, dst = np.concatenate((src, src[again])), np.concatenate((dst, dst[again]))
    cycle = seed % 2 and n > 2
    if cycle:  # a cycle between two states, and the states behind it
        a, b = rng.choice(n, 2, replace=False).tolist()
        src, dst = np.append(src, [a, b]), np.append(dst, [b, a])
    order = rng.permutation(len(src))
    src, dst = src[order], dst[order]
    want_order, want_gen = fifo_kahn(src.tolist(), dst.tolist(), n)
    gens = _generations(src, dst, n)
    assert np.concatenate(gens).tolist() == want_order
    assert all(want_gen[q] == g for g, states in enumerate(gens) for q in states.tolist())
    if cycle:
        assert not {a, b} & set(want_order)


def test_range_minima_equal_the_slices():
    from wfa_hedge.wfa import _range_min
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 40):
        x = rng.integers(-50, 50, n)
        lo = rng.integers(0, n, 60)
        hi = np.minimum(lo + rng.integers(1, n + 1, 60), n)
        lo, hi = np.append(lo, [0, n - 1, 0]), np.append(hi, [1, n, n])  # length 1, the end
        want = [x[a:b].min() for a, b in zip(lo.tolist(), hi.tolist())]
        assert _range_min(x, lo, hi).tolist() == want
