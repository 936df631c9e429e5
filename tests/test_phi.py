from itertools import combinations, product

import numpy as np
import pytest

from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.ngram import bigram_phi_machine, fixed_share_bigram, ngram_to_wfa
from wfa_hedge.phi import (PHI, PhiWfa, as_phi, phi_backward_distances, phi_convert,
                           phi_expand, phi_intersect, weight_push_phi)
from wfa_hedge.wfa import (Transition, Wfa, backward_distances, count_accepting_paths,
                           enumerate_support, evaluate, intersect, leveled_best_path, levels,
                           log_power_sum, power_weights, validate, weight_push)

import oracles
from oracles import evaluate_phi, phi_source_subset, reads_directly, resolve_symbol


def shared_fanin_machine(n_parents=3, weights=(0.3, 0.5, 0.2)):
    """Initial state fans out to parents which share identical edges into
    one joint target."""
    alphabet = ("a", "b", "c")
    ts = []
    for i, a in enumerate(alphabet[:n_parents]):
        ts.append(Transition(0, a, 1.0, 1 + i))
    target = 1 + n_parents
    for p in range(1, 1 + n_parents):
        for a, w in zip(alphabet, weights):
            ts.append(Transition(p, a, w, target))
    return Wfa(alphabet, target + 1, 0, {target: 1.0}, ts)


# -- source subset -----------------------------------------------------------------


def test_source_subset_identical_parents():
    m = shared_fanin_machine(3)
    s, q = phi_source_subset(m, 4)
    assert len(s) == 3 and len(q) == 3
    assert len(s) * len(q) - len(s) - len(q) == 3


def test_source_subset_single_parent_never_beneficial():
    m = shared_fanin_machine(1)
    s, q = phi_source_subset(m, 2)
    assert len(s) + len(q) >= len(s) * len(q)


def test_source_subset_greedy_beats_every_prefix_and_subset():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = oracles.random_shared_structure_wfa(rng, layers=(1, 5, 1))
        if m is None or m.num_states < 3:
            continue
        target = m.num_states - 1
        s, q = phi_source_subset(m, target)
        got = len(s) * len(q) - len(s) - len(q) if q else 0
        # the returned pair must be consistent with the machine
        if q:
            shared_check = None
            for p in q:
                edges = {(t.label, t.weight) for t in m.arcs(p).values()
                         if t.dst == target}
                shared_check = edges if shared_check is None else shared_check & edges
            assert s <= shared_check
        # exhaustive scan over all parent subsets
        parents = sorted({t.src for t in m.transitions if t.dst == target})
        best = -2
        for r in range(1, len(parents) + 1):
            for subset in combinations(parents, r):
                shared = None
                for p in subset:
                    edges = {(t.label, t.weight) for t in m.arcs(p).values()
                             if t.dst == target}
                    shared = edges if shared is None else shared & edges
                val = len(shared) * len(subset) - len(shared) - len(subset)
                best = max(best, val)
        # greedy may miss the optimum but never beats it
        assert got <= best


# -- conversion ---------------------------------------------------------------------


def test_convert_shared_fanin_shape_and_size():
    m = shared_fanin_machine(3)
    p = phi_convert(m)
    assert len(p.conversion_events) == 1
    ev = p.conversion_events[0]
    assert ev.transition_delta == -3
    assert len(p.transitions) == len(m.transitions) + ev.transition_delta
    n_phi = sum(1 for t in p.transitions if t.label == PHI)
    assert n_phi == 3


def test_convert_without_shared_structure_is_identity():
    m = length_automaton(3, 3)
    p = phi_convert(m)
    assert not p.conversion_events
    assert not p.has_phi()
    assert len(p.transitions) == len(m.transitions)


def test_convert_preserves_language_on_random_machines():
    rng = np.random.default_rng(1)
    converted = 0
    for _ in range(50):
        m = oracles.random_shared_structure_wfa(
            rng, layers=(1, int(rng.integers(2, 5)), int(rng.integers(2, 4)), 1))
        if m is None:
            continue
        p = phi_convert(m)
        converted += bool(p.conversion_events)
        e = phi_expand(p)
        for x in product("abc", repeat=3):
            assert evaluate(e, x) == pytest.approx(evaluate(m, x), rel=1e-12, abs=0.0)
    assert converted >= 10  # the generator must actually exercise conversion


def test_convert_size_accounting():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = oracles.random_shared_structure_wfa(rng, layers=(1, 4, 3, 1))
        if m is None:
            continue
        p = phi_convert(m)
        delta = sum(ev.transition_delta for ev in p.conversion_events)
        assert len(p.transitions) == len(m.transitions) + delta
        for ev in p.conversion_events:
            ns, nq = len(ev.shared_labels), len(ev.parents)
            assert ev.transition_delta == ns + nq - ns * nq < 0


def test_convert_refuses_a_nondeterministic_machine():
    # Read as a dict, the machine kept its last 'a' arc: the conversion
    # weighed "ab" 0.25 where the machine weighs it 0.5.
    m = Wfa(("a", "b"), 4, 0, {3: 1.0},
            [Transition(0, "a", 0.5, 1), Transition(0, "a", 0.25, 2),
             Transition(1, "b", 1.0, 3), Transition(2, "b", 1.0, 3)])
    assert evaluate(m, "ab") == 0.5
    with pytest.raises(ValueError, match="two 'a'-transitions leave state 0"):
        phi_convert(m)
    with pytest.raises(ValueError, match="already has phi transitions"):
        phi_convert(phi_convert(shared_fanin_machine(3)))


# -- expansion ----------------------------------------------------------------------


def test_expand_without_phi_is_identity():
    m = length_automaton(2, 3)
    e = phi_expand(as_phi(m))
    for x in product("ab", repeat=3):
        assert evaluate(e, x) == evaluate(m, x)


def test_expand_two_step_chain():
    # grandparent fallback: state 0 --phi--> 1 --phi--> 2, only 2 knows 'b'
    ts = [
        Transition(0, "a", 0.5, 3),
        Transition(0, PHI, 0.25, 1),
        Transition(1, "c", 0.5, 3),
        Transition(1, PHI, 0.5, 2),
        Transition(2, "b", 0.8, 3),
        Transition(2, "a", 0.1, 3),
    ]
    p = PhiWfa(("a", "b", "c"), 4, 0, {3: 1.0}, ts)
    assert resolve_symbol(p, 0, "a") == (0.5, 3)          # direct shadows chain
    assert resolve_symbol(p, 0, "c") == (0.25 * 0.5, 3)   # one hop
    w, dst = resolve_symbol(p, 0, "b")
    assert w == pytest.approx(0.25 * 0.5 * 0.8) and dst == 3  # two hops
    e = phi_expand(p)
    assert evaluate(e, ("b",)) == pytest.approx(0.1)
    assert evaluate_phi(p, ("b",)) == pytest.approx(0.1)


def test_expand_respects_shadowing_weights():
    m = shared_fanin_machine(3)
    p = phi_convert(m)
    e = phi_expand(p)
    for x in product("abc", repeat=2):
        assert evaluate(e, x) == pytest.approx(evaluate(m, x), abs=0.0)


def test_phi_backward_distances_match_expansion():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = oracles.random_shared_structure_wfa(rng, layers=(1, 4, 2, 1))
        if m is None:
            continue
        p = phi_convert(m)
        d_phi = phi_backward_distances(p)
        d_plain = backward_distances(m)
        assert d_phi[p.initial] == pytest.approx(d_plain[m.initial], rel=1e-12)


def test_weight_push_phi_effective_stochasticity():
    m = shared_fanin_machine(3)
    p = weight_push_phi(phi_convert(m))
    for q in range(p.num_states):
        total = p.final_weight(q)
        for a in p.alphabet:
            r = resolve_symbol(p, q, a)
            if r is not None:
                total += r[0]
        if total:  # dead states excluded
            assert total == pytest.approx(1.0, abs=1e-12)


def test_weight_push_phi_stays_finite_past_the_float_range():
    # 10^320 paths: a linear backward sum overflows to inf and w * inf / inf is NaN.
    pushed = weight_push_phi(as_phi(length_automaton(10, 320)))
    assert type(pushed) is PhiWfa and len(pushed.columns.weight) == 3200
    assert np.abs(pushed.columns.weight - 0.1).max() <= 1e-12
    assert pushed.finals == {320: 1.0}


# -- filter composition ------------------------------------------------------------------


def test_intersect_phi_free_inputs_match_plain():
    a = length_automaton(2, 3)
    b = Wfa.from_sequences([("a", "a", "b"), ("b", "a", "a")], alphabet=("a", "b"))
    got = phi_intersect(as_phi(a), as_phi(b))
    assert not got.has_phi()
    plain = intersect(a, b)
    for x in product("ab", repeat=3):
        assert evaluate_phi(got, x) == evaluate(plain, x)


def test_intersect_converted_kshift_with_length_machine():
    c = exact_shift_automaton(3, 2)
    plain = intersect(c, length_automaton(3, 6))
    composed = phi_intersect(phi_convert(c), length_automaton(3, 6))
    e = phi_expand(composed)
    for x in product("abc", repeat=6):
        assert evaluate(e, x) == pytest.approx(evaluate(plain, x), abs=0.0)


def test_intersect_phi_bigram_with_length_machine():
    model = fixed_share_bigram(3, 1, 6)
    compact = bigram_phi_machine(model)
    plain = intersect(ngram_to_wfa(model), length_automaton(3, 4))
    composed = phi_intersect(compact, length_automaton(3, 4))
    e = phi_expand(composed)
    for x in product("abc", repeat=4):
        assert evaluate(e, x) == pytest.approx(evaluate(plain, x), rel=1e-12)


def test_plain_intersect_refuses_phi_edges():
    # read as ordinary arcs, the phi edges would be dropped and the
    # product would accept the 4 constant sequences instead of 4^10
    compact = bigram_phi_machine(fixed_share_bigram(4, 1, 10))
    length = length_automaton(4, 10)
    for a1, a2 in ((compact, length), (length, compact)):
        with pytest.raises(ValueError, match="phi_intersect"):
            intersect(a1, a2)
    assert len(phi_expand(phi_intersect(compact, length)).finals) > 0


PLAIN_PATH_SUMS = {
    "backward_distances": backward_distances,
    "log_power_sum": lambda m: log_power_sum(m, 0.5),
    "weight_push": weight_push,
    "power_weights": lambda m: power_weights(m, 0.5),
    "count_accepting_paths": count_accepting_paths,
    "leveled_best_path": lambda m: leveled_best_path(m, np.zeros(len(m.columns.src))),
    "levels": levels,
}


# The best-path sweep reads phi edges, of a horizon product only.
LENGTH_T_ONLY = {"leveled_best_path", "levels"}


@pytest.mark.parametrize("name", sorted(PLAIN_PATH_SUMS))
def test_plain_path_sums_refuse_phi_edges(name):
    # Read as no step of a path, the phi edges would cut every path
    # through them: a distance of 0, log Z of -inf, a misleading error.
    m = phi_convert(shared_fanin_machine(3))
    assert m.has_phi()
    with pytest.raises(ValueError, match=r"horizon_product\(machine, T\)" if name in LENGTH_T_ONLY
                       else "phi_backward_distances, weight_push_phi, "
                            "power_weights_phi or phi_expand"):
        PLAIN_PATH_SUMS[name](m)
    assert phi_backward_distances(m)[0] == pytest.approx(3.0)


def test_plain_helpers_refuse_or_follow_phi_edges():
    # Read as nothing, the phi edges used to give no paths, a weight of
    # 0.0 where evaluate_phi gives 0.3, and unreachable-state warnings.
    m = phi_convert(shared_fanin_machine(3))
    assert m.has_phi()
    for helper in (lambda: evaluate(m, ("a", "a")), lambda: enumerate_support(m)):
        with pytest.raises(ValueError, match="power_weights_phi or phi_expand"):
            helper()
    assert evaluate_phi(m, ("a", "a")) == pytest.approx(0.3)
    assert len(enumerate_support(phi_expand(m))) == 9
    report = validate(m)
    assert report.ok and report.warnings == []
    cut = Wfa(("a",), 3, 0, {1: 1.0}, [Transition(0, "a", 1.0, 1)])
    assert validate(cut).warnings == ["state 2 unreachable from initial"]


def _phi_paths_between(machine):
    """Count phi-labeled paths between every ordered state pair."""
    adj = {}
    for t in machine.transitions:
        if t.label == PHI:
            adj.setdefault(t.src, []).append(t.dst)
    counts = {}

    def walk(start, q):
        for nxt in adj.get(q, ()):  # phi graphs are acyclic
            key = (start, nxt)
            counts[key] = counts.get(key, 0) + 1
            walk(start, nxt)

    for q in range(machine.num_states):
        walk(q, q)
    return counts


def test_filter_admits_single_phi_path_per_pair():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(30):
        m1 = oracles.random_shared_structure_wfa(rng, layers=(1, 3, 2, 1))
        m2 = oracles.random_shared_structure_wfa(rng, layers=(1, 2, 2, 1))
        if m1 is None or m2 is None:
            continue
        p1, p2 = phi_convert(m1), phi_convert(m2)
        if not (p1.has_phi() and p2.has_phi()):
            continue
        composed = phi_intersect(p1, p2)
        checked += 1
        for pair, count in _phi_paths_between(composed).items():
            assert count == 1, f"{count} phi paths between {pair}"
    assert checked >= 3


def test_intersect_random_pairs_equal_plain_intersection():
    rng = np.random.default_rng(5)
    done = 0
    while done < 20:
        m1 = oracles.random_shared_structure_wfa(rng, layers=(1, 3, 3, 1))
        m2 = oracles.random_shared_structure_wfa(rng, layers=(1, 2, 3, 1))
        if m1 is None or m2 is None:
            continue
        p1, p2 = phi_convert(m1), phi_convert(m2)
        composed = phi_intersect(p1, p2)
        expanded = phi_expand(composed)
        plain = intersect(m1, m2)
        for x in product("abc", repeat=3):
            assert evaluate(expanded, x) == pytest.approx(evaluate(plain, x),
                                                          rel=1e-12, abs=1e-300)
        done += 1


def test_intersect_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        phi_intersect(as_phi(length_automaton(2, 2)), as_phi(length_automaton(3, 2)))


# -- structural guards -------------------------------------------------------------------


def test_phi_cycle_rejected():
    ts = [Transition(0, PHI, 1.0, 1), Transition(1, PHI, 1.0, 0),
          Transition(1, "a", 1.0, 2)]
    with pytest.raises(ValueError):
        PhiWfa(("a",), 3, 0, {2: 1.0}, ts)


def test_two_phi_edges_need_metadata():
    ts = [Transition(0, PHI, 1.0, 1), Transition(0, PHI, 1.0, 2),
          Transition(1, "a", 1.0, 3), Transition(2, "a", 1.0, 3)]
    with pytest.raises(ValueError):
        PhiWfa(("a",), 4, 0, {3: 1.0}, ts)


def test_reserved_token_not_in_alphabet():
    with pytest.raises(ValueError):
        PhiWfa((PHI, "a"), 1, 0, {0: 1.0}, [])


def deep_chain(n, loop):
    """States 0..n-1 on one phi chain, 0 and n-1 reading 'a' into state
    n, which is final; n-1 also reads 'b'.  With ``loop``, n reads 'a'
    back into 0 and 'b' into itself."""
    ts = [Transition(i, PHI, 0.9, i + 1) for i in range(n - 1)]
    ts += [Transition(0, "a", 0.5, n), Transition(n - 1, "a", 1.0, n),
           Transition(n - 1, "b", 0.8, n)]
    if loop:
        ts += [Transition(n, "a", 0.4, 0), Transition(n, "b", 0.6, n)]
    return PhiWfa(("a", "b"), n + 1, 0, {n: 1.0}, ts, state_names=range(n + 1))


def test_phi_path_sums_walk_chains_past_the_default_cap():
    # 19 phi edges: the path sums walk the machine's own chains to their
    # end.
    n = 20
    p = deep_chain(n, loop=False)
    assert p.max_phi_chain_depth() == n - 1
    expanded = phi_expand(p)
    want = {expanded.state_names[q]: d for q, d in backward_distances(expanded).items()}
    got = phi_backward_distances(p)
    assert {q: got[q] for q in want} == want
    assert want[0] == pytest.approx(0.5 + 0.9 ** (n - 1) * 0.8, rel=1e-15)
    pushed = weight_push_phi(p)
    assert phi_backward_distances(pushed)[0] == pytest.approx(1.0, rel=1e-12)


def test_engine_plays_phi_chains_past_the_default_cap():
    # The shadow rows come from the unroll's own chain table, so a chain
    # of 19 phi edges plays as the expanded product search does.
    from wfa_hedge.hedge import hedge_init, hedge_step
    n, horizon, eta = 20, 4, 0.7
    p = deep_chain(n, loop=True)
    product = phi_expand(oracles.horizon_product(p, horizon))
    losses = np.random.default_rng(5).random((horizon, 2))
    want = oracles.brute_distributions(enumerate_support(product), eta, losses, p.alphabet)
    state = hedge_init(p, horizon, eta)
    got = [state.p_current] + [hedge_step(state, loss) for loss in losses[:-1]]
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12
    assert state.K == count_accepting_paths(product)


def test_an_18_edge_phi_chain_expands_as_the_engine_plays_it():
    # The walks take their bound from the machine: an 18-edge chain
    # expands as the dict walk does, field by field, and the expansion's
    # product plays the phi product's K and p_t.
    from wfa_hedge.hedge import hedge_init, hedge_step
    horizon, eta = 5, 0.7
    p = deep_chain(19, loop=True)
    assert p.max_phi_chain_depth() == 18
    got, want = phi_expand(p), oracles.phi_expand(p)
    assert type(got) is Wfa
    assert (got.alphabet, got.num_states, got.initial) == (want.alphabet, want.num_states, 0)
    assert list(got.finals.items()) == list(want.finals.items())
    assert got.state_names == want.state_names
    for a, b in zip(got.columns, want.columns):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    losses = np.random.default_rng(7).random((horizon, 2))
    runs = [hedge_init(m, horizon, eta) for m in (p, got)]
    assert runs[0].K == runs[1].K > 1
    played = [[s.p_current] + [hedge_step(s, loss) for loss in losses[:-1]] for s in runs]
    assert np.abs(np.array(played[0]) - np.array(played[1])).max() <= 1e-12


def test_trimmed_direct_edges_still_shadow_the_chain():
    # States 0 and 1 read 'c' into a dead state, which the product trims;
    # the 'c' edge further down the phi chain must stay shadowed, and be
    # cancelled once, from state 1, the first chain state reading 'c'.
    from wfa_hedge.hedge import hedge_init
    from wfa_hedge.phi import shadowed_continuation
    ts = [Transition(0, "c", 1.0, 4), Transition(0, PHI, 0.5, 1),
          Transition(1, "c", 1.0, 4), Transition(1, PHI, 0.5, 2),
          Transition(2, "b", 0.5, 3), Transition(2, "c", 0.5, 3)]
    p = PhiWfa(("a", "b", "c"), 5, 0, {3: 1.0}, ts)
    assert evaluate_phi(p, ("c",)) == 0.0 and evaluate_phi(p, ("b",)) == 0.125
    product = phi_intersect(p, length_automaton(3, 1))
    one = product.state_names.index((1, 0, 2))
    for q in (0, one):
        assert "c" not in product.arcs(q) and reads_directly(product, q, "c")
    assert shadowed_continuation(product, 0, "c") is None
    assert shadowed_continuation(product, one, "c")[0] == 0.5
    assert hedge_init(p, 1, 0.5).p_current.tolist() == [0.0, 1.0, 0.0]


# -- the column form -------------------------------------------------------------------


def phi_columns(ts, alphabet):
    """Edge columns of ``ts``; PHI is label -1, an unknown symbol 7."""
    index = {a: i for i, a in enumerate(alphabet)}
    index[PHI] = -1
    return ([t.src for t in ts], [index.get(t.label, 7) for t in ts],
            [t.weight for t in ts], [t.dst for t in ts])


AB = ("a", "b")
REJECTED = [  # (alphabet, transitions, constructor message, from_columns message)
    ((PHI, "a"), [], "the phi token is reserved", "the phi token is reserved"),
    (AB, [Transition(0, "a", 1.0, 1), Transition(0, "b", 1.0, 5)],
     "transition Transition(src=0, label='b', weight=1.0, dst=5) out of range",
     "transition 1 (0 -> 5) out of range"),
    (AB, [Transition(0, "a", 1.0, 1), Transition(1, "a", -0.5, 2)],
     "negative transition weight on Transition(src=1, label='a', weight=-0.5, dst=2)",
     "negative transition weight -0.5 on transition 1"),
    (AB, [Transition(0, "a", 1.0, 1), Transition(0, "a", 1.0, 2)],
     "nondeterministic on 'a' at state 0", "nondeterministic on 'a' at state 0"),
    (AB, [Transition(0, "z", 1.0, 1)], "unknown symbol 'z'", "unknown symbol id 7 on transition 0"),
    (AB, [Transition(0, PHI, 1.0, 1), Transition(1, PHI, 1.0, 2), Transition(2, PHI, 1.0, 1)],
     "phi cycle detected", "phi cycle detected"),
    (AB, [Transition(1, PHI, 1.0, 2), Transition(1, PHI, 1.0, 0)],
     "state 1 has several phi transitions but no composition metadata",
     "state 1 has several phi transitions but no composition metadata"),
    # The first bad transition is named: here the repeat before the range error.
    (AB, [Transition(0, "b", 1.0, 1), Transition(0, "b", 1.0, 2), Transition(1, "a", 1.0, 9)],
     "nondeterministic on 'b' at state 0", "nondeterministic on 'b' at state 0"),
]


@pytest.mark.parametrize("alphabet, ts, by_objects, by_columns", REJECTED)
def test_from_columns_rejects_what_the_constructor_rejects(alphabet, ts, by_objects, by_columns):
    with pytest.raises(ValueError) as err:
        PhiWfa(alphabet, 3, 0, {2: 1.0}, ts)
    assert str(err.value) == by_objects
    with pytest.raises(ValueError) as err:
        PhiWfa.from_columns(alphabet, 3, 0, {2: 1.0}, *phi_columns(ts, alphabet))
    assert str(err.value) == by_columns


TABLES = (np.ones((3, 2), bool), np.ones((2, 2), bool))
BAD_OPERANDS = [
    ("no origin", None, TABLES),
    ("one origin column", np.zeros((3, 1), np.intp), TABLES),
    ("three tables", np.zeros((3, 2), np.intp), TABLES + TABLES[:1]),
    ("a column short", np.zeros((3, 2), np.intp), (TABLES[0][:, :1], TABLES[1])),
    ("a row past a table", np.array([[0, 0], [1, 2], [2, 1]]), TABLES),
    ("a negative row", np.array([[0, 0], [-1, 0], [2, 1]]), TABLES),
]


@pytest.mark.parametrize("case, origin, tables", BAD_OPERANDS, ids=[c[0] for c in BAD_OPERANDS])
def test_operand_labels_need_origin_columns_that_index_them(case, origin, tables):
    ts = [Transition(0, PHI, 1.0, 1), Transition(0, PHI, 1.0, 2), Transition(1, "a", 1.0, 2)]
    with pytest.raises(ValueError, match=r"^operand_labels are a \(left, right\) pair"):
        PhiWfa(AB, 3, 0, {2: 1.0}, ts, origin, tables)
    with pytest.raises(ValueError, match=r"^operand_labels are a \(left, right\) pair"):
        PhiWfa.from_columns(AB, 3, 0, {2: 1.0}, *phi_columns(ts, AB), origin, tables)
    good = PhiWfa(AB, 3, 0, {2: 1.0}, ts, np.array([[0, 0], [1, 1], [2, 1]]), TABLES)
    assert good.state_names == ((0, 0), (1, 1), (2, 1)) and not good.operand_labels[0].flags.writeable


@pytest.mark.parametrize("origin", [np.zeros(3, np.intp), np.zeros((2, 2), np.intp)])
def test_an_origin_array_has_one_row_per_state(origin):
    with pytest.raises(ValueError, match="^an origin array has one row per state$"):
        Wfa.from_columns(AB, 3, 0, {}, [], [], [], [], origin)


def test_from_columns_rejects_labels_below_phi():
    with pytest.raises(ValueError, match="^unknown symbol id -2 on transition 0$"):
        PhiWfa.from_columns(AB, 2, 0, {}, [0], [-2], [1.0], [1])


def test_phi_columns_equal_the_transition_form():
    ts = [Transition(1, "b", 0.5, 2), Transition(0, PHI, 0.25, 1), Transition(0, "a", 2.0, 2),
          Transition(1, PHI, 0.5, 2), Transition(2, "a", 1.0, 3)]
    by_objects = PhiWfa(AB, 4, 0, {3: 1.0}, ts)
    by_columns = PhiWfa.from_columns(AB, 4, 0, {3: 1.0}, *phi_columns(ts, AB))
    for m in (by_objects, by_columns):
        assert m.transitions == tuple(ts)
        assert m.arcs(0) == {"a": ts[2]} and m.arcs(1) == {"b": ts[0]}
        assert m.phi_arcs(0) == (ts[1],) and m.phi_arc(2) is None
        assert m.max_phi_chain_depth() == 2
        assert repr(m) == "PhiWfa(states=4, transitions=5, phi=2)"


def test_array_answers_build_no_transition_objects(request):
    ts = [Transition(0, "a", 0.5, 1), Transition(0, PHI, 0.25, 1), Transition(1, "b", 1.0, 2)]
    phi = PhiWfa.from_columns(AB, 3, 0, {2: 1.0}, *phi_columns(ts, AB))
    plain = length_automaton(2, 3)
    built = request.getfixturevalue("built_transitions")
    assert phi.has_phi() and phi.max_phi_chain_depth() == 1
    assert repr(phi) == "PhiWfa(states=3, transitions=3, phi=1)"
    wrapped = as_phi(plain)
    assert wrapped.columns is plain.columns
    assert not wrapped.has_phi() and wrapped.to_wfa().columns is plain.columns
    phi_intersect(phi, plain)
    assert built == []


def longest_phi_chains(machine):
    """Per state the phi edges on the longest phi path leaving it and on
    the longest one into it, walked on dicts in id order: the phi edges
    of ``oracles.random_phi_wfa`` lead to higher ids."""
    succ = {}
    for t in machine.transitions:
        if t.label == PHI:
            succ.setdefault(t.src, []).append(t.dst)
    n = machine.num_states
    leaving, into = {}, dict.fromkeys(range(n), 0)
    for q in reversed(range(n)):
        leaving[q] = max((1 + leaving[d] for d in succ.get(q, ())), default=0)
    for q in range(n):
        for d in succ.get(q, ()):
            into[d] = max(into[d], into[q] + 1)
    return leaving, into


@pytest.mark.parametrize("seed", range(30))
def test_phi_chain_depths_equal_the_longest_chains(seed):
    from wfa_hedge.phi import _phi_chain_depth
    rng = np.random.default_rng(seed)
    m = oracles.random_phi_wfa(rng, int(rng.integers(1, 12)), ("a", "b", "c"),
                               phi_prob=0.8, cyclic=bool(seed % 2))
    leaving, into = longest_phi_chains(m)
    c, phi = m.columns, m.columns.label < 0
    got = _phi_chain_depth(c.src[phi], c.dst[phi], m.num_states)
    assert got.tolist() == [leaving[q] for q in range(m.num_states)]
    assert m._phi_depth.tolist() == [into[q] for q in range(m.num_states)]
    assert m.max_phi_chain_depth() == max(leaving.values())


def test_a_phi_cycle_has_no_depth():
    from wfa_hedge.phi import _phi_chain_depth
    with pytest.raises(ValueError, match="phi cycle detected"):
        _phi_chain_depth(np.array([0, 1, 2]), np.array([1, 2, 1]), 4)
