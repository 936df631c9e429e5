"""The array product constructions, topological generations and the
engine's shadow corrections against the per-edge reference
implementations in ``oracles``, and the engine's unrolled length-T
product against the intersection it replaces (``oracles.horizon_product``
renumbered by (level, competitor state) in ``oracles.level_numbered``
and compiled by ``oracles.compile_product``).

``intersect`` and ``phi_intersect`` must reproduce the queue-based
constructions field by field (state numbering, transition order, finals,
state names, and for phi products the operand label tables, with the
direct reads and phi move kinds read off them), and ``topological_order`` / ``count_accepting_paths`` the FIFO
Kahn sort, on machines with dead and unreachable states, cycles, empty
products, alphabets past 26 symbols (where sorted label order differs
from alphabet order) and duplicated labels.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from wfa_hedge import hedge, phi
from wfa_hedge.approx import divergence_inf, kl_divergence, prod_eg, select_order
from wfa_hedge.builders import exact_shift_automaton, length_automaton, weighted_shift_automaton
from wfa_hedge.harness import ExperimentConfig, run_experiment
from wfa_hedge.hedge import (HedgeState, best_competitor, hedge_init, hedge_step, log_power_sum,
                             renyi_entropy_machine, summarize, tune_eta_renyi, unweighted_regret,
                             weighted_regret)
from wfa_hedge.ngram import (_context_product, bigram_phi_machine, fixed_share_bigram,
                             minimax_unigram, ml_ngram, uniform_model)
from wfa_hedge.phi import PHI, PhiWfa, phi_convert, phi_expand, phi_intersect
from wfa_hedge.sleeping import sleeping_regret, worst_comparator
from wfa_hedge.wfa import (CyclicAutomatonError, Transition, Wfa, _final_weights, _ranges,
                           backward_distances, count_accepting_paths, default_alphabet,
                           enumerate_support, exact_logs, intersect, leveled_best_path, levels,
                           log_weight_range, topological_order, weight_push)

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = st.integers(0, 2**32 - 1)
ALPHABETS = st.sampled_from([default_alphabet(3), default_alphabet(30)])


def assert_same_machine(got, want):
    assert got.alphabet == want.alphabet
    assert got.num_states == want.num_states
    assert got.initial == want.initial
    assert list(got.finals.items()) == list(want.finals.items())
    assert got.transitions == want.transitions
    assert got.state_names == want.state_names
    for t in got.transitions:
        assert (type(t.src), type(t.label), type(t.weight), type(t.dst)) == (int, str, float, int)


def raw(rng, alphabet, size, cyclic, duplicates, labels, dense=False):
    """A random untrimmed machine; ``dense`` ones have more edges and
    finals, so that products with them are less often empty."""
    return oracles.random_raw_wfa(rng, size, alphabet, labels, edge_prob=0.9 if dense else 0.6,
                                  final_prob=0.8 if dense else 0.3, cyclic=cyclic,
                                  duplicates=duplicates)


def some_labels(rng, alphabet):
    """Up to four symbols in alphabet order; from 30 symbols, their
    sorted order usually differs ("e10" < "e3")."""
    size = min(4, len(alphabet))
    return [alphabet[i] for i in sorted(rng.choice(len(alphabet), size, replace=False))]


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS, sizes=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       cyclic=st.tuples(st.booleans(), st.booleans()), duplicates=st.integers(0, 2),
       horizon=st.one_of(st.none(), st.integers(1, 6)))
def test_intersect_matches_reference(seed, alphabet, sizes, cyclic, duplicates, horizon):
    rng = np.random.default_rng(seed)
    labels = some_labels(rng, alphabet)
    m1 = raw(rng, alphabet, sizes[0], cyclic[0], duplicates, labels)
    if horizon is None:
        m2 = raw(rng, alphabet, sizes[1], cyclic[1], duplicates, labels, dense=True)
    else:
        m2 = length_automaton(len(alphabet), horizon, alphabet=alphabet)
    assert_same_machine(intersect(m1, m2), oracles.intersect(m1, m2))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS, size=st.integers(1, 12), cyclic=st.booleans(),
       horizon=st.one_of(st.none(), st.integers(1, 6)))
def test_topological_order_and_count_match_reference(seed, alphabet, size, cyclic, horizon):
    rng = np.random.default_rng(seed)
    machine = raw(rng, alphabet, size, cyclic, 0, some_labels(rng, alphabet))
    if horizon is not None:
        machine = intersect(machine, length_automaton(len(alphabet), horizon,
                                                      alphabet=alphabet))
    try:
        want = oracles.topological_order(machine)
    except CyclicAutomatonError:
        for f in (topological_order, count_accepting_paths):
            with pytest.raises(CyclicAutomatonError):
                f(machine)
        return
    assert topological_order(machine) == want
    assert count_accepting_paths(machine) == oracles.count_accepting_paths(machine)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS, size=st.integers(2, 12), cyclic=st.booleans(),
       duplicates=st.integers(1, 3))
def test_duplicate_labels_are_named_not_called_cycles(seed, alphabet, size, cyclic, duplicates):
    rng = np.random.default_rng(seed)
    machine = raw(rng, alphabet, size, cyclic, duplicates, some_labels(rng, alphabet))
    seen, first = set(), None
    for t in machine.transitions:
        if (t.src, t.label) in seen and first is None:
            first = t
        seen.add((t.src, t.label))
    if first is None:  # no transition to copy
        return
    for f in (topological_order, count_accepting_paths):
        with pytest.raises(ValueError) as err:
            f(machine)
        assert not isinstance(err.value, CyclicAutomatonError)
        assert str(err.value) == f"two {first.label!r}-transitions leave state {first.src}"


def test_hedge_init_on_a_plain_machine_builds_no_transition_objects(request):
    machine = exact_shift_automaton(5, 2)
    built = request.getfixturevalue("built_transitions")
    state = hedge_init(machine, 40, 0.5)
    assert built == []
    # The per-edge view is still there on request.
    assert len(state.machine.transitions) == len(built) == len(state.machine.columns.src)


def test_hedge_init_on_a_phi_machine_builds_no_transition_objects(request):
    machine = bigram_phi_machine(fixed_share_bigram(5, 2, 40))
    built = request.getfixturevalue("built_transitions")
    state = hedge_init(machine, 40, 0.5)
    assert built == []
    assert state.compiled.coef.min() < 0  # the stay loops shadow the hub
    assert len(state.machine.transitions) == len(built) == len(state.machine.columns.src)


def test_the_engine_path_builds_no_state_name_tuples(monkeypatch):
    # Runs of both engine-path configs and the engine benchmark's two
    # machines read every product through its arrays: none builds the
    # tuples of its origin rows.
    made = []
    set_header = Wfa._set_header

    def recorded(self, *args):
        made.append(self)
        set_header(self, *args)

    monkeypatch.setattr(Wfa, "_set_header", recorded)
    for name in ("fixed_share_phi", "kshift_tracking"):
        with open(CONFIGS / f"{name}.json") as f:
            run_experiment(ExperimentConfig.from_dict(json.load(f)))
    kshift = exact_shift_automaton(10, 5)
    count_accepting_paths(intersect(kshift, length_automaton(10, 200)))  # the benchmark's K
    for machine, horizon in ((kshift, 200),
                             (bigram_phi_machine(fixed_share_bigram(30, 3, 300)), 300)):
        state = hedge_init(machine, horizon, 0.1)
        for _ in range(horizon):
            hedge_step(state, np.zeros(len(machine.alphabet)))
        summarize(state)
    products = [m for m in made if m.origin is not None]
    assert len(products) >= 7 and sum(m.compiled is not None for m in products) >= 6
    assert sum(isinstance(m, PhiWfa) for m in products) >= 2
    assert all(m._names is None for m in products)


# -- phi products --------------------------------------------------------------------


def assert_same_phi_machine(got, want):
    assert_same_machine(got, want)
    assert got.origin.tobytes() == want.origin.tobytes()
    assert (got.operand_labels is None) == (want.operand_labels is None)
    for a, b in zip(got.operand_labels or (), want.operand_labels or ()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    got_meta, want_meta = oracles.composition_metadata(got), oracles.composition_metadata(want)
    assert got_meta == want_meta
    if got_meta is not None:
        assert list(got_meta[1]) == list(want_meta[1])  # in edge order


def assert_arrays_read_as_the_search(machine, pairs, moves):
    """The direct reads per (state, symbol) and the move kind per phi
    edge that the chain walker reads off a composition output's arrays,
    against the product search's own label-set pairs and move dict (keyed
    by (src, dst), in edge order); and the phi edge the walker's
    resolving step takes per (state, symbol) against the rule applied to
    those."""
    chains, n_sym = phi._chains(machine), len(machine.alphabet)
    q = np.repeat(np.arange(machine.num_states), n_sym)
    a = np.tile(np.arange(n_sym), machine.num_states)
    symbols = [machine.alphabet[i] for i in a.tolist()]
    left, right = chains.defines(q, a)
    assert left.tolist() == [s in pairs[i][0] for i, s in zip(q.tolist(), symbols)]
    assert right.tolist() == [s in pairs[i][1] for i, s in zip(q.tolist(), symbols)]
    assert chains.reads(machine, q, a)[1].tolist() == (left & right).tolist()
    c = machine.columns
    pid = np.flatnonzero(c.label < 0)
    changed = machine.origin[c.src[pid], :2] != machine.origin[c.dst[pid], :2]
    kinds = {(True, False): "left", (False, True): "right", (True, True): "both"}
    got = {(s, d): kinds[k] for s, d, k in zip(c.src[pid].tolist(), c.dst[pid].tolist(),
                                                map(tuple, changed.tolist()))}
    assert list(got.items()) == list(moves.items())
    step = chains.resolving_step(machine, q, a).tolist()
    for i, s, e in zip(q.tolist(), symbols, step):
        in_left, in_right = s in pairs[i][0], s in pairs[i][1]
        if in_left and in_right:  # read directly: no step is taken
            continue
        want = "right" if in_left else ("left" if in_right else "both")
        first = [j for j in pid.tolist() if c.src[j] == i and moves[(i, c.dst[j])] == want]
        assert e == (first[0] if first else -1)


def phi_operand(rng, kind, alphabet, labels, horizon):
    """One operand of a phi product: a random chain-style phi machine, a
    phi_convert output, a plain machine or the length acceptor."""
    size = int(rng.integers(1, 9))
    if kind == "chain":
        return oracles.random_phi_wfa(rng, size, alphabet, labels, cyclic=bool(rng.integers(2)))
    if kind == "converted":
        layers = (1, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 1)
        plain = oracles.random_shared_structure_wfa(rng, layers=layers, alphabet=alphabet)
        if plain is not None:
            return phi_convert(plain)
        return oracles.random_phi_wfa(rng, size, alphabet, labels)
    if kind == "plain":
        return raw(rng, alphabet, size, bool(rng.integers(2)), 0, labels, dense=True)
    return length_automaton(len(alphabet), horizon, alphabet=alphabet)


def phi_product_pair(seed, alphabet, kinds, horizon):
    rng = np.random.default_rng(seed)
    labels = some_labels(rng, alphabet)
    return (phi_operand(rng, kinds[0], alphabet, labels, horizon),
            phi_operand(rng, kinds[1], alphabet, labels, horizon))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS,
       kinds=st.tuples(st.sampled_from(["chain", "converted"]),
                       st.sampled_from(["chain", "converted", "plain", "length"])),
       horizon=st.integers(1, 6))
def test_phi_intersect_matches_reference(seed, alphabet, kinds, horizon):
    m1, m2 = phi_product_pair(seed, alphabet, kinds, horizon)
    assert_same_phi_machine(phi_intersect(m1, m2), oracles.phi_intersect(m1, m2))


def test_phi_intersect_draws_cover_every_filter_state_and_empty_products():
    filters, empty = set(), 0
    for seed in range(60):
        m1, m2 = phi_product_pair(seed, default_alphabet(3), ("chain", "chain"), 3)
        got = phi_intersect(m1, m2)
        assert_same_phi_machine(got, oracles.phi_intersect(m1, m2))
        filters.update(name[2] for name in got.state_names)
        empty += not got.finals
    assert filters == {0, 1, 2}
    assert empty >= 3


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, size=st.integers(2, 10), horizon=st.integers(1, 6))
def test_compiled_corrections_match_shadowed_continuation(seed, size, horizon):
    # The competitor's rows laid over the levels against one
    # shadowed_continuation call per (state, symbol) of the whole product.
    rng = np.random.default_rng(seed)
    alphabet = default_alphabet(3)
    machine = oracles.random_phi_wfa(rng, size, alphabet, edge_prob=0.7, phi_prob=0.7,
                                     final_prob=0.5, cyclic=True)
    try:
        product = hedge.horizon_product(machine, horizon)
    except ValueError:
        return
    if not isinstance(product, PhiWfa):
        return
    got, want = product.compiled, oracles.compile_product(product, horizon)
    for name in ("src", "dst", "tid", "coef", "label", "edge_off", "real_end", "ptid",
                 "group_bounds", "group_off"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# -- the unrolled length-T product -----------------------------------------------------


PLAIN_FAMILIES = ["leveled", "acyclic", "cyclic", "kshift"]
PHI_FAMILIES = ["chain", "converted", "bigram"]


def competitor(rng, family, alphabet):
    """A competitor of one of the engine's test families."""
    if family == "leveled":
        return oracles.random_leveled_wfa(rng, int(rng.integers(1, 6)), alphabet=alphabet[:3],
                                          support_size=int(rng.integers(1, 12)))
    if family == "acyclic":
        return oracles.random_acyclic_wfa(rng, int(rng.integers(2, 9)), alphabet=alphabet[:3])
    if family == "cyclic":
        return raw(rng, alphabet, int(rng.integers(1, 9)), True, int(rng.integers(2)),
                   some_labels(rng, alphabet), dense=True)
    if family == "kshift":
        labels = some_labels(rng, alphabet)
        return exact_shift_automaton(len(labels), int(rng.integers(3)), alphabet=labels)
    if family == "chain":
        return oracles.random_phi_wfa(rng, int(rng.integers(2, 10)), alphabet,
                                      some_labels(rng, alphabet), edge_prob=0.7, phi_prob=0.7,
                                      final_prob=0.5, cyclic=True)
    if family == "converted":
        return phi_operand(rng, "converted", alphabet[:3], None, 0)
    n, shifts = int(rng.integers(2, 5)), int(rng.integers(3))
    return bigram_phi_machine(fixed_share_bigram(n, shifts, shifts + 2 + int(rng.integers(4))))


def assert_same_compiled(got, want):
    """Byte for byte, the tid and ptid columns through what they index."""
    for name in ("state_off", "level", "final", "src", "dst", "coef", "label", "edge_off",
                 "real_end", "phi_depth", "psrc", "pdst", "group_bounds", "group_off"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.initial == want.initial and got.alphabet == want.alphabet
    for ids, column in (("tid", "weight"), ("tid", "log_w"), ("ptid", "weight")):
        a = getattr(got, column)[getattr(got, ids)]
        b = getattr(want, column)[getattr(want, ids)]
        assert a.tobytes() == b.tobytes(), (ids, column)


def assert_levels_increase(product):
    """Each level's competitor states strictly increase."""
    q, level = product.origin.T
    assert ((np.diff(q) > 0) | (np.diff(level) > 0)).all()
    assert (np.diff(level) >= 0).all()


def same_language(got, want):
    """The weighted languages of two products, phi chains expanded."""
    def support(m):
        return dict(enumerate_support(phi_expand(m) if isinstance(m, PhiWfa) else m))
    a, b = support(got), support(want)
    assert a.keys() == b.keys()
    for s, w in b.items():
        assert a[s] == pytest.approx(w, rel=1e-12, abs=0)


@settings(max_examples=250, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS, family=st.sampled_from(PLAIN_FAMILIES + PHI_FAMILIES),
       horizon=st.integers(1, 6), eta=st.sampled_from([0.3, 1.0, 2.5]), shuffle=st.booleans())
def test_unroll_matches_the_product_search(seed, alphabet, family, horizon, eta, shuffle):
    # Shuffled state ids put the initial state anywhere in level 0.
    rng = np.random.default_rng(seed)
    machine = competitor(rng, family, alphabet)
    assert_unroll_matches(rng, permuted(rng, machine) if shuffle else machine, horizon, eta)


def permuted(rng, machine):
    """``machine`` with its state ids shuffled, so that a phi edge or an
    arc may lead to a lower id, the initial state's included."""
    perm = rng.permutation(machine.num_states)
    c = machine.columns
    return type(machine).from_columns(
        machine.alphabet, machine.num_states, int(perm[machine.initial]),
        {int(perm[q]): w for q, w in machine.finals.items()}, perm[c.src], c.label, c.weight,
        perm[c.dst])


def test_the_initial_state_is_found_in_a_level_0_led_by_its_phi_chain():
    # State 1 starts, and its phi edge leads to state 0, which is dead: the
    # product starts at state 1's copy, not at level 0's first state.
    a, b = default_alphabet(2)
    machine = PhiWfa([a, b], 3, 1, {2: 1.0},
                     [Transition(1, PHI, 0.5, 0), Transition(1, a, 0.5, 2),
                      Transition(2, b, 1.0, 2)])
    for horizon in (1, 2, 5):
        got = hedge.horizon_product(machine, horizon)
        assert got.origin[got.initial, 0] == 1 and got.compiled.initial == got.initial
        assert got.compiled.count_paths() == 1
        assert got.compiled.log_Z == pytest.approx(math.log(0.5), rel=1e-15)
    shift = long_competitor(None, "phi_shift", [a, b], 0)
    for seed in range(20):  # phi_shift's 3 states under every order
        rng = np.random.default_rng(seed)
        assert_unroll_matches(rng, permuted(rng, shift), 6, 1.0)


def assert_unroll_matches(rng, machine, horizon, eta):
    """The unrolled product against the competitor intersected with the
    length acceptor, renumbered by (level, competitor state) and compiled
    from the intersection's state names."""
    try:
        want = oracles.horizon_product(machine, horizon)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            hedge.horizon_product(machine, horizon)
        return
    got = hedge.horizon_product(machine, horizon)
    # One exact-log column, taken from the competitor's, read by the compile.
    assert got._logs is not None and got.compiled.log_w is got._logs
    assert np.array_equal(got._logs, exact_logs(got.columns.weight))
    want = oracles.level_numbered(want)
    want.compiled = oracles.compile_product(want, horizon)
    same_language(got, want)
    if not isinstance(want, PhiWfa):
        assert_same_machine(got, want)
    pairs = {name[:2] for name in want.state_names}
    if len(pairs) == want.num_states:  # one state per (competitor state, level)
        assert_same_compiled(got.compiled, want.compiled)
        return
    # phi_intersect keeps a state reached by an arc apart from the same
    # state reached by a phi edge; the unroll merges the two.
    assert got.num_states == len(pairs)
    assert_levels_increase(got)
    assert got.compiled.count_paths() == want.compiled.count_paths()
    assert got.compiled.backward(1.0)[0] == pytest.approx(want.compiled.backward(1.0)[0],
                                                          rel=0, abs=1e-12)
    losses = rng.random((horizon, len(machine.alphabet)))
    if got.compiled.count_paths():
        for weighted in (False, True):
            a, b = (leveled_best_path(m, hedge._path_scores(m, -losses, weighted),
                                      exact_logs(_final_weights(m)[1]) if weighted else None)
                    for m in (got, want))
            assert a.sequence == b.sequence
            assert a.value == pytest.approx(b.value, rel=0, abs=1e-12)
        a, b = (HedgeState(m, horizon, eta) for m in (got, want))
        for loss in losses:
            assert np.abs(a.p_current - b.p_current).max() <= 1e-12
            hedge_step(a, loss)
            hedge_step(b, loss)


def test_unroll_draws_cover_every_family_and_the_filter_split():
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for family in PLAIN_FAMILIES + PHI_FAMILIES:
            machine = competitor(rng, family, default_alphabet(3))
            for horizon in (3, 4):
                try:
                    want = oracles.horizon_product(machine, horizon)
                except ValueError:
                    continue
                split = len({name[:2] for name in want.state_names}) < want.num_states
                seen.add((family, split))
    assert {(f, False) for f in PLAIN_FAMILIES + PHI_FAMILIES} <= seen
    assert ("chain", True) in seen


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS,
       kinds=st.tuples(st.sampled_from(["chain", "converted"]),
                       st.sampled_from(["chain", "converted", "plain", "length"])),
       horizon=st.integers(1, 6), family=st.sampled_from(PHI_FAMILIES))
def test_direct_reads_and_move_kinds_read_off_the_arrays_match_the_search(
        seed, alphabet, kinds, horizon, family):
    # A phi product's origin array and operand tables against the queue
    # search's frozenset pairs and move dict; a horizon product's against
    # those of the search's state with the same (competitor state, level).
    m1, m2 = phi_product_pair(seed, alphabet, kinds, horizon)
    got, (_, pairs, moves) = phi_intersect(m1, m2), oracles.composition(m1, m2)
    if pairs is not None:
        assert_arrays_read_as_the_search(got, pairs, moves)
    machine = competitor(np.random.default_rng(seed), family, alphabet)
    try:
        got = hedge.horizon_product(machine, horizon)
    except ValueError:
        return
    if not isinstance(got, PhiWfa):  # the competitor has no phi edge
        return
    want, pairs, moves = oracles.composition(machine, length_automaton(
        len(machine.alphabet), horizon, alphabet=machine.alphabet))
    at = [name[:2] for name in want.state_names]
    pair_of, names = dict(zip(at, pairs)), [name for name in got.state_names]
    move_of = {(at[s], at[d]): kind for (s, d), kind in moves.items()}
    c = got.columns
    assert_arrays_read_as_the_search(
        got, [pair_of[name] for name in names],
        {(s, d): move_of[names[s], names[d]]
         for s, d in zip(c.src[c.label < 0].tolist(), c.dst[c.label < 0].tolist())})


LONG_CASES = ["alternating", "late_kshift", "last_repeat", "dead_loop", "phi_shift"]


def long_competitor(rng, case, alphabet, horizon):
    """A competitor of a test family, or one that places the unroll's first
    repeated level or the trim's fixed point: levels that alternate, so
    none repeats; a k-shift, whose finals need every shift, so the trim
    settles k levels before the horizon; a path into a loop, whose last
    level is the first repeat; a loop without a final state; a phi chain
    whose level 1 holds level 0's states, reached by paths of other
    lengths and in another order, so the unroll settles at level 0."""
    a, b = alphabet[:2]
    if case == "alternating":
        return Wfa(alphabet, 2, 0, {0: 1.0, 1: 0.5},
                   [Transition(0, a, 0.5, 1), Transition(0, b, 0.25, 1), Transition(1, b, 1.0, 0)])
    if case == "late_kshift":
        return exact_shift_automaton(3, int(rng.integers(1, 6)), alphabet=alphabet[:3])
    if case == "last_repeat":
        arcs = [Transition(q, a, 0.5, q + 1) for q in range(horizon - 1)]
        return Wfa(alphabet, horizon, 0, {horizon - 1: 1.0},
                   arcs + [Transition(horizon - 1, b, 0.5, horizon - 1)])
    if case == "dead_loop":
        return Wfa(alphabet, 2, 0, {1: 1.0}, [Transition(0, a, 0.5, 0), Transition(0, b, 0.5, 0)])
    if case == "phi_shift":
        return PhiWfa(alphabet, 3, 0, {1: 0.5},
                      [Transition(0, PHI, 0.5, 1), Transition(1, b, 0.5, 0),
                       Transition(1, PHI, 0.5, 2), Transition(2, a, 0.5, 2),
                       Transition(2, b, 0.0, 0)])
    return competitor(rng, case, alphabet)


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, alphabet=ALPHABETS,
       case=st.sampled_from(PLAIN_FAMILIES + PHI_FAMILIES + LONG_CASES),
       horizon=st.integers(1, 40))
@example(seed=0, alphabet=default_alphabet(3), case="alternating", horizon=40)
@example(seed=3, alphabet=default_alphabet(3), case="late_kshift", horizon=40)
@example(seed=0, alphabet=default_alphabet(30), case="last_repeat", horizon=40)
@example(seed=0, alphabet=default_alphabet(3), case="dead_loop", horizon=40)
@example(seed=0, alphabet=default_alphabet(3), case="phi_shift", horizon=40)
def test_unroll_matches_the_product_search_at_long_horizons(seed, alphabet, case, horizon):
    # Long enough for the unroll to copy a settled level to the horizon and
    # for the trim to reach its fixed point on it.
    rng = np.random.default_rng(seed)
    machine = long_competitor(rng, case, alphabet, horizon)
    try:
        want = oracles.horizon_product(machine, horizon)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            hedge.horizon_product(machine, horizon)
        return
    got = hedge.horizon_product(machine, horizon)
    want = oracles.level_numbered(want)
    want.compiled = oracles.compile_product(want, horizon)
    if not isinstance(want, PhiWfa):
        assert_same_machine(got, want)
    pairs = [name[:2] for name in want.state_names]
    if len(set(pairs)) == len(pairs):
        assert_same_compiled(got.compiled, want.compiled)
    else:  # a filter split, which the unroll merges into one state
        assert [name[:2] for name in got.state_names] == list(dict.fromkeys(pairs))
        assert_levels_increase(got)
        assert got.compiled.count_paths() == want.compiled.count_paths()
        assert got.compiled.log_Z == pytest.approx(want.compiled.log_Z, rel=0, abs=1e-12)


def forward_steps(monkeypatch, machine, horizon):
    """The levels whose arcs the unroll gathered: the _ranges calls of one
    horizon_product, less the one that lays a phi product's corrections."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _ranges(*args)

    monkeypatch.setattr(hedge, "_ranges", counted)
    product = hedge.horizon_product(machine, horizon)
    monkeypatch.undo()
    return len(calls) - isinstance(product, PhiWfa)


def test_the_unroll_computes_only_the_levels_that_change(monkeypatch):
    # A settled level is copied to the horizon, so the work of the forward
    # loop does not grow with it; levels that never repeat each cost a step.
    # A level settles as soon as the next one holds the same competitor
    # states, whatever paths reach them.
    for build, horizon, gathered in ((lambda t: exact_shift_automaton(10, 5), 200, 7),
                                     (lambda t: bigram_phi_machine(fixed_share_bigram(30, 3, t)),
                                      300, 2)):
        steps = [forward_steps(monkeypatch, build(t), t) for t in (horizon, 2 * horizon)]
        assert steps == [gathered] * 2, steps
    alphabet = default_alphabet(3)
    assert forward_steps(monkeypatch, long_competitor(None, "phi_shift", alphabet, 0), 40) == 1
    alternating = long_competitor(None, "alternating", alphabet, 0)
    assert forward_steps(monkeypatch, alternating, 40) == 40


def test_the_phi_depths_are_swept_once_per_product(monkeypatch):
    # The product's check sweeps its phi depths and the compile reads that
    # array; a plain product has none to sweep.  Counted wherever the
    # sweep is bound, so that a second binding is counted too.
    calls, sweep = [], phi._phi_chain_depth

    def counted(*args):
        calls.append(None)
        return sweep(*args)

    for module in (phi, hedge):
        if hasattr(module, "_phi_chain_depth"):
            monkeypatch.setattr(module, "_phi_chain_depth", counted)
    for competitor, sweeps in ((bigram_phi_machine(fixed_share_bigram(4, 2, 6)), 1),
                               (exact_shift_automaton(3, 2), 0)):
        calls.clear()
        product = hedge.horizon_product(competitor, 6)
        assert len(calls) == sweeps
        depth = product.compiled.phi_depth
        assert depth.dtype == np.intp and len(depth) == product.num_states
        if sweeps:
            assert depth is product._phi_depth and depth.max() == product.max_phi_chain_depth()
        else:
            assert not depth.any()


def run_distributions(state, losses):
    ps = [state.p_current]
    for loss in losses[:-1]:
        ps.append(hedge_step(state, loss))
    return np.array(ps)


def expected_distributions(machine, horizon, eta, losses):
    """p_t by enumeration over the expansion of the phi product search."""
    product = phi_intersect(machine, length_automaton(len(machine.alphabet), horizon,
                                                      alphabet=machine.alphabet))
    support = enumerate_support(phi_expand(product))
    return product, support, oracles.brute_distributions(support, eta, losses, machine.alphabet)


def test_a_trimmed_direct_edge_keeps_its_state_off_the_chain():
    # State 1 reads 'a' into state 3, which has no completion after two
    # symbols, so the product trims that edge at level 1; 1's phi chain
    # reads 'a' into a live state, and the unroll must not use it there:
    # state 1 still reads 'a' directly, so 'a' is unreadable after one
    # symbol.
    ts = [Transition(0, "a", 0.5, 1), Transition(0, "b", 0.5, 1),
          Transition(1, "a", 0.25, 3), Transition(1, PHI, 0.5, 2),
          Transition(2, "a", 0.5, 4), Transition(2, "b", 0.25, 4),
          Transition(3, "b", 1.0, 4), Transition(4, "a", 1.0, 5), Transition(4, "b", 0.5, 5)]
    machine = PhiWfa(("a", "b"), 6, 0, {4: 1.0, 5: 1.0}, ts)
    horizon, eta = 2, 0.8
    losses = np.array([[0.2, 0.7], [0.9, 0.1]])
    product, support, want = expected_distributions(machine, horizon, eta, losses)
    assert dict(support) == {("a", "b"): 0.0625, ("b", "b"): 0.0625}
    state = hedge_init(machine, horizon, eta)
    assert state.K == 2 == count_accepting_paths(phi_expand(product))
    assert np.abs(run_distributions(state, losses) - np.array(want)).max() <= 1e-12
    assert dict(enumerate_support(phi_expand(state.machine))) == dict(support)
    # The level-1 copy of state 1 reads 'a' directly but has no 'a' edge.
    one = [q for q, name in enumerate(state.machine.state_names) if name[:2] == (1, 1)]
    assert len(one) == 1
    assert oracles.reads_directly(state.machine, one[0], "a") and "a" not in state.machine.arcs(one[0])


def test_a_filter_split_plays_as_the_product_search():
    # In this draw phi_intersect keeps a competitor state apart at one
    # level as reached by an arc and as reached by a phi edge (filter
    # states 0 and 2); the engine plays the same distributions.
    machine, acceptor = phi_product_pair(3, default_alphabet(3), ("chain", "length"), 5)
    horizon, eta = 5, 0.6
    names = phi_intersect(machine, acceptor).state_names
    assert len({name[:2] for name in names}) < len(names)
    losses = np.random.default_rng(0).random((horizon, 3))
    product, support, want = expected_distributions(machine, horizon, eta, losses)
    state = hedge_init(machine, horizon, eta)
    assert state.K == len(support) == count_accepting_paths(phi_expand(product)) > 0
    log_z = math.log(sum(w for _, w in support))
    assert state.log_Z == pytest.approx(log_z, rel=0, abs=1e-12)
    assert np.abs(run_distributions(state, losses) - np.array(want)).max() <= 1e-12


# -- the fits' (state, context) products -------------------------------------------------


FIT_FAMILIES = ["kshift", "weighted", "trie", "layered"]


def fit_product(rng, family):
    """A horizon product of one of the fits' test families, None when the
    drawn machine has no sequence of the drawn length."""
    horizon = int(rng.integers(1, 9))
    if family == "kshift":
        machine = exact_shift_automaton(int(rng.integers(2, 5)), int(rng.integers(0, horizon)))
    elif family == "weighted":
        n = int(rng.integers(2, 5))
        machine = weighted_shift_automaton(rng.random((n, n)), rng.random(n))
    elif family == "trie":
        machine = oracles.random_leveled_wfa(rng, horizon, ("a", "b", "c"),
                                             support_size=int(rng.integers(1, 12)))
    else:
        machine = oracles.random_layered_wfa(rng, [1] + [int(rng.integers(2, 5))] * horizon,
                                             final_prob=0.6)
    try:
        return hedge.horizon_product(machine, horizon)
    except ValueError:
        return None


def uncompiled(machine):
    """A copy of a plain length-T machine without its compiled arrays:
    the path sums sweep its Kahn plan."""
    return Wfa.from_columns(machine.alphabet, machine.num_states, machine.initial,
                            machine.finals, *machine.columns, machine.state_names)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, order=st.integers(1, 4), family=st.sampled_from(FIT_FAMILIES))
def test_context_products_compile_level_by_level(seed, order, family):
    # The intersection's search numbers the (state, context) pairs level
    # by level and lists the edges by source, so the level offsets come
    # from the horizon product's levels alone; the compiled count and
    # log Z agree with the Kahn sweeps of an uncompiled copy.
    ct = fit_product(np.random.default_rng(seed), family)
    if ct is None:
        return
    horizon = ct.compiled.horizon
    product, cell = _context_product(ct, order)
    c, cm = product.columns, product.compiled
    level = np.array([ct.state_names[q][1] for q, _ in product.state_names], np.intp)
    assert (np.diff(level) >= 0).all() and (np.diff(c.src) >= 0).all()
    assert (level[c.dst] == level[c.src] + 1).all()
    assert cm.horizon == horizon
    assert cm.state_off.tolist() == np.searchsorted(level, np.arange(horizon + 2)).tolist()
    assert cm.level.tolist() == level.tolist()
    ref = uncompiled(product)
    assert cm.num_paths == count_accepting_paths(ref)
    want = log_power_sum(ref, 1.0)
    assert cm.log_Z == want or cm.log_Z == pytest.approx(want, rel=1e-12)
    n = len(ct.alphabet)
    contexts = np.array([ctx for _, ctx in product.state_names], np.intp)
    assert cell.tolist() == (contexts[c.src] * n + c.label).tolist()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, order=st.integers(0, 3), family=st.sampled_from(FIT_FAMILIES))
def test_path_sums_on_compiled_levels_match_the_kahn_plan(seed, order, family):
    # A trim product whose edges each step one level on has its levels
    # as its Kahn generations, and each state's terms are summed in the
    # same column order either way: every plain path sum on a horizon
    # product (order 0) or a context product reads the compiled levels
    # and equals the Kahn sweep of an uncompiled copy bit for bit.
    ct = fit_product(np.random.default_rng(seed), family)
    if ct is None:
        return
    machine = ct if order == 0 else _context_product(ct, order)[0]
    ref = uncompiled(machine)
    assert count_accepting_paths(machine) == count_accepting_paths(ref)
    for eta in (0.3, 0.5, 1.0, 2.0, 2.5):
        assert np.array_equal(log_power_sum(machine, eta), log_power_sum(ref, eta))
    a, b = backward_distances(machine), backward_distances(ref)
    assert a.keys() == b.keys() and np.array_equal(list(a.values()), list(b.values()))
    if count_accepting_paths(ref):
        a, b = weight_push(machine), weight_push(ref)
        assert (a.num_states, a.initial, a.finals) == (b.num_states, b.initial, b.finals)
        assert all(np.array_equal(x, y) for x, y in zip(a.columns, b.columns))
        for x, y in zip(oracles._edge_marginals(machine), oracles._edge_marginals(ref)):
            assert np.array_equal(x, y)
    assert machine._topo is None and ref._topo is not None


def check_posteriors(machine, limit=20_000):
    """The compiled posteriors of a plain length-T machine against the
    log-domain oracle and, below ``limit`` paths, the enumeration, within
    1e-12; each level's edge posteriors and the end posteriors sum to 1."""
    cm = machine.compiled
    try:
        want = oracles.enumerated_posteriors(machine, limit)
    except ValueError as exc:  # past the limit: the log-domain oracle alone
        assert "support larger than limit" in str(exc)
        want = None
    if want is not None and not want[1].any():
        for posteriors in (cm.posteriors, lambda: oracles._edge_marginals(machine)):
            with pytest.raises(ValueError, match="empty language"):
                posteriors()
        return
    edge, end = cm.posteriors()
    lo = cm.state_off[-2]
    for ref in [oracles._edge_marginals(machine)[:2]] + ([want] if want else []):
        assert np.abs(edge - ref[0]).max() <= 1e-12  # a plain machine's edge e is transition e
        assert np.abs(end - ref[1][lo:]).max() <= 1e-12 and not ref[1][:lo].any()
    assert np.abs(np.bincount(cm.level[cm.src], edge) - 1.0).max() <= 1e-12
    assert abs(end.sum() - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, order=st.integers(0, 3), family=st.sampled_from(FIT_FAMILIES))
def test_posteriors_match_the_log_domain_sweep_and_the_enumeration(seed, order, family):
    # The engine's scaled forward-backward posteriors, which ML counts,
    # KL and the Shannon limit read, on a horizon product (order 0) and
    # on its context products.
    ct = fit_product(np.random.default_rng(seed), family)
    if ct is None:
        return
    check_posteriors(ct if order == 0 else _context_product(ct, order)[0])


def test_the_shannon_limit_of_a_phi_product_names_the_plain_product():
    # Renyi entropies at eta != 1 read the compiled arrays of a phi
    # product; the Shannon limit takes edge posteriors, which a phi edge
    # does not have, and the tuner's bracket starts there.
    machine = bigram_phi_machine(fixed_share_bigram(3, 1, 6))
    p = hedge.horizon_product(machine, 6)
    for call in (lambda: renyi_entropy_machine(p, 1.0), lambda: tune_eta_renyi(p, 6)):
        with pytest.raises(ValueError, match=r"eta = 1 limit needs a plain product; "
                                             r"take horizon_product\(phi_expand\(machine\), T\)"):
            call()
    plain = hedge.horizon_product(phi_expand(machine), 6)
    assert renyi_entropy_machine(p, 0.5) == renyi_entropy_machine(plain, 0.5)
    assert renyi_entropy_machine(p, 0.5) == pytest.approx(5.330894499492764, rel=1e-12)
    assert tune_eta_renyi(plain, 6) > 0


def _plain_length_3():
    return intersect(exact_shift_automaton(2, 1), length_automaton(2, 3))


LENGTH_T_FUNCTIONS = {
    "leveled_best_path": lambda m: leveled_best_path(m, np.zeros(len(m.columns.src))),
    "levels": levels,
    "log_weight_range": log_weight_range,
    "best_competitor": lambda m: best_competitor(m, np.zeros((3, 2)), True),
    "weighted_regret": lambda m: weighted_regret([np.full(2, 0.5)] * 3, np.zeros((3, 2)), m),
    "unweighted_regret": lambda m: unweighted_regret([np.full(2, 0.5)] * 3, np.zeros((3, 2)), m),
    "sleeping_regret": lambda m: sleeping_regret([np.ones(2, bool)] * 3, [np.full(2, 0.5)] * 3,
                                                 np.zeros((3, 2)), m, {("a", "a", "b"): 1.0}, 0.5),
    "worst_comparator": lambda m: worst_comparator([np.ones(2, bool)] * 3,
                                                   [np.full(2, 0.5)] * 3, np.zeros((3, 2)), m,
                                                   0.5),
    "tune_eta_renyi": lambda m: tune_eta_renyi(m, 3),
    "renyi_entropy_machine": lambda m: renyi_entropy_machine(m, 0.5),
    "divergence_inf": lambda m: divergence_inf(m, uniform_model(m.alphabet, 1)),
    "kl_divergence": lambda m: kl_divergence(m, uniform_model(m.alphabet, 1)),
    "ml_ngram": lambda m: ml_ngram(m, 2),
    "prod_eg": lambda m: prod_eg(m, 1, 2),
    "select_order": lambda m: select_order(m, 2, 16),
    "minimax_unigram": minimax_unigram,
}


@pytest.mark.parametrize("name", sorted(LENGTH_T_FUNCTIONS))
def test_length_t_functions_take_horizon_products_only(name):
    # A plain length-3 intersection is refused with the constructor's
    # name; its horizon product, the same language, is read.
    with pytest.raises(ValueError, match=r"^length-T machines are horizon_product\(machine, T\) "
                                         r"outputs$"):
        LENGTH_T_FUNCTIONS[name](_plain_length_3())
    LENGTH_T_FUNCTIONS[name](hedge.horizon_product(exact_shift_automaton(2, 1), 3))
