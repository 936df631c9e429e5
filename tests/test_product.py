"""The array product constructions, topological generations and the
engine's shadow corrections against the per-edge reference
implementations in ``oracles``.

``intersect`` and ``phi_intersect`` must reproduce the queue-based
constructions field by field (state numbering, transition order, finals,
state names, and for phi products the per-state label sets and phi move
kinds), and ``topological_order`` / ``count_accepting_paths`` the FIFO
Kahn sort, on machines with dead and unreachable states, cycles, empty
products, alphabets past 26 symbols (where sorted label order differs
from alphabet order) and duplicated labels.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from wfa_hedge import hedge
from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.hedge import CompiledMachine, hedge_init
from wfa_hedge.ngram import bigram_phi_machine, fixed_share_bigram
from wfa_hedge.phi import phi_convert, phi_intersect
from wfa_hedge.wfa import (CyclicAutomatonError, count_accepting_paths,
                           default_alphabet, intersect, topological_order)

import oracles

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


# -- phi products --------------------------------------------------------------------


def assert_same_phi_machine(got, want):
    assert_same_machine(got, want)
    assert got.pair_labels == want.pair_labels
    assert got.phi_moves == want.phi_moves
    if got.phi_moves is not None:
        assert list(got.phi_moves) == list(want.phi_moves)  # in edge order


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


def reference_shadow_corrections(machine):
    rows = oracles.shadow_rows(machine)
    own, shadowed, chain_w = zip(*rows) if rows else ((), (), ())
    return (np.array(own, np.intp), np.array(shadowed, np.intp),
            np.array(chain_w, dtype=float))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, size=st.integers(2, 10), horizon=st.integers(1, 6))
def test_compiled_corrections_match_shadowed_continuation(seed, size, horizon):
    rng = np.random.default_rng(seed)
    alphabet = default_alphabet(3)
    machine = oracles.random_phi_wfa(rng, size, alphabet, edge_prob=0.7, phi_prob=0.7,
                                     final_prob=0.5, cyclic=True)
    product = phi_intersect(machine, length_automaton(3, horizon, alphabet=alphabet))
    got = CompiledMachine(product, horizon)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hedge, "_shadow_corrections", reference_shadow_corrections)
        want = CompiledMachine(product, horizon)
    for name in ("src", "dst", "tid", "coef", "label", "edge_off", "real_end"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
