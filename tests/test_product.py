"""The array product construction and topological generations against
the per-edge reference implementations in ``oracles``.

``intersect`` must reproduce the queue-based construction field by
field (state numbering, transition order, finals, state names), and
``topological_order`` / ``count_accepting_paths`` the FIFO Kahn sort, on
machines with dead and unreachable states, cycles, empty products,
alphabets past 26 symbols (where sorted label order differs from
alphabet order) and duplicated labels.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.hedge import hedge_init
from wfa_hedge.wfa import (CyclicAutomatonError, Transition, count_accepting_paths,
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


def test_hedge_init_on_a_plain_machine_builds_no_transition_objects(monkeypatch):
    machine = exact_shift_automaton(5, 2)
    built = []
    init = Transition.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transition, "__init__", counted)
    state = hedge_init(machine, 40, 0.5)
    assert built == []
    # The per-edge view is still there on request.
    assert len(state.machine.transitions) == len(built) == len(state.machine.columns.src)
