"""Property tests: the compiled engine against path enumeration.

Each example draws a seed, builds a small random machine from it and
holds the engine's per-round distributions to the brute-force oracles.
Example counts are bounded so the module runs in a few seconds.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wfa_hedge.builders import length_automaton
from wfa_hedge.hedge import hedge_init, hedge_step
from wfa_hedge.ngram import NGramModel, bigram_phi_machine, ngram_to_wfa
from wfa_hedge.phi import phi_convert, phi_expand
from wfa_hedge.sleeping import awake_distribution, awake_init, awake_step
from wfa_hedge.wfa import enumerate_support, intersect

import oracles

SEEDS = st.integers(0, 2**32 - 1)
ETAS = st.floats(0.05, 3.0)
TOL = 1e-9


def engine_distributions(machine, horizon, eta, losses):
    state = hedge_init(machine, horizon, eta)
    ps = [state.p_current]
    for loss in losses:
        p = hedge_step(state, loss)
        if p is not None:
            ps.append(p)
    return ps


def horizon_support(machine, horizon):
    return enumerate_support(intersect(machine, length_automaton(
        len(machine.alphabet), horizon, alphabet=machine.alphabet)))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, horizon=st.integers(1, 5), size=st.integers(1, 12), eta=ETAS)
def test_engine_matches_enumeration_on_random_leveled_machines(seed, horizon, size, eta):
    rng = np.random.default_rng(seed)
    machine = oracles.random_leveled_wfa(rng, horizon, alphabet=("a", "b", "c"),
                                         support_size=size)
    losses = rng.random((horizon, 3))
    want = oracles.brute_distributions(horizon_support(machine, horizon), eta, losses,
                                       machine.alphabet)
    got = engine_distributions(machine, horizon, eta, losses)
    assert np.abs(np.array(got) - np.array(want)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, eta=ETAS)
def test_engine_matches_enumeration_on_random_weighted_machines(seed, eta):
    rng = np.random.default_rng(seed)
    machine = oracles.random_acyclic_wfa(rng, 7)
    lengths = sorted({len(s) for s, _ in enumerate_support(machine)} - {0})
    assume(lengths)
    horizon = lengths[int(rng.integers(len(lengths)))]
    losses = rng.random((horizon, 3))
    want = oracles.brute_distributions(horizon_support(machine, horizon), eta, losses,
                                       machine.alphabet)
    got = engine_distributions(machine, horizon, eta, losses)
    assert np.abs(np.array(got) - np.array(want)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, depth=st.integers(2, 4), eta=ETAS)
def test_phi_engine_matches_enumeration_on_converted_machines(seed, depth, eta):
    rng = np.random.default_rng(seed)
    layers = tuple([1] + [int(rng.integers(2, 5)) for _ in range(depth)] + [1])
    plain = oracles.random_shared_structure_wfa(rng, layers=layers)
    assume(plain is not None)
    converted = phi_convert(plain)
    assume(converted.has_phi())
    lengths = sorted({len(s) for s, _ in enumerate_support(plain)} - {0})
    horizon = lengths[int(rng.integers(len(lengths)))]
    losses = rng.random((horizon, 3))
    want = oracles.brute_distributions(horizon_support(plain, horizon), eta, losses,
                                       plain.alphabet)
    got = engine_distributions(converted, horizon, eta, losses)
    assert np.abs(np.array(got) - np.array(want)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 4), horizon=st.integers(1, 5), eta=ETAS)
def test_phi_engine_matches_enumeration_on_shared_shift_bigrams(seed, n, horizon, eta):
    # every stay loop shadows the hub's edge for the same expert, so
    # each level carries negative correction edges
    rng = np.random.default_rng(seed)
    alphabet = tuple("abcd"[:n])
    shift = rng.uniform(0.01, 1.0 / n, size=n)
    tables = {(): rng.dirichlet(np.ones(n))}
    for i, a in enumerate(alphabet):
        row = shift.copy()
        row[i] = 1.0 - (shift.sum() - shift[i])
        tables[(a,)] = row
    model = NGramModel(alphabet, 2, tables)
    losses = rng.random((horizon, n))
    want = oracles.brute_distributions(horizon_support(ngram_to_wfa(model), horizon), eta,
                                       losses, alphabet)
    got = engine_distributions(bigram_phi_machine(model), horizon, eta, losses)
    assert np.abs(np.array(got) - np.array(want)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, size=st.integers(2, 9), horizon=st.integers(1, 4), eta=ETAS)
def test_phi_engine_matches_enumeration_on_random_chain_machines(seed, size, horizon, eta):
    # direct edges shadow edges at any depth of a phi chain, and weights
    # (phi weights included) are arbitrary
    rng = np.random.default_rng(seed)
    machine = oracles.random_phi_wfa(rng, size, ("a", "b", "c"), edge_prob=0.7, phi_prob=0.7,
                                     final_prob=0.5, cyclic=True)
    support = horizon_support(phi_expand(machine), horizon)
    assume(support)
    losses = rng.random((horizon, 3))
    want = oracles.brute_distributions(support, eta, losses, machine.alphabet)
    got = engine_distributions(machine, horizon, eta, losses)
    assert np.abs(np.array(got) - np.array(want)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, horizon=st.integers(1, 5), size=st.integers(1, 12), eta=ETAS,
       density=st.floats(0.1, 1.0))
def test_sleeping_engine_matches_path_simulation(seed, horizon, size, eta, density):
    rng = np.random.default_rng(seed)
    machine = oracles.random_leveled_wfa(rng, horizon, alphabet=("a", "b", "c"),
                                         support_size=size)
    support = horizon_support(machine, horizon)
    sym = {a: i for i, a in enumerate(machine.alphabet)}
    masks, losses = [], []
    for t in range(horizon):
        mask = rng.random(3) < density
        # keep one expert awake that some supported path plays at t
        mask[sym[support[int(rng.integers(len(support)))][0][t]]] = True
        masks.append(mask)
        losses.append(rng.random(3) * mask)
    want, _ = oracles.brute_awake_run(support, eta, machine.alphabet, masks, losses)
    state = awake_init(machine, horizon, eta)
    for t in range(horizon):
        assert np.abs(awake_distribution(state, masks[t]) - want[t]).max() <= TOL
        awake_step(state, masks[t], losses[t])
