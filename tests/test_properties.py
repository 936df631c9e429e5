"""Property tests: the compiled engine against path enumeration, and the
array sweeps and lookups against the per-edge walks they replaced.

Each example draws a seed, builds a small random machine from it and
holds the engine's per-round distributions, best paths and worst-case
values to the reference implementations in ``oracles``.  Example counts
are bounded so the module runs in a few seconds.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wfa_hedge import hedge, phi
from wfa_hedge.approx import _ProdEGRun, divergence_inf, kl_divergence, select_order
from wfa_hedge.builders import exact_shift_automaton, length_automaton
from wfa_hedge.hedge import (hedge_init, hedge_step, horizon_product, log_power_sum,
                             renyi_entropy_machine, shannon_entropy, summarize, tune_eta_renyi)
from wfa_hedge.ngram import (NGramModel, _context_product, bigram_phi_machine, ml_ngram,
                             ngram_to_wfa)
from wfa_hedge.phi import (PhiWfa, phi_backward_distances, phi_convert, phi_expand,
                           phi_intersect, power_weights_phi, weight_push_phi)
from wfa_hedge.sleeping import (awake_distribution, awake_init, awake_step,
                                sleeping_regret, worst_comparator)
from wfa_hedge.wfa import (CyclicAutomatonError, Wfa, backward_distances, enumerate_support,
                           evaluate, exact_logs, intersect, leveled_best_path, levels,
                           power_weights, weight_push)

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


def played_support(machine, horizon):
    """horizon_support of a plain machine or of a phi machine's expansion."""
    return horizon_support(phi_expand(machine) if isinstance(machine, PhiWfa) else machine,
                           horizon)


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


def converted_case(rng, depth):
    """A layered machine with shared structure, its phi_convert output
    (which has phi edges), and a horizon at which it has sequences."""
    layers = tuple([1] + [int(rng.integers(2, 5)) for _ in range(depth)] + [1])
    plain = oracles.random_shared_structure_wfa(rng, layers=layers)
    assume(plain is not None)
    converted = phi_convert(plain)
    assume(converted.has_phi())
    lengths = sorted({len(s) for s, _ in enumerate_support(plain)} - {0})
    return plain, converted, lengths[int(rng.integers(len(lengths)))]


def shared_shift_bigram(rng, alphabet):
    """A bigram whose rows share one shift weight per target expert, so
    every stay loop of its phi form shadows the hub's edge."""
    n = len(alphabet)
    shift = rng.uniform(0.01, 1.0 / n, size=n)
    tables = {(): rng.dirichlet(np.ones(n))}
    for i, a in enumerate(alphabet):
        row = shift.copy()
        row[i] = 1.0 - (shift.sum() - shift[i])
        tables[(a,)] = row
    return NGramModel(alphabet, 2, tables)


def random_chain_machine(rng, size):
    """A chain-style phi machine whose direct edges shadow edges at any
    depth of a phi chain, with arbitrary weights."""
    return oracles.random_phi_wfa(rng, size, ("a", "b", "c"), edge_prob=0.7, phi_prob=0.7,
                                  final_prob=0.5, cyclic=True)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, depth=st.integers(2, 4), eta=ETAS)
def test_phi_engine_matches_enumeration_on_converted_machines(seed, depth, eta):
    rng = np.random.default_rng(seed)
    plain, converted, horizon = converted_case(rng, depth)
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
    model = shared_shift_bigram(rng, alphabet)
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
    machine = random_chain_machine(rng, size)
    support = horizon_support(phi_expand(machine), horizon)
    assume(support)
    losses = rng.random((horizon, 3))
    want = oracles.brute_distributions(support, eta, losses, machine.alphabet)
    got = engine_distributions(machine, horizon, eta, losses)
    assert np.abs(np.array(got) - np.array(want)).max() <= TOL


FORMS = st.sampled_from(["leveled", "converted", "bigram", "chain"])


def drawn_machine(rng, form, horizon, size):
    """A plain leveled machine, or one of the three phi families of the
    engine tests above, and the horizon to play it at (a converted
    machine brings its own)."""
    if form == "leveled":
        machine = oracles.random_leveled_wfa(rng, horizon, alphabet=("a", "b", "c"),
                                             support_size=size)
    elif form == "converted":
        _, machine, horizon = converted_case(rng, 2 + size % 3)
    elif form == "bigram":
        machine = bigram_phi_machine(shared_shift_bigram(rng, ("a", "b", "c")))
    else:
        machine = random_chain_machine(rng, 2 + size % 8)
    return machine, horizon


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, form=FORMS, horizon=st.integers(1, 5), size=st.integers(1, 12), eta=ETAS,
       density=st.floats(0.1, 1.0))
def test_sleeping_engine_matches_path_simulation(seed, form, horizon, size, eta, density):
    # Plain leveled machines and the three phi families of the engine
    # tests above, each against the paths of its expansion.
    rng = np.random.default_rng(seed)
    machine, horizon = drawn_machine(rng, form, horizon, size)
    support = played_support(machine, horizon)
    assume(support)
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


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, form=FORMS, horizon=st.integers(1, 80), size=st.integers(1, 12))
def test_int64_count_and_log_count_match_the_python_int_count(seed, form, horizon, size):
    # Up to 3^80 sequences, so both sides of the int64 range: the count
    # is the reference's whenever it is an int, and an int wherever no
    # partial sum of a state's count, corrections included, can pass
    # 2^62; log K agrees with it everywhere, and the count along one
    # sequence says whether it is supported (a leveled machine keeps its
    # own short horizon).
    rng = np.random.default_rng(seed)
    machine, horizon = drawn_machine(rng, form, horizon, size)
    try:
        product = horizon_product(machine, horizon)
    except ValueError:  # no sequence of this length
        assume(False)
    cm = product.compiled
    want = oracles.compiled_count(cm)
    got = cm.num_paths
    assert got is None or got == want
    if oracles.compiled_term_bound(cm) < 2 ** 62:
        assert got == want
    if want:
        assert cm.log_K == pytest.approx(math.log(want), rel=1e-12)
    else:
        assert cm.log_K == -math.inf
    labels = rng.integers(-1, 3, horizon)
    assert cm.count_paths(labels) == oracles.compiled_count(cm, labels)
    if want:
        sym = {a: i for i, a in enumerate(machine.alphabet)}
        seq = hedge.best_competitor(product, np.zeros((horizon, 3)), weighted=False)[0]
        assert cm.count_paths([sym[a] for a in seq]) == 1


@pytest.mark.parametrize("horizon", [30, 39])
def test_a_shadowing_phi_product_counts_exactly_below_2_62(horizon):
    # Every stay loop shadows the hub's edge, so each correction cancels
    # a continuation as large as itself; the count is still exact while
    # K = 3^T stays below 2^62.
    machine = bigram_phi_machine(shared_shift_bigram(np.random.default_rng(0), ("a", "b", "c")))
    assert horizon_product(machine, horizon).compiled.num_paths == 3 ** horizon


def same_report_or_float_tie(got, want, support, alphabet):
    """Every field of the compiled report equals the expansion-based one:
    K exactly, floats within 1e-12.  The best sequence may differ only
    on a float tie, which the enumerated support shows: both sequences
    score the same log-weight minus loss within 1e-12, as log phi + log w
    and log(phi w) differ in the last bits."""
    assert got.num_sequences == want.num_sequences
    for name in ("cumulative_loss", "best_sequence_loss", "weighted_regret", "unweighted_regret",
                 "weighted_bound", "weighted_bound_loose", "unweighted_bound"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
    assert (got.p_rounds, got.losses, got.expected_losses) == (
        want.p_rounds, want.losses, want.expected_losses)
    if got.best_sequence != want.best_sequence:
        sym = {a: i for i, a in enumerate(alphabet)}
        weight = dict(support)

        def score(seq):
            return math.log(weight[seq]) - sum(got.losses[t][sym[a]] for t, a in enumerate(seq))

        assert abs(score(got.best_sequence) - score(want.best_sequence)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, form=FORMS, horizon=st.integers(1, 5), size=st.integers(1, 12), eta=ETAS,
       binary=st.booleans())
def test_compiled_report_matches_the_expansion_report(seed, form, horizon, size, eta, binary):
    # Losses in {0, 1} make ties between paths common.
    rng = np.random.default_rng(seed)
    machine, horizon = drawn_machine(rng, form, horizon, size)
    support = played_support(machine, horizon)
    assume(support)
    state = hedge_init(machine, horizon, eta)
    for _ in range(horizon):
        hedge_step(state, rng.integers(0, 2, 3).astype(float) if binary else rng.random(3))
    same_report_or_float_tie(summarize(state), oracles.summarize(state), support,
                             machine.alphabet)


def test_report_draws_cover_hubs_deep_chains_zero_weights_and_corrections():
    hubs = deep = zero = rows = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        machine, horizon = drawn_machine(rng, ("bigram", "chain")[seed % 2],
                                         int(rng.integers(1, 6)), int(rng.integers(1, 13)))
        if not horizon_support(phi_expand(machine), horizon):
            continue
        cm = hedge_init(machine, horizon, 1.0).compiled
        on = cm.weight[cm.ptid] > 0
        hubs += bool((np.bincount(cm.pdst[on]) > 1).any())  # several phi-parents
        deep += bool(np.isin(cm.pdst, cm.psrc).any())  # a chain of two phi edges
        zero += bool((cm.weight == 0).any())
        rows += bool((cm.coef < 0).any())
    assert min(hubs, deep, zero, rows) >= 3


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, horizon=st.integers(1, 6), size=st.integers(1, 14),
       final_prob=st.floats(0.0, 1.0))
def test_compiled_best_path_equals_the_plan_sweep_on_plain_products(seed, horizon, size,
                                                                    final_prob):
    # Zero-weight edges and finals, dead states, and ties from gains in
    # {-1, 0, 1}: values, sequences and witnesses agree in float hex with
    # the frontier sweep, which reads no plan.
    rng = np.random.default_rng(seed)
    machine = oracles.random_leveled_wfa(rng, horizon, alphabet=("a", "b", "c"),
                                         support_size=size)
    c = machine.columns
    weight = np.where(rng.random(len(c.weight)) < 0.2, 0.0, c.weight)
    finals = {q: (0.0 if rng.random() < 1 - final_prob else w) for q, w in machine.finals.items()}
    machine = Wfa.from_columns(machine.alphabet, machine.num_states, machine.initial,
                               finals, c.src, c.label, weight, c.dst)
    try:
        product = horizon_product(machine, horizon)
        played = hedge_init(machine, horizon, 1.0).machine
    except ValueError:
        return
    pc, level = product.columns, levels(product)
    log_w, log_f = exact_logs(pc.weight), exact_logs(
        [product.final_weight(q) for q in range(product.num_states)])
    for gain in (np.zeros((horizon, 3)), rng.integers(-1, 2, (horizon, 3)).astype(float),
                 rng.random((horizon, 3))):
        score = gain[level[pc.src], pc.label]
        for weighted in (False, True):
            column = log_w + score if weighted else score
            want = oracles.frontier_best_path(product, lambda lv, e: column[e],
                                              (lambda q: log_f[q]) if weighted else None)
            got = leveled_best_path(played, hedge._path_scores(played, gain, weighted),
                                    log_f if weighted else None)
            assert got.value.hex() == want.value.hex()
            assert got.sequence == want.sequence
            assert got.edges.tolist() == want.edges.tolist()
            assert played.columns.weight[got.edges].tolist() == pc.weight[want.edges].tolist()


LAYERS = st.lists(st.integers(2, 5), min_size=1, max_size=7).map(lambda ls: [1] + ls)


def length_products(machine, longest):
    """The machine's horizon products of lengths 1..``longest`` that have
    a sequence: the best-path sweep reads products, whose paths all end
    at level T."""
    for horizon in range(1, longest + 1):
        try:
            yield horizon_product(machine, horizon)
        except ValueError:  # no sequence of this length
            continue


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, layers=LAYERS, weighted=st.booleans(), maximize=st.booleans())
def test_best_path_sweep_matches_dict_walk(seed, layers, weighted, maximize):
    # Scores in {-1, 0, 1} (all 0 in the first draw) make exact ties
    # common where paths merge.  Finals sit at every depth of the drawn
    # machine, and each length gets its product, so both tie-break rules
    # decide results.
    rng = np.random.default_rng(seed)
    drawn = oracles.random_layered_wfa(rng, layers, final_prob=0.6)
    for machine in length_products(drawn, len(layers) - 1):
        _best_path_draws_match_dict_walk(rng, machine, weighted, maximize)


def _best_path_draws_match_dict_walk(rng, machine, weighted, maximize):
    c, sym = machine.columns, {a: i for i, a in enumerate(machine.alphabet)}
    log_w = exact_logs(c.weight) if weighted else np.zeros(len(c.weight))
    log_f = exact_logs([machine.final_weight(q) for q in range(machine.num_states)])
    level = levels(machine)
    sign = 1.0 if maximize else -1.0
    for draw in range(4):
        table = draw * rng.integers(-1, 2, (level.max() + 1, machine.num_states, 3)).astype(float)
        bonus = rng.integers(-1, 2, machine.num_states).astype(float)
        score = sign * (table[level[c.src], c.src, c.label] + log_w)
        final_score = sign * (bonus + (log_f if weighted else 0.0))

        def old_score(t, level):
            return table[level, t.src, sym[t.label]] + (math.log(t.weight) if weighted else 0.0)

        def old_final(q):
            return bonus[q] + (math.log(machine.finals[q]) if weighted else 0.0)

        try:
            want = oracles.leveled_best_path(machine, old_score, old_final, maximize=maximize)
        except ValueError:
            with pytest.raises(ValueError, match="no accepting path"):
                leveled_best_path(machine, score, final_score)
            return
        value, seq, edges = leveled_best_path(machine, score, final_score)
        assert (sign * value, seq) == want
        assert np.float64(sign * value).tobytes() == np.float64(want[0]).tobytes()
        assert tuple(machine.alphabet[a] for a in c.label[edges]) == seq
        assert all(c.dst[edges[:-1]] == c.src[edges[1:]])


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, layers=LAYERS, weighted=st.booleans(), maximize=st.booleans(),
       final_prob=st.floats(0.0, 1.0), edge_prob=st.floats(0.2, 1.0))
def test_best_path_plan_sweep_matches_frontier_sweep(seed, layers, weighted, maximize,
                                                     final_prob, edge_prob):
    # Unreachable and dead states, zero-weight edges and finals, finals
    # at every depth of the drawn machine (one product per length), and
    # ties from scores in {-1, 0, 1}; the plan is built once and read by
    # every draw.
    rng = np.random.default_rng(seed)
    drawn = oracles.random_layered_wfa(rng, layers, edge_prob=edge_prob, final_prob=final_prob)
    for machine in length_products(drawn, len(layers) - 1):
        c = machine.columns
        log_w = exact_logs(c.weight) if weighted else np.zeros(len(c.weight))
        level, sign = levels(machine), 1.0 if maximize else -1.0
        for draw in range(4):
            table = draw * rng.integers(-1, 2, (len(layers), machine.num_states, 3)).astype(float)
            bonus = rng.integers(-1, 2, machine.num_states).astype(float)
            score = sign * (table[level[c.src], c.src, c.label] + log_w)
            for column, callback in ((None, None),
                                     (sign * bonus, lambda states: sign * bonus[states])):
                try:
                    want = oracles.frontier_best_path(
                        machine,
                        lambda lv, e: sign * (table[lv, c.src[e], c.label[e]] + log_w[e]),
                        callback)
                except ValueError as err:
                    with pytest.raises(ValueError, match=str(err)):
                        leveled_best_path(machine, score, column)
                    continue
                got = leveled_best_path(machine, score, column)
                assert got.value.hex() == want.value.hex()
                assert got.sequence == want.sequence
                assert got.edges.tolist() == want.edges.tolist()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, size=st.integers(2, 9))
def test_plan_and_frontier_sweeps_agree_on_any_dag(seed, size):
    # Random DAGs are mostly not leveled: the sweep refuses every plain
    # machine, and on each of its horizon products agrees bit for bit
    # with the frontier sweep, under the scores of the arcs they copy.
    rng = np.random.default_rng(seed)
    machine = oracles.random_acyclic_wfa(rng, size, weights="dyadic")
    score = rng.integers(-1, 2, len(machine.columns.src)).astype(float)
    with pytest.raises(ValueError, match=r"horizon_product\(machine, T\)"):
        leveled_best_path(machine, score)
    for product in length_products(machine, size):
        on_product = score[oracles.product_arcs(product, machine)]
        try:
            want = oracles.frontier_best_path(product, lambda lv, e: on_product[e])
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                leveled_best_path(product, on_product)
            continue
        got = leveled_best_path(product, on_product)
        assert (got.value.hex(), got.sequence, got.edges.tolist()) == (
            want.value.hex(), want.sequence, want.edges.tolist())


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, layers=LAYERS, order=st.integers(1, 3), zero_prob=st.floats(0.0, 0.4))
def test_divergence_sweep_matches_dict_walk(seed, layers, order, zero_prob):
    rng = np.random.default_rng(seed)
    drawn = oracles.random_layered_wfa(rng, layers, alphabet=("a", "b", "c"))
    products = list(length_products(drawn, len(layers) - 1))
    assume(products)
    tables = {}
    for ctx in NGramModel._all_contexts(drawn.alphabet, order):
        row = rng.dirichlet(np.ones(3)) * (rng.random(3) >= zero_prob)
        if not row.any():
            row[int(rng.integers(3))] = 1.0
        tables[ctx] = row / row.sum()
    model = NGramModel(drawn.alphabet, order, tables)
    for machine in products:
        try:
            want = oracles.divergence_inf(machine, model)
        except ValueError:
            with pytest.raises(ValueError, match="empty language"):
                divergence_inf(machine, model)
            continue
        got = divergence_inf(machine, model)
        assert got.witness == want.witness
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, form=FORMS, horizon=st.integers(1, 5), size=st.integers(1, 12), eta=ETAS,
       density=st.floats(0.1, 1.0))
def test_worst_comparator_is_the_worst_vertex(seed, form, horizon, size, eta, density):
    # On the run state (its compiled arrays) and on the expansion of its
    # product alike.
    rng = np.random.default_rng(seed)
    machine, horizon = drawn_machine(rng, form, horizon, size)
    assume(played_support(machine, horizon))
    state = awake_init(machine, horizon, eta)
    competitor = oracles.played(state)
    support = enumerate_support(competitor)
    sym = {a: i for i, a in enumerate(machine.alphabet)}
    masks, losses = [], []
    for t in range(horizon):
        mask = rng.random(3) < density
        mask[sym[support[int(rng.integers(len(support)))][0][t]]] = True
        masks.append(mask)
        losses.append(rng.random(3) * mask)
        awake_step(state, mask, losses[-1])
    args = (masks, state.p_awake_history, losses, competitor)
    want = max(v.value - v.bound for v in (sleeping_regret(*args, u, eta)
                                           for u in oracles.vertex_comparators(competitor)))
    for args in (args, args[:3] + (state,)):
        r = sleeping_regret(*args, worst_comparator(*args, eta), eta)
        assert abs((r.value - r.bound) - want) <= 1e-12


# -- phi expansion, log power sums and evaluate against the per-edge walks -------------


def random_phi_machine(rng, form):
    """A chain-style phi machine, a phi_convert output, or the phi product
    of two chain-style machines, whose states can carry several phi
    edges (both, left and right moves)."""
    alphabet = ("a", "b", "c")
    if form == "chain":
        return oracles.random_phi_wfa(rng, int(rng.integers(1, 10)), alphabet, edge_prob=0.6,
                                      phi_prob=0.7, final_prob=0.4,
                                      cyclic=bool(rng.integers(2)))
    if form == "converted":
        layers = tuple([1] + [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))]
                       + [1])
        plain = oracles.random_shared_structure_wfa(rng, layers=layers, alphabet=alphabet)
        if plain is not None:
            return phi_convert(plain)
    return phi_intersect(*(oracles.random_phi_wfa(rng, int(rng.integers(1, 7)), alphabet,
                                                  phi_prob=0.7, final_prob=0.5,
                                                  cyclic=bool(rng.integers(2)))
                           for _ in range(2)))


def expansion_matches_walk(machine):
    """Asserts phi_expand equals the resolve_symbol walk field by field."""
    want = oracles.phi_expand(machine)
    got = phi_expand(machine)
    assert type(got) is Wfa
    assert (got.alphabet, got.num_states, got.initial) == (want.alphabet, want.num_states, 0)
    assert list(got.finals.items()) == list(want.finals.items())
    assert got.state_names == want.state_names
    for a, b in zip(got.columns, want.columns):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, form=st.sampled_from(["chain", "converted", "product"]))
def test_phi_expand_matches_resolve_walk(seed, form):
    expansion_matches_walk(random_phi_machine(np.random.default_rng(seed), form))


def test_phi_expand_draws_cover_deep_chains_zero_weights_and_several_phi_edges():
    deep = zero = several = 0
    for seed in range(80):
        rng = np.random.default_rng(seed)
        form = ("chain", "converted", "product")[seed % 3]
        machine = random_phi_machine(rng, form)
        expansion_matches_walk(machine)
        c = machine.columns
        deep += machine.max_phi_chain_depth() >= 3
        several += bool((np.bincount(c.src[c.label < 0], minlength=machine.num_states) > 1).any())
        zero += any(r is not None and r[0] == 0.0
                    for q in range(machine.num_states) for a in machine.alphabet
                    for r in [oracles.resolve_symbol(machine, q, a)])
    assert deep >= 3 and zero >= 3 and several >= 3


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, form=st.sampled_from(["chain", "converted", "product"]))
def test_per_pair_helpers_match_the_dict_walks(seed, form):
    # Every (state, symbol) pair, "z" standing for a symbol outside the
    # alphabet.
    machine = random_phi_machine(np.random.default_rng(seed), form)
    for q in range(machine.num_states):
        for a in machine.alphabet + ("z",):
            assert (repr(phi.shadowed_continuation(machine, q, a))
                    == repr(oracles.shadowed_continuation(machine, q, a)))


def conversion_input(rng, form):
    """A shared-structure DAG (dyadic or uniform weights), a raw machine
    (cyclic or not, maybe with a repeated (state, label)), or an exact
    shift machine, alone or intersected with a length acceptor."""
    if form in ("dyadic", "uniform"):
        layers = tuple([1] + [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4)))]
                       + [1])
        return oracles.random_shared_structure_wfa(rng, layers=layers, weights=form)
    if form == "raw":
        return oracles.random_raw_wfa(rng, int(rng.integers(1, 12)), ("a", "b", "c"),
                                      edge_prob=0.8, cyclic=bool(rng.integers(2)),
                                      duplicates=int(rng.integers(2)))
    n, k = int(rng.integers(2, 5)), int(rng.integers(3))
    machine = exact_shift_automaton(n, k)
    if rng.integers(2):
        return machine
    return intersect(machine, length_automaton(n, int(rng.integers(1, 5)),
                                               alphabet=machine.alphabet))


def conversion_matches_dict(machine):
    """Asserts phi_convert equals the dict conversion byte for byte, or
    that both raise the same ValueError; returns the number of hubs, or
    None on a raise."""
    try:
        want = oracles.phi_convert(machine)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            phi_convert(machine)
        assert str(got.value) == str(err)
        return None
    got = phi_convert(machine)
    assert (got.alphabet, got.num_states, got.initial, got.state_names) == \
        (want.alphabet, want.num_states, want.initial, want.state_names)
    assert repr(got.finals) == repr(want.finals)
    for a, b in zip(got.columns, want.columns):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert repr(got.conversion_events) == repr(want.conversion_events)
    return len(got.conversion_events)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, form=st.sampled_from(["dyadic", "uniform", "raw", "shift"]))
def test_column_conversion_matches_the_dict_conversion(seed, form):
    machine = conversion_input(np.random.default_rng(seed), form)
    assume(machine is not None)
    conversion_matches_dict(machine)


def test_conversion_draws_cover_hubs_and_repeated_labels():
    hubs = raised = 0
    for seed in range(80):
        machine = conversion_input(np.random.default_rng(seed),
                                   ("dyadic", "uniform", "raw", "shift")[seed % 4])
        if machine is not None:
            n = conversion_matches_dict(machine)
            raised += n is None
            hubs += bool(n)
    assert hubs >= 5 and raised >= 3


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, leveled=st.booleans(), empty=st.booleans(),
       eta=st.sampled_from([0.3, 1.0, 2.0]))
def test_log_power_sum_sweep_matches_walk(seed, leveled, empty, eta):
    # Zero weights, dead and unreachable states, zero-weight finals and
    # finals at several depths; ``empty`` zeroes every final weight.
    rng = np.random.default_rng(seed)
    if leveled:
        layers = [1] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 6)))]
        machine = oracles.random_layered_wfa(rng, layers, final_prob=0.5)
    else:
        machine = oracles.random_raw_wfa(rng, int(rng.integers(1, 12)), ("a", "b", "c"),
                                         edge_prob=0.6, final_prob=0.4)
    if empty:
        machine = Wfa.from_columns(machine.alphabet, machine.num_states, machine.initial,
                                   dict.fromkeys(machine.finals, 0.0), *machine.columns)
    want = oracles.log_power_sum(machine, eta)
    got = log_power_sum(machine, eta)
    assert type(got) is float
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def same_machine(got, want):
    """Asserts two machines agree field by field: class, header, state
    names, composition metadata, finals (in order) and columns, weights
    within 1e-12 relative."""
    assert type(got) is type(want)
    assert (got.alphabet, got.num_states, got.initial) == (want.alphabet, want.num_states,
                                                           want.initial)
    assert got.state_names == want.state_names
    if isinstance(want, PhiWfa):
        assert oracles.composition_metadata(got) == oracles.composition_metadata(want)
    assert list(got.finals) == list(want.finals)
    assert np.allclose(list(got.finals.values()), list(want.finals.values()), rtol=1e-12, atol=0)
    for a, b in zip(got.columns, want.columns):
        assert a.dtype == b.dtype and a.shape == b.shape
    for a, b in zip(got.columns[:2] + got.columns[3:], want.columns[:2] + want.columns[3:]):
        assert (a == b).all()
    assert np.allclose(got.columns.weight, want.columns.weight, rtol=1e-12, atol=0)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, form=st.sampled_from(["raw", "layered", "chain", "converted", "product"]),
       eta=st.sampled_from([0.3, 2.0]), empty=st.booleans())
def test_linear_helpers_match_dict_walks(seed, form, eta, empty):
    # Plain machines with a random initial state, dead and unreachable
    # states, zero weights and zero-weight finals; phi chains (cyclic now
    # and then), phi_convert outputs and phi products with several phi
    # edges per state.  ``empty`` zeroes every final weight.
    rng = np.random.default_rng(seed)
    if form == "raw":
        machine = oracles.random_raw_wfa(rng, int(rng.integers(1, 12)), ("a", "b", "c"),
                                         edge_prob=0.6, final_prob=0.4)
    elif form == "layered":
        layers = [1] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 6)))]
        machine = oracles.random_layered_wfa(rng, layers, final_prob=0.5)
    else:
        machine = random_phi_machine(rng, form)
    if empty:
        machine = type(machine).from_columns(
            machine.alphabet, machine.num_states, machine.initial,
            dict.fromkeys(machine.finals, 0.0), *machine.columns, oracles.stored_names(machine),
            **({"operand_labels": machine.operand_labels} if isinstance(machine, PhiWfa) else {}))
    if isinstance(machine, PhiWfa):
        helpers = phi_backward_distances, weight_push_phi, power_weights_phi
        walks = oracles.phi_backward_distances, oracles.weight_push_phi, oracles.power_weights_phi
    else:
        helpers = backward_distances, weight_push, power_weights
        walks = oracles.backward_distances, oracles.weight_push, oracles.power_weights
    same_machine(helpers[2](machine, eta), walks[2](machine, eta))
    try:
        want = walks[0](machine)
    except CyclicAutomatonError:
        for helper in helpers[:2]:
            with pytest.raises(CyclicAutomatonError):
                helper(machine)
        return
    got = helpers[0](machine)
    assert list(got) == list(want)
    for q, d in want.items():
        assert type(got[q]) is float
        if math.isfinite(d):
            assert got[q] == pytest.approx(d, rel=1e-12, abs=0.0)
    if want[machine.initial] == 0.0:
        with pytest.raises(ValueError, match="non-empty language"):
            helpers[1](machine)
    else:
        same_machine(helpers[1](machine), walks[1](machine))


def test_linear_helper_draws_cover_every_case():
    # The draws above reach cyclic phi machines, empty languages, dead
    # states that pushing drops, and phi states with several phi edges.
    cyclic = empty = dropped = several = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        form = ("raw", "layered", "chain", "converted", "product")[seed % 5]
        machine = (oracles.random_raw_wfa(rng, int(rng.integers(1, 12)), ("a", "b", "c"),
                                          edge_prob=0.6, final_prob=0.4) if form == "raw"
                   else random_phi_machine(rng, form) if form != "layered"
                   else oracles.random_layered_wfa(rng, [1, 3, 3], final_prob=0.5))
        c = machine.columns
        several += bool((np.bincount(c.src[c.label < 0], minlength=machine.num_states) > 1).any())
        try:
            d = oracles.phi_backward_distances(machine) if isinstance(machine, PhiWfa) \
                else oracles.backward_distances(machine)
        except CyclicAutomatonError:
            cyclic += 1
            continue
        empty += d[machine.initial] == 0.0
        if not isinstance(machine, PhiWfa) and d[machine.initial] > 0.0:
            dropped += oracles.weight_push(machine).num_states < machine.num_states
    assert cyclic >= 3 and empty >= 3 and dropped >= 3 and several >= 3


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, cyclic=st.booleans(), duplicates=st.integers(0, 2))
def test_evaluate_lookup_matches_walk(seed, cyclic, duplicates):
    # Random walks from the initial state give accepted and rejected
    # prefixes; random strings and an unknown symbol are rejected mostly.
    rng = np.random.default_rng(seed)
    alphabet = ("a", "b", "c")
    machine = oracles.random_raw_wfa(rng, int(rng.integers(1, 10)), alphabet, edge_prob=0.7,
                                     final_prob=0.5, cyclic=cyclic, duplicates=duplicates)
    sequences = [(), ("z",), ("a", "z")]
    for _ in range(5):
        q, seq = machine.initial, []
        for _ in range(6):
            arcs = machine.arcs(q)
            if not arcs:
                break
            label = sorted(arcs)[int(rng.integers(len(arcs)))]
            seq.append(label)
            sequences.append(tuple(seq))
            q = arcs[label].dst
        sequences.append(tuple(rng.choice(alphabet, int(rng.integers(0, 6)))))
    for seq in sequences:
        want = oracles.evaluate(machine, seq)
        got = evaluate(machine, seq)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def _with_zero_weights_and_a_dead_state(rng, machine, zero_prob):
    """The machine with each transition weight set to 0 with probability
    ``zero_prob``, and one new state that is not final and has no
    out-edges, reached from a random state on a symbol it does not read."""
    c, n, n_sym = machine.columns, machine.num_states, len(machine.alphabet)
    weight = np.where(rng.random(len(c.weight)) < zero_prob, 0.0, c.weight)
    free = np.setdiff1d(np.arange(n * n_sym), c.src * n_sym + c.label)
    cols = [c.src, c.label, weight, c.dst]
    if free.size:
        q, a = divmod(int(rng.choice(free)), n_sym)
        cols = [np.append(x, v) for x, v in zip(cols, (q, a, 0.5, n))]
    return Wfa.from_columns(machine.alphabet, n + 1, machine.initial, machine.finals, *cols)


def _random_model(rng, alphabet, order, zero_prob):
    tables = {}
    for ctx in NGramModel._all_contexts(alphabet, order):
        row = rng.dirichlet(np.ones(len(alphabet))) * (rng.random(len(alphabet)) >= zero_prob)
        if not row.any():
            row[int(rng.integers(len(alphabet)))] = 1.0
        tables[ctx] = row / row.sum()
    return NGramModel(alphabet, order, tables)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, leveled=st.booleans(), order=st.integers(1, 3),
       zero_prob=st.floats(0.0, 0.4))
def test_path_expectations_match_dict_walk_and_enumeration(seed, leveled, order, zero_prob):
    # ML tables against the dict forward pass; KL, the Shannon entropy
    # and the Renyi tuner against enumeration.  Zero weights, a dead
    # state and (now and then) an empty language.
    rng = np.random.default_rng(seed)
    if leveled:
        machine = oracles.random_leveled_wfa(rng, int(rng.integers(1, 6)), ("a", "b", "c"),
                                             support_size=int(rng.integers(1, 12)))
    else:
        machine = oracles.random_acyclic_wfa(rng, int(rng.integers(2, 9)),
                                             weights=str(rng.choice(["uniform", "dyadic"])))
    machine = _with_zero_weights_and_a_dead_state(rng, machine, zero_prob)
    # The fits and the tuner read the product of the longest length that
    # has a sequence; the product drops the dead state.
    products = list(length_products(machine, machine.num_states))
    if not products:
        return
    machine = products[-1]
    support = enumerate_support(machine)
    if not support:
        with pytest.raises(ValueError, match="empty language"):
            oracles._expected_counts_forward_backward(machine, order)
        with pytest.raises(ValueError, match="empty language"):
            ml_ngram(machine, order)
        with pytest.raises(ValueError, match="empty language"):
            machine.compiled.posteriors()
        return

    fit = ml_ngram(machine, order)
    table_loop = oracles.ml_ngram(machine, order)
    assert fit.probs.tobytes() == table_loop.probs.tobytes()
    assert fit.uniform_filled_contexts == table_loop.uniform_filled_contexts
    counts = oracles._expected_counts_forward_backward(machine, order)
    filled = []
    for ctx in NGramModel._all_contexts(machine.alphabet, order):
        row = counts.get(ctx)
        if row is None or row.sum() <= 0.0:
            filled.append(ctx)
            row = np.ones(3)
        assert np.abs(fit.tables[ctx] - row / row.sum()).max() <= 1e-12
    assert fit.uniform_filled_contexts == tuple(filled)
    # The posteriors the fits and the Shannon limit read, of the product
    # and of its context product, against the log-domain oracle and the
    # enumeration.
    for m in (machine, _context_product(machine, order)[0]):
        edge, end = m.compiled.posteriors()
        lo = m.compiled.state_off[-2]
        for ref in (oracles._edge_marginals(m)[:2], oracles.enumerated_posteriors(m)):
            assert np.abs(edge - ref[0]).max() <= 1e-12
            assert np.abs(end - ref[1][lo:]).max() <= 1e-12

    for model in (fit, _random_model(rng, machine.alphabet, order, zero_prob)):
        want = oracles.kl_divergence(machine, model)
        got = kl_divergence(machine, model)
        assert got == want if want == math.inf else got == pytest.approx(want, rel=1e-12,
                                                                          abs=1e-12)
    z = sum(w for _, w in support)
    q = [w / z for _, w in support]
    assert renyi_entropy_machine(machine, 1.0) == pytest.approx(shannon_entropy(q), rel=1e-12,
                                                                abs=1e-12)
    if len(support) >= 2:
        horizon = int(rng.integers(1, 100))
        assert tune_eta_renyi(machine, horizon) == pytest.approx(
            oracles.tune_eta_renyi(q, horizon), rel=1e-9)


def _hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


def _step(run):
    """The message of the ValueError the step raised (an update that
    overflows, or a witness reading a cell that underflowed to 0), None
    when it did not raise."""
    try:
        run.step()
    except ValueError as exc:
        return str(exc)


def _small_leveled_machine(rng):
    alphabet = ("a", "b", "c")[:int(rng.integers(2, 4))]
    horizon = int(rng.integers(1, 6))
    return horizon_product(oracles.random_leveled_wfa(rng, horizon, alphabet,
                                                      support_size=int(rng.integers(1, 12))),
                           horizon)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, order=st.integers(1, 3), step_mode=st.sampled_from(["adaptive", "constant"]),
       iterations=st.integers(1, 8))
def test_array_prod_eg_matches_the_dict_rows_bitwise(seed, order, step_mode, iterations):
    # One masked multiplicative update over the probability array against
    # the per-row walk with its dict subgradient: iterates, averages,
    # gradient norms, step sizes and objectives, in float hex.
    # A constant step can overflow the update, which both refuse with the
    # same error naming the step scale, leaving the iterate unchanged, or
    # underflow a cell to 0, which the next subgradient refuses; the
    # comparison stops at the error.  No iterate is ever non-finite.
    machine = _small_leveled_machine(np.random.default_rng(seed))
    run = _ProdEGRun(machine, order, step_mode)
    ref = oracles.ProdEGRun(machine, order, step_mode)
    for _ in range(iterations):
        error = _step(run)
        assert error == _step(ref)
        assert error is None or error.startswith(("step scale ", "zero weight on touched entry"))
        assert _hexes(run.model.probs) == _hexes(ref.model.probs)
        assert np.isfinite(run.model.probs).all()
        if error:
            break
        avg, ref_avg = run.average(), ref.average()
        assert _hexes(avg.probs) == _hexes(ref_avg.probs)
        assert (_hexes([divergence_inf(machine, avg).value])
                == _hexes([oracles.divergence_inf(machine, ref_avg).value]))
    assert _hexes(run.grad_sup_norms) == _hexes(ref.grad_sup_norms)
    assert _hexes(run.etas) == _hexes(ref.etas)
    assert run.steps == ref.steps


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
@example(seed=0)    # doubling blocked at order 2 after a violation: the run goes on
@example(seed=66)   # probe of order 3 past the doubling budget: it stops at a violation
def test_select_order_matches_the_two_loop_search(seed):
    # One fit helper for the doubling phase and the binary search against
    # the doubling while-loop and its separate probe.  Small supports at
    # T >= 4 make the low orders fail; the budgets cover blocked and
    # unblocked doubling.
    rng = np.random.default_rng(seed)
    alphabet = ("a", "b", "c")[:int(rng.integers(2, 4))]
    horizon = int(rng.integers(4, 13))
    machine = horizon_product(oracles.random_leveled_wfa(rng, horizon, alphabet,
                                                         support_size=int(rng.integers(1, 7))),
                              horizon)
    iterations, budget_power = int(rng.integers(1, 16)), int(rng.integers(1, 7))
    budget = len(machine.alphabet) ** budget_power
    got = select_order(machine, iterations, budget)
    want = oracles.select_order(machine, iterations, budget)
    assert ((got.order, got.feasible, got.budget_limited)
            == (want.order, want.feasible, want.budget_limited))
    assert ([(n, ok, _hexes([obj, slack])) for n, ok, obj, slack in got.tried]
            == [(n, ok, _hexes([obj, slack])) for n, ok, obj, slack in want.tried])
    assert _hexes([got.objective, got.slack]) == _hexes([want.objective, want.slack])
    assert _hexes(got.model.probs) == _hexes(want.model.probs)
