"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line (visible under -s) after
its assertions ran at the stated tolerance.  Everything is checked
against enumeration-level oracles, not against the code paths under
test.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from wfa_hedge.approx import divergence_inf, prod_eg
from wfa_hedge.builders import (exact_shift_automaton, hierarchy_automaton,
                                length_automaton, weighted_shift_automaton)
from wfa_hedge.cli import main as cli_main
from wfa_hedge.hedge import (hedge_init, hedge_step, horizon_product, renyi_entropy,
                             shannon_entropy, tune_eta_renyi,
                             unweighted_regret, weighted_regret)
from wfa_hedge.ngram import (bigram_phi_machine, fixed_share_bigram,
                             minimax_unigram, ml_ngram, ngram_to_wfa)
from wfa_hedge.phi import PHI, phi_convert, phi_expand, phi_intersect
from wfa_hedge.sleeping import awake_init, awake_step, sleeping_regret
from wfa_hedge.wfa import (Wfa, backward_distances, count_accepting_paths,
                           enumerate_support, evaluate, intersect, weight_push)

import oracles


def ok(criterion, detail=""):
    print(f"[PASS] {criterion}" + (f"  ({detail})" if detail else ""))


def run(state, losses):
    for loss in losses:
        hedge_step(state, loss)
    return state


def test_01_engine_matches_enumeration_oracle():
    t0 = time.monotonic()
    eta, horizon = 0.7, 6
    base = hedge_init(exact_shift_automaton(3, 2), horizon, eta)
    support = enumerate_support(oracles.played(base))
    assert len(support) == math.comb(5, 2) * 3 * 2 ** 2 == 120
    worst = 0.0
    for seed in range(20):
        st = hedge_init(exact_shift_automaton(3, 2), horizon, eta)
        rng = np.random.default_rng(seed)
        losses = [rng.random(3) for _ in range(horizon)]
        want = oracles.brute_distributions(support, eta, losses, st.alphabet)
        got = [st.p_current]
        for t in range(horizon):
            nxt = hedge_step(st, losses[t])
            if nxt is not None:
                got.append(nxt)
        for g, w in zip(got, want):
            rel = np.abs(g - w) / np.maximum(np.abs(w), 1e-300)
            worst = max(worst, float(rel[w > 0].max()))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    ok("01 engine equals path-enumeration oracle",
       f"max rel err {worst:.2e}, {elapsed:.2f}s, 20 streams")


def test_02_regret_bounds_hold_strictly():
    families = {
        "exact-shift": exact_shift_automaton(3, 2),
        "weighted-shift": weighted_shift_automaton(
            np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])),
        "hierarchy": hierarchy_automaton([("a", 0), ("b", 1), ("c", 2)]),
    }
    horizon = 6
    runs = 0
    from wfa_hedge.wfa import Transition
    for name, machine in families.items():
        # the unweighted guarantee is for a uniform prior, so it is
        # checked on the unit-weight copy of each family
        unit = Wfa(machine.alphabet, machine.num_states, machine.initial,
                   {q: 1.0 for q in machine.finals},
                   [Transition(t.src, t.label, 1.0 if t.weight > 0 else 0.0, t.dst)
                    for t in machine.transitions], machine.state_names)
        for seed in range(34 if name == "exact-shift" else 33):
            eta = 0.4 + 0.03 * (seed % 7)
            rng = np.random.default_rng(seed)
            losses = [rng.random(3) for _ in range(horizon)]

            st = run(hedge_init(machine, horizon, eta), losses)
            support = enumerate_support(oracles.played(st))
            z = sum(w for _, w in support)
            k = len(support)
            sum_q_eta = sum((w / z) ** eta for _, w in support)
            w_bound = eta * horizon / 8 + (1 / eta) * math.log(k ** eta * sum_q_eta)
            w_reg = weighted_regret(st.p_history, losses, oracles.played(st))
            assert w_reg <= w_bound, (name, seed)

            stu = run(hedge_init(unit, horizon, eta), losses)
            ku = count_accepting_paths(oracles.played(stu))
            u_bound = eta * horizon / 8 + math.log(ku) / eta
            u_reg = unweighted_regret(stu.p_history, losses, oracles.played(stu))
            assert u_reg <= u_bound, (name, seed)
            runs += 1
    assert runs == 100

    # learning-rate tuner: the defining equation holds to 1e-9
    rng = np.random.default_rng(123)
    for _ in range(10):
        q = rng.random(int(rng.integers(5, 200)))
        q /= q.sum()
        for horizon_t in (10, 100, 1000):
            eta = tune_eta_renyi(horizon_product(oracles.star_machine(q), 1), horizon_t)
            h = shannon_entropy(q) if abs(eta - 1) < 1e-12 else renyi_entropy(q, eta)
            residual = eta / math.sqrt(h) - math.sqrt(8 / horizon_t)
            assert abs(residual) <= 1e-9
    ok("02 regret bounds strict on 100 seeded runs; tuner residual <= 1e-9")


def test_03_approximation_regret_bound():
    horizon, eta = 8, 0.5
    ct = horizon_product(exact_shift_automaton(3, 2), horizon)
    support = enumerate_support(ct)
    z = sum(w for _, w in support)
    k = len(support)
    for order in (1, 2):
        model = ml_ngram(ct, order)
        div = max(math.log(w / z) - model.sequence_logprob(seq)
                  for seq, w in support)  # exact, by enumeration
        played = ngram_to_wfa(model)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            losses = [rng.random(3) for _ in range(horizon)]
            st = run(hedge_init(played, horizon, eta), losses)
            regret = weighted_regret(st.p_history, losses, ct)
            bound = eta * horizon / 8 + math.log(k) / eta + div
            assert regret <= bound, (order, seed)
    ok("03 approximation pays at most the worst-case log ratio",
       "unigram + bigram of the 2-shift machine, 50 runs")


def test_04_ml_bigram_closed_form():
    reports = []
    for n, k, t in ((3, 2, 11), (4, 1, 9), (2, 3, 12)):
        ct = horizon_product(exact_shift_automaton(n, k), t)
        fitted = ml_ngram(ct, 2)
        closed = fixed_share_bigram(n, k, t)
        for ctx in closed.tables:
            assert np.abs(fitted.tables[ctx] - closed.tables[ctx]).max() <= 1e-12
        stay = 1 - k / (t - 1)
        shift = k / ((t - 1) * (n - 1))
        a0 = closed.alphabet[0]
        assert closed.tables[(a0,)][0] == pytest.approx(stay, abs=1e-15)
        assert closed.tables[(a0,)][1] == pytest.approx(shift, abs=1e-15)
        div = divergence_inf(ct, closed).value
        assert math.isfinite(div)
        reports.append(f"(N={n},k={k},T={t}): D={div:.4f}")
    ok("04 ML bigram equals the closed form to 1e-12", "; ".join(reports))


def test_05_minimax_unigram_closed_form():
    rng = np.random.default_rng(42)
    for trial in range(20):
        horizon = int(rng.integers(3, 9))
        ct = horizon_product(oracles.random_leveled_wfa(
            rng, horizon, support_size=int(rng.integers(2, 12))), horizon)
        closed = minimax_unigram(ct)
        val = divergence_inf(ct, closed).value
        grid_val, _ = oracles.grid_unigram_divergence(enumerate_support(ct))
        assert abs(val - grid_val) <= 1e-3, trial

    horizon, gamma = 100, 0.05
    n1 = int((0.5 + gamma) * horizon)
    special = tuple("a" if i < n1 else "b" for i in range(horizon))
    others = [tuple("b" if i == j else "a" for i in range(horizon))
              for j in range(horizon - 1)]
    machine = horizon_product(Wfa.from_sequences([special] + others, alphabet=("a", "b")),
                              horizon)
    m = minimax_unigram(machine)
    assert m.tables[()][0] == pytest.approx((1 + 2 * gamma) / 2, abs=1e-12)
    ml = ml_ngram(machine, 1)
    assert ml.tables[()][0] > 0.95
    ok("05 two-symbol minimax unigram matches 1e-4 grid search",
       f"worked case: minimax 0.55 vs ML {ml.tables[()][0]:.4f}")


def test_06_prod_eg_convergence_bound():
    t0 = time.monotonic()
    tau = 2000
    rng = np.random.default_rng(7)
    for trial in range(2):
        ct = horizon_product(oracles.random_leveled_wfa(rng, horizon=6, support_size=10), 6)
        probe = prod_eg(ct, 1, 20)
        big_l = max(probe.grad_sup_norms)
        eta = math.sqrt(math.log(2) / (2 * big_l * tau))
        result = prod_eg(ct, 1, tau, step_mode="constant", step_scale=eta)
        big_l = max(big_l, max(result.grad_sup_norms))
        bound = math.log(2) / (eta * tau) + 2 * eta * big_l
        grid_val, _ = oracles.grid_unigram_divergence(enumerate_support(ct))
        gap = result.objective - grid_val
        assert gap <= bound, trial
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    ok("06 averaged-iterate gap within the mirror-descent bound",
       f"tau=2000, {elapsed:.2f}s")


def test_07_phi_machinery():
    # (a) conversion round-trip on 50 random machines, strings up to length 6
    rng = np.random.default_rng(11)
    done = 0
    converted = 0
    while done < 50:
        depth = int(rng.integers(2, 5))
        layers = tuple([1] + [int(rng.integers(2, 5)) for _ in range(depth)] + [1])
        m = oracles.random_shared_structure_wfa(rng, layers=layers)
        if m is None:
            continue
        p = phi_convert(m)
        converted += bool(p.conversion_events)
        e = phi_expand(p)
        for length in range(0, 7):
            for x in product("abc", repeat=length):
                v, ref = evaluate(e, x), evaluate(m, x)
                assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))
        done += 1
    assert converted >= 15

    # (b) the compressed engine reproduces the plain one to 1e-9
    n, k, horizon, eta = 5, 1, 8, 0.7
    model = fixed_share_bigram(n, k, horizon)
    st_plain = hedge_init(ngram_to_wfa(model), horizon, eta)
    st_phi = hedge_init(bigram_phi_machine(model), horizon, eta)
    rng = np.random.default_rng(12)
    worst = 0.0
    for t in range(horizon):
        loss = rng.random(n)
        a = hedge_step(st_plain, loss)
        b = hedge_step(st_phi, loss)
        if a is not None:
            worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-9

    # (c) per-round touched edges: compact O(N) vs plain N^2
    assert max(st_phi.touched_per_round) <= 4 * n
    assert max(st_plain.touched_per_round) >= n * n
    ok("07 failure-transition machinery",
       f"50 round-trips; engines agree to {worst:.1e}; "
       f"edges {max(st_phi.touched_per_round)} vs {max(st_plain.touched_per_round)}")


def _phi_paths_between(machine):
    adj = {}
    for t in machine.transitions:
        if t.label == PHI:
            adj.setdefault(t.src, []).append(t.dst)
    counts = {}

    def walk(start, q):
        for nxt in adj.get(q, ()):
            key = (start, nxt)
            counts[key] = counts.get(key, 0) + 1
            walk(start, nxt)

    for q in range(machine.num_states):
        walk(q, q)
    return counts


def test_08_filter_composition():
    rng = np.random.default_rng(13)
    done = 0
    while done < 20:
        m1 = oracles.random_shared_structure_wfa(rng, layers=(1, 3, 3, 1))
        m2 = oracles.random_shared_structure_wfa(rng, layers=(1, 2, 3, 1))
        if m1 is None or m2 is None:
            continue
        p1, p2 = phi_convert(m1), phi_convert(m2)
        composed = phi_intersect(p1, p2)
        for pair, count in _phi_paths_between(composed).items():
            assert count == 1
        expanded = phi_expand(composed)
        plain = intersect(m1, m2)
        for length in range(0, 5):
            for x in product("abc", repeat=length):
                v, ref = evaluate(expanded, x), evaluate(plain, x)
                assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))
        done += 1
    ok("08 filter composition equals plain intersection", "20 random pairs")


def test_09_sleeping_engine():
    eta, horizon = 0.5, 5
    k_total = count_accepting_paths(
        intersect(exact_shift_automaton(3, 1), length_automaton(3, horizon)))
    assert k_total <= 200
    rng = np.random.default_rng(14)
    for seed in range(50):
        st = awake_init(exact_shift_automaton(3, 1), horizon, eta)
        support = enumerate_support(oracles.played(st))
        sym = {a: i for i, a in enumerate(st.alphabet)}
        masks, losses = [], []
        for t in range(horizon):
            mask = np.zeros(3, dtype=bool)
            while not mask.any():
                mask = rng.random(3) < 0.6
            loss = rng.random(3) * mask
            # per-round asleep-mass invariance at the path level
            def weights():
                out = []
                for seq, _ in support:
                    q, lw = st.machine.initial, 0.0
                    for a in seq:
                        tr = st.machine.arcs(q)[a]
                        lw += st.log_w[st.machine.transitions.index(tr)]
                        q = tr.dst
                    out.append(math.exp(lw) * st.machine.final_weight(q))
                return np.array(out)
            before = weights()
            awake_step(st, mask, loss)
            after = weights()
            asleep = [i for i, (seq, _) in enumerate(support)
                      if not mask[sym[seq[t]]]]
            for i in asleep:
                assert abs(after[i] - before[i]) <= 1e-9 * max(before[i], 1e-12)
            masks.append(mask)
            losses.append(loss)
        for u in oracles.vertex_comparators(oracles.played(st)):
            r = sleeping_regret(masks, st.p_awake_history, losses,
                                oracles.played(st), u, eta)
            assert r.value <= r.bound, seed

    # all-awake reduction
    st_a = awake_init(exact_shift_automaton(3, 1), horizon, eta)
    st_h = hedge_init(exact_shift_automaton(3, 1), horizon, eta)
    rng = np.random.default_rng(15)
    full = np.ones(3, dtype=bool)
    for t in range(horizon):
        loss = rng.random(3)
        assert np.abs(st_a.p_current - st_h.p_current).max() <= 1e-12
        awake_step(st_a, full, loss)
        hedge_step(st_h, loss)
    ok("09 sleeping engine", "50 runs, every vertex comparator bounded")


def test_10_core_automata_operations():
    # intersection pointwise on > 10^4 strings
    c = exact_shift_automaton(4, 2)
    s = length_automaton(4, 7)
    b = intersect(c, s)
    n_checked = 0
    for x in product("abcd", repeat=7):
        assert evaluate(b, x) == evaluate(c, x) * evaluate(s, x)
        n_checked += 1
    assert n_checked == 4 ** 7 > 10_000

    rng = np.random.default_rng(16)
    for _ in range(100):
        m = oracles.random_acyclic_wfa(rng, 7)
        d = backward_distances(m)
        support = enumerate_support(m)
        total = sum(w for _, w in support)
        assert abs(d[m.initial] - total) <= 1e-12 * max(total, 1.0)
        pushed = weight_push(m)
        for q in range(pushed.num_states):
            s_out = pushed.final_weight(q) + sum(
                t.weight for t in pushed.arcs(q).values())
            assert abs(s_out - 1.0) <= 1e-12
        for seq, w in support:
            assert abs(evaluate(pushed, seq) * d[m.initial] - w) <= 1e-12 * max(w, 1.0)
    ok("10 core operations", f"{n_checked} intersection strings; 100 pushes")


def test_11_cli_contract(tmp_path):
    from pathlib import Path
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert len(configs) >= 3
    for i, cfg_path in enumerate(configs):
        out1, out2 = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    code = cli_main(["run", "--config", str(configs[0]), "--force-verdict-failure",
                     "--out", str(tmp_path / "c.json")])
    assert code == 2
    ok("11 CLI contract",
       f"{len(configs)} shipped configs replay byte-identically; "
       "corrupted verdict exits 2")
