"""Brute-force reference implementations the tests check the library against.

Everything here works on explicit path enumerations or raw strings, never
through the code paths under test.
"""

import math
from itertools import product

import numpy as np

from wfa_hedge.wfa import Transition, Wfa


def count_changes(seq):
    return sum(1 for i in range(len(seq) - 1) if seq[i] != seq[i + 1])


def all_strings(alphabet, length):
    return product(alphabet, repeat=length)


def brute_distributions(support, eta, losses, alphabet):
    """Per-round expert marginals of the exponentially tilted path weights.

    support: list of (sequence, weight); p_t conditions on losses 1..t-1.
    """
    sym = {a: i for i, a in enumerate(alphabet)}
    horizon = len(losses)
    z = sum(w for _, w in support)
    tilt = np.array([(w / z) ** eta for _, w in support])
    tilt /= tilt.sum()
    out = []
    for t in range(horizon):
        w = tilt.copy()
        for s in range(t):
            for i, (seq, _) in enumerate(support):
                w[i] *= math.exp(-eta * losses[s][sym[seq[s]]])
        p = np.zeros(len(alphabet))
        for i, (seq, _) in enumerate(support):
            p[sym[seq[t]]] += w[i]
        out.append(p / p.sum())
    return out


def brute_best_sequence(support, losses, alphabet, log_q=False):
    """argmax over supported sequences of -loss (+ log q if asked)."""
    sym = {a: i for i, a in enumerate(alphabet)}
    z = sum(w for _, w in support)
    best = None
    for seq, w in support:
        val = -sum(losses[t][sym[a]] for t, a in enumerate(seq))
        if log_q:
            val += math.log(w / z)
        if best is None or val > best[0] or (val == best[0] and seq < best[1]):
            best = (val, seq)
    return best


def brute_awake_run(support, eta, alphabet, masks, losses):
    """Path-level sleeping-expert simulation.

    Returns (per-round awake-conditional distributions, final path weights).
    """
    sym = {a: i for i, a in enumerate(alphabet)}
    z = sum(w for _, w in support)
    q = np.array([(w / z) ** eta for _, w in support])
    q /= q.sum()
    p_awake_rounds = []
    for t, (mask, loss) in enumerate(zip(masks, losses)):
        marg = np.zeros(len(alphabet))
        for i, (seq, _) in enumerate(support):
            marg[sym[seq[t]]] += q[i]
        p = np.where(mask, marg, 0.0)
        p_awake_rounds.append(p / p.sum())
        awake = [i for i, (seq, _) in enumerate(support) if mask[sym[seq[t]]]]
        before = q[awake].sum()
        for i in awake:
            q[i] *= math.exp(-eta * loss[sym[support[i][0][t]]])
        after = q[awake].sum()
        q[awake] *= before / after
    return p_awake_rounds, q


def finite_difference_gradient(f, tables, h=1e-7):
    """Central differences of a scalar function of {ctx: row} tables."""
    grads = {}
    for ctx, row in tables.items():
        g = np.zeros_like(row)
        for i in range(len(row)):
            up = {c: r.copy() for c, r in tables.items()}
            dn = {c: r.copy() for c, r in tables.items()}
            up[ctx][i] += h
            dn[ctx][i] -= h
            g[i] = (f(up) - f(dn)) / (2 * h)
        grads[ctx] = g
    return grads


def grid_unigram_divergence(support, first_symbol="a", step=1e-4):
    """Exhaustive scan of sup log(q/q_p) over two-symbol unigrams.

    p is the weight of ``first_symbol``; returns (best value, best p).
    """
    z = sum(w for _, w in support)
    pts = [(math.log(w / z), sum(1 for c in s if c == first_symbol), len(s))
           for s, w in support]
    best, best_p = math.inf, None
    for p in np.arange(step, 1.0, step):
        lp, l1p = math.log(p), math.log(1.0 - p)
        val = max(lq - n * lp - (t - n) * l1p for lq, n, t in pts)
        if val < best:
            best, best_p = val, p
    return best, best_p


# -- random machine generators ----------------------------------------------------


def _dyadic(rng):
    return 2.0 ** -int(rng.integers(0, 4))


def random_acyclic_wfa(rng, num_states=8, alphabet=("a", "b", "c"),
                       edge_prob=0.6, weights="uniform"):
    """Random trim deterministic DAG with state 0 initial.

    ``weights``: uniform (floats in (0.1, 1.1)), dyadic (exact powers of
    two, so products carry no rounding), or unit.
    """
    while True:
        ts = []
        for src in range(num_states - 1):
            for a in alphabet:
                if rng.random() < edge_prob:
                    dst = int(rng.integers(src + 1, num_states))
                    if weights == "dyadic":
                        w = _dyadic(rng)
                    elif weights == "unit":
                        w = 1.0
                    else:
                        w = float(0.1 + rng.random())
                    ts.append(Transition(src, a, w, dst))
        finals = {num_states - 1: 1.0}
        for q in range(1, num_states - 1):
            if rng.random() < 0.25:
                finals[q] = 1.0 if weights != "dyadic" else _dyadic(rng)
        machine = Wfa(alphabet, num_states, 0, finals, ts)
        trimmed = _trim(machine)
        if trimmed is not None and len(trimmed.transitions) >= 2:
            return trimmed


def _trim(machine):
    reach = {machine.initial}
    stack = [machine.initial]
    while stack:
        q = stack.pop()
        for t in machine.arcs(q).values():
            if t.dst not in reach:
                reach.add(t.dst)
                stack.append(t.dst)
    rev = {}
    for t in machine.transitions:
        rev.setdefault(t.dst, []).append(t.src)
    co = set(machine.finals)
    stack = list(co)
    while stack:
        q = stack.pop()
        for p in rev.get(q, ()):
            if p not in co:
                co.add(p)
                stack.append(p)
    alive = reach & co
    if machine.initial not in alive:
        return None
    remap = {}
    for q in range(machine.num_states):
        if q in alive:
            remap[q] = len(remap)
    ts = [Transition(remap[t.src], t.label, t.weight, remap[t.dst])
          for t in machine.transitions if t.src in alive and t.dst in alive]
    finals = {remap[q]: w for q, w in machine.finals.items() if q in alive}
    return Wfa(machine.alphabet, len(remap), remap[machine.initial], finals, ts)


def random_shared_structure_wfa(rng, layers=(1, 3, 2, 1), alphabet=("a", "b", "c"),
                                weights="dyadic"):
    """Layered DAG where the weight of an (a, dst) pair is shared across
    parents, so failure-transition conversion has something to find."""
    offsets = np.cumsum([0] + list(layers))
    ts = []
    shared = {}
    for li in range(len(layers) - 1):
        lo, hi = offsets[li], offsets[li + 1]
        nlo, nhi = offsets[li + 1], offsets[li + 2]
        for src in range(lo, hi):
            for a in alphabet:
                if rng.random() < 0.8:
                    dst = int(rng.integers(nlo, nhi))
                    key = (a, dst)
                    if key not in shared:
                        shared[key] = _dyadic(rng) if weights == "dyadic" else float(0.1 + rng.random())
                    ts.append(Transition(src, a, shared[key], dst))
    finals = {int(offsets[-1]) - 1: 1.0}
    for q in range(int(offsets[1]), int(offsets[-1]) - 1):
        if rng.random() < 0.2:
            finals[q] = 1.0
    machine = Wfa(alphabet, int(offsets[-1]), 0, finals, ts)
    trimmed = _trim(machine)
    return trimmed


def random_leveled_wfa(rng, horizon, alphabet=("a", "b"), support_size=8,
                       bias=None):
    """Uniform-weight trie over a random set of fixed-length strings.

    ``bias``: per-symbol draw probabilities, for supports whose letter
    frequencies are deliberately lopsided.
    """
    seqs = set()
    target = min(support_size, len(alphabet) ** horizon)
    while len(seqs) < target:
        seqs.add(tuple(rng.choice(alphabet, horizon, p=bias)))
    return Wfa.from_sequences(sorted(seqs), alphabet=alphabet)


def fixed_share_distributions(num_experts, shifts, horizon, eta, losses):
    """Per-round p_t of exponential weights over the Fixed-Share bigram
    (Herbster & Warmuth 1998) with every weight raised to ``eta``.

    The powered transition matrix is (stay - shift) I + shift 11^T, so
    one forward or backward step costs O(N); vectors are rescaled to a
    maximum of 1 every step, which keeps any horizon in range.
    """
    n, k, t = num_experts, shifts, horizon
    stay = (1.0 - k / (t - 1.0)) ** eta
    shift = (k / ((t - 1.0) * (n - 1.0))) ** eta

    def step(v):
        v = (stay - shift) * v + shift * v.sum()
        return v / v.max()

    beta = [np.ones(n)]
    for _ in range(t - 1):
        beta.append(step(beta[-1]))
    beta.reverse()
    out = []
    gamma = np.ones(n)  # the uniform first symbol
    for s in range(t):
        p = gamma * beta[s]
        out.append(p / p.sum())
        gamma = step(gamma * np.exp(-eta * np.asarray(losses[s])))
    return np.array(out)
