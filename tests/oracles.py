"""Brute-force reference implementations the tests check the library against.

Everything here works on explicit path enumerations or raw strings, never
through the code paths under test.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from wfa_hedge.approx import DivergenceValue, SelectionResult, _slack
from wfa_hedge.hedge import renyi_entropy, shannon_entropy
from wfa_hedge.ngram import NGramModel, _context_product, uniform_model
from wfa_hedge.phi import PHI, PHI_FILTER, ConversionEvent, PhiWfa, as_phi
from wfa_hedge.wfa import (NEG_INF, BestPath, CyclicAutomatonError, Transition, Wfa,
                           _backward_logs, _edge_logs, _plan, _ranges,
                           default_alphabet, enumerate_support)


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


# -- reference graph algorithms -----------------------------------------------------
#
# The queue-based product constructions (plain and through the phi
# filter) and FIFO Kahn sort over per-edge objects, which the library's
# array versions must reproduce exactly.


def intersect(a1, a2):
    """Product automaton by a breadth-first search over state pairs."""
    if a1.alphabet != a2.alphabet:
        raise ValueError("alphabet mismatch in intersection")
    start = (a1.initial, a2.initial)
    ids: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    edges: list[tuple[int, str, float, int]] = []
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        src = ids[(q1, q2)]
        arcs2 = a2.arcs(q2)
        for label in sorted(a1.arcs(q1)):
            t1 = a1.arcs(q1)[label]
            t2 = arcs2.get(label)
            if t2 is None:
                continue
            pair = (t1.dst, t2.dst)
            if pair not in ids:
                ids[pair] = len(order)
                order.append(pair)
                queue.append(pair)
            edges.append((src, label, t1.weight * t2.weight, ids[pair]))

    finals = {}
    for pair, q in ids.items():
        w = a1.final_weight(pair[0]) * a2.final_weight(pair[1])
        if pair[0] in a1.finals and pair[1] in a2.finals:
            finals[q] = w

    # Keep only co-accessible states.
    rev: dict[int, list[int]] = {}
    for src, _, _, dst in edges:
        rev.setdefault(dst, []).append(src)
    alive = set(finals)
    stack = list(finals)
    while stack:
        q = stack.pop()
        for p in rev.get(q, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    if 0 not in alive:
        return Wfa(a1.alphabet, 1, 0, {}, [], state_names=[start])
    remap = {}
    names = []
    for pair, q in ids.items():
        if q in alive:
            remap[q] = len(remap)
            names.append(pair)
    kept = [Transition(remap[s], lab, w, remap[d])
            for s, lab, w, d in edges if s in alive and d in alive]
    new_finals = {remap[q]: w for q, w in finals.items()}
    return Wfa(a1.alphabet, len(remap), remap[0], new_finals, kept, state_names=names)


def phi_intersect(m1, m2):
    """Intersection of two phi-automata through the filter transducer:
    :func:`composition`'s machine."""
    return composition(m1, m2)[0]


def composition(m1, m2):
    """Intersection of two phi-automata through the filter transducer,
    with the search's own per-state (left, right) direct-label sets and
    per-phi-edge move kinds keyed by (src, dst) in edge order: (machine,
    pair labels, moves), both None on an empty product.

    Left phi moves keep the right machine in place and vice versa; the
    both-sides move is only allowed from filter state 0, which admits
    exactly one phi path between any pair of composed states.  Inputs
    must be chain-style (at most one phi per state).  The machine's
    origin array holds the (left, right, filter) nodes and its operand
    tables the inputs' arcs, one row per input state.
    """
    a1, a2 = as_phi(m1), as_phi(m2)
    if a1.alphabet != a2.alphabet:
        raise ValueError("alphabet mismatch in intersection")
    if a1.operand_labels is not None or a2.operand_labels is not None:
        raise ValueError("composition outputs cannot be composed again")

    start = (a1.initial, a2.initial, 0)
    ids = {start: 0}
    order = [start]
    edges: list[tuple[int, str, float, int, Optional[str]]] = []
    queue = deque([start])
    while queue:
        node = queue.popleft()
        q1, q2, f = node
        src = ids[node]

        def visit(dst_node):
            if dst_node not in ids:
                ids[dst_node] = len(order)
                order.append(dst_node)
                queue.append(dst_node)
            return ids[dst_node]

        arcs1, arcs2 = a1.arcs(q1), a2.arcs(q2)
        for label in sorted(arcs1):
            t1 = arcs1[label]
            t2 = arcs2.get(label)
            if t2 is None:
                continue
            dst = visit((t1.dst, t2.dst, 0))
            edges.append((src, label, t1.weight * t2.weight, dst, None))
        p1, p2 = a1.phi_arc(q1), a2.phi_arc(q2)
        if p1 is not None and p2 is not None and (f, "both") in PHI_FILTER:
            dst = visit((p1.dst, p2.dst, PHI_FILTER[(f, "both")]))
            edges.append((src, PHI, p1.weight * p2.weight, dst, "both"))
        if p1 is not None and (f, "left") in PHI_FILTER:
            dst = visit((p1.dst, q2, PHI_FILTER[(f, "left")]))
            edges.append((src, PHI, p1.weight, dst, "left"))
        if p2 is not None and (f, "right") in PHI_FILTER:
            dst = visit((q1, p2.dst, PHI_FILTER[(f, "right")]))
            edges.append((src, PHI, p2.weight, dst, "right"))

    finals = {}
    for node, q in ids.items():
        if node[0] in a1.finals and node[1] in a2.finals:
            finals[q] = a1.final_weight(node[0]) * a2.final_weight(node[1])

    # Trim to co-accessible states so the engine never walks dead regions.
    rev: dict[int, list[int]] = {}
    for s, _, _, d, _ in edges:
        rev.setdefault(d, []).append(s)
    alive = set(finals)
    stack = list(finals)
    while stack:
        q = stack.pop()
        for p in rev.get(q, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    if 0 not in alive:
        return PhiWfa(a1.alphabet, 1, 0, {}, [], state_names=np.array([start])), None, None
    remap: dict[int, int] = {}
    kept_nodes = []
    for node, q in ids.items():
        if q in alive:
            remap[q] = len(remap)
            kept_nodes.append(node)
    ts: list[Transition] = []
    moves: dict[tuple[int, int], str] = {}
    for s, label, w, d, kind in edges:
        if s in alive and d in alive:
            if kind is not None:
                moves[(remap[s], remap[d])] = kind
            ts.append(Transition(remap[s], label, w, remap[d]))
    new_finals = {remap[q]: w for q, w in finals.items()}
    pair_labels = [(frozenset(a1.arcs(n[0])), frozenset(a2.arcs(n[1])))
                   for n in kept_nodes]
    tables = tuple(np.array([[a in m.arcs(q) for a in m.alphabet] for q in range(m.num_states)],
                            bool).reshape(m.num_states, len(m.alphabet)) for m in (a1, a2))
    result = PhiWfa(a1.alphabet, len(remap), remap[0], new_finals, ts,
                    state_names=np.array(kept_nodes), operand_labels=tables)
    return result, pair_labels, moves


def pair_at(machine, q):
    """The (left, right) direct-label sets of state q of a composition
    output, read off its origin row and the operand tables."""
    row = machine.origin[q].tolist()
    return tuple(frozenset(a for a, on in zip(machine.alphabet, table[row[side]].tolist()) if on)
                 for side, table in enumerate(machine.operand_labels))


def move_of(machine, t):
    """The move kind of phi transition t of a composition output: the
    sides whose origin column it changes."""
    a, b = machine.origin[t.src].tolist(), machine.origin[t.dst].tolist()
    return {(True, False): "left", (False, True): "right",
            (True, True): "both"}.get((a[0] != b[0], a[1] != b[1]))


def composition_metadata(machine):
    """A composition output's (left, right) direct-label sets per state
    and move kind per phi edge, keyed by (src, dst) in edge order, read
    off its arrays one state and one edge at a time; None on any other
    machine."""
    if machine.operand_labels is None:
        return None
    return ([pair_at(machine, q) for q in range(machine.num_states)],
            {(t.src, t.dst): move_of(machine, t) for t in machine.transitions if t.label == PHI})


def stored_names(machine):
    """The names to rebuild ``machine`` with: its origin array, else its
    state names."""
    return machine.state_names if machine.origin is None else machine.origin


def topological_order(wfa):
    """States in FIFO Kahn order; raises CyclicAutomatonError on cycles."""
    indeg = [0] * wfa.num_states
    for t in wfa.transitions:
        indeg[t.dst] += 1
    queue = deque(q for q in range(wfa.num_states) if indeg[q] == 0)
    order = []
    while queue:
        q = queue.popleft()
        order.append(q)
        for t in wfa.arcs(q).values():
            indeg[t.dst] -= 1
            if indeg[t.dst] == 0:
                queue.append(t.dst)
    if len(order) != wfa.num_states:
        raise CyclicAutomatonError("automaton contains a cycle")
    return order


def count_accepting_paths(wfa):
    """Number of accepting paths with strictly positive weight."""
    order = topological_order(wfa)
    counts = [0] * wfa.num_states
    for q in reversed(order):
        c = 1 if wfa.final_weight(q) > 0.0 else 0
        for t in wfa.arcs(q).values():
            if t.weight > 0.0:
                c += counts[t.dst]
        counts[q] = c
    return counts[wfa.initial]


def compiled_count(cm, labels=None) -> int:
    """The reference count of a CompiledMachine, in Python integers:
    accepting paths of positive weight, each consuming or phi edge
    counting 1 and each correction -1, so that every shadowed
    continuation nets out; zero weights count 0.  With ``labels``, symbol
    ids one per level, only the paths reading that sequence."""
    return int(_compiled_counts(cm, labels)[0][cm.initial])


def compiled_term_bound(cm) -> int:
    """The largest sum, over one state, of 1 at an end and |count| of
    each counted edge's target, in Python integers: the most that any
    partial sum of that state's count can reach in magnitude."""
    return int(_compiled_counts(cm)[1].max())


def _compiled_counts(cm, labels=None):
    """Per state, the count of :func:`compiled_count` and the term sum of
    :func:`compiled_term_bound`."""
    count = np.zeros(cm.num_states, object)
    if labels is not None and len(labels) != cm.horizon:
        return count, count
    positive = cm.weight > 0.0
    on = positive[cm.tid]
    if labels is not None:
        on &= cm.label == np.repeat(labels, np.diff(cm.edge_off[:-1]))
    plus = np.flatnonzero(on & (cm.coef > 0.0))  # consuming edges
    minus = np.flatnonzero(on & (cm.coef < 0.0))  # corrections
    plus_off = np.searchsorted(plus, cm.edge_off)
    minus_off = np.searchsorted(minus, cm.edge_off)
    phi_on = positive[cm.ptid]
    count[cm.final > 0.0] = 1
    terms = count.copy()
    so, gb = cm.state_off, cm.group_bounds

    def apply(add, src, dst):
        np.add.at(terms, src, np.abs(count[dst]))
        add(count, src, count[dst])

    for t in range(cm.horizon - 1, -1, -1):
        for add, e in ((np.add.at, plus[plus_off[t]:plus_off[t + 1]]),
                       (np.subtract.at, minus[minus_off[t]:minus_off[t + 1]])):
            apply(add, cm.src[e], so[t + 1] + cm.dst[e])
        for g in range(cm.group_off[t + 1] - 1, cm.group_off[t] - 1, -1):
            p = gb[g] + np.flatnonzero(phi_on[gb[g]:gb[g + 1]])
            apply(np.add.at, cm.psrc[p], cm.pdst[p])
    return count, terms


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


def random_raw_wfa(rng, num_states, alphabet, labels=None, edge_prob=0.5, final_prob=0.3,
                   cyclic=False, duplicates=0):
    """Random machine left as drawn: random initial state, dead and
    unreachable states, some zero weights and zero-weight finals, and
    transitions in random order.  Edges carry symbols from ``labels``
    (default: the whole alphabet).  Acyclic unless ``cyclic``: edges
    then only lead to higher ids.  ``duplicates`` extra transitions
    reuse the (state, label) pair of an existing one."""
    def weight():
        return 0.0 if rng.random() < 0.1 else float(0.1 + rng.random())

    def target(src):
        return int(rng.integers(num_states) if cyclic else rng.integers(src + 1, num_states))

    ts = [Transition(src, a, weight(), target(src))
          for src in range(num_states if cyclic else num_states - 1)
          for a in (alphabet if labels is None else labels) if rng.random() < edge_prob]
    for _ in range(duplicates if ts else 0):
        t = ts[int(rng.integers(len(ts)))]
        ts.append(Transition(t.src, t.label, weight(), target(t.src)))
    finals = {q: weight() for q in range(num_states) if rng.random() < final_prob}
    order = rng.permutation(len(ts))
    return Wfa(alphabet, num_states, int(rng.integers(num_states)), finals,
               [ts[i] for i in order])


def random_phi_wfa(rng, num_states, alphabet, labels=None, edge_prob=0.5, phi_prob=0.5,
                   final_prob=0.3, cyclic=False):
    """Random chain-style phi machine left as drawn: at most one edge per
    (state, symbol) and at most one phi edge per state, the phi edge to a
    higher id so that phi chains end; a random initial state, dead and
    unreachable states, some zero weights and zero-weight finals, and
    transitions in random order.  Symbols come from ``labels`` (default:
    the whole alphabet).  A state often reads a symbol its phi chain reads
    too, so direct edges shadow chain edges.  Consuming edges lead to
    higher ids unless ``cyclic``."""
    def weight():
        return 0.0 if rng.random() < 0.1 else float(0.1 + rng.random())

    def target(src):
        return int(rng.integers(num_states) if cyclic else rng.integers(src + 1, num_states))

    ts = [Transition(src, a, weight(), target(src))
          for src in range(num_states if cyclic else num_states - 1)
          for a in (alphabet if labels is None else labels) if rng.random() < edge_prob]
    ts += [Transition(src, PHI, weight(), int(rng.integers(src + 1, num_states)))
           for src in range(num_states - 1) if rng.random() < phi_prob]
    finals = {q: weight() for q in range(num_states) if rng.random() < final_prob}
    order = rng.permutation(len(ts))
    return PhiWfa(alphabet, num_states, int(rng.integers(num_states)), finals,
                  [ts[i] for i in order])


def shadow_rows(machine):
    """(state, shadowed edge, phi chain weight) for every symbol a state
    with a phi edge reads directly (both sides define it, for composition
    states) that is read further down the chain, by one
    shadowed_continuation call per (state, symbol)."""
    trs = machine.transitions
    at = {(t.src, t.label): i for i, t in enumerate(trs) if t.label != PHI}
    rows = []
    for q in range(machine.num_states):
        if machine.phi_arc(q) is None:
            continue
        if machine.operand_labels is None:
            reads = set(machine.arcs(q))
        else:
            left, right = pair_at(machine, q)
            reads = left & right
        for a in sorted(reads):
            sc = shadowed_continuation(machine, q, a)
            if sc is not None:
                rows.append((q, at[(sc[1].src, sc[1].label)], sc[0]))
    return rows


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


def random_layered_wfa(rng, layers, alphabet=("a", "b", "c"), edge_prob=0.7, final_prob=0.3):
    """Random leveled machine left as drawn: state 0 alone in the first
    layer, each state's edges lead to the next layer, weights are dyadic
    or (now and then) 0, and finals sit in any layer, some with weight 0.
    Unreachable and dead states stay."""
    offsets = np.cumsum([0] + list(layers))
    ts = []
    for li in range(len(layers) - 1):
        for src in range(offsets[li], offsets[li + 1]):
            for a in alphabet:
                if rng.random() < edge_prob:
                    w = 0.0 if rng.random() < 0.1 else _dyadic(rng)
                    ts.append(Transition(int(src), a, w,
                                         int(rng.integers(offsets[li + 1], offsets[li + 2]))))
    finals = {q: (0.0 if rng.random() < 0.1 else _dyadic(rng))
              for q in range(int(offsets[-1])) if rng.random() < final_prob}
    return Wfa(alphabet, int(offsets[-1]), 0, finals, ts)


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


def star_machine(q) -> Wfa:
    """One edge per outcome from the initial state, edge i weighing q[i]
    and ending in a final state: a machine whose path distribution is q."""
    q = np.asarray(q, dtype=float)
    n = len(q)
    return Wfa.from_columns(default_alphabet(n), n + 1, 0, {i + 1: 1.0 for i in range(n)},
                            np.zeros(n, np.intp), np.arange(n), q, np.arange(1, n + 1))


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


# -- the dict walks the array sweeps replaced ------------------------------------------
#
# state_levels, leveled_best_path, divergence_inf and
# _expected_counts_enumerate as the library had them before its best-path
# questions became one frontier sweep over edge columns, kept as
# references.  leveled_best_path takes the old per-transition
# score(t, level) callback.  frontier_best_path is that frontier sweep,
# as it was before it read the cached level plan.


def state_levels(wfa: Wfa) -> list[Optional[int]]:
    """Distance from the initial state when it is unique per state.

    Machines intersected with a fixed-length acceptor are leveled: every
    path reaching a state has the same length.  Raises ValueError when
    two paths of different lengths reach the same state; unreachable
    states get level ``None``.
    """
    levels: list[Optional[int]] = [None] * wfa.num_states
    levels[wfa.initial] = 0
    for q in topological_order(wfa):
        if levels[q] is None:
            continue
        for t in wfa.arcs(q).values():
            expected = levels[q] + 1
            if levels[t.dst] is None:
                levels[t.dst] = expected
            elif levels[t.dst] != expected:
                raise ValueError("automaton is not leveled")
    return levels


def leveled_best_path(wfa: Wfa,
                      score: Callable[[Transition, int], float],
                      final_score: Optional[Callable[[int], float]] = None,
                      maximize: bool = True) -> tuple[float, tuple[str, ...]]:
    """Best accepting path of a leveled acyclic machine under additive scores.

    ``score(t, level)`` is the contribution of transition ``t`` taken at
    depth ``level`` (0-based: the transition consuming the first symbol
    has level 0); ``final_score(q)`` is added at accepting endpoints.
    Ties are broken toward the lexicographically smallest label sequence.
    Returns (total score, label sequence).
    """
    levels = state_levels(wfa)
    order = topological_order(wfa)
    sign = 1.0 if maximize else -1.0
    best: dict[int, tuple[float, tuple[str, ...]]] = {wfa.initial: (0.0, ())}
    for q in order:
        if q not in best:
            continue
        base, seq = best[q]
        for label in sorted(wfa.arcs(q)):
            t = wfa.arcs(q)[label]
            if t.weight <= 0.0:
                continue
            val = base + sign * score(t, levels[q])
            cand = (val, seq + (label,))
            cur = best.get(t.dst)
            if cur is None or val > cur[0] or (val == cur[0] and cand[1] < cur[1]):
                best[t.dst] = cand
    result: Optional[tuple[float, tuple[str, ...]]] = None
    for q, fw in wfa.finals.items():
        if fw <= 0.0 or q not in best:
            continue
        val, seq = best[q]
        if final_score is not None:
            val += sign * final_score(q)
        if result is None or val > result[0] or (val == result[0] and seq < result[1]):
            result = (val, seq)
    if result is None:
        raise ValueError("no accepting path")
    return (sign * result[0], result[1])


def frontier_best_path(wfa: Wfa, score: Callable[[int, np.ndarray], np.ndarray],
                       final_score: Optional[Callable[[np.ndarray], np.ndarray]] = None
                       ) -> BestPath:
    """The library's best-path sweep as it was before it read a cached
    level plan and took score columns: ``score(level, edges)`` returns
    the scores of the given transitions taken at 0-based depth
    ``level``, ``final_score(states)`` those of the given accepting
    endpoints.  It sorts the edges by source, ranks the labels and walks
    a frontier from the initial state on every call.  Same tie-break and
    errors as ``wfa.leveled_best_path``.
    """
    c, n, n_sym = wfa.columns, wfa.num_states, len(wfa.alphabet)
    rank = np.empty(n_sym, np.intp)
    rank[sorted(range(n_sym), key=wfa.alphabet.__getitem__)] = np.arange(n_sym)
    by_src = np.argsort(c.src, kind="stable")
    off = np.concatenate(([0], np.cumsum(np.bincount(c.src, minlength=n))))
    total, prefix = np.zeros(n), np.zeros(n, np.intp)
    depth, back = np.full(n, -1, np.intp), np.full(n, -1, np.intp)
    frontier, depth[wfa.initial], level = np.array([wfa.initial]), 0, 0
    while True:
        e = by_src[_ranges(off[frontier], off[frontier + 1])]
        e = e[(c.label[e] >= 0) & (c.weight[e] > 0.0)]
        if not e.size:
            break
        src, dst, lr = c.src[e], c.dst[e], rank[c.label[e]]
        val = total[src] + score(level, e)
        order = np.lexsort((lr, prefix[src], -val, dst))
        win = order[np.flatnonzero(np.diff(dst[order], prepend=-1))]
        frontier = dst[win]
        if (depth[frontier] >= 0).any():
            raise ValueError("automaton is not leveled")
        level += 1
        depth[frontier], total[frontier], back[frontier] = level, val[win], e[win]
        prefix[frontier[np.lexsort((lr[win], prefix[src[win]]))]] = np.arange(len(win))

    finals = np.array([q for q, w in wfa.finals.items() if w > 0.0 and depth[q] >= 0], np.intp)
    if not finals.size:
        raise ValueError("no accepting path")
    scores = total[finals] if final_score is None else total[finals] + final_score(finals)
    top = np.flatnonzero(scores == scores.max())
    best = None
    for d in np.unique(depth[finals[top]]):
        at = top[depth[finals[top]] == d]
        i = at[np.argmin(prefix[finals[at]])]
        edges, q = [], finals[i]
        while q != wfa.initial:
            edges.append(back[q])
            q = c.src[back[q]]
        edges = np.array(edges[::-1], np.intp)
        seq = tuple(wfa.alphabet[a] for a in c.label[edges].tolist())
        if best is None or seq < best.sequence:
            best = BestPath(float(scores[i]), seq, edges)
    return best


def divergence_inf(machine: Wfa, model: NGramModel) -> DivergenceValue:
    """sup over supported x of log(q(x) / q_w(x)), with the witness.

    q is the machine's normalized path distribution; the supremum runs
    over its support only.  A supported sequence the model gives zero
    weight yields +inf.  Exact best-path computation over (state,
    context) pairs; ties break toward the lexicographically smallest
    sequence.
    """
    if machine.alphabet != model.alphabet:
        raise ValueError("alphabet mismatch")
    order = topological_order(machine)
    log_z = machine.compiled.log_Z  # as the library takes it, so values compare in hex
    if log_z == float("-inf"):
        raise ValueError("empty language")

    # best[(state, ctx)] = (score, sequence so far)
    start = (machine.initial, ())
    best: dict[tuple[int, tuple[str, ...]], tuple[float, tuple[str, ...]]] = {start: (0.0, ())}
    by_state: dict[int, list[tuple[str, ...]]] = {machine.initial: [()]}
    result: Optional[tuple[float, tuple[str, ...]]] = None
    for q in order:
        for ctx in by_state.get(q, ()):
            score, seq = best[(q, ctx)]
            fw = machine.final_weight(q)
            if fw > 0.0:
                total = score + math.log(fw)
                if result is None or total > result[0] or (total == result[0] and seq < result[1]):
                    result = (total, seq)
            for label in sorted(machine.arcs(q)):
                t = machine.arcs(q)[label]
                if t.weight <= 0.0:
                    continue
                cond = model.cond(ctx, label)
                step = math.inf if cond == 0.0 else math.log(t.weight) - math.log(cond)
                nscore = score + step
                nctx = model.context_of(ctx + (label,))
                key = (t.dst, nctx)
                cand = (nscore, seq + (label,))
                cur = best.get(key)
                if cur is None:
                    by_state.setdefault(t.dst, []).append(nctx)
                    best[key] = cand
                elif nscore > cur[0] or (nscore == cur[0] and cand[1] < cur[1]):
                    best[key] = cand
    if result is None:
        raise ValueError("empty language")
    value = result[0] - log_z
    return DivergenceValue(value=value, witness=result[1])


def _expected_counts_enumerate(machine: Wfa, order: int, limit: int
                               ) -> dict[tuple[str, ...], np.ndarray]:
    support = enumerate_support(machine, limit)
    z = sum(w for _, w in support)
    n_sym = len(machine.alphabet)
    sym = {a: i for i, a in enumerate(machine.alphabet)}
    counts: dict[tuple[str, ...], np.ndarray] = {}
    for seq, w in support:
        p = w / z
        for t, a in enumerate(seq):
            ctx = tuple(seq[max(0, t - order + 1):t])
            row = counts.get(ctx)
            if row is None:
                row = counts.setdefault(ctx, np.zeros(n_sym))
            row[sym[a]] += p
    return counts


def vertex_comparators(competitor: Wfa, limit: int = 100_000):
    """Point-mass comparators, one per accepting path."""
    for seq, _ in enumerate_support(competitor, limit):
        yield {seq: 1.0}


# -- the per-edge walks the regret report's sweeps replaced -----------------------------
#
# log_power_sum, phi_expand and evaluate as the library had them before
# they became sweeps and lookups on edge columns, kept as references.
# They walk Transition objects and the arcs() dicts.


def log_sum(logs) -> float:
    """Stable log(sum(exp(l) for l in logs)) over plain (positive) logs."""
    m = NEG_INF
    for l in logs:
        if l > m:
            m = l
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(l - m) for l in logs))


def log_power_sum(machine: Wfa, eta: float) -> float:
    """log of the sum over accepting paths of (path weight)**eta."""
    from wfa_hedge.wfa import topological_order
    order = topological_order(machine)
    d = [NEG_INF] * machine.num_states
    for q in reversed(order):
        parts = []
        fw = machine.final_weight(q)
        if fw > 0.0:
            parts.append(eta * math.log(fw))
        for t in machine.arcs(q).values():
            if t.weight > 0.0 and d[t.dst] > NEG_INF:
                parts.append(eta * math.log(t.weight) + d[t.dst])
        d[q] = log_sum(parts) if parts else NEG_INF
    return d[machine.initial]


def phi_expand(machine: PhiWfa) -> Wfa:
    """Plain WFA with the same weighted language.

    Each (state, symbol) is resolved through the phi chain; hub states
    disappear because nothing effective stops on them.  Only states
    reachable through effective transitions are kept.
    """
    ids = {machine.initial: 0}
    order = [machine.initial]
    ts: list[Transition] = []
    queue = deque([machine.initial])
    while queue:
        q = queue.popleft()
        for a in machine.alphabet:
            r = resolve_symbol(machine, q, a)
            if r is None or r[0] == 0.0:
                continue
            w, dst = r
            if dst not in ids:
                ids[dst] = len(order)
                order.append(dst)
                queue.append(dst)
            ts.append(Transition(ids[q], a, w, ids[dst]))
    finals = {ids[q]: w for q, w in machine.finals.items() if q in ids}
    names = None
    if machine.state_names is not None:
        names = [machine.state_names[q] for q in order]
    return Wfa(machine.alphabet, len(order), 0, finals, ts, names)


def evaluate(wfa: Wfa, sequence) -> float:
    """Weight assigned to ``sequence``; 0 when no accepting path exists."""
    q = wfa.initial
    w = 1.0
    for a in sequence:
        t = wfa.arcs(q).get(a)
        if t is None:
            return 0.0
        w *= t.weight
        q = t.dst
    return w * wfa.final_weight(q)


# -- the path expectations the forward-backward sweep replaced --------------------------
#
# The dict forward pass behind ml_ngram, the enumerating relative entropy
# and the array Renyi tuner (with its path_distribution input), as the
# library had them before ML counts, KL and the tuner became edge
# posteriors and power sums on the machine; and the log-domain edge
# posteriors those read until they took the engine's scaled
# forward-backward sweep.  Kept as references.


def _expected_counts_forward_backward(machine: Wfa, order: int
                                      ) -> dict[tuple[str, ...], np.ndarray]:
    """Expected n-gram counts without enumerating paths.

    Forward weights are propagated over (state, context) pairs; backward
    weights only depend on the state, so the product alpha * w * beta
    gives the mass of all paths using a given edge under a given context.
    """
    from wfa_hedge.wfa import topological_order
    beta = backward_distances(machine)
    z = beta[machine.initial]
    if z <= 0.0:
        raise ValueError("empty language")
    order_states = topological_order(machine)
    n_sym = len(machine.alphabet)
    sym = {a: i for i, a in enumerate(machine.alphabet)}
    alpha: dict[int, dict[tuple[str, ...], float]] = {q: {} for q in range(machine.num_states)}
    alpha[machine.initial][()] = 1.0
    counts: dict[tuple[str, ...], np.ndarray] = {}
    k = order - 1
    for q in order_states:
        for ctx, mass in alpha[q].items():
            if mass == 0.0:
                continue
            for t in machine.arcs(q).values():
                if t.weight == 0.0:
                    continue
                row = counts.get(ctx)
                if row is None:
                    row = counts.setdefault(ctx, np.zeros(n_sym))
                row[sym[t.label]] += mass * t.weight * beta[t.dst] / z
                nxt = (ctx + (t.label,))[-k:] if k > 0 else ()
                cell = alpha[t.dst]
                cell[nxt] = cell.get(nxt, 0.0) + mass * t.weight
    return counts


def _edge_marginals(machine: Wfa) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Posteriors under the path distribution w(x) / Z of a plain acyclic
    machine: of each transition, alpha[src] * w * beta[dst] / Z, and of
    each state as a path's end; then each state's log final weight, and
    log Z.  Alpha and beta come from a forward and a backward log-sum-exp
    sweep over the plan's generations on the edge-log column, the
    log-domain scheme the fits used before they read the engine's scaled
    forward-backward sweep.  Raises ValueError on an empty language.
    """
    beta, final = _backward_logs(machine)  # refuses phi edges
    topo = _plan(machine) if machine.compiled is None else machine.compiled.topo
    c, log_w = machine.columns, _edge_logs(machine)
    log_z = float(beta[machine.initial])
    if log_z == NEG_INF:
        raise ValueError("empty language")
    usable = c.weight > 0.0
    alpha = np.full(machine.num_states, NEG_INF)
    alpha[machine.initial] = 0.0
    for g in range(len(topo.off) - 1):
        e = topo.edges[topo.edge_off[g]:topo.edge_off[g + 1]]
        e = e[usable[e]]
        np.logaddexp.at(alpha, c.dst[e], alpha[c.src[e]] + log_w[e])
    edge = np.where(usable, np.exp(alpha[c.src] + log_w + beta[c.dst] - log_z), 0.0)
    return edge, np.exp(alpha + final - log_z), final, log_z


def enumerated_posteriors(machine: Wfa, limit: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Edge and end posteriors of a plain deterministic machine by path
    enumeration: each supported sequence adds w / Z to the transitions
    its path takes and to the state it ends at."""
    support = enumerate_support(machine, limit)
    z = sum(w for _, w in support)
    c, arc = machine.columns, {}
    for e, (q, a) in enumerate(zip(c.src.tolist(), c.label.tolist())):
        arc.setdefault((q, machine.alphabet[a]), e)  # the first of a repeated arc wins
    edge, end = np.zeros(len(c.src)), np.zeros(machine.num_states)
    for seq, w in support:
        q = machine.initial
        for a in seq:
            edge[arc[q, a]] += w / z
            q = int(c.dst[arc[q, a]])
        end[q] += w / z
    return edge, end


def kl_divergence(machine: Wfa, model: NGramModel, limit: int = 100_000) -> float:
    """Relative entropy from the machine's path distribution to the model."""
    support = enumerate_support(machine, limit)
    z = sum(w for _, w in support)
    total = 0.0
    for seq, w in support:
        p = w / z
        lp_model = model.sequence_logprob(seq)
        if lp_model == float("-inf"):
            return math.inf
        total += p * (math.log(p) - lp_model)
    return total


def path_distribution(machine: Wfa, limit: int = 100_000) -> dict[tuple[str, ...], float]:
    """Normalized path weights by enumeration (desk-scale helper)."""
    support = enumerate_support(machine, limit)
    z = sum(w for _, w in support)
    return {seq: w / z for seq, w in support}


def _renyi_smooth(q: np.ndarray, eta: float) -> float:
    if abs(eta - 1.0) < 1e-12:
        return shannon_entropy(q)
    return renyi_entropy(q, eta)


def tune_eta_renyi(q, horizon: int, tol: float = 1e-10) -> float:
    """Solve eta / sqrt(H_eta(q)) = sqrt(8 / T) by bisection.

    The left side is increasing in eta (H_eta is non-increasing), so the
    root is unique.  Requires at least two supported sequences.
    """
    q = np.asarray(q, dtype=float)
    q = q[q > 0]
    if q.size < 2:
        raise ValueError("entropy tuning needs at least two supported sequences")
    target = math.sqrt(8.0 / horizon)

    def f(eta: float) -> float:
        h = _renyi_smooth(q, eta)
        if h <= 0:
            return float("inf")
        return eta / math.sqrt(h) - target

    lo = 1e-12
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("failed to bracket the tuning equation")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- the linear reweighting walks the log-domain sweep replaced ----------------------
#
# backward_distances, weight_push and power_weights, and their phi
# versions, as the library had them before they became column code over
# the log-domain backward sweep, kept as references.  They walk
# Transition objects, the arcs() dicts and resolve_symbol, in linear
# arithmetic, so they overflow where the library does not.


def power_weights(wfa: Wfa, eta: float) -> Wfa:
    """Raise every transition and final weight to the power ``eta``.

    On a deterministic machine this maps string weights w to w**eta.
    """
    if eta <= 0:
        raise ValueError("exponent must be positive")
    if eta == 1.0:
        return wfa
    ts = [Transition(t.src, t.label, t.weight ** eta, t.dst) for t in wfa.transitions]
    finals = {q: w ** eta for q, w in wfa.finals.items()}
    return Wfa(wfa.alphabet, wfa.num_states, wfa.initial, finals, ts, wfa.state_names)


def backward_distances(wfa: Wfa) -> dict[int, float]:
    """Sum of path weights from each state to the final states.

    One reverse-topological pass; requires an acyclic machine.
    """
    order = topological_order(wfa)
    d = {q: 0.0 for q in range(wfa.num_states)}
    for q in reversed(order):
        total = wfa.final_weight(q) if q in wfa.finals else 0.0
        for t in wfa.arcs(q).values():
            total += t.weight * d[t.dst]
        d[q] = total
    return d


def weight_push(wfa: Wfa) -> Wfa:
    """Reweight so outgoing weights plus final weight sum to 1 per state.

    Transition weights become d[src]^-1 * w * d[dst] and final weights
    d[q]^-1 * rho[q], where d is the backward distance table.  Path
    weights are preserved up to the global factor d[initial] (exactly
    preserved when d[initial] == 1).  Dead states (d == 0) are dropped;
    an empty language is an error.
    """
    d = backward_distances(wfa)
    if d[wfa.initial] == 0.0:
        raise ValueError("weight pushing needs a non-empty language")
    alive = [q for q in range(wfa.num_states) if d[q] > 0.0]
    # Forward-reachability prune as well, to keep the machine trim.
    reach = {wfa.initial}
    stack = [wfa.initial]
    while stack:
        q = stack.pop()
        for t in wfa.arcs(q).values():
            if d[t.dst] > 0.0 and t.dst not in reach:
                reach.add(t.dst)
                stack.append(t.dst)
    keep = [q for q in alive if q in reach]
    remap = {q: i for i, q in enumerate(keep)}
    ts = []
    for t in wfa.transitions:
        if t.src in remap and t.dst in remap and t.weight > 0.0:
            ts.append(Transition(remap[t.src], t.label,
                                 t.weight * d[t.dst] / d[t.src], remap[t.dst]))
    finals = {remap[q]: w / d[q] for q, w in wfa.finals.items() if q in remap}
    names = None
    if wfa.state_names is not None:
        names = [wfa.state_names[q] for q in keep]
    return Wfa(wfa.alphabet, len(keep), remap[wfa.initial], finals, ts, names)


def phi_backward_distances(machine: PhiWfa) -> dict[int, float]:
    """Sum over legal (shadow-respecting) paths from each state to final."""
    from wfa_hedge.wfa import topological_order  # this module's skips phi edges
    order = topological_order(machine)
    d = {q: 0.0 for q in range(machine.num_states)}
    for q in reversed(order):
        total = machine.final_weight(q)
        for a in machine.alphabet:
            r = resolve_symbol(machine, q, a)
            if r is not None and r[0] > 0.0:
                total += r[0] * d[r[1]]
        d[q] = total
    return d


def power_weights_phi(machine: PhiWfa, eta: float) -> PhiWfa:
    """Raise every weight (phi weights included) to the power ``eta``."""
    if eta <= 0:
        raise ValueError("exponent must be positive")
    if eta == 1.0:
        return machine
    ts = [Transition(t.src, t.label, t.weight ** eta, t.dst) for t in machine.transitions]
    finals = {q: w ** eta for q, w in machine.finals.items()}
    return PhiWfa(machine.alphabet, machine.num_states, machine.initial, finals, ts,
                  stored_names(machine), machine.operand_labels)


def weight_push_phi(machine: PhiWfa) -> PhiWfa:
    """Reweight so effective outgoing weights plus final weight sum to 1.

    Every transition (phi ones too) becomes d[src]^-1 w d[dst]; since the
    corrections the engine applies are products of edge weights as well,
    equivalence with the expanded machine is preserved.
    """
    d = phi_backward_distances(machine)
    if d[machine.initial] == 0.0:
        raise ValueError("weight pushing needs a non-empty language")
    ts = []
    for i, t in enumerate(machine.transitions):
        if d[t.src] > 0.0 and d[t.dst] > 0.0:
            ts.append(Transition(t.src, t.label, t.weight * d[t.dst] / d[t.src], t.dst))
        else:
            ts.append(t)  # dead region, weight irrelevant but keep indices stable
    finals = {q: w / d[q] for q, w in machine.finals.items() if d[q] > 0.0}
    return PhiWfa(machine.alphabet, machine.num_states, machine.initial, finals, ts,
                  stored_names(machine), machine.operand_labels)


# -- the dict-of-rows n-gram code the one probability array replaced -------------------
# The table loop of ml_ngram, the Transition loop of ngram_to_wfa, the
# subgradient walk, the prod-EG run over a dict of rows and the two-loop
# select_order, as the library had them before a model became one
# (contexts x symbols) array, kept as references.  The divergence they
# call is the dict walk above.


def ml_ngram(machine: Wfa, order: int) -> NGramModel:
    """Maximum-likelihood n-gram fit of the machine's path distribution.

    Conditional weights are ratios of expected context counts, which
    minimizes the relative entropy from the path distribution to the
    model.  The expected count of a cell (context, symbol) is the summed
    posterior of the edges reading it in the machine's context product,
    taken from the library's one scaled forward-backward sweep
    (``CompiledMachine.posteriors``), so that the table layout is
    checked bit for bit.  Contexts that never occur get uniform rows and
    are listed in ``uniform_filled_contexts`` on the result; they cannot
    affect any supported path.
    """
    product, cell = _context_product(machine, order)
    alphabet = machine.alphabet
    n = len(alphabet)
    contexts = NGramModel._all_contexts(alphabet, order)
    counts = np.bincount(cell, product.compiled.posteriors()[0],
                         minlength=len(contexts) * n).reshape(len(contexts), n)
    tables = {}
    filled = []
    for ctx, row in zip(contexts, counts):
        if row.sum() <= 0.0:
            tables[ctx] = np.full(n, 1.0 / n)
            filled.append(ctx)
        else:
            tables[ctx] = row / row.sum()
    model = NGramModel(alphabet, order, tables)
    model.uniform_filled_contexts = tuple(filled)
    return model


def ngram_to_wfa(model: NGramModel) -> Wfa:
    """Deterministic stochastic WFA with one state per context.

    The empty context is initial, every state is final with weight one,
    and reading ``a`` in context ``c`` moves to the last (n-1) symbols
    of ``c + a`` with weight w[a | c].
    """
    contexts = NGramModel._all_contexts(model.alphabet, model.order)
    ids = {c: i for i, c in enumerate(contexts)}
    ts = []
    for c in contexts:
        row = model.tables[c]
        for i, a in enumerate(model.alphabet):
            nxt = model.context_of(c + (a,))
            ts.append(Transition(ids[c], a, float(row[i]), ids[nxt]))
    finals = {i: 1.0 for i in range(len(contexts))}
    names = [" ".join(c) if c else "<start>" for c in contexts]
    return Wfa(model.alphabet, len(contexts), 0, finals, ts, state_names=names)


def ratio_subgradient(model: NGramModel, sequence) -> dict[tuple[str, ...], np.ndarray]:
    """Gradient of -log q_w(x) in the conditional weights.

    Entry [ctx][a] is -count_x(ctx, a) / w[a | ctx] for the n-gram
    occurrences in ``x`` and zero elsewhere.  Touched entries must have
    positive weight.
    """
    grads = {ctx: np.zeros(len(model.alphabet)) for ctx in model.tables}
    for t, a in enumerate(sequence):
        ctx = model.context_of(sequence[:t])
        w = model.tables[ctx][model.sym_index[a]]
        if w == 0.0:
            raise ValueError(f"zero weight on touched entry {ctx} -> {a}")
        grads[ctx][model.sym_index[a]] -= 1.0 / w
    return grads


class ProdEGRun:
    """Incremental mirror-descent state, one update per step() call."""

    def __init__(self, machine: Wfa, order: int,
                 step_mode: str = "adaptive", step_scale: Optional[float] = None):
        self.machine = machine
        self.model = uniform_model(machine.alphabet, order)
        self.sum_tables = {c: r.copy() for c, r in self.model.tables.items()}
        self.steps = 1  # the uniform start has been "played"
        self.grad_sq_sum = 0.0
        self.grad_sup_norms: list[float] = []
        self.etas: list[float] = []
        n = len(machine.alphabet)
        m = self.model.num_simplices()
        if step_scale is None:
            step_scale = math.sqrt(m * math.log(n) / 2.0)
        self.step_scale = step_scale
        if step_mode not in ("adaptive", "constant"):
            raise ValueError("unknown step mode")
        self.step_mode = step_mode

    def step(self) -> None:
        div = divergence_inf(self.machine, self.model)
        if div.value <= 0.0:
            # Global optimum: the objective is non-negative, so stop
            # moving and let the average absorb the current point.
            self.grad_sup_norms.append(0.0)
            self.etas.append(0.0)
            for ctx, row in self.model.tables.items():
                self.sum_tables[ctx] += row
            self.steps += 1
            return
        x = div.witness
        g = ratio_subgradient(self.model, x)
        sup = max((float(np.abs(r).max()) for r in g.values()), default=0.0)
        if self.step_mode == "adaptive":
            self.grad_sq_sum += sup * sup
            eta = self.step_scale / math.sqrt(self.grad_sq_sum) if self.grad_sq_sum > 0 else 0.0
        else:
            eta = self.step_scale
        if eta > 0 and sup > 0:
            # Every touched row is checked before any is written: an
            # overflowing step leaves the iterate as it was.
            new = {}
            for ctx, row in self.model.tables.items():
                if g[ctx].any():
                    with np.errstate(over="ignore"):
                        nrow = row * np.exp(-eta * g[ctx])
                        total = nrow.sum()
                    if not math.isfinite(total):
                        raise ValueError(f"step scale {self.step_scale!r} overflows the update "
                                         f"of context {ctx}; use a smaller one")
                    new[ctx] = nrow / total
            for ctx, row in new.items():
                self.model.tables[ctx][:] = row
        self.grad_sup_norms.append(sup)
        self.etas.append(eta)
        for ctx, row in self.model.tables.items():
            self.sum_tables[ctx] += row
        self.steps += 1

    def average(self) -> NGramModel:
        tables = {c: r / self.steps for c, r in self.sum_tables.items()}
        return NGramModel(self.machine.alphabet, self.model.order, tables)

    def grad_sum(self) -> float:
        return float(sum(self.grad_sup_norms))


def select_order(machine: Wfa, iterations: int, budget: int,
                 step_mode: str = "adaptive") -> SelectionResult:
    """Smallest n-gram order fitting the budget and the regret target.

    An order passes when it survives the whole iteration budget without
    a violation, that is without the running objective minus the
    optimization slack exceeding sqrt(T).  The doubling phase doubles
    the order (restarting from uniform) on the first violation, as long
    as a level of the doubled model, |Sigma|^(2n), stays within the
    per-round edge budget; a binary search over [1, n_max] with the same
    pass notion then returns the smallest passing order.  When the
    budget blocks every adequate order, the unigram comes back flagged.
    """
    n_sym = len(machine.alphabet)
    if budget < n_sym:
        raise ValueError("budget below a single level of any model")
    target = math.sqrt(machine.compiled.horizon)

    def probe(order: int) -> tuple[bool, NGramModel, float, float]:
        """Run the full budget at one order; fail on the first violation."""
        run = ProdEGRun(machine, order, step_mode)
        ok = True
        for _ in range(iterations):
            run.step()
            obj = divergence_inf(machine, run.average()).value
            if obj - _slack(n_sym, order, run.steps - 1, run.grad_sum()) > target:
                ok = False
                break
        avg = run.average()
        obj = divergence_inf(machine, avg).value
        slack = _slack(n_sym, order, run.steps - 1, run.grad_sum())
        return ok, avg, obj, slack

    tried = []
    order = 1
    run = ProdEGRun(machine, order, step_mode)
    s = 0
    budget_blocked = False
    violated = False
    while s < iterations:
        run.step()
        s += 1
        obj = divergence_inf(machine, run.average()).value
        if obj - _slack(n_sym, order, run.steps - 1, run.grad_sum()) > target:
            if n_sym ** (2 * order) <= budget:
                order *= 2
                run = ProdEGRun(machine, order, step_mode)
                s = 0
                violated = False
            else:
                budget_blocked = True
                violated = True
    n_max = order
    avg = run.average()
    obj = divergence_inf(machine, avg).value
    slack = _slack(n_sym, order, run.steps - 1, run.grad_sum())
    tried.append((n_max, not violated, obj, slack))
    if violated:
        if n_max != 1:
            _, avg, obj, slack = probe(1)
        return SelectionResult(model=avg, order=1, feasible=False,
                               objective=obj, slack=slack,
                               budget_limited=budget_blocked, tried=tried)

    best = (n_max, avg, obj, slack)
    lo, hi = 1, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        ok_mid, model_mid, obj_mid, slack_mid = probe(mid)
        tried.append((mid, ok_mid, obj_mid, slack_mid))
        if ok_mid:
            hi = mid
            best = (mid, model_mid, obj_mid, slack_mid)
        else:
            lo = mid + 1
    return SelectionResult(model=best[1], order=best[0], feasible=True,
                           objective=best[2], slack=best[3],
                           budget_limited=False, tried=tried)


# -- the failure-transition dict walks the chain walker replaced -----------------------
#
# resolve_symbol, reads_directly, shadowed_continuation and evaluate_phi
# as the library had them before every phi chain walk went through one
# array walker, and the dict phi_convert with its _EdgeView and
# phi_source_subset, as they were before the greedy search ran on edge
# columns, kept as references.  They walk Transition objects and the
# arcs() and phi_arcs() views, following phi edges until none is left: a
# PhiWfa refuses phi cycles, so every walk ends.
# phi_convert catches only CyclicAutomatonError, as the library does, so
# a repeated (state, label) raises here too.


def resolve_symbol(machine: PhiWfa, state: int, symbol: str) -> Optional[tuple[float, int]]:
    """Effective (weight, destination) for reading ``symbol`` at ``state``.

    Follows the phi chain with shadowing; returns None when the symbol
    cannot be read.  Composition outputs use the pair-aware rule: advance
    only the side(s) that do not define the symbol yet.
    """
    w = 1.0
    q = state
    while True:
        t = machine.arcs(q).get(symbol)
        if t is not None:
            return (w * t.weight, t.dst)
        phis = machine.phi_arcs(q)
        if not phis:
            return None
        if machine.operand_labels is None:
            step = phis[0]
        else:
            left, right = pair_at(machine, q)
            in_left = symbol in left
            in_right = symbol in right
            if in_left and in_right:
                # Both sides define it but no composed edge was built:
                # the destination pair was not co-accessible.
                return None
            want = "right" if in_left else ("left" if in_right else "both")
            step = None
            for cand in phis:
                if move_of(machine, cand) == want:
                    step = cand
                    break
            if step is None:
                return None
        w *= step.weight
        q = step.dst


def reads_directly(machine: PhiWfa, state: int, symbol: str) -> bool:
    """Whether ``state`` reads ``symbol`` without its phi chain.

    A composition state does when both sides define the symbol (its
    operand tables), even if the composed edge was trimmed because no
    completion follows it: the symbol is then unreadable there, and the
    chain must not be consulted either.
    """
    if machine.operand_labels is None:
        return symbol in machine.arcs(state)
    left, right = pair_at(machine, state)
    return symbol in left and symbol in right


def shadowed_continuation(machine: PhiWfa, state: int, symbol: str
                          ) -> Optional[tuple[float, Transition]]:
    """First shadowed ``symbol`` edge hanging off ``state``'s phi chain.

    ``state`` reads ``symbol`` directly; the returned pair is the
    accumulated phi weight down to the first chain state that reads it
    too, together with that state's edge (None when there is no such
    state or it has no such edge).  This is the path mass a summing
    traversal over-counts and the engine must cancel.  Chain-style
    machines only (single phi per state).
    """
    phi = machine.phi_arc(state)
    if phi is None:
        return None
    w = phi.weight
    q = phi.dst
    while True:
        if reads_directly(machine, q, symbol):
            t = machine.arcs(q).get(symbol)
            return None if t is None else (w, t)
        nxt = machine.phi_arc(q)
        if nxt is None:
            return None
        w *= nxt.weight
        q = nxt.dst


def evaluate_phi(machine: PhiWfa, sequence: Sequence[str]) -> float:
    """Weight of ``sequence`` under failure-transition semantics."""
    q = machine.initial
    w = 1.0
    for a in sequence:
        r = resolve_symbol(machine, q, a)
        if r is None:
            return 0.0
        w *= r[0]
        q = r[1]
    return w * machine.final_weight(q)


def phi_source_subset(wfa: Wfa, q: int) -> tuple[set[tuple[str, float]], list[int]]:
    """Greedy parent subset sharing (label, weight) edges into ``q``.

    Grows the parent set one state at a time, always adding the parent
    that keeps the shared edge set largest (ties: lowest state id), and
    returns the prefix maximizing |S||Q| - (|S| + |Q|).
    """
    return _phi_source_subset(_EdgeView.from_wfa(wfa), q)


@dataclass
class _EdgeView:
    """Mutable adjacency used while converting."""
    out: list[dict[str, tuple[float, int]]]
    phi_of: dict[int, int]  # src -> hub

    @classmethod
    def from_wfa(cls, wfa: Wfa) -> "_EdgeView":
        out = [dict() for _ in range(wfa.num_states)]
        for t in wfa.transitions:
            out[t.src][t.label] = (t.weight, t.dst)
        return cls(out=out, phi_of={})

    def parents_of(self, q: int) -> list[int]:
        ps = set()
        for p, arcs in enumerate(self.out):
            for w, dst in arcs.values():
                if dst == q:
                    ps.add(p)
        return sorted(ps)

    def edges_into(self, p: int, q: int) -> set[tuple[str, float]]:
        return {(a, w) for a, (w, dst) in self.out[p].items() if dst == q}


def _phi_source_subset(view: _EdgeView, q: int) -> tuple[set[tuple[str, float]], list[int]]:
    # Parents that already carry a phi transition are not eligible:
    # a state gets at most one.
    parents = [p for p in view.parents_of(q) if p not in view.phi_of]
    chosen: list[int] = []
    shared: set[tuple[str, float]] = set()
    best = (float("-inf"), set(), [])
    for _ in range(len(parents)):
        cand_best = None
        for p in parents:
            if p in chosen:
                continue
            s = view.edges_into(p, q) if not chosen else shared & view.edges_into(p, q)
            if cand_best is None or len(s) > len(cand_best[1]):
                cand_best = (p, s)
        if cand_best is None:
            break
        chosen = chosen + [cand_best[0]]
        shared = cand_best[1]
        benefit = len(shared) * len(chosen) - (len(shared) + len(chosen))
        if benefit > best[0]:
            best = (benefit, set(shared), list(chosen))
    return best[1], best[2]


def phi_convert(wfa: Wfa) -> PhiWfa:
    """Introduce failure transitions wherever the edge count shrinks.

    Visits non-initial states in topological order (ascending id on
    cyclic machines).  For a state q whose greedy parent subset shares S
    edges over Q parents with |S| + |Q| < |S||Q|, a hub state is
    inserted: each parent gets a weight-1 phi transition to the hub, the
    shared edges move onto the hub, and the parents drop them.  The
    weighted language is unchanged.  The returned machine carries the
    per-state events in ``conversion_events``.
    """
    from wfa_hedge.wfa import topological_order  # this module's skips phi edges
    view = _EdgeView.from_wfa(wfa)
    try:
        order = topological_order(wfa)
    except CyclicAutomatonError:
        order = list(range(wfa.num_states))
    events: list[ConversionEvent] = []
    num_states = wfa.num_states
    hub_edges: list[Transition] = []
    for q in order:
        if q == wfa.initial:
            continue
        shared, parents = _phi_source_subset(view, q)
        ns, nq = len(shared), len(parents)
        if ns + nq >= ns * nq:
            continue
        hub = num_states
        num_states += 1
        for p in parents:
            view.phi_of[p] = hub
            for a, w in shared:
                del view.out[p][a]
        for a, w in sorted(shared):
            hub_edges.append(Transition(hub, a, w, q))
        events.append(ConversionEvent(
            target=q, hub=hub,
            shared_labels=tuple(sorted(shared)),
            parents=tuple(parents),
            transition_delta=ns + nq - ns * nq))

    ts: list[Transition] = []
    for p, arcs in enumerate(view.out):
        for a in sorted(arcs):
            w, dst = arcs[a]
            ts.append(Transition(p, a, w, dst))
    for p, hub in sorted(view.phi_of.items()):
        ts.append(Transition(p, PHI, 1.0, hub))
    ts.extend(hub_edges)
    names = None
    if wfa.state_names is not None:
        names = list(wfa.state_names) + [f"hub{e.hub}" for e in events]
    result = PhiWfa(wfa.alphabet, num_states, wfa.initial, dict(wfa.finals), ts, names)
    result.conversion_events = tuple(events)
    return result


# -- the expansion-based regret report the compiled sweeps replaced ----------------------
#
# summarize as the library had it while a run's report read the played
# machine with its phi chains expanded: K counted, both best paths swept
# and log Z summed on phi_expand of the product.


def played(state) -> Wfa:
    """A run's played length-T sequences as a plain horizon product: its
    product, phi chains expanded."""
    from wfa_hedge.hedge import horizon_product
    from wfa_hedge.phi import phi_expand
    if not isinstance(state.machine, PhiWfa):
        return state.machine
    return horizon_product(phi_expand(state.machine), state.T)


def product_arcs(product: Wfa, machine: Wfa) -> np.ndarray:
    """For each transition of ``horizon_product(machine, T)``, the index
    of the transition of ``machine`` it copies: the arc that reads its
    label at its source's machine state (the first of a repeated (source,
    label), as in ``arcs()``)."""
    arc: dict[tuple[int, str], int] = {}
    for i, t in enumerate(machine.transitions):
        arc.setdefault((t.src, t.label), i)
    return np.array([arc[product.state_names[t.src][0], t.label] for t in product.transitions],
                    np.intp)


def summarize(state):
    """Regret values and bound values for a finished run, on played(state)."""
    from wfa_hedge.hedge import RegretReport, best_competitor
    from wfa_hedge.wfa import count_accepting_paths
    if state.rounds_done != state.T:
        raise ValueError("run is not finished")
    ps, ls = state.p_history, state.loss_history
    ct = played(state)
    eta, T, K = state.eta, state.T, count_accepting_paths(ct)
    algo = sum(float(np.dot(p, l)) for p, l in zip(ps, ls))
    seq, path_loss, log_q = best_competitor(ct, ls, weighted=True)
    w_reg = algo - path_loss + log_q + math.log(K)
    u_reg = algo - best_competitor(ct, ls, weighted=False)[1]
    log_sum_q_eta = state.log_Z_eta - eta * state.log_Z
    bound_tight = eta * T / 8.0 + (1.0 / eta) * (eta * math.log(K) + log_sum_q_eta)
    bound_loose = eta * T / 8.0 + (1.0 / eta) * math.log(K)
    return RegretReport(
        eta=eta, horizon=T, num_experts=state.num_experts, num_sequences=K,
        p_rounds=[p.tolist() for p in ps],
        losses=[l.tolist() for l in ls],
        expected_losses=list(state.expected_losses),
        cumulative_loss=state.cumulative_loss,
        best_sequence=seq, best_sequence_loss=path_loss,
        weighted_regret=w_reg, unweighted_regret=u_reg,
        weighted_bound=bound_tight, weighted_bound_loose=bound_loose,
        unweighted_bound=bound_loose,
        touched_per_round=list(state.touched_per_round),
        work_per_round=list(state.work_per_round),
    )


# -- the length-T product by the generic product search ----------------------------
# horizon_product intersected the competitor with the length acceptor, and
# CompiledMachine read the levels back out of the product's state names.


def horizon_product(competitor, horizon: int):
    """The competitor intersected with the length-``horizon`` acceptor:
    its sequences of that length, which the engine plays and the regret
    report and the n-gram fits read.  ValueError when there is none."""
    from wfa_hedge.builders import length_automaton
    from wfa_hedge.phi import phi_intersect
    from wfa_hedge.wfa import intersect
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s_t = length_automaton(len(competitor.alphabet), horizon, alphabet=competitor.alphabet)
    # The acceptor has no phi edges, so the product stays chain-style.
    if isinstance(competitor, PhiWfa) and competitor.has_phi():
        inter = phi_intersect(competitor, s_t)
    else:
        inter = intersect(competitor, s_t)
    if not inter.finals:
        raise ValueError("no competitor sequence of this length")
    return inter


def level_numbered(machine):
    """A length-T intersection with its states renumbered by (level,
    competitor state), the first two fields of their names, as the
    unroll numbers them; ties (a filter split) keep their order.  The
    consuming edges come first and then the phi edges, each stably by
    source, as the unroll lays them out."""
    names = machine.state_names
    q = np.fromiter((name[0] for name in names), np.intp, machine.num_states)
    level = np.fromiter((name[1] for name in names), np.intp, machine.num_states)
    order = np.lexsort((q, level))
    renum = np.empty(len(order), np.intp)
    renum[order] = np.arange(len(order))
    c = machine.columns
    src, dst = renum[c.src], renum[c.dst]
    by_src = np.lexsort((src, c.label < 0))
    args = (machine.alphabet, machine.num_states, int(renum[machine.initial]),
            dict(sorted((int(renum[s]), w) for s, w in machine.finals.items())), src[by_src],
            c.label[by_src], c.weight[by_src], dst[by_src],
            np.array([names[s] for s in order.tolist()]))
    if not isinstance(machine, PhiWfa):
        return Wfa.from_columns(*args)
    return PhiWfa.from_columns(*args, machine.operand_labels)


def compile_product(machine, horizon: int):
    """A length-T intersection as a CompiledMachine of
    ``level_numbered(machine)``, whose state and transition ids it uses,
    and its shadow corrections taken from shadow_rows on that whole
    product."""
    from wfa_hedge.hedge import CompiledMachine
    from wfa_hedge.phi import _phi_chain_depth
    self = CompiledMachine.__new__(CompiledMachine)
    machine = level_numbered(machine)
    cols, n_s = machine.columns, machine.num_states
    # Intersection states are (competitor state, length-acceptor
    # state, ...) tuples, and the length-acceptor state is the level.
    level = np.fromiter((name[1] for name in machine.state_names), np.intp, n_s)
    self.level = level.astype(np.int32)
    self.level.flags.writeable = False
    self.alphabet, self.weight = machine.alphabet, cols.weight
    self.horizon = horizon
    self.num_states = n_s
    self.initial = machine.initial
    self.state_off = np.searchsorted(level, np.arange(horizon + 2))

    src, dst, label = cols.src, cols.dst, cols.label
    self.log_w = np.array([math.log(w) if w > 0 else -math.inf for w in cols.weight.tolist()])
    self.final = np.zeros(n_s)
    for q, w in machine.finals.items():
        self.final[q] = w

    # Consuming edges, then the shadow corrections of phi machines.
    rows = shadow_rows(machine) if isinstance(machine, PhiWfa) else []
    shadowing = np.array([r[0] for r in rows], np.intp)
    shadowed = np.array([r[1] for r in rows], np.intp)
    chain_w = np.array([r[2] for r in rows], float)
    real = np.flatnonzero(label >= 0)
    self.src = np.concatenate([src[real], shadowing])
    self.dst = dst[np.concatenate([real, shadowed])] - self.state_off[level[self.src] + 1]
    tid = np.concatenate([real, shadowed])
    coef = np.concatenate([np.ones(len(real)), -chain_w])
    key = 2 * level[self.src] + np.repeat([0, 1], [len(real), len(shadowing)])
    by_level = np.argsort(key, kind="stable")
    self.src, self.dst = self.src[by_level], self.dst[by_level]
    self.tid, self.coef = tid[by_level], coef[by_level]
    self.label = label[self.tid]
    key = key[by_level]
    self.edge_off = np.searchsorted(key, 2 * np.arange(horizon + 2))
    self.real_end = np.searchsorted(key, 2 * np.arange(horizon + 1) + 1)
    self._so, self._eo = self.state_off.tolist(), self.edge_off.tolist()

    # Phi edges by (level, longest phi path into the source): a
    # group only reads states whose phi inflow is complete.
    pid = np.flatnonzero(label < 0)
    self.phi_depth = depth = _phi_chain_depth(dst[pid], src[pid], n_s)
    pkey = level[src[pid]] * (depth.max() + 1) + depth[src[pid]]
    by_key = np.argsort(pkey, kind="stable")
    self.ptid = pid[by_key]
    self.psrc, self.pdst = src[self.ptid], dst[self.ptid]
    starts = np.flatnonzero(np.diff(pkey[by_key], prepend=-1))
    self.group_bounds = np.append(starts, len(pid))
    self.group_off = np.searchsorted(level[self.psrc[starts]], np.arange(horizon + 2))
    return self
