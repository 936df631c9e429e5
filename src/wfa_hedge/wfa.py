"""Deterministic weighted finite automata over the probability semiring.

Weights live in (R+ u {+inf}, +, x, 0, 1): a path's weight is the product
of its transition weights times the final weight of its endpoint, and a
string's weight is the weight of its unique accepting path (automata here
are deterministic, so there is at most one).

A :class:`Wfa` stores its transitions as edge columns: numpy arrays of
source, label id (the symbol's index in the alphabet), weight and
destination, one entry per transition (:class:`Columns`).  Bulk
operations (intersection, topological generations, path counting, the
engine's compile step) read the columns directly.  The per-edge views,
``transitions`` and ``arcs()``, are built from the columns on first
access and cached.  A :class:`Wfa` is immutable after construction: the
columns are read-only arrays and the cached views never change once
built (two threads racing to build one build equal values), so a
machine is safe to share across threads.  Every operation in this
module is a pure function returning a new automaton or a plain value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Transition",
    "Columns",
    "Wfa",
    "CyclicAutomatonError",
    "default_alphabet",
    "evaluate",
    "intersect",
    "power_weights",
    "topological_order",
    "state_levels",
    "backward_distances",
    "weight_push",
    "count_accepting_paths",
    "enumerate_support",
    "leveled_best_path",
    "validate",
]


class CyclicAutomatonError(ValueError):
    """Raised by operations that require an acyclic automaton."""


@dataclass(frozen=True, slots=True)
class Transition:
    src: int
    label: str
    weight: float
    dst: int


def default_alphabet(n: int) -> tuple[str, ...]:
    """Symbols 'a'..'z' for small n, 'e0','e1',... beyond that."""
    if n < 1:
        raise ValueError("alphabet needs at least one symbol")
    if n <= 26:
        return tuple(chr(ord("a") + i) for i in range(n))
    return tuple(f"e{i}" for i in range(n))


class Columns(NamedTuple):
    """A machine's edges as arrays, one entry per transition, in
    transition order.  ``label`` is the symbol's index in the alphabet;
    -1 marks a failure (phi) edge of a :class:`~wfa_hedge.phi.PhiWfa`."""
    src: np.ndarray
    label: np.ndarray
    weight: np.ndarray
    dst: np.ndarray


def _columns_of(transitions: tuple[Transition, ...], index: dict[str, int]) -> Columns:
    """Edge columns of ``transitions``; labels missing from ``index`` get -1."""
    n = len(transitions)
    return _frozen(Columns(
        np.fromiter((t.src for t in transitions), np.intp, n),
        np.fromiter((index.get(t.label, -1) for t in transitions), np.intp, n),
        np.fromiter((t.weight for t in transitions), float, n),
        np.fromiter((t.dst for t in transitions), np.intp, n)))


def _frozen(cols: Columns) -> Columns:
    for a in cols:
        a.flags.writeable = False
    return cols


def _first_bad_edge(cols: Columns, num_states: int,
                    num_labels: int) -> Optional[tuple[int, bool]]:
    """(index, whether out of range) of the first transition with a state
    out of range or a label id outside [0, num_labels), or None."""
    out = ((cols.src < 0) | (cols.src >= num_states)
           | (cols.dst < 0) | (cols.dst >= num_states))
    bad = np.flatnonzero(out | (cols.label < 0) | (cols.label >= num_labels))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, bool(out[i])


class Wfa:
    """A deterministic WFA.

    Construction checks structural integrity (state ids in range, labels
    drawn from the alphabet, a single initial state).  The semantic
    invariants, determinism and non-negative weights, are what
    :func:`validate` reports on, so a broken machine can still be built
    and diagnosed.  All builders in this package emit valid machines.
    ``state_names`` is optional provenance kept for debugging
    (intersection stores the originating state pairs there).

    ``columns`` is the stored form of the transitions.  Build a machine
    from :class:`Transition` objects with the constructor, or from
    arrays with :meth:`from_columns`.
    """

    __slots__ = ("alphabet", "num_states", "initial", "finals", "columns",
                 "state_names", "_transitions", "_out", "_topo")

    def __init__(self, alphabet: Sequence[str], num_states: int, initial: int,
                 finals: dict[int, float], transitions: Iterable[Transition],
                 state_names: Optional[Sequence] = None):
        self._set_header(alphabet, num_states, initial, finals, state_names)
        ts = tuple(transitions)
        cols = _columns_of(ts, {a: i for i, a in enumerate(self.alphabet)})
        bad = _first_bad_edge(cols, num_states, len(self.alphabet))
        if bad is not None:
            i, out_of_range = bad
            if out_of_range:
                raise ValueError(f"transition {ts[i]} out of range")
            raise ValueError(f"unknown symbol {ts[i].label!r}")
        self.columns = cols
        self._transitions = ts

    @classmethod
    def from_columns(cls, alphabet: Sequence[str], num_states: int, initial: int,
                     finals: dict[int, float], src, label, weight, dst,
                     state_names: Optional[Sequence] = None) -> "Wfa":
        """Machine whose transition i is (src[i], alphabet[label[i]],
        weight[i], dst[i]).  The arrays are copied."""
        self = cls.__new__(cls)
        self._set_header(alphabet, num_states, initial, finals, state_names)
        cols = Columns(np.array(src, np.intp), np.array(label, np.intp),
                       np.array(weight, float), np.array(dst, np.intp))
        if any(a.ndim != 1 or len(a) != len(cols.src) for a in cols):
            raise ValueError("edge columns must be 1-d arrays of one length")
        bad = _first_bad_edge(cols, num_states, len(self.alphabet))
        if bad is not None:
            i, out_of_range = bad
            if out_of_range:
                raise ValueError(f"transition {i} ({cols.src[i]} -> {cols.dst[i]}) "
                                 "out of range")
            raise ValueError(f"unknown symbol id {cols.label[i]} on transition {i}")
        self.columns = _frozen(cols)
        self._transitions = None
        return self

    def _set_header(self, alphabet, num_states, initial, finals, state_names) -> None:
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate symbols in alphabet")
        self.num_states = num_states
        if not (0 <= initial < num_states):
            raise ValueError("initial state out of range")
        self.initial = initial
        self.finals = dict(finals)
        for q in self.finals:
            if not (0 <= q < num_states):
                raise ValueError(f"final state {q} out of range")
        self.state_names = tuple(state_names) if state_names is not None else None
        self._out = None
        self._topo = None

    # -- queries ----------------------------------------------------------

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """The transitions as objects, in column order (built on first use)."""
        if self._transitions is None:
            c = self.columns
            labels = [self.alphabet[i] for i in c.label.tolist()]
            self._transitions = tuple(map(Transition, c.src.tolist(), labels,
                                          c.weight.tolist(), c.dst.tolist()))
        return self._transitions

    def arcs(self, state: int) -> dict[str, Transition]:
        """Outgoing transitions of ``state`` keyed by label."""
        if self._out is None:
            out: list[dict[str, Transition]] = [dict() for _ in range(self.num_states)]
            for t in self.transitions:
                # First transition wins in the index; validate() flags duplicates.
                out[t.src].setdefault(t.label, t)
            self._out = tuple(out)
        return self._out[state]

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, 0.0)

    def is_final(self, state: int) -> bool:
        return state in self.finals

    def __repr__(self) -> str:
        return (f"Wfa(states={self.num_states}, transitions={len(self.columns.src)}, "
                f"finals={len(self.finals)}, alphabet={self.alphabet})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[str]],
                       alphabet: Optional[Sequence[str]] = None,
                       weight: float = 1.0) -> "Wfa":
        """Trie acceptor assigning ``weight`` to each listed sequence.

        Handy for building small test machines from an explicit support.
        """
        seqs = [tuple(s) for s in sequences]
        if alphabet is None:
            alphabet = sorted({a for s in seqs for a in s})
        next_id = 1
        children: dict[tuple[int, str], int] = {}
        finals: dict[int, float] = {}
        transitions = []
        for s in seqs:
            q = 0
            for a in s:
                key = (q, a)
                if key not in children:
                    children[key] = next_id
                    transitions.append(Transition(q, a, 1.0, next_id))
                    next_id += 1
                q = children[key]
            finals[q] = weight
        return cls(alphabet, next_id, 0, finals, transitions)


# -- evaluation ------------------------------------------------------------


def evaluate(wfa: Wfa, sequence: Sequence[str]) -> float:
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


# -- intersection -----------------------------------------------------------


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[i], stops[i]) over i."""
    lens = stops - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


def _sorted_arcs(machine: Wfa, rank: np.ndarray) -> tuple[np.ndarray, ...]:
    """The machine's arcs sorted by key src * |alphabet| + rank[label]:
    (keys, weights, destinations).  The first transition of a duplicated
    (src, label) wins, as in ``arcs()``."""
    c = machine.columns
    real = np.flatnonzero(c.label >= 0)
    keys, first = np.unique(c.src[real] * len(rank) + rank[c.label[real]], return_index=True)
    return keys, c.weight[real[first]], c.dst[real[first]]


def intersect(a1: Wfa, a2: Wfa) -> Wfa:
    """Product automaton: (a1 & a2)(x) = a1(x) * a2(x) for every x.

    States are pairs of states reachable in both machines; transitions
    pair equal labels and multiply weights.  Only accessible and
    co-accessible pairs are kept, so the result is trim.

    The search is breadth-first, one frontier at a time, as array
    operations: a frontier pair's a1-arcs are matched to a2-arcs by a
    sorted-key lookup, and pairs not seen before get the next ids in
    order of first occurrence.  States are numbered in discovery order,
    each state's arcs follow in sorted label order, and ``state_names``
    holds the (a1 state, a2 state) pairs.
    """
    if a1.alphabet != a2.alphabet:
        raise ValueError("alphabet mismatch in intersection")
    n_sym, n2 = len(a1.alphabet), a2.num_states
    by_rank = np.array(sorted(range(n_sym), key=a1.alphabet.__getitem__), np.intp)
    rank = np.empty(n_sym, np.intp)
    rank[by_rank] = np.arange(n_sym)
    key1, w1, d1 = _sorted_arcs(a1, rank)
    key2, w2, d2 = _sorted_arcs(a2, rank)
    off1 = np.searchsorted(key1, np.arange(a1.num_states + 1) * n_sym)
    rank1, pair1 = key1 % n_sym, d1 * n2
    key2 = np.append(key2, np.iinfo(key2.dtype).max)  # a miss never runs off the end

    # Pairs are coded q1 * |Q2| + q2.  Frontier k holds the ids
    # lo..next_id-1, discovered while frontier k-1 was expanded.
    start = a1.initial * n2 + a2.initial
    ids = {start: 0}
    frontier = np.array([start])
    codes, srcs, arcs1, arcs2, dsts = [frontier], [], [], [], []
    next_id = 1
    while frontier.size:
        lo = next_id - len(frontier)
        q1, q2 = np.divmod(frontier, n2)
        # Each frontier pair's a1-arcs in label order, matched to a2's.
        fan = off1[q1 + 1] - off1[q1]
        e1 = _ranges(off1[q1], off1[q1 + 1])
        owner = np.repeat(np.arange(len(frontier)), fan)
        want = q2[owner] * n_sym + rank1[e1]
        e2 = np.searchsorted(key2, want)
        hit = np.flatnonzero(key2[e2] == want)
        e1, e2, owner = e1[hit], e2[hit], owner[hit]
        pair = pair1[e1] + d2[e2]
        # Unseen pairs get the next ids in order of first occurrence.
        u, first, inv = np.unique(pair, return_index=True, return_inverse=True)
        uid = np.fromiter(map(ids.get, u.tolist(), repeat(-1, len(u))), np.intp, len(u))
        new = np.flatnonzero(uid < 0)
        new = new[np.argsort(first[new])]
        uid[new] = next_id + np.arange(len(new))
        frontier = u[new]
        ids.update(zip(frontier.tolist(), uid[new].tolist()))
        codes.append(frontier)
        srcs.append(lo + owner)
        arcs1.append(e1)
        arcs2.append(e2)
        dsts.append(uid[inv])
        next_id += len(new)
    code, src, dst = np.concatenate(codes), np.concatenate(srcs), np.concatenate(dsts)
    e1, e2 = np.concatenate(arcs1), np.concatenate(arcs2)
    p1, p2 = np.divmod(code, n2)

    # Finals: every pair of final states, zero weights included.
    f1, f2 = np.zeros(a1.num_states, bool), np.zeros(n2, bool)
    fw1, fw2 = np.zeros(a1.num_states), np.zeros(n2)
    for f, fw, m in ((f1, fw1, a1), (f2, fw2, a2)):
        q = np.fromiter(m.finals, np.intp, len(m.finals))
        f[q] = True
        fw[q] = np.fromiter(m.finals.values(), float, len(m.finals))
    final = np.flatnonzero(f1[p1] & f2[p2])

    # Keep only co-accessible states: a reverse breadth-first sweep.
    by_dst = np.argsort(dst, kind="stable")
    roff = np.searchsorted(dst[by_dst], np.arange(len(code) + 1))
    alive = np.zeros(len(code), bool)
    alive[final] = True
    back = final
    slot = np.empty(len(code), np.intp)  # dedupes each new batch in place of a sort
    while back.size:
        pred = src[by_dst[_ranges(roff[back], roff[back + 1])]]
        pred = pred[~alive[pred]]
        alive[pred] = True
        at = np.arange(len(pred))
        slot[pred] = at
        back = pred[slot[pred] == at]
    if not alive[0]:
        return Wfa(a1.alphabet, 1, 0, {}, [], state_names=[(a1.initial, a2.initial)])
    remap = np.cumsum(alive) - 1
    keep = np.flatnonzero(alive[dst])
    e1, e2 = e1[keep], e2[keep]
    finals = dict(zip(remap[final].tolist(), (fw1[p1[final]] * fw2[p2[final]]).tolist()))
    names = list(zip(p1[alive].tolist(), p2[alive].tolist()))
    return Wfa.from_columns(a1.alphabet, len(names), 0, finals, remap[src[keep]],
                            by_rank[rank1[e1]], w1[e1] * w2[e2], remap[dst[keep]],
                            state_names=names)


# -- reweighting ------------------------------------------------------------


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


# -- graph structure ---------------------------------------------------------


def _generations(wfa: Wfa) -> tuple[np.ndarray, np.ndarray]:
    """States in FIFO Kahn order, and where each generation starts in it.

    Generation 0 holds the states without incoming transitions, in id
    order; generation g + 1 holds the states whose last incoming
    transition leaves generation g, in the order those transitions are
    processed (by source position, then transition order).  That is the
    order a FIFO queue produces.  Computed once per machine from the
    columns and cached.  Raises ValueError naming a (state, label) pair
    two transitions share, and CyclicAutomatonError on a cycle.
    """
    if wfa._topo is None:
        c, n = wfa.columns, wfa.num_states
        key = c.src * len(wfa.alphabet)
        key += c.label
        key = key[c.label >= 0]  # phi edges may share a source
        key.sort()
        if (key[1:] == key[:-1]).any():
            i = _first_repeated_arc(c)
            raise ValueError(f"two {wfa.alphabet[c.label[i]]!r}-transitions "
                             f"leave state {c.src[i]}")
        by_src = np.argsort(c.src, kind="stable")
        off = np.concatenate(([0], np.cumsum(np.bincount(c.src, minlength=n))))
        dst = c.dst[by_src]
        indeg = np.bincount(c.dst, minlength=n)
        gens = [np.flatnonzero(indeg == 0)]
        while True:
            d = dst[_ranges(off[gens[-1]], off[gens[-1] + 1])]
            # Each target's count in d, and its last position there.
            u, rfirst, cnt = np.unique(d[::-1], return_index=True, return_counts=True)
            indeg[u] -= cnt
            ready = indeg[u] == 0
            if not ready.any():
                break
            gens.append(u[ready][np.argsort(rfirst[ready])[::-1]])
        order = np.concatenate(gens)
        if len(order) != n:
            raise CyclicAutomatonError("automaton contains a cycle")
        wfa._topo = order, np.cumsum([0] + [len(g) for g in gens])
    return wfa._topo


def _first_repeated_arc(c: Columns) -> int:
    """Index of the first transition whose (src, label) an earlier one has."""
    real = np.flatnonzero(c.label >= 0)
    key = c.src[real] * (c.label.max() + 1) + c.label[real]
    by_key = np.argsort(key, kind="stable")
    return int(real[by_key[1:][key[by_key[1:]] == key[by_key[:-1]]].min()])


def topological_order(wfa: Wfa) -> list[int]:
    """States in topological order, the order of a FIFO Kahn queue.

    Raises CyclicAutomatonError on cycles, and ValueError when two
    transitions leave one state with the same label.
    """
    return _generations(wfa)[0].tolist()


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


# -- path aggregation ---------------------------------------------------------


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


def count_accepting_paths(wfa: Wfa) -> int:
    """Number of accepting paths with strictly positive weight.

    Exact at any size: one sweep over the topological generations, last
    to first, in Python integers.
    """
    order, gen_off = _generations(wfa)
    c = wfa.columns
    if (c.label < 0).any():
        raise ValueError("phi edges are not paths; count on phi_expand(machine)")
    counts = np.zeros(wfa.num_states, dtype=object)
    for q, w in wfa.finals.items():
        if w > 0.0:
            counts[q] = 1
    n_gen = len(gen_off) - 1
    gen = np.empty(wfa.num_states, np.intp)
    gen[order] = np.repeat(np.arange(n_gen), np.diff(gen_off))
    gen = gen[c.src]  # of each edge's source
    by_gen = np.argsort(gen, kind="stable")
    edge_off = np.concatenate(([0], np.cumsum(np.bincount(gen, minlength=n_gen))))
    for g in range(n_gen - 1, -1, -1):
        e = by_gen[edge_off[g]:edge_off[g + 1]]
        e = e[c.weight[e] > 0.0]
        np.add.at(counts, c.src[e], counts[c.dst[e]])
    return int(counts[wfa.initial])


def enumerate_support(wfa: Wfa, limit: int = 100_000) -> list[tuple[tuple[str, ...], float]]:
    """Exhaustive list of (sequence, weight) pairs with positive weight.

    Depth-first over the acyclic machine, labels in sorted order, with an
    explicit stack, so path length is not bounded by the recursion
    limit.  Raises ValueError past ``limit`` paths.  Used as the
    brute-force oracle throughout the test-suite.
    """
    topological_order(wfa)  # acyclicity check
    out: list[tuple[tuple[str, ...], float]] = []
    prefix: list[str] = []

    def enter(q: int, w: float):
        fw = wfa.final_weight(q)
        if fw > 0.0:
            if len(out) >= limit:
                raise ValueError(f"support larger than limit={limit}")
            out.append((tuple(prefix), w * fw))
        arcs = wfa.arcs(q)
        return iter([arcs[label] for label in sorted(arcs)]), w

    stack = [enter(wfa.initial, 1.0)]
    while stack:
        arcs, w = stack[-1]
        t = next(arcs, None)
        if t is None:
            stack.pop()
            if stack:
                prefix.pop()
        elif t.weight > 0.0:
            prefix.append(t.label)
            stack.append(enter(t.dst, w * t.weight))
    return out


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


# -- diagnostics --------------------------------------------------------------


@dataclass
class Diagnostics:
    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def validate(wfa: Wfa) -> Diagnostics:
    """Report-only structural check: determinism, weights, reachability."""
    errors: list[str] = []
    warnings: list[str] = []
    seen: set[tuple[int, str]] = set()
    for t in wfa.transitions:
        if (t.src, t.label) in seen:
            errors.append(f"two {t.label!r}-transitions leave state {t.src}")
        seen.add((t.src, t.label))
        if t.weight < 0:
            errors.append(f"negative weight on {t}")
    for q, w in wfa.finals.items():
        if w < 0:
            errors.append(f"negative final weight at state {q}")
    reach = {wfa.initial}
    stack = [wfa.initial]
    while stack:
        q = stack.pop()
        for t in wfa.arcs(q).values():
            if t.dst not in reach:
                reach.add(t.dst)
                stack.append(t.dst)
    for q in range(wfa.num_states):
        if q not in reach:
            warnings.append(f"state {q} unreachable from initial")
    if not wfa.finals:
        warnings.append("no final states")
    return Diagnostics(ok=not errors, errors=errors, warnings=warnings)
