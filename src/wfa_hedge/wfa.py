"""Deterministic weighted finite automata over the probability semiring.

Weights live in (R+ u {+inf}, +, x, 0, 1): a path's weight is the product
of its transition weights times the final weight of its endpoint, and a
string's weight is the weight of its unique accepting path (automata here
are deterministic, so there is at most one).

A :class:`Wfa` stores its transitions as edge columns: numpy arrays of
source, label id (the symbol's index in the alphabet), weight and
destination, one entry per transition (:class:`Columns`).  Bulk
operations (intersection, path sums, path counting, best paths, the
engine's compile step) read the columns directly.  Built on first use
and cached on the machine are: the per-edge views ``transitions`` and
``arcs()``; a product's ``state_names``, the tuples of its ``origin``
rows; one arc index by (source, label rank) (:func:`_arc_index`),
which :func:`evaluate`, the products, the unroll and :func:`validate`
read; the one exact-log column of the edge weights; the n-gram context
products (:func:`~wfa_hedge.ngram._context_product`); and, on an
uncompiled machine, one Kahn plan (:class:`_Topo`): the topological
generations that the path sums of an acyclic machine sweep.

A length-T machine, one whose sequences all have length T, is a
:func:`~wfa_hedge.hedge.horizon_product` output (or a fit's context
product of one) and carries its one description, level-sorted arrays,
in ``compiled``.  Its path count, log normaliser, horizon, levels and
best paths (:func:`leveled_best_path`) are read off those arrays only
(any other machine raises ValueError); the log-domain path sums here sweep
their levels, and the fits read its one scaled forward-backward sweep.  A
:class:`Wfa` is immutable after construction: the columns are read-only arrays
and the cached values never change once built (two threads racing to build one
build equal values), so a machine is safe to share across threads.  Every
operation in this module is a pure function returning a new automaton or a plain value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Optional, Sequence

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
    "backward_distances",
    "weight_push",
    "count_accepting_paths",
    "log_power_sum",
    "enumerate_support",
    "BestPath",
    "leveled_best_path",
    "levels",
    "exact_logs",
    "log_weight_range",
    "validate",
]


PHI = "<phi>"  # the label of a failure transition, label id -1 in the columns
NEG_INF = float("-inf")


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


def _columns_of(transitions: tuple[Transition, ...], alphabet: tuple[str, ...]) -> Columns:
    """Edge columns of ``transitions``: PHI gets label -1 unless the
    alphabet has it, a label outside the alphabet -2."""
    index = {PHI: -1}
    index.update((a, i) for i, a in enumerate(alphabet))
    n = len(transitions)
    return Columns(
        np.fromiter((t.src for t in transitions), np.intp, n),
        np.fromiter((index.get(t.label, -2) for t in transitions), np.intp, n),
        np.fromiter((t.weight for t in transitions), float, n),
        np.fromiter((t.dst for t in transitions), np.intp, n))


def _column_arrays(src, label, weight, dst) -> Columns:
    """Copies of the given edge arrays, checked for shape."""
    cols = Columns(np.array(src, np.intp), np.array(label, np.intp),
                   np.array(weight, float), np.array(dst, np.intp))
    if any(a.ndim != 1 or len(a) != len(cols.src) for a in cols):
        raise ValueError("edge columns must be 1-d arrays of one length")
    return cols


def _frozen(cols: Columns) -> Columns:
    for a in cols:
        a.flags.writeable = False
    return cols


def _check_edges(cols: Columns, ts: Optional[tuple[Transition, ...]], num_states: int,
                 alphabet: tuple[str, ...], phi: bool) -> None:
    """Raises ValueError on the first transition with a state out of range
    or a label outside the alphabet.  With ``phi`` (failure-transition
    machines) label -1 is allowed, and a negative weight or a second
    transition with the same (source, label) is an error too.  Messages
    name the :class:`Transition` when the machine was built from them,
    the transition's index when it was built from columns."""
    n_sym = len(alphabet)
    out = ((cols.src < 0) | (cols.src >= num_states)
           | (cols.dst < 0) | (cols.dst >= num_states))
    unknown = (cols.label < (-1 if phi else 0)) | (cols.label >= n_sym)
    bad = out | unknown
    if phi:
        negative = cols.weight < 0
        real = np.flatnonzero(~unknown & (cols.label >= 0))
        again = np.zeros(len(bad), bool)
        again[real] = True
        again[real[_arc_keys(cols.src[real], cols.label[real], np.arange(n_sym))[1]]] = False
        bad |= negative | again
    hits = np.flatnonzero(bad)
    if not hits.size:
        return
    i = int(hits[0])
    t = None if ts is None else ts[i]
    if out[i]:
        raise ValueError(f"transition {t} out of range" if t is not None else
                         f"transition {i} ({cols.src[i]} -> {cols.dst[i]}) out of range")
    if phi and negative[i]:
        raise ValueError(f"negative transition weight on {t}" if t is not None else
                         f"negative transition weight {cols.weight[i]} on transition {i}")
    if unknown[i]:
        raise ValueError(f"unknown symbol {t.label!r}" if t is not None else
                         f"unknown symbol id {cols.label[i]} on transition {i}")
    raise ValueError(f"nondeterministic on {alphabet[cols.label[i]]!r} at state {cols.src[i]}")


class Wfa:
    """A deterministic WFA.

    Construction checks structural integrity (state ids in range, labels
    drawn from the alphabet, a single initial state).  The semantic
    invariants, determinism and non-negative weights, are what
    :func:`validate` reports on, so a broken machine can still be built
    and diagnosed.  All builders in this package emit valid machines.
    ``state_names`` is optional provenance kept for debugging; a product
    gives an integer array of one row per state, kept as ``origin``.

    ``columns`` is the stored form of the transitions.  Build a machine
    from :class:`Transition` objects with the constructor, or from
    arrays with :meth:`from_columns`.  ``compiled`` holds the level-sorted
    arrays of a length-T product from :func:`~wfa_hedge.hedge.horizon_product`
    or of a fit's context product of one (None on any other machine).
    """

    __slots__ = ("alphabet", "num_states", "initial", "finals", "columns", "origin",
                 "compiled", "_names", "_transitions", "_out", "_topo", "_keys", "_logs",
                 "_products")

    def __init__(self, alphabet: Sequence[str], num_states: int, initial: int,
                 finals: dict[int, float], transitions: Iterable[Transition],
                 state_names: Optional[Sequence] = None):
        self._store(alphabet, num_states, initial, finals, state_names,
                    None, tuple(transitions))

    @classmethod
    def from_columns(cls, alphabet: Sequence[str], num_states: int, initial: int,
                     finals: dict[int, float], src, label, weight, dst,
                     state_names: Optional[Sequence] = None) -> "Wfa":
        """Machine whose transition i is (src[i], alphabet[label[i]],
        weight[i], dst[i]).  The arrays are copied."""
        self = cls.__new__(cls)
        self._store(alphabet, num_states, initial, finals, state_names,
                    _column_arrays(src, label, weight, dst), None)
        return self

    def _store(self, alphabet, num_states, initial, finals, state_names,
               cols: Optional[Columns], ts: Optional[tuple[Transition, ...]]) -> None:
        """Checks and stores a machine given by its columns, its
        transitions, or both (then they must agree)."""
        self._set_header(alphabet, num_states, initial, finals, state_names)
        if cols is None:
            cols = _columns_of(ts, self.alphabet)
        self._check(cols, ts)
        self.columns = _frozen(cols)
        self._transitions = ts

    def _check(self, cols: Columns, ts: Optional[tuple[Transition, ...]]) -> None:
        _check_edges(cols, ts, self.num_states, self.alphabet, phi=False)

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
        self.origin = self._names = None
        if isinstance(state_names, np.ndarray):
            self.origin = np.array(state_names, np.intp)
            self.origin.flags.writeable = False
            if self.origin.ndim != 2 or len(self.origin) != num_states:
                raise ValueError("an origin array has one row per state")
        elif state_names is not None:
            self._names = tuple(state_names)
        self.compiled = self._out = self._topo = self._keys = self._logs = None
        self._products = {}  # n-gram order -> (state, context) product, see ngram

    # -- queries ----------------------------------------------------------

    @property
    def state_names(self) -> Optional[tuple]:
        """Each state's name (None: none), an ``origin`` row as a tuple."""
        if self._names is None and self.origin is not None:
            self._names = tuple(map(tuple, self.origin.tolist()))
        return self._names

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """The transitions as objects, in column order (built on first use)."""
        if self._transitions is None:
            c = self.columns
            symbols = self.alphabet + (PHI,)  # label -1 is a phi edge
            labels = [symbols[i] for i in c.label.tolist()]
            self._transitions = tuple(map(Transition, c.src.tolist(), labels,
                                          c.weight.tolist(), c.dst.tolist()))
        return self._transitions

    def arcs(self, state: int) -> dict[str, Transition]:
        """Outgoing transitions of ``state`` keyed by label (phi edges
        are not arcs)."""
        if self._out is None:
            out: list[dict[str, Transition]] = [dict() for _ in range(self.num_states)]
            for t in compress(self.transitions, (self.columns.label >= 0).tolist()):
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


def _arc_keys(src: np.ndarray, label: np.ndarray, rank: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Arc keys src * len(rank) + rank[label], sorted and each once, and
    the position of each key's first arc (the first of a repeated
    (source, label) wins, as in ``arcs()``)."""
    return np.unique(src * len(rank) + rank[label], return_index=True)


def _arc_index(wfa: Wfa) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The machine's arcs for lookups by (source, label): their
    :func:`_arc_keys` under the labels' sorted-string ranks, the
    transition of each key, and the ranks, padded with one entry for a
    symbol outside the alphabet.  Keys and transitions end in a sentinel,
    the largest key with transition -1, so a search for a missing key
    stays in range.  Built once per machine and cached."""
    if wfa._keys is None:
        c, rank = wfa.columns, _label_ranks(wfa.alphabet)
        real = np.flatnonzero(c.label >= 0)
        keys, first = _arc_keys(c.src[real], c.label[real], rank)
        wfa._keys = (np.append(keys, np.iinfo(np.intp).max), np.append(real[first], -1),
                     np.append(rank, len(rank)))
    return wfa._keys


def _find_arcs(wfa: Wfa, state: np.ndarray, label: np.ndarray) -> np.ndarray:
    """The transition reading label[i] at state[i], -1 where none does."""
    keys, edges, rank = _arc_index(wfa)
    want = state * len(wfa.alphabet) + rank[label]
    at = np.searchsorted(keys, want)
    return np.where(keys[at] == want, edges[at], -1)


def evaluate(wfa: Wfa, sequence: Sequence[str]) -> float:
    """Weight assigned to ``sequence``; 0 when no accepting path exists.

    One lookup per symbol in the machine's sorted arc keys.  A phi edge
    raises ValueError (see :func:`~wfa_hedge.phi.phi_expand`)."""
    _refuse_phi(wfa)
    keys, edges, rank = _arc_index(wfa)
    c, n_sym = wfa.columns, len(wfa.alphabet)
    index = dict(zip(wfa.alphabet, rank.tolist()))
    q = wfa.initial
    w = 1.0
    for a in sequence:
        i = index.get(a)
        if i is None:
            return 0.0
        key = q * n_sym + i
        at = np.searchsorted(keys, key)
        if keys[at] != key:
            return 0.0
        w *= float(c.weight[edges[at]])
        q = int(c.dst[edges[at]])
    return w * wfa.final_weight(q)


# -- intersection -----------------------------------------------------------


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[i], stops[i]) over i."""
    lens = stops - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


def _label_ranks(alphabet: Sequence[str]) -> np.ndarray:
    """Each symbol id's place in the sorted-string order of the labels."""
    rank = np.empty(len(alphabet), np.intp)
    rank[sorted(range(len(alphabet)), key=alphabet.__getitem__)] = np.arange(len(alphabet))
    return rank


class _ArcPairs:
    """The arcs of two machines over one alphabet, indexed for the
    product searches: ``match`` pairs up same-label arcs by a lookup in
    the second machine's :func:`_arc_index`, with no dense |Q| x
    |alphabet| table.  Labels are taken in sorted-string order, the order
    ``sorted(machine.arcs(q))`` gives."""

    def __init__(self, a1: Wfa, a2: Wfa):
        if a1.alphabet != a2.alphabet:
            raise ValueError("alphabet mismatch in intersection")
        self.n_sym = n_sym = len(a1.alphabet)
        (key1, arc1, _), (self.key2, arc2, _) = _arc_index(a1), _arc_index(a2)
        arc1, arc2 = arc1[:-1], arc2[:-1]  # without the sentinels
        c1, c2 = a1.columns, a2.columns
        self.w1, self.d1, self.label1 = c1.weight[arc1], c1.dst[arc1], c1.label[arc1]
        self.w2, self.d2 = c2.weight[arc2], c2.dst[arc2]
        self.off1 = np.searchsorted(key1, np.arange(a1.num_states + 1) * n_sym)
        self.rank1 = key1[:-1] % n_sym

    def match(self, q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, ...]:
        """(owner, e1, e2): for each i, the a1-arcs e1 leaving q1[i] in
        label order that have a same-label a2-arc e2 leaving q2[i]."""
        off1 = self.off1
        e1 = _ranges(off1[q1], off1[q1 + 1])
        owner = np.repeat(np.arange(len(q1)), off1[q1 + 1] - off1[q1])
        want = q2[owner] * self.n_sym + self.rank1[e1]
        e2 = np.searchsorted(self.key2, want)
        hit = np.flatnonzero(self.key2[e2] == want)
        return owner[hit], e1[hit], e2[hit]


def _search(start: int, expand) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Breadth-first search over integer-coded nodes, one frontier at a time.

    ``expand(frontier)`` returns the frontier's out-edges as (owner, node
    code, payload): owner indexes the frontier, the edges are sorted by
    owner and then in the order a node takes its arcs, and payload is a
    tuple of per-edge arrays.  Nodes get ids in order of first occurrence,
    as a FIFO queue assigns them.  Returns the node codes by id, each
    edge's source and target ids, and the payload arrays, edges in the
    order a FIFO queue produces them.
    """
    ids = {start: 0}
    frontier = np.array([start])
    codes, srcs, dsts, payloads = [frontier], [], [], []
    next_id = 1
    while frontier.size:
        lo = next_id - len(frontier)
        owner, code, payload = expand(frontier)
        # Unseen nodes get the next ids in order of first occurrence.
        u, first, inv = np.unique(code, return_index=True, return_inverse=True)
        uid = np.fromiter(map(ids.get, u.tolist(), repeat(-1, len(u))), np.intp, len(u))
        new = np.flatnonzero(uid < 0)
        new = new[np.argsort(first[new])]
        uid[new] = next_id + np.arange(len(new))
        frontier = u[new]
        ids.update(zip(frontier.tolist(), uid[new].tolist()))
        codes.append(frontier)
        srcs.append(lo + owner)
        dsts.append(uid[inv])
        payloads.append(payload)
        next_id += len(new)
    return (np.concatenate(codes), np.concatenate(srcs), np.concatenate(dsts),
            [np.concatenate(p) for p in zip(*payloads)])


def _final_weights(machine: Wfa) -> tuple[np.ndarray, np.ndarray]:
    """(whether final, final weight) per state; zero weights are final."""
    is_final, weight = np.zeros(machine.num_states, bool), np.zeros(machine.num_states)
    q = np.fromiter(machine.finals, np.intp, len(machine.finals))
    is_final[q] = True
    weight[q] = np.fromiter(machine.finals.values(), float, len(machine.finals))
    return is_final, weight


def _coaccessible(src: np.ndarray, dst: np.ndarray, final: np.ndarray, n: int) -> np.ndarray:
    """Which of n states reach a state in ``final``: a reverse
    breadth-first sweep over the edges src -> dst."""
    by_dst = np.argsort(dst, kind="stable")
    roff = np.searchsorted(dst[by_dst], np.arange(n + 1))
    alive = np.zeros(n, bool)
    alive[final] = True
    back = final
    slot = np.empty(n, np.intp)  # dedupes each new batch in place of a sort
    while back.size:
        pred = src[by_dst[_ranges(roff[back], roff[back + 1])]]
        pred = pred[~alive[pred]]
        alive[pred] = True
        at = np.arange(len(pred))
        slot[pred] = at
        back = pred[slot[pred] == at]
    return alive


def intersect(a1: Wfa, a2: Wfa) -> Wfa:
    """Product automaton: (a1 & a2)(x) = a1(x) * a2(x) for every x.

    States are pairs of states reachable in both machines; transitions
    pair equal labels and multiply weights.  Only accessible and
    co-accessible pairs are kept, so the result is trim.

    The search is breadth-first, one frontier at a time, as array
    operations: a frontier pair's a1-arcs are matched to a2-arcs by a
    sorted-key lookup, and pairs not seen before get the next ids in
    order of first occurrence.  States are numbered in discovery order,
    each state's arcs follow in sorted label order, and ``origin`` holds
    the (a1 state, a2 state) pairs.  A failure (phi) edge raises
    ValueError: read as an arc, it would change the language.
    """
    if (a1.columns.label < 0).any() or (a2.columns.label < 0).any():
        raise ValueError("intersect cannot read phi edges; use phi_intersect or phi_expand")
    arcs, n2 = _ArcPairs(a1, a2), a2.num_states

    def expand(frontier):  # pairs are coded q1 * |Q2| + q2
        owner, e1, e2 = arcs.match(*np.divmod(frontier, n2))
        return owner, arcs.d1[e1] * n2 + arcs.d2[e2], (e1, e2)

    code, src, dst, (e1, e2) = _search(a1.initial * n2 + a2.initial, expand)
    p1, p2 = np.divmod(code, n2)
    (f1, fw1), (f2, fw2) = _final_weights(a1), _final_weights(a2)
    final = np.flatnonzero(f1[p1] & f2[p2])
    alive = _coaccessible(src, dst, final, len(code))
    if not alive[0]:
        return Wfa(a1.alphabet, 1, 0, {}, [], state_names=np.array([[a1.initial, a2.initial]]))
    remap = np.cumsum(alive) - 1
    keep = np.flatnonzero(alive[dst])
    e1, e2 = e1[keep], e2[keep]
    finals = dict(zip(remap[final].tolist(), (fw1[p1[final]] * fw2[p2[final]]).tolist()))
    origin = np.column_stack((p1[alive], p2[alive]))
    return Wfa.from_columns(a1.alphabet, len(origin), 0, finals, remap[src[keep]],
                            arcs.label1[e1], arcs.w1[e1] * arcs.w2[e2], remap[dst[keep]],
                            state_names=origin)


def _stored_names(machine: Wfa, states: Optional[np.ndarray] = None):
    """The state names as ``machine`` stores them, its origin rows or its
    tuple, for a machine on ``states`` (every state when None)."""
    if machine.origin is not None:
        return machine.origin if states is None else machine.origin[states]
    names = machine._names
    return names if not names or states is None else [names[q] for q in states.tolist()]


# -- graph structure ---------------------------------------------------------


_UNCOUNTED = object()  # a plan's path count before its sweep


class _Topo:
    """A machine's level plan (its Kahn plan from :func:`_plan`, or a
    length-T machine's compiled levels): the states in FIFO Kahn order and
    where each generation starts (``order``, ``off``); the transitions
    grouped by their source's generation, in column order within a group,
    and where each group starts (``edges``, ``edge_off``); and the number
    of accepting paths (``paths``, :data:`_UNCOUNTED` until
    :func:`count_accepting_paths` sets it, to None where it may not fit
    int64)."""

    __slots__ = ("order", "off", "edges", "edge_off", "paths")

    def __init__(self, order: np.ndarray, off: np.ndarray, edges: np.ndarray,
                 edge_off: np.ndarray):
        self.order, self.off, self.edges, self.edge_off = order, off, edges, edge_off
        self.paths = _UNCOUNTED


def _generations(src: np.ndarray, dst: np.ndarray, n: int) -> list[np.ndarray]:
    """The generations of a FIFO Kahn queue over n states and the edges
    src -> dst (Kahn 1962).

    Generation 0 holds the states without incoming edges, in id order;
    generation g + 1 holds the states whose last incoming edge leaves
    generation g, in the order those edges are processed (by source
    position, then edge order), which ``np.maximum.at`` of each target's
    position gives.  States on a cycle, or behind one, are in none.
    """
    succ = dst[np.argsort(src, kind="stable")]
    off = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    indeg = np.bincount(dst, minlength=n)
    last = np.empty(n, np.intp)  # each target's last position in a batch
    gens = [np.flatnonzero(indeg == 0)]
    while True:
        d = succ[_ranges(off[gens[-1]], off[gens[-1] + 1])]
        np.subtract.at(indeg, d, 1)
        at = np.arange(len(d))
        last[d] = -1
        np.maximum.at(last, d, at)
        ready = d[(indeg[d] == 0) & (last[d] == at)]
        if not ready.size:
            return gens
        gens.append(ready)


def _plan(wfa: Wfa) -> _Topo:
    """The machine's :class:`_Topo`, built on first use.

    Its generations are :func:`_generations` over every transition (phi
    edges count), the order a FIFO queue produces.  Raises ValueError
    naming a (state, label) pair two transitions share, and
    CyclicAutomatonError on a cycle.
    """
    if wfa._topo is None:
        c, n, first = wfa.columns, wfa.num_states, _arc_index(wfa)[1][:-1]
        if len(first) < np.count_nonzero(c.label >= 0):  # phi edges may share a source
            i = np.setdiff1d(np.flatnonzero(c.label >= 0), first)[0]  # the first repeat
            raise ValueError(f"two {wfa.alphabet[c.label[i]]!r}-transitions "
                             f"leave state {c.src[i]}")
        gens = _generations(c.src, c.dst, n)
        order = np.concatenate(gens)
        if len(order) != n:
            raise CyclicAutomatonError("automaton contains a cycle")
        sizes = [len(g) for g in gens]
        gen = np.empty(n, np.intp)
        gen[order] = np.repeat(np.arange(len(gens)), sizes)
        gen = gen[c.src]  # of each edge's source
        wfa._topo = _Topo(order, np.cumsum([0] + sizes), np.argsort(gen, kind="stable"),
                          np.concatenate(([0], np.cumsum(np.bincount(gen, minlength=len(gens))))))
    return wfa._topo


def _refuse_phi(wfa: Wfa) -> None:
    """A phi edge is no step of a path: ValueError naming the phi versions."""
    if (wfa.columns.label < 0).any():
        raise ValueError("phi edges are not paths; use phi_backward_distances, "
                         "weight_push_phi, power_weights_phi or phi_expand")


def _compiled(wfa: Wfa):
    """The :class:`~wfa_hedge.hedge.CompiledMachine` of a length-T
    machine; ValueError on any machine that is not a horizon product."""
    if wfa.compiled is None:
        raise ValueError("length-T machines are horizon_product(machine, T) outputs")
    return wfa.compiled


def topological_order(wfa: Wfa) -> list[int]:
    """States in topological order, the order of a FIFO Kahn queue.

    Raises CyclicAutomatonError on cycles, and ValueError when two
    transitions leave one state with the same label.
    """
    return _plan(wfa).order.tolist()


# -- path sums and reweighting ------------------------------------------------


def power_weights(wfa: Wfa, eta: float) -> Wfa:
    """Raise every transition and final weight to the power ``eta``.

    On a deterministic machine this maps string weights w to w**eta.
    """
    if eta <= 0:
        raise ValueError("exponent must be positive")
    _refuse_phi(wfa)
    if eta == 1.0:
        return wfa
    c = wfa.columns
    return Wfa.from_columns(wfa.alphabet, wfa.num_states, wfa.initial,
                            {q: w ** eta for q, w in wfa.finals.items()},
                            c.src, c.label, c.weight ** eta, c.dst, _stored_names(wfa))


def backward_distances(wfa: Wfa) -> dict[int, float]:
    """Sum of path weights from each state to the final states: the
    exponentials of :func:`log_power_sum`'s sweep, inf past the float
    range.  Requires an acyclic machine."""
    with np.errstate(over="ignore"):
        return dict(enumerate(np.exp(_backward_logs(wfa)[0]).tolist()))


def _pushed(wfa: Wfa, log_d: np.ndarray, log_f: np.ndarray) -> tuple[np.ndarray, dict]:
    """Edge and final weights pushed by the backward log-distances and log
    final weights: w * d[dst] / d[src] on edges whose ends reach a final
    state (the others keep w), and w / d[q] at the final states that do."""
    if log_d[wfa.initial] == NEG_INF:
        raise ValueError("weight pushing needs a non-empty language")
    c, weight = wfa.columns, wfa.columns.weight.copy()
    e = np.flatnonzero((log_d[c.src] > NEG_INF) & (log_d[c.dst] > NEG_INF))
    weight[e] = np.exp(_edge_logs(wfa)[e] + log_d[c.dst[e]] - log_d[c.src[e]])
    return weight, {q: math.exp(log_f[q] - log_d[q]) for q in wfa.finals if log_d[q] > NEG_INF}


def weight_push(wfa: Wfa) -> Wfa:
    """Reweight so outgoing weights plus final weight sum to 1 per state.

    Transition weights become d[src]^-1 * w * d[dst] and final weights
    d[q]^-1 * rho[q], d the backward distances, taken in logs.  Path
    weights are preserved up to the global factor d[initial].  Dead and
    unreachable states and zero-weight edges are dropped; an empty
    language is an error.
    """
    log_d, log_f = _backward_logs(wfa)
    weight, finals = _pushed(wfa, log_d, log_f)
    c, alive = wfa.columns, log_d > NEG_INF
    arc = np.flatnonzero((c.label >= 0) & alive[c.dst])
    keep = alive & _coaccessible(c.dst[arc], c.src[arc], np.array([wfa.initial]), wfa.num_states)
    remap, kept = np.cumsum(keep) - 1, np.flatnonzero(keep)
    e = np.flatnonzero(keep[c.src] & keep[c.dst] & (c.weight > 0.0))
    return Wfa.from_columns(wfa.alphabet, len(kept), int(remap[wfa.initial]),
                            {int(remap[q]): w for q, w in finals.items() if keep[q]},
                            remap[c.src[e]], c.label[e], weight[e], remap[c.dst[e]],
                            _stored_names(wfa, kept))


def count_accepting_paths(wfa: Wfa) -> Optional[int]:
    """Number of accepting paths with strictly positive weight: exact,
    or None where it may not fit int64 (:func:`_path_count`).

    A length-T machine's is its compiled count; any other acyclic
    machine's is swept over its topological generations, last to first,
    and kept on the machine's plan, so later calls return it without
    another sweep.
    """
    _refuse_phi(wfa)
    if wfa.compiled is not None:
        return wfa.compiled.num_paths
    topo, c = _plan(wfa), wfa.columns
    if topo.paths is _UNCOUNTED:
        def steps():
            for g in range(len(topo.off) - 2, -1, -1):
                e = topo.edges[topo.edge_off[g]:topo.edge_off[g + 1]]
                e = e[c.weight[e] > 0.0]
                yield np.add, c.src[e], c.dst[e]

        ends = [q for q, w in wfa.finals.items() if w > 0.0]
        topo.paths = _path_count(wfa.num_states, ends, wfa.initial, steps())
    return topo.paths


# Each float conversion and addition of non-negative terms rounds by at
# most a factor 1 - 2**-53, so over up to 2**32 edges a float sum
# under-reads its true value by less than a factor 1 - 2**-21: a float
# bound below this limit leaves the true bound below 2**63.
_COUNT_LIMIT = 2.0 ** 63 * (1.0 - 2.0 ** -20)


def _path_count(num_states: int, ends, initial: int, steps: Iterable,
                bounded: bool = True) -> Optional[int]:
    """The path count at ``initial``, swept backward in int64: each state
    at an end counts 1, and each step ``(ufunc, src, dst)``, numpy's add
    or subtract, applies count[src] ufunc= count[dst] edge by edge, after
    the steps that settle its targets.

    Each state's bound, 1 at an end plus the float sum of |count[dst]|
    over its edges, caps every partial sum of its count.  A step's
    targets are settled and already certified exact, so while every
    bound stays below 2**63 no int64 sum wraps and the count read at the
    end is K.  The sweep returns None as soon as a bound reaches the
    limit, and never a wrapped value.  ``bounded=False`` drops the bound
    where every count is known to lie in int64.
    """
    count = np.zeros(num_states, np.int64)
    count[ends] = 1
    bound = count.astype(float) if bounded else None
    for ufunc, src, dst in steps:
        terms = count[dst]
        ufunc.at(count, src, terms)
        if bounded and len(src):
            np.add.at(bound, src, np.abs(terms).astype(float))
            if bound[src].max() >= _COUNT_LIMIT:
                return None
    return int(count[initial])


def log_power_sum(machine: Wfa, eta: float) -> float:
    """log of the sum over accepting paths of (path weight)**eta."""
    return float(_backward_logs(machine, eta)[0][machine.initial])


def _backward_logs(machine: Wfa, eta: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the log of the sum over its paths to acceptance of
    (path weight)**eta, -inf where there is none, and its log final weight.

    One reverse log-sum-exp sweep over the plan's generations (a length-T
    machine's are its compiled levels).  A
    state's terms are eta times its log final weight, if positive, and
    eta times each positive arc's log-weight plus the arc target's value,
    if finite.  They are shifted by their maximum and summed in that
    order (final, then arcs in column order) with ``math``'s log and exp,
    so the values equal a per-state walk bit for bit.
    """
    _refuse_phi(machine)
    topo = _plan(machine) if machine.compiled is None else machine.compiled.topo
    c, log_w = machine.columns, _edge_logs(machine)
    usable = c.weight > 0.0
    final = exact_logs(_final_weights(machine)[1])
    d = np.full(machine.num_states, NEG_INF)
    at = np.empty(machine.num_states, np.intp)  # each state's position in its generation
    for g in range(len(topo.off) - 2, -1, -1):
        states = topo.order[topo.off[g]:topo.off[g + 1]]
        at[states] = np.arange(len(states))
        e = topo.edges[topo.edge_off[g]:topo.edge_off[g + 1]]
        e = e[usable[e]]
        e = e[d[c.dst[e]] > NEG_INF]
        ends = states[final[states] > NEG_INF]
        owner = at[np.concatenate((ends, c.src[e]))]
        terms = np.concatenate((eta * final[ends], eta * log_w[e] + d[c.dst[e]]))
        top = np.full(len(states), NEG_INF)
        np.maximum.at(top, owner, terms)
        shifted = (terms - top[owner]).tolist()
        total = np.bincount(owner, np.fromiter(map(math.exp, shifted), float, len(shifted)),
                            minlength=len(states))
        live = np.flatnonzero(top > NEG_INF)
        d[states[live]] = top[live] + exact_logs(total[live])
    return d, final


def enumerate_support(wfa: Wfa, limit: int = 100_000) -> list[tuple[tuple[str, ...], float]]:
    """Exhaustive list of (sequence, weight) pairs with positive weight.

    Depth-first over the acyclic machine, labels in sorted order, with an
    explicit stack, so path length is not bounded by the recursion
    limit.  Raises ValueError past ``limit`` paths or on a phi edge.
    Used as the brute-force oracle throughout the test-suite.
    """
    _refuse_phi(wfa)
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


class BestPath(NamedTuple):
    """A best accepting path: its total score, its labels, and its
    transitions as indices into the machine's columns."""
    value: float
    sequence: tuple[str, ...]
    edges: np.ndarray


def exact_logs(x) -> np.ndarray:
    """``math.log`` of each entry, -inf at 0.  ``np.log`` can differ from
    it in the last bit, and best-path totals are summed from these."""
    x = np.ravel(np.asarray(x, float))
    out = np.full(len(x), -math.inf)
    positive = x > 0.0
    out[positive] = np.fromiter(map(math.log, x[positive]), float, np.count_nonzero(positive))
    return out


def _edge_logs(wfa: Wfa) -> np.ndarray:
    """:func:`exact_logs` of the edge weights in column order, kept on the
    machine read-only; a horizon product's is gathered from its competitor's."""
    if wfa._logs is None:
        wfa._logs = exact_logs(wfa.columns.weight)
        wfa._logs.flags.writeable = False
    return wfa._logs


def levels(wfa: Wfa) -> np.ndarray:
    """Each state's level in a horizon product: the number of symbols
    read to reach it; the compiled arrays' read-only int32 column."""
    return _compiled(wfa).level


def _range_min(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(x[lo[i]:hi[i]]) for each nonempty range, by one reduceat over
    the bounds (lo[0], hi[0], lo[1], ...), whose odd segments are dropped;
    x gets one more entry so that a range may end at len(x)."""
    return np.minimum.reduceat(np.append(x, x[:1]), np.column_stack((lo, hi)).ravel())[::2]


def leveled_best_path(wfa: Wfa, edge_score: np.ndarray,
                      final_score: Optional[np.ndarray] = None) -> BestPath:
    """Best accepting path of a horizon product under additive scores.

    Any other machine raises ValueError naming
    :func:`~wfa_hedge.hedge.horizon_product`.  ``edge_score`` holds a
    score per transition, in column order; ``final_score`` one per state,
    added at accepting endpoints.  A score that depends on the round
    reads it off :func:`levels`.  Edges and finals of weight 0 are on no
    path.  The largest total wins; ties go to the lexicographically
    smallest label sequence.  Returns the total, the sequence and the
    path's transitions.

    One max-plus (Viterbi) sweep, one level at a time, over the compiled
    arrays' plan (:class:`~wfa_hedge.hedge._PathPlan`).  A candidate
    edge's score is added to the best prefix total of its source, and one
    lexsort over (target, -total, rank of the source's prefix among its
    level, label rank) keeps the best edge into each target as its
    back-pointer.  A state whose best total is -inf, as where no positive
    path reaches it, ends no path.  Every path ends at level T.

    Phi edges are swept without expansion (Allauzen & Riley 2018): a
    state reads a symbol by its own edge, or else from the first state
    down its phi chain that reads it, and a step through phi edges adds
    their scores.  So a hub edge e out of h, one with phi-parents, is also
    a candidate from the best state that resolves to it: one of h's
    phi-subtree outside h and the subtrees of the sources of e's
    correction rows, found by range minima over a preorder of the level's
    phi forest, ranked by total + log_d (log_d: the summed phi scores down
    to the chain's end), then prefix rank.  It scores that key - log_d[h]
    + score[e].  The returned transitions include the phi edges of each
    step.
    """
    c, n, plan = wfa.columns, wfa.num_states, _compiled(wfa).sweep
    if len(edge_score) != len(c.src):
        raise ValueError("edge_score needs one entry per transition")
    total = np.full(n, -math.inf)
    total[wfa.initial] = 0.0
    prefix, back, came = np.zeros(n, np.intp), np.full(n, -1, np.intp), np.full(n, -1, np.intp)
    hubs, off = plan.first_off, plan.live_off
    log_d = np.zeros(n)
    for child, parent, e in plan.forest:
        log_d[child] = log_d[parent] + edge_score[e]
    # An edge scored +inf out of a state that no positive path reaches
    # (total -inf) scores NaN, which sorts after every total: it wins no
    # target that a real candidate reaches, and a NaN state ends no path.
    with np.errstate(invalid="ignore"):
        for t in range(len(off) - 1):
            e = plan.live[off[t]:off[t + 1]]
            q, dst, lr = c.src[e], c.dst[e], plan.rank[c.label[e]]
            val = total[q] + edge_score[e]
            at_hub = hubs[t] < hubs[t + 1]
            if at_hub:
                lo, hi = plan.bounds[t], plan.bounds[t + 1]
                states = plan.at[lo:hi]
                key = total[states] + log_d[states]
                best_first = np.lexsort((prefix[states], -key))
                goodness = np.empty(hi - lo, np.intp)
                goodness[best_first] = np.arange(hi - lo)
                ia, ib, fa, fb = plan.iv_off[t], plan.iv_off[t + 1], hubs[t], hubs[t + 1]
                pos = best_first[np.minimum.reduceat(
                    _range_min(goodness, plan.iv_lo[ia:ib] - lo, plan.iv_hi[ia:ib] - lo),
                    plan.first[fa:fb] - ia)]
                h = plan.hub[fa:fb]
                e, q = np.concatenate((e, h)), np.concatenate((q, states[pos]))
                dst = np.concatenate((dst, c.dst[h]))
                lr = np.concatenate((lr, plan.rank[c.label[h]]))
                val = np.concatenate((val, key[pos] - log_d[c.src[h]] + edge_score[h]))
            order = np.lexsort((lr, prefix[q], -val, dst))
            by_dst = dst[order]
            # The first edge into each target wins.
            win = order[by_dst != np.concatenate(([-1], by_dst[:-1]))]
            into = dst[win]
            total[into], back[into] = val[win], e[win]
            if at_hub:  # elsewhere each step comes from its edge's source
                came[into] = q[win]
            prefix[into[np.lexsort((lr[win], prefix[q[win]]))]] = np.arange(len(win))

    ends = plan.ends[total[plan.ends] > -math.inf]  # the reached ones
    if not ends.size:
        raise ValueError("no accepting path")
    scores = total[ends] if final_score is None else total[ends] + final_score[ends]
    top = np.flatnonzero(scores == scores.max())
    i = top[np.argmin(prefix[ends[top]])]
    steps, q = [], ends[i]
    while q != wfa.initial:
        e = back[q]
        q = s = c.src[e] if came[q] < 0 else came[q]
        chain = []  # the phi edges from the state that read the symbol to e's source
        while s != c.src[e]:
            chain.append(plan.phi_tid[s])
            s = plan.phi_to[s]
        steps += [e] + chain[::-1]
    edges = np.array(steps[::-1], np.intp)
    seq = tuple(wfa.alphabet[a] for a in c.label[edges].tolist() if a >= 0)
    return BestPath(float(scores[i]), seq, edges)


def log_weight_range(wfa: Wfa) -> tuple[float, float]:
    """Log-weights of the lightest and the heaviest accepting path of a
    horizon product, phi edges included."""
    log_w, log_f = _edge_logs(wfa), exact_logs(_compiled(wfa).final)
    lo = leveled_best_path(wfa, -log_w, -log_f)
    hi = leveled_best_path(wfa, log_w, log_f)
    return -lo.value, hi.value


# -- diagnostics --------------------------------------------------------------


@dataclass
class Diagnostics:
    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def validate(wfa: Wfa) -> Diagnostics:
    """Report-only structural check: determinism, weights, reachability
    (over arcs and phi edges)."""
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
    c = wfa.columns
    arc = np.concatenate([_arc_index(wfa)[1][:-1], np.flatnonzero(c.label < 0)])  # arcs(), phi
    reach = _coaccessible(c.dst[arc], c.src[arc], np.array([wfa.initial]), wfa.num_states)
    warnings += [f"state {q} unreachable from initial" for q in np.flatnonzero(~reach).tolist()]
    if not wfa.finals:
        warnings.append("no final states")
    return Diagnostics(ok=not errors, errors=errors, warnings=warnings)
