"""Failure-transition automata.

A failure (phi) transition carries the semantics of "other": when state q
has no outgoing transition labeled with the current symbol, the machine
follows q's phi transition without consuming the symbol and retries at
the destination.  Symbols defined directly at q therefore shadow anything
reachable through the phi chain.  Machines built here have at most one
phi transition per state and no phi cycles.

A :class:`PhiWfa` is a :class:`~wfa_hedge.wfa.Wfa` whose edge columns
also hold the phi edges, as label -1; it is checked and queried from
those arrays, and its per-edge views are built on first use, as for a
plain machine.

Composition through the three-state filter transducer produces machines
whose states remember their (left, right, filter) origin in one integer
array and which carry their operands' direct-label tables; those can
carry up to three phi transitions per state (advance left, advance
right, advance both) and are resolved with the pair-aware rule below.
:func:`phi_intersect` builds the composition as a breadth-first search
run one frontier at a time on the columns, like
:func:`~wfa_hedge.wfa.intersect`, and :func:`phi_expand` expands a phi
machine the same way, walking all (state, symbol) pairs of a frontier
down their phi chains at once.  That one walker, cached per machine,
answers every phi chain query.  A machine refuses phi cycles when it is
built, so every walk ends within ``max_phi_chain_depth()`` phi edges;
the chains are resolved without expansion as in Allauzen and Riley,
"Algorithms for weighted finite automata with failure transitions"
(CIAA 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .wfa import (PHI, Columns, CyclicAutomatonError, Transition, Wfa, _ArcPairs, _backward_logs,
                  _check_edges, _coaccessible, _column_arrays, _final_weights, _find_arcs,
                  _frozen, _label_ranks, _pushed, _ranges, _search, _stored_names,
                  backward_distances, topological_order)

__all__ = [
    "PHI",
    "PhiWfa",
    "as_phi",
    "shadowed_continuation",
    "phi_backward_distances",
    "power_weights_phi",
    "weight_push_phi",
    "phi_expand",
    "phi_convert",
    "phi_intersect",
]

# Filter transducer for composing two phi-automata: state 0 permits any
# move, state 1 only right-side moves, state 2 only left-side moves.
# Matching a real symbol resets to 0.  This admits exactly one phi path
# between any pair of composed states.
PHI_FILTER = {
    (0, "both"): 0,
    (0, "left"): 2,
    (0, "right"): 1,
    (1, "right"): 1,
    (2, "left"): 2,
}


class PhiWfa(Wfa):
    """WFA extended with failure transitions.

    The edges are stored as in :class:`Wfa`, in ``columns``, with phi
    edges as label -1; ``transitions``, ``arcs()`` and ``phi_arcs()`` are
    views built on first use.  Construction also checks what failure
    semantics need: non-negative weights, at most one arc per (state,
    symbol), no phi cycle, and at most one phi edge per state unless the
    machine is a composition output.

    ``operand_labels`` is set on composition outputs only: the (left,
    right) operands' direct-label tables, read-only bool arrays of
    (operand states, symbols), which the first two ``origin`` columns
    index.  State q reads symbol a directly when ``left[origin[q, 0], a]
    & right[origin[q, 1], a]``, and a phi edge's move kind is the set of
    those two columns it changes; the pair-aware resolution needs both
    when a state has more than one phi transition.
    """

    __slots__ = ("operand_labels", "conversion_events", "_phi", "_phi_depth", "_chains")

    def __init__(self, alphabet: Sequence[str], num_states: int, initial: int,
                 finals: dict[int, float], transitions: Iterable[Transition],
                 state_names: Optional[Sequence] = None,
                 operand_labels: Optional[tuple] = None):
        self._set_composition(operand_labels)
        super().__init__(alphabet, num_states, initial, finals, transitions, state_names)

    @classmethod
    def from_columns(cls, alphabet: Sequence[str], num_states: int, initial: int,
                     finals: dict[int, float], src, label, weight, dst,
                     state_names: Optional[Sequence] = None,
                     operand_labels: Optional[tuple] = None) -> "PhiWfa":
        """Machine whose transition i is (src[i], label, weight[i],
        dst[i]), label being ``alphabet[label[i]]`` or PHI for -1.  The
        arrays are copied and checked as the constructor checks
        transitions."""
        self = cls.__new__(cls)
        self._set_composition(operand_labels)
        self._store(alphabet, num_states, initial, finals, state_names,
                    _column_arrays(src, label, weight, dst), None)
        return self

    def _set_composition(self, operand_labels) -> None:
        self.operand_labels = None if operand_labels is None else _frozen(
            tuple(np.array(t, bool) for t in operand_labels))
        self.conversion_events: tuple = ()
        self._phi = self._chains = None

    def _set_header(self, alphabet, *rest) -> None:
        alphabet = tuple(alphabet)
        if PHI in alphabet:
            raise ValueError("the phi token is reserved")
        super()._set_header(alphabet, *rest)

    def _check(self, cols: Columns, ts: Optional[tuple[Transition, ...]]) -> None:
        _check_edges(cols, ts, self.num_states, self.alphabet, phi=True)
        phi = np.flatnonzero(cols.label < 0)
        if self.operand_labels is None:
            several = np.flatnonzero(np.bincount(cols.src[phi], minlength=self.num_states) > 1)
            if several.size:
                raise ValueError(f"state {several[0]} has several phi transitions "
                                 "but no composition metadata")
        elif (self.origin is None or self.origin.shape[1] < 2
              or [t.shape[1:] for t in self.operand_labels] != [(len(self.alphabet),)] * 2
              or (self.origin[:, :2] < 0).any()
              or (self.origin[:, :2].max(axis=0) >= [len(t) for t in self.operand_labels]).any()):
            raise ValueError("operand_labels are a (left, right) pair of tables with one column "
                             "per symbol, indexed by the first two origin columns")
        # Reversed, as the compile reads it: cycles and the longest chain stay.
        self._phi_depth = _phi_chain_depth(cols.dst[phi], cols.src[phi], self.num_states)
        self._phi_depth.flags.writeable = False

    # -- queries --

    def phi_arcs(self, state: int) -> tuple[Transition, ...]:
        """Failure transitions leaving ``state``, in transition order."""
        if self._phi is None:
            phi: list[list[Transition]] = [[] for _ in range(self.num_states)]
            for t in compress(self.transitions, (self.columns.label < 0).tolist()):
                phi[t.src].append(t)
            self._phi = tuple(map(tuple, phi))
        return self._phi[state]

    def phi_arc(self, state: int) -> Optional[Transition]:
        p = self.phi_arcs(state)
        return p[0] if p else None

    def has_phi(self) -> bool:
        return bool((self.columns.label < 0).any())

    def max_phi_chain_depth(self) -> int:
        """Edges on the longest phi path, the most on one into any state."""
        return int(self._phi_depth.max())

    def to_wfa(self) -> Wfa:
        if self.has_phi():
            raise ValueError("machine still has phi transitions; expand first")
        return _wrap(Wfa, self)

    def __repr__(self) -> str:
        c = self.columns
        return (f"PhiWfa(states={self.num_states}, transitions={len(c.src)}, "
                f"phi={np.count_nonzero(c.label < 0)})")


def _phi_chain_depth(src: np.ndarray, dst: np.ndarray, num_states: int) -> np.ndarray:
    """Per state, the edges on the longest phi path leaving it, given the
    phi edges src -> dst; raises ValueError on a phi cycle.  On the
    reversed edges, the edges on the longest phi path into each state.

    A sweep from the chain ends backwards, one generation at a time: a
    state settles once all its phi successors have, so generation g
    holds the states whose longest phi path has g edges.
    """
    left = np.bincount(src, minlength=num_states)  # unsettled phi successors
    by_dst = np.argsort(dst, kind="stable")
    roff = np.searchsorted(dst[by_dst], np.arange(num_states + 1))
    depth = np.full(num_states, -1, np.intp)
    slot = np.empty(num_states, np.intp)  # dedupes each batch in place of a sort
    settled, g = np.flatnonzero(left == 0), 0
    while settled.size:
        depth[settled] = g
        pred = src[by_dst[_ranges(roff[settled], roff[settled + 1])]]
        np.subtract.at(left, pred, 1)
        at = np.arange(len(pred))
        slot[pred] = at
        pred = pred[slot[pred] == at]
        settled, g = pred[left[pred] == 0], g + 1
    if (depth < 0).any():
        raise ValueError("phi cycle detected")
    return depth


Machine = Union[Wfa, PhiWfa]


def _wrap(cls, machine: Wfa):
    """A ``cls`` machine on ``machine``'s stored edges, checked as ``cls``
    checks its input; no array is copied and no transition built."""
    out = cls.__new__(cls)
    if cls is PhiWfa:
        out._set_composition(None)
    out._store(machine.alphabet, machine.num_states, machine.initial, machine.finals,
               _stored_names(machine), machine.columns, machine._transitions)
    return out


def as_phi(machine: Machine) -> PhiWfa:
    """``machine`` as a :class:`PhiWfa`, sharing its edge columns."""
    if isinstance(machine, PhiWfa):
        return machine
    return _wrap(PhiWfa, machine)


# -- effective transitions ----------------------------------------------------


class _Chains:
    """A phi machine's failure edges as arrays, to walk many (state,
    symbol) pairs down their phi chains at once; built once per machine
    (:func:`_chains`).  The methods take that machine as ``m``: the cache
    holds no reference back to it.  Every phi chain query walks here.

    ``first[q]`` is the first phi edge of state q (transition index, -1:
    none).  Symbols are alphabet indices; len(alphabet) stands for a
    symbol outside the alphabet, which nothing reads.  On composition
    outputs, ``operands`` holds per side (left, right) the operand's
    direct-label table, with a False column for that outside symbol, and
    each state's row in it, the side's ``origin`` column; ``by_move[q,
    k]`` is q's first phi edge of move kind k (-1: none).
    """

    def __init__(self, machine: PhiWfa):
        c, n = machine.columns, machine.num_states
        self.index = {a: i for i, a in enumerate(machine.alphabet)}
        pid = np.flatnonzero(c.label < 0)[::-1]  # reversed: a state's first phi edge wins
        self.first = np.full(n, -1, np.intp)
        self.first[c.src[pid]] = pid
        self.operands = None
        if machine.operand_labels is not None:
            origin = machine.origin
            self.operands = [(np.pad(table, ((0, 0), (0, 1))), origin[:, side])
                             for side, table in enumerate(machine.operand_labels)]
            # Per state its first phi edge of each move kind, by the origin
            # columns the edge changes: 1 left, 2 right, 3 both.
            moved = origin[c.src[pid], :2] != origin[c.dst[pid], :2]
            self.by_move = np.full((n, 4), -1, np.intp)
            self.by_move[c.src[pid], moved[:, 0] + 2 * moved[:, 1]] = pid

    def symbol(self, name: str) -> np.ndarray:
        """One symbol name as a walk's symbol array."""
        return np.array([self.index.get(name, len(self.index))])

    def defines(self, q: np.ndarray, symbol: np.ndarray) -> list[np.ndarray]:
        """Per side of a composition output, whether the operand state of
        q[i] has an arc with symbol[i]."""
        return [table[row[q], symbol] for table, row in self.operands]

    def reads(self, m: PhiWfa, q: np.ndarray, symbol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per pair, the arc reading symbol[i] at q[i] (-1: none), and
        whether q[i] reads the symbol directly: by that arc, or, on a
        composition output, because both sides define it."""
        e = _find_arcs(m, q, symbol)
        e[symbol == len(self.index)] = -1
        stop = e >= 0
        if self.operands is not None:
            left, right = self.defines(q, symbol)
            stop |= left & right
        return e, stop

    def resolving_step(self, m: PhiWfa, q: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """The phi edge each (state, symbol) pair takes when it resolves
        the symbol (-1: none): on composition outputs the first phi edge
        of the move kind that advances only the side(s) not defining the
        symbol, elsewhere the first phi edge."""
        if self.operands is None:
            return self.first[q]
        left, right = self.defines(q, symbol)
        return self.by_move[q, np.where(left, 2, np.where(right, 1, 3))]

    def walk(self, m: PhiWfa, q: np.ndarray, symbol: np.ndarray, w: np.ndarray,
             resolving: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Moves every pair (q[i], symbol[i]) down its phi chain until a
        state reads the symbol directly (:meth:`reads`).  A pending pair
        takes its state's first phi edge, or with ``resolving`` the one
        :meth:`resolving_step` gives; it stops where there is none, so
        within ``max_phi_chain_depth()`` edges.  Returns per pair the arc
        it stops on (-1: none) and w[i] times the weights of the phi
        edges taken, in chain order."""
        c = m.columns
        edge, weight = np.full(len(q), -1, np.intp), np.zeros(len(q))
        pos = np.arange(len(q))
        for _ in range(m.max_phi_chain_depth() + 1):
            e, stop = self.reads(m, q, symbol)
            edge[pos[stop]], weight[pos[stop]] = e[stop], w[stop]
            s = self.resolving_step(m, q, symbol) if resolving else self.first[q]
            go = np.flatnonzero(~stop & (s >= 0))
            pos, symbol, w, q = pos[go], symbol[go], w[go] * c.weight[s[go]], c.dst[s[go]]
            if not pos.size:
                break
        return edge, weight

    def resolve(self, m: PhiWfa, states: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every symbol at each of ``states`` resolved down its phi chain
        (``resolving``), all chains walked at once: per resolution of
        nonzero weight, by state and then symbol, the index of the state,
        the destination, and (symbol, chain weight times arc weight)."""
        c, n_sym = m.columns, len(self.index)
        state, symbol = np.repeat(states, n_sym), np.tile(np.arange(n_sym), len(states))
        edge, w = self.walk(m, state, symbol, np.ones(len(state)), resolving=True)
        pair = np.flatnonzero(edge >= 0)
        weight = w[pair] * c.weight[edge[pair]]
        pair, weight = pair[weight != 0.0], weight[weight != 0.0]
        return pair // n_sym, c.dst[edge[pair]], (symbol[pair], weight)


def _chains(machine: PhiWfa) -> _Chains:
    """The machine's :class:`_Chains`, built on first use and cached."""
    if machine._chains is None:
        machine._chains = _Chains(machine)
    return machine._chains


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
    chains, c = _chains(machine), machine.columns
    phi = chains.first[state]
    if phi < 0:
        return None
    edge, w = chains.walk(machine, c.dst[[phi]], chains.symbol(symbol), c.weight[[phi]])
    return None if edge[0] < 0 else (float(w[0]), machine.transitions[edge[0]])


def phi_expand(machine: PhiWfa) -> Wfa:
    """Plain WFA with the same weighted language.

    Each (state, symbol) is resolved down its phi chain, with shadowing:
    on composition outputs a state with several phi edges takes the one
    that advances only the side(s) not defining the symbol, and a state
    whose two sides both define it reads it directly or not at all.
    Resolutions of weight 0 are dropped; hub states disappear because
    nothing effective stops on them.  Only states reachable through
    effective transitions are kept.

    The search is breadth-first, one frontier at a time, as in
    :func:`~wfa_hedge.wfa.intersect`: all (state, symbol) pairs of a
    frontier walk their chains at once.  States are numbered in
    discovery order, each state's transitions follow in alphabet order,
    and ``state_names`` keeps the names of the states kept, as a
    queue-based search resolving one pair at a time gives them.
    """
    chains = _chains(machine)
    code, src, dst, (label, weight) = _search(machine.initial,
                                              lambda f: chains.resolve(machine, f))
    new_id = np.full(machine.num_states, -1, np.intp)
    new_id[code] = np.arange(len(code))
    finals = {int(new_id[q]): w for q, w in machine.finals.items() if new_id[q] >= 0}
    return Wfa.from_columns(machine.alphabet, len(code), 0, finals, src, label, weight, dst,
                            _stored_names(machine, code))


# -- backward distances, powering, pushing ------------------------------------


def _resolved(machine: PhiWfa) -> Wfa:
    """The plain machine on the same states whose arcs are the nonzero
    resolutions of every (state, symbol): its paths are the legal ones."""
    topological_order(machine)  # raises CyclicAutomatonError on any cycle, phi edges included
    src, dst, (label, weight) = _chains(machine).resolve(machine, np.arange(machine.num_states))
    return Wfa.from_columns(machine.alphabet, machine.num_states, machine.initial, machine.finals,
                            src, label, weight, dst)


def _reweighted(machine: PhiWfa, weight: np.ndarray, finals: dict[int, float]) -> PhiWfa:
    """``machine`` with new edge and final weights."""
    c = machine.columns
    return PhiWfa.from_columns(machine.alphabet, machine.num_states, machine.initial, finals,
                               c.src, c.label, weight, c.dst, _stored_names(machine),
                               machine.operand_labels)


def phi_backward_distances(machine: PhiWfa) -> dict[int, float]:
    """Sum over legal (shadow-respecting) paths from each state to final."""
    return backward_distances(_resolved(machine))


def power_weights_phi(machine: PhiWfa, eta: float) -> PhiWfa:
    """Raise every weight (phi weights included) to the power ``eta``."""
    if eta <= 0:
        raise ValueError("exponent must be positive")
    if eta == 1.0:
        return machine
    return _reweighted(machine, machine.columns.weight ** eta,
                       {q: w ** eta for q, w in machine.finals.items()})


def weight_push_phi(machine: PhiWfa) -> PhiWfa:
    """Reweight so effective outgoing weights plus final weight sum to 1.

    Every transition (phi ones too) between live states becomes
    d[src]^-1 w d[dst], d summed in logs over the legal paths; since the
    engine's corrections are products of edge weights as well,
    equivalence with the expanded machine is preserved.
    """
    return _reweighted(machine, *_pushed(machine, *_backward_logs(_resolved(machine))))


# -- conversion ----------------------------------------------------------------


@dataclass(frozen=True)
class ConversionEvent:
    target: int
    hub: int
    shared_labels: tuple[tuple[str, float], ...]
    parents: tuple[int, ...]
    transition_delta: int  # |S| + |Q| - |S||Q|, negative when shrinking


def _pairs(wfa: Wfa) -> np.ndarray:
    """Per edge, the rank of its (label, weight) pair in (sorted label,
    weight) order.  A NaN weight pairs with nothing, as NaN float objects
    in a set do not."""
    c = wfa.columns
    if (c.label < 0).any():
        raise ValueError("machine already has phi transitions")
    rank = _label_ranks(wfa.alphabet)[1]
    weights, weight = np.unique(c.weight, return_inverse=True, equal_nan=False)
    return np.unique(rank[c.label] * len(weights) + weight, return_inverse=True)[1]


def _subset(c: Columns, e: np.ndarray, pair: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The greedy parent subset sharing (label, weight) edges among the
    parents of edges ``e``, which share a target, on a parents x (label,
    weight) table.  The parent set grows one state at a time, always by
    the parent that keeps the shared edge set largest (ties: lowest
    state id), and the prefix maximizing |S||Q| - (|S| + |Q|) wins (ties:
    the shortest).  Returns the edges it moves, the parents in the order
    chosen, and that benefit."""
    parents, row = np.unique(c.src[e], return_inverse=True)
    pairs, col = np.unique(pair[e], return_inverse=True)
    table = np.zeros((len(parents), len(pairs)), bool)
    table[row, col] = True
    free, shared, chosen = np.ones(len(parents), bool), np.ones(len(pairs), bool), []
    best, best_shared, best_free, best_k = -math.inf, shared, free, 0
    for k in range(1, len(parents) + 1):
        count = np.where(free, np.count_nonzero(table & shared, axis=1), -1)
        i = int(count.argmax())
        free[i], shared = False, shared & table[i]
        chosen.append(i)
        # The benefit (|S| - 1)(|Q| - 1) - 1 grows with both, and |S| only
        # shrinks: stop once no longer prefix can beat the best.
        ns = int(count[i])
        if (ns - 1) * (k - 1) - 1 > best:
            best, best_shared, best_free, best_k = (ns - 1) * (k - 1) - 1, shared, free.copy(), k
        if (ns - 1) * (len(parents) - 1) - 1 <= best:
            break
    return e[~best_free[row] & best_shared[col]], parents[chosen[:best_k]], best


def phi_convert(wfa: Wfa) -> PhiWfa:
    """Introduce failure transitions wherever the edge count shrinks.

    Visits non-initial states in topological order (ascending id on
    cyclic machines).  For a state q whose greedy parent subset shares S
    edges over Q parents with |S| + |Q| < |S||Q|, a hub state is
    inserted: each parent gets a weight-1 phi transition to the hub, the
    shared edges move onto the hub, and the parents drop them.  The
    weighted language is unchanged.  The returned machine carries the
    per-state events in ``conversion_events``.  Raises ValueError when
    two transitions leave one state with the same label.
    """
    c, n, pair = wfa.columns, wfa.num_states, _pairs(wfa)
    try:
        order = topological_order(wfa)
    except CyclicAutomatonError:
        order = range(n)
    by_dst = np.argsort(c.dst, kind="stable")
    off = np.searchsorted(c.dst[by_dst], np.arange(n + 1))
    hub_of, keep = np.full(n, -1, np.intp), np.ones(len(c.src), bool)
    events, hub_edges = [], []
    for q in order:
        # Edges move only off the target's own in-edges, so each target
        # reads the input's, six at least for |S||Q| > |S| + |Q|; parents
        # that already have a phi edge are not eligible.
        e = by_dst[off[q]:off[q + 1]]
        if q == wfa.initial or len(e) < 6:
            continue
        moved, parents, benefit = _subset(c, e[hub_of[c.src[e]] < 0], pair)
        if benefit <= 0:
            continue
        hub_of[parents], keep[moved] = n + len(events), False
        on_hub = moved[c.src[moved] == parents[0]]
        hub_edges.append(on_hub[np.argsort(pair[on_hub])])
        events.append(ConversionEvent(
            target=q, hub=n + len(events),
            shared_labels=tuple(zip(map(wfa.alphabet.__getitem__, c.label[hub_edges[-1]].tolist()),
                                    c.weight[hub_edges[-1]].tolist())),
            parents=tuple(parents.tolist()), transition_delta=-benefit))
    # Arcs left by source and sorted label, phi edges by parent, hub edges by hub and label.
    arcs = np.flatnonzero(keep)
    arcs = arcs[np.lexsort((pair[arcs], c.src[arcs]))]
    phi, moved = np.flatnonzero(hub_of >= 0), np.concatenate([arcs[:0]] + hub_edges)
    hubs = np.repeat(n + np.arange(len(events)), list(map(len, hub_edges)))
    names = None if wfa.state_names is None else (
        list(wfa.state_names) + [f"hub{e.hub}" for e in events])
    result = PhiWfa.from_columns(
        wfa.alphabet, n + len(events), wfa.initial, dict(wfa.finals),
        np.concatenate((c.src[arcs], phi, hubs)),
        np.concatenate((c.label[arcs], np.full(len(phi), -1), c.label[moved])),
        np.concatenate((c.weight[arcs], np.ones(len(phi)), c.weight[moved])),
        np.concatenate((c.dst[arcs], hub_of[phi], c.dst[moved])), names)
    result.conversion_events = tuple(events)
    return result


# -- composition ----------------------------------------------------------------


# _STEP[f, move]: the filter state after ``move`` (both, left, right)
# from filter state f; -1 where PHI_FILTER forbids the move.
_STEP = np.array([[PHI_FILTER.get((f, move), -1) for move in ("both", "left", "right")]
                  for f in range(3)])


def _phi_arc_arrays(machine: PhiWfa) -> tuple[np.ndarray, np.ndarray]:
    """Per state, its first phi edge's target (-1: none) and weight."""
    c, first = machine.columns, _chains(machine).first
    return np.append(c.dst, -1)[first], np.append(c.weight, 0.0)[first]


def _direct_labels(machine: Wfa) -> np.ndarray:
    """Per (state, symbol), whether the state has an arc with the symbol."""
    c = machine.columns
    real = c.label >= 0
    table = np.zeros((machine.num_states, len(machine.alphabet)), bool)
    table[c.src[real], c.label[real]] = True
    return table


def phi_intersect(m1: Machine, m2: Machine) -> PhiWfa:
    """Intersection of two phi-automata through the filter transducer.

    Left phi moves keep the right machine in place and vice versa; the
    both-sides move is only allowed from filter state 0, which admits
    exactly one phi path between any pair of composed states.  Inputs
    must be chain-style (at most one phi per state).

    The search is breadth-first over (left state, right state, filter
    state) nodes, one frontier at a time, as in :func:`~wfa_hedge.wfa.intersect`:
    a node's consuming arcs in sorted label order, then its both, left
    and right phi moves.  Nodes are numbered in discovery order and only
    co-accessible ones are kept; ``origin`` holds the node triples and
    ``operand_labels`` the two inputs' direct-label tables.
    """
    a1, a2 = as_phi(m1), as_phi(m2)
    arcs, n2 = _ArcPairs(a1, a2), a2.num_states
    if a1.operand_labels is not None or a2.operand_labels is not None:
        raise ValueError("composition outputs cannot be composed again")
    (pd1, pw1), (pd2, pw2) = _phi_arc_arrays(a1), _phi_arc_arrays(a2)

    def expand(frontier):  # nodes are coded (q1 * |Q2| + q2) * 3 + filter state
        pair, f = np.divmod(frontier, 3)
        q1, q2 = np.divmod(pair, n2)
        owner, e1, e2 = arcs.match(q1, q2)
        # Phi moves as an (F, 3) table, one column per move in _STEP order.
        t1 = np.column_stack((pd1[q1], pd1[q1], q1))
        t2 = np.column_stack((pd2[q2], q2, pd2[q2]))
        g = _STEP[f]
        ok = np.flatnonzero((g >= 0) & (t1 >= 0) & (t2 >= 0))
        w = np.column_stack((pw1[q1] * pw2[q2], pw1[q1], pw2[q2])).ravel()[ok]
        phi_code = (t1.ravel()[ok] * n2 + t2.ravel()[ok]) * 3 + g.ravel()[ok]
        # Per node, its consuming arcs come before its phi moves.
        owner = np.concatenate((owner, ok // 3))
        by_owner = np.argsort(owner, kind="stable")
        code = np.concatenate(((arcs.d1[e1] * n2 + arcs.d2[e2]) * 3, phi_code))[by_owner]
        label = np.concatenate((arcs.label(e1), np.full(len(ok), -1)))[by_owner]
        weight = np.concatenate((arcs.w1[e1] * arcs.w2[e2], w))[by_owner]
        return owner[by_owner], code, (label, weight)

    start = (a1.initial * n2 + a2.initial) * 3
    code, src, dst, (label, weight) = _search(start, expand)
    p1, p2 = np.divmod(code // 3, n2)
    (f1, fw1), (f2, fw2) = _final_weights(a1), _final_weights(a2)
    final = np.flatnonzero(f1[p1] & f2[p2])
    # Trim to co-accessible states so the engine never walks dead regions.
    alive = _coaccessible(src, dst, final, len(code))
    if not alive[0]:
        return PhiWfa(a1.alphabet, 1, 0, {}, [],
                      state_names=np.array([[a1.initial, a2.initial, 0]]))
    remap = np.cumsum(alive) - 1
    keep = np.flatnonzero(alive[dst])
    finals = dict(zip(remap[final].tolist(), (fw1[p1[final]] * fw2[p2[final]]).tolist()))
    origin = np.column_stack((p1[alive], p2[alive], code[alive] % 3))
    return PhiWfa.from_columns(a1.alphabet, len(origin), 0, finals, remap[src[keep]],
                               label[keep], weight[keep], remap[dst[keep]], origin,
                               (_direct_labels(a1), _direct_labels(a2)))
