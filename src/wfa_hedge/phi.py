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
whose states remember their (left, right, filter) origin; those can carry
up to three phi transitions per state (advance left, advance right,
advance both) and are resolved with the pair-aware rule below.
:func:`phi_intersect` builds the composition as a breadth-first search
run one frontier at a time on the columns, like
:func:`~wfa_hedge.wfa.intersect`, and :func:`phi_expand` expands a phi
machine the same way, walking all (state, symbol) pairs of a frontier
down their phi chains at once.  :func:`resolve_symbol` and the other
per-pair helpers walk single edges through the per-edge views.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .wfa import (PHI, Columns, Transition, Wfa, _ArcPairs, _backward_logs, _check_edges,
                  _coaccessible, _column_arrays, _final_weights, _find_arcs, _pushed, _ranges,
                  _search, backward_distances, topological_order)

__all__ = [
    "PHI",
    "PhiWfa",
    "PhiChainError",
    "as_phi",
    "resolve_symbol",
    "reads_directly",
    "shadowed_continuation",
    "evaluate_phi",
    "phi_backward_distances",
    "power_weights_phi",
    "weight_push_phi",
    "phi_expand",
    "phi_source_subset",
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


class PhiChainError(RuntimeError):
    """Phi chain longer than the configured cap (default 16)."""


MAX_PHI_CHAIN = 16


class PhiWfa(Wfa):
    """WFA extended with failure transitions.

    The edges are stored as in :class:`Wfa`, in ``columns``, with phi
    edges as label -1; ``transitions``, ``arcs()`` and ``phi_arcs()`` are
    views built on first use.  Construction also checks what failure
    semantics need: non-negative weights, at most one arc per (state,
    symbol), no phi cycle, and at most one phi edge per state unless the
    machine carries composition metadata.

    ``pair_labels`` and ``phi_moves`` are set on composition outputs
    only: per-state (left, right) direct-label sets and per-phi-edge move
    kind, which the pair-aware resolution needs when a state has more
    than one phi transition.
    """

    __slots__ = ("pair_labels", "phi_moves", "conversion_events", "_phi", "_phi_depth")

    def __init__(self, alphabet: Sequence[str], num_states: int, initial: int,
                 finals: dict[int, float], transitions: Iterable[Transition],
                 state_names: Optional[Sequence] = None,
                 pair_labels: Optional[Sequence[tuple[frozenset, frozenset]]] = None,
                 phi_moves: Optional[dict[tuple[int, int], str]] = None):
        self._set_composition(pair_labels, phi_moves)
        super().__init__(alphabet, num_states, initial, finals, transitions, state_names)

    @classmethod
    def from_columns(cls, alphabet: Sequence[str], num_states: int, initial: int,
                     finals: dict[int, float], src, label, weight, dst,
                     state_names: Optional[Sequence] = None,
                     pair_labels: Optional[Sequence[tuple[frozenset, frozenset]]] = None,
                     phi_moves: Optional[dict[tuple[int, int], str]] = None) -> "PhiWfa":
        """Machine whose transition i is (src[i], label, weight[i],
        dst[i]), label being ``alphabet[label[i]]`` or PHI for -1.  The
        arrays are copied and checked as the constructor checks
        transitions."""
        self = cls.__new__(cls)
        self._set_composition(pair_labels, phi_moves)
        self._store(alphabet, num_states, initial, finals, state_names,
                    _column_arrays(src, label, weight, dst), None)
        return self

    def _set_composition(self, pair_labels, phi_moves) -> None:
        self.pair_labels = tuple(pair_labels) if pair_labels is not None else None
        # Move kinds of composed phi edges, keyed by (src, dst).
        self.phi_moves = dict(phi_moves) if phi_moves is not None else None
        self.conversion_events: tuple = ()
        self._phi = None

    def _set_header(self, alphabet, *rest) -> None:
        alphabet = tuple(alphabet)
        if PHI in alphabet:
            raise ValueError("the phi token is reserved")
        super()._set_header(alphabet, *rest)

    def _check(self, cols: Columns, ts: Optional[tuple[Transition, ...]]) -> None:
        _check_edges(cols, ts, self.num_states, self.alphabet, phi=True)
        phi = np.flatnonzero(cols.label < 0)
        if self.pair_labels is None:
            several = np.flatnonzero(np.bincount(cols.src[phi], minlength=self.num_states) > 1)
            if several.size:
                raise ValueError(f"state {several[0]} has several phi transitions "
                                 "but no composition metadata")
        self._phi_depth = _phi_chain_depth(cols.src[phi], cols.dst[phi], self.num_states)

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
        """Edges on the longest phi path."""
        return self._phi_depth

    def to_wfa(self) -> Wfa:
        if self.has_phi():
            raise ValueError("machine still has phi transitions; expand first")
        return _wrap(Wfa, self)

    def __repr__(self) -> str:
        c = self.columns
        return (f"PhiWfa(states={self.num_states}, transitions={len(c.src)}, "
                f"phi={np.count_nonzero(c.label < 0)})")


def _phi_chain_depth(src: np.ndarray, dst: np.ndarray, num_states: int) -> int:
    """Edges on the longest phi path, given the phi edges src -> dst;
    raises ValueError on a phi cycle.

    A sweep from the chain ends backwards, one generation at a time: a
    state settles once all its phi successors have, so generation g
    holds the states whose longest phi path has g edges.
    """
    left = np.bincount(src, minlength=num_states)  # unsettled phi successors
    by_dst = np.argsort(dst, kind="stable")
    roff = np.searchsorted(dst[by_dst], np.arange(num_states + 1))
    settled = np.flatnonzero(left == 0)
    done, depth = len(settled), -1
    while settled.size:
        depth += 1
        pred = src[by_dst[_ranges(roff[settled], roff[settled + 1])]]
        np.subtract.at(left, pred, 1)
        pred = np.unique(pred)
        settled = pred[left[pred] == 0]
        done += len(settled)
    if done != num_states:
        raise ValueError("phi cycle detected")
    return depth


Machine = Union[Wfa, PhiWfa]


def _wrap(cls, machine: Wfa):
    """A ``cls`` machine on ``machine``'s stored edges, checked as ``cls``
    checks its input; no array is copied and no transition built."""
    out = cls.__new__(cls)
    if cls is PhiWfa:
        out._set_composition(None, None)
    out._store(machine.alphabet, machine.num_states, machine.initial, machine.finals,
               machine.state_names, machine.columns, machine._transitions)
    return out


def as_phi(machine: Machine) -> PhiWfa:
    """``machine`` as a :class:`PhiWfa`, sharing its edge columns."""
    if isinstance(machine, PhiWfa):
        return machine
    return _wrap(PhiWfa, machine)


# -- effective transitions ----------------------------------------------------


def resolve_symbol(machine: PhiWfa, state: int, symbol: str,
                   max_chain: int = MAX_PHI_CHAIN) -> Optional[tuple[float, int]]:
    """Effective (weight, destination) for reading ``symbol`` at ``state``.

    Follows the phi chain with shadowing; returns None when the symbol
    cannot be read.  Composition outputs use the pair-aware rule: advance
    only the side(s) that do not define the symbol yet.
    """
    w = 1.0
    q = state
    for _ in range(max_chain + 1):
        t = machine.arcs(q).get(symbol)
        if t is not None:
            return (w * t.weight, t.dst)
        phis = machine.phi_arcs(q)
        if not phis:
            return None
        if machine.pair_labels is None:
            step = phis[0]
        else:
            left, right = machine.pair_labels[q]
            in_left = symbol in left
            in_right = symbol in right
            if in_left and in_right:
                # Both sides define it but no composed edge was built:
                # the destination pair was not co-accessible.
                return None
            want = "right" if in_left else ("left" if in_right else "both")
            step = None
            for cand in phis:
                if machine.phi_moves.get((cand.src, cand.dst)) == want:
                    step = cand
                    break
            if step is None:
                return None
        w *= step.weight
        q = step.dst
    raise PhiChainError(f"phi chain exceeds {max_chain} from state {state}")


def reads_directly(machine: PhiWfa, state: int, symbol: str) -> bool:
    """Whether ``state`` reads ``symbol`` without its phi chain.

    A composition state does when both sides define the symbol
    (``pair_labels``), even if the composed edge was trimmed because no
    completion follows it: the symbol is then unreadable there, and the
    chain must not be consulted either.
    """
    if machine.pair_labels is None:
        return symbol in machine.arcs(state)
    left, right = machine.pair_labels[state]
    return symbol in left and symbol in right


def shadowed_continuation(machine: PhiWfa, state: int, symbol: str,
                          max_chain: int = MAX_PHI_CHAIN
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
    for _ in range(max_chain + 1):
        if reads_directly(machine, q, symbol):
            t = machine.arcs(q).get(symbol)
            return None if t is None else (w, t)
        nxt = machine.phi_arc(q)
        if nxt is None:
            return None
        w *= nxt.weight
        q = nxt.dst
    raise PhiChainError(f"phi chain exceeds {max_chain} from state {state}")


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


class _Chains:
    """A phi machine's failure edges as arrays, to walk many (state,
    symbol) pairs down their phi chains at once.

    ``first[q]`` is the first phi edge of state q (transition index, -1:
    none).  On composition outputs, ``kind[q]`` numbers q's distinct
    (left, right) label-set pair and ``left``/``right`` hold those sets as
    rows of a (kinds, alphabet) table.
    """

    def __init__(self, machine: PhiWfa):
        c, n = machine.columns, machine.num_states
        self.machine = machine
        pid = np.flatnonzero(c.label < 0)[::-1]  # reversed: a state's first phi edge wins
        self.first = np.full(n, -1, np.intp)
        self.first[c.src[pid]] = pid
        self.kind = None
        if machine.pair_labels is not None:
            index = {a: i for i, a in enumerate(machine.alphabet)}
            kinds: dict[tuple[frozenset, frozenset], int] = {}
            self.kind = np.fromiter((kinds.setdefault(pair, len(kinds))
                                     for pair in machine.pair_labels), np.intp, n)
            self.left = np.zeros((len(kinds), len(index)), bool)
            self.right = np.zeros_like(self.left)
            for (left, right), k in kinds.items():
                self.left[k, [index[a] for a in left]] = True
                self.right[k, [index[a] for a in right]] = True

    def direct_reads(self) -> np.ndarray:
        """reads[q, a]: whether composed state q reads symbol a directly,
        by the rule of :func:`reads_directly`."""
        return (self.left & self.right)[self.kind]

    def resolving_steps(self):
        """The phi edge each (state, symbol) pair takes by the rule of
        :func:`resolve_symbol`, as a function of (state, symbol) arrays
        for :meth:`walk`: on composition outputs the first phi edge of the
        move kind that advances the side(s) not defining the symbol (-1:
        none), elsewhere None, the first phi edge."""
        if self.kind is None:
            return None
        c, moves = self.machine.columns, self.machine.phi_moves or {}
        pid = np.flatnonzero(c.label < 0)
        move = np.fromiter((_MOVE_CODE.get(moves.get(key), -1)
                            for key in zip(c.src[pid].tolist(), c.dst[pid].tolist())),
                           np.intp, len(pid))
        pid, move = pid[move >= 0][::-1], move[move >= 0][::-1]  # the first of a kind wins
        by_move = np.full((self.machine.num_states, len(_MOVES)), -1, np.intp)
        by_move[c.src[pid], move] = pid

        def step(q, symbol):
            k = self.kind[q]
            want = np.where(self.left[k, symbol], _MOVE_CODE["right"],
                            np.where(self.right[k, symbol], _MOVE_CODE["left"],
                                     _MOVE_CODE["both"]))
            return by_move[q, want]

        return step

    def walk(self, q: np.ndarray, symbol: np.ndarray, w: np.ndarray, max_chain: int,
             origin: np.ndarray, step=None) -> tuple[np.ndarray, np.ndarray]:
        """Moves every pair (q[i], symbol[i]) down its phi chain until a
        state reads the symbol directly: it has an arc with the symbol, or,
        on a composition output, both sides define it.  ``step(q,
        symbol)`` gives the phi edge each pending pair takes (-1: none, the
        pair stops); by default, its state's first.  Returns per pair the arc it stops on (-1: none) and
        w[i] times the weights of the phi edges taken, in chain order.
        Raises PhiChainError naming origin[i] of the first pair still
        moving after max_chain + 1 states."""
        m, c = self.machine, self.machine.columns
        edge, weight = np.full(len(q), -1, np.intp), np.zeros(len(q))
        pos = np.arange(len(q))
        for _ in range(max_chain + 1):
            e = _find_arcs(m, q, symbol)
            stop = e >= 0
            edge[pos[stop]], weight[pos[stop]] = e[stop], w[stop]
            if self.kind is not None:
                k = self.kind[q]
                stop |= self.left[k, symbol] & self.right[k, symbol]
            s = self.first[q] if step is None else step(q, symbol)
            go = np.flatnonzero(~stop & (s >= 0))
            pos, symbol, w, q = pos[go], symbol[go], w[go] * c.weight[s[go]], c.dst[s[go]]
            if not pos.size:
                break
        if pos.size:
            raise PhiChainError(f"phi chain exceeds {max_chain} from state {origin[pos[0]]}")
        return edge, weight


def _resolver(machine: PhiWfa, max_chain: int):
    """A function resolving every symbol at each of an array of states by
    the rule of :func:`resolve_symbol`, all chains walked at once: per
    resolution of nonzero weight, by state and then symbol, (index of the
    state, symbol, phi chain weight times arc weight, destination)."""
    c, n_sym, chains = machine.columns, len(machine.alphabet), _Chains(machine)
    step = chains.resolving_steps()

    def resolve(states):
        state, symbol = np.repeat(states, n_sym), np.tile(np.arange(n_sym), len(states))
        edge, w = chains.walk(state, symbol, np.ones(len(state)), max_chain, state, step)
        pair = np.flatnonzero(edge >= 0)
        weight = w[pair] * c.weight[edge[pair]]
        pair, weight = pair[weight != 0.0], weight[weight != 0.0]
        return pair // n_sym, symbol[pair], weight, c.dst[edge[pair]]

    return resolve


def phi_expand(machine: PhiWfa, max_chain: int = MAX_PHI_CHAIN) -> Wfa:
    """Plain WFA with the same weighted language.

    Each (state, symbol) is resolved through the phi chain by the rule of
    :func:`resolve_symbol`, and resolutions of weight 0 are dropped; hub
    states disappear because nothing effective stops on them.  Only
    states reachable through effective transitions are kept.

    The search is breadth-first, one frontier at a time, as in
    :func:`~wfa_hedge.wfa.intersect`: all (state, symbol) pairs of a
    frontier walk their chains at once.  States are numbered in
    discovery order, each state's transitions follow in alphabet order,
    and ``state_names`` keeps the names of the states kept, as a
    queue-based search calling :func:`resolve_symbol` per pair gives them.
    """
    resolve = _resolver(machine, max_chain)

    def expand(frontier):
        owner, symbol, weight, dst = resolve(frontier)
        return owner, dst, (symbol, weight)

    code, src, dst, (label, weight) = _search(machine.initial, expand)
    new_id = np.full(machine.num_states, -1, np.intp)
    new_id[code] = np.arange(len(code))
    finals = {int(new_id[q]): w for q, w in machine.finals.items() if new_id[q] >= 0}
    names = None
    if machine.state_names is not None:
        names = [machine.state_names[q] for q in code.tolist()]
    return Wfa.from_columns(machine.alphabet, len(code), 0, finals, src, label, weight, dst,
                            names)


# -- backward distances, powering, pushing ------------------------------------


def _resolved(machine: PhiWfa) -> Wfa:
    """The plain machine on the same states whose arcs are the nonzero
    resolutions of every (state, symbol): its paths are the legal ones."""
    topological_order(machine)  # raises CyclicAutomatonError on any cycle, phi edges included
    return Wfa.from_columns(machine.alphabet, machine.num_states, machine.initial, machine.finals,
                            *_resolver(machine, MAX_PHI_CHAIN)(np.arange(machine.num_states)))


def _reweighted(machine: PhiWfa, weight: np.ndarray, finals: dict[int, float]) -> PhiWfa:
    """``machine`` with new edge and final weights."""
    c = machine.columns
    return PhiWfa.from_columns(machine.alphabet, machine.num_states, machine.initial, finals,
                               c.src, c.label, weight, c.dst, machine.state_names,
                               machine.pair_labels, machine.phi_moves)


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


@dataclass(frozen=True)
class ConversionEvent:
    target: int
    hub: int
    shared_labels: tuple[tuple[str, float], ...]
    parents: tuple[int, ...]
    transition_delta: int  # |S| + |Q| - |S||Q|, negative when shrinking


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
    view = _EdgeView.from_wfa(wfa)
    try:
        order = topological_order(wfa)
    except Exception:
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


# -- composition ----------------------------------------------------------------


_MOVES = ("both", "left", "right")
_MOVE_CODE = {move: i for i, move in enumerate(_MOVES)}
# _STEP[f, move]: the filter state after ``move`` from filter state f; -1
# where PHI_FILTER forbids the move.  Each move leads into its own filter
# state, so a composed phi edge's kind is read off its target's filter.
_STEP = np.full((3, len(_MOVES)), -1, np.intp)
_MOVE_INTO = {}
for (_f, _move), _g in PHI_FILTER.items():
    _STEP[_f, _MOVES.index(_move)] = _g
    _MOVE_INTO[_g] = _move


def _phi_arc_arrays(machine: PhiWfa) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the target and weight of its phi edge (target -1: none).
    Chain-style machines only."""
    c = machine.columns
    phi = np.flatnonzero(c.label < 0)
    dst, weight = np.full(machine.num_states, -1, np.intp), np.zeros(machine.num_states)
    dst[c.src[phi]] = c.dst[phi]
    weight[c.src[phi]] = c.weight[phi]
    return dst, weight


def _label_sets(machine: PhiWfa) -> list[frozenset]:
    """Per state, the symbols it reads directly."""
    c = machine.columns
    real = np.flatnonzero(c.label >= 0)
    real = real[np.argsort(c.src[real], kind="stable")]
    off = np.searchsorted(c.src[real], np.arange(machine.num_states + 1)).tolist()
    labels = [machine.alphabet[a] for a in c.label[real].tolist()]
    return [frozenset(labels[off[q]:off[q + 1]]) for q in range(machine.num_states)]


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
    co-accessible ones are kept; ``state_names`` holds the node triples.
    """
    a1, a2 = as_phi(m1), as_phi(m2)
    arcs, n2 = _ArcPairs(a1, a2), a2.num_states
    if a1.pair_labels is not None or a2.pair_labels is not None:
        raise ValueError("composition outputs cannot be composed again")
    (pd1, pw1), (pd2, pw2) = _phi_arc_arrays(a1), _phi_arc_arrays(a2)

    def expand(frontier):  # nodes are coded (q1 * |Q2| + q2) * 3 + filter state
        pair, f = np.divmod(frontier, 3)
        q1, q2 = np.divmod(pair, n2)
        owner, e1, e2 = arcs.match(q1, q2)
        # Phi moves as an (F, 3) table, one column per move in _MOVES order.
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
        return PhiWfa(a1.alphabet, 1, 0, {}, [], state_names=[(a1.initial, a2.initial, 0)])
    remap = np.cumsum(alive) - 1
    keep = np.flatnonzero(alive[dst])
    phi = keep[label[keep] < 0]
    moves = dict(zip(zip(remap[src[phi]].tolist(), remap[dst[phi]].tolist()),
                     map(_MOVE_INTO.__getitem__, (code[dst[phi]] % 3).tolist())))
    src, dst = remap[src[keep]], remap[dst[keep]]
    finals = dict(zip(remap[final].tolist(), (fw1[p1[final]] * fw2[p2[final]]).tolist()))
    p1, p2 = p1[alive].tolist(), p2[alive].tolist()
    names = list(zip(p1, p2, (code[alive] % 3).tolist()))
    sets1, sets2 = _label_sets(a1), _label_sets(a2)
    pair_labels = list(zip(map(sets1.__getitem__, p1), map(sets2.__getitem__, p2)))
    return PhiWfa.from_columns(a1.alphabet, len(names), 0, finals, src, label[keep],
                               weight[keep], dst, state_names=names,
                               pair_labels=pair_labels, phi_moves=moves)
