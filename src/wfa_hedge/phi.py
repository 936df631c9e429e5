"""Failure-transition automata.

A failure (phi) transition carries the semantics of "other": when state q
has no outgoing transition labeled with the current symbol, the machine
follows q's phi transition without consuming the symbol and retries at
the destination.  Symbols defined directly at q therefore shadow anything
reachable through the phi chain.  Machines built here have at most one
phi transition per state and no phi cycles.

Composition through the three-state filter transducer produces machines
whose states remember their (left, right, filter) origin; those can carry
up to three phi transitions per state (advance left, advance right,
advance both) and are resolved with the pair-aware rule below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .wfa import Columns, Transition, Wfa, _columns_of, topological_order

__all__ = [
    "PHI",
    "PhiWfa",
    "PhiChainError",
    "as_phi",
    "resolve_symbol",
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

PHI = "<phi>"

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


class PhiWfa:
    """WFA extended with failure transitions.

    ``pair_labels`` and ``phi_moves`` are set on composition outputs
    only: per-state (left, right) direct-label sets and per-phi-edge move
    kind, which the pair-aware resolution needs when a state has more
    than one phi transition.
    """

    __slots__ = ("alphabet", "num_states", "initial", "finals", "transitions",
                 "state_names", "pair_labels", "phi_moves", "conversion_events",
                 "_out", "_phi", "_columns", "_topo")

    def __init__(self, alphabet: Sequence[str], num_states: int, initial: int,
                 finals: dict[int, float], transitions: Iterable[Transition],
                 state_names: Optional[Sequence] = None,
                 pair_labels: Optional[Sequence[tuple[frozenset, frozenset]]] = None,
                 phi_moves: Optional[dict[int, str]] = None):
        self.alphabet = tuple(alphabet)
        if PHI in self.alphabet:
            raise ValueError("the phi token is reserved")
        self.num_states = num_states
        if not (0 <= initial < num_states):
            raise ValueError("initial state out of range")
        self.initial = initial
        self.finals = dict(finals)
        self.transitions = tuple(transitions)
        symbols = set(self.alphabet)
        out: list[dict[str, Transition]] = [dict() for _ in range(num_states)]
        phi: list[list[Transition]] = [[] for _ in range(num_states)]
        for t in self.transitions:
            if not (0 <= t.src < num_states and 0 <= t.dst < num_states):
                raise ValueError(f"transition {t} out of range")
            if t.weight < 0:
                raise ValueError("negative transition weight")
            if t.label == PHI:
                phi[t.src].append(t)
            elif t.label in symbols:
                if t.label in out[t.src]:
                    raise ValueError(f"nondeterministic on {t.label!r} at state {t.src}")
                out[t.src][t.label] = t
            else:
                raise ValueError(f"unknown symbol {t.label!r}")
        self._out = tuple(out)
        self._phi = tuple(tuple(p) for p in phi)
        self.state_names = tuple(state_names) if state_names is not None else None
        self.pair_labels = tuple(pair_labels) if pair_labels is not None else None
        # Move kinds of composed phi edges, keyed by (src, dst).
        self.phi_moves = dict(phi_moves) if phi_moves is not None else None
        self.conversion_events: tuple = ()
        self._columns = None
        self._topo = None
        if self.pair_labels is None:
            for q in range(num_states):
                if len(self._phi[q]) > 1:
                    raise ValueError(f"state {q} has several phi transitions "
                                     "but no composition metadata")
        self._check_phi_acyclic()

    def _check_phi_acyclic(self) -> None:
        color = [0] * self.num_states
        for start in range(self.num_states):
            if color[start]:
                continue
            stack = [(start, 0)]
            while stack:
                q, i = stack.pop()
                if i == 0:
                    if color[q] == 1:
                        raise ValueError("phi cycle detected")
                    if color[q] == 2:
                        continue
                    color[q] = 1
                if i < len(self._phi[q]):
                    stack.append((q, i + 1))
                    stack.append((self._phi[q][i].dst, 0))
                else:
                    color[q] = 2

    # -- queries --

    @property
    def columns(self) -> Columns:
        """Edge columns as for :class:`Wfa`; phi edges carry label -1."""
        if self._columns is None:
            index = {a: i for i, a in enumerate(self.alphabet)}
            index[PHI] = -1
            self._columns = _columns_of(self.transitions, index)
        return self._columns

    def arcs(self, state: int) -> dict[str, Transition]:
        return self._out[state]

    def phi_arcs(self, state: int) -> tuple[Transition, ...]:
        return self._phi[state]

    def phi_arc(self, state: int) -> Optional[Transition]:
        p = self._phi[state]
        return p[0] if p else None

    def final_weight(self, state: int) -> float:
        return self.finals.get(state, 0.0)

    def has_phi(self) -> bool:
        return any(self._phi[q] for q in range(self.num_states))

    def max_phi_chain_depth(self) -> int:
        depth = [0] * self.num_states
        changed = True
        # Chains are acyclic, so |Q| sweeps suffice; in practice a few.
        for _ in range(self.num_states + 1):
            if not changed:
                break
            changed = False
            for t in self.transitions:
                if t.label == PHI and depth[t.src] < depth[t.dst] + 1:
                    depth[t.src] = depth[t.dst] + 1
                    changed = True
        return max(depth, default=0)

    def to_wfa(self) -> Wfa:
        if self.has_phi():
            raise ValueError("machine still has phi transitions; expand first")
        return Wfa(self.alphabet, self.num_states, self.initial, self.finals,
                   self.transitions, self.state_names)

    def __repr__(self) -> str:
        n_phi = sum(1 for t in self.transitions if t.label == PHI)
        return (f"PhiWfa(states={self.num_states}, transitions={len(self.transitions)}, "
                f"phi={n_phi})")


Machine = Union[Wfa, PhiWfa]


def as_phi(machine: Machine) -> PhiWfa:
    if isinstance(machine, PhiWfa):
        return machine
    return PhiWfa(machine.alphabet, machine.num_states, machine.initial,
                  machine.finals, machine.transitions, machine.state_names)


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


def shadowed_continuation(machine: PhiWfa, state: int, symbol: str,
                          max_chain: int = MAX_PHI_CHAIN
                          ) -> Optional[tuple[float, Transition]]:
    """First shadowed ``symbol`` edge hanging off ``state``'s phi chain.

    ``state`` defines ``symbol`` directly; the returned pair is the
    accumulated phi weight down to the first chain state that also
    defines it, together with that state's edge.  This is the path mass
    a summing traversal over-counts and the engine must cancel.
    Chain-style machines only (single phi per state).
    """
    phi = machine.phi_arc(state)
    if phi is None:
        return None
    w = phi.weight
    q = phi.dst
    for _ in range(max_chain + 1):
        t = machine.arcs(q).get(symbol)
        if t is not None:
            return (w, t)
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


def phi_expand(machine: PhiWfa, max_chain: int = MAX_PHI_CHAIN) -> Wfa:
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
            r = resolve_symbol(machine, q, a, max_chain)
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


# -- backward distances, powering, pushing ------------------------------------


def phi_backward_distances(machine: PhiWfa) -> dict[int, float]:
    """Sum over legal (shadow-respecting) paths from each state to final."""
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
                  machine.state_names, machine.pair_labels, machine.phi_moves)


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
                  machine.state_names, machine.pair_labels, machine.phi_moves)


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


def phi_intersect(m1: Machine, m2: Machine) -> PhiWfa:
    """Intersection of two phi-automata through the filter transducer.

    Left phi moves keep the right machine in place and vice versa; the
    both-sides move is only allowed from filter state 0, which admits
    exactly one phi path between any pair of composed states.  Inputs
    must be chain-style (at most one phi per state).
    """
    a1, a2 = as_phi(m1), as_phi(m2)
    if a1.alphabet != a2.alphabet:
        raise ValueError("alphabet mismatch in intersection")
    if a1.pair_labels is not None or a2.pair_labels is not None:
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
        return PhiWfa(a1.alphabet, 1, 0, {}, [], state_names=[start])
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
    result = PhiWfa(a1.alphabet, len(remap), remap[0], new_finals, ts,
                    state_names=kept_nodes, pair_labels=pair_labels, phi_moves=moves)
    return result
