"""Constructors for the competitor automata used throughout the package.

All builders emit deterministic machines with final weight one, matching
the convention of the rest of the toolkit.  Shift-style machines are
cyclic (they accept sequences of every length); intersect them with
:func:`length_automaton` to pin a horizon.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .wfa import Transition, Wfa, default_alphabet

__all__ = [
    "length_automaton",
    "exact_shift_automaton",
    "weighted_shift_automaton",
    "hierarchy_automaton",
]


def length_automaton(num_experts: int, horizon: int,
                     alphabet: Optional[Sequence[str]] = None) -> Wfa:
    """Acceptor of all sequences of length ``horizon``, every weight one.

    A chain of horizon+1 states with one transition per symbol between
    consecutive states; only the last state is final.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if alphabet is None:
        alphabet = default_alphabet(num_experts)
    if len(alphabet) != num_experts:
        raise ValueError("alphabet size does not match expert count")
    n = len(alphabet)
    src = np.repeat(np.arange(horizon), n)
    return Wfa.from_columns(alphabet, horizon + 1, 0, {horizon: 1.0}, src,
                            np.tile(np.arange(n), horizon), np.ones(horizon * n), src + 1)


def exact_shift_automaton(num_experts: int, shifts: int, at_most: bool = False,
                          alphabet: Optional[Sequence[str]] = None) -> Wfa:
    """Sequences with exactly ``shifts`` expert changes, all weights one.

    States are (shift level, current expert) pairs plus a start state.
    Only level-``shifts`` states are final by default; ``at_most=True``
    marks every level final, accepting at most that many changes.
    """
    if num_experts < 1:
        raise ValueError("need at least one expert")
    if num_experts < 2 and shifts >= 1:
        raise ValueError("shifting needs at least two experts")
    if shifts < 0:
        raise ValueError("negative shift count")
    if alphabet is None:
        alphabet = default_alphabet(num_experts)
    if len(alphabet) != num_experts:
        raise ValueError("alphabet size does not match expert count")

    n = num_experts
    def state(level: int, expert: int) -> int:
        return 1 + level * n + expert

    num_states = 1 + (shifts + 1) * n
    ts = []
    for i, a in enumerate(alphabet):
        ts.append(Transition(0, a, 1.0, state(0, i)))
    for level in range(shifts + 1):
        for i, a in enumerate(alphabet):
            ts.append(Transition(state(level, i), a, 1.0, state(level, i)))
            if level < shifts:
                for j, b in enumerate(alphabet):
                    if j != i:
                        ts.append(Transition(state(level, i), b, 1.0, state(level + 1, j)))
    if at_most:
        finals = {state(l, i): 1.0 for l in range(shifts + 1) for i in range(n)}
    else:
        finals = {state(shifts, i): 1.0 for i in range(n)}
    names = ["start"] + [f"L{l}:{alphabet[i]}" for l in range(shifts + 1) for i in range(n)]
    return Wfa(alphabet, num_states, 0, finals, ts, state_names=names)


def weighted_shift_automaton(weights: np.ndarray,
                             initial_weights: Optional[Sequence[float]] = None,
                             alphabet: Optional[Sequence[str]] = None) -> Wfa:
    """One-state-per-expert machine with per-pair stay/shift weights.

    ``weights[i, j]`` is the weight of moving from expert i to expert j
    (the diagonal is the stay weight).  The machine is a bigram-style
    model: state j is entered exactly by symbol j.  The weight of the
    initial expert choice is not pinned down by symmetry, so it is
    exposed explicitly; ``initial_weights`` defaults to all ones.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if (w < 0).any():
        raise ValueError("negative weight")
    n = w.shape[0]
    if alphabet is None:
        alphabet = default_alphabet(n)
    if initial_weights is None:
        initial_weights = [1.0] * n
    if len(initial_weights) != n:
        raise ValueError("initial weight vector has wrong length")
    if any(x < 0 for x in initial_weights):
        raise ValueError("negative weight")

    ts = []
    for j, a in enumerate(alphabet):
        ts.append(Transition(0, a, float(initial_weights[j]), 1 + j))
    for i in range(n):
        for j, a in enumerate(alphabet):
            ts.append(Transition(1 + i, a, float(w[i, j]), 1 + j))
    finals = {1 + j: 1.0 for j in range(n)}
    names = ["start"] + list(alphabet)
    return Wfa(alphabet, n + 1, 0, finals, ts, state_names=names)


def hierarchy_automaton(tiers: Sequence[tuple[str, int]]) -> Wfa:
    """Ordered expert tiers with per-tier shift budgets.

    ``tiers`` lists (symbol, budget) pairs: play must start on the first
    tier's expert, and each later expert may be shifted onto at most
    ``budget`` times.  State = (current tier, remaining budgets).
    """
    if not tiers:
        raise ValueError("empty tier specification")
    symbols = [s for s, _ in tiers]
    if len(set(symbols)) != len(symbols):
        raise ValueError("duplicate tier symbols")
    budgets = tuple(int(b) for _, b in tiers)
    if any(b < 0 for b in budgets):
        raise ValueError("negative shift budget")

    start = ("start", budgets)
    ids = {start: 0}
    order = [start]
    ts: list[Transition] = []
    idx = 0
    while idx < len(order):
        node = order[idx]
        idx += 1
        cur, rem = node
        src = ids[node]
        if cur == "start":
            moves = [(0, rem)]
        else:
            i = symbols.index(cur)
            moves = [(i, rem)]
            for j in range(len(symbols)):
                if j != i and rem[j] > 0:
                    nrem = rem[:j] + (rem[j] - 1,) + rem[j + 1:]
                    moves.append((j, nrem))
        for j, nrem in moves:
            nxt = (symbols[j], nrem)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            ts.append(Transition(src, symbols[j], 1.0, ids[nxt]))
    finals = {q: 1.0 for node, q in ids.items() if node[0] != "start"}
    names = [f"{c}:{r}" for c, r in order]
    return Wfa(tuple(sorted(symbols)), len(order), 0, finals, ts, state_names=names)
