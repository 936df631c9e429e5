"""Order-n Markov models over the expert alphabet.

An n-gram model is a point in the product of the simplices
w[. | context], one simplex per context of length < n.  As an automaton
it is the deterministic stochastic machine whose states are contexts,
which makes it a drop-in (cheap) replacement for a competitor machine
whose per-level transition count is too large.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

from .phi import PHI, PhiWfa
from .wfa import (Transition, Wfa, _edge_marginals, _horizon, intersect, leveled_best_path,
                  log_weight_range)

__all__ = [
    "NGramModel",
    "uniform_model",
    "ngram_to_wfa",
    "ml_ngram",
    "fixed_share_bigram",
    "minimax_unigram",
    "bigram_phi_machine",
]

SIMPLEX_TOL = 1e-12


class NGramModel:
    """Conditional tables w[a | context] for every context in Sigma^{<n}."""

    def __init__(self, alphabet: Sequence[str], order: int,
                 tables: dict[tuple[str, ...], np.ndarray]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.alphabet = tuple(alphabet)
        self.order = order
        self.sym_index = {a: i for i, a in enumerate(self.alphabet)}
        self.tables = {ctx: np.asarray(row, dtype=float) for ctx, row in tables.items()}
        n = len(self.alphabet)
        expected = self._all_contexts(self.alphabet, order)
        if set(self.tables) != set(expected):
            raise ValueError("tables must cover every context shorter than the order")
        for ctx, row in self.tables.items():
            if row.shape != (n,):
                raise ValueError(f"table for {ctx} has wrong length")
            if (row < 0).any():
                raise ValueError(f"negative weight in table for {ctx}")
            if abs(row.sum() - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"table for {ctx} sums to {row.sum()!r}, not 1")
        self.uniform_filled_contexts: tuple[tuple[str, ...], ...] = ()

    @staticmethod
    def _all_contexts(alphabet, order) -> list[tuple[str, ...]]:
        ctxs: list[tuple[str, ...]] = [()]
        frontier: list[tuple[str, ...]] = [()]
        for _ in range(order - 1):
            frontier = [c + (a,) for c in frontier for a in alphabet]
            ctxs.extend(frontier)
        return ctxs

    def context_of(self, prefix: Sequence[str]) -> tuple[str, ...]:
        k = self.order - 1
        return tuple(prefix[-k:]) if k > 0 else ()

    def cond(self, context: Sequence[str], symbol: str) -> float:
        return float(self.tables[self.context_of(context)][self.sym_index[symbol]])

    def sequence_logprob(self, sequence: Sequence[str]) -> float:
        total = 0.0
        for t, a in enumerate(sequence):
            w = self.cond(sequence[:t], a)
            if w == 0.0:
                return float("-inf")
            total += math.log(w)
        return total

    def sequence_prob(self, sequence: Sequence[str]) -> float:
        lp = self.sequence_logprob(sequence)
        return 0.0 if lp == float("-inf") else math.exp(lp)

    def num_simplices(self) -> int:
        return len(self.tables)

    def copy(self) -> "NGramModel":
        return NGramModel(self.alphabet, self.order,
                          {c: r.copy() for c, r in self.tables.items()})

    # -- serialization: context string -> {symbol: weight} --

    def to_json(self) -> str:
        payload = {
            "order": self.order,
            "alphabet": list(self.alphabet),
            "tables": {
                " ".join(ctx): {a: float(row[i]) for i, a in enumerate(self.alphabet)}
                for ctx, row in sorted(self.tables.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NGramModel":
        payload = json.loads(text)
        alphabet = tuple(payload["alphabet"])
        tables = {}
        for key, row in payload["tables"].items():
            ctx = tuple(key.split()) if key else ()
            tables[ctx] = np.array([row[a] for a in alphabet])
        return cls(alphabet, int(payload["order"]), tables)

    def __repr__(self) -> str:
        return f"NGramModel(order={self.order}, alphabet={self.alphabet})"


def uniform_model(alphabet: Sequence[str], order: int) -> NGramModel:
    alphabet = tuple(alphabet)
    n = len(alphabet)
    row = np.full(n, 1.0 / n)
    tables = {ctx: row.copy() for ctx in NGramModel._all_contexts(alphabet, order)}
    return NGramModel(alphabet, order, tables)


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


# -- maximum-likelihood estimation ----------------------------------------------


def _context_product(machine: Wfa, order: int) -> tuple[Wfa, np.ndarray]:
    """The machine times the context tracker of order-``order`` models:
    (product, each edge's model cell).  Built once
    per (machine, order) and kept on the machine; maximum-likelihood
    fitting and both divergences of :mod:`~wfa_hedge.approx` share it.

    The tracker is :func:`ngram_to_wfa`'s with weight 1 on every edge, so
    no zero cell of a model trims the product.  Cell context id *
    |alphabet| + symbol id indexes the model's tables laid end to end in
    context order, the tracker's state order.
    """
    if order not in machine._products:
        t = ngram_to_wfa(uniform_model(machine.alphabet, order))
        tc = t.columns
        tracker = Wfa.from_columns(t.alphabet, t.num_states, t.initial, t.finals,
                                   tc.src, tc.label, np.ones_like(tc.weight), tc.dst)
        product = intersect(machine, tracker)
        c = product.columns
        context = np.array(product.state_names, np.intp)[:, 1]
        machine._products[order] = (product, context[c.src] * len(t.alphabet) + c.label)
    return machine._products[order]


def ml_ngram(machine: Wfa, order: int) -> NGramModel:
    """Maximum-likelihood n-gram fit of the machine's path distribution.

    Conditional weights are ratios of expected context counts, which
    minimizes the relative entropy from the path distribution to the
    model.  The expected count of a cell (context, symbol) is the summed
    posterior of the edges reading it in the machine's context product,
    from one log-domain forward-backward sweep, so the fit holds at any
    horizon.  Contexts that never occur get uniform rows and are listed
    in ``uniform_filled_contexts`` on the result; they cannot affect any
    supported path.
    """
    product, cell = _context_product(machine, order)
    alphabet = machine.alphabet
    n = len(alphabet)
    contexts = NGramModel._all_contexts(alphabet, order)
    counts = np.bincount(cell, _edge_marginals(product)[0],
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


def fixed_share_bigram(num_experts: int, shifts: int, horizon: int,
                       alphabet: Optional[Sequence[str]] = None) -> NGramModel:
    """Closed-form ML bigram of the exact-shift machine at a horizon.

    Stay weight 1 - k/(T-1), each shift weight k/((T-1)(N-1)), uniform
    first symbol.  Running the engine on this model reproduces the
    Fixed-Share update.
    """
    if horizon < shifts + 2:
        raise ValueError("horizon must be at least shifts + 2")
    if num_experts < 2:
        raise ValueError("need at least two experts")
    from .wfa import default_alphabet
    if alphabet is None:
        alphabet = default_alphabet(num_experts)
    n, k, t = num_experts, shifts, horizon
    stay = 1.0 - k / (t - 1.0)
    shift = k / ((t - 1.0) * (n - 1.0))
    tables: dict[tuple[str, ...], np.ndarray] = {(): np.full(n, 1.0 / n)}
    for i, a in enumerate(alphabet):
        row = np.full(n, shift)
        row[i] = stay
        tables[(a,)] = row
    return NGramModel(alphabet, 2, tables)


def minimax_unigram(machine: Wfa) -> NGramModel:
    """Two-symbol unigram minimizing the worst-case log ratio.

    Requires uniform path weights.  The solution only depends on the
    smallest occurrence count n(a_j) of each symbol over supported paths
    (a shortest-path quantity): the candidate weight is
    max(1, n/(T-n)) / (1 + max(1, n/(T-n))) and the better of the two
    candidates (by worst-case sequence log-likelihood) wins.
    """
    alphabet = machine.alphabet
    if len(alphabet) != 2:
        raise ValueError("closed form needs a two-symbol alphabet")
    horizon = _horizon(machine)
    lo, hi = log_weight_range(machine)
    if abs(lo - hi) > 1e-9:
        raise ValueError("closed form needs uniform path weights")
    label = machine.columns.label

    def min_count(j: int) -> int:
        fewest = leveled_best_path(machine, np.where(label == j, -1.0, 0.0))
        return int(round(-fewest.value))

    t = float(horizon)
    best_j, best_obj, best_w = None, -math.inf, 0.0
    for j in range(len(alphabet)):
        n_j = min_count(j)
        ratio = math.inf if n_j >= t else n_j / (t - n_j)
        m = max(1.0, ratio)
        w = 1.0 if m == math.inf else m / (1.0 + m)
        obj = n_j * math.log(w)
        rest = t - n_j
        if rest > 0:
            obj += rest * (math.log(1.0 - w) if w < 1.0 else -math.inf)
        if obj > best_obj:
            best_j, best_obj, best_w = j, obj, w
    row = np.empty(2)
    row[best_j] = best_w
    row[1 - best_j] = 1.0 - best_w
    return NGramModel(alphabet, 1, {(): row})


def bigram_phi_machine(model: NGramModel) -> PhiWfa:
    """Failure-transition form of a bigram whose shift columns are constant.

    Needs w[a_j | a_i] identical across i != j for every target j.  Each
    context state keeps its stay loop and falls back to a shared hub
    carrying one shift edge per target, shrinking a level from N^2 to
    about 3N edges.
    """
    if model.order != 2:
        raise ValueError("phi compression is defined for bigrams")
    alphabet = model.alphabet
    n = len(alphabet)
    if n < 2:
        raise ValueError("need at least two symbols")
    shift = np.empty(n)
    for j in range(n):
        col = [model.tables[(a,)][j] for i, a in enumerate(alphabet) if i != j]
        if max(col) - min(col) > SIMPLEX_TOL:
            raise ValueError("shift weights are not shared across contexts")
        shift[j] = col[0]
    hub = n + 1
    ts = []
    root = model.tables[()]
    for j, a in enumerate(alphabet):
        ts.append(Transition(0, a, float(root[j]), 1 + j))
    for i, a in enumerate(alphabet):
        ts.append(Transition(1 + i, a, float(model.tables[(a,)][i]), 1 + i))
        ts.append(Transition(1 + i, PHI, 1.0, hub))
    for j, a in enumerate(alphabet):
        ts.append(Transition(hub, a, float(shift[j]), 1 + j))
    finals = {q: 1.0 for q in range(n + 1)}
    names = ["<start>"] + list(alphabet) + ["<hub>"]
    return PhiWfa(alphabet, n + 2, 0, finals, ts, state_names=names)
