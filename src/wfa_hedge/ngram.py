"""Order-n Markov models over the expert alphabet.

An n-gram model is a point in the product of the simplices
w[. | context], one simplex per context of length < n.  As an automaton
it is the deterministic stochastic machine whose states are contexts,
which makes it a drop-in (cheap) replacement for a competitor machine
whose per-level transition count is too large.

A model is one (contexts x symbols) array ``probs``.  Contexts are
numbered breadth-first (c + a is c * |Sigma| + 1 + a while c is shorter
than n - 1), and cell c * |Sigma| + a of the flat array is w[a | c]: the
context machine's edges and the (state, context) product's edge cells
are in this order.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .hedge import CompiledMachine
from .phi import PHI, PhiWfa
from .wfa import (Transition, Wfa, _compiled, default_alphabet, intersect,
                  leveled_best_path, log_weight_range)

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
    """Conditional tables w[a | context] for every context in Sigma^{<n}.

    ``tables``, a {context: row} mapping or the array of rows in
    :attr:`contexts` order, is copied into :attr:`probs`; :attr:`tables`
    maps each context to a view of its row, to write in place."""

    def __init__(self, alphabet: Sequence[str], order: int,
                 tables: Mapping[tuple[str, ...], Sequence[float]] | np.ndarray):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.alphabet, self.order = tuple(alphabet), order
        self.sym_index = {a: i for i, a in enumerate(self.alphabet)}
        self.contexts = tuple(self._all_contexts(self.alphabet, order))
        shape = (len(self.contexts), len(self.alphabet))
        if not isinstance(tables, np.ndarray):
            if set(tables) != set(self.contexts):
                raise ValueError("tables must cover every context shorter than the order")
            for ctx in self.contexts:
                if np.shape(tables[ctx]) != shape[1:]:
                    raise ValueError(f"table for {ctx} has wrong length")
            tables = [tables[ctx] for ctx in self.contexts]
        probs = np.array(tables, dtype=float)
        if probs.shape != shape:
            raise ValueError(f"weights of shape {probs.shape}, expected {shape}")
        with np.errstate(invalid="ignore"):  # inf - inf, refused as non-finite first
            sums = probs.sum(axis=1)
        for bad, problem in ((~np.isfinite(probs).all(axis=1), "has a non-finite weight"),
                             ((probs < 0).any(axis=1), "has a negative weight"),
                             (np.abs(sums - 1.0) > SIMPLEX_TOL, "sums to {!r}, not 1")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"table for {self.contexts[i]} " + problem.format(sums[i]))
        self.probs = probs
        self.tables = MappingProxyType(dict(zip(self.contexts, probs)))
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
        return len(self.contexts)

    def copy(self) -> "NGramModel":
        return NGramModel(self.alphabet, self.order, self.probs)

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
            missing = [a for a in alphabet if a not in row]
            extra = [a for a in row if a not in alphabet]
            if missing or extra:
                raise ValueError(f"table for {ctx} has no weight for symbol {missing[0]!r}"
                                 if missing else f"table for {ctx} has a weight for symbol "
                                 f"{extra[0]!r}, which is not in the alphabet")
            tables[ctx] = np.array([row[a] for a in alphabet])
        return cls(alphabet, int(payload["order"]), tables)

    def __repr__(self) -> str:
        return f"NGramModel(order={self.order}, alphabet={self.alphabet})"


def _num_contexts(n_sym: int, order: int) -> int:
    return sum(n_sym ** k for k in range(order))


def uniform_model(alphabet: Sequence[str], order: int) -> NGramModel:
    n = len(alphabet)
    return NGramModel(alphabet, order, np.full((_num_contexts(n, order), n), 1.0 / n))


def _tracker(alphabet: Sequence[str], order: int, weight=1.0,
             state_names: Optional[Sequence] = None) -> Wfa:
    """The order-``order`` context machine: each context a final state of
    weight 1, and edge ``cell`` (context c reading a) of weight
    ``weight[cell]`` into the last n - 1 symbols of c + a."""
    n = len(alphabet)
    contexts, full = _num_contexts(n, order), n ** (order - 1)
    cell = np.arange(contexts * n)
    child = cell + 1  # c * |Sigma| + 1 + a, numbered past the contexts when c is full
    dst = np.where(child < contexts, child, contexts - full + (child - contexts) % full)
    return Wfa.from_columns(alphabet, contexts, 0, dict.fromkeys(range(contexts), 1.0),
                            cell // n, cell % n, np.broadcast_to(weight, cell.shape), dst,
                            state_names=state_names)


def ngram_to_wfa(model: NGramModel) -> Wfa:
    """Deterministic stochastic WFA with one state per context.

    The empty context is initial, every state is final with weight one,
    and reading ``a`` in context ``c`` moves to the last (n-1) symbols
    of ``c + a`` with weight w[a | c], edge c * |alphabet| + a.
    """
    names = [" ".join(c) if c else "<start>" for c in model.contexts]
    return _tracker(model.alphabet, model.order, model.probs.ravel(), names)


# -- maximum-likelihood estimation ----------------------------------------------


def _context_product(machine: Wfa, order: int) -> tuple[Wfa, np.ndarray]:
    """The horizon product ``machine`` times the context machine of
    order-``order`` models at weight 1, so that no zero cell trims it,
    compiled: (product, each edge's cell).  Built once per (machine,
    order) and kept on the machine; maximum-likelihood fitting and both
    divergences of :mod:`~wfa_hedge.approx` share it.

    The intersection's breadth-first search reaches a state of level t
    at distance t, so it numbers the states level by level, and lists
    the edges by source: the level offsets are those of the machine's
    states in the pairs, with no phi edge and no correction row."""
    if order < 1:
        raise ValueError("order must be >= 1")
    cm = _compiled(machine)
    if order not in machine._products:
        product = intersect(machine, _tracker(machine.alphabet, order))
        c, origin = product.columns, product.origin
        none = np.zeros(0, np.intp)
        off = np.searchsorted(cm.level[origin[:, 0]], np.arange(cm.horizon + 2))
        product.compiled = CompiledMachine(product, cm.horizon, off, (none, none, np.zeros(0)))
        machine._products[order] = (product, origin[c.src, 1] * len(machine.alphabet) + c.label)
    return machine._products[order]


def ml_ngram(machine: Wfa, order: int) -> NGramModel:
    """Maximum-likelihood n-gram fit of a horizon product's path distribution.

    Conditional weights are ratios of expected context counts, which
    minimizes the relative entropy from the path distribution to the
    model.  The expected count of a cell (context, symbol) is the summed
    posterior of the edges reading it in the machine's context product,
    from one scaled forward-backward sweep (``CompiledMachine.posteriors``),
    so the fit holds at any horizon.  Contexts that never occur get uniform
    rows and are listed in ``uniform_filled_contexts`` on the result; they
    cannot affect any supported path.
    """
    product, cell = _context_product(machine, order)
    n = len(machine.alphabet)
    counts = np.bincount(cell, product.compiled.posteriors()[0],
                         minlength=_num_contexts(n, order) * n).reshape(-1, n)
    empty = counts.sum(axis=1) <= 0.0
    counts[empty] = 1.0
    model = NGramModel(machine.alphabet, order, counts / counts.sum(axis=1, keepdims=True))
    model.uniform_filled_contexts = tuple(model.contexts[i] for i in np.flatnonzero(empty))
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
    if alphabet is None:
        alphabet = default_alphabet(num_experts)
    n, k, t = num_experts, shifts, horizon
    probs = np.full((n + 1, n), k / ((t - 1.0) * (n - 1.0)))
    probs[0] = 1.0 / n
    probs[1:][np.diag_indices(n)] = 1.0 - k / (t - 1.0)
    return NGramModel(alphabet, 2, probs)


def minimax_unigram(machine: Wfa) -> NGramModel:
    """Two-symbol unigram minimizing the worst-case log ratio.

    Takes a horizon product with uniform path weights.  The solution
    only depends on the smallest occurrence count n(a_j) of each symbol
    over supported paths (a shortest-path quantity): the candidate weight is
    max(1, n/(T-n)) / (1 + max(1, n/(T-n))) and the better of the two
    candidates (by worst-case sequence log-likelihood) wins.
    """
    alphabet = machine.alphabet
    if len(alphabet) != 2:
        raise ValueError("closed form needs a two-symbol alphabet")
    horizon = _compiled(machine).horizon
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
    p = model.probs  # row 1 + i is the context (alphabet[i],)
    shifted = np.where(np.eye(n, dtype=bool), np.nan, p[1:])
    if (np.nanmax(shifted, axis=0) - np.nanmin(shifted, axis=0) > SIMPLEX_TOL).any():
        raise ValueError("shift weights are not shared across contexts")
    shift = shifted[(np.arange(n) == 0).astype(np.intp), np.arange(n)]  # first off the diagonal
    hub = n + 1
    ts = [Transition(0, a, float(p[0, j]), 1 + j) for j, a in enumerate(alphabet)]
    for i, a in enumerate(alphabet):
        ts += [Transition(1 + i, a, float(p[1 + i, i]), 1 + i), Transition(1 + i, PHI, 1.0, hub)]
    ts += [Transition(hub, a, float(shift[j]), 1 + j) for j, a in enumerate(alphabet)]
    finals = {q: 1.0 for q in range(n + 1)}
    names = ["<start>"] + list(alphabet) + ["<hub>"]
    return PhiWfa(alphabet, n + 2, 0, finals, ts, state_names=names)
