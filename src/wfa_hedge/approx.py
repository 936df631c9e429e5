"""Worst-case log-ratio between a competitor machine and an n-gram model.

The quantity sup_x log(q(x) / q_w(x)) over supported sequences governs
the regret cost of replacing the competitor machine with the model, so
approximation here means minimizing it.  The supremum is a best-path
problem over the product of the machine with the model's context tracker,
and the relative entropy the mean of the same scores under the product's
posteriors from one scaled forward-backward sweep; :func:`prod_eg` minimizes
the supremum by exponentiated-gradient mirror descent over the context simplices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hedge import _expected_score
from .ngram import NGramModel, _context_product, uniform_model
from .wfa import Wfa, _compiled, _edge_logs, exact_logs, leveled_best_path

__all__ = [
    "DivergenceValue",
    "divergence_inf",
    "kl_divergence",
    "ratio_subgradient",
    "ProdEGResult",
    "prod_eg",
    "SelectionResult",
    "select_order",
]


@dataclass(frozen=True)
class DivergenceValue:
    value: float
    witness: tuple[str, ...]
    # the model cells the witness reads, in order (see wfa_hedge.ngram)
    cells: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def is_finite(self) -> bool:
        return self.value != math.inf


def divergence_inf(machine: Wfa, model: NGramModel) -> DivergenceValue:
    """sup over supported x of log(q(x) / q_w(x)), with the witness.

    q is the normalized path distribution of ``machine``, a horizon
    product; the supremum runs over its support only.  A supported
    sequence the model gives zero weight yields +inf.  One best-path sweep
    over the compiled product of the machine with the model's context
    tracker, where an edge scores log w - log w[symbol | context]; ties
    break toward the lexicographically smallest sequence.
    """
    product, cell, score = _log_ratios(machine, model)
    log_z = _compiled(machine).log_Z
    if log_z == float("-inf"):
        raise ValueError("empty language")
    path = leveled_best_path(product, score, exact_logs(product.compiled.final))
    return DivergenceValue(path.value - log_z, path.sequence, cell[path.edges])


def _log_ratios(machine: Wfa, model: NGramModel) -> tuple[Wfa, np.ndarray, np.ndarray]:
    """The machine's context product at the model's order, each edge's
    cell, and its score log w - log w[cell]."""
    if machine.alphabet != model.alphabet:
        raise ValueError("alphabet mismatch")
    product, cell = _context_product(machine, model.order)
    with np.errstate(invalid="ignore"):  # -inf - -inf on zero-weight edges, on no path
        return product, cell, _edge_logs(product) - exact_logs(model.probs)[cell]


def kl_divergence(machine: Wfa, model: NGramModel) -> float:
    """Relative entropy from a horizon product's path distribution q to
    the model.

    Over the product of the machine with the model's context tracker,
    KL = E[sum_e (log w_e - log w[cell_e]) + log rho_end] - log Z, the mean
    of :func:`divergence_inf`'s path scores under the posteriors of one scaled
    forward-backward sweep (:meth:`~wfa_hedge.hedge.CompiledMachine.posteriors`),
    so it holds at any size; log Z is the machine's compiled one.  +inf when
    an edge with positive posterior reads a model cell of weight 0.
    """
    product, cell, score = _log_ratios(machine, model)
    return _expected_score(product.compiled, score) - _compiled(machine).log_Z


def ratio_subgradient(model: NGramModel, sequence: Sequence[str]
                      ) -> dict[tuple[str, ...], np.ndarray]:
    """Gradient of -log q_w(x) in the conditional weights.

    Entry [ctx][a] is -count_x(ctx, a) / w[a | ctx] for the n-gram
    occurrences in ``x`` and zero elsewhere.  Touched entries must have
    positive weight.
    """
    n, row = len(model.alphabet), {c: i for i, c in enumerate(model.contexts)}
    cells = [row[model.context_of(sequence[:t])] * n + model.sym_index[a]
             for t, a in enumerate(sequence)]
    return dict(zip(model.contexts, _subgradient(model, np.array(cells, np.intp))))


def _subgradient(model: NGramModel, cells: np.ndarray) -> np.ndarray:
    """:func:`ratio_subgradient` as a (contexts x symbols) array, for the
    sequence that reads ``cells`` in order: -1/w is added to each cell
    it reads, in path order."""
    w = model.probs.ravel()[cells]
    if (w == 0.0).any():
        c, a = divmod(int(cells[np.argmin(w)]), len(model.alphabet))
        raise ValueError(f"zero weight on touched entry {model.contexts[c]} -> {model.alphabet[a]}")
    g = np.zeros(model.probs.shape)
    np.add.at(g.ravel(), cells, -1.0 / w)
    return g


@dataclass
class ProdEGResult:
    model: NGramModel              # running average of the played iterates
    last: NGramModel               # final iterate
    objective: float               # divergence of the averaged model
    iterations: int
    grad_sup_norms: list = field(default_factory=list)
    etas: list = field(default_factory=list)


class _ProdEGRun:
    """Incremental mirror-descent state, one update per step() call."""

    def __init__(self, machine: Wfa, order: int,
                 step_mode: str = "adaptive", step_scale: Optional[float] = None):
        if step_mode not in ("adaptive", "constant"):
            raise ValueError("unknown step mode")
        self.machine, self.step_mode = machine, step_mode
        self.model = uniform_model(machine.alphabet, order)
        self.total = self.model.probs.copy()  # sum of the played iterates
        self.steps = 1  # the uniform start has been "played"
        self.grad_sq_sum = 0.0
        self.grad_sup_norms: list[float] = []
        self.etas: list[float] = []
        self.step_scale = step_scale if step_scale is not None else math.sqrt(
            self.model.num_simplices() * math.log(len(machine.alphabet)) / 2.0)

    def step(self) -> None:
        div = divergence_inf(self.machine, self.model)
        p = self.model.probs
        if div.value <= 0.0:
            # Global optimum: the objective is non-negative, so stop
            # moving and let the average absorb the current point.
            sup = eta = 0.0
        else:
            g = _subgradient(self.model, div.cells)
            sup = float(np.abs(g).max())
            if self.step_mode == "adaptive":
                self.grad_sq_sum += sup * sup
                eta = (self.step_scale / math.sqrt(self.grad_sq_sum) if self.grad_sq_sum > 0
                       else 0.0)
            else:
                eta = self.step_scale
            if eta > 0 and sup > 0:
                touched = g.any(axis=1)
                with np.errstate(over="ignore"):
                    rows = p[touched] * np.exp(-eta * g[touched])
                    sums = rows.sum(axis=1, keepdims=True)
                if not np.isfinite(sums).all():
                    c = np.flatnonzero(touched)[~np.isfinite(sums[:, 0])][0]
                    raise ValueError(f"step scale {self.step_scale!r} overflows the update of "
                                     f"context {self.model.contexts[c]}; use a smaller one")
                p[touched] = rows / sums
        self.grad_sup_norms.append(sup)
        self.etas.append(eta)
        self.total += p
        self.steps += 1

    def average(self) -> NGramModel:
        return NGramModel(self.machine.alphabet, self.model.order, self.total / self.steps)

    def outcome(self) -> tuple[NGramModel, float, float]:
        """The average, its objective and its :func:`_slack`."""
        avg = self.average()
        return avg, divergence_inf(self.machine, avg).value, _slack(
            len(self.machine.alphabet), self.model.order, self.steps - 1, sum(self.grad_sup_norms))


def prod_eg(machine: Wfa, order: int, iterations: int,
            step_mode: str = "adaptive", step_scale: Optional[float] = None) -> ProdEGResult:
    """Multiplicative-update minimization of the worst-case log ratio.

    Starts from the uniform model; each iteration takes the subgradient
    at the current worst sequence and renormalizes every touched
    simplex.  The guarantee is for the average of the played iterates,
    which is what gets returned as ``model``.  The adaptive step is
    scale / sqrt(sum of squared gradient sup-norms); ``constant`` uses
    ``step_scale`` directly.  A step whose multiplicative update
    overflows raises ValueError naming the step scale and the context.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    run = _ProdEGRun(machine, order, step_mode, step_scale)
    for _ in range(iterations):
        run.step()
    avg = run.average()
    return ProdEGResult(model=avg, last=run.model, objective=divergence_inf(machine, avg).value,
                        iterations=iterations, grad_sup_norms=run.grad_sup_norms, etas=run.etas)


# -- model-order selection --------------------------------------------------------


@dataclass
class SelectionResult:
    model: NGramModel
    order: int
    feasible: bool
    objective: float
    slack: float               # the bound term subtracted from the objective
    budget_limited: bool
    tried: list = field(default_factory=list)


def _slack(n_sym: int, order: int, steps: int, grad_sum: float) -> float:
    """Optimization-error allowance after ``steps`` updates at one order.

    sqrt(2 N^n log N * sum_s ||g_s||_inf) / steps: the averaged-iterate
    gap certificate, decaying like 1/sqrt(steps) since the gradient-norm
    sum grows linearly.
    """
    if n_sym < 2:
        raise ValueError("need at least two symbols")
    steps = max(1, steps)
    return math.sqrt(2.0 * (n_sym ** order) * math.log(n_sym) * grad_sum
                     / (n_sym - 1)) / steps


def select_order(machine: Wfa, iterations: int, budget: int) -> SelectionResult:
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
    target = math.sqrt(_compiled(machine).horizon)

    def fit(order: int, stop: bool) -> tuple[bool, _ProdEGRun]:
        """Run the full budget at one order; a violation fails it, and ends
        the run if ``stop``."""
        run, ok = _ProdEGRun(machine, order), True
        for _ in range(iterations):
            run.step()
            _, obj, slack = run.outcome()
            if obj - slack > target:
                ok = False
                if stop:
                    break
        return ok, run

    order = 1
    while True:
        blocked = n_sym ** (2 * order) > budget  # no doubling past this order
        ok, run = fit(order, stop=not blocked)
        if ok or blocked:
            break
        order *= 2
    avg, obj, slack = run.outcome()
    tried = [(order, ok, obj, slack)]
    if not ok:
        if order != 1:
            avg, obj, slack = fit(1, stop=True)[1].outcome()
        return SelectionResult(model=avg, order=1, feasible=False, objective=obj, slack=slack,
                               budget_limited=True, tried=tried)

    lo, hi = 1, order
    while lo < hi:
        mid = (lo + hi) // 2
        ok_mid, run = fit(mid, stop=True)
        model_mid, obj_mid, slack_mid = run.outcome()
        tried.append((mid, ok_mid, obj_mid, slack_mid))
        if ok_mid:
            hi, avg, obj, slack = mid, model_mid, obj_mid, slack_mid
        else:
            lo = mid + 1
    return SelectionResult(model=avg, order=hi, feasible=True, objective=obj, slack=slack,
                           budget_limited=False, tried=tried)
