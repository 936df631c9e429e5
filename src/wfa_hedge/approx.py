"""Worst-case log-ratio between a competitor machine and an n-gram model.

The quantity sup_x log(q(x) / q_w(x)) over supported sequences governs
the regret cost of replacing the competitor machine with the model, so
approximation here means minimizing it.  The supremum is a best-path
problem over the product of the machine with the model's context
tracker, and the relative entropy an expectation over the same product;
:func:`prod_eg` minimizes the supremum by exponentiated-gradient mirror
descent over the product of context simplices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ngram import NGramModel, _context_product, uniform_model
from .wfa import (Wfa, _edge_logs, _edge_marginals, _final_weights, _horizon, _log_normaliser,
                  exact_logs, leveled_best_path)

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

    def is_finite(self) -> bool:
        return self.value != math.inf


def _model_logs(model: NGramModel) -> np.ndarray:
    """The model's log-weights by cell, as :func:`~wfa_hedge.ngram._context_product`
    indexes them."""
    return exact_logs(np.concatenate([model.tables[ctx] for ctx in
                                      NGramModel._all_contexts(model.alphabet, model.order)]))


def divergence_inf(machine: Wfa, model: NGramModel) -> DivergenceValue:
    """sup over supported x of log(q(x) / q_w(x)), with the witness.

    q is the machine's normalized path distribution; the supremum runs
    over its support only.  A supported sequence the model gives zero
    weight yields +inf.  The machine must be leveled, as every caller's
    length-T intersection is.  One best-path sweep over the product of
    the machine with the model's context tracker, where an edge scores
    log w - log w[symbol | context]; ties break toward the
    lexicographically smallest sequence.
    """
    if machine.alphabet != model.alphabet:
        raise ValueError("alphabet mismatch")
    log_z = _log_normaliser(machine)
    if log_z == float("-inf"):
        raise ValueError("empty language")
    product, cell = _context_product(machine, model.order)
    log_w, log_m = _edge_logs(product), _model_logs(model)
    with np.errstate(invalid="ignore"):  # -inf - -inf on zero-weight edges, on no path
        score = log_w - log_m[cell]
    path = leveled_best_path(product, score, exact_logs(_final_weights(product)[1]))
    return DivergenceValue(value=path.value - log_z, witness=path.sequence)


def kl_divergence(machine: Wfa, model: NGramModel) -> float:
    """Relative entropy from the machine's path distribution q to the model.

    Over the product of the machine with the model's context tracker,
    KL = sum_e mu_e (log w_e - log w[cell_e]) + sum_f mu_f log rho_f - log Z,
    with mu the edge and final posteriors of one log-domain
    forward-backward sweep, so it holds at any size.  +inf when an edge
    with positive posterior reads a model cell of weight 0.
    """
    if machine.alphabet != model.alphabet:
        raise ValueError("alphabet mismatch")
    product, cell = _context_product(machine, model.order)
    log_w = _edge_logs(product)
    edge, final, log_final, log_z = _edge_marginals(product)
    on, end = np.flatnonzero(edge > 0.0), final > 0.0
    log_m = _model_logs(model)[cell[on]]
    if (log_m == -math.inf).any():
        return math.inf
    return (float(edge[on] @ (log_w[on] - log_m)) + float(final[end] @ log_final[end])
            - log_z)


def ratio_subgradient(model: NGramModel, sequence: Sequence[str]
                      ) -> dict[tuple[str, ...], np.ndarray]:
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


@dataclass
class ProdEGResult:
    model: NGramModel              # running average of the played iterates
    last: NGramModel               # final iterate
    objective: float               # divergence of the averaged model
    iterations: int
    grad_sup_norms: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)


class _ProdEGRun:
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
        self.grad_sup_norms.append(sup)
        if self.step_mode == "adaptive":
            self.grad_sq_sum += sup * sup
            eta = self.step_scale / math.sqrt(self.grad_sq_sum) if self.grad_sq_sum > 0 else 0.0
        else:
            eta = self.step_scale
        self.etas.append(eta)
        if eta > 0 and sup > 0:
            for ctx, row in self.model.tables.items():
                gr = g[ctx]
                if gr.any():
                    nrow = row * np.exp(-eta * gr)
                    row[:] = nrow / nrow.sum()
        for ctx, row in self.model.tables.items():
            self.sum_tables[ctx] += row
        self.steps += 1

    def average(self) -> NGramModel:
        tables = {c: r / self.steps for c, r in self.sum_tables.items()}
        return NGramModel(self.machine.alphabet, self.model.order, tables)

    def grad_sum(self) -> float:
        return float(sum(self.grad_sup_norms))


def prod_eg(machine: Wfa, order: int, iterations: int,
            step_mode: str = "adaptive", step_scale: Optional[float] = None,
            track_objective: bool = False) -> ProdEGResult:
    """Multiplicative-update minimization of the worst-case log ratio.

    Starts from the uniform model; each iteration takes the subgradient
    at the current worst sequence and renormalizes every touched
    simplex.  The guarantee is for the average of the played iterates,
    which is what gets returned as ``model``.  The adaptive step is
    scale / sqrt(sum of squared gradient sup-norms); ``constant`` uses
    ``step_scale`` directly.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    run = _ProdEGRun(machine, order, step_mode, step_scale)
    history = []
    for _ in range(iterations):
        run.step()
        if track_objective:
            history.append(divergence_inf(machine, run.average()).value)
    avg = run.average()
    return ProdEGResult(
        model=avg, last=run.model,
        objective=divergence_inf(machine, avg).value,
        iterations=iterations,
        grad_sup_norms=run.grad_sup_norms,
        etas=run.etas,
        objective_history=history,
    )


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
    horizon = _horizon(machine)
    target = math.sqrt(horizon)

    def probe(order: int) -> tuple[bool, NGramModel, float, float]:
        """Run the full budget at one order; fail on the first violation."""
        run = _ProdEGRun(machine, order, step_mode)
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
    run = _ProdEGRun(machine, order, step_mode)
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
                run = _ProdEGRun(machine, order, step_mode)
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
