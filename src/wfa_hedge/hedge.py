"""Exponential-weights prediction over automaton-encoded expert sequences.

The engine maintains, implicitly, an exponentially reweighted
distribution over all length-T expert sequences accepted by a competitor
automaton.  :func:`hedge_init` intersects the competitor with the
length-T acceptor and compiles the result once into level-sorted edge
arrays (:class:`CompiledMachine`).  Level t holds the consuming edges
leaving its states, which read symbol t + 1, and the failure (phi)
edges among its states, grouped by chain depth.  Each shadowed continuation of a phi chain
becomes one extra consuming edge with a negative weight, so plain and
phi machines run the same sweeps.

Every pass is a per-level ``np.bincount`` sweep in float64: the
backward sweep once at preparation, then per round the readout of p_t,
the loss application and the forward advance, each touching one level.
The forward vector alpha and the backward vector beta have one entry
per state; each level's slice is rescaled to maximum 1 and its log
scale accumulated (the scaled forward-backward of Rabiner 1989), so the
sweeps neither under- nor overflow at any horizon.  The backward sweeps at
powers 1 and eta yield log Z and log Z_eta.

Per-round distributions: p_t[a] is the posterior marginal of the t-th
symbol given losses 1..t-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .builders import length_automaton
from .phi import PHI, PhiWfa, phi_expand, phi_intersect, shadowed_continuation
from .wfa import Wfa, count_accepting_paths, intersect, leveled_best_path

__all__ = [
    "HedgeState",
    "CompiledMachine",
    "hedge_init",
    "hedge_step",
    "sample",
    "weighted_regret",
    "unweighted_regret",
    "best_competitor",
    "renyi_entropy",
    "shannon_entropy",
    "renyi_entropy_machine",
    "tune_eta_fixed",
    "tune_eta_renyi",
    "log_sum",
    "log_power_sum",
    "path_distribution",
    "RegretReport",
    "summarize",
]

ETA_FLOOR = 1e-6
ETA_CAP = 10.0
NEG_INF = float("-inf")

Machine = Union[Wfa, PhiWfa]


def log_sum(logs) -> float:
    """Stable log(sum(exp(l) for l in logs)) over plain (positive) logs."""
    m = NEG_INF
    for l in logs:
        if l > m:
            m = l
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(l - m) for l in logs))


# -- the compiled machine --------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """The consuming edges leaving one level, as indices into
    ``machine.transitions``."""
    consuming: np.ndarray


class CompiledMachine:
    """A length-T intersection as level-sorted edge arrays.

    States are renumbered so that level t occupies ids
    ``state_off[t]:state_off[t+1]``.  The consuming edges leaving level t
    occupy ``edge_off[t]:edge_off[t+1]``: first the machine's own
    (ending at ``real_end[t]``), then one correction edge per shadowed
    phi continuation.  Edge e has global ids ``src``/``dst``, expert id
    ``label`` and weight ``coef[e] * exp(log_w[tid[e]])``, where log_w
    is indexed like ``machine.transitions``: a correction edge reuses the
    log-weight of the edge it shadows, so a loss charged to that label
    reaches both, and carries coef = -(phi chain weight).  Phi edges are
    sorted by level and by the chain depth of their source; each run of
    equal (level, depth) is one group, ``group_bounds[g]:group_bounds[g+1]``
    in the phi arrays, and level t owns groups ``group_off[t]:group_off[t+1]``.
    All weights here are raw; :meth:`backward` raises them to a power.
    """

    def __init__(self, machine: Machine, horizon: int):
        cols, n_s = machine.columns, machine.num_states
        # Intersection states are (competitor state, length-acceptor
        # state, ...) tuples, and the length-acceptor state is the level.
        level = np.fromiter((name[1] for name in machine.state_names), np.intp, n_s)
        order = np.argsort(level, kind="stable")
        renum = np.empty(n_s, np.intp)
        renum[order] = np.arange(n_s)
        level = level[order]  # by new id
        self.horizon = horizon
        self.num_states = n_s
        self.initial = int(renum[machine.initial])
        self.state_off = np.searchsorted(level, np.arange(horizon + 2))

        src, dst, label = renum[cols.src], renum[cols.dst], cols.label
        with np.errstate(divide="ignore"):
            self.log_w = np.log(cols.weight)
        self.final = np.zeros(n_s)
        for q, w in machine.finals.items():
            self.final[renum[q]] = w

        # Consuming edges, then the shadow corrections of phi machines:
        # rows (correcting edge, shadowed edge, phi chain weight).
        shadow = []
        if isinstance(machine, PhiWfa) and machine.has_phi():
            trs = machine.transitions
            at = {(t.src, t.label): i for i, t in enumerate(trs) if t.label != PHI}
            for i, t in enumerate(trs):
                if t.label != PHI and machine.phi_arc(t.src) is not None:
                    sc = shadowed_continuation(machine, t.src, t.label)
                    if sc is not None:
                        shadow.append((i, at[(sc[1].src, sc[1].label)], sc[0]))
        shadow = np.array(shadow, dtype=float).reshape(-1, 3)
        own, shadowed = shadow[:, 0].astype(np.intp), shadow[:, 1].astype(np.intp)
        real = np.flatnonzero(label >= 0)
        self.src = src[np.concatenate([real, own])]
        self.dst = dst[np.concatenate([real, shadowed])]
        tid = np.concatenate([real, shadowed])
        coef = np.concatenate([np.ones(len(real)), -shadow[:, 2]])
        key = 2 * level[self.src] + np.repeat([0, 1], [len(real), len(own)])
        by_level = np.argsort(key, kind="stable")
        self.src, self.dst = self.src[by_level], self.dst[by_level]
        self.tid, self.coef = tid[by_level], coef[by_level]
        self.label = label[self.tid]
        key = key[by_level]
        self.edge_off = np.searchsorted(key, 2 * np.arange(horizon + 2))
        self.real_end = np.searchsorted(key, 2 * np.arange(horizon + 1) + 1)

        # Phi edges by (level, longest phi path into the source): a
        # group only reads states whose phi inflow is complete.
        pid = np.flatnonzero(label < 0)
        depth = np.zeros(n_s, np.intp)
        while len(pid):
            deeper = depth.copy()
            np.maximum.at(deeper, dst[pid], depth[src[pid]] + 1)
            if (deeper == depth).all():
                break
            depth = deeper
        pkey = level[src[pid]] * (depth.max() + 1) + depth[src[pid]]
        by_key = np.argsort(pkey, kind="stable")
        self.ptid = pid[by_key]
        self.psrc, self.pdst = src[self.ptid], dst[self.ptid]
        starts = np.flatnonzero(np.diff(pkey[by_key], prepend=-1))
        self.group_bounds = np.append(starts, len(pid))
        self.group_off = np.searchsorted(level[self.psrc[starts]], np.arange(horizon + 2))

    def levels(self) -> list[Level]:
        return [Level(self.tid[self.edge_off[t]:self.real_end[t]])
                for t in range(self.horizon + 1)]

    def weights(self, log_w: np.ndarray, coef: np.ndarray, a: int, b: int) -> np.ndarray:
        return coef[a:b] * np.exp(log_w[self.tid[a:b]])

    def extend(self, t: int, alpha: np.ndarray, phi_w: np.ndarray) -> None:
        """Push level t's forward weights along its phi edges, shallow
        chain states first."""
        lo, hi = self.state_off[t], self.state_off[t + 1]
        for g in range(self.group_off[t], self.group_off[t + 1]):
            a, b = self.group_bounds[g], self.group_bounds[g + 1]
            alpha[lo:hi] += np.bincount(self.pdst[a:b] - lo, alpha[self.psrc[a:b]] * phi_w[a:b],
                                        minlength=hi - lo)

    def powered(self, power: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log_w, coef, phi weights) with every weight raised to ``power``."""
        log_w = power * self.log_w
        coef = np.copysign(np.abs(self.coef) ** power, self.coef)
        return log_w, coef, np.exp(log_w[self.ptid])

    def backward(self, power: float) -> tuple[np.ndarray, float]:
        """Scaled backward sweep with every weight raised to ``power``.

        Returns beta, each level's slice rescaled to maximum 1, and the
        log of the total path weight.  Final weights only sit at level T,
        where the length acceptor ends.
        """
        log_w, coef, phi_w = self.powered(power)
        beta = np.zeros(self.num_states)
        log_scale = 0.0
        so, eo, gb = self.state_off, self.edge_off, self.group_bounds
        for t in range(self.horizon, -1, -1):
            lo, hi = so[t], so[t + 1]
            if t == self.horizon:
                b = self.final[lo:hi] ** power
            else:
                a, e = eo[t], eo[t + 1]
                flow = self.weights(log_w, coef, a, e) * beta[self.dst[a:e]]
                b = np.bincount(self.src[a:e] - lo, flow, minlength=hi - lo)
                # A phi source inherits its target's consuming mass, so
                # the deepest chain states settle first.
                for g in range(self.group_off[t + 1] - 1, self.group_off[t] - 1, -1):
                    ga, gz = gb[g], gb[g + 1]
                    b += np.bincount(self.psrc[ga:gz] - lo, phi_w[ga:gz] * b[self.pdst[ga:gz] - lo],
                                     minlength=hi - lo)
            m = np.abs(b).max()
            if m > 0:
                b /= m
                log_scale += math.log(m)
            beta[lo:hi] = b
        z = beta[self.initial]
        return beta, (log_scale + math.log(z) if z > 0 else NEG_INF)


# -- the online state ------------------------------------------------------------


class HedgeState:
    """Mutable per-experiment state.  Single-writer: rounds are sequential.

    ``machine`` is the competitor intersected with the length-T acceptor;
    ``log_w`` holds its eta-powered transition log-weights, indexed like
    ``machine.transitions``, with the losses charged so far.  ``alpha``
    and ``beta`` are indexed by the state ids of ``compiled``.
    """

    def __init__(self, machine: Machine, horizon: int, eta: float):
        self.machine = machine
        self.T = horizon
        self.eta = eta
        self.rounds_done = 0
        self.alphabet = machine.alphabet
        self.num_experts = len(machine.alphabet)
        self.sym_index = {a: i for i, a in enumerate(machine.alphabet)}

        self.compiled = cm = CompiledMachine(machine, horizon)
        self.levels = cm.levels()
        self.log_Z = cm.backward(1.0)[1]
        self.beta, self.log_Z_eta = cm.backward(eta)
        self.log_w, self._coef, self._phi_w = cm.powered(eta)
        self.alpha = np.zeros(cm.num_states)
        self.alpha[cm.initial] = 1.0
        cm.extend(0, self.alpha, self._phi_w)

        self.p_history: list[np.ndarray] = []
        self.loss_history: list[np.ndarray] = []
        self.expected_losses: list[float] = []
        self.touched_per_round: list[int] = []
        self.work_per_round: list[int] = []
        self.cumulative_loss = 0.0
        self.p_current = self._readout(0)
        self.p_history.append(self.p_current)

    @cached_property
    def competitor(self) -> Wfa:
        """The played sequences as a plain machine (phi chains expanded),
        built when the regret accounting first needs it."""
        return phi_expand(self.machine) if isinstance(self.machine, PhiWfa) else self.machine

    @cached_property
    def K(self) -> int:
        return count_accepting_paths(self.competitor)

    # -- per-level sweeps --

    def _flows(self, t: int) -> np.ndarray:
        """Per-label path mass alpha * w * beta over level t's consuming
        edges, in level t's scale."""
        cm = self.compiled
        a, b = cm.edge_off[t], cm.edge_off[t + 1]
        mass = (self.alpha[cm.src[a:b]] * cm.weights(self.log_w, self._coef, a, b)
                * self.beta[cm.dst[a:b]])
        return np.bincount(cm.label[a:b], mass, minlength=self.num_experts)

    def _readout(self, t: int) -> np.ndarray:
        flows = np.maximum(self._flows(t), 0.0)
        total = flows.sum()
        if not total > 0:
            raise ValueError("no probability mass left at this level")
        # Edges visited by one pass over the level: phi edges, consuming
        # edges, and the corrections whose source carries mass.
        cm = self.compiled
        touched = (cm.real_end[t] - cm.edge_off[t]
                   + cm.group_bounds[cm.group_off[t + 1]] - cm.group_bounds[cm.group_off[t]]
                   + np.count_nonzero(self.alpha[cm.src[cm.real_end[t]:cm.edge_off[t + 1]]]))
        self._touched = int(touched)
        return flows / total

    def _reweight(self, t: int, delta: np.ndarray) -> None:
        """Add ``delta[label]`` to the log-weight of level t's edges."""
        cm = self.compiled
        a, b = cm.edge_off[t], cm.real_end[t]
        self.log_w[cm.tid[a:b]] += delta[cm.label[a:b]]

    def _advance(self) -> Optional[np.ndarray]:
        """Push alpha across the current level, then read out the next
        distribution (None after the last round)."""
        cm, t = self.compiled, self.rounds_done
        a, b = cm.edge_off[t], cm.edge_off[t + 1]
        lo, hi = cm.state_off[t + 1], cm.state_off[t + 2]
        mass = self.alpha[cm.src[a:b]] * cm.weights(self.log_w, self._coef, a, b)
        nxt = np.bincount(cm.dst[a:b] - lo, mass, minlength=hi - lo)
        self.alpha[lo:hi] = nxt
        cm.extend(t + 1, self.alpha, self._phi_w)
        peak = np.abs(self.alpha[lo:hi]).max()
        if peak > 0:
            self.alpha[lo:hi] /= peak
        self.rounds_done += 1
        # The readout and the advance each pass the level once.
        self.touched_per_round.append(self._touched)
        self.work_per_round.append(2 * self._touched)
        if self.rounds_done < self.T:
            self.p_current = self._readout(self.rounds_done)
            self.p_history.append(self.p_current)
        else:
            self.p_current = None
        return self.p_current


def _intersect_horizon(competitor: Machine, horizon: int, eta: float) -> Machine:
    """The competitor intersected with the length-``horizon`` acceptor."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if eta <= 0:
        raise ValueError("learning rate must be positive")
    s_t = length_automaton(len(competitor.alphabet), horizon, alphabet=competitor.alphabet)
    if isinstance(competitor, PhiWfa) and competitor.has_phi():
        inter = phi_intersect(competitor, s_t)
        if any(len(inter.phi_arcs(q)) > 1 for q in range(inter.num_states)):
            raise ValueError("engine requires chain-style phi machines")
    else:
        if isinstance(competitor, PhiWfa):
            competitor = competitor.to_wfa()
        inter = intersect(competitor, s_t)
    if not inter.finals:
        raise ValueError("no competitor sequence of this length")
    return inter


def hedge_init(competitor: Machine, horizon: int, eta: float) -> HedgeState:
    """Prepare the online state for a competitor automaton.

    Intersects with the length-``horizon`` acceptor and compiles the
    result into level-sorted arrays; one scaled backward sweep at the
    ``eta`` power gives the backward weights, from which the first
    distribution is read off level 0.
    """
    return HedgeState(_intersect_horizon(competitor, horizon, eta), horizon, eta)


def _check_loss(state: HedgeState, loss: Sequence[float]) -> np.ndarray:
    if state.rounds_done >= state.T:
        raise ValueError("stepping past the horizon")
    loss = np.asarray(loss, dtype=float)
    if loss.shape != (state.num_experts,):
        raise ValueError("loss vector has wrong length")
    if (loss < 0).any() or (loss > 1).any():
        raise ValueError("losses must lie in [0, 1]")
    return loss


def hedge_step(state: HedgeState, loss: Sequence[float]) -> Optional[np.ndarray]:
    """Consume one loss vector; returns the next round's distribution.

    The final round (t == T) only settles the bookkeeping and returns
    None, as there is no position T+1 to predict.
    """
    loss = _check_loss(state, loss)
    expected = float(state.p_current @ loss)
    state.expected_losses.append(expected)
    state.cumulative_loss += expected
    state.loss_history.append(loss.copy())
    state._reweight(state.rounds_done, -state.eta * loss)
    return state._advance()


def sample(p: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; reproducible for a fixed generator state."""
    u = rng.random()
    c = 0.0
    for i, pi in enumerate(p):
        c += pi
        if u < c:
            return i
    return len(p) - 1


# -- path sums and regret -------------------------------------------------------


def log_power_sum(machine: Wfa, eta: float) -> float:
    """log of the sum over accepting paths of (path weight)**eta."""
    from .wfa import topological_order
    order = topological_order(machine)
    d = [NEG_INF] * machine.num_states
    for q in reversed(order):
        parts = []
        fw = machine.final_weight(q)
        if fw > 0.0:
            parts.append(eta * math.log(fw))
        for t in machine.arcs(q).values():
            if t.weight > 0.0 and d[t.dst] > NEG_INF:
                parts.append(eta * math.log(t.weight) + d[t.dst])
        d[q] = log_sum(parts) if parts else NEG_INF
    return d[machine.initial]


def path_distribution(machine: Wfa, limit: int = 100_000) -> dict[tuple[str, ...], float]:
    """Normalized path weights by enumeration (desk-scale helper)."""
    from .wfa import enumerate_support
    support = enumerate_support(machine, limit)
    z = sum(w for _, w in support)
    return {seq: w / z for seq, w in support}


def best_competitor(competitor: Wfa, losses: Sequence[np.ndarray],
                    weighted: bool) -> tuple[tuple[str, ...], float, float]:
    """Best supported sequence for the regret maximization.

    Returns (sequence, its cumulative loss, its log probability under the
    competitor distribution).  ``weighted`` adds the log-probability term
    to the maximized objective; ties break lexicographically.
    """
    losses = [np.asarray(l, dtype=float) for l in losses]
    sym = {a: i for i, a in enumerate(competitor.alphabet)}
    log_z = log_power_sum(competitor, 1.0)

    if weighted:
        def score(t, level):
            return -losses[level][sym[t.label]] + math.log(t.weight)
    else:
        def score(t, level):
            return -losses[level][sym[t.label]]

    def final_score(q):
        return math.log(competitor.final_weight(q)) if weighted else 0.0

    _, seq = leveled_best_path(competitor, score, final_score, maximize=True)
    path_loss = sum(losses[i][sym[a]] for i, a in enumerate(seq))
    # Sum log-weights along the path: its linear weight can underflow.
    q, log_w = competitor.initial, 0.0
    for a in seq:
        t = competitor.arcs(q)[a]
        log_w += math.log(t.weight)
        q = t.dst
    log_q = log_w + math.log(competitor.final_weight(q)) - log_z
    return seq, float(path_loss), log_q


def weighted_regret(p_rounds: Sequence[np.ndarray], losses: Sequence[np.ndarray],
                    competitor: Wfa) -> float:
    """Regret against the best supported sequence, including the
    log(q(x) K) prior-mass term."""
    algo = sum(float(np.dot(p, l)) for p, l in zip(p_rounds, losses))
    k = count_accepting_paths(competitor)
    seq, path_loss, log_q = best_competitor(competitor, losses, weighted=True)
    return algo - path_loss + log_q + math.log(k)


def unweighted_regret(p_rounds: Sequence[np.ndarray], losses: Sequence[np.ndarray],
                      competitor: Wfa) -> float:
    """Regret against the best supported sequence; weights play no role."""
    algo = sum(float(np.dot(p, l)) for p, l in zip(p_rounds, losses))
    _, path_loss, _ = best_competitor(competitor, losses, weighted=False)
    return algo - path_loss


# -- entropies and learning-rate tuning ------------------------------------------


def renyi_entropy(q, eta: float) -> float:
    """Order-``eta`` Renyi entropy of a distribution (eta != 1)."""
    if eta == 1.0:
        raise ValueError("order 1 is the Shannon limit; use shannon_entropy")
    if eta < 0:
        raise ValueError("order must be non-negative")
    q = np.asarray(q, dtype=float)
    q = q[q > 0]
    return float(np.log(np.sum(q ** eta)) / (1.0 - eta))


def shannon_entropy(q) -> float:
    q = np.asarray(q, dtype=float)
    q = q[q > 0]
    return float(-np.sum(q * np.log(q)))


def _renyi_smooth(q: np.ndarray, eta: float) -> float:
    if abs(eta - 1.0) < 1e-12:
        return shannon_entropy(q)
    return renyi_entropy(q, eta)


def renyi_entropy_machine(competitor: Wfa, eta: float) -> float:
    """Renyi entropy of the competitor path distribution, without
    enumerating it: uses log-domain power sums."""
    if eta == 1.0:
        raise ValueError("order 1 is the Shannon limit; use shannon_entropy")
    log_z = log_power_sum(competitor, 1.0)
    log_pow = log_power_sum(competitor, eta)
    return (log_pow - eta * log_z) / (1.0 - eta)


def tune_eta_fixed(horizon: int, num_sequences: int) -> float:
    """Minimizer sqrt(8 log K / T) of the fixed-rate regret bound,
    clamped away from degenerate exponents."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if num_sequences < 1:
        raise ValueError("need at least one sequence")
    eta = math.sqrt(8.0 * math.log(num_sequences) / horizon)
    return min(max(eta, ETA_FLOOR), ETA_CAP)


def tune_eta_renyi(q, horizon: int, tol: float = 1e-10) -> float:
    """Solve eta / sqrt(H_eta(q)) = sqrt(8 / T) by bisection.

    The left side is increasing in eta (H_eta is non-increasing), so the
    root is unique.  Requires at least two supported sequences.
    """
    q = np.asarray(q, dtype=float)
    q = q[q > 0]
    if q.size < 2:
        raise ValueError("entropy tuning needs at least two supported sequences")
    target = math.sqrt(8.0 / horizon)

    def f(eta: float) -> float:
        h = _renyi_smooth(q, eta)
        if h <= 0:
            return float("inf")
        return eta / math.sqrt(h) - target

    lo = 1e-12
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("failed to bracket the tuning equation")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- reporting -------------------------------------------------------------------


@dataclass
class RegretReport:
    """Everything a run produced, regret values recomputable from it."""
    eta: float
    horizon: int
    num_experts: int
    num_sequences: int
    p_rounds: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    expected_losses: list = field(default_factory=list)
    cumulative_loss: float = 0.0
    best_sequence: Optional[tuple[str, ...]] = None
    best_sequence_loss: float = 0.0
    weighted_regret: float = 0.0
    unweighted_regret: float = 0.0
    weighted_bound: float = 0.0
    weighted_bound_loose: float = 0.0
    unweighted_bound: float = 0.0
    touched_per_round: list = field(default_factory=list)
    work_per_round: list = field(default_factory=list)
    seed: Optional[int] = None
    sampled: list = field(default_factory=list)


def summarize(state: HedgeState) -> RegretReport:
    """Regret values and bound values for a finished run."""
    if state.rounds_done != state.T:
        raise ValueError("run is not finished")
    ps, ls = state.p_history, state.loss_history
    ct = state.competitor
    w_reg = weighted_regret(ps, ls, ct)
    u_reg = unweighted_regret(ps, ls, ct)
    seq, path_loss, _ = best_competitor(ct, ls, weighted=True)
    eta, T, K = state.eta, state.T, state.K
    log_sum_q_eta = state.log_Z_eta - eta * state.log_Z
    bound_tight = eta * T / 8.0 + (1.0 / eta) * (eta * math.log(K) + log_sum_q_eta)
    bound_loose = eta * T / 8.0 + (1.0 / eta) * math.log(K)
    return RegretReport(
        eta=eta, horizon=T, num_experts=state.num_experts, num_sequences=K,
        p_rounds=[p.tolist() for p in ps],
        losses=[l.tolist() for l in ls],
        expected_losses=list(state.expected_losses),
        cumulative_loss=state.cumulative_loss,
        best_sequence=seq, best_sequence_loss=path_loss,
        weighted_regret=w_reg, unweighted_regret=u_reg,
        weighted_bound=bound_tight, weighted_bound_loose=bound_loose,
        unweighted_bound=bound_loose,
        touched_per_round=list(state.touched_per_round),
        work_per_round=list(state.work_per_round),
    )
