"""Exponential-weights prediction over automaton-encoded expert sequences.

The engine maintains, implicitly, an exponentially reweighted
distribution over all length-T expert sequences accepted by a competitor
automaton.  :func:`horizon_product` unrolls the competitor level by level
into the unrolled product, compiled once into level-sorted edge arrays
(:class:`CompiledMachine`), which :class:`HedgeState` plays.  Level t holds the
consuming edges leaving its states, which read symbol t + 1, and the
failure (phi) edges among its states, grouped by chain depth.  Each
shadowed continuation of a phi chain becomes one extra consuming edge
with a negative weight, so plain and phi machines run the same sweeps.

Every pass is a per-level ``np.bincount`` sweep in float64 over one entry
per state; each level's slice is rescaled to maximum 1 and its log scale
accumulated (the scaled forward-backward of Rabiner 1989), so the sweeps
neither under- nor overflow at any horizon.  The backward sweeps at
powers 1 and eta yield log Z and log Z_eta; the one at eta keeps each
edge's powered weight w and readout product w * beta[dst], not beta.  A
round slices the compiled arrays at its level's edge offsets: one gather
of alpha and two bincounts, the advance along w * exp(-eta * loss[label])
and the readout of the next level, alpha * w * beta summed by label.

Per-round distributions: p_t[a] is the posterior marginal of the t-th
symbol given losses 1..t-1.

The regret report (:func:`summarize`) reads the same arrays, so a phi
run is never expanded to plain edges: K (one backward count in int64,
exact where it fits and None past it), log K (its log, or the scaled
sweep at power 0) and log Z (at power 1) are swept on first read and
kept, so set-up sweeps only the eta power; and the best sequences come
from the one max-plus sweep,
:func:`~wfa_hedge.wfa.leveled_best_path`, which reaches a phi chain's
continuations through its hub edges (Allauzen & Riley 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .phi import PhiWfa, _chains, _direct_labels
from .wfa import (NEG_INF, Wfa, _Topo, _arc_index, _compiled, _edge_logs, _edge_marginals,
                  _final_weights, _label_ranks, _path_count, _ranges, exact_logs,
                  leveled_best_path, log_power_sum)

__all__ = [
    "HedgeState",
    "CompiledMachine",
    "horizon_product",
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
    "log_power_sum",
    "RegretReport",
    "summarize",
]

ETA_FLOOR = 1e-6
ETA_CAP = 10.0

Machine = Union[Wfa, PhiWfa]


# -- the compiled machine --------------------------------------------------------


class CompiledMachine:
    """A length-T machine's one description, which every pass reads: its
    level-sorted edge arrays.

    Level t holds state ids ``state_off[t]:state_off[t+1]``; ``level`` is
    each state's level (int32, read-only).  The consuming edges leaving
    level t occupy ``edge_off[t]:edge_off[t+1]``: first the machine's own
    (ending at ``real_end[t]``), then one correction edge per shadowed phi
    continuation.  Edge e has source id ``src``, target ``dst`` counted
    from the next level's first state, expert id ``label`` and weight
    ``coef[e] * exp(log_w[tid[e]])``; log_w is the machine's exact-log
    column (:func:`~wfa_hedge.wfa._edge_logs`), indexed like
    ``machine.transitions``: a correction edge reuses the log-weight of
    the edge it shadows, so a loss charged to that label reaches both,
    and carries coef = -(phi chain weight).  Phi edges are sorted by level
    and by ``phi_depth`` of their source, the edges on the longest phi
    path into it; each run of equal (level, depth) is one group,
    ``group_bounds[g]:group_bounds[g+1]`` in the phi arrays, and level t
    owns groups ``group_off[t]:group_off[t+1]``.  ``weight`` is the
    machine's raw weight column and ``alphabet`` its symbols.  All weights
    here are raw; :meth:`backward` raises them to a power.
    :func:`horizon_product` builds it from the arrays of its unroll, and
    :func:`~wfa_hedge.ngram._context_product` from its (state, context)
    product; the path count, log normaliser and both plans (best path,
    path sums) are built on first use and kept.
    """

    def __init__(self, machine: Machine, horizon: int, state_off: np.ndarray,
                 corrections: tuple[np.ndarray, np.ndarray, np.ndarray]):
        """``machine`` is the product, its states numbered level by level and
        its consuming edges in level order; ``corrections`` are its rows
        (state, shadowed edge, phi chain weight) in level order."""
        cols, n_s = machine.columns, machine.num_states
        self.level = level = np.repeat(np.arange(horizon + 1, dtype=np.int32), np.diff(state_off))
        level.flags.writeable = False
        self.alphabet, self.weight, self.log_w = machine.alphabet, cols.weight, _edge_logs(machine)
        self.horizon, self.num_states, self.initial = horizon, n_s, machine.initial
        self.state_off, self.final = state_off, _final_weights(machine)[1]
        src, dst, label = cols.src, cols.dst, cols.label

        # Per level the consuming edges, already in level order, then the
        # shadow corrections of phi machines, also in level order.
        shadowing, shadowed, chain_w = corrections
        real = np.flatnonzero(label >= 0)
        real_off = np.searchsorted(src[real], state_off)
        rows_off = np.searchsorted(shadowing, state_off)
        self.edge_off = real_off + rows_off
        self.real_end = real_off[1:] + rows_off[:-1]
        at_real = np.arange(len(real)) + rows_off[level[src[real]]]
        at_rows = np.arange(len(shadowing)) + real_off[level[shadowing] + 1]
        n_e = self.edge_off[-1]
        self.tid, self.src, self.coef = np.empty(n_e, np.intp), np.empty(n_e, np.intp), np.ones(n_e)
        self.tid[at_real], self.tid[at_rows] = real, shadowed
        self.src[at_real], self.src[at_rows] = src[real], shadowing
        self.coef[at_rows] = -chain_w
        self.dst = dst[self.tid] - self.state_off[level[self.src] + 1]
        self.label = label[self.tid]

        # Phi edges by (level, longest phi path into the source, as the phi
        # product swept it): a group only reads states whose phi inflow is complete.
        pid = np.flatnonzero(label < 0)
        self.phi_depth = (machine._phi_depth if isinstance(machine, PhiWfa)
                          else np.zeros(n_s, np.intp))
        pkey = level[src[pid]] * (self.phi_depth.max() + 1) + self.phi_depth[src[pid]]
        by_key = np.argsort(pkey, kind="stable")
        self.ptid = pid[by_key]
        self.psrc, self.pdst = src[self.ptid], dst[self.ptid]
        starts = np.flatnonzero(np.diff(pkey[by_key], prepend=-1))
        self.group_bounds = np.append(starts, len(pid))
        self.group_off = np.searchsorted(level[self.psrc[starts]], np.arange(horizon + 2))

    def extend(self, t: int, alpha: np.ndarray, phi_w: np.ndarray) -> None:
        """Push level t's forward weights along its phi edges, shallow
        chain states first."""
        lo, hi = self.state_off[t], self.state_off[t + 1]
        for g in range(self.group_off[t], self.group_off[t + 1]):
            a, b = self.group_bounds[g], self.group_bounds[g + 1]
            alpha[lo:hi] += np.bincount(self.pdst[a:b] - lo, alpha[self.psrc[a:b]] * phi_w[a:b],
                                        minlength=hi - lo)

    def backward(self, power: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Scaled backward sweep with every weight raised to ``power``.

        Returns the log of the total path weight; per edge the powered
        weight w and the readout product w * beta[dst], beta's levels
        rescaled to maximum 1, which the forward rounds read in place of
        beta; and the powered phi weights.
        """
        w, phi_w = self._powered(power, self.tid, self.coef), self._powered(power, self.ptid)
        wb = np.empty_like(w)
        return self._sweep(power, w, phi_w, wb), w, wb, phi_w

    def log_total(self, power: float) -> float:
        """The log of the total path weight at ``power``, swept as
        :meth:`backward` sweeps it but keeping no per-state or readout
        array.  At power 0 the total is the path count K."""
        return self._sweep(power, self._powered(power, self.tid, self.coef),
                           self._powered(power, self.ptid))

    def _powered(self, power: float, tid: np.ndarray, coef=1.0) -> np.ndarray:
        """Edge weights coef * weight[tid] raised to ``power``.  At power 0
        a count: 1 per edge, -1 per correction, and 0 on a zero weight,
        where 0 ** 0 would be 1 and 0 * log 0 NaN."""
        if power == 0.0:
            w = np.sign(coef)
            w *= (self.weight > 0.0)[tid]
            return w
        return np.copysign(np.abs(coef) ** power, coef) * np.exp(power * self.log_w[tid])

    def _sweep(self, power: float, w: np.ndarray, phi_w: np.ndarray, wb=None) -> float:
        """The scaled backward sweep at ``power``, level T down to level 0:
        the log of the total path weight.  ``w`` and ``phi_w`` are the
        powered weights of the edges and the phi edges.  ``wb``, if given,
        receives each edge's w * beta[dst], beta's level rescaled to
        maximum 1.  Final weights only sit at level T, where the length
        acceptor ends."""
        so, eo, gb, go = (x.tolist() for x in (self.state_off, self.edge_off, self.group_bounds,
                                                self.group_off))
        src, dst, (psrc, pdst) = self.src, self.dst, self._phi_ends
        log_scale = 0.0
        for t in range(self.horizon, -1, -1):
            lo, hi = so[t], so[t + 1]
            if t == self.horizon:
                f = self.final[lo:hi]
                b = (f > 0.0) * 1.0 if power == 0.0 else f ** power
            else:
                a, e = eo[t], eo[t + 1]
                out = None if wb is None else wb[a:e]
                wb_t = np.multiply(w[a:e], b[dst[a:e]], out=out)
                b = np.bincount(src[a:e] - lo, wb_t, minlength=hi - lo)
                # A phi source inherits its target's consuming mass, so
                # the deepest chain states settle first.
                for g in range(go[t + 1] - 1, go[t] - 1, -1):
                    ga, gz = gb[g], gb[g + 1]
                    b[psrc[ga:gz]] += phi_w[ga:gz] * b[pdst[ga:gz]]  # one phi edge per source
            m = np.abs(b).max()
            if m > 0:
                b /= m
                log_scale += math.log(m)
        z = b[self.initial]  # level 0 starts at id 0
        return log_scale + math.log(z) if z > 0 else NEG_INF

    def count_paths(self, labels: Optional[Sequence[int]] = None) -> Optional[int]:
        """Accepting paths of positive weight, swept backward in int64
        (:func:`~wfa_hedge.wfa._path_count`): exact, or None where the
        count may not fit int64.  A consuming or phi edge counts 1, a
        correction -1, so each shadowed continuation nets out; zero
        weights count 0.  With ``labels``, symbol ids one per level, only
        the paths reading that sequence: 1 when it is supported, else 0.
        A product is deterministic, so each count along one sequence is 0
        or 1 and that sweep needs no bound."""
        if labels is not None and len(labels) != self.horizon:
            return 0
        positive = self.weight > 0.0
        so, eo, gb, go = self.state_off, self.edge_off, self.group_bounds, self.group_off

        def steps():
            # Level by level, so that a count that passes the bound early
            # stops early.
            for t in range(self.horizon - 1, -1, -1):
                # The consuming edges, then the corrections, where a chain
                # of weight 0 shadows nothing.
                for ufunc, a, b in ((np.add, eo[t], self.real_end[t]),
                                    (np.subtract, self.real_end[t], eo[t + 1])):
                    if b > a:
                        on = positive[self.tid[a:b]]
                        if ufunc is np.subtract:
                            on &= self.coef[a:b] != 0.0
                        if labels is not None:
                            on &= self.label[a:b] == labels[t]
                        e = slice(a, b) if on.all() else a + np.flatnonzero(on)
                        yield ufunc, self.src[e], so[t + 1] + self.dst[e]
                for g in range(go[t + 1] - 1, go[t] - 1, -1):
                    p = gb[g] + np.flatnonzero(positive[self.ptid[gb[g]:gb[g + 1]]])
                    yield np.add, self.psrc[p], self.pdst[p]

        return _path_count(self.num_states, self.final > 0.0, self.initial, steps(),
                           bounded=labels is None)

    @cached_property
    def num_paths(self) -> Optional[int]:
        """K, :meth:`count_paths` swept once and kept: the exact count, or
        None where it may not fit int64."""
        return self.count_paths()

    @cached_property
    def log_K(self) -> float:
        """log K, kept: ``math.log`` of the exact count where there is one,
        else :meth:`log_total` at power 0; -inf when no path is left."""
        k = self.num_paths
        if k is None:
            return self.log_total(0.0)
        return math.log(k) if k else NEG_INF

    @cached_property
    def log_Z(self) -> float:
        """The log of the total path weight, :meth:`log_total` at power 1,
        swept on first read and kept."""
        return self.log_total(1.0)

    @cached_property
    def _phi_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """``psrc`` and ``pdst`` counted from their level's first state."""
        return tuple(x - self.state_off[self.level[x]] for x in (self.psrc, self.pdst))

    @cached_property
    def sweep(self) -> "_PathPlan":
        """The plan of the best-path sweep over these arrays."""
        return _PathPlan(self)

    @cached_property
    def topo(self) -> _Topo:
        """The levels as the path sums' plan (:func:`~wfa_hedge.wfa._path_plan`):
        a trim machine's Kahn generations when its edges each step one level."""
        return _Topo(np.arange(self.num_states), self.state_off, self.tid, self.edge_off)


class _PathPlan:
    """What :func:`~wfa_hedge.wfa.leveled_best_path` reads of a compiled
    machine besides its product and the scores.  State ids are the
    product's.  ``live`` holds the positive consuming transitions, level
    t's at ``live_off[t]:live_off[t+1]``; ``ends`` the states of positive
    final weight, and ``rank`` each symbol's place in sorted order.  The
    positive phi edges form an in-forest inside each level: ``phi_to``
    and ``phi_tid`` (its transition) per state, -1 at a chain's end, and
    ``forest``, (child, parent, transition) arrays with parents settled
    first.  A state's phi-subtree, itself and every state whose chain
    passes through it, is a range of a preorder of that forest, whose
    position i holds state ``at[i]``; level t's sit at
    ``bounds[t]:bounds[t+1]``.  A hub edge is a positive consuming edge
    whose source has phi-parents.  The states that resolve to it are the
    preorder ranges ``iv_lo:iv_hi`` (level t's at ``iv_off[t]:iv_off[t+1]``):
    its source's subtree less the source and the subtrees of the sources
    of its correction rows, which read its symbol first.  ``first``
    indexes each hub edge's first range, and ``hub`` holds those edges'
    transitions, level t's at ``first_off[t]:first_off[t+1]``.
    """

    def __init__(self, cm: CompiledMachine):
        n, so = cm.num_states, cm.state_off
        positive = (cm.weight[cm.tid] > 0.0) & (cm.coef > 0.0)  # no correction row

        on = cm.weight[cm.ptid] > 0.0
        child, parent, ptid = cm.psrc[on], cm.pdst[on], cm.ptid[on]
        self.phi_to, self.phi_tid = np.full(n, -1, np.intp), np.full(n, -1, np.intp)
        self.phi_to[child], self.phi_tid[child] = parent, ptid
        # Subtree sizes from the chain starts on (a phi-parent's depth
        # exceeds its children's), then preorder positions from the ends.
        depth = cm.phi_depth[child]
        by_depth = np.argsort(depth, kind="stable")
        cut = np.searchsorted(depth[by_depth], np.arange(depth.max() + 2 if len(depth) else 1))
        groups = [by_depth[a:b] for a, b in zip(cut[:-1], cut[1:])]
        size = np.ones(n, np.intp)
        for e in groups:
            np.add.at(size, parent[e], size[child[e]])
        roots = np.flatnonzero(self.phi_to < 0)
        tin = np.empty(n, np.intp)
        tin[roots] = np.cumsum(size[roots]) - size[roots]
        sib = np.lexsort((child, parent))  # siblings in id order
        before = np.cumsum(size[child[sib]]) - size[child[sib]]
        offset = np.empty(len(child), np.intp)
        offset[sib] = before - before[np.searchsorted(parent[sib], parent[sib])]
        for e in reversed(groups):
            tin[child[e]] = tin[parent[e]] + 1 + offset[e]
        self.forest = [(child[e], parent[e], ptid[e]) for e in reversed(groups)]
        self.at = np.empty(n, np.intp)
        self.at[tin] = np.arange(n)
        self.bounds = so.tolist()

        hub = np.flatnonzero(positive & (size > 1)[cm.src])
        h = cm.src[hub]
        lo, hi, hubs = tin[h] + 1, tin[h] + size[h], np.arange(len(hub))
        # Correction rows by the hub edge they cancel, kept where their
        # source lies in that edge's source's subtree.
        rows = _ranges(cm.real_end, cm.edge_off[1:])
        hub_tid = cm.tid[hub]
        by_tid = np.argsort(hub_tid)
        k = np.searchsorted(hub_tid, cm.tid[rows], sorter=by_tid)
        rows, k = rows[k < len(hubs)], by_tid[k[k < len(hubs)]]
        c = cm.src[rows]
        inside = (hub_tid[k] == cm.tid[rows]) & (tin[c] >= lo[k]) & (tin[c] < hi[k])
        k, xs = k[inside], tin[c[inside]]
        by_start = np.lexsort((xs, k))
        k, xs = k[by_start], xs[by_start]
        xe = xs + size[self.at[xs]]
        # Per hub edge the gaps lo..x1, x1 end..x2, ..., last end..hi.
        s = np.argsort(np.concatenate((hubs, k)), kind="stable")
        e = np.argsort(np.concatenate((k, hubs)), kind="stable")
        iv_lo, iv_hi = np.concatenate((lo, xe))[s], np.concatenate((xs, hi))[e]
        keep = iv_lo < iv_hi
        iv_hub = np.concatenate((hubs, k))[s][keep]
        self.iv_lo, self.iv_hi = iv_lo[keep], iv_hi[keep]
        self.iv_off = np.searchsorted(iv_hub, np.searchsorted(hub, cm.edge_off)).tolist()
        self.first = np.flatnonzero(np.diff(iv_hub, prepend=-1))
        self.first_off = np.searchsorted(self.first, self.iv_off).tolist()
        self.hub = cm.tid[hub[iv_hub[self.first]]]
        # Every positive consuming edge is a candidate: one out of a state
        # that no positive path reaches scores -inf.
        live, lo = np.flatnonzero(positive), so[cm.horizon]
        self.live, self.live_off = cm.tid[live], np.searchsorted(live, cm.edge_off[:-1]).tolist()
        self.ends = lo + np.flatnonzero(cm.final[lo:] > 0.0)
        self.rank = _label_ranks(cm.alphabet)


# -- the online state ------------------------------------------------------------


class HedgeState:
    """Mutable per-experiment state.  Single-writer: rounds are sequential.

    ``machine`` is the competitor's length-T product from
    :func:`horizon_product`, and ``compiled`` its arrays, which round t
    reads at ``edge_off[t]:edge_off[t+1]``.  ``alpha`` is indexed by the
    state ids of ``compiled``; ``flows`` holds the per-label path mass of
    the current level, as read out before clamping and normalising.
    """

    def __init__(self, machine: Machine, horizon: int, eta: float):
        if not 0 < eta < math.inf:  # NaN fails too
            raise ValueError("learning rate must be positive and finite")
        cm = machine.compiled
        if cm is None or cm.horizon != horizon:
            raise ValueError(f"the engine plays horizon_product(competitor, {horizon})")
        self.machine = machine
        self.T = horizon
        self.eta = eta
        self.rounds_done = 0
        self.alphabet = machine.alphabet
        self.num_experts = len(machine.alphabet)
        self.sym_index = {a: i for i, a in enumerate(machine.alphabet)}

        self.compiled = cm
        self._edge_off, self._real_end, self._state_off = (
            x.tolist() for x in (cm.edge_off, cm.real_end, cm.state_off))
        # Per level the consuming and phi edges, which every pass visits.
        self._fixed = (cm.real_end - cm.edge_off[:-1]
                       + np.diff(cm.group_bounds[cm.group_off])).tolist()
        self.log_Z_eta, self._w, self._wb, self._phi_w = cm.backward(eta)
        # Row t: the log-factor each label's edges at level t were charged.
        self._charges = np.zeros((horizon, self.num_experts))
        self.alpha = np.zeros(cm.num_states)
        self.alpha[cm.initial] = 1.0
        cm.extend(0, self.alpha, self._phi_w)

        self.p_history: list[np.ndarray] = []
        self.loss_history: list[np.ndarray] = []
        self.expected_losses: list[float] = []
        self.touched_per_round: list[int] = []
        self.work_per_round: list[int] = []
        self.cumulative_loss = 0.0
        self.p_current = self._readout()
        self.p_history.append(self.p_current)

    @property
    def K(self) -> Optional[int]:
        """The number of played sequences, counted once on the compiled
        arrays: exact, or None where it may not fit int64 (then only
        :attr:`log_K` is known)."""
        return self.compiled.num_paths

    @property
    def log_K(self) -> float:
        """log K, which the regret bounds read."""
        return self.compiled.log_K

    @property
    def log_Z(self) -> float:
        """The log of the played product's total path weight, swept on
        first read: the report reads it, a round never does."""
        return self.compiled.log_Z

    @property
    def log_w(self) -> np.ndarray:
        """The eta-powered transition log-weights, indexed like
        ``machine.transitions``, with the losses charged so far."""
        cm, log_w = self.compiled, self.eta * self.compiled.log_w
        e = _ranges(cm.edge_off[:-1], cm.real_end)  # each transition once
        log_w[cm.tid[e]] += self._charges[cm.level[cm.src[e]], cm.label[e]]
        return log_w

    # -- per-level sweeps --

    def _readout(self) -> np.ndarray:
        """Read p_t off the current level: one gather of alpha and a label
        slice, kept for the advance, and one bincount of alpha * w * beta."""
        cm, t = self.compiled, self.rounds_done
        a, b = self._edge_off[t], self._edge_off[t + 1]
        self._x, self._label = self.alpha[cm.src[a:b]], cm.label[a:b]
        self.flows = np.bincount(self._label, self._x * self._wb[a:b], minlength=self.num_experts)
        flows = np.maximum(self.flows, 0.0)
        total = flows.sum()
        if not total > 0:
            raise ValueError("no probability mass left at this level")
        # Edges visited by one pass over the level: phi edges, consuming
        # edges, and the corrections whose source carries mass.
        self._touched = self._fixed[t] + int(np.count_nonzero(self._x[self._real_end[t] - a:]))
        return flows / total

    def _advance(self, loss: np.ndarray, p: np.ndarray, delta: np.ndarray) -> Optional[np.ndarray]:
        """Book the round's loss, expected under ``p``; charge ``delta[label]``
        to the current level's edges, push alpha across the level, then
        read out the next distribution (None after the last round)."""
        expected = float(p @ loss)
        self.expected_losses.append(expected)
        self.cumulative_loss += expected
        self.loss_history.append(loss.copy())
        cm, t = self.compiled, self.rounds_done
        self._charges[t] = delta
        a, b = self._edge_off[t], self._edge_off[t + 1]
        lo, hi = self._state_off[t + 1], self._state_off[t + 2]
        mass = self._x * self._w[a:b] * np.exp(delta)[self._label]
        self.alpha[lo:hi] = np.bincount(cm.dst[a:b], mass, minlength=hi - lo)
        cm.extend(t + 1, self.alpha, self._phi_w)
        peak = np.abs(self.alpha[lo:hi]).max()
        if peak > 0:
            self.alpha[lo:hi] /= peak
        self.rounds_done += 1
        # The readout and the advance each pass the level once.
        self.touched_per_round.append(self._touched)
        self.work_per_round.append(2 * self._touched)
        if self.rounds_done < self.T:
            self.p_current = self._readout()
            self.p_history.append(self.p_current)
        else:
            self.p_current = None
        return self.p_current


def horizon_product(competitor: Machine, horizon: int) -> Machine:
    """The competitor's sequences of length ``horizon``, which the engine
    plays and the regret report and the n-gram fits read, as a trim
    machine whose state (q, t) is competitor state q after t symbols, with
    its :class:`CompiledMachine` in ``compiled``.  ValueError when there is
    none, or when ``horizon`` is not an integer >= 1.

    The product with the length-T acceptor, unrolled one level at a time:
    level t + 1 holds the targets of level t's arcs and their phi chains,
    and one backward sweep keeps the states that complete a sequence.
    Only the levels that change are computed: once a level repeats the
    one before it, it is shared up to the horizon, and once the sweep's
    live states repeat on it, they are shared down to its first copy.
    States are numbered level by level, each level in increasing
    competitor state (level 0 holds the initial state and its phi chain,
    so ``initial`` need not be 0), and each state's edges follow in
    sorted label order; a plain product equals :func:`~wfa_hedge.wfa.intersect` with
    the length-T acceptor up to that renumbering; its ``origin`` rows are
    (competitor state, level).  A phi product's ``operand_labels`` are
    the competitor's and the acceptor's, which reads every symbol before
    level T and none at T: a state reads a symbol directly when its
    competitor state has the arc, even if the product trimmed the edge.
    Where ``phi_intersect`` keeps a state reached by an arc apart from the
    same state reached by a phi edge, the unroll has one.  The shadow
    corrections are the competitor's, found down its phi chains to their
    end and laid over each level's live states.
    """
    _check_horizon(horizon)
    phi = isinstance(competitor, PhiWfa) and competitor.has_phi()
    if phi and competitor.operand_labels is not None:
        raise ValueError("composition outputs cannot be composed again")
    # Compiled after the unroll's working arrays are freed, so that the
    # two never sit in memory together.
    product, state_off, corrections, edge = _unroll(competitor, horizon, phi)
    product._logs = _edge_logs(competitor)[edge]
    product._logs.flags.writeable = False
    del edge
    product.compiled = CompiledMachine(product, horizon, state_off, corrections)
    return product


def _check_horizon(horizon) -> None:
    """ValueError unless ``horizon`` is an integer >= 1; a bool is not one."""
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, not {horizon!r}")


def _unroll(competitor: Machine, horizon: int, phi: bool):
    """The product of :func:`horizon_product`, the offsets of its levels,
    its shadow correction rows and the competitor transition of each of
    its edges.

    Each level is a set of competitor states, kept sorted, and the next
    level is a function of that set alone: once the next level is the
    same set, every later one is too, so this level's tuple is shared up
    to the horizon.  The trim maps live states through shared levels by
    one function, so once two neighbours agree it shares them down to the
    first copy."""
    c, n_q, n_sym = competitor.columns, competitor.num_states, len(competitor.alphabet)
    # Arcs by source and label rank; the first of a repeated (source, label) wins.
    arc_key, arc, _ = _arc_index(competitor)
    arc, arc_off = arc[:-1], np.searchsorted(arc_key, np.arange(n_q + 1) * n_sym)
    arc_deg, arc_dst = np.diff(arc_off), c.dst[arc]
    # walk[j, q]: the state j phi edges down q's chain, n_q past its end.
    pid = np.flatnonzero(c.label < 0)
    phi_edge, phi_to = np.full(n_q, -1, np.intp), np.full(n_q + 1, n_q, np.intp)
    phi_edge[c.src[pid]], phi_to[c.src[pid]] = pid, c.dst[pid]
    walk = [np.arange(n_q + 1)]
    while (walk[-1] < n_q).any():
        walk.append(phi_to[walk[-1]])
    walk = np.array(walk[:-1])

    def enter(x):
        """The level entered at states ``x``: they and their phi chains,
        sorted, each once: a sort, not ``np.unique``, whose first plain
        call loads about 1.6 MB (numpy 2.4)."""
        s = np.sort(walk[:, x], axis=None)
        s = s[:np.searchsorted(s, n_q)]
        return s[np.diff(s, prepend=-1) > 0]

    # Per level: its competitor states in increasing order, each one's phi
    # target (level index, -1: none), and its arcs: owner, arc and target
    # (next level's index).
    levels, settled = [], horizon
    states = enter(np.array([competitor.initial]))
    for t in range(horizon + 1):
        to = phi_to[states]
        phi_at = np.where(to < n_q, np.searchsorted(states, to), -1)
        if t == horizon:
            levels.append((states, phi_at))
            break
        e = _ranges(arc_off[states], arc_off[states + 1])
        if not e.size:
            raise ValueError("no competitor sequence of this length")
        x = arc_dst[e]
        nxt = enter(x)
        levels.append((states, phi_at, np.repeat(np.arange(len(states)), arc_deg[states]), e,
                       np.searchsorted(nxt, x)))
        if np.array_equal(nxt, states):
            settled = t  # every later level repeats this one
            levels += [levels[-1]] * (horizon - 1 - t) + [(states, phi_at)]
            break
        states = nxt

    # Trim: a state is live when an arc or its phi edge leads to a live
    # one.  Each level keeps the arcs into live states, and marks them.
    is_final, final_w = _final_weights(competitor)
    lives = [None] * (horizon + 1)
    for t in range(horizon, -1, -1):
        if lives[t] is not None:  # copied from a fixed point
            continue
        states, phi_at = levels[t][:2]
        if t == horizon:
            live = is_final[states]
        else:
            owner, e, dst = levels[t][2:]
            on = lives[t + 1][dst]
            levels[t] = (states, phi_at, owner[on], e[on], dst[on], on)
            live = np.zeros(len(states), bool)
            live[owner[on]] = True
        for _ in range(len(walk) - 1):
            live |= (phi_at >= 0) & live[phi_at]
        lives[t] = live
        if settled < t < horizon and np.array_equal(live, lives[t + 1]):
            # A fixed point of the repeated level holds down to its first copy.
            n = t - settled
            levels[settled:t], lives[settled:t] = [levels[t]] * n, [live] * n
    i0 = int(np.searchsorted(levels[0][0], competitor.initial))  # the initial state's place
    if not lives[0][i0]:
        raise ValueError("no competitor sequence of this length")

    # Untrimmed ids run level by level from u_off; kept states keep their order.
    origin = np.concatenate([lv[0] for lv in levels])
    u_off = np.concatenate(([0], np.cumsum([len(lv[0]) for lv in levels])))
    live = np.concatenate(lives)
    new_id = np.cumsum(live) - 1
    state_off = np.concatenate(([0], new_id[u_off[1:] - 1] + 1))
    kept = np.flatnonzero(live)
    names = np.column_stack((origin[kept], np.repeat(np.arange(horizon + 1), np.diff(state_off))))
    ends = u_off[horizon] + np.flatnonzero(is_final[levels[-1][0]])
    finals = dict(zip(new_id[ends].tolist(), final_w[origin[ends]].tolist()))
    phi_u = np.concatenate([lv[1] for lv in levels])
    phi_u = np.where(phi_u >= 0, np.repeat(u_off[:-1], np.diff(u_off)) + phi_u, -1)
    n_arcs = [len(lv[2]) for lv in levels[:-1]]
    src = np.concatenate([lv[2] for lv in levels[:-1]])
    src += np.repeat(u_off[:-2], n_arcs)
    dst = np.concatenate([lv[4] for lv in levels[:-1]])
    dst += np.repeat(u_off[1:-1], n_arcs)
    src, dst = new_id[src], new_id[dst]
    e = arc[np.concatenate([lv[3] for lv in levels[:-1]])]
    keep = np.concatenate([lv[5] for lv in levels[:-1]])  # by untrimmed arc
    del levels
    initial = int(new_id[i0])
    if not phi:
        none = np.zeros(0, np.intp)
        return (Wfa.from_columns(competitor.alphabet, len(kept), initial, finals, src, c.label[e],
                                 c.weight[e], dst, names),
                state_off, (none, none, np.zeros(0)), e)

    psrc_u = np.flatnonzero(phi_u >= 0)
    psrc_u = psrc_u[live[phi_u[psrc_u]]]
    psrc, pdst = new_id[psrc_u], new_id[phi_u[psrc_u]]

    # Shadow rows: for each arc of a competitor state with a phi edge, in
    # label order, the first arc with its label down the chain, and the
    # product of the phi weights down to it.
    own = arc[phi_to[c.src[arc]] < n_q]
    first = phi_edge[c.src[own]]
    row_e, row_w = _chains(competitor).walk(competitor, c.dst[first], c.label[own],
                                            c.weight[first])
    hit = row_e >= 0
    row_q, row_e, row_w = c.src[own[hit]], row_e[hit], row_w[hit]
    # Laid over each live state before level T: the shadowed edge leaves
    # the same level's copy of its source, found by the key (level,
    # competitor state) in which the untrimmed states are sorted.
    row_off = np.searchsorted(row_q, np.arange(n_q + 1))
    s = np.flatnonzero(live[:u_off[horizon]])
    row = _ranges(row_off[origin[s]], row_off[origin[s] + 1])
    s = np.repeat(s, np.diff(row_off)[origin[s]])
    key = np.repeat(np.arange(horizon + 1) * n_q, np.diff(u_off)) + origin
    r = np.searchsorted(key, key[s] - origin[s] + c.src[row_e[row]])
    arc_pos = np.empty(len(c.src), np.intp)
    arc_pos[arc] = np.arange(len(arc))
    edge_start = np.concatenate(([0], np.cumsum(arc_deg[origin[:u_off[horizon]]])))
    edge_u = edge_start[r] + arc_pos[row_e[row]] - arc_off[origin[r]]
    on = keep[edge_u]
    corrections = (new_id[s[on]], (np.cumsum(keep) - 1)[edge_u[on]], row_w[row[on]])

    # The acceptor reads every symbol before level T and none at T.
    acceptor = np.broadcast_to((np.arange(horizon + 1) < horizon)[:, None], (horizon + 1, n_sym))
    e = np.concatenate((e, phi_edge[origin[psrc_u]]))
    product = PhiWfa.from_columns(
        competitor.alphabet, len(kept), initial, finals, np.concatenate((src, psrc)),
        c.label[e], c.weight[e], np.concatenate((dst, pdst)), names,
        (_direct_labels(competitor), acceptor))
    return product, state_off, corrections, e


def hedge_init(competitor: Machine, horizon: int, eta: float) -> HedgeState:
    """Prepare the online state for a competitor automaton.

    Unrolls the competitor to the horizon (:func:`horizon_product`), whose
    product comes compiled into level-sorted arrays; one scaled backward
    sweep at the ``eta`` power gives the backward weights, from which the
    first distribution is read off level 0.
    """
    return HedgeState(horizon_product(competitor, horizon), horizon, eta)


def _check_loss(state: HedgeState, loss: Sequence[float]) -> np.ndarray:
    if state.rounds_done >= state.T:
        raise ValueError("stepping past the horizon")
    loss = np.asarray(loss, dtype=float)
    if loss.shape != (state.num_experts,):
        raise ValueError("loss vector has wrong length")
    if not (loss.min() >= 0 and loss.max() <= 1):  # NaN fails too
        raise ValueError("losses must lie in [0, 1]")
    return loss


def hedge_step(state: HedgeState, loss: Sequence[float]) -> Optional[np.ndarray]:
    """Consume one loss vector; returns the next round's distribution.

    The final round (t == T) only settles the bookkeeping and returns
    None, as there is no position T+1 to predict.
    """
    loss = _check_loss(state, loss)
    return state._advance(loss, state.p_current, -state.eta * loss)


def sample(p: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; reproducible for a fixed generator state.  A draw
    at or past the rounded running sum of p, which can fall below 1, takes
    the last index of positive mass, never one of probability 0."""
    u = rng.random()
    c = 0.0
    for i, pi in enumerate(p):
        c += pi
        if u < c:
            return i
    return max(i for i, pi in enumerate(p) if pi > 0)


# -- path sums and regret -------------------------------------------------------


def _path_scores(machine: Machine, gain: np.ndarray, weighted: bool) -> np.ndarray:
    """Per transition of a length-T machine, gain[its round, its label],
    plus its log-weight when ``weighted``; a phi edge scores its
    log-weight, or 0.  Built in place, one column in memory at a time."""
    c, cm = machine.columns, _compiled(machine)
    cm.sweep  # the plan is built before the score column, so the two peaks never meet
    rounds = cm.level[c.src]
    score = gain[np.minimum(rounds, len(gain) - 1, out=rounds), c.label]  # phi edges at level T
    phi = c.label < 0
    if weighted:
        np.add(cm.log_w, score, out=score)
        score[phi] = cm.log_w[phi]
    else:
        score[phi] = 0.0
    return score


def best_competitor(competitor: Union[Machine, HedgeState], losses: Sequence[np.ndarray],
                    weighted: bool) -> tuple[tuple[str, ...], float, float]:
    """Best supported sequence for the regret maximization.

    ``competitor`` is a horizon product or a run's state; one max-plus
    sweep finds the path on the compiled arrays.  Returns (sequence, its
    cumulative loss, its log probability under the competitor
    distribution), log Z being the compiled machine's.  ``weighted`` adds
    the log-probability term to the maximized objective; ties break
    lexicographically.
    """
    losses = np.asarray(losses, dtype=float)
    machine = competitor.machine if isinstance(competitor, HedgeState) else competitor
    c, cm = machine.columns, _compiled(machine)
    final = exact_logs(cm.final) if weighted else None
    path = leveled_best_path(machine, _path_scores(machine, -losses, weighted), final)
    # Sum log-weights along the path, one per step: its linear weight can
    # underflow.  A step's weight is its phi chain's times its edge's.
    labels, log_path, w = [], 0.0, 1.0
    for a, x in zip(c.label[path.edges].tolist(), c.weight[path.edges].tolist()):
        if a < 0:
            w *= x
        else:
            labels.append(a)
            log_path += math.log(w * x)
            w = 1.0
    path_loss = sum(losses[i][a] for i, a in enumerate(labels))
    end = int(c.dst[path.edges[-1]]) if len(path.edges) else machine.initial
    return path.sequence, float(path_loss), log_path + math.log(cm.final[end]) - cm.log_Z


def weighted_regret(p_rounds: Sequence[np.ndarray], losses: Sequence[np.ndarray],
                    competitor: Wfa) -> float:
    """Regret against the best supported sequence of a horizon product,
    including the log(q(x) K) prior-mass term."""
    algo = sum(float(np.dot(p, l)) for p, l in zip(p_rounds, losses))
    log_k = _compiled(competitor).log_K
    seq, path_loss, log_q = best_competitor(competitor, losses, weighted=True)
    return algo - path_loss + log_q + log_k


def unweighted_regret(p_rounds: Sequence[np.ndarray], losses: Sequence[np.ndarray],
                      competitor: Wfa) -> float:
    """Regret against the best supported sequence of a horizon product;
    weights play no role."""
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


def renyi_entropy_machine(competitor: Wfa, eta: float) -> float:
    """Renyi entropy of a horizon product's path distribution, without
    enumerating it.

    H_eta = (log Z_eta - eta log Z) / (1 - eta) from two scaled backward
    sweeps of the compiled arrays.  At eta = 1 it is the Shannon limit
    log Z - E[log w(path)], the expectation taken from the edge and final
    posteriors of one forward-backward sweep (Li & Eisner 2009).
    """
    cm = _compiled(competitor)
    if eta == 1.0:
        if len(cm.ptid):
            raise ValueError("the eta = 1 limit needs a plain product; "
                             "take horizon_product(phi_expand(machine), T)")
        edge, final, log_final, log_z = _edge_marginals(competitor)
        on, end = edge > 0.0, final > 0.0
        return log_z - float(edge[on] @ cm.log_w[on]) - float(final[end] @ log_final[end])
    return (cm.log_total(eta) - eta * cm.log_Z) / (1.0 - eta)


def tune_eta_fixed(horizon: int, num_sequences: int) -> float:
    """Minimizer sqrt(8 log K / T) of the fixed-rate regret bound,
    clamped away from degenerate exponents."""
    _check_horizon(horizon)
    if num_sequences is None:
        raise ValueError("num_sequences is None, as a count past int64 is; "
                         "the bounds read log K there")
    if isinstance(num_sequences, bool):
        raise ValueError(f"num_sequences must be a number, not {num_sequences!r}")
    if num_sequences < 1:
        raise ValueError("need at least one sequence")
    return _tuned_eta(horizon, math.log(num_sequences))


def _tuned_eta(horizon: int, log_k: float) -> float:
    """:func:`tune_eta_fixed` from log K, which a count past int64 has."""
    if log_k == NEG_INF:
        raise ValueError("need at least one sequence")
    eta = math.sqrt(8.0 * log_k / horizon)
    return min(max(eta, ETA_FLOOR), ETA_CAP)


def tune_eta_renyi(competitor: Wfa, horizon: int, tol: float = 1e-10) -> float:
    """Solve eta / sqrt(H_eta) = sqrt(8 / T) by bisection, H_eta the
    :func:`renyi_entropy_machine` of the competitor (its Shannon limit
    within 1e-12 of eta = 1).

    The left side is increasing in eta (H_eta is non-increasing), so the
    root is unique.  Requires at least two supported sequences.
    """
    _check_horizon(horizon)
    if _compiled(competitor).log_K < math.log(2):
        raise ValueError("entropy tuning needs at least two supported sequences")
    target = math.sqrt(8.0 / horizon)

    def f(eta: float) -> float:
        h = renyi_entropy_machine(competitor, 1.0 if abs(eta - 1.0) < 1e-12 else eta)
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
    """Everything a run produced, regret values recomputable from it.
    ``num_sequences`` is K where it is exact and None above the int64
    range, where the bounds read log K."""
    eta: float
    horizon: int
    num_experts: int
    num_sequences: Optional[int]
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
    """Regret values and bound values for a finished run, read off the
    run state alone: K, log Z and the best paths come from its compiled
    arrays, so a phi run is never expanded."""
    if state.rounds_done != state.T:
        raise ValueError("run is not finished")
    ps, ls = state.p_history, state.loss_history
    # log K and log Z are swept before the best-path plan and its scores
    # are built, so that their peaks never meet.
    eta, T, log_k, log_z = state.eta, state.T, state.log_K, state.log_Z
    # weighted_regret and unweighted_regret, sharing the weighted best path.
    algo = sum(float(np.dot(p, l)) for p, l in zip(ps, ls))
    seq, path_loss, log_q = best_competitor(state, ls, weighted=True)
    w_reg = algo - path_loss + log_q + log_k
    u_reg = algo - best_competitor(state, ls, weighted=False)[1]
    log_sum_q_eta = state.log_Z_eta - eta * log_z
    bound_tight = eta * T / 8.0 + (1.0 / eta) * (eta * log_k + log_sum_q_eta)
    bound_loose = eta * T / 8.0 + (1.0 / eta) * log_k
    return RegretReport(
        eta=eta, horizon=T, num_experts=state.num_experts, num_sequences=state.K,
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
