"""Dense forward-backward reference for the benchmark's p_t checks.

Every machine the workloads play names its expert in its state: entering
state s reads symbol ``label[s]``.  Such a machine is fully described by
the weight of entering each state first (``start``), the state-to-state
weights (``step``) and the final weights.  The round-t marginal of
exponential weights over its length-T sequences is then

    p_t[a]  ~  sum over s with label[s] == a of  gamma_t[s] * beta_t[s],

with gamma_t the forward mass entering round t's states (earlier losses
applied) and beta_t the mass of every completion.  Each vector is
rescaled to a maximum of 1 per round; the normalisation of p_t cancels
the scales, so nothing under- or overflows at any horizon.

This code shares nothing with the engine: it is the reference the
engine's distributions are held to, entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ChainMachine:
    label: np.ndarray   # expert index read on entering each state
    start: np.ndarray   # weight of entering each state on the first symbol
    step: np.ndarray    # step[s, r]: weight of moving from s into r
    final: np.ndarray   # final weight of each state


def kshift_machine(num_experts: int, shifts: int) -> ChainMachine:
    """Sequences with exactly ``shifts`` expert changes, unit weights."""
    n, k = num_experts, shifts
    size = (k + 1) * n
    label = np.tile(np.arange(n), k + 1)
    start = np.zeros(size)
    start[:n] = 1.0
    step = np.zeros((size, size))
    for level in range(k + 1):
        block = slice(level * n, (level + 1) * n)
        step[block, block] = np.eye(n)
        if level < k:
            step[block, (level + 1) * n:(level + 2) * n] = 1.0 - np.eye(n)
    final = np.zeros(size)
    final[k * n:] = 1.0
    return ChainMachine(label, start, step, final)


def fixed_share_machine(num_experts: int, shifts: int, horizon: int) -> ChainMachine:
    """Fixed-Share bigram (Herbster & Warmuth 1998) in its ML closed form:
    stay 1 - k/(T-1), each shift k/((T-1)(N-1)), uniform first expert."""
    n, k, t = num_experts, shifts, horizon
    stay = 1.0 - k / (t - 1.0)
    shift = k / ((t - 1.0) * (n - 1.0))
    step = np.full((n, n), shift)
    np.fill_diagonal(step, stay)
    return ChainMachine(np.arange(n), np.full(n, 1.0 / n), step, np.ones(n))


def distributions(machine: ChainMachine, eta: float, losses: np.ndarray,
                  awake: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """Per-round distributions p_t, shape (T, N), for every path weight
    raised to ``eta``.

    With ``awake`` masks the update is the sleeping one: only awake
    experts are charged, their mass is rescaled to what it was before
    the round, and the returned rows are conditioned on the awake set.
    """
    losses = np.asarray(losses, dtype=float)
    horizon, n = losses.shape
    step = machine.step ** eta
    beta = np.empty((horizon, len(machine.label)))
    b = machine.final ** eta
    for t in range(horizon - 1, -1, -1):
        beta[t] = b
        b = step @ b
        b = b / b.max()
    out = np.empty((horizon, n))
    gamma = machine.start ** eta
    for t in range(horizon):
        flow = gamma * beta[t]
        p = np.bincount(machine.label, weights=flow, minlength=n)
        p = p / p.sum()
        mult = np.exp(-eta * losses[t][machine.label])
        if awake is None:
            out[t] = p
            alpha = gamma * mult
        else:
            mask = np.asarray(awake[t], dtype=bool)
            out[t] = np.where(mask, p, 0.0) / p[mask].sum()
            on = mask[machine.label]
            scale = flow[on].sum() / (flow[on] * mult[on]).sum()
            alpha = np.where(on, gamma * mult * scale, gamma)
        gamma = alpha @ step
        gamma = gamma / gamma.max()
    return out
