"""Sleeping experts over automaton paths.

Each round the adversary reveals an awake subset of the alphabet; the
learner plays the current distribution conditioned on that subset and
only awake-labeled edges are reweighted.  The update then rescales the
awake edges so the total awake path mass is what it was before the
exponential step, leaving asleep paths untouched: the engine cannot
drift away from experts that have been asleep for a long time.

The state is the compiled engine of :mod:`wfa_hedge.hedge`, whose
readout of the current level keeps its per-label flows.  The loss
multiplies every edge of an awake label by the same factor, so the awake
mass after the update, and with it the rescale, follows from those flows
without another sweep; the rescaled charge then goes into the same
forward advance as a plain round.  On a phi machine a label's flow
already nets out its correction edges, so phi products run it too.
The verdict of a run (:func:`worst_comparator`, :func:`sleeping_regret`
given the run state or its product) reads K, the worst comparator and
its support off the same compiled arrays, so no phi run is expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .hedge import HedgeState, _check_loss, _path_scores, horizon_product
from .phi import PhiWfa
from .wfa import Wfa, _compiled, leveled_best_path

__all__ = [
    "ZeroAwakeMassError",
    "AwakeState",
    "awake_init",
    "awake_distribution",
    "awake_step",
    "SleepingRegret",
    "sleeping_regret",
    "worst_comparator",
]


class ZeroAwakeMassError(ValueError):
    """No accepting path is awake at the current position."""


class AwakeState(HedgeState):
    """Hedge state plus the per-round awake bookkeeping."""

    def __init__(self, machine, horizon, eta):
        super().__init__(machine, horizon, eta)
        self.awake_history: list[np.ndarray] = []
        self.p_awake_history: list[np.ndarray] = []


def awake_init(competitor: Union[Wfa, PhiWfa], horizon: int, eta: float) -> AwakeState:
    """Same preparation as :func:`hedge_init`, for the sleeping protocol."""
    return AwakeState(horizon_product(competitor, horizon), horizon, eta)


def _awake_mask(state: HedgeState, awake: Iterable) -> np.ndarray:
    """The awake set as a new bool mask over the alphabet: from a bool
    array or list of the alphabet's length, or from symbol names."""
    n = state.num_experts
    if isinstance(awake, np.ndarray) and awake.dtype == bool and awake.shape == (n,):
        mask = awake.copy()
    else:
        mask = np.zeros(n, dtype=bool)
        awake = list(awake)
        if not awake:
            raise ZeroAwakeMassError("empty awake set")
        if all(isinstance(a, (bool, np.bool_)) for a in awake) and len(awake) == n:
            mask[:] = awake
        else:
            for a in awake:
                if a not in state.sym_index:
                    raise ValueError(f"unknown expert {a!r}")
                mask[state.sym_index[a]] = True
    if not mask.any():
        raise ZeroAwakeMassError("empty awake set")
    return mask


def awake_distribution(state: HedgeState, awake: Iterable) -> np.ndarray:
    """Current distribution conditioned on the awake experts."""
    return _conditioned(state.p_current, _awake_mask(state, awake))


def _conditioned(p: np.ndarray, mask: np.ndarray) -> np.ndarray:
    total = float(p[mask].sum())
    if total <= 0.0:
        raise ZeroAwakeMassError("awake set carries no probability mass")
    return np.where(mask, p, 0.0) / total


def awake_step(state: AwakeState, awake: Iterable, loss: Sequence[float]
               ) -> Optional[np.ndarray]:
    """One sleeping round: exponential update on awake edges only,
    rescaled so the awake path mass is preserved.

    The loss must vanish on asleep experts.  Returns the next full
    distribution (None on the last round).  Bad input is rejected before
    the state changes.
    """
    loss = _check_loss(state, loss)
    mask = _awake_mask(state, awake)
    if (loss[~mask] != 0).any():
        raise ValueError("loss must vanish on asleep experts")
    p_awake = _conditioned(state.p_current, mask)
    flows = state.flows[mask]
    before = flows.sum()
    if not before > 0:
        raise ZeroAwakeMassError("awake set carries no path mass")
    charged = -state.eta * loss[mask]
    after = flows @ np.exp(charged)
    if not after > 0:
        raise ZeroAwakeMassError("awake mass vanished under the update")
    delta = np.zeros(state.num_experts)
    delta[mask] = charged + math.log(before / after)
    state.awake_history.append(mask)
    state.p_awake_history.append(p_awake)
    return state._advance(loss, p_awake, delta)


# -- regret ---------------------------------------------------------------------


@dataclass(frozen=True)
class SleepingRegret:
    value: float
    bound: float
    awake_mass: float  # sum over rounds of u(A_t)


def sleeping_regret(awake_sets: Sequence[np.ndarray],
                    p_awake_rounds: Sequence[np.ndarray],
                    losses: Sequence[np.ndarray],
                    competitor: Union[Wfa, HedgeState],
                    u: dict[tuple[str, ...], float],
                    eta: float) -> SleepingRegret:
    """Regret against a fixed mixture over accepting paths.

    Only rounds where a path is awake (its symbol at that position lies
    in the awake set) contribute, on both sides of the comparison.  Also
    returns the mixture-specific bound (eta/8) sum_t u(A_t) + log(K)/eta.
    ``competitor`` is a horizon product or a run's state, whose K and
    support are read off the compiled arrays.
    """
    total = sum(u.values())
    if abs(total - 1.0) > 1e-9 or any(v < 0 for v in u.values()):
        raise ValueError("comparator must be a distribution over paths")
    machine = competitor.machine if isinstance(competitor, HedgeState) else competitor
    cm = _compiled(machine)
    sym = {a: i for i, a in enumerate(machine.alphabet)}
    for seq in u:
        if u[seq] > 0 and not cm.count_paths([sym.get(a, -1) for a in seq]):
            raise ValueError(f"comparator puts mass on unsupported path {seq}")
    value = 0.0
    awake_mass = 0.0
    for t, (mask, p_awake, loss) in enumerate(zip(awake_sets, p_awake_rounds, losses)):
        exp_loss = float(np.dot(p_awake, loss))
        u_t = 0.0
        best_side = 0.0
        for seq, w in u.items():
            if w > 0 and mask[sym[seq[t]]]:
                u_t += w
                best_side += w * loss[sym[seq[t]]]
        value += u_t * exp_loss - best_side
        awake_mass += u_t
    bound = eta / 8.0 * awake_mass + cm.log_K / eta
    return SleepingRegret(value=value, bound=bound, awake_mass=awake_mass)


def worst_comparator(awake_sets: Sequence[np.ndarray],
                     p_awake_rounds: Sequence[np.ndarray],
                     losses: Sequence[np.ndarray],
                     competitor: Union[Wfa, HedgeState], eta: float
                     ) -> dict[tuple[str, ...], float]:
    """The comparator whose :func:`sleeping_regret` value exceeds its
    bound the most: a point mass, as value minus bound is linear in the
    mixture.  Up to log(K)/eta, the point mass on x scores the sum over
    rounds of awake_t(x_t) (p_awake,t . l_t - l_t(x_t) - eta/8), so it is
    one best path of the length-T competitor, at any K, swept on the
    compiled arrays of its horizon product (a state's included)."""
    gains = np.array([np.where(mask, float(np.dot(p, loss)) - np.asarray(loss, float) - eta / 8.0,
                               0.0) for mask, p, loss in zip(awake_sets, p_awake_rounds, losses)])
    machine = competitor.machine if isinstance(competitor, HedgeState) else competitor
    return {leveled_best_path(machine, _path_scores(machine, gains, False)).sequence: 1.0}
