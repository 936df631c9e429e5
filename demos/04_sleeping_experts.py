"""Rounds where only a subset of experts is available.

Each round the learner plays its distribution conditioned on the awake
set, and only awake-labeled edges are reweighted; a rescaling keeps the
total awake path mass unchanged so asleep sequences never lose ground.
The regret comparison holds against every fixed mixture over accepting
paths, restricted round-by-round to its awake part.
"""

import numpy as np

from wfa_hedge import (awake_distribution, awake_init, awake_step,
                       exact_shift_automaton, sample, sleeping_regret,
                       worst_comparator)

N, SHIFTS, T, ETA = 3, 1, 8, 0.5

state = awake_init(exact_shift_automaton(N, SHIFTS), T, ETA)
rng = np.random.default_rng(4)

masks, losses = [], []
print("round  awake  play  p_t | awake")
for t in range(T):
    mask = np.zeros(N, dtype=bool)
    while not mask.any():
        mask = rng.random(N) < 0.6
    loss = rng.random(N) * mask
    p_awake = awake_distribution(state, mask)
    pick = sample(p_awake, rng)
    print(f"{t + 1:>5}  {''.join('1' if b else '0' for b in mask):>5}"
          f"  {state.alphabet[pick]:>4}  "
          + " ".join(f"{x:.3f}" for x in p_awake))
    awake_step(state, mask, loss)
    masks.append(mask)
    losses.append(loss)

print(f"\ncumulative expected loss: {state.cumulative_loss:.3f}")
print("worst regret over all point-mass comparators (one best-path sweep):")
args = (masks, state.p_awake_history, losses, state)
worst = sleeping_regret(*args, worst_comparator(*args, ETA), ETA)
print(f"  value {worst.value:.3f}  <=  bound {worst.bound:.3f} "
      f"(awake mass {worst.awake_mass:.2f})")
