"""Compete against expert sequences with a fixed number of switches.

The competitor class is encoded as an automaton: states remember the
current expert and how many switches happened so far.  The engine keeps
one weight per automaton transition instead of one per sequence, so a
round costs the size of one level of the machine rather than the
(combinatorial) number of sequences.
"""

import numpy as np

from wfa_hedge import (enumerate_support, exact_shift_automaton, hedge_init,
                       hedge_step, sample, summarize, tune_eta_fixed)

N_EXPERTS, SHIFTS, HORIZON = 3, 2, 12

machine = exact_shift_automaton(N_EXPERTS, SHIFTS)
eta = tune_eta_fixed(HORIZON, 120)
state = hedge_init(machine, HORIZON, eta)
print(f"competitor sequences: {state.K}, eta = {eta:.3f}")
print(f"pushed machine: {state.machine.num_states} states, "
      f"{len(state.machine.transitions)} transitions")

# piecewise-stationary losses: the good expert changes twice
rng = np.random.default_rng(0)
favored = [0] * 4 + [2] * 4 + [1] * 4
losses = []
for t in range(HORIZON):
    row = 0.2 + 0.8 * rng.random(N_EXPERTS)
    row[favored[t]] = 0.05 * rng.random()
    losses.append(row)

print("\nround  play  favored  p_t")
for t in range(HORIZON):
    pick = sample(state.p_current, rng)
    print(f"{t + 1:>5}  {state.alphabet[pick]:>4}  "
          f"{state.alphabet[favored[t]]:>7}  "
          + " ".join(f"{x:.3f}" for x in state.p_current))
    hedge_step(state, losses[t])

report = summarize(state)
print(f"\ncumulative expected loss: {report.cumulative_loss:.3f}")
print(f"best sequence in class:   {''.join(report.best_sequence)} "
      f"(loss {report.best_sequence_loss:.3f})")
print(f"regret {report.weighted_regret:.3f}  <=  bound {report.weighted_bound:.3f}")

# the best fixed expert is much worse than the best switching sequence
support = enumerate_support(state.machine)
static = min(sum(l[i] for l in losses) for i in range(N_EXPERTS))
print(f"best fixed expert loss:   {static:.3f} "
      f"(vs {report.best_sequence_loss:.3f} with switches)")
