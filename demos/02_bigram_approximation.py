"""Replace the competitor machine with its maximum-likelihood bigram.

A level of the switch machine grows with the switch budget, while a
bigram level is always N^2 edges.  The price of the swap is the
worst-case log ratio between the two path distributions, which shows up
additively in the regret bound; for the switch class the bigram is the
Fixed-Share update and that price is a constant.
"""

import math

import numpy as np

from wfa_hedge import (divergence_inf, exact_shift_automaton,
                       fixed_share_bigram, hedge_init, hedge_step,
                       horizon_product, ml_ngram, ngram_to_wfa,
                       weighted_regret)

N, K, T = 4, 2, 12
ETA = 0.6

# The competitor's length-T sequences, compiled: what the fits, the
# divergence and the regret functions read.
competitor = horizon_product(exact_shift_automaton(N, K), T)

bigram = ml_ngram(competitor, 2)
closed = fixed_share_bigram(N, K, T)
drift = max(float(np.abs(bigram.tables[c] - closed.tables[c]).max())
            for c in closed.tables)
print(f"fitted bigram vs closed form: max entry difference {drift:.2e}")
print(f"stay weight  {closed.tables[('a',)][0]:.4f}   "
      f"shift weight {closed.tables[('a',)][1]:.4f}")

div = divergence_inf(competitor, bigram)
print(f"worst-case log ratio: {div.value:.4f} "
      f"at {''.join(div.witness)}")

rng = np.random.default_rng(1)
losses = [rng.random(N) for _ in range(T)]

exact = hedge_init(exact_shift_automaton(N, K), T, ETA)
approx = hedge_init(ngram_to_wfa(bigram), T, ETA)
for t in range(T):
    hedge_step(exact, losses[t])
    hedge_step(approx, losses[t])

r_exact = weighted_regret(exact.p_history, losses, competitor)
r_approx = weighted_regret(approx.p_history, losses, competitor)
k = exact.K
base_bound = ETA * T / 8 + math.log(k) / ETA

print(f"\nper-round edges: exact {max(exact.touched_per_round)}, "
      f"bigram {max(approx.touched_per_round)}")
print(f"regret, exact machine:  {r_exact:.3f}  <= {base_bound:.3f}")
print(f"regret, bigram machine: {r_approx:.3f}  <= "
      f"{base_bound + div.value:.3f}  (bound + log ratio)")

unigram = ml_ngram(competitor, 1)
print(f"\nfor contrast, a unigram's worst-case log ratio: "
      f"{divergence_inf(competitor, unigram).value:.4f}")
