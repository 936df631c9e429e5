"""Shrink a machine with failure transitions and play on the result.

When many states carry identical (label, weight) edges into a target,
the shared bundle moves onto a hub reached by a weight-one fallback
edge: reading a symbol with no direct edge follows the fallback without
consuming anything.  The engine subtracts the shadowed mass (direct
edges override the hub) through negative-weight correction edges, so
play on the compressed machine matches play on the plain one exactly.
"""

import numpy as np

from wfa_hedge import (PHI, bigram_phi_machine, fixed_share_bigram,
                       hedge_init, hedge_step, ngram_to_wfa, phi_convert,
                       phi_expand)
from wfa_hedge.wfa import Transition, Wfa, evaluate

# 1. conversion on a machine with shareable fan-in
ts = [Transition(0, a, 1.0, i + 1) for i, a in enumerate("abc")]
for p in (1, 2, 3):
    for a, w in zip("abc", (0.3, 0.5, 0.2)):
        ts.append(Transition(p, a, w, 4))
machine = Wfa("abc", 5, 0, {4: 1.0}, ts)
compact = phi_convert(machine)
n_phi = sum(1 for t in compact.transitions if t.label == PHI)
print(f"plain: {len(machine.transitions)} edges  ->  "
      f"compact: {len(compact.transitions)} edges ({n_phi} fallbacks)")
for ev in compact.conversion_events:
    print(f"  hub for state {ev.target}: {len(ev.parents)} parents share "
          f"{len(ev.shared_labels)} edges, delta {ev.transition_delta}")

expanded = phi_expand(compact)
x = ("a", "b")
print(f"weight of 'ab': plain {evaluate(machine, x):.3f}, "
      f"expanded {evaluate(expanded, x):.3f}")

# 2. the compact bigram: per-round work O(N) instead of N^2
print("\nper-round touched edges, Fixed-Share bigram:")
print(f"{'N':>4} {'plain':>7} {'compact':>8}")
for n in (4, 6, 8, 10):
    model = fixed_share_bigram(n, 1, 9)
    rng = np.random.default_rng(0)
    st_plain = hedge_init(ngram_to_wfa(model), 8, 0.5)
    st_phi = hedge_init(bigram_phi_machine(model), 8, 0.5)
    for t in range(8):
        loss = rng.random(n)
        a = hedge_step(st_plain, loss)
        b = hedge_step(st_phi, loss)
        if a is not None:
            assert np.abs(a - b).max() < 1e-9
    print(f"{n:>4} {max(st_plain.touched_per_round):>7} "
          f"{max(st_phi.touched_per_round):>8}")
print("(identical distributions each round, to 1e-9)")
