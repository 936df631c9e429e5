"""Pick the cheapest n-gram order that is still a faithful stand-in.

The worst-case log ratio of a candidate model is minimized by
exponentiated-gradient steps over the per-context simplices, one
subgradient per worst sequence.  An order passes when the running
objective, minus the optimization-error allowance, stays under sqrt(T);
the search doubles the order on a violation and binary-searches down.
"""

import math


from wfa_hedge import (divergence_inf, exact_shift_automaton, horizon_product,
                       minimax_unigram, prod_eg, uniform_model)
from wfa_hedge.approx import select_order
from wfa_hedge.wfa import Wfa

# 1. optimizing a unigram on a lopsided support
horizon = 6
seqs = [("a",) * horizon] + [
    tuple("b" if i == j else "a" for i in range(horizon)) for j in (1, 3, 5)]
machine = horizon_product(Wfa.from_sequences(seqs, alphabet=("a", "b")), horizon)
start = divergence_inf(machine, uniform_model(("a", "b"), 1)).value
result = prod_eg(machine, 1, 500)
closed = minimax_unigram(machine)
closed_val = divergence_inf(machine, closed).value
print("unigram fit of an a-heavy support:")
print(f"  uniform start      {start:.4f}")
print(f"  after 500 updates  {result.objective:.4f} "
      f"(w[a] = {result.model.tables[()][0]:.4f})")
print(f"  closed form        {closed_val:.4f} "
      f"(w[a] = {closed.tables[()][0]:.4f})")

# 2. order selection: constants need a bigram, switch classes do not
for name, competitor, t in (
        ("constant sequences", exact_shift_automaton(3, 0), 6),
        ("one-switch sequences", exact_shift_automaton(3, 1), 6)):
    ct = horizon_product(competitor, t)
    sel = select_order(ct, iterations=40, budget=3 ** 3)
    print(f"\n{name}: selected order {sel.order} "
          f"(objective {sel.objective:.3f}, allowance {sel.slack:.3f}, "
          f"target sqrt(T) = {math.sqrt(t):.3f})")
    for order, passed, obj, slack in sel.tried:
        print(f"  order {order}: objective {obj:.3f}, allowance {slack:.3f}, "
              f"{'pass' if passed else 'fail'}")
