"""Online learning against expert sequences encoded by weighted automata.

The package splits into:

- :mod:`wfa_hedge.wfa` / :mod:`wfa_hedge.builders`: deterministic
  weighted automata over the probability semiring, and the shift-style
  competitor machines.
- :mod:`wfa_hedge.phi`: failure-transition compression, expansion and
  filter-based intersection.
- :mod:`wfa_hedge.hedge`: the exponential-weights path engine, regret
  accounting, entropy-based learning-rate tuning.
- :mod:`wfa_hedge.ngram` / :mod:`wfa_hedge.approx`: n-gram models,
  maximum-likelihood fits, worst-case log-ratio minimization and model
  order selection.
- :mod:`wfa_hedge.sleeping`: the awake-set variant of the engine.
- :mod:`wfa_hedge.harness` / :mod:`wfa_hedge.cli`: declarative
  experiment configs, loss generators, reports, command line.
"""

from .builders import (exact_shift_automaton, hierarchy_automaton,
                       length_automaton, weighted_shift_automaton)
from .hedge import (HedgeState, RegretReport, hedge_init, hedge_step,
                    renyi_entropy, renyi_entropy_machine, sample,
                    shannon_entropy, summarize, tune_eta_fixed,
                    tune_eta_renyi, unweighted_regret, weighted_regret)
from .ngram import (NGramModel, bigram_phi_machine, fixed_share_bigram,
                    minimax_unigram, ml_ngram, ngram_to_wfa, uniform_model)
from .approx import (DivergenceValue, divergence_inf, kl_divergence, prod_eg,
                     ratio_subgradient, select_order)
from .phi import (PHI, PhiWfa, as_phi, evaluate_phi, phi_convert, phi_expand,
                  phi_intersect, phi_source_subset)
from .sleeping import (AwakeState, ZeroAwakeMassError, awake_distribution,
                       awake_init, awake_step, sleeping_regret,
                       vertex_comparators)
from .wfa import (CyclicAutomatonError, Transition, Wfa, backward_distances,
                  count_accepting_paths, default_alphabet, enumerate_support,
                  evaluate, intersect, power_weights, validate, weight_push)

__version__ = "0.1.0"
