"""Per-layer spans recorded from outside the library.

A traced pass replaces each listed public function with a wrapper in
every ``wfa_hedge`` namespace that binds it, so calls are caught whether
they come from the benchmark, from another module (``from .wfa import
intersect``) or from inside the defining module.  Each call leaves one
span: name, caller namespace, start, end, parent span, trace id, the
exception it raised (if any) and whether it returned None.  Spans stay in
memory; the runner writes them to a sidecar file at exit.

``resolve_symbol`` and other functions called hundreds of thousands of
times per pass are deliberately left unwrapped.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

WRAPPED = {
    "builders": ("exact_shift_automaton", "length_automaton",
                 "weighted_shift_automaton", "hierarchy_automaton"),
    "wfa": ("intersect", "power_weights", "weight_push", "backward_distances",
            "topological_order", "count_accepting_paths", "enumerate_support",
            "leveled_best_path"),
    "hedge": ("hedge_init", "hedge_step", "log_power_sum", "best_competitor",
              "summarize"),
    "phi": ("phi_intersect", "power_weights_phi", "weight_push_phi",
            "phi_backward_distances", "phi_expand", "shadowed_continuation"),
    "ngram": ("ml_ngram",),
    "approx": ("select_order", "divergence_inf"),
    "sleeping": ("awake_init", "awake_step", "sleeping_regret"),
    "harness": ("run_experiment", "gen_losses"),
    "cli": ("main",),
    "textio": ("read_automaton", "write_automaton", "read_symbols", "write_symbols"),
}

# Span record fields.
NAME, CALLER, START, END, PARENT, TRACE, ERROR, NONE_RESULT = range(8)


class Tracer:
    """Collects spans while installed; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, caller: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, caller, perf_counter(), None,
                   stack[-1] if stack else None, self.trace_id, None, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[NONE_RESULT] = result is None
                return result
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def install(self, trace_id: str) -> None:
        self.trace_id = trace_id
        namespaces = {key[len("wfa_hedge."):] or "wfa_hedge": mod
                      for key, mod in sys.modules.items()
                      if key == "wfa_hedge" or key.startswith("wfa_hedge.")}
        for module, functions in WRAPPED.items():
            for fname in functions:
                original = getattr(namespaces[module], fname)
                for caller, ns in namespaces.items():
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, self._wrap(f"{module}.{fname}", caller, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        self.trace_id = None


class SpanStats:
    """Call counts, busy time and self time per span name for one pass.

    Busy time sums the spans of a name that have no ancestor of the same
    name, so recursion is not counted twice.  Self time is a span's
    duration minus that of its direct children.
    """

    def __init__(self, tracer: Tracer, trace_id: str):
        spans = tracer.spans
        chosen = [i for i, s in enumerate(spans) if s[TRACE] == trace_id]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.none_results: dict[str, int] = defaultdict(int)
        self.by_caller: dict[tuple[str, str], list[list]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for i in chosen:
            s = spans[i]
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        for i in chosen:
            s = spans[i]
            name, dur = s[NAME], s[END] - s[START]
            self.calls[name] += 1
            self.durations[name].append(dur)
            self.none_results[name] += s[NONE_RESULT]
            self.by_caller[(name, s[CALLER])].append(s)
            self.self_time[name] += dur - child_time[i]
            ancestor = s[PARENT]
            while ancestor is not None and spans[ancestor][NAME] != name:
                ancestor = spans[ancestor][PARENT]
            if ancestor is None:
                self.busy[name] += dur


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms_p50", "ms"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(st: SpanStats, extras: dict) -> dict[str, float]:
    """Per-layer values of one traced pass; a layer that did no work reads 0.

    ``extras`` carries counters the engine keeps itself: the per-round
    work counts and the phi machine's median edges per level.
    """
    work = extras.get("work_per_round", [])
    # The work counts come from the awake run when there is one.
    round_busy = st.busy["sleeping.awake_step"] or st.busy["hedge.hedge_step"]
    awake_steps = st.durations["sleeping.awake_step"]
    # enumerate_support calls made by ml_ngram's "auto" method; the ones
    # that raise past the enumeration limit are wasted work.
    enum = st.by_caller[("wfa.enumerate_support", "ngram")]
    return {
        "builders.build_s": sum((v for k, v in st.busy.items() if k.startswith("builders.")), 0.0),
        "wfa.intersect_s": st.busy["wfa.intersect"],
        "wfa.power_weights_s": st.busy["wfa.power_weights"],
        "wfa.weight_push_s": st.busy["wfa.weight_push"],
        "wfa.backward_distances_s": st.busy["wfa.backward_distances"],
        "wfa.topological_order_calls": st.calls["wfa.topological_order"],
        "wfa.count_accepting_paths_calls": st.calls["wfa.count_accepting_paths"],
        "wfa.leveled_best_path_s": st.busy["wfa.leveled_best_path"],
        "hedge.init_self_s": st.self_time["hedge.hedge_init"],
        "hedge.step_s": st.busy["hedge.hedge_step"],
        "hedge.edges_per_round": statistics.median(work) if work else 0,
        "hedge.edges_per_s": _ratio(sum(work), round_busy),
        "hedge.log_power_sum_calls": st.calls["hedge.log_power_sum"],
        "hedge.log_power_sum_s": st.busy["hedge.log_power_sum"],
        "hedge.best_competitor_calls": st.calls["hedge.best_competitor"],
        "hedge.best_competitor_s": st.busy["hedge.best_competitor"],
        "hedge.summarize_s": st.busy["hedge.summarize"],
        "phi.intersect_s": st.busy["phi.phi_intersect"],
        "phi.weight_push_s": st.busy["phi.weight_push_phi"],
        "phi.backward_distances_calls": st.calls["phi.phi_backward_distances"],
        "phi.backward_distances_s": st.busy["phi.phi_backward_distances"],
        "phi.expand_s": st.busy["phi.phi_expand"],
        "phi.shadowed_continuation_calls": st.calls["phi.shadowed_continuation"],
        "phi.shadow_hit_ratio": _ratio(
            st.calls["phi.shadowed_continuation"] - st.none_results["phi.shadowed_continuation"],
            st.calls["phi.shadowed_continuation"]),
        "phi.level_edges": extras.get("phi_level_edges", 0),
        "ngram.ml_ngram_s": st.busy["ngram.ml_ngram"],
        "ngram.enumerate_calls": len(enum),
        "ngram.enumerate_wasted_ratio": _ratio(sum(1 for s in enum if s[ERROR]), len(enum)),
        "approx.select_order_s": st.busy["approx.select_order"],
        "approx.divergence_inf_calls": st.calls["approx.divergence_inf"],
        "approx.divergence_inf_s": st.busy["approx.divergence_inf"],
        "sleeping.awake_init_s": st.busy["sleeping.awake_init"],
        "sleeping.awake_step_ms_p50": statistics.median(awake_steps) * 1e3 if awake_steps else 0.0,
        "sleeping.regret_s": st.busy["sleeping.sleeping_regret"],
        "harness.run_experiment_self_s": st.self_time["harness.run_experiment"],
        "harness.gen_losses_s": st.busy["harness.gen_losses"],
        "cli.main_self_s": st.self_time["cli.main"],
        "textio.io_s": sum((v for k, v in st.busy.items() if k.startswith("textio.")), 0.0),
    }
