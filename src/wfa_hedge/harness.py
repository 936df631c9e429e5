"""Experiment driver: declarative configs in, regret reports out.

A config names an automaton builder, a horizon, a learning rate (or
tuner), an optional n-gram approximation, optional failure-transition
compression, and a loss source.  Reports are plain dicts serialized with
sorted keys, so a fixed seed replays byte-identically.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import approx as approxmod
from . import ngram as ngrammod
from .builders import (exact_shift_automaton, hierarchy_automaton,
                       length_automaton, weighted_shift_automaton)
from .hedge import (HedgeState, _check_horizon, _tuned_eta, hedge_step, horizon_product, sample,
                    summarize, tune_eta_renyi, unweighted_regret, weighted_regret)
from .phi import PhiWfa, phi_convert
from .sleeping import (AwakeState, awake_distribution, awake_step, sleeping_regret,
                       worst_comparator)
from .textio import read_automaton
from .wfa import Wfa, log_weight_range

__all__ = [
    "ExperimentConfig",
    "gen_losses",
    "read_losses_csv",
    "write_losses_csv",
    "read_awake_csv",
    "fit_approximation",
    "run_experiment",
    "report_to_json",
    "compare",
    "build_automaton",
]

# -- configuration ----------------------------------------------------------------


@dataclass
class ExperimentConfig:
    automaton: dict
    horizon: int
    losses: dict
    eta: Any = "fixed"                 # float, or "fixed" / "renyi"
    algorithm: str = "hedge"           # hedge | awake-hedge
    approximation: Optional[dict] = None
    phi: bool = False
    awake: Optional[dict] = None
    seed: int = 0
    label: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        if "automaton" not in d or "horizon" not in d or "losses" not in d:
            raise ValueError("config needs automaton, horizon and losses")
        cfg = cls(**d)
        for key in ("automaton", "losses", "approximation", "awake"):
            spec, optional = getattr(cfg, key), key in ("approximation", "awake")
            if spec is None and optional:
                continue
            if not isinstance(spec, dict):
                raise ValueError(f"{key} must be an object{' or null' if optional else ''}")
            if not isinstance(spec.get("params", {}), dict):
                raise ValueError(f"{key} params must be an object")
        if "path" not in cfg.losses and "generator" not in cfg.losses:
            raise ValueError("losses need a path or a generator")
        if "path" in cfg.automaton and "symbols" not in cfg.automaton:
            raise ValueError("an automaton path needs symbols")
        if cfg.approximation is not None and "kind" not in cfg.approximation:
            raise ValueError("approximation needs a kind")
        if type(cfg.phi) is not bool:
            raise ValueError("phi must be true or false")
        if cfg.label is not None and not isinstance(cfg.label, str):
            raise ValueError("label must be a string or null")
        _check_horizon(cfg.horizon)
        if type(cfg.seed) is not int or cfg.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not (cfg.eta in ("fixed", "renyi") or type(cfg.eta) in (int, float) and cfg.eta > 0):
            raise ValueError("eta must be a positive number, 'fixed' or 'renyi'")
        if cfg.algorithm not in ("hedge", "awake-hedge"):
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
        if cfg.algorithm == "awake-hedge" and not cfg.awake:
            raise ValueError("awake-hedge needs an awake source")
        for path in (cfg.automaton.get("path"), cfg.automaton.get("symbols"),
                     cfg.losses.get("path"), (cfg.awake or {}).get("path")):
            if path is not None and not os.path.exists(path):
                raise ValueError(f"missing file {path}")
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "automaton": self.automaton, "horizon": self.horizon,
            "losses": self.losses, "eta": self.eta, "algorithm": self.algorithm,
            "approximation": self.approximation, "phi": self.phi,
            "awake": self.awake, "seed": self.seed, "label": self.label,
        }


def build_automaton(spec: dict) -> Wfa:
    """Instantiate the automaton a config names (builder or files)."""
    if "path" in spec:
        machine = read_automaton(spec["path"], spec["symbols"])
        if isinstance(machine, PhiWfa):
            raise ValueError("experiment configs take plain machines; "
                             "phi compression is applied by the runner")
        return machine
    builder = spec.get("builder")
    params = dict(spec.get("params", {}))
    if builder == "kshift":
        return exact_shift_automaton(**params)
    if builder == "weighted-shift":
        params["weights"] = np.asarray(params["weights"], dtype=float)
        return weighted_shift_automaton(**params)
    if builder == "hierarchy":
        params["tiers"] = [tuple(t) for t in params["tiers"]]
        return hierarchy_automaton(**params)
    if builder == "length":
        return length_automaton(**params)
    if builder == "sequences":
        return Wfa.from_sequences(params["sequences"],
                                  alphabet=params.get("alphabet"))
    raise ValueError(f"unknown builder {builder!r}")


# -- loss and awake-set sources ------------------------------------------------------


def gen_losses(kind: str, params: dict, seed: int, horizon: int, num_experts: int
               ) -> np.ndarray:
    """Synthetic loss streams; every generator is seed-deterministic.

    piecewise_stationary: one favored low-mean expert per segment.
    iid_uniform: independent uniform [0, 1] entries.
    adversarial_best_path: the target sequence accumulates zero loss,
    everyone else stays expensive; ValueError for a target symbol outside
    the alphabet or an alphabet of other than ``num_experts`` symbols.
    """
    rng = np.random.default_rng(seed)
    if kind == "iid_uniform":
        return rng.random((horizon, num_experts))
    if kind == "piecewise_stationary":
        seg = int(params.get("segment_length", max(1, horizon // 4)))
        low = float(params.get("low", 0.1))
        high = float(params.get("high", 0.9))
        if seg < 1:
            raise ValueError("segment length must be >= 1")
        losses = np.empty((horizon, num_experts))
        favored = int(rng.integers(num_experts))
        for t in range(horizon):
            if t % seg == 0 and t > 0:
                favored = int(rng.integers(num_experts))
            means = np.full(num_experts, high)
            means[favored] = low
            losses[t] = (rng.random(num_experts) < means).astype(float)
        return losses
    if kind == "adversarial_best_path":
        target = params["target"]
        if isinstance(target, str):
            target = list(target)
        if len(target) != horizon:
            raise ValueError("target length must equal the horizon")
        alphabet = params.get("alphabet")
        if alphabet is None:
            from .wfa import default_alphabet
            alphabet = default_alphabet(num_experts)
        if len(alphabet) != num_experts:
            raise ValueError(f"alphabet has {len(alphabet)} symbols for {num_experts} experts")
        sym = {a: i for i, a in enumerate(alphabet)}
        losses = 0.5 + 0.5 * rng.random((horizon, num_experts))
        for t, a in enumerate(target):
            if a not in sym:
                raise ValueError(f"target symbol {a!r} at round {t + 1} is not in the alphabet")
            losses[t, sym[a]] = 0.0
        return losses
    raise ValueError(f"unknown loss generator {kind!r}")


def write_losses_csv(losses: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for row in losses:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def read_losses_csv(path) -> np.ndarray:
    """One comma-separated row of losses per line; ValueError naming the
    line of a field that is not a number or of a row whose length is not
    the first row's.  NaN reads as NaN."""
    rows = []
    with open(path) as fh:
        for row, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    rows.append([float(x) for x in line.split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path} line {row}: {exc}") from None
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"{path} line {row}: {len(rows[-1])} losses, "
                                     f"the first row has {len(rows[0])}")
    return np.asarray(rows, dtype=float)


def read_awake_csv(path, alphabet) -> list[np.ndarray]:
    """One row per round: a bitstring like 101 or symbols a;c, else ValueError."""
    sym = {a: i for i, a in enumerate(alphabet)}
    masks = []
    with open(path) as fh:
        for row, line in enumerate(fh, 1):
            token = line.strip()
            if not token:
                continue
            mask = np.zeros(len(alphabet), dtype=bool)
            if set(token) <= {"0", "1"} and len(token) == len(alphabet):
                mask[:] = [c == "1" for c in token]
            else:
                for name in map(str.strip, token.split(";")):
                    if name not in sym:
                        raise ValueError(f"awake line {row}, {token!r}: " + (
                            f"a bitstring needs {len(alphabet)} digits"
                            if set(token) <= {"0", "1"} else f"unknown expert {name!r}"))
                    mask[sym[name]] = True
            masks.append(mask)
    return masks


def _gen_awake(kind: str, params: dict, seed: int, horizon: int, num_experts: int,
               ) -> list[np.ndarray]:
    """Seed-deterministic random_subsets: each expert awake with probability
    density, given that one is.  When a round's draw is empty, the number
    awake comes from the binomial given >= 1, then a uniform subset of
    that size: the same law as redrawing, with no loop to get stuck in."""
    if kind != "random_subsets":
        raise ValueError(f"unknown awake generator {kind!r}")
    density = float(params.get("density", 0.7))
    if not 0.0 < density <= 1.0:  # NaN fails too
        raise ValueError(f"awake density must lie in (0, 1], got {density!r}")
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(horizon):
        mask = rng.random(num_experts) < density
        if not mask.any():  # so density < 1
            k = np.arange(1, num_experts + 1)
            log_pk = np.array([math.log(math.comb(num_experts, j)) for j in k.tolist()])
            log_pk += k * (math.log(density) - math.log1p(-density))
            pk = np.exp(log_pk - log_pk.max())
            mask[rng.choice(num_experts, rng.choice(k, p=pk / pk.sum()), replace=False)] = True
        masks.append(mask)
    return masks


# -- the pipeline -----------------------------------------------------------------


def _resolve_eta(cfg: ExperimentConfig, competitor_t: Wfa, horizon: int) -> float:
    if isinstance(cfg.eta, (int, float)):
        if not cfg.eta > 0:  # NaN fails too
            raise ValueError("eta must be positive")
        return float(cfg.eta)
    if cfg.eta == "fixed":
        return _tuned_eta(horizon, competitor_t.compiled.log_K)
    if cfg.eta == "renyi":
        return tune_eta_renyi(competitor_t, horizon)
    raise ValueError(f"unknown eta spec {cfg.eta!r}")


def fit_approximation(competitor_t: Wfa, spec: dict, horizon: int
                      ) -> tuple[ngrammod.NGramModel, dict[str, Any]]:
    """(model, report fields) for the n-gram ``spec`` fitted to the
    length-``horizon`` product ``competitor_t``; ``iters`` defaults to
    200 and a fixed-share bigram's ``shifts`` to 0."""
    kind = spec["kind"]
    info: dict[str, Any] = {"kind": kind}
    if kind == "ml-ngram":
        model = ngrammod.ml_ngram(competitor_t, int(spec["order"]))
    elif kind == "prod-eg":
        result = approxmod.prod_eg(competitor_t, int(spec["order"]),
                                   int(spec.get("iters", 200)))
        model = result.model
        info["iterations"] = result.iterations
    elif kind == "model-select":
        sel = approxmod.select_order(competitor_t, int(spec.get("iters", 200)),
                                     int(spec["budget"]))
        model = sel.model
        info.update(feasible=sel.feasible, budget_limited=sel.budget_limited)
    elif kind == "fixed-share-bigram":
        alphabet = competitor_t.alphabet
        model = ngrammod.fixed_share_bigram(len(alphabet), int(spec.get("shifts", 0)),
                                            horizon, alphabet=alphabet)
    else:
        raise ValueError(f"unknown approximation {kind!r}")
    info["order"] = model.order
    return model, info


def _approximate(cfg: ExperimentConfig, competitor_t: Wfa):
    """(model, report fields with its divergence); a fixed-share bigram's
    shifts default to the automaton's."""
    shifts = cfg.automaton.get("params", {}).get("shifts", 0)
    model, info = fit_approximation(competitor_t, {"shifts": shifts, **cfg.approximation},
                                    cfg.horizon)
    div = approxmod.divergence_inf(competitor_t, model)
    info.update(divergence=div.value, divergence_witness=list(div.witness))
    return model, info


def run_experiment(cfg: ExperimentConfig, machine: Optional[Wfa] = None) -> dict:
    """Build, optionally approximate and compress, play T rounds, report.

    ``machine`` is the config's automaton when the caller has built it
    already.  The report is JSON-ready: config echo, seeds, per-round
    distributions, regrets, bound values and verdicts, edge counters.
    """
    if machine is None:
        machine = build_automaton(cfg.automaton)
    horizon = cfg.horizon
    n = len(machine.alphabet)

    if "path" in cfg.losses:
        losses = read_losses_csv(cfg.losses["path"])
    else:
        losses = gen_losses(cfg.losses["generator"], cfg.losses.get("params", {}),
                            int(cfg.losses.get("seed", cfg.seed)), horizon, n)
    if losses.shape != (horizon, n):
        raise ValueError(f"loss stream has shape {losses.shape}, "
                         f"expected {(horizon, n)}")
    if not (losses.min() >= 0 and losses.max() <= 1):  # NaN fails too
        raise ValueError("losses must lie in [0, 1]")

    competitor_t = horizon_product(machine, horizon)
    eta = _resolve_eta(cfg, competitor_t, horizon)

    approx_info = None
    played: Any = machine
    if cfg.approximation is not None:
        model, approx_info = _approximate(cfg, competitor_t)
        if cfg.phi:
            try:
                played = ngrammod.bigram_phi_machine(model)
                approx_info["phi_form"] = "shared-shift-hub"
            except ValueError:
                played = phi_convert(ngrammod.ngram_to_wfa(model))
                approx_info["phi_form"] = "generic"
        else:
            played = ngrammod.ngram_to_wfa(model)
    elif cfg.phi:
        played = phi_convert(machine)

    rng = np.random.default_rng(cfg.seed)
    report: dict[str, Any] = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "eta": eta,
        "num_experts": n,
        "horizon": horizon,
        "alphabet": list(machine.alphabet),
    }

    # Without approximation or compression the played machine is the
    # competitor, whose length-T product is already built.
    played_t = competitor_t if played is machine else horizon_product(played, horizon)
    state = (AwakeState if cfg.algorithm == "awake-hedge" else HedgeState)(played_t, horizon, eta)
    sampled = []
    if cfg.algorithm == "awake-hedge":
        if "path" in cfg.awake:
            masks = read_awake_csv(cfg.awake["path"], machine.alphabet)
        else:
            masks = _gen_awake(cfg.awake.get("generator"), cfg.awake.get("params", {}),
                               int(cfg.awake.get("seed", cfg.seed)), horizon, n)
        if len(masks) != horizon:
            raise ValueError("awake stream length must equal the horizon")
        for t in range(horizon):
            p_awake = awake_distribution(state, masks[t])
            sampled.append(int(sample(p_awake, rng)))
            awake_step(state, masks[t], losses[t] * masks[t])
        report["awake_sets"] = ["".join("1" if b else "0" for b in m) for m in masks]
        report["p_awake_rounds"] = [p.tolist() for p in state.p_awake_history]
        # The check is exact at any K: value minus bound is linear in the
        # comparator mixture, so the worst one is a point mass.  Both read
        # the run's compiled arrays, so a phi run is never expanded.
        args = (masks, state.p_awake_history, losses, state)
        r = sleeping_regret(*args, worst_comparator(*args, eta), eta)
        report["verdicts"] = {"sleeping_bound_ok": bool(r.value <= r.bound)}
        report["sleeping_bound_margin"] = -(r.value - r.bound)
    else:
        for t in range(horizon):
            sampled.append(int(sample(state.p_current, rng)))
            hedge_step(state, losses[t])
        rep = summarize(state)
        report["p_rounds"] = rep.p_rounds
        report["weighted_regret_played"] = rep.weighted_regret
        report["unweighted_regret_played"] = rep.unweighted_regret
        report["weighted_bound"] = rep.weighted_bound
        report["weighted_bound_loose"] = rep.weighted_bound_loose
        report["unweighted_bound"] = rep.unweighted_bound
        report["best_sequence_played"] = list(rep.best_sequence)

        # Regret against the original competitor class, which is what
        # matters when an approximation was played; when the competitor
        # itself was played, summarize has computed it already.
        if played_t is competitor_t:
            w_reg, u_reg = rep.weighted_regret, rep.unweighted_regret
        else:
            w_reg = weighted_regret(state.p_history, list(losses), competitor_t)
            u_reg = unweighted_regret(state.p_history, list(losses), competitor_t)
        report["weighted_regret"] = w_reg
        report["unweighted_regret"] = u_reg
        # K itself where it fits int64, else null: the bounds read log K.
        report["num_sequences"] = competitor_t.compiled.num_paths
        verdicts = {}
        if cfg.approximation is None:
            verdicts["weighted_bound_ok"] = bool(w_reg <= rep.weighted_bound)
            if _uniform_weights(competitor_t):
                verdicts["unweighted_bound_ok"] = bool(u_reg <= rep.unweighted_bound)
        else:
            div = approx_info["divergence"]
            bound = eta * horizon / 8.0 + competitor_t.compiled.log_K / eta + div
            report["approx_bound"] = bound
            verdicts["approx_bound_ok"] = bool(w_reg <= bound)
        report["verdicts"] = verdicts

    report["sampled_experts"] = sampled
    report["expected_losses"] = list(state.expected_losses)
    report["cumulative_loss"] = state.cumulative_loss
    report["touched_edges_per_round"] = list(state.touched_per_round)
    report["work_per_round"] = list(state.work_per_round)
    if approx_info is not None:
        report["approximation"] = approx_info
    return report


def _uniform_weights(machine: Wfa) -> bool:
    """Whether every accepting path has the same weight: the lightest
    and the heaviest path log-weights agree."""
    lo, hi = log_weight_range(machine)
    return hi - lo < 1e-12


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def compare(configs: list[ExperimentConfig]) -> dict:
    """Run several configs against one shared loss stream.

    All configs must agree on (num experts, horizon); the first config's
    loss source wins and is replayed for everyone.
    """
    if not configs:
        raise ValueError("nothing to compare")
    reports = []
    machines = [build_automaton(cfg.automaton) for cfg in configs]
    base = (len(machines[0].alphabet), configs[0].horizon)
    for cfg, machine in zip(configs, machines):
        key = (len(machine.alphabet), cfg.horizon)
        if key != base:
            raise ValueError(f"config {cfg.label or ''} has {key}, expected {base}")
    shared = configs[0].losses
    rows = []
    for cfg, machine in zip(configs, machines):
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "losses": shared})
        rep = run_experiment(cfg, machine)
        reports.append(rep)
        rows.append({
            "label": cfg.label or cfg.automaton.get("builder", "machine"),
            "algorithm": cfg.algorithm,
            "phi": cfg.phi,
            "approximation": (cfg.approximation or {}).get("kind"),
            "cumulative_loss": rep["cumulative_loss"],
            "weighted_regret": rep.get("weighted_regret"),
            "unweighted_regret": rep.get("unweighted_regret"),
            "max_touched_edges": max(rep["touched_edges_per_round"]),
            "total_work": sum(rep["work_per_round"]),
            "verdicts": rep["verdicts"],
        })
    return {"rows": rows, "reports": reports}
