"""The three benchmark workloads.

Each workload turns the run's seed into inputs; the library sees only
those inputs.  A pass is a sequence of operations.  An operation that
raises, or a CLI command that exits non-zero, is a failed op: it is
counted and gives no timing sample.  Outputs are checked after every
pass, outside the timed region and with tracing off.

Only public entry points and documented outputs of the library are used
(``p_current``, ``hedge_step``'s return value, ``work_per_round``,
``RegretReport`` fields, report JSON files), so the engine's internals
can change under the benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import logging
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from wfa_hedge import builders, cli, harness, hedge, ngram, wfa
from wfa_hedge.phi import PhiWfa

import oracle
import reference

P_TOL = 1e-12  # entrywise tolerance on p_t, and on each p_t's sum


@dataclass
class PassResult:
    attempted: int = 0
    failures: list = field(default_factory=list)   # (op, cause)
    samples: dict = field(default_factory=dict)    # end-to-end metric -> value
    rounds: list = field(default_factory=list)     # seconds per online round
    reference: list = field(default_factory=list)  # reference kernel right after each round
    extras: dict = field(default_factory=dict)     # engine counters for layer metrics
    outputs: dict = field(default_factory=dict)    # what the checks look at

    def fail(self, op: str, exc: BaseException | str) -> None:
        cause = exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}"
        self.failures.append((op, cause))


def _piecewise_losses(rng: np.random.Generator, horizon: int, n: int, segment: int
                      ) -> np.ndarray:
    """One favoured low-loss expert per segment, Bernoulli losses."""
    losses = np.empty((horizon, n))
    for t in range(horizon):
        if t % segment == 0:
            favoured = int(rng.integers(n))
        means = np.full(n, 0.9)
        means[favoured] = 0.1
        losses[t] = (rng.random(n) < means).astype(float)
    return losses


def _check_distributions(ps: np.ndarray, reference: np.ndarray, what: str) -> list[str]:
    problems = []
    if not np.isfinite(ps).all():
        problems.append(f"{what}: non-finite p_t")
    worst_sum = float(np.abs(ps.sum(axis=1) - 1.0).max())
    if worst_sum > P_TOL:
        problems.append(f"{what}: a p_t sums to 1 off by {worst_sum:.3g}")
    if ps.shape != reference.shape:
        problems.append(f"{what}: {ps.shape[0]} distributions, expected {reference.shape[0]}")
    else:
        worst = float(np.abs(ps - reference).max())
        if not worst <= P_TOL:
            problems.append(f"{what}: p_t differs from the reference by {worst:.3g}")
    return problems


def _phi_level_edges(machine, horizon: int) -> float:
    """Median consuming plus phi edges per level of a phi machine
    unrolled to the horizon; 0 for a plain machine."""
    if not (isinstance(machine, PhiWfa) and machine.has_phi()):
        return 0
    counts = []
    frontier = {machine.initial}
    for _ in range(horizon):
        closure, stack = set(frontier), list(frontier)
        while stack:
            for t in machine.phi_arcs(stack.pop()):
                if t.dst not in closure:
                    closure.add(t.dst)
                    stack.append(t.dst)
        counts.append(sum(len(machine.arcs(q)) + len(machine.phi_arcs(q)) for q in closure))
        frontier = {t.dst for q in closure for t in machine.arcs(q).values()}
    return statistics.median(counts)


# -- engine workloads ------------------------------------------------------------


class EngineWorkload:
    """Library path: build, prepare, T rounds of hedge_step, summarize."""

    horizon: int
    num_experts: int
    shifts: int
    reference: oracle.ChainMachine

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self) -> list[str]:
        return []

    def build(self):
        """Returns (machine to play, learning rate)."""
        raise NotImplementedError

    def kshift_count(self) -> int:
        """Closed-form count N (N-1)^k C(T-1, k) of exact k-shift sequences."""
        n, k, t = self.num_experts, self.shifts, self.horizon
        return n * (n - 1) ** k * math.comb(t - 1, k)

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        rng = np.random.default_rng([self.seed, index])
        losses = _piecewise_losses(rng, self.horizon, self.num_experts,
                                   self.horizon // (self.shifts + 1))
        res.outputs["losses"] = losses

        gc.collect()
        res.attempted += 1
        t0 = perf_counter()
        try:
            machine, eta = self.build()
            state = hedge.hedge_init(machine, self.horizon, eta)
            ps = [state.p_current]
        except Exception as exc:
            res.fail("setup", exc)
            return res
        setup = perf_counter() - t0
        res.samples["setup_s"] = setup
        res.outputs["eta"] = eta

        gc.collect()
        rounds = res.rounds
        for t in range(self.horizon):
            res.attempted += 1
            a = perf_counter()
            try:
                p = hedge.hedge_step(state, losses[t])
            except Exception as exc:
                res.fail(f"round {t + 1}", exc)
                return res
            rounds.append(perf_counter() - a)
            res.reference.append(reference.timed())
            if p is not None:
                ps.append(p)
        res.samples["run_s"] = setup + sum(rounds)
        res.outputs["p"] = np.array(ps)
        res.extras["work_per_round"] = list(state.work_per_round)
        res.extras["phi_level_edges"] = _phi_level_edges(machine, self.horizon)

        gc.collect()
        res.attempted += 1
        a = perf_counter()
        try:
            report = hedge.summarize(state)
        except Exception as exc:
            res.fail("summarize", exc)
            return res
        res.samples["report_s"] = perf_counter() - a
        res.outputs["report"] = report
        return res

    def check(self, res: PassResult) -> list[str]:
        if "p" not in res.outputs:
            return []
        ref = oracle.distributions(self.reference, res.outputs["eta"], res.outputs["losses"])
        problems = _check_distributions(res.outputs["p"], ref, self.name)
        report = res.outputs.get("report")
        if report is not None and not report.weighted_regret <= report.weighted_bound:
            problems.append(f"{self.name}: weighted regret {report.weighted_regret} "
                            f"above its bound {report.weighted_bound}")
        return problems


class KshiftExact(EngineWorkload):
    name = "kshift_exact"
    num_experts, shifts, horizon = 10, 5, 200
    reference = oracle.kshift_machine(10, 5)

    def build(self):
        n, k, t = self.num_experts, self.shifts, self.horizon
        machine = builders.exact_shift_automaton(n, k)
        competitor = wfa.intersect(machine, builders.length_automaton(n, t))
        count = wfa.count_accepting_paths(competitor)
        return machine, hedge.tune_eta_fixed(t, count)

    def check(self, res: PassResult) -> list[str]:
        problems = super().check(res)
        report = res.outputs.get("report")
        if report is not None and report.num_sequences != self.kshift_count():
            problems.append(f"kshift_exact: K = {report.num_sequences}, "
                            f"closed form {self.kshift_count()}")
        return problems


class FixedSharePhi(EngineWorkload):
    name = "fixed_share_phi"
    num_experts, shifts, horizon = 30, 3, 300
    reference = oracle.fixed_share_machine(30, 3, 300)

    def build(self):
        n, k, t = self.num_experts, self.shifts, self.horizon
        machine = ngram.bigram_phi_machine(ngram.fixed_share_bigram(n, k, t))
        return machine, hedge.tune_eta_fixed(t, self.kshift_count())


# -- CLI pipeline ----------------------------------------------------------------


class CliPipeline:
    """wfa_hedge.cli.main in process: build, two fits, an awake run and an
    exact run above the 100k-path enumeration cap."""

    name = "cli_pipeline"
    AWAKE = {"num_experts": 10, "shifts": 5, "horizon": 200, "density": 0.7}
    EXACT = {"num_experts": 4, "shifts": 3, "horizon": 30}   # K = 394,632

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first_model_select = None
        # Route the CLI's logging nowhere; a failure's cause is read from
        # the "error: ..." line it prints to stderr.
        root = logging.getLogger()
        if not root.handlers:
            root.addHandler(logging.NullHandler())

    @staticmethod
    def _cli(args: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in args])
        lines = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
        return code, (lines[-1] if lines else f"exit code {code}")

    def prepare(self) -> list[str]:
        """Reproducibility smoke: every committed config, run twice, must
        exit 0 with byte-identical reports.  Checked, not timed."""
        problems = []
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        if not configs:
            problems.append("no configs/*.json to replay")
        for path in configs:
            outs = [self.workdir / f"smoke-{path.stem}-{i}.json" for i in (0, 1)]
            codes = [self._cli(["run", "--config", path, "--out", out])[0] for out in outs]
            if codes != [0, 0]:
                problems.append(f"configs/{path.name}: exit codes {codes}")
            elif outs[0].read_bytes() != outs[1].read_bytes():
                problems.append(f"configs/{path.name}: reports differ between replays")
        return problems

    def _write_config(self, name: str, cfg: dict) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(cfg))
        return path

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        rng = np.random.default_rng([self.seed, index])
        s_loss, s_awake, s_play, s_exact = (int(x) for x in rng.integers(2**31, size=4))
        a, e, d = self.AWAKE, self.EXACT, self.workdir
        awake_cfg = self._write_config("awake.json", {
            "automaton": {"builder": "kshift",
                          "params": {"num_experts": a["num_experts"], "shifts": a["shifts"]}},
            "horizon": a["horizon"], "eta": "fixed", "algorithm": "awake-hedge",
            "awake": {"generator": "random_subsets", "params": {"density": a["density"]},
                      "seed": s_awake},
            "losses": {"generator": "piecewise_stationary",
                       "params": {"segment_length": a["horizon"] // (a["shifts"] + 1)},
                       "seed": s_loss},
            "seed": s_play})
        exact_cfg = self._write_config("exact.json", {
            "automaton": {"builder": "kshift",
                          "params": {"num_experts": e["num_experts"], "shifts": e["shifts"]}},
            "horizon": e["horizon"], "eta": "fixed",
            "losses": {"generator": "piecewise_stationary", "seed": s_exact},
            "seed": s_play})
        fsa, syms = d / "base.fsa", d / "base.syms"
        fit = ["--automaton", fsa, "--symbols", syms, "--horizon", e["horizon"]]
        steps = [
            ("build", ["build", "--builder", "kshift", "--param", f"num_experts={e['num_experts']}",
                       "--param", f"shifts={e['shifts']}", "--out", d / "base"]),
            ("ml_ngram", ["approximate", *fit, "--kind", "ml-ngram", "--order", 2,
                          "--out", d / "ml.json"]),
            ("model_select", ["approximate", *fit, "--kind", "model-select", "--iters", 50,
                              "--budget", 4096, "--out", d / "ms.json"]),
            ("awake_run", ["run", "--config", awake_cfg, "--out", d / "awake-report.json"]),
            ("exact_run", ["run", "--config", exact_cfg, "--out", d / "exact-report.json"]),
        ]
        res.outputs.update(s_loss=s_loss, s_exact=s_exact, ok=set(), codes={})

        # The awake run's set-up and rounds are read off the harness's
        # calls into the sleeping engine: set-up lasts from the command's
        # start to its first round.  The reference kernel runs after each
        # round and its time is taken out of the command's.
        rounds: list[tuple[float, float, float]] = []
        original_step = harness.awake_step

        def timed_step(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original_step(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rounds.append((t0, dt, reference.timed()))

        times = {}
        for op, args in steps:
            gc.collect()
            res.attempted += 1
            harness.awake_step = timed_step
            t0 = perf_counter()
            try:
                code, cause = self._cli(args)
            finally:
                harness.awake_step = original_step
            times[op] = (t0, perf_counter() - t0)
            res.outputs["codes"][op] = code
            if code != 0:
                res.fail(op, cause)
            else:
                res.outputs["ok"].add(op)

        ok = res.outputs["ok"]
        if {"ml_ngram", "model_select"} <= ok:
            res.samples["fit_s"] = times["ml_ngram"][1] + times["model_select"][1]
        if "awake_run" in ok:
            start, run = times["awake_run"]
            awake = [r for r in rounds if r[0] >= start]
            res.rounds = [dt for _, dt, _ in awake]
            res.reference = [ref for _, _, ref in awake]
            res.samples["run_s"] = run - sum(res.reference)
            res.samples["setup_s"] = awake[0][0] - start
            report = json.loads((d / "awake-report.json").read_text())
            res.outputs["awake_report"] = report
            res.extras["work_per_round"] = report["work_per_round"]
        if "exact_run" in ok:
            res.outputs["exact_report"] = json.loads((d / "exact-report.json").read_text())
        for name in ("base.fsa", "ml.json", "ms.json"):
            if (d / name).exists():
                res.outputs[name] = (d / name).read_text()
        return res

    def check(self, res: PassResult) -> list[str]:
        ok, e, a = res.outputs["ok"], self.EXACT, self.AWAKE
        # Exit code 2 means a run finished but a bound verdict failed: a
        # failed op and a wrong output at once.
        problems = [f"{op}: a bound verdict failed" for op, code in res.outputs["codes"].items()
                    if code == cli.EXIT_VERDICT]
        if "build" in ok:
            n, k = e["num_experts"], e["shifts"]
            lines = [ln.split() for ln in res.outputs["base.fsa"].splitlines() if ln.strip()]
            arcs = sum(1 for ln in lines if len(ln) >= 3)
            if arcs != n + (k + 1) * n + k * n * (n - 1):
                problems.append(f"build: {arcs} transitions written")
        if "ml_ngram" in ok:
            # The ML bigram of the k-shift class is the Fixed-Share closed form.
            model = json.loads(res.outputs["ml.json"])
            ref = oracle.fixed_share_machine(e["num_experts"], e["shifts"], e["horizon"])
            symbols = model["alphabet"]
            rows = {"": ref.start, **{s: ref.step[i] for i, s in enumerate(symbols)}}
            worst = max(abs(model["tables"][ctx][s] - row[j])
                        for ctx, row in rows.items() for j, s in enumerate(symbols))
            if worst > P_TOL:
                problems.append(f"ml_ngram: bigram differs from Fixed-Share by {worst:.3g}")
        if "model_select" in ok:
            text = res.outputs["ms.json"]
            model = json.loads(text)
            for ctx, row in model["tables"].items():
                vals = list(row.values())
                if min(vals) < 0 or abs(sum(vals) - 1.0) > P_TOL:
                    problems.append(f"model_select: row {ctx!r} is not a distribution")
                    break
            if self.first_model_select is None:
                self.first_model_select = text
            elif text != self.first_model_select:
                problems.append("model_select: output changed between passes")
        if "awake_run" in ok:
            report = res.outputs["awake_report"]
            if report["verdicts"].get("sleeping_bound_ok") is not True:
                problems.append("awake_run: sleeping_bound_ok is not true")
            n, horizon = a["num_experts"], a["horizon"]
            masks = [np.array([c == "1" for c in s]) for s in report["awake_sets"]]
            losses = harness.gen_losses("piecewise_stationary",
                                        {"segment_length": horizon // (a["shifts"] + 1)},
                                        res.outputs["s_loss"], horizon, n)
            ref = oracle.distributions(oracle.kshift_machine(n, a["shifts"]), report["eta"],
                                       losses * np.array(masks), awake=masks)
            problems += _check_distributions(np.array(report["p_awake_rounds"]), ref,
                                             "awake_run")
        if "exact_run" in ok:
            report = res.outputs["exact_report"]
            if not all(report["verdicts"].values()):
                problems.append(f"exact_run: verdicts {report['verdicts']}")
            n, horizon = e["num_experts"], e["horizon"]
            losses = harness.gen_losses("piecewise_stationary", {}, res.outputs["s_exact"],
                                        horizon, n)
            ref = oracle.distributions(oracle.kshift_machine(n, e["shifts"]), report["eta"],
                                       losses)
            problems += _check_distributions(np.array(report["p_rounds"]), ref, "exact_run")
        return problems


WORKLOADS = {w.name: w for w in (KshiftExact, FixedSharePhi, CliPipeline)}
