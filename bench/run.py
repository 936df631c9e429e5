"""Benchmark for wfa-hedge: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload kshift_exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

A run repeats passes of one workload until ``--seconds`` have elapsed and
reports medians and percentiles over its passes and rounds.  With ``--trace 0`` every pass is
untraced and the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and the last line
carries the per-layer metrics of the traced passes plus the tracing
overhead.  Full results go to ``bench/out/<workload>-seed<n>-trace<t>.json``
and the spans of a traced run to ``...-spans.json``.  ``--workload all``
runs every workload in its own process, untraced then traced, and prints
one table.  See bench/README.md.
"""

import os

# One thread of numeric work per process: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("kshift_exact", "fixed_share_phi", "cli_pipeline")

# Gated end-to-end metrics (BENCHMARK.json), then the ones reported in the
# results file only: report_s and fit_s do not exist on every workload, and
# round_ms_p50 and run_s follow the host's speed from run to run by more
# than a bound can allow (see README.md, "Noise").
END_TO_END = {"setup_s": "s", "round_ms_p95": "ms", "round_rel_p50": "ratio",
              "peak_rss_mb": "MB"}
EXTRA = {"round_ms_p50": "ms", "run_s": "s", "report_s": "s", "fit_s": "s"}
TIMINGS = ("setup_s", "round_ms_p50", "round_ms_p95", "round_rel_p50", "run_s")
APPLIES = {
    "kshift_exact": TIMINGS + ("report_s",),
    "fixed_share_phi": TIMINGS + ("report_s",),
    "cli_pipeline": TIMINGS + ("fit_s",),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median_or_none(values):
    return statistics.median(values) if values else None


def run_one(args) -> int:
    if not (ROOT / "src" / "wfa_hedge").is_dir():
        print(f"no library to benchmark at {ROOT / 'src' / 'wfa_hedge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot load the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        problems = wl.prepare()
        tracer = tracing.Tracer() if args.trace else None
        passes, layers = [], []
        deadline = perf_counter() + args.seconds
        index = 0
        while (perf_counter() < deadline or index == 0
               or (tracer is not None and index < 2)):
            traced = tracer is not None and index % 2 == 1
            trace_id = f"{stem}-pass{index}"
            if traced:
                tracer.install(trace_id)
            try:
                res = wl.run_pass(index)
            finally:
                if traced:
                    tracer.uninstall()
            problems += wl.check(res)
            res.outputs.clear()
            passes.append((traced, res))
            if traced:
                layers.append(tracing.layer_metrics(tracing.SpanStats(tracer, trace_id),
                                                    res.extras))
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for traced, r in passes if not traced]
    metrics = {name: median_or_none([r.samples[name] for r in untraced if name in r.samples])
               for name in ("run_s", "report_s", "fit_s")}
    # The 90th percentile of the run's set-ups: the set-ups' median follows
    # the host's speed from run to run far more (see README.md, "Noise").
    setups = [r.samples["setup_s"] for r in untraced if "setup_s" in r.samples]
    metrics["setup_s"] = float(numpy.percentile(setups, 90)) if setups else None
    # Round latencies are pooled over the run's passes: a burst of load on
    # the host slows a stretch of consecutive rounds, and one pass's 200
    # rounds leave only ten beyond the p95.
    pooled = [dt * 1e3 for r in untraced for dt in r.rounds]
    for name, q in (("round_ms_p50", 50), ("round_ms_p95", 95)):
        metrics[name] = float(numpy.percentile(pooled, q)) if pooled else None
    # Each round over the reference kernel timed right after it, at the
    # same host speed (bench/reference.py).
    rel = [dt / ref for r in untraced for dt, ref in zip(r.rounds, r.reference)]
    metrics["round_rel_p50"] = statistics.median(rel) if rel else None
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(r.attempted for _, r in passes)
    failures = [f for _, r in passes for f in r.failures]
    per_layer = {}
    if tracer is not None:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        traced_run = median_or_none([r.samples["run_s"] for t, r in passes
                                     if t and "run_s" in r.samples])
        per_layer["trace.overhead_s"] = (traced_run - metrics["run_s"]
                                         if traced_run is not None and metrics["run_s"] is not None
                                         else 0.0)
        per_layer["trace.spans"] = len(tracer.spans) / len(layers)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "traced_passes": len(layers),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "correct": not problems, "problems": sorted(set(problems)),
        "attempted": attempted, "failed": len(failures),
        "failures": sorted({f"{op}: {cause}" for op, cause in failures}),
        "metrics": {k: {"value": metrics[k], "unit": {**END_TO_END, **EXTRA}[k]}
                    for k in APPLIES[args.workload] + ("peak_rss_mb",)},
        "per_layer": {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in per_layer.items()},
        "pass_samples": [{"traced": traced, **res.samples} for traced, res in passes],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2))
    if tracer is not None:
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps({
            "fields": ["name", "caller", "start", "end", "parent", "trace_id",
                       "error", "returned_none"],
            "spans": tracer.spans}))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(layers)} traced)  python {result['env']['python']}  "
          f"numpy {result['env']['numpy']}  nproc {result['env']['nproc']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<16} {m['value'] if m['value'] is not None else 'null':>14} {m['unit']}")
    print(f"  failed_ops       {len(failures)}/{attempted}")
    for line in result["failures"]:
        print(f"  failure: {line}")
    for line in result["problems"]:
        print(f"  CHECK FAILED: {line}")
    if tracer is not None:
        chosen = result["per_layer"]
    else:
        chosen = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": chosen}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            results[(name, trace)] = json.loads(path.read_text())
    for name in NAMES:
        plain, traced = results[(name, 0)], results[(name, 1)]
        print(f"== {name}  seed {args.seed}  correct {plain['correct'] and traced['correct']}  "
              f"failed_ops {plain['failed']}/{plain['attempted']}")
        for metric, m in plain["metrics"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:<34} {value:>12} {m['unit']}")
        for line in plain["failures"]:
            print(f"  failure: {line}")
        for line in plain["problems"] + traced["problems"]:
            print(f"  CHECK FAILED: {line}")
        for metric, m in traced["per_layer"].items():
            print(f"  {metric:<34} {m['value']:>12.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
