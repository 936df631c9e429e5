"""Command-line front end.

Subcommands: build, approximate, phi-convert, divergence, run, compare.
Exit codes: 0 success, 1 error, 2 a bound verdict failed (so CI can trip
on a broken guarantee).  WFA_HEDGE_LOG controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import approx as approxmod
from . import ngram as ngrammod
from .harness import (ExperimentConfig, build_automaton, compare, fit_approximation,
                      gen_losses, report_to_json, run_experiment, write_losses_csv)
from .hedge import horizon_product
from .phi import PhiWfa, phi_convert
from .textio import read_automaton, write_automaton, write_symbols

log = logging.getLogger("wfa_hedge")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2


def _parse_param(text: str):
    key, _, raw = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _machine_from_args(args) -> "object":
    if args.automaton:
        if not args.symbols:
            raise ValueError("--automaton needs --symbols, the symbol table file")
        return read_automaton(args.automaton, args.symbols)
    if not args.builder:
        raise ValueError("give --automaton and --symbols, or --builder")
    spec = {"builder": args.builder, "params": dict(args.param or [])}
    return build_automaton(spec)


def _fit_input(args) -> "object":
    """The machine a fit reads: a plain one, refused before any product
    is built when its file has phi edges."""
    machine = _machine_from_args(args)
    if isinstance(machine, PhiWfa):
        raise ValueError(f"{args.automaton} has failure (phi) transitions; "
                         "the fits read plain machines")
    return machine


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_build(args) -> int:
    machine = _machine_from_args(args)
    write_automaton(machine, args.out + ".fsa")
    write_symbols(machine.alphabet, args.out + ".syms")
    log.info("wrote %s.fsa and %s.syms", args.out, args.out)
    return EXIT_OK


def cmd_phi_convert(args) -> int:
    machine = read_automaton(args.automaton, args.symbols)
    converted = phi_convert(machine)
    write_automaton(converted, args.out + ".fsa")
    write_symbols(converted.alphabet, args.out + ".syms")
    saved = -sum(e.transition_delta for e in converted.conversion_events)
    log.info("conversion removed %d transitions", saved)
    return EXIT_OK


def cmd_approximate(args) -> int:
    spec = {"kind": args.kind, "order": args.order, "iters": args.iters,
            "budget": args.budget}
    competitor_t = horizon_product(_fit_input(args), args.horizon)
    model, _ = fit_approximation(competitor_t, spec, args.horizon)
    _write_output(model.to_json(), args.out)
    return EXIT_OK


def cmd_divergence(args) -> int:
    machine = _fit_input(args)
    with open(args.model) as fh:
        model = ngrammod.NGramModel.from_json(fh.read())
    div = approxmod.divergence_inf(horizon_product(machine, args.horizon), model)
    payload = {"divergence": div.value, "witness": list(div.witness)}
    _write_output(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return EXIT_OK


def cmd_gen_losses(args) -> int:
    params = dict(args.param or [])
    losses = gen_losses(args.kind, params, args.seed, args.horizon, args.experts)
    write_losses_csv(losses, args.out)
    return EXIT_OK


def _verdicts_ok(report: dict) -> bool:
    return all(report.get("verdicts", {}).values())


def _report_csv(report: dict) -> str:
    lines = ["round,expected_loss,touched_edges"]
    for t, (e, c) in enumerate(zip(report["expected_losses"],
                                   report["touched_edges_per_round"]), start=1):
        lines.append(f"{t},{format(e, '.17g')},{c}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    report = run_experiment(cfg)
    if args.force_verdict_failure:
        # Fault-injection hook for CI: corrupt one verdict on purpose.
        report["verdicts"] = dict(report["verdicts"])
        report["verdicts"]["injected_failure"] = False
    text = _report_csv(report) if args.format == "csv" else report_to_json(report)
    _write_output(text, args.out)
    if not _verdicts_ok(report):
        log.warning("a bound verdict failed")
        return EXIT_VERDICT
    return EXIT_OK


def cmd_compare(args) -> int:
    cfgs = [ExperimentConfig.load(p) for p in args.config]
    result = compare(cfgs)
    if args.format == "csv":
        cols = ["label", "algorithm", "phi", "approximation", "cumulative_loss",
                "weighted_regret", "unweighted_regret", "max_touched_edges",
                "total_work"]
        lines = [",".join(cols)]
        for row in result["rows"]:
            lines.append(",".join(str(row[c]) for c in cols))
        text = "\n".join(lines)
    else:
        text = json.dumps(result["rows"], sort_keys=True, indent=2)
    _write_output(text, args.out)
    ok = all(all(r["verdicts"].values()) for r in result["rows"])
    return EXIT_OK if ok else EXIT_VERDICT


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfa-hedge",
        description="Online learning against automaton-encoded expert sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p):
        p.add_argument("--automaton", help="automaton text file")
        p.add_argument("--symbols", help="symbol table file")
        p.add_argument("--builder", help="builder name (kshift, weighted-shift, ...)")
        p.add_argument("--param", action="append", type=_parse_param,
                       metavar="KEY=VALUE", help="builder parameter")

    p = sub.add_parser("build", help="write an automaton to text files")
    add_machine_args(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("phi-convert", help="compress with failure transitions")
    p.add_argument("--automaton", required=True)
    p.add_argument("--symbols", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_phi_convert)

    p = sub.add_parser("approximate", help="fit an n-gram model")
    add_machine_args(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--kind", default="ml-ngram",
                   choices=["ml-ngram", "prod-eg", "model-select"])
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--budget", type=int, default=1 << 16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("divergence", help="worst-case log ratio machine vs model")
    add_machine_args(p)
    p.add_argument("--model", required=True, help="n-gram model JSON")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("gen-losses", help="write a synthetic loss stream")
    p.add_argument("--kind", required=True)
    p.add_argument("--param", action="append", type=_parse_param, metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--experts", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_losses)

    p = sub.add_parser("run", help="run one experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--force-verdict-failure", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several configs on one loss stream")
    p.add_argument("--config", nargs="+", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("WFA_HEDGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse handles its own errors
        log.error("%s", exc)
        if os.environ.get("WFA_HEDGE_LOG", "").upper() == "DEBUG":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
