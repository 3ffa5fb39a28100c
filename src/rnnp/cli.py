"""Command-line harness.

Subcommands: generate (synthetic pools), eval (benchmark methods across
corruption rates), sweep (one hyper-parameter axis), rectify (per-episode
label-repair table). All runs are deterministic given the config; rerunning
with the same arguments reproduces every output file byte for byte,
whatever --workers says.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .datagen import MixtureSpec, generate_mixture, write_embeddings
from .errors import InvalidInputError
from .harness import (
    BENCHMARK_SEPARATION,
    ExperimentConfig,
    default_config,
    run_experiment,
    run_rectification_analysis,
    run_sweep,
    save_rectification,
    save_reports,
    save_sweep,
)

HYBRID_CLI = {"same": "same_class", "different": "different_class", "noise": "gaussian_noise"}
LABELING_CLI = {"unlabeled": "unlabeled_cluster", "labeled": "labeled_direct"}
# Override flags, by the config field each one sets (its argparse dest):
# ExperimentConfig fields, then the fields of every rnnp method.
TOP_FIELDS = ("seed", "n_episodes", "corruption_rates", "workers")
RNNP_FIELDS = ("alpha", "beta", "iterations", "clustering_mode", "hybrid_source",
               "hybrid_labeling")
# The flag words that stand for a longer rnnp field value.
FIELD_WORDS = {"hybrid_source": HYBRID_CLI, "hybrid_labeling": LABELING_CLI}


def _add_common(parser):
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--seed", type=int, help="base seed override")
    parser.add_argument("--episodes", dest="n_episodes", type=int,
                        help="number of episodes override")
    parser.add_argument("--corruption", dest="corruption_rates",
                        help="comma-separated corruption rates, e.g. 0,0.2,0.4")
    parser.add_argument("--alpha", type=float, help="hybrid mixing weight override")
    parser.add_argument("--beta", type=int, help="hybrids per support override")
    parser.add_argument("--iterations", type=int, help="refinement rounds override")
    parser.add_argument("--mode", dest="clustering_mode", choices=("soft", "hard"),
                        help="clustering mode override")
    parser.add_argument("--hybrid", dest="hybrid_source", choices=sorted(HYBRID_CLI),
                        help="hybrid source override")
    parser.add_argument("--labeling", dest="hybrid_labeling", choices=sorted(LABELING_CLI),
                        help="hybrid labeling override")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--workers", type=int,
                        help="parallel workers (results do not depend on this)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnnp",
        description="prototype classification under corrupted support labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic embedding pool")
    gen.add_argument("--classes", type=int, default=20)
    gen.add_argument("--dim", type=int, default=64)
    gen.add_argument("--separation", type=float, default=BENCHMARK_SEPARATION)
    gen.add_argument("--samples", type=int, default=50, help="samples per class")
    gen.add_argument("--seed", type=int, default=11)
    gen.add_argument("--out", default=".", help="output directory (default: .)")
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("eval", help="benchmark all configured methods")
    _add_common(ev)
    ev.set_defaults(func=_cmd_eval)

    sw = sub.add_parser("sweep", help="sweep one hyper-parameter axis")
    _add_common(sw)
    sw.add_argument("--axis", required=True, choices=("alpha", "beta", "iterations"))
    sw.add_argument("--values", required=True,
                    help="comma-separated values, e.g. 0.5,0.6,0.7,0.8,0.9")
    sw.set_defaults(func=_cmd_sweep)

    rec = sub.add_parser("rectify", help="per-episode label-repair table")
    _add_common(rec)
    rec.set_defaults(func=_cmd_rectify)
    return parser


def _parse_rates(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad --corruption value {text!r}: {exc}") from exc


def _build_config(args, *, rnnp_only: bool) -> ExperimentConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # ValueError: bytes that are not UTF-8, malformed JSON or an
                # integer literal beyond Python's digit limit; RecursionError:
                # arrays or objects nested too deeply.
                raise InvalidInputError(f"{args.config}: not a JSON config: {exc}") from exc
        config = ExperimentConfig.from_dict(data)
    else:
        config = default_config()

    methods = config.methods
    if rnnp_only:
        methods = tuple(m for m in methods if m.method == "rnnp")
        if len(methods) != 1:
            raise InvalidInputError("this command needs exactly one rnnp method in the config")

    top = {f: v for f in TOP_FIELDS if (v := getattr(args, f)) is not None}
    if "corruption_rates" in top:
        top["corruption_rates"] = _parse_rates(top["corruption_rates"])
    overrides = {f: FIELD_WORDS.get(f, {}).get(v, v) for f in RNNP_FIELDS
                 if (v := getattr(args, f)) is not None}
    if overrides:
        if not any(m.method == "rnnp" for m in methods):
            raise InvalidInputError(f"flags {sorted(overrides)} need an rnnp method in the config")
        methods = tuple(replace(m, rnnp=replace(m.rnnp, **overrides)) if m.method == "rnnp"
                        else m for m in methods)
    return replace(config, methods=methods, **top)


def _cmd_generate(args) -> int:
    spec = MixtureSpec(num_classes=args.classes, dim=args.dim, separation=args.separation,
                       samples_per_class=args.samples, seed=args.seed)
    pool = generate_mixture(spec)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "embeddings.csv")
    write_embeddings(pool, path)
    print(f"wrote {pool.features.shape[0]} embeddings "
          f"({spec.num_classes} classes, dim {spec.dim}) to {path}")
    return 0


def _cmd_eval(args) -> int:
    config = _build_config(args, rnnp_only=False)
    reports = run_experiment(config)
    for r in reports:
        print(f"{r.method} @ {r.corruption_rate:.0%}: "
              f"{r.mean_accuracy:.4f} +/- {r.ci95:.4f} (n={r.n_episodes})")
    json_path, csv_path = save_reports(config, reports, args.out)
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args, rnnp_only=True)
    try:
        values = [float(part) for part in args.values.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"bad --values {args.values!r}: {exc}") from exc
    reports = run_sweep(config, args.axis, values)
    for r in reports:
        v = r.config["sweep"]["value"]
        print(f"{args.axis}={v}: {r.mean_accuracy:.4f} +/- {r.ci95:.4f}")
    path = save_sweep(args.axis, reports, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_rectify(args) -> int:
    config = _build_config(args, rnnp_only=True)
    result = run_rectification_analysis(config)
    print(f"mean correct labels: {result['mean_correct_before']:.3f} before, "
          f"{result['mean_correct_after']:.3f} after refinement "
          f"(of {config.k_shot * config.n_way} supports)")
    path = save_rectification(result, args.out)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
