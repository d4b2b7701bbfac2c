"""Command-line front end for the grouped time-series workflow.

Verbs mirror the pipeline stages: ingest, train, infer, report.
Exit codes: 0 success, 2 configuration problems, 3 missing, truncated
or inconsistent files, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from . import pipeline
from .pipeline import ArtifactError, PipelineConfig, SyntheticSpec, load_config
from .types import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _load(args: argparse.Namespace) -> PipelineConfig:
    """The config file's record, or the defaults, with each given flag replacing its value.

    ``replace`` re-runs the section's checks, so a flag is checked like a file value.
    """
    config = PipelineConfig() if args.config is None else load_config(args.config)
    flag = vars(args).get
    seed = flag("seed")

    def edit(section, **changes):
        return replace(section, **{key: value for key, value in changes.items() if value is not None})

    return replace(
        config,
        paths=edit(config.paths, dataset_root=flag("dataset_root"), out_dir=flag("out")),
        ingest=edit(config.ingest, seed=seed,
                    synthetic=(config.ingest.synthetic or SyntheticSpec()) if flag("synthetic") else None),
        autoencoder=edit(config.autoencoder, seed=seed, epochs=flag("epochs")),
        cgf=edit(config.cgf, tau=flag("tau")),
        classifier=edit(config.classifier, seed=seed),
        mapping=edit(config.mapping, method=flag("mapping")),
    )


def _print(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsgroups",
        description="Group-aware classification of windowed inertial time series.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="run directory (overrides config)")
    common.add_argument("--seed", type=int, help="override every stage seed")

    p_ingest = sub.add_parser("ingest", parents=[common],
                              help="build train/test dataset archives")
    p_ingest.add_argument("--dataset-root", dest="dataset_root",
                          help="corpus root with one directory per session")
    p_ingest.add_argument("--synthetic", action="store_true",
                          help="generate the built-in synthetic corpus instead")

    p_train = sub.add_parser("train", parents=[common],
                             help="fit autoencoder, form groups, train models")
    p_train.add_argument("--epochs", type=int, help="autoencoder epoch override")
    p_train.add_argument("--tau", type=float, help="minimum new-group fraction")

    p_infer = sub.add_parser("infer", parents=[common],
                             help="group the test set, map groups, predict")
    p_infer.add_argument("--mapping", choices=["CR_CR", "AVG"],
                         help="mapping method override")
    p_infer.add_argument("--tau", type=float, help="minimum new-group fraction")

    p_report = sub.add_parser("report", help="export CSV tables for a finished run")
    p_report.add_argument("--out", required=True, help="run directory to summarize")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "ingest":
            _print(pipeline.cmd_ingest(_load(args)))
        elif args.command == "train":
            _print(pipeline.cmd_train(_load(args)))
        elif args.command == "infer":
            _print(pipeline.cmd_infer(_load(args)))
        elif args.command == "report":
            _print(pipeline.cmd_report(args.out))
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArtifactError, OSError, RuntimeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
