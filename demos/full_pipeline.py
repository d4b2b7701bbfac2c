"""Drive the whole workflow through the command-line interface.

Writes a config for a small synthetic corpus into a scratch directory,
then runs the four verbs in order: ingest, train, infer, report. The
same verbs work against a real corpus by pointing dataset_root at a
directory of recorded sessions instead of using the synthetic block.
"""

import argparse
import json
import tempfile
from pathlib import Path

from tsgroups.cli import main as cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", metavar="DIR",
                        help="run inside DIR instead of a temp directory")
    args = parser.parse_args()

    workdir = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="tsgroups_"))
    workdir.mkdir(parents=True, exist_ok=True)
    run_dir = workdir / "run"
    config = {
        "paths": {"out_dir": str(run_dir)},
        "ingest": {"seed": 7, "synthetic": {"windows_per_class": 15, "t": 24, "d": 3, "seed": 7}},
        "autoencoder": {"hidden1": 8, "hidden2": 4, "epochs": 8, "seed": 7},
        "cgf": {"tau": 0.05},
        "classifier": {"kind": "SOFTMAX_STATS", "epochs": 200, "seed": 7},
        "mapping": {"method": "AVG"},
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    print(f"config written to {config_path}\n")

    for verb in ("ingest", "train", "infer"):
        print(f"$ tsgroups {verb} --config {config_path.name}")
        code = cli([verb, "--config", str(config_path)])
        assert code == 0, f"{verb} exited with {code}"
        print()

    print(f"$ tsgroups report --out {run_dir.name}")
    assert cli(["report", "--out", str(run_dir)]) == 0

    metrics = json.loads((run_dir / "metrics.json").read_text())
    print(f"\ntest accuracy {metrics['accuracy']:.3f},"
          f" macro F1 {metrics['f1_macro']:.3f}")
    print(f"artifacts in {run_dir}:")
    for path in sorted(run_dir.iterdir()):
        print(f"  {path.name}")


if __name__ == "__main__":
    main()
