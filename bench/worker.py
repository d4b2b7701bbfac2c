"""One pipeline iteration in a fresh process: the benchmark's closed-loop client.

Imports ``tsgroups`` from the checkout's ``src``, loads the config (the
end of set-up), then runs ``ingest``, ``train`` and ``infer`` through
``tsgroups.cli.main`` one after another, exactly as a user runs them.
With TRACE the calls into each layer are recorded as spans.

After the three verbs, the verbs in REPEATED are called again, taking
turns (``infer``, ``ingest``, ``infer``, ...), each call after the
previous one returns, until each verb's calls add up to REPEAT_S seconds
or MAX_CALLS calls. A sub-second verb's wall time swings by half from one
call to the next on a shared host, with the host's speed phases; the mean
over calls spread across a few seconds is steadier. Every call of a verb
writes the same content, so ``infer`` scores the same data whichever
``ingest`` call wrote it. REPEAT_S 0 calls every verb once, as traced runs
must.

Usage: python3 bench/worker.py SRC CONFIG RESULT REPEAT_S [TRACE]

Writes RESULT (JSON): the monotonic time set-up ended, each verb's exit
code and the wall time of each of its calls, peak RSS, the content digest
of every artifact and the environment record; TRACE, when given, receives
the span list.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

VERBS = ("ingest", "train", "infer")
REPEATED = ("infer", "ingest")
MAX_CALLS = 15


def main(src: str, config_path: str, result_path: str, repeat_s: float, trace_path: str | None) -> None:
    sys.path.insert(0, src)
    import numpy as np
    import scipy

    import tsgroups
    from tsgroups import cli, pipeline, storage

    if Path(tsgroups.__file__).resolve().parent != (Path(src) / "tsgroups").resolve():
        raise SystemExit(f"imported tsgroups from {tsgroups.__file__}, not from {src}")
    config = pipeline.load_config(config_path)

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    verbs: dict[str, dict] = {}

    def call(verb: str) -> bool:
        start = time.perf_counter()
        with tracer.span(f"verb.{verb}") if tracer else nullcontext():
            code = cli.main([verb, "--config", config_path])
        entry = verbs.setdefault(verb, {"code": 0, "s": []})
        entry["code"] = code
        entry["s"].append(time.perf_counter() - start)
        return code == 0

    ok = all(call(verb) for verb in VERBS)
    while ok:
        more = [v for v in REPEATED if sum(verbs[v]["s"]) < repeat_s and len(verbs[v]["s"]) < MAX_CALLS]
        if not more:
            break
        ok = all(call(verb) for verb in more)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    out = Path(config.out_dir)
    artifacts = sorted(p for p in out.iterdir() if p.is_file() and p.name != ".lock")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "ready": ready,
        "verbs": verbs,
        "peak_rss_mb": peak_rss_mb,
        "digests": {p.name: storage.content_digest(p) for p in artifacts},
        "bytes_written": sum(p.stat().st_size for p in artifacts),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        result["missing_targets"] = tracer.missing
        Path(trace_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) not in (5, 6):
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] if len(sys.argv) == 6 else None)
