"""One benchmark process: runs a workload's CLI invocations in-process.

    python3 worker.py SPEC.json RESULT.json

The spec names the mode, the qproc command, the pool's config files and
the output path.  Modes:

- ``setup``: import ``qproc.cli``, run the first config once and record
  the wall time since the parent launched this interpreter;
- ``measure``: one warm-up call, then calls cycling through the pool until
  ``seconds`` have elapsed (at least one whole pass), then one re-run of
  the first config;
- ``trace``: as ``measure``, with the per-layer tracer installed.

Each invocation is a closed-loop call of ``qproc.cli.main(argv)`` with
``--output`` set; outputs are read back outside the timed call.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import qproc.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(qproc.cli.__file__).resolve().parents:
        raise SystemExit(f"qproc was imported from {qproc.cli.__file__}, not from {src}")

    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        import qproc.protocols

        tracer = Tracer()
        tracer.install()
        p_floor = qproc.protocols.DEFAULT_P_FLOOR
    run = qproc.cli.main
    output = Path(spec["output"])
    configs = spec["configs"]
    texts: dict[int, str] = {}
    layers: list[dict] = []

    def invoke(item: int) -> dict:
        argv = [spec["command"], configs[item], "--output", str(output)]
        output.unlink(missing_ok=True)
        code, error = None, None
        start = time.perf_counter()
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded as a failed invocation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        text = output.read_text() if output.exists() else None
        if tracer is not None:
            layers.append(tracer.finish_invocation(elapsed, len(text or ""), p_floor))
        same = texts.setdefault(item, text) == text
        return {"item": item, "s": elapsed, "code": code, "error": error, "same": same}

    if spec["mode"] == "setup":
        record = invoke(0)
        record["setup_s"] = time.time() - spec["launched"]
        result = {"records": [record], "texts": texts}
    else:
        warmup = invoke(0)
        records = []
        start = time.perf_counter()
        # at least one whole pass, so the per-layer counts cover every input
        while len(records) < len(configs) or time.perf_counter() - start < spec["seconds"]:
            records.append(invoke(len(records) % len(configs)))
        rerun = invoke(0)
        result = {
            "warmup": warmup,
            "records": records,
            "rerun": rerun,
            "texts": texts,
            "layers": layers[1:-1],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            tracer.save(spec["spans"])
    result["environment"] = _environment()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
