"""Layered CLI benchmark for qproc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qproc checkout; qproc is imported from its ``src/``.
Every workload runs in fresh worker processes with BLAS pinned to one
thread.  Each worker drives ``qproc.cli.main(argv)`` in a closed loop with
one client, writing ``--output`` to a scratch file under
``.perfbench-run/``, and every output is checked against a reference
computed before timing starts.

``--trace 0`` reports the end-to-end metrics: three fresh interpreters give
``setup_s``, then one worker measures for ``--seconds``.  ``--trace 1``
splits ``--seconds`` between an untraced and a traced worker and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it and ``.perfbench-run/results/`` hold the
environment and the details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"

# One BLAS thread was the steadiest setting measured on two cores: with
# two, the first dim-64 call took 1.2 s against 0.15 s once steady.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# The median invocation time, cmd_s.p50, is reported but not bounded: on
# a shared two-core host whose speed drifted by up to 1.8x over minutes,
# its run-to-run spread reached 28% (IQR/median over 20 runs of
# mc-simulate), beyond any usable regression bound, while the tail
# percentile's spread stayed at 7-15% over 10 runs per workload.
END_TO_END = {
    "cmd_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least ten samples
    beyond it, and its value; the median when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def _commit(root: Path) -> str | None:
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload_name: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.scratch = RUN_DIR / f"tmp-{os.getpid()}"
        self.spans_path = RUN_DIR / "spans" / f"{workload_name}-seed{seed}.json"
        self.configs = self.workload.pool(seed)
        self.references = [self.workload.reference(c) for c in self.configs]
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        self._verdicts: dict = {}

    # -- workers --------------------------------------------------------------

    def _worker(self, mode: str, tag: str, seconds: float = 0.0) -> dict:
        spec_path = self.scratch / f"{tag}-spec.json"
        result_path = self.scratch / f"{tag}-result.json"
        spec = {
            "mode": mode,
            "command": self.workload.command,
            "configs": self.config_paths,
            "output": str(self.scratch / f"{tag}-out.json"),
            "src": str(ROOT / "src"),
            "seconds": seconds,
            "spans": str(self.spans_path),
        }
        spec["launched"] = time.time()
        spec_path.write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                env=self.env,
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())

    # -- checking -------------------------------------------------------------

    def _judge(self, record: dict, text: str | None) -> None:
        """Count one invocation and record why it failed, if it did."""
        self.attempted += 1
        if record["error"] is not None:
            reason = record["error"]
        elif not record["same"]:
            reason = "output differs from an earlier output of the same input"
        else:
            key = (record["item"], record["code"], text)
            if key not in self._verdicts:
                item = record["item"]
                self._verdicts[key] = check_output(
                    self.workload, self.configs[item], self.references[item], record["code"], text
                )
            reason = self._verdicts[key]
        if reason is not None:
            self.failures.append(f"input {record['item']}: {reason}")

    def _judge_measure(self, result: dict) -> None:
        texts = {int(k): v for k, v in result["texts"].items()}
        for record in [result["warmup"], *result["records"], result["rerun"]]:
            self._judge(record, texts.get(record["item"]))
        self.first_output = texts.get(0)

    # -- the run --------------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        for sub in ("results", "spans"):
            (RUN_DIR / sub).mkdir(parents=True, exist_ok=True)
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            self.config_paths = []
            for i, config in enumerate(self.configs):
                path = self.scratch / f"input-{i}.json"
                path.write_text(json.dumps(config))
                self.config_paths.append(str(path))
            return self._traced() if self.trace else self._untraced()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def _untraced(self) -> tuple[dict, dict]:
        setups = [self._worker("setup", f"setup{i}") for i in range(SETUP_RUNS)]
        measured = self._worker("measure", "measure", self.seconds)
        self._judge_measure(measured)
        for result in setups:
            record = result["records"][0]
            # a fresh interpreter must write the same bytes as the warm worker
            record["same"] = result["texts"]["0"] == self.first_output
            self._judge(record, self.first_output)
        times = [r["s"] for r in measured["records"]]
        percentile, tail = tail_percentile(times)
        metrics = {
            "cmd_s.tail": tail,
            "peak_rss_mb": measured["maxrss_kb"] / 1024.0,
            "setup_s": statistics.median(r["records"][0]["setup_s"] for r in setups),
        }
        details = {
            "environment": measured["environment"],
            "cmd_s_p50": statistics.median(times),
            "samples": len(times),
            "tail_percentile": percentile,
            "setup_samples": [r["records"][0]["setup_s"] for r in setups],
            "cmd_s": times,
        }
        return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, details

    def _traced(self) -> tuple[dict, dict]:
        plain = self._worker("measure", "plain", self.seconds / 2)
        self._judge_measure(plain)
        traced = self._worker("trace", "traced", self.seconds / 2)
        self._judge_measure(traced)
        layers = traced["layers"]
        first_pass = layers[: len(self.configs)]
        metrics = {}
        for name, (_, _, kind) in PER_LAYER.items():
            if name in layers[0]:
                if kind == "count":
                    metrics[name] = statistics.fmean(m[name] for m in first_pass)
                else:
                    metrics[name] = statistics.median(m[name] for m in layers)
        built = sum(m["operators.outcomes_built"] for m in first_pass)
        useful = sum(m["operators.outcomes_useful"] for m in first_pass)
        metrics["operators.useful_outcome_ratio"] = useful / built if built else 0.0
        plain_p50 = statistics.median(r["s"] for r in plain["records"])
        traced_p50 = statistics.median(r["s"] for r in traced["records"])
        metrics["trace.overhead_s"] = traced_p50 - plain_p50
        details = {
            "environment": traced["environment"],
            "untraced_cmd_s_p50": plain_p50,
            "traced_cmd_s_p50": traced_p50,
            "traced_samples": len(traced["records"]),
            "spans_file": str(self.spans_path.relative_to(ROOT)),
        }
        return {name: (metrics[name], PER_LAYER[name][0]) for name in PER_LAYER}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qproc" / "cli.py").is_file():
        print(f"no qproc sources under {ROOT / 'src'}; run from a qproc checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics, details = run.execute()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    environment = {
        "commit": _commit(ROOT),
        "src_sha256": _src_digest(ROOT / "src"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **details.pop("environment"),
    }
    failed = len(run.failures)
    values = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    summary = {
        "environment": environment,
        "metrics": values,
        "attempted": run.attempted,
        "failed": failed,
        "fail_frac": failed / run.attempted,
        "failures": run.failures[:20],
        **details,
    }
    result_path = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(summary, indent=2) + "\n")

    print("environment " + json.dumps(environment, sort_keys=True))
    if "cmd_s_p50" in details:
        print(f"cmd_s.p50 {details['cmd_s_p50']:.6g} s (not bounded)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / run.attempted:.6g} ratio ({failed} of {run.attempted} invocations)")
    for reason in run.failures[:5]:
        print(f"failure {reason}")
    print(f"details {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
