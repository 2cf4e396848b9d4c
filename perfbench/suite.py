"""Runs every workload untraced and traced, and writes one trajectory point.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--out PATH]

Prints each workload's end-to-end metrics by name with their unit, its
fail_frac, and the traced run's per-layer metrics, then writes all of it
with the environment to PATH (default ``.perfbench-run/suite.json``).
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, RUN_DIR
from workloads import WORKLOADS


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}:\n{proc.stderr}")
    details = RUN_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(details.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--out", type=Path, default=RUN_DIR / "suite.json")
    args = parser.parse_args()

    point = {"seed": args.seed, "seconds": args.seconds, "environment": None, "workloads": {}}
    for name in WORKLOADS:
        untraced = _run(name, args.seed, args.seconds, 0)
        traced = _run(name, args.seed, args.seconds, 1)
        environment = dict(untraced["environment"])
        for key in ("workload", "trace"):
            environment.pop(key)
        point["environment"] = point["environment"] or environment
        entry = {
            "cmd_s.p50": {"value": untraced["cmd_s_p50"], "unit": "s"},
            "end_to_end": untraced["metrics"],
            "fail_frac": {"value": untraced["fail_frac"], "unit": "ratio"},
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "samples": untraced["samples"],
            "tail_percentile": untraced["tail_percentile"],
            "per_layer": traced["metrics"],
        }
        point["workloads"][name] = entry
        print(f"== {name}  ({entry['samples']} timed calls, tail = p{entry['tail_percentile']})")
        shown = {"cmd_s.p50": entry["cmd_s.p50"], **entry["end_to_end"], "fail_frac": entry["fail_frac"]}
        for metric, value in shown.items():
            print(f"  {metric:<34} {value['value']:<14.6g} {value['unit']}")
        print("  per layer (traced run):")
        for metric, value in entry["per_layer"].items():
            print(f"    {metric:<32} {value['value']:<14.6g} {value['unit']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=2) + "\n")
    print(f"wrote {args.out}")
    failed = sum(entry["failed"] for entry in point["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
