"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs each workload's first input through the real CLI, checks that the
workload's checker accepts the output, then feeds the checker corrupted
copies and requires each to count as a failure, so the checks cannot pass
trivially.  It also checks that BENCHMARK.json names exactly the metrics
the code reports.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import END_TO_END, ROOT, RUN_DIR, Run, tail_percentile
from tracing import PER_LAYER
from workloads import WORKLOADS, check_output, spreads


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def _real_output(workload, config) -> str:
    import qproc.cli

    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        config_path = Path(tmp) / "config.json"
        out = Path(tmp) / "out.json"
        config_path.write_text(json.dumps(config))
        code = qproc.cli.main([workload.command, str(config_path), "--output", str(out)])
        expect(code == 0, f"{workload.name}: exit code {code}")
        return out.read_text()


def _edit(text: str, change) -> str:
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload)


def _custom_corruptions(ref):
    def shift_along_plane(p):
        # a feasible point 1% off the minimizer, with its norm stated truthfully
        q = ref["q"]
        step = np.linalg.svd(q[None, :])[2][1] * 0.01 * np.linalg.norm(p["b_min"])
        b = np.asarray(p["b_min"]) + step
        p["b_min"] = b.tolist()
        p["norm"] = float(spreads(ref["gens"], b[None, :])[0])

    return {
        "norm off the spread at b_min": lambda p: p.update(norm=p["norm"] * (1 + 1e-6)),
        "b_min advancing 1.001 units": lambda p: p.update(b_min=[x * 1.001 for x in p["b_min"]]),
        "a worse feasible point": shift_along_plane,
    }


CORRUPTIONS = {
    "corner-verify": lambda ref: {
        "variance_bound off by 1e-9": lambda p: p.update(variance_bound=p["variance_bound"] * (1 + 1e-9)),
        "a false check": lambda p: p["checks"].update(kissing=False),
        "a missing check": lambda p: p["checks"].pop("bound_attained"),
        "kissing residual 1e-6": lambda p: p.update(kissing_residual=1e-6),
    },
    "mc-simulate": lambda ref: {
        "ccrb_psd false": lambda p: p["report"].update(ccrb_psd=False),
        "ccrb_psd missing": lambda p: p["report"].update(ccrb_psd=None),
        "impossible_alarm true": lambda p: p["report"].update(impossible_alarm=True),
        "another seed": lambda p: p.update(seed=p["seed"] + 1),
    },
    "custom-bound": _custom_corruptions,
}


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END, "end-to-end metrics")
    expect(
        {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        == {name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()},
        "per-layer metrics",
    )


def check_workload(name: str) -> int:
    workload = WORKLOADS[name]
    pool = workload.pool(7)
    expect(pool == workload.pool(7), f"{name}: the pool is not a function of the seed")
    expect(pool != workload.pool(8), f"{name}: two seeds gave the same pool")
    config = pool[0]
    ref = workload.reference(config)
    text = _real_output(workload, config)
    verdict = check_output(workload, config, ref, 0, text)
    expect(verdict is None, f"{name}: the real output was rejected: {verdict}")
    cases = {
        "exit code 1": (1, text),
        "no output": (0, None),
        "truncated output": (0, text[: len(text) // 2]),
    }
    for label, change in CORRUPTIONS[name](ref).items():
        cases[label] = (0, _edit(text, change))
    for label, (code, corrupted) in cases.items():
        verdict = check_output(workload, config, ref, code, corrupted)
        expect(verdict is not None, f"{name}: the checker accepted {label}")
    return len(cases)


def check_harness() -> None:
    times = [float(i) for i in range(100)]
    expect(tail_percentile(times) == (90, 89.0), "tail of 100 samples")
    expect(tail_percentile(times[:20]) == (50, 9.0), "tail of 20 samples")
    expect(tail_percentile(times[:15]) == (50, 7.0), "tail of 15 samples")
    run = Run("corner-verify", 1, 1.0, False)
    record = {"item": 0, "code": 0, "error": None, "same": False}
    run._judge(record, None)
    expect(run.failures, "an output that differs between runs of one input was accepted")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    check_benchmark_json()
    check_harness()
    for name in WORKLOADS:
        count = check_workload(name)
        print(f"{name}: real output accepted, {count} corrupted outputs rejected")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
