"""Self-test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names exactly the workloads and metrics
the benchmark defines, that every run reports each of its metrics with the
declared unit, and that every output check passes.  Exits non-zero on the
first mismatch.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    require(manifest["command"] == ["python3", "perfbench/run.py"], "command")
    require(manifest["paths"] == ["perfbench"], "paths")
    require([w["name"] for w in manifest["workloads"]] == list(workloads.DECLARED),
            "workload names")
    for w in manifest["workloads"]:
        require(w["why"] == workloads.FULL[w["name"]].why, f"why of {w['name']}")
    require([(m["name"], m["unit"], m["better"], m["bound"])
             for m in manifest["end_to_end"]] == list(run.END_TO_END),
            "end_to_end metrics differ from run.END_TO_END")
    require([(m["name"], m["unit"], m["better"])
             for m in manifest["per_layer"]] == list(run.PER_LAYER),
            "per_layer metrics differ from run.PER_LAYER")


def check_run(workload: str, trace: int) -> None:
    result, lines = run.run(["--workload", workload, "--seed", "7", "--seconds", "0",
                             "--trace", str(trace), "--size", "tiny"])
    label = f"{workload} trace={trace}"
    require(result["correct"] and result["failed"] == 0, (label, lines))
    require(result["attempted"] >= 1, label)
    specs = run.PER_LAYER if trace else [(n, u, b) for n, u, b, _ in run.END_TO_END]
    require(list(result["metrics"]) == [n for n, _, _ in specs], label)
    for name, unit, better in specs:
        metric = result["metrics"][name]
        require(metric["unit"] == unit, (label, name))
        require(math.isfinite(metric["value"]), (label, name))
        require(any(line.startswith(name) and f"({better} is better)" in line
                    for line in lines), (label, name))
    print(f"ok  {label}: {result['attempted']} checks")


def main() -> int:
    run._import_program()
    check_manifest()
    for workload in workloads.TINY:
        for trace in (0, 1):
            check_run(workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
