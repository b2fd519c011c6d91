"""Regenerate ``reference.json``: the output digest of every op key.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each op of the named workloads' universes (all three by default)
three times on the g2chow in ``src``, refuses to record an op whose
independent checks fail, and rewrites those workloads' digests and
baseline costs (the fastest of the three times, in ms).  The baseline
costs decide which ops each seed draws, so regenerating them changes the
benchmark's inputs: only do it in a change that redefines the benchmark.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(names: list[str]) -> int:
    table = {"digests": {}, "baseline_ms": {}}
    if workloads.REFERENCE_PATH.exists():
        table = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    for workload in names or workloads.WORKLOADS:
        digests, costs = {}, {}
        for op in workloads.UNIVERSE[workload]():
            payload = workloads.payload_for(workload, op)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                result = workloads.RUN[workload](op, payload)
                times.append(time.perf_counter() - start)
            problem = workloads.gate(workload, op, payload, result)
            if problem:
                print(f"error: {workload} {op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = workloads.digest(workload, result)
            costs[op.key] = round(min(times) * 1000, 1)
            print(f"{workload} {op.key} {costs[op.key]}", file=sys.stderr)
        table["digests"][workload] = dict(sorted(digests.items()))
        table["baseline_ms"][workload] = dict(sorted(costs.items()))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
