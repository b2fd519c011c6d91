"""g2chow benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; g2chow is imported from ``src`` there.
With ``--trace 0`` the client runs whole rounds of operations back to back
until the summed op latency reaches ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs one fixed, seed-determined
batch (the workload's prefix and first round) three times: untraced, with
spans around g2chow's public functions, and with Fraction calls counted;
it reports the per-layer metrics and writes the spans to
``perfbench/out/``.  Every op's output is digested and checked; the last
stdout line is the JSON result.

On a machine shared with other work the speed of the same code can swing
by 2x within seconds (seen on a 2-core Xeon VM).  So a fixed calibration
kernel (pure-Python Fraction arithmetic, g2chow's own instruction mix) runs
between ops, and each end-to-end time is rescaled by ``CALIBRATION_S`` over
the kernel's time around it: times are seconds on a machine where the
kernel takes ``CALIBRATION_S``.  The kernel is the benchmark's own code, so
a change to g2chow moves the rescaled times and the raw ones alike.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 4
CALIBRATION_S = 0.02
# workloads.WORKLOADS; that module imports g2chow, which set-up must time
WORKLOADS = ("catalog-certify", "fibre-docs", "torus-complex")

# per-layer metrics: (span name, calls reported, self time reported)
SPAN_METRICS = (
    ("cli.main", True, True),
    ("parshin_catalog.build_case", False, True),
    ("parshin_catalog.build_kulikov_complex", False, True),
    ("fibre_model.graph_from_json", False, True),
    ("fibre_model.validate", False, True),
    ("fibre_model.intersection_matrix", True, True),
    ("boundary_engine.solve_vertical", True, True),
    ("boundary_engine.certify", False, True),
    ("boundary_engine.closed_form_vertical", False, True),
    ("exactlin.solve_affine", True, False),
    ("exactlin.rref", False, True),
    ("exactlin.rank", False, True),
    ("exactlin.gram", False, True),
    ("exactlin.negative_semidefinite_rank", False, True),
    ("exactlin.kernel_basis", False, True),
    ("exactlin.RatMatrix.matmul", True, True),
    ("consani_complex.gamma_matrix", True, True),
    ("consani_complex.rho_matrix", True, True),
    ("consani_complex.check_identities", False, True),
    ("consani_complex.pch_rank", False, True),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (used by the benchmark itself)")
    return parser.parse_args(argv)


def _calibrate() -> float:
    """Time one fixed slice of Fraction arithmetic (about 20 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * (i % 5 - 2)
    return time.perf_counter() - start


def _setup(workload: str, seed: int):
    """Import g2chow from the checkout and generate the inputs; returns the
    rescaled set-up time, the inputs and the workloads module."""
    start = time.perf_counter()
    if not (SRC / "g2chow" / "__init__.py").is_file():
        raise SystemExit(f"error: no g2chow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import g2chow
    import workloads

    if Path(g2chow.__file__).resolve().parent != SRC / "g2chow":
        raise SystemExit(f"error: imported g2chow from {g2chow.__file__}, not from {SRC}")
    inputs = workloads.generate(workload, seed)
    elapsed = time.perf_counter() - start
    scale = CALIBRATION_S / statistics.median(_calibrate() for _ in range(3))
    return elapsed * scale, inputs, workloads


def _probe_setup(args) -> dict:
    """Set-up time of a fresh interpreter, checked to generate the same inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_op(wl, inputs, op, reference, failures):
    """Run one op; returns (latency, digest).  Failures are appended."""
    payload = inputs.payloads[op.key]
    start = time.perf_counter()
    try:
        result = wl.RUN[inputs.workload](op, payload)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        latency = time.perf_counter() - start
        failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
        return latency, None
    latency = time.perf_counter() - start
    digest, problem = wl.check(inputs.workload, op, payload, result, reference)
    if problem:
        failures.append(problem)
    return latency, digest


def _closed_loop(wl, inputs, reference, seconds):
    """Rescaled op latencies; stops at the first round end after the raw
    latencies sum to ``seconds``."""
    latencies, failures = [], []
    busy = 0.0
    before = _calibrate()
    for batch in inputs.ops():
        for op in batch:
            latency, _ = _run_op(wl, inputs, op, reference, failures)
            after = _calibrate()
            latencies.append(latency * 2 * CALIBRATION_S / (before + after))
            before = after
            busy += latency
        if busy >= seconds:
            break
    return latencies, failures


def _end_to_end(args, setup_s, inputs, wl, reference):
    latencies, failures = _closed_loop(wl, inputs, reference, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s]
    setup_ok = True
    for _ in range(SETUP_PROBES):
        probe = _probe_setup(args)
        setups.append(probe["setup_s"])
        if probe["inputs"] != inputs.digest():
            setup_ok = False
            print("FAILED a fresh process generated different inputs for the same seed", file=sys.stderr)
    metrics = {
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return len(latencies), failures, setup_ok, metrics


def _traced(args, inputs, wl, reference):
    import tracing

    batch = next(inputs.ops())
    failures: list[str] = []

    def run_pass(tracer, gate=True):
        busy, digests = 0.0, []
        for index, op in enumerate(batch):
            payload = inputs.payloads[op.key]
            tracer.op = index
            start = time.perf_counter()
            with tracer.span("perfbench.op"):
                try:
                    result = wl.RUN[inputs.workload](op, payload)
                except Exception as exc:  # recorded as a failed op
                    failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
                    result = None
            busy += time.perf_counter() - start
            if result is None:
                digests.append(None)
            elif gate:
                with tracer.span("perfbench.gate"):
                    digest, problem = wl.check(inputs.workload, op, payload, result, reference)
                if problem:
                    failures.append(problem)
                digests.append(digest)
            else:
                digests.append(wl.digest(inputs.workload, result))
        return busy, digests

    # the first pass installs no wrappers: only the two benchmark spans open
    plain_s, plain = run_pass(tracing.Tracer())
    spans = tracing.Tracer()
    with tracing.traced(spans):
        traced_s, traced = run_pass(spans)
    counter = tracing.Tracer(count_fractions=True)
    with tracing.traced(counter):
        _, counted = run_pass(counter, gate=False)
    for index, op in enumerate(batch):
        if not (plain[index] == traced[index] == counted[index]):
            failures.append(f"{op.key}: output differs with tracing on")
    tracing.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", spans.spans)

    calls, selfs = tracing.self_times(spans.spans)
    metrics = {}
    for name, with_calls, with_self in SPAN_METRICS:
        if with_calls:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        if with_self:
            metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    solves = calls.get("boundary_engine.solve_vertical", 0)
    graphs = len(spans.graphs)
    metrics["boundary_engine.distinct_graphs"] = (graphs, "count")
    metrics["boundary_engine.solves_per_graph"] = (solves / graphs if graphs else 0.0, "ratio")
    metrics["exactlin.cells_in"] = (spans.cells_in, "count")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.fraction_calls"] = (counter.fraction_calls.get(layer, 0), "count")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.ops"] = (len(batch), "count")
    return 3 * len(batch), failures, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    setup_s, inputs, wl = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "inputs": inputs.digest()}))
        return 0
    reference = wl.load_reference()[args.workload]
    if args.trace:
        attempted, failures, metrics = _traced(args, inputs, wl, reference)
        setup_ok = True
    else:
        attempted, failures, setup_ok, metrics = _end_to_end(args, setup_s, inputs, wl, reference)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    failed = min(attempted, len(failures))
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
