"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from g2chow import fibre_model  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first, again, other = (workloads.generate(workload, s) for s in (3, 3, 4))
    assert first.digest() == again.digest()
    assert [op.key for op in first.rounds[0]] == [op.key for op in again.rounds[0]]
    assert first.digest() != other.digest()


def test_every_generated_op_has_a_reference_digest():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        universe = {op.key for op in workloads.UNIVERSE[workload]()}
        assert set(reference[workload]) == universe
        for seed in range(5):
            assert set(workloads.generate(workload, seed).payloads) <= universe


def _validate(text):
    graph, _ = fibre_model.graph_from_json(json.loads(text))
    return fibre_model.validate(graph)


@pytest.mark.parametrize("n", [10, 17, 26])
def test_generated_fibres_validate(n):
    for variant in range(3):
        text, divisors = workloads.fibre_payload(workloads.fibre_op("valid", n, variant))
        doc = json.loads(text)
        assert len(doc["components"]) == n
        assert _validate(text).passed
        degree = {c["name"]: 0 for c in doc["components"]}
        for a, b, k in doc["intersections"]:
            degree[a] += k
            degree[b] += k
        assert all(c["self"] == -degree[c["name"]] for c in doc["components"])
        assert len(divisors) == workloads.SOLVES_PER_DOC
        assert all(sum(d.values()) == 0 for d, _ in divisors)


@pytest.mark.parametrize("kind", workloads.INVALID_KINDS)
def test_invalid_fibres_fail_the_named_check(kind):
    for n in (10, 23, 40):
        text, _ = workloads.fibre_payload(workloads.fibre_op(kind, n, 0))
        report = _validate(text)
        assert kind in [check.name for check in report.failures()]


def _first_op(workload):
    inputs = workloads.generate(workload, 0)
    op = min(inputs.rounds[0], key=lambda o: len(json.dumps(inputs.payloads[o.key], default=str)))
    return op, inputs.payloads[op.key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_digest_is_a_failure(workload):
    op, payload = _first_op(workload)
    result = workloads.RUN[workload](op, payload)
    reference = workloads.load_reference()[workload]
    digest, problem = workloads.check(workload, op, payload, result, reference)
    assert problem is None and digest == reference[op.key]
    corrupted = dict(reference, **{op.key: "0" * len(digest)})
    _, problem = workloads.check(workload, op, payload, result, corrupted)
    assert problem is not None and "differs from reference" in problem
    _, problem = workloads.check(workload, op, payload, result, {})
    assert problem is not None


def test_gate_catches_a_wrong_answer_with_a_matching_digest():
    op = workloads.catalog_op("solve", "II", 8)
    payload = workloads.payload_for("catalog-certify", op)
    code, out, err = workloads.run_catalog(op, payload)
    doc = json.loads(out)
    doc["coefficients"]["X1"] = "7"
    wrong = (code, json.dumps(doc, indent=2), err)
    assert workloads.gate("catalog-certify", op, payload, wrong) is not None
    assert workloads.gate("catalog-certify", op, payload, (1, out, err)) is not None


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set()
    for name, with_calls, with_self in run.SPAN_METRICS:
        reported |= {f"{name}.calls"} if with_calls else set()
        reported |= {f"{name}.self_s"} if with_self else set()
    reported |= {f"{layer}.fraction_calls" for layer in ("cli", "parshin_catalog", "fibre_model",
                                                          "boundary_engine", "consani_complex", "exactlin")}
    reported |= {"boundary_engine.distinct_graphs", "boundary_engine.solves_per_graph",
                 "exactlin.cells_in", "trace.overhead_ratio", "trace.ops"}
    assert per_layer == reported
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
