import json

import pytest

from g2chow.exactlin import RatMatrix
from g2chow.fibre_model import (
    BoundaryCycle,
    Component,
    FibreFormatError,
    FibreGraph,
    HorizontalDivisor,
    graph_from_json,
    graph_to_json,
    intersection_matrix,
    validate,
)
from support import MALFORMED_FIBRE_DOCUMENTS, SWEEPS, graph_of, leading_principal_minors


def test_single_component_fibre_is_valid():
    graph = FibreGraph([Component("C", genus=2, self_intersection=0)])
    report = validate(graph)
    assert report.passed, str(report)


def test_disconnected_fibre_fails_connectivity_and_radical():
    graph = FibreGraph(
        [Component("A", self_intersection=0), Component("B", self_intersection=0)]
    )
    report = validate(graph)
    by_name = {c.name: c for c in report.checks}
    assert by_name["row_sums_zero"].passed
    assert not by_name["connectivity"].passed
    assert by_name["negative_semidefinite"].passed  # the zero form is semidefinite
    assert not by_name["radical_dimension_one"].passed
    assert "dimension 2" in by_name["radical_dimension_one"].witness


def test_case_iii_row_sums():
    graph = graph_of("III", {"n": 2, "m": 2})
    m = intersection_matrix(graph)
    b_row = m.row(graph.index("B"))
    assert b_row[graph.index("B")] == -4
    assert sum(b_row) == 0
    assert validate(graph).passed


def test_intersection_matrix_examples():
    assert intersection_matrix(graph_of("I", {})) == RatMatrix([[0]])
    assert intersection_matrix(graph_of("IV", {"r": 1})) == RatMatrix(
        [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]
    )
    assert intersection_matrix(graph_of("II", {"n": 2})) == RatMatrix(
        [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]]
    )


def test_graph_constructor_rejections():
    comps = [Component("A", self_intersection=-2), Component("B", self_intersection=-2)]
    with pytest.raises(ValueError):
        FibreGraph(comps + [Component("A")])
    with pytest.raises(ValueError):
        FibreGraph(comps, [("A", "A", 1)])
    with pytest.raises(ValueError):
        FibreGraph(comps, [("A", "B", 1), ("B", "A", 1)])
    with pytest.raises(ValueError):
        FibreGraph(comps, [("A", "C", 1)])
    with pytest.raises(ValueError):
        FibreGraph(comps, [("A", "B", -1)])
    with pytest.raises(ValueError):
        FibreGraph(comps, [("A", "B", True)])


def test_horizontal_divisor_vector():
    graph = graph_of("II", {"n": 2})
    h = HorizontalDivisor({"E": 2, "X2": -2})
    assert h.degree() == 0
    assert tuple(int(x) for x in h.vector(graph)) == (2, 0, -2, 0)
    with pytest.raises(KeyError):
        HorizontalDivisor({"nope": 1}).vector(graph)


def test_boundary_cycle_mod_fibre_equality():
    graph = graph_of("II", {"n": 2})
    a = BoundaryCycle(graph, {"E": 0, "X1": -2, "X2": -4, "X3": -2})
    b = BoundaryCycle(graph, {"E": 5, "X1": 3, "X2": 1, "X3": 3})
    assert a == b  # differ by 5 * fibre
    c = BoundaryCycle(graph, {"E": 0, "X1": 0, "X2": -4, "X3": -2})
    assert a != c
    assert (a - b).is_zero_mod_fibre()
    assert (-a).coefficients["X2"] == 4


def test_json_round_trip():
    graph = graph_of("II", {"n": 2})
    h = HorizontalDivisor({"E": 2, "X2": -2})
    doc = graph_to_json(graph, h)
    text = json.dumps(doc)
    back, back_h = graph_from_json(json.loads(text))
    assert back.names == graph.names
    assert back.edges == graph.edges
    assert back_h.multiplicities == h.multiplicities
    assert graph_to_json(back, back_h) == doc


def test_json_rejects_malformed_documents():
    good = graph_to_json(graph_of("I", {}))
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(FibreFormatError):
        graph_from_json(bad)
    with pytest.raises(FibreFormatError):
        graph_from_json({"components": [{"name": "C", "self": 0, "colour": "blue"}]})
    with pytest.raises(FibreFormatError):
        graph_from_json({"components": [{"name": "C"}]})
    with pytest.raises(FibreFormatError):
        graph_from_json(
            {"components": [{"name": "C", "self": 0}], "horizontal": {"D": 1}}
        )
    with pytest.raises(FibreFormatError):
        graph_from_json(
            {
                "components": [{"name": "A", "self": 0}, {"name": "B", "self": 0}],
                "intersections": [["A", "B", 1], ["B", "A", 1]],
            }
        )
    for doc in MALFORMED_FIBRE_DOCUMENTS:
        with pytest.raises(FibreFormatError):
            graph_from_json(doc)


def test_catalog_tolerated_keys():
    doc = graph_to_json(graph_of("I", {}))
    doc["weierstrass"] = {"w1": "C"}
    doc["expected_rank"] = ">=2"
    graph, _ = graph_from_json(doc)
    assert graph.names == ("C",)


@pytest.mark.parametrize("case_id", sorted(SWEEPS))
def test_fibre_class_is_in_radical(case_id):
    for params in SWEEPS[case_id][:6]:
        graph = graph_of(case_id, params)
        m = intersection_matrix(graph)
        ones = tuple(1 for _ in graph.names)
        assert all(x == 0 for x in m.matvec(ones))


@pytest.mark.parametrize(
    "case_id,params",
    [("I", {}), ("II", {"n": 3}), ("IV", {"r": 2}), ("V", {"r": 1, "m": 1}), ("VII", {"r": 1, "s": 2, "t": 1})],
)
def test_complement_of_fibre_class_is_negative_definite(case_id, params):
    graph = graph_of(case_id, params)
    m = intersection_matrix(graph)
    n = len(graph)
    if n == 1:
        return
    basis = [
        [1 if k == i else (-1 if k == i + 1 else 0) for i in range(n - 1)] for k in range(n)
    ]
    b = RatMatrix(basis, ncols=n - 1)
    g = b.transpose().matmul(m).matmul(b)
    minors = leading_principal_minors(g)
    assert len(minors) == n - 1
    for k, minor in enumerate(minors, start=1):
        assert minor != 0
        assert (minor > 0) == (k % 2 == 0)  # sign (-1)^k
