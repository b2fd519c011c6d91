import json

import pytest

from g2chow.consani_complex import (
    DegreeOutOfRange,
    MissingMap,
    StratifiedComplex,
    check_identities,
    complex_from_fibre_graph,
    complex_from_json,
    complex_to_json,
    gamma_matrix,
    operator_pair,
    pch_rank,
    rho_matrix,
)
from g2chow.exactlin import RatMatrix, kernel_basis, rank
from g2chow.fibre_model import intersection_matrix
from g2chow.parshin_catalog import build_kulikov_complex

from support import MALFORMED_COMPLEX_DOCUMENTS, graph_of


def test_gamma_is_signed_incidence_of_three_cycle():
    cx = build_kulikov_complex(2, 3)
    # edges in lexicographic order: (0,1), (0,2), (1,2); head - tail per column
    expected = RatMatrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    assert gamma_matrix(cx, 1) == expected
    assert rho_matrix(cx, 1) == expected.transpose()
    # alternating convention flips odd degrees
    assert rho_matrix(cx, 1, "alternating") == expected.transpose().scale(-1)


def test_gamma_at_top_degree_is_empty():
    cx = StratifiedComplex({1: [(0,)]})
    g = gamma_matrix(cx, 1)
    assert (g.nrows, g.ncols) == (1, 0)
    with pytest.raises(DegreeOutOfRange):
        gamma_matrix(cx, 2)
    with pytest.raises(DegreeOutOfRange):
        gamma_matrix(cx, 0)


def test_operator_pair():
    cx = build_kulikov_complex(2, 4)
    pair = operator_pair(cx, 1)
    assert pair.gamma == gamma_matrix(cx, 1)
    assert pair.rho == rho_matrix(cx, 1)
    assert pair.sign_convention == "as-written"
    with pytest.raises(ValueError):
        rho_matrix(cx, 1, "mystery")


@pytest.mark.parametrize("n", range(3, 7))
def test_identities_type2(n):
    report = check_identities(build_kulikov_complex(2, n))
    assert report.holds("gamma_squared")
    assert report.holds("rho_squared")


def test_identities_type3_and_gamma_squared_content():
    cx = build_kulikov_complex(3, 3, 3)
    report = check_identities(cx)
    assert report.holds("gamma_squared")
    assert report.holds("rho_squared")
    # the degree-1 composition is a genuinely nontrivial product
    assert gamma_matrix(cx, 2).ncols == 18
    assert gamma_matrix(cx, 1).matmul(gamma_matrix(cx, 2)).is_zero()


def test_identities_vacuous_on_one_stratum():
    report = check_identities(StratifiedComplex({1: [(0,)]}))
    assert report.holds("gamma_squared")
    assert report.holds("rho_squared")
    assert report.holds("anticommutator")  # nothing to compose with


def test_anticommutator_reported_not_asserted():
    report = check_identities(build_kulikov_complex(2, 3))
    entries = report.entries("anticommutator")
    assert {e.convention for e in entries} == {"as-written", "alternating"}
    assert not report.holds("anticommutator", "as-written")
    assert not report.holds("anticommutator", "alternating")
    failing = [e for e in entries if not e.holds]
    assert all(e.witness for e in failing)


def test_image_contained_in_kernel():
    for cx in (build_kulikov_complex(2, 5), build_kulikov_complex(3, 3, 3)):
        for t in range(1, cx.depth):
            ker = kernel_basis(gamma_matrix(cx, t))
            image = gamma_matrix(cx, t + 1)
            vectors = list(ker) + [image.column(j) for j in range(image.ncols)]
            if not vectors:
                continue
            stacked = RatMatrix(vectors, ncols=cx.rank(t + 1))
            assert rank(stacked) == len(ker)


@pytest.mark.parametrize("n", range(3, 7))
def test_type2_cycle_ranks(n):
    cx = build_kulikov_complex(2, n)
    g = gamma_matrix(cx, 1)
    assert len(kernel_basis(g)) == 1
    assert rank(g) == n - 1


def test_pch_rank_smooth_fibre():
    smooth = StratifiedComplex({1: [(0,)]})
    report = pch_rank(smooth, q=4, a=1)  # weight 2 on a depth-1 fibre
    assert report.quotient_dim == 0
    assert report.numerator_dim == 0 and report.denominator_dim == 0


def test_pch_rank_degenerate_maps():
    cx = StratifiedComplex({1: [(0,), (1,), (2,)]})
    report = pch_rank(cx, q=3, a=1, iistar=RatMatrix.zeros(3, 3))
    assert report.quotient_dim == 3


def test_pch_rank_case_ii_curve_model():
    graph = graph_of("II", {"n": 2})
    cx = complex_from_fibre_graph(graph)
    m = intersection_matrix(graph)
    report = pch_rank(cx, q=3, a=1, iistar=m)
    # kernel of the intersection matrix is the fibre line; the image of
    # gamma is the sum-zero hyperplane of the 4-cycle, which misses it
    assert report.numerator_dim == 1
    assert kernel_basis(m) == ((1, 1, 1, 1),)
    assert report.denominator_dim == 3
    assert not report.image_contained
    assert report.quotient_dim == 1


def test_pch_rank_errors():
    cx = build_kulikov_complex(2, 3)
    with pytest.raises(MissingMap):
        pch_rank(cx, q=3, a=1)
    with pytest.raises(DegreeOutOfRange):
        pch_rank(cx, q=2, a=1)
    with pytest.raises(ValueError):
        pch_rank(cx, q=3, a=1, iistar=RatMatrix.zeros(2, 2))


def test_complex_validation():
    with pytest.raises(ValueError):
        StratifiedComplex({2: [(0, 1)]})  # missing vertex facets
    with pytest.raises(ValueError):
        StratifiedComplex({1: [(0,), (1,)], 2: [(1, 0)]})  # not increasing
    with pytest.raises(ValueError):
        StratifiedComplex({1: [(0,), (0,)]})  # duplicate
    with pytest.raises(ValueError):
        StratifiedComplex({1: [(0,), (1,)], 2: [(0, 1)]}, lattice_ranks={2: [1, 1]})

    for doc in MALFORMED_COMPLEX_DOCUMENTS:
        with pytest.raises(ValueError):
            complex_from_json(doc)


def test_explicit_pullbacks_replace_transposed_gamma():
    strata = {1: [(0,), (1,)], 2: [(0, 1)]}
    cx = StratifiedComplex(strata, pullback={1: [RatMatrix([[0, 2]]), RatMatrix([[3, 0]])]})
    assert rho_matrix(cx, 1) == RatMatrix([[-3, 2]])
    assert rho_matrix(cx, 1, "alternating") == RatMatrix([[3, -2]])
    assert gamma_matrix(cx, 1) == RatMatrix([[-1], [1]])
    assert rho_matrix(cx, 2) == RatMatrix.zeros(0, 1)


def test_default_maps_need_rank_one_lattices():
    cx = StratifiedComplex({1: [(0,), (1,)], 2: [(0, 1)]}, lattice_ranks={1: [2, 1]})
    with pytest.raises(MissingMap):
        gamma_matrix(cx, 1)
    with pytest.raises(MissingMap):
        rho_matrix(cx, 1)
    assert gamma_matrix(cx, 2) == RatMatrix.zeros(1, 0)


def test_explicit_map_shapes_checked():
    strata = {1: [(0,), (1,)], 2: [(0, 1)]}
    with pytest.raises(ValueError):
        StratifiedComplex(strata, pushforward={1: [RatMatrix.zeros(2, 1)]})
    cx = StratifiedComplex(
        strata, pushforward={1: [RatMatrix([[0], [1]]), RatMatrix([[1], [0]])]}
    )
    assert gamma_matrix(cx, 1) == RatMatrix([[-1], [1]])


def test_fibre_graph_complex_with_double_edge():
    graph = graph_of("V", {"r": 1, "m": 1})  # B meets Y1 twice
    cx = complex_from_fibre_graph(graph)
    pair_index = cx.strata(2).index((graph.index("B"), graph.index("Y1")))
    assert cx.level_ranks(2)[pair_index] == 2
    g = gamma_matrix(cx, 1)
    # both point columns of that stratum carry the same signed difference
    offset = cx.offset(2, pair_index)
    assert g.column(offset) == g.column(offset + 1)
    assert check_identities(cx).holds("gamma_squared")


def test_complex_json_round_trip():
    for cx in (build_kulikov_complex(2, 4), complex_from_fibre_graph(graph_of("V", {"r": 1, "m": 1}))):
        doc = json.loads(json.dumps(complex_to_json(cx)))
        back = complex_from_json(doc)
        assert back.depth == cx.depth
        assert all(back.strata(r) == cx.strata(r) for r in range(1, cx.depth + 1))
        assert all(back.level_ranks(r) == cx.level_ranks(r) for r in range(1, cx.depth + 1))
        assert gamma_matrix(back, 1) == gamma_matrix(cx, 1)
    with pytest.raises(ValueError):
        complex_from_json({"strata": {"1": [[0]]}, "bogus": 1})
    with pytest.raises(ValueError):
        complex_from_json({"depth": 5, "strata": {"1": [[0]]}})
