"""Shared helpers for the test suite.

Keeps one memoized fibre/boundary per (case, params, placement) so the
parameter sweeps do each exact solve once.  Also provides deliberately
naive references written without touching the package's elimination
code: a Fraction Gauss-Jordan reduction and kernel basis to cross-check
``exactlin``, leading principal minors and cofactor determinants, and a
Cramer-rule solver to cross-check vertical coefficients.
"""

from fractions import Fraction
from functools import lru_cache

from g2chow.boundary_engine import CollinoDatum, collino_boundary, solve_vertical
from g2chow.exactlin import RatMatrix
from g2chow.fibre_model import HorizontalDivisor, intersection_matrix
from g2chow.parshin_catalog import build_case, default_cycle_specs, middle_aliases

# parameter ranges of the conformance and certificate sweeps
SWEEPS = {
    "I": [{}],
    "II": [{"n": n} for n in range(2, 9)],
    "III": [{"n": n, "m": m} for n in range(2, 6) for m in range(2, 6)],
    "IV": [{"r": r} for r in range(1, 9)],
    "V": [{"r": r, "m": m} for r in range(1, 6) for m in range(1, 6)],
    "VI": [{"s": s, "n": n, "m": m} for s in range(1, 5) for n in range(1, 5) for m in range(1, 5)],
    "VII": [{"r": r, "s": s, "t": t} for r in range(1, 5) for s in range(1, 5) for t in range(1, 5)],
}

# JSON documents each command must refuse with exit code 2 and one error line
_TWO = [{"name": "A", "self": -1}, {"name": "B", "self": -1}]
MALFORMED_FIBRE_DOCUMENTS = [
    {"components": [{"name": "C", "self": False}]},
    {"components": [{"name": "C", "self": 0, "genus": True}]},
    {"components": _TWO, "intersections": [["A", "B", False]]},
    {"components": _TWO, "intersections": [["A", "B", 1]], "horizontal": {"A": True, "B": -1}},
    {"components": _TWO, "intersections": 5},
]
MALFORMED_COMPLEX_DOCUMENTS = [
    {"strata": [[0]]},
    {"strata": {"1": 5}},
    {"strata": {"1": [5]}},
    {"strata": {"1": [[True]]}},
    {"strata": {"1": [[0.5]]}},
    {"strata": {"1": [[0]]}, "lattice_ranks": 5},
    {"strata": {"1": [[0]]}, "lattice_ranks": {"1": 1}},
    {"strata": {"1": [[0], [1]]}, "lattice_ranks": {"1": [True, 1]}},
    {"strata": {"1": [[0]]}, "depth": True},
    {"strata": {"1": [[0]]}, "maps": 5},
    {"strata": {"1": [[0], [1]], "2": [[0, 1]]}, "maps": {"pushforward": 5}},
    {"strata": {"1": [[0], [1]], "2": [[0, 1]]}, "maps": {"pushforward": {"1": 5}}},
    {
        "strata": {"1": [[0], [1]], "2": [[0, 1]]},
        "maps": {"pullback": {"1": [{"rows": 1, "cols": 2, "entries": 5}] * 2}},
    },
    {
        "strata": {"1": [[0], [1]], "2": [[0, 1]]},
        "maps": {"pullback": {"1": [{"rows": 1, "cols": 2, "entries": [5]}] * 2}},
    },
    {
        "strata": {"1": [[0], [1]], "2": [[0, 1]]},
        "maps": {"pullback": {"1": [{"rows": 1, "cols": 2, "entries": [[True, 0]]}] * 2}},
    },
    {
        "strata": {"1": [[0], [1]], "2": [[0, 1]]},
        "maps": {"pullback": {"1": [{"rows": True, "cols": 2, "entries": [[1, 0]]}] * 2}},
    },
]


def _key(params):
    return tuple(sorted(params.items()))


@lru_cache(maxsize=None)
def _build(case_id, params_key):
    return build_case(case_id, **dict(params_key))


def build(case_id, params):
    return _build(case_id, _key(params))


def graph_of(case_id, params):
    return build(case_id, params).graph


@lru_cache(maxsize=None)
def _boundary(case_id, params_key, p, q):
    graph = _build(case_id, params_key).graph
    return collino_boundary(CollinoDatum(graph, p, q))


def boundary(case_id, params, p, q):
    return _boundary(case_id, _key(params), p, q)


def slot_components(case_id, params):
    case = build(case_id, params).placement
    seen = []
    for w in sorted(case.weierstrass_slots):
        comp = case.weierstrass_slots[w]
        if comp not in seen:
            seen.append(comp)
    return seen


def vertical(case_id, params, p, q, normalization):
    graph = graph_of(case_id, params)
    mult = {} if p == q else {p: 2, q: -2}
    return solve_vertical(graph, HorizontalDivisor(mult), normalization)


def default_specs(case_id, params):
    return default_cycle_specs(case_id, params)


def aliases(case_id, params):
    return middle_aliases(case_id, params)


def naive_rref(m):
    """Reduced row echelon form by Fraction Gauss-Jordan, first-nonzero pivoting.

    Returns the reduced matrix and the tuple of pivot columns.
    """
    rows = [list(row) for row in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RatMatrix(rows, ncols=ncols), tuple(pivots)


def naive_kernel_basis(m):
    """Kernel basis read off ``naive_rref``: one vector per free column,
    ascending, with a single 1 in its free position."""
    reduced, pivots = naive_rref(m)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i, f]
        basis.append(tuple(v))
    return tuple(basis)


def leading_principal_minors(m):
    """Leading principal minors ``det(m[:k,:k])`` for k = 1..n.

    Computed by fraction-free elimination without pivoting; the sequence is
    truncated after the first zero minor, where elimination cannot continue.
    """
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    n = m.nrows
    a = [list(row) for row in m.rows]
    minors = []
    prev = Fraction(1)
    for k in range(n):
        piv = a[k][k]
        minors.append(piv)
        if piv == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) / prev
        prev = piv
    return tuple(minors)


def naive_det(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = Fraction(1) if j % 2 == 0 else Fraction(-1)
        total += sign * rows[0][j] * naive_det(minor)
    return total


def oracle_vertical(graph, horizontal, norm_name, norm_value):
    """Cramer-rule solve of the fibre system with one gauge row.

    The last row of the (singular) intersection matrix is redundant when
    the horizontal degree is zero, so it is replaced by the gauge equation
    e_norm . a = value; the resulting square system is invertible and is
    solved column by column with cofactor determinants.
    """
    names = graph.names
    n = len(names)
    m = [[Fraction(x) for x in row] for row in intersection_matrix(graph).rows]
    h = horizontal.vector(graph)
    rows = m[: n - 1]
    rhs = [-x for x in h[: n - 1]]
    gauge = [Fraction(int(name == norm_name)) for name in names]
    rows = rows + [gauge]
    rhs = rhs + [Fraction(norm_value)]
    denominator = naive_det(rows)
    assert denominator != 0, "gauged fibre system should be invertible"
    coefficients = {}
    for i, name in enumerate(names):
        replaced = [[rhs[r] if c == i else rows[r][c] for c in range(n)] for r in range(n)]
        coefficients[name] = naive_det(replaced) / denominator
    return coefficients
