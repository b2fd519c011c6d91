"""Double-complex operators on stratified special fibres.

A stratified fibre is recorded as levels Y^(1), Y^(2), ... of strata, each
stratum an ordered index set of components, with a class lattice per
stratum (rank 1 fundamental class by default).  Deleting the u-th index
of an (r+1)-fold intersection embeds it into an r-fold one; the signed
sums of the induced pushforwards and pullbacks,

    gamma = sum_u (-1)^(u-1) delta(u)_*        (degree  -1)
    rho   = sum_u (-1)^(u-1) delta(u)^*        (degree  +1)

are the operators computed here.  For the default rank-1 lattices gamma
is the simplicial boundary and rho its transpose, so gamma^2 = 0 and
rho^2 = 0 hold for purely combinatorial reasons; the anticommutator
gamma*rho + rho*gamma is a Laplacian-type operator and is evaluated and
reported per sign convention rather than asserted.

``pch_rank`` computes the subquotient dimensions Ker/Im used to measure
the classes supported on the special fibre: for weight q - 2a = 1 the
kernel is that of a user-supplied self-map on the Y^(1) lattice (for
curve fibres, the intersection matrix); for weight > 1 both maps are
gamma in adjacent degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import exactlin
from .exactlin import RatMatrix, format_rat, rat

SIGN_CONVENTIONS = ("as-written", "alternating")


class DegreeOutOfRange(ValueError):
    pass


class MissingMap(ValueError):
    pass


class StratifiedComplex:
    """Strata per level with per-stratum lattice ranks and optional
    explicit delta(u) matrices.

    Index sets must be strictly increasing, unique within a level, and
    closed under taking facets (deleting one index), since a declared
    (r+1)-fold intersection forces its r-fold sub-intersections to be
    nonempty.  Explicit maps are keyed by the target degree t and listed
    by u = 1..t+1; pullbacks default to transposed pushforwards.
    """

    __slots__ = ("_strata", "_ranks", "_offsets", "_positions", "_push", "_pull", "_depth")

    def __init__(
        self,
        strata: Mapping[int, Sequence[Sequence[int]]],
        lattice_ranks: Mapping[int, Sequence[int]] | None = None,
        pushforward: Mapping[int, Sequence[RatMatrix]] | None = None,
        pullback: Mapping[int, Sequence[RatMatrix]] | None = None,
    ):
        levels: dict[int, tuple[tuple[int, ...], ...]] = {}
        for r, sets in strata.items():
            r = int(r)
            if r < 1:
                raise ValueError(f"stratum level {r} must be >= 1")
            converted = tuple(tuple(int(i) for i in s) for s in sets)
            if converted:
                levels[r] = converted
        if not levels:
            raise ValueError("complex has no strata")
        depth = max(levels)
        self._depth = depth
        self._strata = {r: levels.get(r, ()) for r in range(1, depth + 1)}
        self._positions = {}
        for r, sets in self._strata.items():
            seen: dict[tuple[int, ...], int] = {}
            for pos, index_set in enumerate(sets):
                if len(index_set) != r:
                    raise ValueError(f"stratum {index_set} at level {r} has wrong cardinality")
                if any(a >= b for a, b in zip(index_set, index_set[1:])):
                    raise ValueError(f"index set {index_set} is not strictly increasing")
                if index_set in seen:
                    raise ValueError(f"duplicate stratum {index_set} at level {r}")
                seen[index_set] = pos
            self._positions[r] = seen
        for r in range(2, depth + 1):
            for index_set in self._strata[r]:
                for u in range(r):
                    facet = index_set[:u] + index_set[u + 1:]
                    if facet not in self._positions[r - 1]:
                        raise ValueError(
                            f"stratum {index_set} at level {r} is missing its facet {facet} at level {r - 1}"
                        )
        ranks: dict[int, tuple[int, ...]] = {}
        for r in range(1, depth + 1):
            default = (1,) * len(self._strata[r])
            if lattice_ranks and r in lattice_ranks:
                given = tuple(int(x) for x in lattice_ranks[r])
                if len(given) != len(self._strata[r]):
                    raise ValueError(f"lattice_ranks[{r}] must list one rank per stratum")
                if any(x < 1 for x in given):
                    raise ValueError(f"lattice_ranks[{r}] must be positive")
                ranks[r] = given
            else:
                ranks[r] = default
        self._ranks = ranks
        self._offsets = {}
        for r in range(1, depth + 1):
            offs = []
            total = 0
            for rk in ranks[r]:
                offs.append(total)
                total += rk
            self._offsets[r] = (tuple(offs), total)
        self._push = self._check_maps(pushforward, transposed=False)
        self._pull = self._check_maps(pullback, transposed=True)

    def _check_maps(self, maps, transposed: bool):
        if not maps:
            return {}
        out: dict[int, tuple[RatMatrix, ...]] = {}
        for t, mats in maps.items():
            t = int(t)
            if not 1 <= t < self._depth:
                raise ValueError(f"maps are keyed by target degree t with 1 <= t < depth (got {t})")
            mats = tuple(mats)
            if len(mats) != t + 1:
                raise ValueError(f"degree {t} needs t+1 = {t + 1} matrices, one per deleted position")
            rows, cols = self.rank(t), self.rank(t + 1)
            if transposed:
                rows, cols = cols, rows
            for u, mat in enumerate(mats, start=1):
                if (mat.nrows, mat.ncols) != (rows, cols):
                    raise ValueError(
                        f"map for degree {t}, position {u} has shape {mat.nrows}x{mat.ncols}, expected {rows}x{cols}"
                    )
            out[t] = mats
        return out

    @property
    def depth(self) -> int:
        return self._depth

    def strata(self, r: int) -> tuple[tuple[int, ...], ...]:
        return self._strata.get(r, ())

    def level_ranks(self, r: int) -> tuple[int, ...]:
        return self._ranks.get(r, ())

    def rank(self, r: int) -> int:
        if r not in self._offsets:
            return 0
        return self._offsets[r][1]

    def offset(self, r: int, position: int) -> int:
        return self._offsets[r][0][position]

    def position(self, r: int, index_set: tuple[int, ...]) -> int:
        return self._positions[r][index_set]


def _alternating_sum(mats: Sequence[RatMatrix]) -> RatMatrix:
    """sum_u (-1)^(u-1) mats[u], u = 1..len(mats)."""
    return RatMatrix(
        [
            [sum(x if u % 2 == 0 else -x for u, x in enumerate(entries)) for entries in zip(*rows)]
            for rows in zip(*(m.rows for m in mats))
        ],
        ncols=mats[0].ncols,
    )


def gamma_matrix(cx: StratifiedComplex, t: int) -> RatMatrix:
    """Signed pushforward sum from the Y^(t+1) lattice to the Y^(t) lattice.

    Sign (-1)^(u-1), u the position of the deleted index.  Without
    explicit pushforwards this is the signed incidence matrix of the
    strata: column S has (-1)^(u-1) at the facet of S missing its u-th
    index.  At t = depth the source lattice is empty and the map has zero
    columns.
    """
    if not 1 <= t <= cx.depth:
        raise DegreeOutOfRange(f"degree {t} outside 1..{cx.depth}")
    if t in cx._push:
        return _alternating_sum(cx._push[t])
    rows, cols = cx.rank(t), cx.rank(t + 1)
    if cols == 0:
        return RatMatrix.zeros(rows, 0)
    if any(r != 1 for r in cx.level_ranks(t)) or any(r != 1 for r in cx.level_ranks(t + 1)):
        raise MissingMap(
            f"default incidence maps need rank-1 lattices at degrees {t} and {t + 1}; supply explicit maps"
        )
    grid = [[0] * cols for _ in range(rows)]
    for col, index_set in enumerate(cx.strata(t + 1)):
        for u in range(t + 1):
            grid[cx.position(t, index_set[:u] + index_set[u + 1:])][col] = -1 if u % 2 else 1
    return RatMatrix(grid, ncols=cols)


def rho_matrix(cx: StratifiedComplex, t: int, convention: str = "as-written") -> RatMatrix:
    """Signed pullback sum from the Y^(t) lattice to the Y^(t+1) lattice.

    This is the transpose of gamma unless explicit pullbacks are given.
    The "alternating" convention multiplies the degree-t operator by
    (-1)^t; it changes neither rho^2 = 0 nor ranks, only the
    anticommutator with gamma.
    """
    if convention not in SIGN_CONVENTIONS:
        raise ValueError(f"unknown sign convention {convention!r}; expected one of {SIGN_CONVENTIONS}")
    if not 1 <= t <= cx.depth:
        raise DegreeOutOfRange(f"degree {t} outside 1..{cx.depth}")
    total = _alternating_sum(cx._pull[t]) if t in cx._pull else gamma_matrix(cx, t).transpose()
    if convention == "alternating" and t % 2 == 1:
        total = total.scale(-1)
    return total


@dataclass(frozen=True)
class OperatorPair:
    gamma: RatMatrix
    rho: RatMatrix
    sign_convention: str


def operator_pair(cx: StratifiedComplex, t: int, convention: str = "as-written") -> OperatorPair:
    return OperatorPair(gamma_matrix(cx, t), rho_matrix(cx, t, convention), convention)


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    degree: int
    convention: str | None
    holds: bool
    witness: str | None


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    def holds(self, identity: str, convention: str | None = None) -> bool:
        relevant = [
            c for c in self.checks
            if c.identity == identity and (convention is None or c.convention == convention)
        ]
        return all(c.holds for c in relevant)

    def entries(self, identity: str) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if c.identity == identity)


def _witness(m: RatMatrix) -> str | None:
    hit = m.first_nonzero()
    if hit is None:
        return None
    i, j, x = hit
    return f"entry ({i}, {j}) = {format_rat(x)}"


def check_identities(cx: StratifiedComplex, conventions: Sequence[str] = SIGN_CONVENTIONS) -> IdentityReport:
    """Evaluate gamma^2, rho^2 and the anticommutator degree by degree.

    All three are exact matrix equations; each entry records pass/fail
    with a witness entry on failure.  The anticommutator is evaluated
    under each requested sign convention.
    """
    checks: list[IdentityCheck] = []
    for t in range(1, cx.depth):
        product = gamma_matrix(cx, t).matmul(gamma_matrix(cx, t + 1))
        checks.append(IdentityCheck("gamma_squared", t, None, product.is_zero(), _witness(product)))
    for convention in conventions:
        for t in range(1, cx.depth):
            product = rho_matrix(cx, t + 1, convention).matmul(rho_matrix(cx, t, convention))
            checks.append(IdentityCheck("rho_squared", t, convention, product.is_zero(), _witness(product)))
        for t in range(1, cx.depth + 1):
            anticommutator = gamma_matrix(cx, t).matmul(rho_matrix(cx, t, convention))
            if t >= 2:
                anticommutator = anticommutator.add(
                    rho_matrix(cx, t - 1, convention).matmul(gamma_matrix(cx, t - 1))
                )
            checks.append(
                IdentityCheck(
                    "anticommutator", t, convention, anticommutator.is_zero(), _witness(anticommutator)
                )
            )
    return IdentityReport(tuple(checks))


@dataclass(frozen=True)
class PchRankReport:
    q: int
    a: int
    numerator_dim: int
    denominator_dim: int
    quotient_dim: int
    image_contained: bool

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "a": self.a,
            "numerator": self.numerator_dim,
            "denominator": self.denominator_dim,
            "quotient": self.quotient_dim,
            "image_contained": self.image_contained,
        }


def pch_rank(cx: StratifiedComplex, q: int, a: int, iistar: RatMatrix | None = None) -> PchRankReport:
    """Dimensions of the Ker/Im subquotient at weight w = q - 2a.

    For w = 1 the numerator is the kernel of the supplied self-map on the
    Y^(1) lattice and the denominator the image of gamma from Y^(2); for
    w > 1 both maps are gamma in adjacent degrees.  The quotient is taken
    by the part of the image that actually lies in the kernel, so it stays
    well defined when the supplied map does not annihilate the image.
    """
    w = q - 2 * a
    if w < 1:
        raise DegreeOutOfRange(f"q - 2a must be >= 1 (got {w})")
    if w == 1:
        if iistar is None:
            raise MissingMap("weight q - 2a = 1 needs the i*i_* matrix on the Y^(1) lattice")
        n1 = cx.rank(1)
        if iistar.nrows != n1 or iistar.ncols != n1:
            raise ValueError(f"i*i_* matrix must be {n1}x{n1} (got {iistar.nrows}x{iistar.ncols})")
        kernel = exactlin.kernel_basis(iistar)
        image = gamma_matrix(cx, 1) if cx.depth >= 2 else RatMatrix.zeros(n1, 0)
        image_vectors = [image.column(j) for j in range(image.ncols)]
    elif w > cx.depth:
        kernel = ()
        image_vectors = []
    else:
        kernel = exactlin.kernel_basis(gamma_matrix(cx, w - 1))
        image = gamma_matrix(cx, w)
        image_vectors = [image.column(j) for j in range(image.ncols)]
    num = len(kernel)
    ambient = cx.rank(w) if w > 1 else cx.rank(1)
    den = exactlin.rank(RatMatrix(image_vectors, ncols=ambient)) if image_vectors else 0
    if num and image_vectors:
        joint = exactlin.rank(RatMatrix(list(kernel) + image_vectors, ncols=ambient))
        intersection = num + den - joint
    else:
        intersection = 0
    return PchRankReport(
        q=q,
        a=a,
        numerator_dim=num,
        denominator_dim=den,
        quotient_dim=num - intersection,
        image_contained=(intersection == den),
    )


def complex_from_fibre_graph(graph) -> StratifiedComplex:
    """Depth-2 stratified complex of a curve fibre.

    Vertices are the components; each intersecting pair becomes one edge
    stratum whose lattice has one generator per intersection point, pushed
    forward to the fundamental classes of the two components.  The degree-1
    gamma therefore sends each double point to the signed difference of
    its two components.
    """
    n = len(graph)
    pairs = [(graph.index(a), graph.index(b), k) for a, b, k in graph.edges if k > 0]
    pairs.sort(key=lambda e: (e[0], e[1]))
    strata = {1: [(i,) for i in range(n)]}
    if not pairs:
        return StratifiedComplex(strata)
    strata[2] = [(i, j) for i, j, _ in pairs]
    ranks = [k for _, _, k in pairs]
    total = sum(ranks)
    drop_first = [[0] * total for _ in range(n)]
    drop_second = [[0] * total for _ in range(n)]
    col = 0
    for i, j, k in pairs:
        for _ in range(k):
            drop_first[j][col] = 1
            drop_second[i][col] = 1
            col += 1
    return StratifiedComplex(
        strata,
        lattice_ranks={2: ranks},
        pushforward={1: (RatMatrix(drop_first, ncols=total), RatMatrix(drop_second, ncols=total))},
    )


_COMPLEX_KEYS = {"depth", "strata", "lattice_ranks", "maps"}
_MAP_KEYS = {"pushforward", "pullback"}
_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer", (int, str): "an integer or a 'p/q' string"}


def _matrix_to_json(m: RatMatrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[format_rat(x) for x in row] for row in m.rows],
    }


def _expect(value, kind, what: str):
    """Return ``value`` if it has the JSON type ``kind``; booleans are not integers."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _int_list(value, what: str) -> list[int]:
    return [_expect(x, int, f"each entry of {what}") for x in _expect(value, list, what)]


def _matrix_from_json(doc: object) -> RatMatrix:
    if not isinstance(doc, dict) or set(doc) != {"rows", "cols", "entries"}:
        raise ValueError("matrix documents need exactly the keys rows, cols, entries")
    entries = [
        [rat(_expect(x, (int, str), "each matrix entry")) for x in _expect(row, list, "each matrix row")]
        for row in _expect(doc["entries"], list, "matrix 'entries'")
    ]
    m = RatMatrix(entries, ncols=_expect(doc["cols"], int, "matrix 'cols'"))
    if m.nrows != _expect(doc["rows"], int, "matrix 'rows'"):
        raise ValueError("matrix row count disagrees with entries")
    return m


def _maps_from_json(doc: object, what: str) -> dict[int, list[RatMatrix]]:
    return {
        int(t): [_matrix_from_json(m) for m in _expect(mats, list, f"{what}[{t!r}]")]
        for t, mats in _expect(doc, dict, what).items()
    }


def complex_to_json(cx: StratifiedComplex) -> dict:
    doc: dict = {
        "depth": cx.depth,
        "strata": {str(r): [list(s) for s in cx.strata(r)] for r in range(1, cx.depth + 1)},
    }
    nondefault = {
        str(r): list(cx.level_ranks(r))
        for r in range(1, cx.depth + 1)
        if any(x != 1 for x in cx.level_ranks(r))
    }
    if nondefault:
        doc["lattice_ranks"] = nondefault
    maps: dict = {}
    if cx._push:
        maps["pushforward"] = {str(t): [_matrix_to_json(m) for m in mats] for t, mats in cx._push.items()}
    if cx._pull:
        maps["pullback"] = {str(t): [_matrix_to_json(m) for m in mats] for t, mats in cx._pull.items()}
    if maps:
        doc["maps"] = maps
    return doc


def complex_from_json(doc: object) -> StratifiedComplex:
    if not isinstance(doc, dict):
        raise ValueError("complex document must be a JSON object")
    unknown = set(doc) - _COMPLEX_KEYS
    if unknown:
        raise ValueError(f"unknown keys in complex document: {sorted(unknown)}")
    if "strata" not in doc or not isinstance(doc["strata"], dict):
        raise ValueError("complex document needs a 'strata' object")
    strata = {
        int(r): [tuple(_int_list(s, f"strata[{r!r}] entry")) for s in _expect(sets, list, f"strata[{r!r}]")]
        for r, sets in doc["strata"].items()
    }
    ranks = None
    if "lattice_ranks" in doc:
        ranks = {
            int(r): _int_list(v, f"lattice_ranks[{r!r}]")
            for r, v in _expect(doc["lattice_ranks"], dict, "'lattice_ranks'").items()
        }
    push = pull = None
    if "maps" in doc:
        maps = doc["maps"]
        if not isinstance(maps, dict) or set(maps) - _MAP_KEYS:
            raise ValueError("'maps' may only contain 'pushforward' and 'pullback'")
        if "pushforward" in maps:
            push = _maps_from_json(maps["pushforward"], "'pushforward'")
        if "pullback" in maps:
            pull = _maps_from_json(maps["pullback"], "'pullback'")
    cx = StratifiedComplex(strata, lattice_ranks=ranks, pushforward=push, pullback=pull)
    if "depth" in doc and _expect(doc["depth"], int, "'depth'") != cx.depth:
        raise ValueError(f"declared depth {doc['depth']} disagrees with strata (depth {cx.depth})")
    return cx
