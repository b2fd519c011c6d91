"""Data model for special fibres of minimal regular models.

A fibre is recorded combinatorially: named components carrying a genus and
a self-intersection number, plus pairwise intersection counts.  All
component multiplicities are 1 (the strictly semistable situation), so the
fibre class is always the all-ones vector and the degree-zero condition on
a fibre reads "every row of the intersection matrix sums to zero".

``validate`` checks the numerical consistency conditions a semistable
fibre must satisfy and reports them individually instead of raising, so a
broken input can be diagnosed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import exactlin
from .exactlin import RatMatrix, Vec, format_rat, rat


class FibreFormatError(ValueError):
    """Malformed fibre-graph JSON document."""


def _is_int(x: object) -> bool:
    """True for integers; JSON booleans parse as Python bools, which are not counts."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Component:
    """One irreducible component of the special fibre.

    Genus is descriptive metadata only; no equation in this package
    consumes it.
    """

    name: str
    genus: int = 0
    self_intersection: int = 0


class FibreGraph:
    """Components with symmetric pairwise intersection counts.

    Distinct components may meet in several points; only the total count
    enters the linear algebra, so it is stored as a single non-negative
    integer per unordered pair.
    """

    __slots__ = ("_components", "_index", "_mult", "_edges")

    def __init__(self, components: Iterable[Component], intersections: Iterable[tuple[str, str, int]] = ()):
        comps = tuple(components)
        if not comps:
            raise ValueError("a fibre needs at least one component")
        index: dict[str, int] = {}
        for i, comp in enumerate(comps):
            if not comp.name:
                raise ValueError("component names must be nonempty")
            if comp.name in index:
                raise ValueError(f"duplicate component name {comp.name!r}")
            index[comp.name] = i
        mult: dict[frozenset[str], int] = {}
        for a, b, k in intersections:
            for name in (a, b):
                if name not in index:
                    raise ValueError(f"intersection references unknown component {name!r}")
            if a == b:
                raise ValueError(f"self-pair ({a!r}, {b!r}) is not allowed; use the self-intersection field")
            if not _is_int(k) or k < 0:
                raise ValueError(f"intersection count for ({a!r}, {b!r}) must be a non-negative integer")
            key = frozenset((a, b))
            if key in mult:
                raise ValueError(f"duplicate intersection pair ({a!r}, {b!r})")
            mult[key] = k
        self._components = comps
        self._index = index
        self._mult = mult
        # canonical edge order: by declaration index of the pair
        edges = []
        for key, k in mult.items():
            a, b = sorted(key, key=index.__getitem__)
            edges.append((a, b, k))
        edges.sort(key=lambda e: (index[e[0]], index[e[1]]))
        self._edges = tuple(edges)

    @property
    def components(self) -> tuple[Component, ...]:
        return self._components

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._components)

    @property
    def edges(self) -> tuple[tuple[str, str, int], ...]:
        return self._edges

    def __len__(self) -> int:
        return len(self._components)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown component {name!r}") from None

    def component(self, name: str) -> Component:
        return self._components[self.index(name)]

    def mult(self, a: str, b: str) -> int:
        self.index(a), self.index(b)
        if a == b:
            raise ValueError("use self_intersection for a component with itself")
        return self._mult.get(frozenset((a, b)), 0)

    def neighbors(self, name: str) -> tuple[str, ...]:
        out = []
        for a, b, k in self._edges:
            if k == 0:
                continue
            if a == name:
                out.append(b)
            elif b == name:
                out.append(a)
        return tuple(out)

    def same_components(self, other: "FibreGraph") -> bool:
        return self.names == other.names


def intersection_matrix(graph: FibreGraph) -> RatMatrix:
    """Symmetric intersection matrix in the component order of the graph.

    Self-intersections on the diagonal, pair counts off it: for a valid
    fibre this is minus the Laplacian of the dual multigraph.
    """
    n = len(graph)
    rows = [[0] * n for _ in range(n)]
    for i, comp in enumerate(graph.components):
        rows[i][i] = comp.self_intersection
    for a, b, k in graph.edges:
        i, j = graph.index(a), graph.index(b)
        rows[i][j] = rows[j][i] = k
    return RatMatrix(rows, ncols=n)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else f"FAIL ({c.witness})"
            lines.append(f"{c.name}: {status}")
        return "\n".join(lines)


def validate(graph: FibreGraph) -> ValidationReport:
    """Check the numerical consistency of a semistable fibre.

    Five checks: matrix symmetry, zero row sums (degree of the fibre class
    against each component), connectivity of the dual graph, negative
    semidefiniteness of the intersection form, and a one-dimensional
    radical.  Failures are report entries with witnesses, never exceptions.
    """
    checks: list[ValidationCheck] = []
    m = intersection_matrix(graph)
    names = graph.names

    sym = m.is_symmetric()
    checks.append(ValidationCheck("symmetry", sym, None if sym else "assembled matrix is not symmetric"))

    bad_row = next((i for i, row in enumerate(m.rows) if sum(row) != 0), None)
    checks.append(
        ValidationCheck(
            "row_sums_zero",
            bad_row is None,
            None if bad_row is None else f"row of {names[bad_row]} sums to {format_rat(sum(m.rows[bad_row]))}",
        )
    )

    seen = {names[0]}
    frontier = [names[0]]
    while frontier:
        current = frontier.pop()
        for nb in graph.neighbors(current):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    unreachable = [n for n in names if n not in seen]
    checks.append(
        ValidationCheck(
            "connectivity",
            not unreachable,
            None if not unreachable else f"components not reachable from {names[0]}: {', '.join(unreachable)}",
        )
    )

    semidef = exactlin.negative_semidefinite_rank(m)
    checks.append(
        ValidationCheck(
            "negative_semidefinite",
            semidef.is_semidefinite,
            None if semidef.is_semidefinite else f"intersection form: {semidef.witness}",
        )
    )

    radical_dim = len(graph) - exactlin.rank(m)
    checks.append(
        ValidationCheck(
            "radical_dimension_one",
            radical_dim == 1,
            None if radical_dim == 1 else f"radical has dimension {radical_dim}, expected 1",
        )
    )

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class HorizontalDivisor:
    """Intersection numbers of a horizontal divisor with each component.

    Absent components count as 0.  A divisor that is the closure of a
    degree-zero divisor on the generic fibre has multiplicities summing to
    zero; that is checked where it matters (solving), not at construction.
    """

    multiplicities: Mapping[str, int] = field(default_factory=dict)

    def degree(self) -> int:
        return sum(self.multiplicities.values())

    def vector(self, graph: FibreGraph) -> Vec:
        for name in self.multiplicities:
            graph.index(name)
        return tuple(Fraction(self.multiplicities.get(name, 0)) for name in graph.names)


@dataclass(frozen=True)
class VerticalDivisor:
    """Rational coefficients on every component of a fixed fibre."""

    graph: FibreGraph
    coefficients: Mapping[str, Fraction]

    def __post_init__(self):
        missing = set(self.graph.names) - set(self.coefficients)
        extra = set(self.coefficients) - set(self.graph.names)
        if missing or extra:
            raise ValueError(f"coefficients must cover the components exactly (missing {sorted(missing)}, extra {sorted(extra)})")

    def vector(self) -> Vec:
        return tuple(self.coefficients[name] for name in self.graph.names)

    def __getitem__(self, name: str) -> Fraction:
        return self.coefficients[name]


class BoundaryCycle:
    """Rational component vector considered modulo the fibre class.

    Two cycles are equal exactly when their difference is a rational
    multiple of the all-ones vector; that quotient is the canonical
    equality here, so ``__eq__`` implements it.
    """

    __slots__ = ("graph", "coefficients")

    def __init__(self, graph: FibreGraph, coefficients: Mapping[str, int | str | Fraction]):
        coeffs = {name: rat(coefficients.get(name, 0)) for name in graph.names}
        extra = set(coefficients) - set(graph.names)
        if extra:
            raise ValueError(f"coefficients for unknown components: {sorted(extra)}")
        self.graph = graph
        self.coefficients = coeffs

    def vector(self) -> Vec:
        return tuple(self.coefficients[name] for name in self.graph.names)

    def __getitem__(self, name: str) -> Fraction:
        return self.coefficients[name]

    def is_zero_mod_fibre(self) -> bool:
        values = set(self.vector())
        return len(values) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundaryCycle):
            return NotImplemented
        if not self.graph.same_components(other.graph):
            return False
        diff = {a - b for a, b in zip(self.vector(), other.vector())}
        return len(diff) == 1

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "BoundaryCycle") -> "BoundaryCycle":
        if not self.graph.same_components(other.graph):
            raise ValueError("cycles live on different fibres")
        return BoundaryCycle(
            self.graph, {n: self.coefficients[n] + other.coefficients[n] for n in self.graph.names}
        )

    def __sub__(self, other: "BoundaryCycle") -> "BoundaryCycle":
        return self + (-other)

    def __neg__(self) -> "BoundaryCycle":
        return BoundaryCycle(self.graph, {n: -c for n, c in self.coefficients.items()})

    def scaled(self, k: int | str | Fraction) -> "BoundaryCycle":
        f = rat(k)
        return BoundaryCycle(self.graph, {n: f * c for n, c in self.coefficients.items()})

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {format_rat(c)}" for n, c in sorted(self.coefficients.items()))
        return f"BoundaryCycle({inner})"


_DOCUMENT_KEYS = {"components", "intersections", "horizontal", "weierstrass", "expected_rank"}
_COMPONENT_KEYS = {"name", "genus", "self"}


def graph_to_json(graph: FibreGraph, horizontal: HorizontalDivisor | None = None) -> dict:
    doc: dict = {
        "components": [
            {"name": c.name, "genus": c.genus, "self": c.self_intersection} for c in graph.components
        ],
        "intersections": [[a, b, k] for a, b, k in graph.edges],
    }
    if horizontal is not None:
        doc["horizontal"] = {name: horizontal.multiplicities[name] for name in sorted(horizontal.multiplicities)}
    return doc


def graph_from_json(doc: object) -> tuple[FibreGraph, HorizontalDivisor | None]:
    """Parse the fibre JSON document; unknown keys are rejected.

    The optional ``weierstrass`` and ``expected_rank`` keys emitted by the
    catalogue are tolerated and ignored here.
    """
    if not isinstance(doc, dict):
        raise FibreFormatError("fibre document must be a JSON object")
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise FibreFormatError(f"unknown keys in fibre document: {sorted(unknown)}")
    if "components" not in doc:
        raise FibreFormatError("fibre document needs a 'components' list")
    raw_components = doc["components"]
    if not isinstance(raw_components, list):
        raise FibreFormatError("'components' must be a list")
    components = []
    for entry in raw_components:
        if not isinstance(entry, dict):
            raise FibreFormatError("each component must be an object")
        unknown = set(entry) - _COMPONENT_KEYS
        if unknown:
            raise FibreFormatError(f"unknown keys in component entry: {sorted(unknown)}")
        if "name" not in entry or "self" not in entry:
            raise FibreFormatError("component entries need 'name' and 'self'")
        name, self_int = entry["name"], entry["self"]
        genus = entry.get("genus", 0)
        if not isinstance(name, str) or not _is_int(self_int) or not _is_int(genus):
            raise FibreFormatError(f"malformed component entry for {name!r}")
        if genus < 0:
            raise FibreFormatError(f"component {name!r} has negative genus")
        components.append(Component(name, genus=genus, self_intersection=self_int))
    raw_intersections = doc.get("intersections", [])
    if not isinstance(raw_intersections, list):
        raise FibreFormatError("'intersections' must be a list")
    intersections = []
    for entry in raw_intersections:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FibreFormatError(f"intersection entries must be [name, name, count], got {entry!r}")
        a, b, k = entry
        if not isinstance(a, str) or not isinstance(b, str) or not _is_int(k):
            raise FibreFormatError(f"malformed intersection entry {entry!r}")
        intersections.append((a, b, k))
    try:
        graph = FibreGraph(components, intersections)
    except ValueError as exc:
        raise FibreFormatError(str(exc)) from None
    horizontal = None
    if "horizontal" in doc:
        raw = doc["horizontal"]
        if not isinstance(raw, dict):
            raise FibreFormatError("'horizontal' must be an object")
        for name, k in raw.items():
            if name not in graph.names:
                raise FibreFormatError(f"horizontal divisor references unknown component {name!r}")
            if not _is_int(k):
                raise FibreFormatError(f"horizontal multiplicity for {name!r} must be an integer")
        horizontal = HorizontalDivisor(dict(raw))
    return graph, horizontal
