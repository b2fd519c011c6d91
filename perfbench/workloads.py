"""Seeded inputs, operations and the per-op correctness gate.

Every workload draws its operations from a finite, seed-independent
universe of op keys, so the committed reference digests
(``reference.json``) cover every seed: the seed picks which keys run and in
what order, never what a key computes.  Each round of a run takes one op
from every stratum of the universe ranked by baseline cost (also in
``reference.json``, frozen at the commit that defined the benchmark), so a
run's cost profile is nearly the same from seed to seed and the
percentiles stay steady.

Each op returns its raw result; ``canonical`` turns it into bytes whose
sha256 is compared with the reference, and ``gate`` runs the independent
checks, which use no g2chow code except ``closed_form_vertical``, the
catalogue's own closed-form tables.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from g2chow import boundary_engine, cli, consani_complex, exactlin, fibre_model, parshin_catalog

WORKLOADS = ("catalog-certify", "fibre-docs", "torus-complex")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Rounds whose inputs are generated during set-up; a run that needs more
# rounds reuses them cyclically, so set-up work does not depend on speed.
SETUP_ROUNDS = 16
# how strongly each workload's stratified picks favour cheap ops; tuned so
# that a 30-second run completes well over 100 ops
CATALOG_SKEW = 1.6
FIBRE_SKEW = 1.2
TORUS_SKEW = 1.3


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` names what it computes, ``spec`` says how."""

    key: str
    spec: tuple


@dataclass
class Inputs:
    """Generated inputs of one run: op rounds plus each op's payload."""

    workload: str
    prefix: list[Op]
    rounds: list[list[Op]]
    payloads: dict

    def ops(self):
        """Unbounded stream of batches: the prefix with the first round,
        then the other rounds cyclically."""
        yield self.prefix + self.rounds[0]
        index = 1
        while True:
            yield self.rounds[index % len(self.rounds)]
            index += 1

    def digest(self) -> str:
        """sha256 of the op sequence and every payload's content."""
        doc = [[op.key for op in self.prefix], [[op.key for op in r] for r in self.rounds], self.payloads]
        text = json.dumps(doc, sort_keys=True, default=lambda m: [[str(x) for x in row] for row in m.rows])
        return hashlib.sha256(text.encode()).hexdigest()


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in [lo, hi], one per equal-width stratum."""
    return [lo + int((hi - lo + 1) * (k + rng.random()) / count) for k in range(count)]


def _pick(rng: random.Random, ranked: list[Op], count: int, skew: float) -> list[Op]:
    """``count`` ops from ``ranked`` (sorted by baseline cost), one from the
    middle half of each stratum of the rank distribution ``len * u**skew``;
    ``skew`` > 1 favours cheap ops.  A stratum holds ops of similar cost, so
    the seed changes which ops run but hardly the run's cost profile."""
    return [ranked[int(len(ranked) * ((k + 0.25 + rng.random() / 2) / count) ** skew)] for k in range(count)]


# --- catalog-certify -------------------------------------------------------

CATALOG_CASES = ("II", "III", "IV", "V", "VI", "VII")
CATALOG_SIZES = range(8, 65, 2)
# jacobian type 1: certify reports a lower bound only and exits 1
BOUND_ONLY = ("I", "IV")


def catalog_params(case: str, components: int) -> dict[str, int]:
    """Parameters of ``case`` giving about ``components`` components."""
    c = components
    if case == "II":
        return {"n": c // 2}
    if case == "III":
        k = (c + 2) // 2
        return {"n": k // 2, "m": k - k // 2}
    if case == "IV":
        return {"r": c - 2}
    if case == "V":
        m = max(1, c // 4)
        return {"r": c - 1 - 2 * m, "m": m}
    if case == "VI":
        n = max(1, c // 6)
        return {"s": c - 4 * n, "n": n, "m": n}
    if case == "VII":
        k = (c + 2) // 2
        r = k // 3
        s = (k - r) // 2
        return {"r": r, "s": s, "t": k - r - s}
    raise ValueError(f"no catalogue sizing for case {case}")


def catalog_argv(command: str, case: str, components: int | None) -> list[str]:
    params = {} if components is None else catalog_params(case, components)
    argv = [command, "--case", case]
    for name in parshin_catalog.param_names(case):
        argv += [f"--{name}", str(params[name])]
    specs = parshin_catalog.default_cycle_specs(case, params)
    if command == "solve":
        argv += ["--cycle", ":".join(specs[0])]
    elif command == "boundary":
        argv += ["--cycle", ":".join(specs[-1])]
    return argv + ["--format", "json"]


def catalog_op(command: str, case: str, components: int | None) -> Op:
    size = "" if components is None else f":c{components}"
    return Op(f"{command}:{case}{size}", (command, case, components))


def catalog_universe() -> list[Op]:
    ops = [catalog_op("certify", "I", None)]
    for case in CATALOG_CASES:
        for c in CATALOG_SIZES:
            for command in ("certify", "solve", "boundary"):
                ops.append(catalog_op(command, case, c))
    return ops


def _catalog_round(rng: random.Random, index: int, ranked: list[Op]) -> list[Op]:
    ops = [catalog_op("certify", "I", None)]
    ops += _pick(rng, [op for op in ranked if op.spec[1] != "I"], 18, CATALOG_SKEW)
    rng.shuffle(ops)
    return ops


def _catalog_payloads(ops: list[Op]) -> dict:
    return {op.key: catalog_argv(*op.spec) for op in ops}


def run_catalog(op: Op, payload: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(payload))
    return code, out.getvalue(), err.getvalue()


def _mod_constant(values: dict[str, Fraction], reference: dict[str, Fraction]) -> bool:
    if set(values) != set(reference):
        return False
    return len({values[name] - reference[name] for name in reference}) == 1


def _catalog_gate(op: Op, payload: list[str], result) -> str | None:
    command, case, components = op.spec
    code, out, err = result
    params = {} if components is None else catalog_params(case, components)
    expected_code = 1 if command == "certify" and case in BOUND_ONLY else 0
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if err:
        return f"unexpected stderr {err.strip()!r}"
    doc = json.loads(out)
    if command == "certify":
        expected_verdict = "bound-only" if case in BOUND_ONLY else "pass"
        if doc["verdict"] != expected_verdict:
            return f"verdict {doc['verdict']}, expected {expected_verdict}"
        if doc["coefficient_rank"] != doc["pairing_rank"]:
            return "coefficient and pairing ranks differ"
        placements = [tuple(cycle.split(":")) for cycle in doc["cycles"]]
        halves = [{k: Fraction(v) / 2 for k, v in vec.items()} for vec in doc["vectors"]]
    else:
        placements = [tuple(payload[payload.index("--cycle") + 1].split(":"))]
        values = {k: Fraction(v) for k, v in doc["coefficients"].items()}
        halves = [values if command == "solve" else {k: v / 2 for k, v in values.items()}]
    for (p, q), values in zip(placements, halves):
        reference = boundary_engine.closed_form_vertical(case, params, p, q)
        if reference is not None and not _mod_constant(values, reference):
            return f"{p}:{q} disagrees with the closed form"
    return None


def _catalog_canonical(result) -> bytes:
    code, out, err = result
    return f"{code}\n{out}\n{err}".encode()


# --- fibre-docs -------------------------------------------------------------

# valid documents stay small enough for a run to hold over 100 of them
VALID_SIZES = range(10, 23)
INVALID_SIZES = range(10, 41)
FIBRE_VARIANTS = 8
INVALID_KINDS = ("row_sums_zero", "negative_semidefinite", "connectivity")
INVALID_VARIANTS = 2
SOLVES_PER_DOC = 16
_PRIME = (1 << 61) - 1


def _random_fibre(rng: random.Random, n: int, prefix: str) -> tuple[list[dict], dict[tuple[str, str], int]]:
    """Connected multigraph: a core tree plus extra multi-edges, with the
    remaining components spent on short chains of (-2)-curves."""
    core = [f"{prefix}{i}" for i in range(max(2, n // 3))]
    mult: dict[tuple[str, str], int] = {}

    def join(a: str, b: str, k: int) -> None:
        key = (a, b) if a < b else (b, a)
        mult[key] = mult.get(key, 0) + k

    for i in range(1, len(core)):
        join(core[i], core[rng.randrange(i)], rng.randint(1, 2))
    for _ in range(len(core) // 2):
        a, b = rng.sample(core, 2)
        join(a, b, rng.randint(1, 3))
    names = list(core)
    chain = 0
    while len(names) < n:
        length = min(rng.randint(1, 3), n - len(names))
        links = [f"{prefix}L{chain}_{j}" for j in range(length)]
        chain += 1
        names += links
        a, b = rng.choice(core), rng.choice(core)
        if a == b and length == 1:
            join(a, links[0], 2)
        else:
            path = [a] + links + [b]
            for u, v in zip(path, path[1:]):
                join(u, v, 1)
    degree = dict.fromkeys(names, 0)
    for (a, b), k in mult.items():
        degree[a] += k
        degree[b] += k
    genus = {name: (rng.choice((0, 0, 1, 2)) if name in core else 0) for name in names}
    components = [{"name": name, "genus": genus[name], "self": -degree[name]} for name in names]
    rng.shuffle(components)
    return components, mult


def _divisors(rng: random.Random, names: list[str]) -> list[tuple[dict[str, int], tuple[str, int]]]:
    out = []
    while len(out) < SOLVES_PER_DOC:
        support = rng.sample(names, rng.randint(2, 4))
        values = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in support[:-1]]
        last = -sum(values)
        if last == 0:
            continue
        divisor = dict(zip(support, values + [last]))
        out.append((divisor, (rng.choice(names), rng.randint(-2, 2))))
    return out


def fibre_op(kind: str, n: int, variant: int) -> Op:
    return Op(f"{kind}:n{n}:v{variant}", (kind, n, variant))


def fibre_universe() -> list[Op]:
    ops = [fibre_op("valid", n, v) for n in VALID_SIZES for v in range(FIBRE_VARIANTS)]
    ops += [fibre_op(k, n, v) for k in INVALID_KINDS for n in INVALID_SIZES for v in range(INVALID_VARIANTS)]
    return ops


def fibre_payload(op: Op) -> tuple[str, list]:
    """The fibre JSON document (serialised) and the divisors solved on it."""
    kind, n, variant = op.spec
    rng = random.Random(f"fibre-docs:{op.key}")
    if kind == "connectivity":
        first = n // 2
        comps, mult = _random_fibre(rng, first, "P")
        more, more_mult = _random_fibre(rng, n - first, "Q")
        comps, mult = comps + more, {**mult, **more_mult}
    else:
        comps, mult = _random_fibre(rng, n, "C")
    if kind in ("row_sums_zero", "negative_semidefinite"):
        victim = rng.choice(comps)
        victim["self"] += -1 if kind == "row_sums_zero" else 1
    edges = sorted(mult.items())
    rng.shuffle(edges)
    doc: dict = {"components": comps, "intersections": [[a, b, k] for (a, b), k in edges]}
    divisors = []
    if kind == "valid":
        divisors = _divisors(rng, [c["name"] for c in comps])
        doc["horizontal"] = divisors[0][0]
    return json.dumps(doc), divisors


def _fibre_round(rng: random.Random, index: int, ranked: list[Op]) -> list[Op]:
    sizes = _stratified(rng, 3, INVALID_SIZES[0], INVALID_SIZES[-1])
    ops = [fibre_op(INVALID_KINDS[(index + k) % len(INVALID_KINDS)], n, rng.randrange(INVALID_VARIANTS))
           for k, n in enumerate(sizes)]
    ops += _pick(rng, [op for op in ranked if op.spec[0] == "valid"], 13, FIBRE_SKEW)
    rng.shuffle(ops)
    return ops


def _fibre_payloads(ops: list[Op]) -> dict:
    return {op.key: fibre_payload(op) for op in ops}


def run_fibre(op: Op, payload):
    text, divisors = payload
    graph, horizontal = fibre_model.graph_from_json(json.loads(text))
    report = fibre_model.validate(graph)
    if not report.passed:
        return report, None
    fibre = tuple(Fraction(1) for _ in graph.names)
    solutions = []
    for i, (divisor, normalization) in enumerate(divisors):
        h = horizontal if i == 0 else fibre_model.HorizontalDivisor(divisor)
        solutions.append(boundary_engine.solve_vertical(graph, h, normalization).vector())
    vectors = [fibre] + solutions
    coefficient_rank = exactlin.rank(exactlin.RatMatrix(vectors, ncols=len(graph)))
    gram = exactlin.gram(vectors, fibre_model.intersection_matrix(graph))
    return report, (graph.names, solutions, coefficient_rank, gram, exactlin.rank(gram))


def _rank_mod_p(rows: list[list[int]]) -> int:
    rows = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], _PRIME - 2, _PRIME)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % _PRIME
            if f:
                rows[i] = [(x - f * y) % _PRIME for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fibre_gate(op: Op, payload, result) -> str | None:
    kind = op.spec[0]
    report, solved = result
    failed = [check.name for check in report.checks if not check.passed]
    if kind != "valid":
        if kind not in failed:
            return f"validate did not fail {kind} (failures: {failed})"
        return None
    if failed:
        return f"valid document failed validate: {failed}"
    text, divisors = payload
    doc = json.loads(text)
    selfs = {c["name"]: c["self"] for c in doc["components"]}
    neighbours: dict[str, list[tuple[str, int]]] = {name: [] for name in selfs}
    for a, b, k in doc["intersections"]:
        neighbours[a].append((b, k))
        neighbours[b].append((a, k))
    names, solutions, coefficient_rank, gram, gram_rank = solved
    horizontals = []
    for (divisor, (norm_name, norm_value)), vector in zip(divisors, solutions):
        a = dict(zip(names, vector))
        if a[norm_name] != norm_value:
            return f"gauge {norm_name}={norm_value} not respected"
        for name in names:
            pairing = selfs[name] * a[name] + sum(k * a[other] for other, k in neighbours[name])
            if pairing + divisor.get(name, 0) != 0:
                return f"residual at {name} is nonzero"
        horizontals.append([divisor.get(name, 0) for name in names])
    if coefficient_rank != 1 + _rank_mod_p(horizontals):
        return "coefficient rank differs from 1 + rank of the horizontal divisors"
    if gram_rank != coefficient_rank - 1:
        return "gram rank differs from coefficient rank minus one"
    for i, row in enumerate(gram.rows):
        for j, value in enumerate(row):
            expected = 0 if i == 0 or j == 0 else -sum(
                x * h for x, h in zip(solutions[i - 1], horizontals[j - 1])
            )
            if value != expected:
                return f"gram entry ({i}, {j}) disagrees with -a_i.H_j"
    return None


def _fibre_canonical(result) -> bytes:
    report, solved = result
    doc: dict = {"checks": [[c.name, c.passed, c.witness] for c in report.checks]}
    if solved is not None:
        names, solutions, coefficient_rank, gram, gram_rank = solved
        doc["names"] = list(names)
        doc["solutions"] = [[exactlin.format_rat(x) for x in v] for v in solutions]
        doc["coefficient_rank"] = coefficient_rank
        doc["gram"] = [[exactlin.format_rat(x) for x in row] for row in gram.rows]
        doc["gram_rank"] = gram_rank
    return json.dumps(doc, sort_keys=True).encode()


# --- torus-complex ----------------------------------------------------------

CYCLE_SIZES = range(6, 21)
COMPLEX_SIZES = range(6, 21, 2)
# first Betti number of the dual graph of each catalogue family
CASE_BETTI = {"II": 1, "III": 2, "IV": 0, "V": 1, "VI": 2, "VII": 2}


def torus_op(kind: str, *size) -> Op:
    return Op(f"{kind}:" + "x".join(str(s) for s in size), (kind,) + size)


def torus_universe() -> list[Op]:
    ops = [torus_op("cycle", n) for n in CYCLE_SIZES]
    ops += [torus_op("torus", 3, 3), torus_op("torus", 4, 4)]
    ops += [torus_op("fibre", case, c) for case in CATALOG_CASES for c in COMPLEX_SIZES]
    return ops


def _kulikov_iistar(spec: tuple) -> exactlin.RatMatrix:
    """Intersection matrix of the dual graph's vertices: minus the graph
    Laplacian of the cycle or of the standard torus triangulation."""
    if spec[0] == "cycle":
        n = spec[1]
        pairs = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    else:
        n1, n2 = spec[1], spec[2]
        n = n1 * n2
        pairs = set()
        for i in range(n1):
            for j in range(n2):
                v = i * n2 + j
                for di, dj in ((1, 0), (0, 1), (1, 1)):
                    w = (i + di) % n1 * n2 + (j + dj) % n2
                    pairs.add((min(v, w), max(v, w)))
    rows = [[0] * n for _ in range(n)]
    for a, b in pairs:
        rows[a][b] += 1
        rows[b][a] += 1
        rows[a][a] -= 1
        rows[b][b] -= 1
    return exactlin.RatMatrix(rows, ncols=n)


def _torus_round(rng: random.Random, index: int, ranked: list[Op]) -> list[Op]:
    ops = [torus_op("torus", 3, 3)]
    ops += _pick(rng, [op for op in ranked if op.spec[0] != "torus"], 15, TORUS_SKEW)
    rng.shuffle(ops)
    return ops


def _torus_payloads(ops: list[Op]) -> dict:
    return {op.key: (_kulikov_iistar(op.spec) if op.spec[0] != "fibre" else None) for op in ops}


def run_torus(op: Op, payload):
    kind = op.spec[0]
    if kind == "fibre":
        graph = parshin_catalog.build_case(op.spec[1], **catalog_params(op.spec[1], op.spec[2])).graph
        cx = consani_complex.complex_from_fibre_graph(graph)
        iistar = fibre_model.intersection_matrix(graph)
    else:
        cx = parshin_catalog.build_kulikov_complex(2 if kind == "cycle" else 3, *op.spec[1:])
        iistar = payload
    report = consani_complex.check_identities(cx)
    ranks = [consani_complex.pch_rank(cx, w, 0, iistar) for w in (1, 2, 3)]
    return [len(cx.strata(r)) for r in range(1, cx.depth + 1)], report, ranks


def _torus_gate(op: Op, payload, result) -> str | None:
    _, report, ranks = result
    for identity in ("gamma_squared", "rho_squared"):
        if not report.entries(identity) or not report.holds(identity):
            return f"{identity} does not vanish"
    kind = op.spec[0]
    if kind == "cycle":
        expected = (1, 1, 0)
    elif kind == "torus":
        expected = (1, 2, 1)
    else:
        expected = (1, CASE_BETTI[op.spec[1]], 0)
    got = tuple(r.quotient_dim for r in ranks)
    if got != expected:
        return f"subquotient dimensions {got}, expected {expected}"
    return None


def _torus_canonical(result) -> bytes:
    sizes, report, ranks = result
    doc = {
        "strata_sizes": sizes,
        "identities": [[c.identity, c.degree, c.convention, c.holds, c.witness] for c in report.checks],
        "pch": [r.to_json() for r in ranks],
    }
    return json.dumps(doc, sort_keys=True).encode()


# --- dispatch ---------------------------------------------------------------

_ROUND = {"catalog-certify": _catalog_round, "fibre-docs": _fibre_round, "torus-complex": _torus_round}
_PAYLOADS = {"catalog-certify": _catalog_payloads, "fibre-docs": _fibre_payloads, "torus-complex": _torus_payloads}
RUN = {"catalog-certify": run_catalog, "fibre-docs": run_fibre, "torus-complex": run_torus}
_GATE = {"catalog-certify": _catalog_gate, "fibre-docs": _fibre_gate, "torus-complex": _torus_gate}
_CANONICAL = {"catalog-certify": _catalog_canonical, "fibre-docs": _fibre_canonical, "torus-complex": _torus_canonical}
UNIVERSE = {"catalog-certify": catalog_universe, "fibre-docs": fibre_universe, "torus-complex": torus_universe}


def generate(workload: str, seed: int) -> Inputs:
    """All inputs of one run, reproducible from ``(workload, seed)``."""
    cost = _load()["baseline_ms"][workload]
    ranked = sorted(UNIVERSE[workload](), key=lambda op: (cost[op.key], op.key))
    rounds = [_ROUND[workload](random.Random(f"{workload}:{seed}:{r}"), r, ranked) for r in range(SETUP_ROUNDS)]
    # the 4x4 torus costs about as much as a whole round, so every run
    # carries exactly one of it rather than a seed-dependent number
    prefix = [torus_op("torus", 4, 4)] if workload == "torus-complex" else []
    ops = {op.key: op for op in prefix + [op for r in rounds for op in r]}
    payloads = _PAYLOADS[workload](list(ops.values()))
    return Inputs(workload, prefix, rounds, payloads)


def payload_for(workload: str, op: Op):
    return _PAYLOADS[workload]([op])[op.key]


def digest(workload: str, result) -> str:
    return hashlib.sha256(_CANONICAL[workload](result)).hexdigest()[:24]


def _load() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_reference() -> dict[str, dict[str, str]]:
    """Reference output digest of every op key, per workload."""
    return _load()["digests"]


def check(workload: str, op: Op, payload, result, reference: dict[str, str]) -> tuple[str, str | None]:
    """Digest of the op's canonical output and the first failure found:
    a digest that differs from (or is missing in) the reference, or a
    failed independent check."""
    got = digest(workload, result)
    want = reference.get(op.key)
    if want is None:
        return got, f"{op.key}: no reference digest"
    if got != want:
        return got, f"{op.key}: digest {got} differs from reference {want}"
    problem = gate(workload, op, payload, result)
    return got, (f"{op.key}: {problem}" if problem else None)


def gate(workload: str, op: Op, payload, result) -> str | None:
    """The workload's independent checks; None when all pass."""
    return _GATE[workload](op, payload, result)
