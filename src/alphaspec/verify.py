"""Desk-scale verification of the extremal bounds.

``exhaustive_max`` maximizes the radius over every isomorphism class of
order n with matching number beta and compares observed maximum and
argmax structure against the regime prediction.  ``family_search`` does
the same over the structured join families at orders where exhaustion is
impossible.  Reports are machine-checkable records with a stable field
order, one line per (n, beta, alpha).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Sequence

from .enumeration import (
    canonical_graph,
    enumerate_graphs,
    map_chunks,
    resolve_jobs,
)
from .graphs import Graph, read_graph6_file, to_graph6
from .matching import matching_number
from .spectral import JoinFamily, family_radius, one_clique_family, spectral_radius
from .theorem import RegimeVerdict, as_fraction, classify_regime

DEFAULT_REPORT_TOL = 1e-9
FAMILY_MATCH_TOL = 1e-8


# -- reports -----------------------------------------------------------

REPORT_FIELDS = (
    "n",
    "beta",
    "alpha",
    "observed_max",
    "argmax_certificates",
    "predicted_max",
    "predicted_certificates",
    "value_pass",
    "structure_pass",
    "tol",
    "graphs_scanned",
    "wall_time",
)

REPORT_CSV_HEADER = ",".join(REPORT_FIELDS)


@dataclass(frozen=True)
class VerificationReport:
    """One verified (n, beta, alpha) record.

    ``value_pass`` (observed max equals predicted within tol) and
    ``structure_pass`` (argmax classes are exactly the predicted ones)
    are recorded independently: a value tie achieved by an unexpected
    graph must stay visible.
    """

    n: int
    beta: int
    alpha: Fraction
    observed_max: float
    argmax_certificates: tuple[str, ...]
    predicted_max: float
    predicted_certificates: tuple[str, ...]
    value_pass: bool
    structure_pass: bool
    tol: float
    graphs_scanned: int
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.value_pass and self.structure_pass

    def to_json_line(self) -> str:
        record = {
            "n": self.n,
            "beta": self.beta,
            "alpha": str(self.alpha),
            "observed_max": self.observed_max,
            "argmax_certificates": list(self.argmax_certificates),
            "predicted_max": self.predicted_max,
            "predicted_certificates": list(self.predicted_certificates),
            "value_pass": self.value_pass,
            "structure_pass": self.structure_pass,
            "tol": self.tol,
            "graphs_scanned": self.graphs_scanned,
            "wall_time": self.wall_time,
        }
        return json.dumps(record)

    @classmethod
    def from_json_line(cls, line: str) -> "VerificationReport":
        record = json.loads(line)
        return cls(
            n=record["n"],
            beta=record["beta"],
            alpha=Fraction(record["alpha"]),
            observed_max=record["observed_max"],
            argmax_certificates=tuple(record["argmax_certificates"]),
            predicted_max=record["predicted_max"],
            predicted_certificates=tuple(record["predicted_certificates"]),
            value_pass=record["value_pass"],
            structure_pass=record["structure_pass"],
            tol=record["tol"],
            graphs_scanned=record["graphs_scanned"],
            wall_time=record["wall_time"],
        )

    def to_csv_row(self) -> str:
        return ",".join(
            [
                str(self.n),
                str(self.beta),
                str(self.alpha),
                repr(self.observed_max),
                ";".join(self.argmax_certificates),
                repr(self.predicted_max),
                ";".join(self.predicted_certificates),
                str(self.value_pass).lower(),
                str(self.structure_pass).lower(),
                repr(self.tol),
                str(self.graphs_scanned),
                repr(self.wall_time),
            ]
        )

    def to_human(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"n={self.n} beta={self.beta} alpha={self.alpha} "
            f"observed={self.observed_max:.10f} predicted={self.predicted_max:.10f} "
            f"value={'ok' if self.value_pass else 'MISMATCH'} "
            f"structure={'ok' if self.structure_pass else 'MISMATCH'} "
            f"argmax=[{' '.join(self.argmax_certificates)}] "
            f"scanned={self.graphs_scanned} [{verdict}]"
        )


# -- exhaustive scan ---------------------------------------------------


@dataclass(frozen=True)
class _ScanEntry:
    rows: tuple[int, ...]
    beta: int
    rho: float


def _scan_chunk(rows_list: Sequence[tuple[int, ...]], n: int, alpha: float) -> list[tuple[int, float]]:
    out = []
    for rows in rows_list:
        g = Graph(n, rows)
        out.append((matching_number(g), spectral_radius(g, alpha).rho))
    return out


def _scan_order(
    n: int,
    alpha: Fraction,
    jobs: int | None = None,
    source: str | None = None,
) -> list[_ScanEntry]:
    """Per-class (matching number, radius) for every class of order n,
    from the built-in census or from the graph6 file ``source``."""
    jobs = resolve_jobs(jobs)
    graphs = None if source is None else read_graph6_file(source)
    rows_list = [g.rows for g in enumerate_graphs(n, jobs=jobs, source=graphs)]
    parts = map_chunks(_scan_chunk, rows_list, jobs, n, float(alpha))
    values: list[tuple[int, float]] = [None] * len(rows_list)
    for start, part in enumerate(parts):
        values[start :: len(parts)] = part
    return [_ScanEntry(rows, beta, rho) for rows, (beta, rho) in zip(rows_list, values)]


def exhaustive_max(
    n: int,
    beta: int,
    alpha,
    tol: float = DEFAULT_REPORT_TOL,
    jobs: int | None = None,
    source: str | None = None,
) -> VerificationReport:
    """Scan every class of order n with matching number beta and compare
    the observed maximum radius against the regime prediction.

    Argmax ties are collected within 10*tol of the maximum (exact ties in
    the threshold regime must be caught, distinct near-values must not be
    merged).
    """
    start = time.perf_counter()
    verdict = classify_regime(n, beta, as_fraction(alpha))
    entries = _scan_order(n, verdict.alpha, jobs=jobs, source=source)
    return _report(entries, verdict, tol, start)


def _report(entries: list[_ScanEntry], verdict: RegimeVerdict, tol: float, start: float) -> VerificationReport:
    """The record for ``verdict``'s (n, beta, alpha) from one scan of order n."""
    n, beta = verdict.n, verdict.beta
    hits = [e for e in entries if e.beta == beta]
    if not hits:
        raise ValueError(f"no graphs of order {n} with matching number {beta}")
    observed = max(e.rho for e in hits)
    tie_tol = 10.0 * tol
    argmax = [e for e in hits if e.rho >= observed - tie_tol]
    predicted = _predicted_graphs(verdict)
    return VerificationReport(
        n=n,
        beta=beta,
        alpha=verdict.alpha,
        observed_max=observed,
        argmax_certificates=_certificates(Graph(n, e.rows) for e in argmax),
        predicted_max=verdict.predicted_rho,
        predicted_certificates=_certificates(predicted),
        value_pass=abs(observed - verdict.predicted_rho) <= tol,
        structure_pass=_argmax_matches((e.rows for e in argmax), predicted),
        tol=tol,
        graphs_scanned=len(entries),
        wall_time=time.perf_counter() - start,
    )


def _certificates(graphs: Iterable[Graph]) -> tuple[str, ...]:
    """Sorted graph6 strings of the canonical forms, so one class prints
    the same whichever labelling it came with."""
    return tuple(sorted(to_graph6(canonical_graph(g)) for g in graphs))


def _predicted_graphs(verdict: RegimeVerdict) -> list[Graph]:
    """The graphs of the verdict's extremal families; at order 0, where
    no join family exists, the one graph of that order."""
    if verdict.n == 0:
        return [Graph(0, ())]
    return [family.graph() for family in verdict.extremal_families]


def _degrees(rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(r.bit_count() for r in rows))


def _argmax_matches(argmax_rows: Iterable[tuple[int, ...]], predicted: Sequence[Graph]) -> bool:
    """Every argmax class has the degree sequence of a predicted graph and
    every predicted graph is realized.

    The extremal graphs are threshold graphs, hence the unique
    realizations of their degree sequences, so sorted degrees are an exact
    isomorphism certificate here (checked exhaustively in the tests).
    """
    return {_degrees(rows) for rows in argmax_rows} == {_degrees(g.rows) for g in predicted}


def verify_order(
    n: int,
    alpha,
    tol: float = DEFAULT_REPORT_TOL,
    jobs: int | None = None,
    source: str | None = None,
) -> list[VerificationReport]:
    """One report per feasible beta >= 1 at order n, all from one scan."""
    a = as_fraction(alpha)
    entries = _scan_order(n, a, jobs=jobs, source=source)
    present = {e.beta for e in entries}
    return [
        _report(entries, classify_regime(n, beta, a), tol, time.perf_counter())
        for beta in range(1, n // 2 + 1)
        if beta in present
    ]


# -- family search -----------------------------------------------------


@dataclass(frozen=True)
class FamilySearchResult:
    n: int
    beta: int
    alpha: Fraction
    best: JoinFamily
    rho: float
    families_scanned: int
    canonical_shape: bool
    matches_prediction: bool


def _partitions_at_most(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into at most ``slots`` positive parts,
    nonincreasing order."""
    def rec(remaining: int, cap: int, left: int, prefix: list[int]):
        if remaining == 0:
            yield tuple(prefix)
            return
        if left == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, left - 1, prefix)
            prefix.pop()

    yield from rec(total, total if total else 1, slots, [])


def candidate_families(n: int, beta: int) -> Iterator[JoinFamily]:
    """Every join family of order n realizing matching number beta:
    core size s in [0, beta], q = n + s - 2*beta odd parts."""
    if n < 2 * beta + 1:
        raise ValueError(f"need n >= 2*beta + 1, got n={n}, beta={beta}")
    for s in range(0, beta + 1):
        q = n + s - 2 * beta
        for mparts in _partitions_at_most(beta - s, q):
            parts = tuple(sorted([2 * m + 1 for m in mparts] + [1] * (q - len(mparts))))
            yield JoinFamily(s, parts)


def family_search(n: int, beta: int, alpha) -> FamilySearchResult:
    """Maximize the radius over all join families of order n with
    matching number beta; record whether the winner has the expected
    one-big-clique shape and matches the regime prediction."""
    a = as_fraction(alpha)
    af = float(a)
    best: JoinFamily | None = None
    best_rho = -inf
    scanned = 0
    for family in candidate_families(n, beta):
        rho = family_radius(family, af)
        scanned += 1
        if rho > best_rho:
            best_rho = rho
            best = family
    expected = one_clique_family(n, beta, best.s)
    verdict = classify_regime(n, beta, a)
    matches = (
        abs(best_rho - verdict.predicted_rho) <= FAMILY_MATCH_TOL
        and best in verdict.extremal_families
    )
    return FamilySearchResult(
        n=n,
        beta=beta,
        alpha=a,
        best=best,
        rho=best_rho,
        families_scanned=scanned,
        canonical_shape=best.parts == expected.parts,
        matches_prediction=matches,
    )


def shift_monotonicity_check(family: JoinFamily, alpha) -> bool:
    """True iff moving two vertices from the second-largest part to the
    largest strictly raises the radius (evaluated on both quotients)."""
    if family.q < 2:
        raise ValueError("shift check needs at least two parts")
    if family.parts[-2] < 3:
        raise ValueError("second-largest part must have at least 3 vertices")
    af = float(as_fraction(alpha))
    return family_radius(family.shifted(), af) > family_radius(family, af)
