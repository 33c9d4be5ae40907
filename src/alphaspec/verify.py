"""Desk-scale verification of the extremal bounds.

``verify_order`` scans every isomorphism class of order n once and, for
each matching number beta, maximizes the radius over the classes with
that beta and compares observed maximum and argmax structure against
the regime prediction.  ``family_search`` does
the same over the structured join families at orders where exhaustion is
impossible.  Reports are machine-checkable records with a stable field
order, one line per (n, beta, alpha).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Sequence

import numpy as np

from .enumeration import (
    canonical_graph,
    enumerate_graphs,
    map_chunks,
    resolve_jobs,
)
from .graphs import Graph, read_graph6_file, to_graph6
from .matching import matching_number
from .spectral import FamilyBatch, JoinFamily, family_radius, one_clique_family, spectral_radii
from .spectral import spectral_radius  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .theorem import RegimeVerdict, as_fraction, classify_regime

DEFAULT_REPORT_TOL = 1e-9
FAMILY_MATCH_TOL = 1e-8
# Candidates a family search may scan: (120, 50) has 1,235,010.  Larger
# searches are refused before any candidate is generated.
FAMILY_MAX_CANDIDATES = 2_000_000
# Candidate-table rows turned into batches at a time, so the cell arrays
# and the secular terms of a large search stay a few tens of megabytes.
FAMILY_CHUNK_ROWS = 1 << 14


# -- reports -----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """One verified (n, beta, alpha) record.

    ``value_pass`` (observed max equals predicted within tol) and
    ``structure_pass`` (the argmax certificates are exactly the predicted
    ones) are recorded independently: a value tie achieved by an
    unexpected graph must stay visible.
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

    def record(self) -> dict:
        """The fields in declaration order as JSON values: ``alpha`` as
        its exact string, tuples as lists."""
        values = ((name, getattr(self, name)) for name in REPORT_FIELDS)
        return {
            name: str(value) if isinstance(value, Fraction) else list(value) if isinstance(value, tuple) else value
            for name, value in values
        }

    def to_json_line(self) -> str:
        return json.dumps(self.record())

    @classmethod
    def from_json_line(cls, line: str) -> "VerificationReport":
        record = json.loads(line)
        record["alpha"] = Fraction(record["alpha"])
        record["argmax_certificates"] = tuple(record["argmax_certificates"])
        record["predicted_certificates"] = tuple(record["predicted_certificates"])
        return cls(**record)

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


REPORT_FIELDS = tuple(f.name for f in fields(VerificationReport))


# -- exhaustive scan ---------------------------------------------------


@dataclass(frozen=True)
class _ScanEntry:
    rows: tuple[int, ...]
    beta: int
    rho: float


def _scan_chunk(rows_list: Sequence[tuple[int, ...]], n: int, alpha: float) -> list[tuple[int, float]]:
    """(matching number, radius) per class of order n, given by the rows of
    graphs already built; the radii of the whole chunk come from one
    ``spectral_radii`` call."""
    radii = spectral_radii(n, rows_list, alpha).tolist()
    return [(matching_number(Graph._from_valid_rows(n, rows)), rho) for rows, rho in zip(rows_list, radii)]


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


def _report(entries: list[_ScanEntry], verdict: RegimeVerdict, tol: float, start: float) -> VerificationReport:
    """The record for ``verdict``'s (n, beta, alpha) from one scan of order
    n that holds a class with that beta.

    Argmax ties are collected within 10*tol of the maximum (exact ties in
    the threshold regime must be caught, distinct near-values must not be
    merged).
    """
    n, beta = verdict.n, verdict.beta
    hits = [e for e in entries if e.beta == beta]
    observed = max(e.rho for e in hits)
    tie_tol = 10.0 * tol
    argmax = [e for e in hits if e.rho >= observed - tie_tol]
    argmax_certificates = _certificates(Graph._from_valid_rows(n, e.rows) for e in argmax)
    predicted_certificates = _certificates(family.graph() for family in verdict.extremal_families)
    return VerificationReport(
        n=n,
        beta=beta,
        alpha=verdict.alpha,
        observed_max=observed,
        argmax_certificates=argmax_certificates,
        predicted_max=verdict.predicted_rho,
        predicted_certificates=predicted_certificates,
        value_pass=abs(observed - verdict.predicted_rho) <= tol,
        structure_pass=set(argmax_certificates) == set(predicted_certificates),
        tol=tol,
        graphs_scanned=len(entries),
        wall_time=time.perf_counter() - start,
    )


def _certificates(graphs: Iterable[Graph]) -> tuple[str, ...]:
    """Sorted graph6 strings of the canonical forms, so one class prints
    the same whichever labelling it came with."""
    return tuple(sorted(to_graph6(canonical_graph(g)) for g in graphs))


def verify_order(
    n: int,
    alpha,
    tol: float = DEFAULT_REPORT_TOL,
    jobs: int | None = None,
    source: str | None = None,
) -> list[VerificationReport]:
    """One report per feasible beta >= 1 at order n, all from one scan."""
    start = time.perf_counter()
    a = as_fraction(alpha)
    entries = _scan_order(n, a, jobs=jobs, source=source)
    present = {e.beta for e in entries}
    return [
        _report(entries, classify_regime(n, beta, a), tol, start)
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


def _check_search(n: int, beta: int) -> None:
    if beta < 0 or n < 2 * beta + 1:
        raise ValueError(f"need n >= 2*beta + 1 and beta >= 0, got n={n}, beta={beta}")


def _core_counts(n: int, beta: int) -> Iterator[int]:
    """The number of candidates with core size s, for s = beta down to 0,
    from the partition-count recurrence P(t, k) = P(t, k-1) + P(t-k, k)
    (partitions of t into at most k parts), without generating any."""
    rows: list[list[int]] = []  # rows[t][k] = P(t, k) for k <= t
    for s in range(beta, -1, -1):
        remaining, slots = beta - s, n + s - 2 * beta
        while len(rows) <= remaining:
            t = len(rows)
            row = [1 if t == 0 else 0]
            for k in range(1, t + 1):
                row.append(row[k - 1] + rows[t - k][min(k, t - k)])
            rows.append(row)
        yield rows[remaining][min(slots, remaining)]


def family_count(n: int, beta: int) -> int:
    """Number of join families ``candidate_families(n, beta)`` yields,
    counted without generating any.

    Core sizes are counted from s = beta down, so the partitioned totals
    beta - s grow; once the running count exceeds
    ``FAMILY_MAX_CANDIDATES`` it is returned as it stands, a lower bound
    above the cap.  The core size ceil(beta/2) alone contributes
    p(floor(beta/2)) candidates, so a large beta stops after a few dozen
    small rows of the recurrence.
    """
    _check_search(n, beta)
    total = 0
    for count in _core_counts(n, beta):
        total += count
        if total > FAMILY_MAX_CANDIDATES:
            break
    return total


def _check_cap(n: int, beta: int) -> None:
    count = family_count(n, beta)
    if count > FAMILY_MAX_CANDIDATES:
        raise ValueError(
            f"family search for n={n}, beta={beta} has at least {count:,} candidate "
            f"families, more than the cap of {FAMILY_MAX_CANDIDATES:,}"
        )


@dataclass(frozen=True, eq=False)
class _CandidateTable:
    """Every candidate of one search as a row, in candidate order.

    Row i has core size ``core[i]``, ``mult[i, h]`` parts of size 2h + 1
    for each half h >= 1, and ``parts[i]`` parts of size 3 or more; the
    q - parts[i] parts of size 1 (q = n + s - 2*beta) are left out, and
    column 0 is zero.  Within one core size the rows are the partitions
    of beta - s into at most q parts, in decreasing lexicographic order
    of their nonincreasing halves.
    """

    mult: np.ndarray
    core: np.ndarray
    parts: np.ndarray


def _candidate_table(n: int, beta: int) -> _CandidateTable:
    """The candidate table of the search for (n, beta).

    Block s holds the partitions of t = beta - s.  Those with largest
    half v are v prepended to the partitions of t - v with largest half
    at most v, which are a suffix of block s + v (rows are in decreasing
    lexicographic order), so each block is built from slices of blocks
    already built, smallest t first.  Block s + v keeps every partition
    with at most q + v parts, which covers the q - 1 that block s needs.
    The cap bounds beta by 129 (p(65) > ``FAMILY_MAX_CANDIDATES``), so
    multiplicities and part counts fit a uint8.
    """
    counts = list(_core_counts(n, beta))[::-1]
    start = np.concatenate(([0], np.cumsum(counts))).tolist()
    mult = np.zeros((start[-1], beta + 1), dtype=np.uint8)
    parts = np.zeros(start[-1], dtype=np.uint8)
    # tails[t][v]: the first row of block beta - t whose largest half is
    # at most v, relative to the block
    tails: list[list[int]] = [[0]]
    for t in range(1, beta + 1):
        s = beta - t
        limit = n + s - 2 * beta
        row = start[s]
        tail = [0] * (t + 1)
        for v in range(t, 0, -1):
            tail[v] = row - start[s]
            lo, hi = start[s + v] + tails[t - v][min(v, t - v)], start[s + v + 1]
            sub_mult, sub_parts = mult[lo:hi], parts[lo:hi]
            if limit <= t:  # else no partition of t has too many parts
                keep = sub_parts < limit
                sub_mult, sub_parts = sub_mult[keep], sub_parts[keep]
            end = row + len(sub_parts)
            mult[row:end] = sub_mult
            mult[row:end, v] += 1
            parts[row:end] = sub_parts + 1
            row = end
        tails.append(tail)
    core = np.repeat(np.arange(beta + 1, dtype=np.uint8), counts)
    return _CandidateTable(mult, core, parts)


def candidate_families(n: int, beta: int) -> Iterator[JoinFamily]:
    """Every join family of order n realizing matching number beta:
    core size s in [0, beta], q = n + s - 2*beta odd parts.  Like
    ``family_search`` it refuses more than ``FAMILY_MAX_CANDIDATES``."""
    _check_cap(n, beta)
    table = _candidate_table(n, beta)
    for first in range(0, len(table.core), FAMILY_CHUNK_ROWS):
        chunk = slice(first, first + FAMILY_CHUNK_ROWS)
        rows = zip(table.mult[chunk].tolist(), table.core[chunk].tolist(), table.parts[chunk].tolist())
        for mult, s, parts in rows:
            mult[0] = n + s - 2 * beta - parts
            yield JoinFamily(s, tuple((2 * h + 1, count) for h, count in enumerate(mult) if count))


def _candidate_batches(n: int, beta: int) -> Iterator[tuple[np.ndarray, FamilyBatch]]:
    """(candidate indices, batch) for every batch of the search.

    The table is read ``FAMILY_CHUNK_ROWS`` rows at a time.  A chunk's
    rows are sorted by their number of cells, stably, so each cell count
    is one run of rows in candidate order whatever their core sizes;
    ``np.nonzero`` lists the cells of those rows in the same order, each
    row's ascending.  Each run is one batch.
    """
    table = _candidate_table(n, beta)
    for first in range(0, len(table.core), FAMILY_CHUNK_ROWS):
        chunk = slice(first, first + FAMILY_CHUNK_ROWS)
        core = table.core[chunk].astype(float)
        ones = core + (n - 2 * beta) - table.parts[chunk]
        cells = np.count_nonzero(table.mult[chunk], axis=1) + (ones > 0)
        order = np.argsort(cells, kind="stable")
        mult, ones, core = table.mult[chunk][order], ones[order], core[order]
        mult[:, 0] = ones > 0
        row, col = np.nonzero(mult)
        counts = mult[row, col].astype(float)
        size_one = col == 0
        counts[size_one] = ones[row[size_one]]
        sizes = 2.0 * col + 1
        k_values, k_rows = np.unique(cells[order], return_counts=True)
        lo = cell_lo = 0  # first row and first cell of the run
        for k, rows in zip(k_values.tolist(), k_rows.tolist()):
            run, cell = slice(lo, lo + rows), slice(cell_lo, cell_lo + rows * k)
            yield first + order[run], FamilyBatch(core[run], sizes[cell].reshape(-1, k), counts[cell].reshape(-1, k))
            lo += rows
            cell_lo += rows * k


def family_search(n: int, beta: int, alpha) -> FamilySearchResult:
    """Maximize the radius over all join families of order n with
    matching number beta; record whether the winner has the expected
    one-big-clique shape and matches the regime prediction.

    The candidate count is checked against ``FAMILY_MAX_CANDIDATES``
    before any is generated.  The candidates are rows of one array table,
    read ``FAMILY_CHUNK_ROWS`` at a time and grouped by their number of
    distinct part sizes across all core sizes, and each group is one
    ``FamilyBatch`` whose radii come from one vectorised Newton solve of
    the rows' secular functions.  The winner is the first maximum in
    candidate order, as in a one-family-at-a-time scan.
    """
    a = as_fraction(alpha)
    af = float(a)
    _check_cap(n, beta)
    best_rho, best_index, best = -inf, -1, None
    scanned = 0
    for indices, batch in _candidate_batches(n, beta):
        radii = family_radius(batch, af)
        i = int(np.argmax(radii))
        rho = float(radii[i])
        if rho > best_rho or (rho == best_rho and indices[i] < best_index):
            best_rho, best_index, best = rho, indices[i], batch.family(i)
        scanned += len(indices)
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
        canonical_shape=best == one_clique_family(n, beta, best.s),
        matches_prediction=matches,
    )


def shift_monotonicity_check(family: JoinFamily, alpha) -> bool:
    """True iff moving two vertices from the second-largest part to the
    largest strictly raises the radius (evaluated on both quotients);
    ``JoinFamily.shifted`` rejects a family that has no such move."""
    af = float(as_fraction(alpha))
    return family_radius(family.shifted(), af) > family_radius(family, af)
