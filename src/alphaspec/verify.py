"""Desk-scale verification of the extremal bounds.

``verify_order`` scans every isomorphism class of order n once and, for
each matching number beta, maximizes the radius over the classes with
that beta and compares observed maximum and argmax structure against
the regime prediction.  ``_scan_order`` alone cuts the scan, one
array of row words, into slices of ``RADII_BATCH_ENTRIES`` matrix
entries; each takes its matching numbers from one ``matching_numbers``
call on its words and its radii from one ``spectral_radii`` call, which
unpacks its 0/1 matrices once, so no class is handled one at a time.
The records of one scan take their certificates from one canonical
batch.
``family_search`` does the same over the structured join families at
orders where exhaustion is impossible.  Reports are machine-checkable
records with a stable field order, one line per (n, beta, alpha).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import islice
from math import inf, isqrt
from typing import Iterator, Sequence

import numpy as np

from . import enumeration
from .enumeration import _canonical_forms, map_chunks, resolve_jobs
from .enumeration import canonical_graph  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .graphs import Graph, read_graph6_file, stack_rows, to_graph6
from .matching import matching_number  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .matching import matching_numbers
from .spectral import FamilyBatch, JoinFamily, _check_tol, family_radius, one_clique_family, spectral_radii
from .spectral import spectral_radius  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .theorem import RegimeVerdict, as_fraction, classify_regime

DEFAULT_REPORT_TOL = 1e-9
# Candidates a family search may scan: (120, 50) has 1,235,010.  Larger
# searches are refused before any candidate is generated.
FAMILY_MAX_CANDIDATES = 2_000_000
# Candidate-table rows solved as one batch, so each cell array and
# secular-term array of a batch stays below a megabyte (at most 11 cells
# a row under the cap: 4,096 rows of 11 float (size, count) pairs take
# 704 KB).
FAMILY_CHUNK_ROWS = 1 << 12
# Matrix entries (graphs times n**2) of one exhaustive-scan slice: its
# stacked matrices take 512 KB of float64, 1,024 graphs of order 8.
# Larger slices scan no faster and raise peak memory.  A slice's subset
# DP takes 2**n entries a graph: 387 graphs at order 13 is a 3.2 M-entry
# table, below 2**22 (4 MB of uint8).
RADII_BATCH_ENTRIES = 1 << 16


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


@dataclass(frozen=True, eq=False)
class _Scan:
    """Every class of one order scanned at one alpha: class i has the bit
    rows ``rows[i]`` (a ``stack_rows`` array), matching number ``beta[i]``
    and radius ``rho[i]``."""

    rows: np.ndarray
    beta: np.ndarray
    rho: np.ndarray


def _scan_chunk(rows: np.ndarray, n: int, alpha: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """The matching numbers (one ``matching_numbers`` call, on the row
    words) and radii (one ``spectral_radii`` call, which unpacks the 0/1
    matrices once) of one slice of classes of order n, given as one
    ``stack_rows`` array of graphs already built."""
    return matching_numbers(n, rows), spectral_radii(n, rows, alpha)


def _scan_order(n: int, alpha: Fraction, jobs: int = 1, source: str | None = None) -> _Scan:
    """Every class of order n, from the built-in census or from the graph6
    file ``source``, with its matching number and radius.

    The classes' bit rows are stacked into one ``stack_rows`` array
    (uint16 words at census orders), and each contiguous slice of
    ``RADII_BATCH_ENTRIES // n**2`` classes (at least one) of it is one
    ``_scan_chunk``; the results are joined in order.  The census is
    reached through ``enumeration.isomorphism_classes``, so each class is
    a ``Graph`` on the way from the level's array to the scan's.
    """
    resolve_jobs(jobs)
    if source is None:
        # looked up on the module, so a wrapper placed there (perfbench/tracing.py) is reached
        rows_list = [g.rows for g in enumeration.isomorphism_classes(n, jobs=jobs)]
    else:
        rows_list = []
        for line, g in read_graph6_file(source):
            if g.n != n:
                raise ValueError(f"line {line}: graph has order {g.n}, expected {n}")
            rows_list.append(g.rows)
        if not rows_list:
            raise ValueError(f"graph6 file {source} holds no graph: nothing to verify")
    rows = stack_rows(n, rows_list)
    step = max(1, RADII_BATCH_ENTRIES // max(1, n * n))
    slices = [rows[first : first + step] for first in range(0, len(rows), step)]
    beta, rho = zip(*map_chunks(_scan_chunk, slices, jobs, n, alpha))
    return _Scan(rows, np.concatenate(beta), np.concatenate(rho))


def _reports(scan: _Scan, verdicts: Sequence[RegimeVerdict], tol: float, start: float) -> list[VerificationReport]:
    """The record for each of ``verdicts``, (n, beta, alpha) points of one
    scan of order n, each with a beta some class has.

    Argmax ties are collected within 10*tol of the maximum (exact ties in
    the threshold regime must be caught, distinct near-values must not be
    merged).  The argmax classes and predicted graphs of all verdicts are
    canonicalized as one batch and split per record.
    """
    if not verdicts:
        return []
    n = verdicts[0].n
    observed, counts, batch = [], [], []
    for verdict in verdicts:
        hits = scan.beta == verdict.beta
        observed.append(float(scan.rho[hits].max()))
        found = scan.rows[hits & (scan.rho >= observed[-1] - 10.0 * tol)].tolist()
        expected = [family.graph().rows for family in verdict.extremal_families]
        counts.append((len(found), len(expected)))
        batch += found + expected
    certificates = iter(_certificates(n, batch))
    reports = []
    for verdict, value, (found, expected) in zip(verdicts, observed, counts):
        argmax_certificates = tuple(sorted(islice(certificates, found)))
        predicted_certificates = tuple(sorted(islice(certificates, expected)))
        reports.append(
            VerificationReport(
                n=n,
                beta=verdict.beta,
                alpha=verdict.alpha,
                observed_max=value,
                argmax_certificates=argmax_certificates,
                predicted_max=verdict.predicted_rho,
                predicted_certificates=predicted_certificates,
                value_pass=abs(value - verdict.predicted_rho) <= tol,
                structure_pass=set(argmax_certificates) == set(predicted_certificates),
                tol=tol,
                graphs_scanned=len(scan.rho),
                wall_time=time.perf_counter() - start,
            )
        )
    return reports


def _certificates(n: int, rows_list: Sequence[Sequence[int]]) -> list[str]:
    """The graph6 strings of the canonical forms of the graphs of order n
    with bit rows ``rows_list``, in order and from one batch, so one class
    prints the same whichever labelling it came with."""
    return [to_graph6(Graph._from_valid_rows(n, canon)) for canon in _canonical_forms(n, rows_list)]


def verify_order(
    n: int,
    alpha,
    tol: float = DEFAULT_REPORT_TOL,
    jobs: int = 1,
    source: str | None = None,
) -> list[VerificationReport]:
    """One report per feasible beta >= 1 at order n, all from one scan.

    The census of order n holds no class with beta >= 1 only at n <= 1,
    where the empty list is the complete answer; a graph6 file without
    such a graph raises ValueError instead.
    """
    _check_tol(tol)
    start = time.perf_counter()
    a = as_fraction(alpha)
    scan = _scan_order(n, a, jobs=jobs, source=source)
    present = np.flatnonzero(np.bincount(scan.beta)).tolist()  # np.unique would import numpy.ma
    reports = _reports(scan, [classify_regime(n, beta, a) for beta in present if beta >= 1], tol, start)
    if source is not None and not reports:
        raise ValueError(f"graph6 file {source} holds no graph with matching number 1 or more: nothing to verify")
    return reports


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
    if beta < 0 or n < 2 * beta + 1:
        raise ValueError(f"need n >= 2*beta + 1 and beta >= 0, got n={n}, beta={beta}")
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

    Block s, rows ``start[s]`` to ``start[s + 1]``, holds the candidates
    with core size s: the partitions of beta - s into at most q = n + s -
    2*beta parts (their halves), in decreasing lexicographic order of
    their nonincreasing halves.  Row i is W + 1 cells of ``cells``, each
    a uint8 (size, count) pair.  Cell 0 is (1, the row's number of parts
    of size 3 or more); the q minus that many parts of size 1 can exceed
    a uint8, so each batch counts them from the core size.  Cells 1 to W
    hold the parts of size 3 or more: ``count`` parts of odd ``size``,
    right-aligned with sizes ascending, so the last column holds the
    largest part, and the columns left of the row's cells are empty
    (size 1, count 0).  A partition of beta has at most W distinct
    halves, W(W + 1)/2 <= beta, so a row takes 2W + 2 bytes.  The cap
    bounds beta by 63 (``family_count(129, 64)`` exceeds it), so sizes
    up to 127, counts and part counts fit a uint8.
    """

    cells: np.ndarray
    start: list[int]


def _candidate_table(n: int, beta: int) -> _CandidateTable:
    """The candidate table of the search for (n, beta).

    Block s holds the partitions of t = beta - s.  Those with largest
    half v are v prepended to the partitions of t - v with largest half
    at most v, which are a suffix of block s + v (rows are in decreasing
    lexicographic order), so each block is built from rows of blocks
    already built, smallest t first.  Within that suffix the rows whose
    largest half is v come first: each takes one more part in its last
    cell, and every later row shifts its cells one column left and ends
    with the new cell (2v + 1, 1).  Block s + v keeps every partition
    with at most q + v parts, which covers the q - 1 that block s needs.

    A block is one gather whatever the number of its pieces (t, one per
    largest half v).  The table is one buffer of 2-byte cells with a
    spare cell at its end, read through overlapping windows of W cells
    that start at every cell: cells 1 to W of a source row are the window
    at its cell 1, and its row shifted one column left is the window one
    cell on, whose last cell (the next row's cell 0, or the spare cell)
    the new cell overwrites.
    """
    start = np.concatenate(([0], np.cumsum(list(_core_counts(n, beta))[::-1]))).tolist()
    rows, width = start[-1], (isqrt(8 * beta + 1) - 1) // 2
    buffer = np.ones(rows * (width + 1) + 1, dtype="<u2").view(np.uint8)  # every cell (1, 0)
    cells = buffer[:-2].reshape(rows, width + 1, 2)
    table = _CandidateTable(cells, start)
    if beta == 0:  # the one row is the empty partition
        return table
    # a row's cells 1..W as one item, and the window of W cells at each cell
    item = np.dtype((np.void, 2 * width))
    body = np.ndarray((rows,), item, buffer, offset=2, strides=(2 * width + 2,))
    windows = np.ndarray(((rows - 1) * (width + 1) + 3,), item, buffer, strides=(2,))
    last = buffer[:-2].view("<u2").reshape(rows, width + 1)[:, -1]  # size + 256 * count
    parts = cells[:, 0, 1]
    # tails[t][v]: the first row of block beta - t whose largest half is
    # at most v, relative to the block (for v = 0 the block's end unless
    # t = 0, whose one row is the empty partition)
    tails: list[list[int]] = [[0]]
    for t in range(1, beta + 1):
        s = beta - t
        # each piece v = t..1 as two runs of source rows: those whose
        # largest half is v, whose last cell counts one more part (new
        # size 0), then the rest, shifted, with the new cell of size 2v + 1
        runs, size = [], []
        for v in range(t, 0, -1):
            base, tail_v = start[s + v], tails[t - v]
            lo, mid = base + tail_v[min(v, t - v)], base + tail_v[min(v - 1, t - v)]
            runs += ((lo, mid), (mid, start[s + v + 1]))
            size += (0, 2 * v + 1)
        first, stop = np.array(runs).T
        length = stop - first
        offset = np.cumsum(length) - length  # of each run among the candidates
        limit = n + s - 2 * beta
        if limit <= t:  # else no partition of t has too many parts
            # the candidates' keep mask from byte slices, so only the
            # kept rows take an index
            keep = np.concatenate([parts[lo:hi] for lo, hi in runs]) < limit
            src = np.flatnonzero(keep)
            length[length > 0] = np.add.reduceat(keep, offset[length > 0], dtype=np.intp)
        else:
            src = np.arange(offset[-1] + length[-1])
        src += np.repeat(first - offset, length)  # candidate to source row
        src_parts = parts[src]
        row, end = start[s], start[s + 1]
        new = np.repeat(np.array(size, dtype=np.uint16), length)
        shifted = new > 0
        src *= width + 1  # the window at the row's cell 1, or one cell on
        src += shifted
        src += 1
        body[row:end] = windows[src]
        np.copyto(last[row:end], new, where=shifted)
        last[row:end] += 256
        np.add(src_parts, 1, out=parts[row:end])
        tails.append([0, *np.cumsum(length[0::2] + length[1::2]).tolist()][::-1])
    return table


def _candidate_batches(n: int, beta: int) -> Iterator[FamilyBatch]:
    """The candidates of the search as batches, in candidate order.

    The table is read ``FAMILY_CHUNK_ROWS`` rows at a time and each chunk
    is one batch: its cells cast to float in one pass, with cell 0's part
    count replaced by the parts of size 1, q minus it, so the batch's
    sizes and counts are the two halves of that one array.  An empty
    cell (size 1, count 0) has the secular term w_p / (lam - d_p)
    exactly 0 and its 2 x 2 start value is the core diagonal c, no
    larger than any nonempty cell's: each row's radius is the float it
    has without the empty cells.
    """
    table = _candidate_table(n, beta)
    bounds = np.array(table.start)
    for first in range(0, len(table.cells), FAMILY_CHUNK_ROWS):
        cells = table.cells[first : first + FAMILY_CHUNK_ROWS].astype(float)
        core = np.repeat(np.arange(beta + 1.0), np.diff(bounds.clip(first, first + len(cells))))
        sizes, counts = cells[:, :, 0], cells[:, :, 1]
        np.subtract(core + (n - 2 * beta), counts[:, 0], out=counts[:, 0])
        yield FamilyBatch(core, sizes, counts)


def candidate_families(n: int, beta: int) -> Iterator[JoinFamily]:
    """Every join family of order n realizing matching number beta:
    core size s in [0, beta], q = n + s - 2*beta odd parts, in candidate
    order.  Like ``family_search`` it refuses more than
    ``FAMILY_MAX_CANDIDATES``."""
    _check_cap(n, beta)
    for batch in _candidate_batches(n, beta):
        for i in range(len(batch.s)):
            yield batch.family(i)


def family_search(n: int, beta: int, alpha) -> FamilySearchResult:
    """Maximize the radius over all join families of order n with
    matching number beta; record whether the winner has the expected
    one-big-clique shape and matches the regime prediction.

    The candidate count is checked against ``FAMILY_MAX_CANDIDATES``
    before any is generated.  The candidates are rows of one array table,
    read ``FAMILY_CHUNK_ROWS`` at a time as one ``FamilyBatch`` whose
    radii come from one vectorised Newton solve of the rows' secular
    functions.  The winner is the first maximum in candidate order, as in
    a one-family-at-a-time scan.
    """
    a = as_fraction(alpha)
    _check_cap(n, beta)
    best_rho, best = -inf, None
    scanned = 0
    for batch in _candidate_batches(n, beta):
        radii = family_radius(batch, a)
        i = int(np.argmax(radii))
        if radii[i] > best_rho:
            best_rho, best = float(radii[i]), batch.family(i)
        scanned += len(radii)
    verdict = classify_regime(n, beta, a)
    matches = best in verdict.extremal_families and best_rho == verdict.predicted_rho
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
