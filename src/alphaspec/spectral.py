"""The alpha-spectral radius and the small matrices that predict it.

For a graph G and alpha >= 0 the matrix of interest is
``alpha * D(G) + A(G)`` with D the degree diagonal and A the adjacency
matrix; its largest eigenvalue is the alpha-spectral radius rho.  At
alpha = 0 this is the adjacency spectral radius, at alpha = 1 the
signless Laplacian spectral radius.

Beyond the dense computation this module carries the structured join
family K_s v (K_{n_1} u ... u K_{n_q}), whose equal-size parts collapse
the eigenproblem to a symmetric quotient with one cell per distinct part
size plus the core.  Its top eigenvalue is the one root above the cell
diagonals of the core's Schur complement, a secular function solved by
vectorised Newton steps for a whole batch of families at once.  The
module also holds the closed-form radius of the complete split graph
K_b v bar(K_{n-b}).  The paper's own forms of the family radius (the
cubic of the one-big-clique family, the shift function) and the
whole-matrix oracle live in ``tests/reference.py``, where the tests
check them against this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import sqrt
from typing import Sequence

import numpy as np

from .graphs import Graph, _bits, bit_matrices, row_component_masks

DEFAULT_TOL = 1e-10
# Matrix entries stacked by one ``spectral_radii`` slice (512 KB of
# float64): 1,024 graphs of order 8, 13 of order 70, one of order 256 or
# more.  Larger slices scan no faster and raise peak memory.
RADII_BATCH_ENTRIES = 1 << 16
# Newton steps allowed for one batch of family radii.  The searches of
# (64, 24), (80, 30) and (120, 50) at alpha in {0, 1/2, 1, 2} settle
# within 8.
_SECULAR_STEPS = 64


@dataclass(frozen=True)
class SpectralResult:
    """Radius plus the evidence for it.

    ``perron_vector`` covers the vertices of the achieving component (in
    ``component`` order), normalized to sup-norm 1, all entries positive.
    It is omitted only for an edgeless achieving component at alpha = 0,
    where the block is identically zero.  ``residual`` is
    ``max|A_alpha x - rho x|`` for that vector.
    """

    rho: float
    perron_vector: tuple[float, ...] | None
    component: tuple[int, ...]
    residual: float


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Dense alpha * D + A for the whole graph."""
    return alpha_matrices(g.n, [g.rows], alpha)[0]


def alpha_matrices(n: int, rows_list: Sequence[Sequence[int]], alpha: float) -> np.ndarray:
    """alpha * D + A of m graphs of order n given by their bit rows, as one
    (m, n, n) float array."""
    alpha = _check_alpha(alpha)
    mats = bit_matrices(n, rows_list).astype(float)
    diag = np.arange(n)
    mats[:, diag, diag] = alpha * mats.sum(axis=2)
    return mats


@dataclass(frozen=True, eq=False)
class _BlockSolve:
    """Top eigenpairs of the component blocks of one size k >= 2 across a
    batch: block i is component ``seq[i]`` in walk order (graph by graph,
    each graph's components by smallest member), belongs to graph
    ``owner[i]`` and covers its vertices ``verts[i]``, ascending."""

    seq: np.ndarray
    owner: np.ndarray
    verts: np.ndarray
    rho: np.ndarray
    vectors: np.ndarray
    residual: np.ndarray


def _solve_components(
    n: int, rows_list: Sequence[Sequence[int]], alpha: float, tol: float
) -> tuple[list[tuple[int, int]], list[_BlockSolve]]:
    """Every component of every graph, as (graph, mask) in walk order, and
    the top eigenpairs of the blocks of two or more vertices.

    The blocks of one size are gathered from the stacked matrices by one
    fancy index and solved by one stacked ``eigh``, which gives the same
    floats as one ``eigh`` per block.  On a component the top eigenvalue
    is simple with a positive eigenvector (Perron-Frobenius), so each
    vector is the top eigenvector scaled to sup-norm 1.  The residual
    ``max|A_alpha x - rho x|`` of each pair is measured, not assumed: if
    one exceeds ``tol``, ValueError names the first in walk order.
    """
    comps = [(i, mask) for i, rows in enumerate(rows_list) for mask in row_component_masks(n, rows)]
    groups: dict[int, list[int]] = {}
    for j, (_, mask) in enumerate(comps):
        if mask.bit_count() > 1:
            groups.setdefault(mask.bit_count(), []).append(j)
    if not groups:
        return comps, []
    mats = alpha_matrices(n, rows_list, alpha)
    solves = []
    for k, seq in groups.items():
        owner = np.array([comps[j][0] for j in seq])
        verts = np.array([v for j in seq for v in _bits(comps[j][1])]).reshape(-1, k)
        blocks = mats[owner[:, None, None], verts[:, :, None], verts[:, None, :]]
        values, vectors = np.linalg.eigh(blocks)
        rho = values[:, -1]
        x = vectors[:, :, -1]
        x = x / np.take_along_axis(x, np.argmax(np.abs(x), axis=1)[:, None], axis=1)
        residual = np.max(np.abs((blocks @ x[..., None])[..., 0] - rho[:, None] * x), axis=1)
        solves.append(_BlockSolve(np.array(seq), owner, verts, rho, x, residual))
    failed = [(int(b.seq[i]), float(b.residual[i])) for b in solves for i in np.flatnonzero(b.residual > tol)]
    if failed:
        res = min(failed)[1]
        raise ValueError(f"eigenpair residual {res:.3e} exceeds tolerance {tol:g}")
    return comps, solves


def spectral_radii(
    n: int, rows_list: Sequence[Sequence[int]], alpha: float, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Largest eigenvalue of alpha * D + A for each graph of order n given
    by its bit rows (those of valid graphs, such as ``Graph.rows``; they
    are not checked again), by ``spectral_radius``'s solve run over the
    whole batch: a graph's radius is the maximum over its component
    blocks, a single vertex counting 0.

    The graphs are solved ``RADII_BATCH_ENTRIES // n**2`` at a time (at
    least one), so the stacked matrices of a slice stay a few megabytes.
    """
    alpha = _check_alpha(alpha)
    _check_tol(tol)
    radii = np.zeros(len(rows_list))
    step = max(1, RADII_BATCH_ENTRIES // max(1, n * n))
    for first in range(0, len(rows_list), step):
        _, solves = _solve_components(n, rows_list[first : first + step], alpha, tol)
        for b in solves:
            np.maximum.at(radii, first + b.owner, b.rho)
    return radii


def spectral_radius(g: Graph, alpha: float, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of alpha * D + A with its Perron vector.

    The batch of one of ``spectral_radii``: each connected component
    block is solved by the dense symmetric eigensolver and the first
    component that attains the maximum is reported, with its eigenpair's
    residual (a residual above ``tol`` raises ValueError).
    """
    alpha = _check_alpha(alpha)
    _check_tol(tol)
    if g.n == 0:
        return SpectralResult(0.0, None, (), 0.0)
    comps, solves = _solve_components(g.n, [g.rows], alpha, tol)
    singleton = (1.0,) if alpha > 0 else None
    results = [SpectralResult(0.0, singleton, (mask.bit_length() - 1,), 0.0) for _, mask in comps]
    for b in solves:
        for i, j in enumerate(b.seq.tolist()):
            results[j] = SpectralResult(
                float(b.rho[i]), tuple(b.vectors[i].tolist()), tuple(b.verts[i].tolist()), float(b.residual[i])
            )
    return max(results, key=lambda r: r.rho)  # the first of equal maxima


# -- join families -----------------------------------------------------


@dataclass(frozen=True)
class JoinFamily:
    """K_s v (K_{n_1} u ... u K_{n_q}) with odd parts, held as cells.

    ``cells`` is ``((size, count), ...)``: ``count`` parts of each odd
    ``size``, sizes strictly ascending and counts at least 1, so each
    family has one value and equal parts share one quotient cell.
    ``parts`` is the ascending list of part sizes, a derived view.

    The realized order is s + sum(parts) and the realized matching number
    is s + sum((n_i - 1) / 2): pair up inside each odd clique, then match
    every core vertex to one of the q leftover part vertices.  That count
    needs q >= s, which the constructor enforces; with q < s the stated
    matching number would overshoot (K_3 v K_1 is K_4 with matching 2,
    not 3).
    """

    s: int
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("core size must be nonnegative")
        if len(self.cells) == 0:
            raise ValueError("at least one part is required")
        sizes = [p for p, _ in self.cells]
        if any(p < 1 or p % 2 == 0 for p in sizes):
            raise ValueError(f"part sizes must be odd and positive, got {self.cells}")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"part sizes must be strictly ascending, got {self.cells}")
        if any(count < 1 for _, count in self.cells):
            raise ValueError(f"part counts must be positive, got {self.cells}")
        if self.s > self.q:
            raise ValueError(
                f"core size {self.s} exceeds part count {self.q}; "
                "the family would not realize its stated matching number"
            )

    @classmethod
    def of_parts(cls, s: int, parts: Sequence[int]) -> "JoinFamily":
        """The family with core size ``s`` and the ascending part sizes
        ``parts``.  Parts out of order make repeated or descending cell
        sizes, which the constructor rejects."""
        return cls(s, tuple((p, len(list(group))) for p, group in groupby(parts)))

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(p for p, count in self.cells for _ in range(count))

    @property
    def q(self) -> int:
        return sum(count for _, count in self.cells)

    @property
    def order(self) -> int:
        return self.s + sum(p * count for p, count in self.cells)

    @property
    def beta(self) -> int:
        return self.s + sum((p - 1) // 2 * count for p, count in self.cells)

    def graph(self) -> Graph:
        """Concrete graph with the core clique labeled first and the part
        cliques after it in ascending size.  Each vertex is labeled by
        its part (-1 for the core); two vertices are adjacent when one is
        in the core or both are in one part, so the whole 0/1 matrix is
        one array expression, validated once by ``from_bit_matrix``."""
        part = np.repeat(np.arange(-1, self.q), (self.s,) + self.parts)
        mat = (part[:, None] == part) | (part[:, None] < 0) | (part < 0)
        np.fill_diagonal(mat, False)
        return Graph.from_bit_matrix(mat)

    def shifted(self) -> "JoinFamily":
        """Move two vertices from the second-largest part to the largest."""
        if self.q < 2:
            raise ValueError("need at least two parts to shift")
        parts = list(self.parts)
        if parts[-2] < 3:
            raise ValueError("second-largest part must have at least 3 vertices")
        parts[-2] -= 2
        parts[-1] += 2
        return JoinFamily.of_parts(self.s, sorted(parts))


def complete_split_family(n: int, beta: int) -> JoinFamily:
    """K_beta v bar(K_{n-beta}) seen as a join family (all parts are 1)."""
    if not n > beta >= 1:
        raise ValueError(f"need n > beta >= 1, got n={n}, beta={beta}")
    return JoinFamily(beta, ((1, n - beta),))


def one_clique_family(n: int, beta: int, s: int) -> JoinFamily:
    """K_s v (K_{2b-2s+1} u bar(K_{q-1})) with q = n + s - 2*beta."""
    if not 0 <= s <= beta:
        raise ValueError(f"need 0 <= s <= beta, got s={s}, beta={beta}")
    if n < 2 * beta + 1:
        raise ValueError(f"need n >= 2*beta + 1, got n={n}, beta={beta}")
    q = n + s - 2 * beta
    if s == beta:
        return JoinFamily(s, ((1, q),))
    ones = ((1, q - 1),) if q > 1 else ()
    return JoinFamily(s, ones + ((2 * beta - 2 * s + 1, 1),))


@dataclass(frozen=True, eq=False)
class FamilyBatch:
    """Join families with one number k of distinct part sizes, as rows of
    cells: family i has core size ``s[i]`` and ``counts[i, j]`` parts of
    size ``sizes[i, j]``, sizes ascending along j.  ``s`` has shape (m,)
    and the cell arrays (m, k), all float64, exact for integers below
    2**53, so products never wrap as fixed-width integers would."""

    s: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, family: JoinFamily) -> "FamilyBatch":
        """The batch of one holding ``family``."""
        cells = np.array([family.cells], dtype=float)
        return cls(np.array([family.s], dtype=float), cells[:, :, 0], cells[:, :, 1])

    def family(self, i: int) -> JoinFamily:
        """Row ``i`` as a ``JoinFamily``."""
        cells = zip(self.sizes[i].tolist(), self.counts[i].tolist())
        return JoinFamily(int(self.s[i]), tuple((int(p), int(count)) for p, count in cells))


def family_radius(family: JoinFamily | FamilyBatch, alpha: float):
    """Radius of the family graph: the secular root for s >= 1, the
    largest clique for the disconnected s = 0 case.  A ``JoinFamily``
    gives a float, a ``FamilyBatch`` the array of its rows' radii,
    whatever their core sizes; each row's radius is the same float
    whichever batch it is solved in."""
    if isinstance(family, JoinFamily):
        return float(family_radius(FamilyBatch.of(family), alpha)[0])
    alpha = _check_alpha(alpha)
    radii = (alpha + 1) * (family.sizes[:, -1] - 1)
    core = family.s >= 1
    if core.any():
        rows = FamilyBatch(family.s[core], family.sizes[core], family.counts[core])
        radii[core] = _secular_roots(*_secular_terms(rows, alpha))
    return radii


def _secular_terms(batch: FamilyBatch, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, d, w) of the secular function of each row of a batch.

    The parts of one size p form one cell of an equitable partition: a
    cell-p vertex has p - 1 neighbours in its cell and s in the core, a
    core vertex s - 1 in the core and m_p * p in cell p.  Symmetrised by
    the cell sizes, that quotient has diagonal d_p = (alpha+1)(p-1) +
    alpha*s for cell p and c = alpha*(n-1) + s - 1 for the core, and
    sqrt(w_p) with w_p = s * m_p * p between cell p and the core.  Its
    eigenvalues are eigenvalues of the full matrix, and the largest is
    the radius.  For a batch of r rows and k cells ``c`` has shape (r,),
    ``d`` and ``w`` (k, r), one contiguous row per cell.
    """
    s, p, m = batch.s, batch.sizes, batch.counts
    core = s[:, None]
    d = (alpha + 1) * (p - 1) + alpha * core
    w = core * m * p
    c = alpha * (s + (p * m).sum(axis=1) - 1) + s - 1
    return c, np.ascontiguousarray(d.T), np.ascontiguousarray(w.T)


def _secular_roots(c: np.ndarray, d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of each quotient, as the root of the core's
    Schur complement h(lam) = lam - c - sum_p w_p / (lam - d_p).

    Above max d_p, h is increasing and concave with exactly one root.
    The start is the largest top eigenvalue of the 2 x 2 blocks
    [[d_p, sqrt w_p], [sqrt w_p, c]], at or below the root by Cauchy
    interlacing and above max d_p.  From there Newton's method climbs
    monotonically to the root, so each step keeps the larger of lam and
    the Newton point, and the iteration stops when no row changes.
    ValueError is raised if that takes more than ``_SECULAR_STEPS``.
    """
    half = 0.5 * (c - d)
    lam = np.max(0.5 * (c + d) + np.sqrt(half * half + w), axis=0)
    for _ in range(_SECULAR_STEPS):
        h, slope = lam - c, np.ones_like(lam)
        for d_p, w_p in zip(d, w):
            gap = lam - d_p
            term = w_p / gap
            h -= term
            slope += term / gap
        step = np.maximum(lam, lam - h / slope)
        if np.array_equal(step, lam):
            return lam
        lam = step
    raise ValueError(f"family radius: Newton's method did not settle within {_SECULAR_STEPS} steps")


# -- closed forms ------------------------------------------------------


def closed_form_complete_split(n: int, beta: int, alpha: float) -> float:
    """Radius of K_beta v bar(K_{n-beta}) in closed form.

    The larger root of the quadratic from the two-orbit collapse:
    lambda^2 - [alpha*n + (alpha+1)*beta - (alpha+1)] * lambda
             + (alpha^2-1)*beta*n + (alpha+1)*beta^2 - alpha*(alpha+1)*beta.
    """
    if not n > beta >= 1:
        raise ValueError(f"need n > beta >= 1, got n={n}, beta={beta}")
    alpha = _check_alpha(alpha)
    b = alpha * n + (alpha + 1) * beta - (alpha + 1)
    c = (alpha * alpha - 1) * beta * n + (alpha + 1) * beta * beta - alpha * (alpha + 1) * beta
    return 0.5 * b + 0.5 * sqrt(b * b - 4.0 * c)


def _check_tol(tol: float) -> None:
    if tol <= 0:
        raise ValueError("tolerance must be positive")


def _check_alpha(alpha) -> float:
    value = float(alpha)
    if value < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return value

