"""The alpha-spectral radius and the small matrices that predict it.

For a graph G and alpha >= 0 the matrix of interest is
``alpha * D(G) + A(G)`` with D the degree diagonal and A the adjacency
matrix; its largest eigenvalue is the alpha-spectral radius rho.  At
alpha = 0 this is the adjacency spectral radius, at alpha = 1 the
signless Laplacian spectral radius.  ``as_fraction`` is the package's
one check of an alpha, and the numerics take its float once per call.

A graph's rho is the largest over its connected components of the top
eigenvalue of the component's block (the components of a stack of two
or more graphs of order up to ``_CLOSURE_MAX_ORDER`` come from one
reachability closure of their matrices, a single or larger graph's
from a bit walk): from ``eigvalsh`` for a small block, and from Lanczos
with ``eigvalsh`` as its fallback for a block of ``_KRYLOV_MIN_ORDER``
vertices or more.  The Perron vector that evidences it is the converged
Ritz vector of a Lanczos block where that vector is positive and its
residual within the tolerance; every other block's comes from shifted
solves (inverse iteration, one step unless the residual asks for more).
Either way its residual is measured.

Beyond the dense computation this module carries the structured join
family K_s v (K_{n_1} u ... u K_{n_q}), whose equal-size parts collapse
the eigenproblem to a symmetric quotient with one cell per distinct part
size plus the core.  A family that is a clique or a disjoint union of
cliques has the largest clique's radius; any other family's top
eigenvalue is the one root above the cell diagonals of the core's Schur
complement, a secular function solved by vectorised Newton steps for a
whole batch of families at once.  ``family_radius`` is the one route to
a family's radius, the regime bounds included.  The paper's own forms of
the family radius (the complete-split quadratic, the cubic of the
one-big-clique family, the shift function) and the whole-matrix oracle
live in ``tests/reference.py``, where the tests check them against this
module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import numpy as np

from .graphs import Graph, _bits, bit_matrices, row_component_masks

DEFAULT_TOL = 1e-10
# Newton steps allowed for one batch of family radii.  The searches of
# (64, 24), (80, 30) and (120, 50) at alpha in {0, 1/2, 1, 2} settle
# within 8.
_SECULAR_STEPS = 64
# Largest (alpha + 1) * n of a family solved by the secular function: its
# start value squares half the core-cell gap, at most (alpha + 1) * n / 2,
# which stays below the float maximum (1.8e308) up to here.
SECULAR_ORDER_LIMIT = 2e154
# sigma - rho, relative to max(1, rho), in the shifted solve that gives a
# block's Perron vector: 16 to 32 units of rho's last place.  That puts sigma
# far nearer rho than any other eigenvalue, whichever side of the exact
# rho it lands; it must only not be an exact eigenvalue of the float block.
_PERRON_SHIFT = 2.0**-48
# Inverse-iteration steps allowed per block.  One step leaves residuals
# below 1e-12 on the census and on G(n, p) up to n = 400 at alpha <= 2;
# a large alpha * degree takes a second (P_6 at alpha = 1e5: 6.3e-10
# after one step).
_INVERSE_STEPS = 3
# Smallest component block whose top eigenvalue comes from Lanczos
# instead of ``eigvalsh``.  Over seeded G(k, p) blocks of average degree
# 4, 8, 16, k/4 and k/2 at alpha 0 and 2 (2 cores, numpy 2.4 with one or
# two OpenBLAS threads, fallback included), the median ratio of Lanczos
# time to ``eigvalsh`` time was 0.98-1.13 at k = 128, 0.89-0.96 at 144,
# 0.64-0.90 at 160 and 0.49-0.60 at 192; the sparsest blocks, which need
# the most steps, stay slower up to k = 160.
_KRYLOV_MIN_ORDER = 160
# Largest order whose component blocks come from the reachability closure
# of a whole stack instead of a bit walk per graph.  Over scan slices of
# seeded G(n, p) (p = 1/n, 2/n, 0.3; 2 cores, numpy 2.4, one OpenBLAS
# thread, the matrices unpacked for both) the closure took 0.43-0.67 ms
# a slice against 0.98-1.03 ms for the walk at n = 32, as long at n = 40
# and longer from n = 48 on; the order-7 census took 0.50 ms against
# 2.1 ms.  A single graph keeps the walk at every order: the closure's
# fixed numpy calls took 35-48 us against 7-21 us for the walk on one
# graph at n = 8, 16 and 32.
_CLOSURE_MAX_ORDER = 32
# Lanczos steps allowed per block before it falls back to ``eigvalsh``.
# Over seeds 1-20 of G(n, p) with (n, p) from (160, 0.5) to (400, 0.05)
# at alpha in {0, 1/2, 1, 2}, the first step that met the test was 14 to
# 54.  A block that never converges, such as a long path, pays the
# steps on top of ``eigvalsh``.
_KRYLOV_MAX_STEPS = 64
# Steps after which the top Ritz pair is tested, about a quarter apart:
# an ``eigh`` of T took 17 us at 8 steps and 305 us at 64, against about
# 55 us per step at k = 400, so testing every step would cost more than
# the steps it saves.
_KRYLOV_CHECKS = frozenset((8, 12, 16, 20, 25, 32, 40, 50, _KRYLOV_MAX_STEPS))
# Ritz residual, relative to max(1, theta), at which theta is taken as
# rho: theta is then within that residual of an eigenvalue, and within
# its square over the spectral gap of rho.
_RITZ_TOL = 2.0**-50


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


def as_fraction(alpha) -> Fraction:
    """alpha as an exact Fraction, the one check of an alpha: an int, a
    Fraction or a "p/q" or decimal string as it stands, any other real (a
    float, a numpy scalar) by its binary-exact value, so
    ``float(as_fraction(x)) == float(x)``.  A negative, NaN or infinite
    alpha raises ValueError."""
    if isinstance(alpha, numbers.Real) and not isinstance(alpha, numbers.Rational):
        alpha = float(alpha)  # Fraction takes no np.float32
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
    value = Fraction(alpha)
    if value < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return value


def alpha_matrices(n: int, rows_list: Sequence[Sequence[int]], alpha) -> np.ndarray:
    """alpha * D + A of m graphs of order n given by their bit rows, as one
    (m, n, n) float array."""
    alpha = float(as_fraction(alpha))
    return _weighted(bit_matrices(n, rows_list), alpha)


def _weighted(mats: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * D + A of the (m, n, n) 0/1 matrices ``mats``, as float."""
    out = mats.astype(float)
    diag = np.arange(mats.shape[-1])
    out[:, diag, diag] = alpha * out.sum(axis=2)
    return out


@dataclass(frozen=True, eq=False)
class _BlockSolve:
    """Top eigenpairs of the component blocks of one size k >= 2 across a
    batch, in walk order (graph by graph, each graph's components by
    smallest member): block i belongs to graph ``owner[i]`` and covers
    its vertices ``verts[i]``, ascending."""

    owner: np.ndarray
    verts: np.ndarray
    rho: np.ndarray
    vectors: np.ndarray
    residual: np.ndarray


def _closure_labels(mats: np.ndarray) -> np.ndarray:
    """Each vertex's least component member in each of the (m, n, n) 0/1
    matrices ``mats`` (n >= 1), as an (m, n) array.

    u reaches v in at most 2**t steps iff entry (u, v) of (I + A)**(2**t)
    is nonzero.  ceil(log2(n - 1)) squarings of the float32 stack, each
    clipped to 1 so every sum stays an exact small integer, cover every
    path, and the first nonzero entry of row u is u's least reachable
    vertex.
    """
    n = mats.shape[1]
    reach = mats.astype(np.float32)
    diag = np.arange(n)
    reach[:, diag, diag] = 1
    for _ in range(max(n - 2, 0).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    return reach.argmax(axis=2)


def _walk_groups(n: int, rows_list: Sequence[Sequence[int]]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``_component_groups`` of the graphs of order n given by their bit
    rows, as a sequence or as a ``stack_rows`` array (walked as Python
    ints), from one bit walk per graph (``row_component_masks``), which
    meets the blocks in walk order."""
    if isinstance(rows_list, np.ndarray):
        rows_list = rows_list.tolist()
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i, rows in enumerate(rows_list):
        for mask in row_component_masks(n, rows):
            k = mask.bit_count()
            if k > 1:
                owner, verts = groups.setdefault(k, ([], []))
                owner.append(i)
                verts += _bits(mask)
    return {k: (np.array(owner), np.array(verts).reshape(-1, k)) for k, (owner, verts) in groups.items()}


def _component_groups(labels: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The components of two or more vertices of m graphs of order n, from
    each vertex's least component member ``labels`` (m, n), by size k:
    (owner, verts), block i of graph ``owner[i]`` covering its vertices
    ``verts[i]``, ascending, in walk order (graph by graph, each graph's
    blocks by least member).

    A block's id is its graph and its least member, graph * n + label,
    so ids ascend in walk order; one stable sort by id lists each
    block's vertices ascending, the blocks in id order.
    """
    m, n = labels.shape
    block = (np.arange(m)[:, None] * n + labels).ravel()
    size = np.bincount(block, minlength=m * n)
    members = np.argsort(block, kind="stable") % n
    first = np.cumsum(size) - size
    groups = {}
    for k in (np.flatnonzero(np.bincount(size)[2:]) + 2).tolist():
        ids = np.flatnonzero(size == k)
        groups[k] = (ids // n, members[first[ids, None] + np.arange(k)])
    return groups


def _solve_components(n: int, rows_list: Sequence[Sequence[int]], alpha: float, tol: float) -> list[_BlockSolve]:
    """The top eigenpairs of the component blocks of two or more vertices
    of every graph of order n given by its bit rows, one ``_BlockSolve``
    per block size.

    The blocks are grouped by size, (owner, vertices) in walk order: for
    two or more graphs up to order ``_CLOSURE_MAX_ORDER`` by
    ``_component_groups`` from the reachability closure of the whole
    stack of 0/1 matrices (``_closure_labels``), which are unpacked once
    for it and for the blocks; for one graph, or above that order, by one
    bit walk per graph (``_walk_groups``), as a closure's squarings cost
    n**3 log n a graph and its fixed numpy calls outweigh one walk.
    The blocks of one size are gathered from the stacked alpha * D + A by
    one fancy index (whole connected graphs are taken as they are) and
    solved by ``_top_eigenpairs`` as one stack, which gives the same
    floats as one block at a time.  The residual
    ``max|A_alpha x - rho x|`` of each pair is measured, not assumed: if
    one exceeds ``tol``, ValueError names the first by graph, then by
    smallest vertex.
    """
    if n < 2:  # no block of two vertices
        return []
    if len(rows_list) > 1 and n <= _CLOSURE_MAX_ORDER:
        mats = bit_matrices(n, rows_list)
        groups = _component_groups(_closure_labels(mats))
    else:
        groups = _walk_groups(n, rows_list)
        mats = bit_matrices(n, rows_list) if groups else None
    if not groups:
        return []
    weighted = _weighted(mats, alpha)
    solves = []
    for k, (owner, verts) in groups.items():
        if k < n:
            blocks = weighted[owner[:, None, None], verts[:, :, None], verts[:, None, :]]
        else:  # whole graphs, each connected: the same values without the gather
            blocks = weighted if len(owner) == len(weighted) else weighted[owner]
        rho, x, residual = _top_eigenpairs(blocks, tol)
        solves.append(_BlockSolve(owner, verts, rho, x, residual))
    failed = [
        (int(b.owner[i]), int(b.verts[i, 0]), float(b.residual[i]))
        for b in solves
        for i in np.flatnonzero(b.residual > tol)
    ]
    if failed:
        res = min(failed)[2]
        raise ValueError(f"eigenpair residual {res:.3e} exceeds tolerance {tol:g}")
    return solves


def _top_eigenpairs(blocks: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top eigenvalue of each connected block of a stack (m, k, k),
    its eigenvector scaled to sup-norm 1, and the residual
    ``max|B x - rho x|`` of the pair.

    Below ``_KRYLOV_MIN_ORDER`` the top eigenvalues come from one stacked
    ``eigvalsh``; from that order on each block tries ``_lanczos_top``
    first, and only a block it leaves unconverged takes ``eigvalsh``.
    A converged block keeps the Ritz vector as its eigenvector when,
    scaled to sup-norm 1, every entry is positive and its measured
    residual is at most ``tol``; on a graph with a long thin tail the
    Perron entries there fall below the Ritz vector's rounding, which can
    leave some at or below zero.  Every other block gets its eigenvector
    by inverse iteration from the all-ones vector: on a connected block
    the top eigenvalue rho is simple with a positive eigenvector
    (Perron-Frobenius), and solves of (sigma I - B) x_new = x with sigma
    just above rho return it, each step shrinking the other directions by
    (sigma - rho) / (sigma - lambda) against it.  ``eigh`` would build
    all k eigenvectors to keep one.  One step leaves a residual of about
    sigma - rho times the start's weight off the Perron direction; blocks
    still above ``tol`` take another step, up to ``_INVERSE_STEPS`` in
    all.
    """
    m, k = blocks.shape[:2]
    x, residual = np.ones((m, k)), np.full(m, np.inf)
    if k < _KRYLOV_MIN_ORDER:
        rho = np.linalg.eigvalsh(blocks)[:, -1]
    else:
        rho = np.empty(m)
        for i, block in enumerate(blocks):
            rho[i], ritz = _lanczos_top(block)
            if ritz is not None:
                y = _sup_scaled(ritz[None])
                r = _residuals(blocks[i : i + 1], rho[i : i + 1], y)[0]
                if y.min() > 0 and r <= tol:
                    x[i], residual[i] = y[0], r
        slow = np.isnan(rho)
        if slow.any():
            rho[slow] = np.linalg.eigvalsh(blocks[slow])[:, -1]
    for _ in range(_INVERSE_STEPS):
        again = np.flatnonzero(residual > tol)
        if not again.size:
            break
        part = blocks if again.size == m else blocks[again]
        x[again] = _inverse_step(part, rho[again], x[again], _PERRON_SHIFT)
        residual[again] = _residuals(part, rho[again], x[again])
    return rho, x, residual


def _lanczos_top(block: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The top Ritz pair (theta, y) of one connected block B by Lanczos
    with full reorthogonalisation from the all-ones vector, y of unit
    2-norm and either sign, or (NaN, None) if it has not converged within
    ``_KRYLOV_MAX_STEPS`` steps or a squared norm overflows (``eigvalsh``
    scales such a block; this iteration does not).

    Step j extends the orthonormal rows q_0..q_j, stacked in one
    C-contiguous array, by B q_j made orthogonal to all of them (two
    Gram-Schmidt passes), and the tridiagonal T of the projected B by
    its diagonal entry q_j . B q_j and the norm beta_j of the remainder.
    The cosine of the ones vector with the positive Perron vector is at
    least 1 / sqrt(k), so T's top eigenvalue theta approaches rho first
    (Kaniel-Paige-Saad; Parlett, *The Symmetric Eigenvalue Problem*,
    1980, ch. 13).  The top Ritz pair (theta, s) is tested at the steps
    of ``_KRYLOV_CHECKS``, and theta is returned with y = s . q_0..q_j
    once the residual beta_j |s_j| is at most ``_RITZ_TOL`` * max(1,
    theta); that is |B y - theta y| in the 2-norm, up to the rounding of
    the rows' orthogonality.  A remainder that small on its own means the
    rows span an invariant subspace, which holds rho; on a regular block
    that happens at the first step, where the ones vector is the Perron
    vector.
    """
    k = len(block)
    steps = min(k, _KRYLOV_MAX_STEPS)
    q = np.empty((steps, k))
    q[0] = 1 / math.sqrt(k)
    t = np.zeros((steps, steps))
    for j in range(steps):
        basis = q[: j + 1]
        w = block @ q[j]
        h = basis @ w
        w -= h @ basis
        w -= (basis @ w) @ basis
        with np.errstate(over="ignore"):
            t[j, j], beta = h[j], math.sqrt(w @ w)
        if beta == math.inf:  # |w|^2 overflows once rho passes about 1e154
            return math.nan, None
        invariant = beta <= _RITZ_TOL * max(1.0, t[0, 0])  # t[0, 0] <= theta
        if invariant or j + 1 in _KRYLOV_CHECKS:
            theta, s = np.linalg.eigh(t[: j + 1, : j + 1])
            if invariant or beta * abs(s[-1, -1]) <= _RITZ_TOL * max(1.0, theta[-1]):
                return float(theta[-1]), s[:, -1] @ basis
        if j + 1 < steps:
            q[j + 1] = w / beta
            t[j, j + 1] = t[j + 1, j] = beta
    return math.nan, None


def _inverse_step(blocks: np.ndarray, rho: np.ndarray, start: np.ndarray, shift: float) -> np.ndarray:
    """x solving (sigma I - B) x = ``start`` for each block B, sigma =
    rho + ``shift`` * max(1, rho), scaled by ``_sup_scaled``, so that
    rounding which flips the sign of the nearly singular solve flips it
    back.  An exactly zero pivot makes the stacked solve raise; then each
    block is solved alone, and one that is singular again with 16 times
    the shift."""
    k = blocks.shape[-1]
    sigma = rho + shift * np.maximum(1.0, rho)
    shifted = sigma[:, None, None] * np.eye(k) - blocks
    try:
        x = np.linalg.solve(shifted, start[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(blocks) == 1:
            return _inverse_step(blocks, rho, start, 16 * shift)
        return np.concatenate(
            [_inverse_step(blocks[i : i + 1], rho[i : i + 1], start[i : i + 1], shift) for i in range(len(blocks))]
        )
    return _sup_scaled(x)


def _sup_scaled(x: np.ndarray) -> np.ndarray:
    """Each row of x divided by its entry of largest absolute value: sup-norm
    1, with that entry +1 whatever sign the row came with."""
    return x / np.take_along_axis(x, np.argmax(np.abs(x), axis=1)[:, None], axis=1)


def _residuals(blocks: np.ndarray, rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max|B x - rho x| of each block's pair."""
    return np.max(np.abs((blocks @ x[..., None])[..., 0] - rho[:, None] * x), axis=1)


def spectral_radii(n: int, rows_list: Sequence[Sequence[int]], alpha, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Largest eigenvalue of alpha * D + A for each graph of order n given
    by its bit rows, as a sequence or as a ``stack_rows`` array (those of
    valid graphs, such as ``Graph.rows``; they are not checked again), by
    ``spectral_radius``'s solve run over the whole batch: a graph's
    radius is the maximum over its component blocks, a single vertex
    counting 0.

    The batch is solved as one stack of its graphs' n x n matrices,
    unpacked once; the caller bounds it (the exhaustive scan passes
    slices of ``verify.RADII_BATCH_ENTRIES`` entries).
    """
    alpha = float(as_fraction(alpha))
    _check_tol(tol)
    radii = np.zeros(len(rows_list))
    for b in _solve_components(n, rows_list, alpha, tol):
        np.maximum.at(radii, b.owner, b.rho)
    return radii


def spectral_radius(g: Graph, alpha, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of alpha * D + A with its Perron vector.

    The batch of one of ``spectral_radii``: the top eigenvalue of each
    connected component block comes from ``eigvalsh``, or from Lanczos
    for a block of ``_KRYLOV_MIN_ORDER`` vertices or more, its Perron
    vector from Lanczos's Ritz vector where that is positive and within
    ``tol``, else from shifted solves (a residual above ``tol`` raises
    ValueError).  The block with the largest radius is reported, the one
    with the smallest vertex among equal radii, with its eigenpair's
    residual.  A block of two or more vertices holds an edge, so its
    radius is at least 1: only an edgeless graph has no block, and its
    first vertex is reported with radius 0.
    """
    alpha = float(as_fraction(alpha))
    _check_tol(tol)
    if g.n == 0:
        return SpectralResult(0.0, None, (), 0.0)
    solves = _solve_components(g.n, [g.rows], alpha, tol)
    if not solves:
        return SpectralResult(0.0, (1.0,) if alpha > 0 else None, (0,), 0.0)
    # each size's first maximum is its smallest vertex among equal radii
    b, i = max(
        ((b, int(np.argmax(b.rho))) for b in solves),
        key=lambda pick: (pick[0].rho[pick[1]], -pick[0].verts[pick[1], 0]),
    )
    return SpectralResult(
        float(b.rho[i]), tuple(b.vectors[i].tolist()), tuple(b.verts[i].tolist()), float(b.residual[i])
    )


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
        one array expression, symmetric and loop-free as built."""
        part = np.repeat(np.arange(-1, self.q), (self.s,) + self.parts)
        mat = (part[:, None] == part) | (part[:, None] < 0) | (part < 0)
        np.fill_diagonal(mat, False)
        return Graph._from_valid_matrix(mat)


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
    """Join families as rows of k cells: family i has core size ``s[i]``
    and ``counts[i, j]`` parts of size ``sizes[i, j]``, the sizes of its
    nonempty cells ascending along j and the last column holding its
    largest part size.  A cell of count 0 is empty, and one of size 1
    changes no radius wherever it stands left of that column: its secular
    term is exactly 0 and its 2 x 2 start is the core diagonal c, which no
    nonempty cell's start falls below.  ``s`` has shape (m,) and the cell
    arrays (m, k), all float64, exact for integers below 2**53, so
    products never wrap as fixed-width integers would."""

    s: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, family: JoinFamily) -> "FamilyBatch":
        """The batch of one holding ``family``."""
        cells = np.array([family.cells], dtype=float)
        return cls(np.array([family.s], dtype=float), cells[:, :, 0], cells[:, :, 1])

    def family(self, i: int) -> JoinFamily:
        """Row ``i`` as a ``JoinFamily``, its empty cells left out."""
        cells = zip(self.sizes[i].tolist(), self.counts[i].tolist())
        return JoinFamily(int(self.s[i]), tuple((int(p), int(count)) for p, count in cells if count))


def family_radius(family: JoinFamily | FamilyBatch, alpha):
    """Radius of the family graph.  A clique-shaped row, one with s = 0
    (disjoint cliques) or with one part (K_s v K_p = K_{s+p}), has the
    clique radius (alpha+1)(s + p_max - 1); every other row is the secular
    root.  A ``JoinFamily`` gives a float, a ``FamilyBatch`` the array of
    its rows' radii, whatever their shapes; each row's radius is the same
    float whichever batch it is solved in."""
    if isinstance(family, JoinFamily):
        return float(family_radius(FamilyBatch.of(family), alpha)[0])
    alpha = float(as_fraction(alpha))
    radii = (alpha + 1) * (family.s + family.sizes[:, -1] - 1)
    secular = (family.s >= 1) & (family.counts.sum(axis=1) > 1)
    if secular.any():
        rows = FamilyBatch(family.s[secular], family.sizes[secular], family.counts[secular])
        radii[secular] = _secular_roots(*_secular_terms(rows, alpha))
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
    ``d`` and ``w`` (k, r), one contiguous row per cell.  A row with
    (alpha + 1) * n above ``SECULAR_ORDER_LIMIT`` raises ValueError.
    """
    s, p, m = batch.s, batch.sizes, batch.counts
    n = s + (p * m).sum(axis=1)
    scale = (alpha + 1) * n.max()
    if scale > SECULAR_ORDER_LIMIT:
        raise ValueError(f"family radius: (alpha + 1) * n = {scale:.3g} exceeds the limit {SECULAR_ORDER_LIMIT:.0e}")
    core = s[:, None]
    d = (alpha + 1) * (p - 1) + alpha * core
    w = core * m * p
    c = alpha * (n - 1) + s - 1
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


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
