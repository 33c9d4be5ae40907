"""Reference implementations the tests check alphaspec against.

None of these is on a path the CLI or a verdict takes.  The oracles
re-derive a value by a slower, independent route (a whole-matrix
``eigvalsh``, an exhaustive edge-subset search); the formulas are the
paper's own forms of the family radius, evaluated as written, which the
tests tie to ``spectral._secular_terms``, the one builder of the
secular function h(lam) = lam - c - sum_p w_p / (lam - d_p).

pytest collects only ``test_*.py``, so this module holds no tests.
"""

from __future__ import annotations

import numpy as np

from alphaspec import JoinFamily, alpha_matrix, case2_applicable
from alphaspec.spectral import _check_alpha

ORACLE_ORDER_CAP = 64
ORACLE_EDGE_CAP = 24


def spectral_radius_oracle(g, alpha: float) -> float:
    """Radius of the whole matrix by ``eigvalsh``, without the component
    split, the Perron vector or the residual check."""
    alpha = _check_alpha(alpha)
    if g.n > ORACLE_ORDER_CAP:
        raise ValueError(f"oracle supports at most {ORACLE_ORDER_CAP} vertices, got {g.n}")
    if g.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(alpha_matrix(g, alpha))[-1])


def matching_number_oracle(g) -> int:
    """Exact matching number by exhausting independent edge subsets.

    Complete search, no heuristics; enforced cap of ORACLE_EDGE_CAP edges.
    """
    edges = list(g.edges())
    m = len(edges)
    if m > ORACLE_EDGE_CAP:
        raise ValueError(f"oracle supports at most {ORACLE_EDGE_CAP} edges, got {m}")
    best = 0

    def extend(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == m or size + (m - i) <= best:
            return
        u, v = edges[i]
        pair = (1 << u) | (1 << v)
        if not used & pair:
            extend(i + 1, used | pair, size + 1)
        extend(i + 1, used, size)

    extend(0, 0, 0)
    return best


def split_graph_quadratic(lam: float, n: int, beta: int, alpha: float) -> float:
    """The quadratic whose larger root is the complete-split radius:
    lam^2 - [alpha*n + (alpha+1)*beta - (alpha+1)] * lam
          + (alpha^2-1)*beta*n + (alpha+1)*beta^2 - alpha*(alpha+1)*beta."""
    alpha = _check_alpha(alpha)
    b = alpha * n + (alpha + 1) * beta - (alpha + 1)
    c = (alpha * alpha - 1) * beta * n + (alpha + 1) * beta * beta - alpha * (alpha + 1) * beta
    return lam * lam - b * lam + c


def cubic_f(lam, n, beta, s, alpha: float):
    """Characteristic cubic of the one-big-clique family, evaluated as
    written (elementwise on arrays):

    (lam - alpha*n - s + alpha + 1)(lam - alpha*s)[lam - 2(alpha+1)beta + (alpha+2)s]
      - s(n + s - 2*beta - 1)[lam - 2(alpha+1)beta + (alpha+2)s]
      - s(2*beta - 2*s + 1)(lam - alpha*s)

    For s >= 1 it is (lam - d_1)(lam - d_2) h(lam) for the family's two
    cells, so its largest root is the family radius.
    """
    alpha = _check_alpha(alpha)
    t1 = lam - alpha * n - s + alpha + 1
    t2 = lam - alpha * s
    t3 = lam - 2.0 * (alpha + 1) * beta + (alpha + 2) * s
    return t1 * t2 * t3 - s * (n + s - 2 * beta - 1) * t3 - s * (2 * beta - 2 * s + 1) * t2


def case2_probe(n, beta, alpha: float):
    """The probe value
    alpha*n + (alpha+2)/(alpha+1)*beta - alpha*(alpha+2)/(alpha+1)
    at which the cubic is claimed positive in the sampled region."""
    return alpha * n + (alpha + 2.0) / (alpha + 1.0) * beta - alpha * (alpha + 2.0) / (alpha + 1.0)


def case2_sample_check(beta: int, alpha: float, s: int, n: int) -> bool:
    """Evaluate the cubic at the probe value and report whether it is
    strictly positive (the claimed sign)."""
    if not case2_applicable(beta, alpha, s, n):
        raise ValueError(
            f"(beta={beta}, alpha={alpha}, s={s}, n={n}) is outside the sampled region"
        )
    return cubic_f(case2_probe(n, beta, alpha), n, beta, s, alpha) > 0.0


def shift_function_f(delta: float, lam: float, family: JoinFamily, alpha: float) -> float:
    """Secular function tracking a transfer of ``delta`` vertices from the
    second-largest part to the largest, at spectral parameter ``lam``.

    Defined for lam >= (alpha+1)(n_q + s - 1) and 0 <= delta <= 2; at
    delta = 0 its zero is the family radius.  A denominator may still
    vanish inside the window for small cores; the pole is the caller's
    lookout and surfaces as ZeroDivisionError.
    """
    alpha = _check_alpha(alpha)
    if family.q < 2:
        raise ValueError("shift function needs at least two parts")
    if family.s < 1:
        raise ValueError("shift function is defined for a nonempty core")
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    s = family.s
    n = family.order
    floor_lam = (alpha + 1) * (family.parts[-1] + s - 1)
    if lam < floor_lam:
        raise ValueError(f"lambda {lam} below the domain bound {floor_lam}")
    total = (lam - alpha * n - s + alpha + 1) / s
    for part in family.parts[:-2]:
        total -= part / (lam - (alpha + 1) * (part - 1) - alpha * s)
    p1, p2 = family.parts[-2], family.parts[-1]
    total -= (p1 - delta) / (lam - (alpha + 1) * (p1 - delta - 1) - alpha * s)
    total -= (p2 + delta) / (lam - (alpha + 1) * (p2 + delta - 1) - alpha * s)
    return total
