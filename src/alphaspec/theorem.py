"""Regime classification for the maximal radius over graphs of order n
with matching number beta.

For each (n, beta, alpha) the maximum of the alpha-spectral radius is
attained by one of three graphs, and which one depends on where n sits
relative to the threshold n* = ((2*alpha+3)*beta + alpha + 2)/(alpha+1):

  FULL       n in {2b, 2b+1}      max (alpha+1)(n-1)   at K_n
  BELOW      2b+2 <= n < n*       max 2(alpha+1)b      at K_{2b+1} u bar(K)
  THRESHOLD  n = n* (exact)       max 2(alpha+1)b      at both graphs below
  ABOVE      n > n*               split-graph root     at K_b v bar(K_{n-b})

The threshold test is exact rational arithmetic, never a float compare:
alpha is carried as a Fraction, so n = n* is decided correctly even for
alphas like 1/2 where n* is integral only for certain beta.

Each extremal graph is a join family K_s v (K_{n_1} u ... u K_{n_q}), and
``EXTREMAL_GRAPHS`` is the one table from descriptor to name and family.
A verdict's bound is no formula of its own: ``predicted_rho`` is the
largest ``family_radius`` of its extremal families, so a family search
that finds one of them reports the bound's float exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .spectral import JoinFamily, as_fraction, family_radius, one_clique_family

FULL = "FULL"
BELOW = "BELOW"
THRESHOLD = "THRESHOLD"
ABOVE = "ABOVE"
EMPTY = "EMPTY"

COMPLETE = "COMPLETE"
ODD_CLIQUE_PLUS_ISOLATES = "ODD_CLIQUE_PLUS_ISOLATES"
COMPLETE_SPLIT = "COMPLETE_SPLIT"
EMPTY_GRAPH = "EMPTY_GRAPH"

CASE_NUMBERS = {FULL: 1, BELOW: 2, THRESHOLD: 3, ABOVE: 4, EMPTY: 0}

# Each descriptor's name and its join family at (n, beta).  Parts are
# odd, so K_n of even order is a vertex joined to K_{n-1}.
EXTREMAL_GRAPHS = {
    COMPLETE: ("K_n", lambda n, beta: JoinFamily(0, ((n, 1),)) if n % 2 else JoinFamily(1, ((n - 1, 1),))),
    ODD_CLIQUE_PLUS_ISOLATES: ("K_{2b+1} + isolated vertices", lambda n, beta: one_clique_family(n, beta, 0)),
    COMPLETE_SPLIT: ("K_b joined to an independent set", lambda n, beta: one_clique_family(n, beta, beta)),
    EMPTY_GRAPH: ("edgeless graph", lambda n, beta: one_clique_family(n, beta, 0)),
}


@dataclass(frozen=True)
class RegimeVerdict:
    """Which regime applies and what it predicts.

    ``sampled_region`` flags parameter points just past the threshold at
    large alpha where the cubic's positivity at the probe value is
    established by sampling rather than a closed sign argument
    (``case2_applicable`` at core size 1); the sampling is the test
    ``test_sampled_positivity_region``.  The prediction itself is
    unchanged.

    ``predicted_rho``, the bound, is derived on construction: the largest
    ``family_radius`` of the extremal families, and 0 at order 0.
    """

    n: int
    beta: int
    alpha: Fraction
    case_id: str
    n_star: Fraction
    extremal_descriptors: tuple[str, ...]
    sampled_region: bool = False
    predicted_rho: float = field(init=False)

    def __post_init__(self):
        families = self.extremal_families if self.n else ()
        rho = max((family_radius(family, self.alpha) for family in families), default=0.0)
        object.__setattr__(self, "predicted_rho", rho)

    @property
    def case_number(self) -> int:
        return CASE_NUMBERS[self.case_id]

    @property
    def extremal_families(self) -> tuple[JoinFamily, ...]:
        """One join family per extremal descriptor, in descriptor order.

        Order 0 is the one verdict no join family expresses (a family has
        at least one part), so it raises ValueError.
        """
        if self.n == 0:
            raise ValueError("the graph of order 0 is not a join family")
        return tuple(EXTREMAL_GRAPHS[d][1](self.n, self.beta) for d in self.extremal_descriptors)


def threshold_n_star(beta: int, alpha) -> Fraction:
    """((2*alpha + 3)*beta + alpha + 2) / (alpha + 1), exactly."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    a = as_fraction(alpha)
    return ((2 * a + 3) * beta + a + 2) / (a + 1)


def classify_regime(n: int, beta: int, alpha) -> RegimeVerdict:
    """Classify (n, beta, alpha); beta = 0 degenerates to the edgeless
    verdict rather than an error."""
    a = as_fraction(alpha)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if beta < 0 or beta > n // 2:
        raise ValueError(f"no graph of order {n} has matching number {beta}")
    if beta == 0:
        return RegimeVerdict(n, 0, a, EMPTY, threshold_n_star(0, a), (EMPTY_GRAPH,))
    n_star = threshold_n_star(beta, a)
    if n == 2 * beta or n == 2 * beta + 1:
        return RegimeVerdict(n, beta, a, FULL, n_star, (COMPLETE,))
    if Fraction(n) < n_star:
        return RegimeVerdict(n, beta, a, BELOW, n_star, (ODD_CLIQUE_PLUS_ISOLATES,))
    if Fraction(n) == n_star:
        return RegimeVerdict(n, beta, a, THRESHOLD, n_star, (COMPLETE_SPLIT, ODD_CLIQUE_PLUS_ISOLATES))
    return RegimeVerdict(
        n, beta, a, ABOVE, n_star, (COMPLETE_SPLIT,), sampled_region=case2_applicable(beta, a, 1, n)
    )


# -- sampled positivity region ------------------------------------------


def case2_region_bounds(beta: int, alpha, s: int) -> tuple[Fraction, Fraction]:
    """Open interval of n values in the tight region for this (beta, s),
    exactly: from the threshold n* to (alpha + 2) * beta - (alpha + 1) * s + 1."""
    a = as_fraction(alpha)
    return threshold_n_star(beta, a), (a + 2) * beta - (a + 1) * s + 1


def case2_applicable(beta: int, alpha, s: int, n: int) -> bool:
    """Membership in the region where the probe-point positivity of the
    cubic is established by sampling: s >= 1 and n strictly inside
    ``case2_region_bounds``, in exact arithmetic.

    The interval's length times alpha + 1 is
    (alpha**2 + alpha - 1) * beta - (alpha + 1)**2 * s - 1, so it is
    empty unless s is below its cap (alpha**2 + alpha - 1) * beta /
    (alpha + 1)**2, which is positive only for alpha**2 + alpha - 1 > 0,
    alpha past (sqrt(5) - 1) / 2.
    """
    low, high = case2_region_bounds(beta, alpha, s)
    return s >= 1 and low < n < high
