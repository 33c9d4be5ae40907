"""Regime classification for the maximal radius over graphs of order n
with matching number beta.

For each (n, beta, alpha) the maximum of the alpha-spectral radius is
attained by one of three graphs, and which one depends on where n sits
relative to the threshold n* = ((2*alpha+3)*beta + alpha + 2)/(alpha+1):

  FULL       n in {2b, 2b+1}      max (alpha+1)(n-1)   at K_n
  BELOW      2b+2 <= n < n*       max 2(alpha+1)b      at K_{2b+1} u bar(K)
  THRESHOLD  n = n* (exact)       max 2(alpha+1)b      at both graphs below
  ABOVE      n > n*               closed form          at K_b v bar(K_{n-b})

The threshold test is exact rational arithmetic, never a float compare:
alpha is carried as a Fraction, so n = n* is decided correctly even for
alphas like 1/2 where n* is integral only for certain beta.

Each extremal graph is a join family K_s v (K_{n_1} u ... u K_{n_q}), and
``RegimeVerdict.extremal_families`` is the one table from descriptor to
family that verification builds and compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .spectral import JoinFamily, closed_form_complete_split, one_clique_family

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

# Parts are odd, so K_n of even order is a vertex joined to K_{n-1}.
_EXTREMAL_FAMILY = {
    COMPLETE: lambda n, beta: JoinFamily(0, ((n, 1),)) if n % 2 else JoinFamily(1, ((n - 1, 1),)),
    ODD_CLIQUE_PLUS_ISOLATES: lambda n, beta: one_clique_family(n, beta, 0),
    COMPLETE_SPLIT: lambda n, beta: one_clique_family(n, beta, beta),
    EMPTY_GRAPH: lambda n, beta: one_clique_family(n, beta, 0),
}

# below this alpha the tight region sampled by the tests
# (test_sampled_positivity_region) is empty
CASE2_ALPHA_CUTOFF = (sqrt(5.0) - 1.0) / 2.0


def as_fraction(alpha) -> Fraction:
    """Exact rational view of alpha; accepts "p/q" strings, ints, floats
    (binary-exact), and Fractions."""
    value = Fraction(alpha)
    if value < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return value


@dataclass(frozen=True)
class RegimeVerdict:
    """Which regime applies and what it predicts.

    ``sampled_region`` flags parameter points just past the threshold at
    large alpha where the cubic's positivity at the probe value is
    established by sampling rather than a closed sign argument
    (``case2_applicable`` at core size 1); the sampling is the test
    ``test_sampled_positivity_region``.  The prediction itself is
    unchanged.
    """

    n: int
    beta: int
    alpha: Fraction
    case_id: str
    n_star: Fraction
    predicted_rho: float
    extremal_descriptors: tuple[str, ...]
    sampled_region: bool = False

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
        return tuple(_EXTREMAL_FAMILY[d](self.n, self.beta) for d in self.extremal_descriptors)


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
    af = float(a)
    if beta == 0:
        return RegimeVerdict(n, 0, a, EMPTY, threshold_n_star(0, a), 0.0, (EMPTY_GRAPH,))
    n_star = threshold_n_star(beta, a)
    if n == 2 * beta or n == 2 * beta + 1:
        return RegimeVerdict(
            n, beta, a, FULL, n_star, (af + 1.0) * (n - 1), (COMPLETE,)
        )
    if Fraction(n) < n_star:
        return RegimeVerdict(
            n, beta, a, BELOW, n_star, 2.0 * (af + 1.0) * beta, (ODD_CLIQUE_PLUS_ISOLATES,)
        )
    if Fraction(n) == n_star:
        return RegimeVerdict(
            n,
            beta,
            a,
            THRESHOLD,
            n_star,
            2.0 * (af + 1.0) * beta,
            (COMPLETE_SPLIT, ODD_CLIQUE_PLUS_ISOLATES),
        )
    return RegimeVerdict(
        n,
        beta,
        a,
        ABOVE,
        n_star,
        closed_form_complete_split(n, beta, af),
        (COMPLETE_SPLIT,),
        sampled_region=case2_applicable(beta, af, 1, n),
    )


# -- sampled positivity region ------------------------------------------


def case2_region_bounds(beta: int, alpha: float, s: int) -> tuple[float, float]:
    """Open interval of n values in the tight region for this (beta, s)."""
    low = float(threshold_n_star(beta, alpha))
    high = (alpha + 2.0) * beta - (alpha + 1.0) * s + 1.0
    return low, high


def case2_applicable(beta: int, alpha: float, s: int, n: int) -> bool:
    """Membership in the region where the probe-point positivity of the
    cubic is established by sampling: alpha past the cutoff, s below its
    cap, and n strictly between the threshold and the tight upper bound."""
    if alpha <= CASE2_ALPHA_CUTOFF:
        return False
    if s < 1:
        return False
    s_cap = (alpha * alpha + alpha - 1.0) * beta / ((1.0 + alpha) ** 2)
    if s > s_cap:
        return False
    low, high = case2_region_bounds(beta, alpha, s)
    return low < n < high

