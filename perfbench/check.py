"""Independent checks of the alphaspec CLI's outputs.

Nothing here imports alphaspec.  The regime boundary, the bound and the
extremal graphs are evaluated from the paper's formulas with the
benchmark's own code, so a wrong verdict cannot confirm itself.  Each
spec stands for one CLI command; ``problems`` returns one entry per
record the command must print: ``None`` when the record is right, else
what is wrong with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt

# Unlabelled graphs of order n (OEIS A000088).
CENSUS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

VALUE_TOL = 1e-9  # the CLI's default verify tolerance
REL_TOL = 1e-8


def regime(n: int, beta: int, alpha: Fraction) -> str:
    """FULL, BELOW, THRESHOLD or ABOVE, decided in exact arithmetic."""
    if n in (2 * beta, 2 * beta + 1):
        return "FULL"
    n_star = ((2 * alpha + 3) * beta + alpha + 2) / (alpha + 1)
    if n < n_star:
        return "BELOW"
    return "THRESHOLD" if n == n_star else "ABOVE"


def bound(n: int, beta: int, alpha: Fraction) -> float:
    """Largest alpha-spectral radius over order n with matching number beta."""
    a = float(alpha)
    kind = regime(n, beta, alpha)
    if kind == "FULL":
        return (a + 1) * (n - 1)  # K_n
    if kind in ("BELOW", "THRESHOLD"):
        return 2 * (a + 1) * beta  # K_{2beta+1}
    # K_beta joined to n - beta independent vertices: the larger eigenvalue
    # of its 2x2 orbit quotient [[a(n-1) + beta - 1, n - beta], [beta, a*beta]].
    t = a * (n - 1) + beta - 1 + a * beta
    d = (a * (n - 1) + beta - 1) * a * beta - beta * (n - beta)
    return 0.5 * (t + sqrt(t * t - 4 * d))


def extremal_degrees(n: int, beta: int, alpha: Fraction) -> list[tuple[int, ...]]:
    """Sorted degree sequence of each extremal graph.  All of them are
    threshold graphs, which their degree sequence determines."""
    clique = (0,) * (n - 2 * beta - 1) + (2 * beta,) * (2 * beta + 1)
    split = tuple(sorted((beta,) * (n - beta) + (n - 1,) * beta))
    return {
        "FULL": [(n - 1,) * n],
        "BELOW": [clique],
        "THRESHOLD": sorted([clique, split]),
        "ABOVE": [split],
    }[regime(n, beta, alpha)]


def extremal_families(n: int, beta: int, alpha: Fraction) -> set[tuple[int, tuple[int, ...]]]:
    """(core size, sorted part sizes) of each extremal join family."""
    clique = (0, tuple(sorted((1,) * (n - 2 * beta - 1) + (2 * beta + 1,))))
    split = (beta, (1,) * (n - beta))
    return {
        "FULL": {(0, (n,))},
        "BELOW": {clique},
        "THRESHOLD": {clique, split},
        "ABOVE": {split},
    }[regime(n, beta, alpha)]


@lru_cache(maxsize=None)
def _partitions(total: int, parts: int) -> int:
    """Partitions of ``total`` into at most ``parts`` positive parts."""
    if total == 0:
        return 1
    if parts == 0:
        return 0
    # either fewer than ``parts`` parts, or every part shrinks by one
    return _partitions(total, parts - 1) + (_partitions(total - parts, parts) if total >= parts else 0)


def family_count(n: int, beta: int) -> int:
    """Join families K_s v (K_{n_1} u ... u K_{n_q}) of order n with odd
    parts and matching number beta: q = n + s - 2*beta parts whose
    halves (n_i - 1)/2 partition beta - s."""
    return sum(_partitions(beta - s, n + s - 2 * beta) for s in range(beta + 1))


def graph6_degrees(text: str) -> tuple[int, ...]:
    """Sorted degrees of a short-form (n <= 62) graph6 string."""
    data = text.encode("ascii")
    n = data[0] - 63
    bits = "".join(format(b - 63, "06b") for b in data[1:])
    degrees = [0] * n
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bits[k] == "1":
                degrees[row] += 1
                degrees[col] += 1
            k += 1
    return tuple(sorted(degrees))


def json_records(stdout: str) -> list[dict]:
    records = []
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _close(value, reference: float, rel: float = REL_TOL) -> bool:
    return isinstance(value, (int, float)) and abs(value - reference) <= rel * max(1.0, abs(reference))


@dataclass(frozen=True)
class VerifySpec:
    """``verify`` or ``report`` in json-lines: one record per order n in
    ``orders`` and beta in 1..n/2."""

    orders: tuple[int, ...]
    alpha: Fraction

    @property
    def records(self) -> int:
        return sum(n // 2 for n in self.orders)

    def problems(self, code: int, stdout: str) -> list[str | None]:
        if code != 0:
            return [f"orders {self.orders} alpha={self.alpha}: exit code {code}"] * self.records
        found = {(r.get("n"), r.get("beta")): r for r in json_records(stdout)}
        return [
            self._problem(found.get((n, beta)), n, beta)
            for n in self.orders
            for beta in range(1, n // 2 + 1)
        ]

    def _problem(self, r: dict | None, n: int, beta: int) -> str | None:
        where = f"n={n} beta={beta} alpha={self.alpha}"
        if r is None:
            return f"{where}: record missing"
        if r.get("alpha") != str(self.alpha):
            return f"{where}: record names alpha={r.get('alpha')}"
        if r.get("value_pass") is not True or r.get("structure_pass") is not True:
            return f"{where}: pass flag is false"
        if r.get("graphs_scanned") != CENSUS[n]:
            return f"{where}: scanned {r.get('graphs_scanned')} graphs, census has {CENSUS[n]}"
        argmax = sorted(r.get("argmax_certificates", []))
        if argmax != sorted(r.get("predicted_certificates", [])):
            return f"{where}: argmax {argmax} differs from predicted {r.get('predicted_certificates')}"
        expected = bound(n, beta, self.alpha)
        if not _close(r.get("predicted_max"), expected, VALUE_TOL):
            return f"{where}: predicted {r.get('predicted_max')}, bound is {expected!r}"
        if not _close(r.get("observed_max"), expected, VALUE_TOL):
            return f"{where}: observed {r.get('observed_max')}, bound is {expected!r}"
        if sorted(graph6_degrees(g) for g in argmax) != extremal_degrees(n, beta, self.alpha):
            return f"{where}: argmax {argmax} are not the extremal graphs"
        return None


@dataclass(frozen=True)
class FamilySpec:
    """``family n beta --alpha a --format json-lines``: one record."""

    n: int
    beta: int
    alpha: Fraction
    records = 1

    def problems(self, code: int, stdout: str) -> list[str | None]:
        where = f"family n={self.n} beta={self.beta} alpha={self.alpha}"
        records = json_records(stdout)
        if code != 0:
            return [f"{where}: exit code {code}"]
        if len(records) != 1:
            return [f"{where}: {len(records)} records"]
        r = records[0]
        if r.get("canonical_shape") is not True or r.get("matches_prediction") is not True:
            return [f"{where}: canonical_shape or matches_prediction is false"]
        if (r.get("s"), tuple(r.get("parts", ()))) not in extremal_families(self.n, self.beta, self.alpha):
            return [f"{where}: best family s={r.get('s')} parts={r.get('parts')} is not extremal"]
        expected = bound(self.n, self.beta, self.alpha)
        if not _close(r.get("rho"), expected):
            return [f"{where}: rho {r.get('rho')}, bound is {expected!r}"]
        if r.get("families_scanned") != family_count(self.n, self.beta):
            return [f"{where}: scanned {r.get('families_scanned')} families, "
                    f"expected {family_count(self.n, self.beta)}"]
        return [None]


@dataclass(frozen=True)
class RhoSpec:
    """``rho --graph6 G --alpha a --format json-lines`` against a dense
    eigensolver's value computed by the benchmark."""

    label: str
    n: int
    alpha: Fraction
    rho: float
    records = 1

    def problems(self, code: int, stdout: str) -> list[str | None]:
        where = f"rho {self.label} alpha={self.alpha}"
        records = json_records(stdout)
        if code != 0:
            return [f"{where}: exit code {code}"]
        if len(records) != 1 or records[0].get("n") != self.n:
            return [f"{where}: expected one record with n={self.n}"]
        if not _close(records[0].get("rho"), self.rho):
            return [f"{where}: rho {records[0].get('rho')}, reference {self.rho!r}"]
        return [None]


@dataclass(frozen=True)
class MatchingSpec:
    """``matching --graph6 G --format json-lines`` against a networkx
    maximum-cardinality matching."""

    label: str
    n: int
    beta: int
    records = 1

    def problems(self, code: int, stdout: str) -> list[str | None]:
        where = f"matching {self.label}"
        records = json_records(stdout)
        if code != 0:
            return [f"{where}: exit code {code}"]
        if len(records) != 1 or records[0].get("n") != self.n:
            return [f"{where}: expected one record with n={self.n}"]
        if records[0].get("beta") != self.beta:
            return [f"{where}: beta {records[0].get('beta')}, reference {self.beta}"]
        return [None]
