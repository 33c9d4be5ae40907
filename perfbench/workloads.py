"""The benchmark's workloads: CLI commands, seeded inputs, reference answers.

Each workload function writes its inputs under ``workdir`` and returns a
``Job`` before any timing starts.  The program under test receives only
these files and the argv; the references come from networkx and a dense
numpy eigensolver, never from alphaspec.

``graphs`` runs every command that works on concrete graphs and
``family`` only the join-family search, so each optimisation has one
workload that exercises it and, for enumeration, the power-iteration
radius and the quotient radius, one that bypasses it.  Batches take a
few seconds and a run times several of them and reports their median;
what the host's changing speed leaves in a batch's time is taken out
by scaling with a reference loop (see reference.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np

from check import CENSUS, FamilySpec, MatchingSpec, RhoSpec, VerifySpec, family_count

CENSUS_ORDERS = tuple(range(2, 8))
SCAN_ORDER = 6
FAMILY_ORDER, FAMILY_BETA = 64, 24  # below the threshold at alpha 0, 1/2; above at 1, 2
FAMILY_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
LARGE_ALPHAS = (Fraction(0), Fraction(2))
# (n, p) of the seeded G(n, p) graphs: sparse to dense, so the
# radius and matching work vary while the parse cost stays comparable
# from seed to seed.
LARGE_GRAPHS = ((160, 0.5), (200, 0.02), (240, 0.25), (280, 0.05), (320, 0.1), (400, 0.05))


@dataclass(frozen=True)
class Job:
    commands: list[list[str]]
    specs: list  # one check spec per command
    items: int  # useful units of work, the numerator of throughput_per_s

    @property
    def records(self) -> int:
        return sum(spec.records for spec in self.specs)


def _json(argv: list[str]) -> list[str]:
    return argv + ["--format", "json-lines"]


def _census(seed: int, workdir: Path) -> Job:
    """The built-in census of orders 2..7 at alpha 0, enumerated cold."""
    alpha = Fraction(0)
    return Job(
        [_json(["report", "--n-min", str(CENSUS_ORDERS[0]), "--n-max", str(CENSUS_ORDERS[-1]),
                "--alphas", str(alpha)])],
        [VerifySpec(CENSUS_ORDERS, alpha)],
        sum(CENSUS[n] for n in CENSUS_ORDERS),
    )


def _g6scan(seed: int, workdir: Path) -> Job:
    """Every class of order SCAN_ORDER, each relabelled at random, in shuffled order."""
    rng = random.Random(seed)
    lines = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != SCAN_ORDER:
            continue
        perm = list(range(SCAN_ORDER))
        rng.shuffle(perm)
        h = nx.relabel_nodes(g, dict(enumerate(perm)))
        lines.append(nx.to_graph6_bytes(h, nodes=range(SCAN_ORDER), header=False).strip().decode("ascii"))
    rng.shuffle(lines)
    if len(lines) != CENSUS[SCAN_ORDER]:
        raise RuntimeError(f"graph atlas gave {len(lines)} graphs of order {SCAN_ORDER}, "
                           f"census has {CENSUS[SCAN_ORDER]}")
    path = workdir / f"order{SCAN_ORDER}.g6"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    alpha = Fraction(2)
    return Job(
        [_json(["verify", str(SCAN_ORDER), "--alpha", str(alpha), "--graph6", str(path)])],
        [VerifySpec((SCAN_ORDER,), alpha)],
        CENSUS[SCAN_ORDER],
    )


def family(seed: int, workdir: Path) -> Job:
    n, beta = FAMILY_ORDER, FAMILY_BETA
    return Job(
        [_json(["family", str(n), str(beta), "--alpha", str(a)]) for a in FAMILY_ALPHAS],
        [FamilySpec(n, beta, a) for a in FAMILY_ALPHAS],
        len(FAMILY_ALPHAS) * family_count(n, beta),
    )


def _radius(n: int, edges: list[tuple[int, int]], alpha: Fraction) -> float:
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return float(np.linalg.eigvalsh(float(alpha) * np.diag(adj.sum(axis=1)) + adj)[-1])


def _large(seed: int, workdir: Path) -> Job:
    rng = random.Random(seed)
    commands, specs = [], []
    for n, p in LARGE_GRAPHS:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        text = nx.to_graph6_bytes(g, nodes=range(n), header=False).strip().decode("ascii")
        label = f"G({n}, {p})"
        for a in LARGE_ALPHAS:
            commands.append(_json(["rho", "--graph6", text, "--alpha", str(a)]))
            specs.append(RhoSpec(label, n, a, _radius(n, edges, a)))
        commands.append(_json(["matching", "--graph6", text]))
        specs.append(MatchingSpec(label, n, len(nx.max_weight_matching(g, maxcardinality=True))))
    return Job(commands, specs, len(commands))


def graphs(seed: int, workdir: Path) -> Job:
    """The census, the graph6 scan and the large graphs, in one batch."""
    parts = [make(seed, workdir) for make in (_census, _g6scan, _large)]
    return Job(
        [argv for job in parts for argv in job.commands],
        [spec for job in parts for spec in job.specs],
        sum(job.items for job in parts),
    )


WORKLOADS = {"graphs": graphs, "family": family}
