"""Synthetic benchmark data from linear or trigonometric structural equations
on random DAGs, plus small structure utilities (ancestor closures, edge
recovery scoring).

Node indices are 0-based throughout; the identity permutation is the
topological order, so parents always have smaller indices. Column names are
x1..xd.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UsageError
from .tabular import Table


@dataclass(frozen=True)
class Dag:
    """parents[j] is a sorted tuple of the direct parents of node j (all < j)."""

    parents: tuple

    def __post_init__(self):
        for j, pa in enumerate(self.parents):
            if any(not (0 <= p < j) for p in pa):
                raise ShapeError(f"node {j} has an out-of-order parent in {pa}")
            if tuple(sorted(set(pa))) != tuple(pa):
                raise ShapeError(f"parents of node {j} must be sorted and unique, got {pa}")

    @property
    def d(self) -> int:
        return len(self.parents)

    @property
    def edges(self) -> list:
        return [(p, j) for j, pa in enumerate(self.parents) for p in pa]

    @property
    def n_edges(self) -> int:
        return sum(len(pa) for pa in self.parents)


def dag_from_edges(d: int, edges) -> Dag:
    parents = [[] for _ in range(d)]
    for i, j in edges:
        if not (0 <= i < j < d):
            raise UsageError(f"edge ({i}, {j}) is not a forward edge in a {d}-node graph")
        parents[j].append(i)
    return Dag(tuple(tuple(sorted(set(pa))) for pa in parents))


def sample_er_dag(d: int, expected_edges: float | None = None, seed: int = 0) -> Dag:
    """Erdos-Renyi DAG: each forward pair (i, j), i < j, is an edge with
    probability expected_edges / C(d, 2), capped at 1. Default expected_edges = d.
    """
    if d < 1:
        raise UsageError(f"d must be >= 1, got {d}")
    if expected_edges is None:
        expected_edges = float(d)
    if not 0 <= expected_edges < math.inf:
        raise UsageError(f"expected_edges must be finite and >= 0, got {expected_edges}")
    n_pairs = d * (d - 1) // 2
    p = min(1.0, expected_edges / n_pairs) if n_pairs else 0.0
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < p]
    return dag_from_edges(d, edges)


def sample_sf_dag(d: int, attach_m: int = 1, seed: int = 0) -> Dag:
    """Scale-free DAG by preferential attachment: node j picks
    min(attach_m, j) distinct earlier nodes with probability proportional to
    degree + 1; edges point from the earlier node to j.
    """
    if d < 1:
        raise UsageError(f"d must be >= 1, got {d}")
    if attach_m < 1:
        raise UsageError(f"attach_m must be >= 1, got {attach_m}")
    rng = np.random.default_rng(seed)
    degree = np.zeros(d)
    edges = []
    for j in range(1, d):
        k = min(attach_m, j)
        weights = degree[:j] + 1.0
        targets = rng.choice(j, size=k, replace=False, p=weights / weights.sum())
        for i in sorted(int(t) for t in targets):
            edges.append((i, j))
            degree[i] += 1
            degree[j] += 1
    return dag_from_edges(d, edges)


@dataclass
class SemSpec:
    """How mechanisms and noise are drawn: 'linear' uses one weight per
    parent; 'nonlinear' uses tanh/cos/sin of three random projections."""

    kind: str = "nonlinear"
    weight_low: float = 0.5
    weight_high: float = 2.0
    sign_flip_prob: float = 0.5
    noise_std: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "nonlinear"):
            raise UsageError(f"kind must be 'linear' or 'nonlinear', got {self.kind!r}")
        if not (0 < self.weight_low <= self.weight_high):
            raise UsageError("need 0 < weight_low <= weight_high")
        if not (0.0 <= self.sign_flip_prob <= 1.0):
            raise UsageError("sign_flip_prob must lie in [0, 1]")
        if self.noise_std < 0:
            raise UsageError("noise_std must be >= 0")


@dataclass
class SemWeights:
    """Per-node mechanism weights: one vector per node for linear SEMs,
    three (tanh, cos, sin) for nonlinear ones. Vectors align with parents[j]."""

    kind: str
    vectors: list = field(default_factory=list)


def _draw_weights(rng, size, spec: SemSpec) -> np.ndarray:
    w = rng.uniform(spec.weight_low, spec.weight_high, size=size)
    flip = rng.random(size) < spec.sign_flip_prob
    w[flip] = -w[flip]
    return w


def sample_weights(dag: Dag, spec: SemSpec, seed: int = 0) -> SemWeights:
    rng = np.random.default_rng(seed)
    vectors = []
    for pa in dag.parents:
        k = len(pa)
        if spec.kind == "linear":
            vectors.append([_draw_weights(rng, k, spec)])
        else:
            vectors.append([_draw_weights(rng, k, spec) for _ in range(3)])
    return SemWeights(spec.kind, vectors)


def simulate(dag: Dag, weights: SemWeights, spec: SemSpec, n: int, seed: int = 0) -> Table:
    """Draw n rows in topological order.

    Linear: X_j = w . parents + z. Nonlinear: X_j = tanh(w1 . parents)
    + cos(w2 . parents) + sin(w3 . parents) + z. A root's projections are
    all zero, so nonlinear roots are 1 + z and linear roots are plain z.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if weights.kind != spec.kind:
        raise UsageError(f"weights are {weights.kind!r} but spec wants {spec.kind!r}")
    if len(weights.vectors) != dag.d:
        raise ShapeError("weights do not match the graph size")
    rng = np.random.default_rng(seed)
    X = np.empty((n, dag.d))
    noise = rng.normal(0.0, spec.noise_std, size=(n, dag.d)) if spec.noise_std > 0 else np.zeros((n, dag.d))
    for j, pa in enumerate(dag.parents):
        P = X[:, pa] if pa else np.zeros((n, 0))
        if spec.kind == "linear":
            mech = P @ weights.vectors[j][0] if pa else np.zeros(n)
        else:
            w1, w2, w3 = weights.vectors[j]
            mech = np.tanh(P @ w1) + np.cos(P @ w2) + np.sin(P @ w3)
        X[:, j] = mech + noise[:, j]
    names = tuple(f"x{j + 1}" for j in range(dag.d))
    return Table(names, X)


# ---------------------------------------------------------------------------
# structure utilities


def ancestor_closure(dag: Dag, j: int) -> frozenset:
    """Node j together with all its ancestors (least fixed point of
    repeatedly adding parents)."""
    if not (0 <= j < dag.d):
        raise UsageError(f"node index {j} out of range for d={dag.d}")
    closure = {j}
    frontier = {j}
    while frontier:
        nxt = set()
        for i in frontier:
            nxt.update(dag.parents[i])
        frontier = nxt - closure
        closure |= nxt
    return frozenset(closure)


def max_ancestor_size(dag: Dag) -> int:
    """Size of the largest ancestor closure over all nodes."""
    return max(len(ancestor_closure(dag, j)) for j in range(dag.d))


def largest_gap_threshold(norms) -> float:
    """Threshold halfway across the largest gap in the sorted values.

    With fewer than two distinct values there is no gap; everything ends up
    on one side (threshold above the maximum).
    """
    flat = np.sort(np.asarray(norms, dtype=np.float64).ravel())
    if flat.size == 0:
        raise UsageError("no values to threshold")
    gaps = np.diff(flat)
    if flat.size < 2 or gaps.max() == 0.0:
        return float(flat[-1] + 1.0)
    at = int(np.argmax(gaps))
    return float(0.5 * (flat[at] + flat[at + 1]))


def edges_above_threshold(norm_table, threshold: float) -> set:
    """(parent, child) pairs whose dependence score clears the threshold.

    ``norm_table`` is the per-column list of prefix-row norms as produced by
    ``models.row_norms``: entry jj has one score per earlier column.
    """
    edges = set()
    for jj, norms in enumerate(norm_table):
        for k, v in enumerate(np.asarray(norms, dtype=np.float64)):
            if v > threshold:
                edges.add((k, jj))
    return edges


def edge_f1(predicted: set, dag: Dag) -> float:
    """F1 of a predicted edge set against the graph's true edges."""
    truth = set(dag.edges)
    tp = len(predicted & truth)
    if tp == 0:
        return 0.0
    precision = tp / len(predicted)
    recall = tp / len(truth)
    return 2 * precision * recall / (precision + recall)


def split_row_norms(norm_table, dag: Dag):
    """Mean prefix-row norm over true edges and over non-edges, as a pair.

    Either mean is nan when its group is empty.
    """
    on, off = [], []
    for jj, norms in enumerate(norm_table):
        pa = set(dag.parents[jj])
        for k, v in enumerate(np.asarray(norms, dtype=np.float64)):
            (on if k in pa else off).append(float(v))
    mean = lambda xs: float(np.mean(xs)) if xs else math.nan
    return mean(on), mean(off)


# ---------------------------------------------------------------------------
# ground-truth serialization


def dag_to_json(dag: Dag, kind: str, seed: int) -> dict:
    return {
        "d": dag.d,
        "columns": [f"x{j + 1}" for j in range(dag.d)],
        "edges": [[i, j] for i, j in dag.edges],
        "kind": kind,
        "seed": seed,
    }


def save_dag(path, dag: Dag, kind: str, seed: int) -> None:
    with open(path, "w") as fh:
        json.dump(dag_to_json(dag, kind, seed), fh, indent=2)
        fh.write("\n")


def load_dag(path) -> Dag:
    with open(path) as fh:
        payload = json.load(fh)
    return dag_from_edges(int(payload["d"]), [tuple(e) for e in payload["edges"]])
