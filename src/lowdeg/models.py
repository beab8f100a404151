"""Generative samplers for the correlated graph models, the density
potentials that classify bad/admissible subgraphs, and the conditioning
events built from them.

Samplers are pure functions of (params, seed); independent trials use
derived seeds (seed, trial_index) so they parallelize without shared
state.  Desk-scale enumeration guards raise EnumerationBudgetError rather
than silently truncating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import graph_core as gc
from .graph_core import EnumerationBudgetError, LabeledGraph

# Reciprocal growth rate of unlabeled trees, for the N-selection inequalities.
TREE_GROWTH_ALPHA = 0.3383219


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic per-stream generator: (seed, *stream) seeds a fresh RNG."""
    return np.random.default_rng((seed,) + stream)


def _check_prob(name: str, value):
    # degenerate-but-meaningful endpoints are allowed: s = 1 is "no
    # subsampling", and with it rho = 1; only zero-mass models are rejected
    if value is None:
        return
    if not (0 < value <= 1):
        raise ValueError(f"{name}={value} outside the valid probability range")


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters shared by every model and every potential.

    Either (p, s) or (q, rho) may be given for the subsampling models; the
    other pair is derived and both are kept consistent (q = p*s and
    rho = s(1-p)/(1-p*s)).  Fractions keep everything downstream exact.
    """

    n: int
    p: Optional[object] = None
    q: Optional[object] = None
    s: Optional[object] = None
    rho: Optional[object] = None
    lam: Optional[object] = None
    k: Optional[int] = None
    eps: Optional[object] = None
    delta: Optional[object] = None
    D: Optional[int] = None
    N: Optional[int] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.p is not None and self.s is not None:
            q = self.p * self.s
            rho = self.s * (1 - self.p) / (1 - q)
            if self.q is None:
                object.__setattr__(self, "q", q)
            if self.rho is None:
                object.__setattr__(self, "rho", rho)
            if abs(float(self.q - q)) > 1e-12 or abs(float(self.rho - rho)) > 1e-12:
                raise ValueError("inconsistent (p, s) vs (q, rho) parameterizations")
        elif self.q is not None and self.rho is not None and self.s is None:
            s = self.q + self.rho * (1 - self.q)
            object.__setattr__(self, "s", s)
            object.__setattr__(self, "p", self.q / s if s != 0 else None)
        for name in ("p", "q", "s"):
            _check_prob(name, getattr(self, name))
        if self.rho is not None and not (0 <= self.rho <= 1):
            raise ValueError(f"rho={self.rho} outside [0, 1]")
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.k is not None and self.k < 2:
            raise ValueError("k must be at least 2")
        if self.eps is not None and not (0 <= self.eps < 1):
            raise ValueError(f"eps={self.eps} outside [0, 1)")
        if self.delta is not None and not (0 < self.delta <= Fraction(1, 100)):
            raise ValueError("delta must lie in (0, 0.01]")
        if self.D is not None and self.D < 1:
            raise ValueError("D must be at least 1")
        if self.lam is not None and self.k is not None and self.eps is not None:
            for name, pr in (("intra", self.sbm_p_intra), ("inter", self.sbm_p_inter)):
                if not (0 <= pr <= 1):
                    raise ValueError(f"SBM {name} edge probability {pr} outside [0,1]")

    @property
    def sbm_p_intra(self):
        return (1 + (self.k - 1) * self.eps) * self.lam / self.n

    @property
    def sbm_p_inter(self):
        return (1 - self.eps) * self.lam / self.n

    @property
    def lam_tilde(self):
        return self.lam if self.lam >= 1 else type(self.lam)(1)

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)


def n_constant_ok(params: ModelParams) -> bool:
    """Check the four girth-constant inequalities for params.N."""
    N, k, eps, delta = params.N, params.k, params.eps, params.delta
    if None in (N, k, eps, delta):
        raise ValueError("N, k, eps, delta are all required")
    if N < 2 / delta:
        return False
    a = math.sqrt(TREE_GROWTH_ALPHA)
    d = float(delta)
    e = float(eps)
    return (
        (a - d) * (1 + e ** N * k) <= a - d / 2
        and 10 * k * (1 - d) ** N <= (1 - d / 2) ** N
        and (a - d / 2) * (1 + (1 - d / 2) ** N) ** 2 <= a - d / 4
        and (1 - d / 2) ** N * (N + 1) <= 1
    )


def choose_N(params: ModelParams, cap: int = 10_000) -> int:
    """Smallest N satisfying the girth-constant inequalities."""
    start = math.ceil(2 / params.delta)
    for N in range(start, cap):
        if n_constant_ok(params.with_(N=N)):
            return N
    raise ValueError("no valid N below the search cap")


# -- samples -------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatedSample:
    """One draw (pi_star, sigma_star, G, A, B); B is a relabeled subsample."""

    pi_star: tuple[int, ...]
    sigma_star: Optional[tuple[int, ...]]
    parent: LabeledGraph
    left: LabeledGraph
    right: LabeledGraph
    parent_pruned: Optional[LabeledGraph] = None

    def __post_init__(self):
        base = self.parent_pruned if self.parent_pruned is not None else self.parent
        if not self.left.edges <= base.edges:
            raise ValueError("left child has an edge outside the parent")
        inv = {v: i for i, v in enumerate(self.pi_star)}
        pulled = frozenset(gc._norm_edge(inv[u], inv[v]) for u, v in self.right.edges)
        if not pulled <= base.edges:
            raise ValueError("right child does not pull back into the parent")
        if sorted(self.pi_star) != list(range(len(self.pi_star))):
            raise ValueError("pi_star is not a permutation")


def _mask_to_graph(n: int, adj: np.ndarray) -> LabeledGraph:
    iu, ju = np.nonzero(np.triu(adj, 1))
    return gc.graph(n, zip(iu.tolist(), ju.tolist()), vertices=range(n))


def _rand_sym_mask(rng: np.random.Generator, n: int, prob: float | np.ndarray) -> np.ndarray:
    u = rng.random((n, n))
    mask = (u < prob) & np.triu(np.ones((n, n), bool), 1)
    return mask | mask.T


def _draw_correlated(rng: np.random.Generator, n: int, parent_adj: np.ndarray, s: float):
    """Subsample two children from a parent adjacency, relabel the second."""
    j = _rand_sym_mask(rng, n, s)
    kk = _rand_sym_mask(rng, n, s)
    pi = rng.permutation(n)
    a = parent_adj & j
    gk = parent_adj & kk
    b = np.zeros_like(parent_adj)
    b[np.ix_(pi, pi)] = gk
    return pi, a, b


def sample_correlated_er(params: ModelParams, rng_seed: int, *stream: int) -> CorrelatedSample:
    """Draw (pi, G, A, B): parent edge-p, children subsampled at rate s.
    The generator is derived_rng(rng_seed, *stream)."""
    if params.p is None or params.s is None:
        raise ValueError("correlated model needs (p, s) or (q, rho)")
    rng = derived_rng(rng_seed, *stream)
    n = params.n
    g = _rand_sym_mask(rng, n, float(params.p))
    pi, a, b = _draw_correlated(rng, n, g, float(params.s))
    return CorrelatedSample(
        tuple(int(x) for x in pi), None,
        _mask_to_graph(n, g), _mask_to_graph(n, a), _mask_to_graph(n, b),
    )


def sample_sbm(params: ModelParams, rng_seed: int) -> tuple[tuple[int, ...], LabeledGraph]:
    rng = derived_rng(rng_seed)
    sigma, g = _draw_sbm(rng, params)
    return tuple(int(x) for x in sigma), _mask_to_graph(params.n, g)


def _draw_sbm(rng: np.random.Generator, params: ModelParams):
    n = params.n
    sigma = rng.integers(0, params.k, size=n)
    same = sigma[:, None] == sigma[None, :]
    prob = np.where(same, float(params.sbm_p_intra), float(params.sbm_p_inter))
    return sigma, _rand_sym_mask(rng, n, prob)


def sample_correlated_sbm(params: ModelParams, rng_seed: int) -> CorrelatedSample:
    rng = derived_rng(rng_seed)
    n = params.n
    sigma, g = _draw_sbm(rng, params)
    pi, a, b = _draw_correlated(rng, n, g, float(params.s))
    return CorrelatedSample(
        tuple(int(x) for x in pi), tuple(int(x) for x in sigma),
        _mask_to_graph(n, g), _mask_to_graph(n, a), _mask_to_graph(n, b),
    )


# -- density potentials and admissibility --------------------------------------


def _log_phi_factors(params: ModelParams) -> tuple[float, float]:
    n, D, q = params.n, params.D, params.q
    if None in (D, q):
        raise ValueError("phi potential needs D and q")
    log_vertex = (1 + 4 / D) * math.log(n) + 20 * math.log(D)
    log_edge = math.log(float(q)) + 6 * math.log(D)
    return log_vertex, log_edge


def log_phi_potential(h: LabeledGraph, params: ModelParams) -> float:
    lv, le = _log_phi_factors(params)
    return lv * len(h.vertices) + le * len(h.edges)


def phi_potential(h: LabeledGraph, params: ModelParams) -> float:
    """Vertex-edge density potential for the plain-subsampling setting."""
    try:
        return math.exp(log_phi_potential(h, params))
    except OverflowError:
        return math.inf


def _log_upsilon_factors(params: ModelParams) -> tuple[float, float]:
    n, D, lam_t, k = params.n, params.D, params.lam_tilde, params.k
    if None in (D, k) or params.lam is None:
        raise ValueError("upsilon potential needs D, k and lam")
    log_vertex = math.log(2) + 2 * math.log(float(lam_t)) + 2 * math.log(k) + math.log(n) - 50 * math.log(D)
    log_edge = math.log(1000) + 20 * math.log(float(lam_t)) + 20 * math.log(k) + 50 * math.log(D) - math.log(n)
    return log_vertex, log_edge


def log_upsilon_potential(h: LabeledGraph, params: ModelParams) -> float:
    lv, le = _log_upsilon_factors(params)
    return lv * len(h.vertices) + le * len(h.edges)


def upsilon_potential(h: LabeledGraph, params: ModelParams) -> float:
    """Block-model density potential with lam replaced by max(lam, 1)."""
    try:
        return math.exp(log_upsilon_potential(h, params))
    except OverflowError:
        return math.inf


def _bad_threshold(params: ModelParams) -> float:
    return -math.log(math.log(params.n))


def is_bad_er(h: LabeledGraph, params: ModelParams) -> bool:
    return log_phi_potential(h, params) < _bad_threshold(params)


def is_bad_sbm(h: LabeledGraph, params: ModelParams) -> bool:
    return log_upsilon_potential(h, params) < _bad_threshold(params)


SUBGRAPH_EDGE_BUDGET = 15


def _edge_support_subgraphs(h: LabeledGraph) -> Iterable[LabeledGraph]:
    edges = sorted(h.edges)
    if len(edges) > SUBGRAPH_EDGE_BUDGET:
        raise EnumerationBudgetError(
            f"{len(edges)} edges exceeds the subgraph budget {SUBGRAPH_EDGE_BUDGET}"
        )
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            yield gc.graph(h.n_vertices, subset)


def is_admissible_er(h: LabeledGraph, params: ModelParams) -> bool:
    """No edge-induced subgraph is bad.

    Bad-subgraph searches range over edge-induced subgraphs (no isolated
    vertices): the vertex factor of the potential is the same for every
    way of padding a given edge set, and padded variants are never the
    minimizers that matter at this scale.
    """
    return all(not is_bad_er(sub, params) for sub in _edge_support_subgraphs(h))


def classify_self_bad(h: LabeledGraph, params: ModelParams) -> str:
    """Return "good", "bad" or "self_bad" under the block-model potential.

    Self-bad means bad with a strictly smaller potential than every proper
    subgraph; proper subgraphs range over all (vertex set, edge set) pairs.
    Vertex choices enter the potential only through their count, so for
    each proper edge subset the extremal vertex count is checked directly.
    """
    if len(h.edges) > SUBGRAPH_EDGE_BUDGET:
        raise EnumerationBudgetError("self-bad check exceeds the edge budget")
    log_h = log_upsilon_potential(h, params)
    if log_h >= _bad_threshold(params):
        return "good"
    lv, le = _log_upsilon_factors(params)
    n_verts = len(h.vertices)
    for k_edges in range(len(h.edges) + 1):
        for subset in itertools.combinations(sorted(h.edges), k_edges):
            sub_support = len({v for e in subset for v in e})
            v_lo, v_hi = sub_support, n_verts
            if k_edges == len(h.edges):
                v_hi = n_verts - 1  # proper: must drop a vertex if edges all kept
                if v_hi < v_lo:
                    continue
            best_v = v_lo if lv >= 0 else v_hi
            log_k = lv * best_v + le * k_edges
            if log_k <= log_h:
                return "bad"
    return "self_bad"


def _bad_connected_pieces(g: LabeledGraph, params: ModelParams, max_vertices: int, mode: str):
    """Connected vertex sets of g up to max_vertices whose induced subgraph
    can be extended (by sub-selecting induced edges) to a negative-log-potential
    piece; returns (vertex_set, min_log_potential) pairs."""
    lv, le = _log_phi_factors(params) if mode == "er" else _log_upsilon_factors(params)
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    pieces: dict[frozenset[int], float] = {}
    seen: set[frozenset[int]] = set()

    def grow(current: frozenset[int]):
        if current in seen:
            return
        seen.add(current)
        if len(seen) > 200_000:
            raise EnumerationBudgetError("connected-subgraph search budget exceeded")
        # bad-subgraph candidates are edge-induced: a connected piece needs
        # at least two vertices and a spanning set of edges
        if len(current) >= 2:
            induced = sum(1 for u, v in g.edges if u in current and v in current)
            if le > 0:
                # edges only raise the potential: a connected spanning
                # subgraph pays at least |V|-1 of them
                log_best = lv * len(current) + le * (len(current) - 1)
            else:
                log_best = lv * len(current) + le * induced
            if log_best < 0:
                pieces[current] = min(pieces.get(current, 0.0), log_best)
        if len(current) >= max_vertices:
            return
        frontier = set().union(*(adj[v] for v in current)) - current
        for v in sorted(frontier):
            grow(current | {v})

    for v in sorted(g.vertices):
        grow(frozenset([v]))
    return pieces


def contains_bad_subgraph(g: LabeledGraph, params: ModelParams, max_vertices: int, mode: str) -> bool:
    """Does g contain a bad edge-induced subgraph on at most max_vertices?

    Exact for desk-scale graphs: candidate connected pieces are enumerated,
    and disconnected bad subgraphs are covered by packing vertex-disjoint
    negative pieces (potentials are multiplicative over disjoint unions).
    """
    threshold = _bad_threshold(params)
    pieces = _bad_connected_pieces(g, params, max_vertices, mode)
    if any(v < threshold for v in pieces.values()):
        return True
    neg = sorted(pieces.items(), key=lambda kv: kv[1])
    if not neg:
        return False
    if len(neg) > 22:
        raise EnumerationBudgetError("too many near-bad pieces to pack exactly")
    best = [0.0]

    def pack(idx: int, used: frozenset[int], total: float):
        best[0] = min(best[0], total)
        if best[0] < threshold or idx >= len(neg):
            return
        for j in range(idx, len(neg)):
            vs, val = neg[j]
            if not (vs & used) and sum(1 for _ in vs) + len(used) <= max_vertices:
                pack(j + 1, used | vs, total + val)

    pack(0, frozenset(), 0.0)
    return best[0] < threshold


def event_E_indicator(g: LabeledGraph, params: ModelParams, model: str = "er") -> bool:
    """Conditioning event: no bad subgraph within the vertex budget, and for
    the block model additionally no cycle of length at most N."""
    if model == "er":
        return not contains_bad_subgraph(g, params, params.D ** 2, "er")
    if model == "sbm":
        if params.N is None:
            raise ValueError("sbm event needs N")
        if gc.has_cycle_at_most(g, params.N):
            return False
        return not contains_bad_subgraph(g, params, params.D ** 3, "sbm")
    raise ValueError(f"unknown model {model!r}")


def event_E_rate(params: ModelParams, trials: int, rng_seed: int = 0, model: str = "er") -> float:
    hits = 0
    for t in range(trials):
        if model == "er":
            rng = derived_rng(rng_seed, t)
            g = _mask_to_graph(params.n, _rand_sym_mask(rng, params.n, float(params.q)))
        else:
            _, g = sample_sbm(params, rng_seed + t)
        hits += event_E_indicator(g, params, model)
    return hits / trials


# -- the pruned block model -----------------------------------------------------


MODIFIED_SBM_BUDGET = dict(n=30, N=6, D=3)


def _listed_removal_targets(g: LabeledGraph, params: ModelParams) -> list[tuple[tuple[int, int], ...]]:
    """Edge sets of the listed structures present in g: short cycles and
    self-bad edge-bearing subgraphs up to D^3 vertices, in lexicographic
    order of their sorted edge lists.

    Structures are listed against the parent graph g itself; the global
    list over the complete graph filtered to subgraphs of g gives the same
    sequence, so the removal stream is identical and reproducible.
    """
    if params.N is None or params.D is None or params.delta is None:
        raise ValueError("the pruned model needs N, D and delta")
    if params.n > MODIFIED_SBM_BUDGET["n"] or params.N > MODIFIED_SBM_BUDGET["N"] or params.D > MODIFIED_SBM_BUDGET["D"]:
        raise EnumerationBudgetError("modified-model enumeration budget exceeded")
    targets: set[tuple[tuple[int, int], ...]] = set()
    for cyc in gc.all_cycles(g, params.N):
        edges = tuple(sorted(gc._norm_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))))
        targets.add(edges)
    # self-bad candidates: connected edge-bearing subgraphs within the budget
    for vs in _connected_vertex_sets(g, params.D ** 3):
        induced = sorted(e for e in g.edges if e[0] in vs and e[1] in vs)
        for k_edges in range(1, len(induced) + 1):
            for subset in itertools.combinations(induced, k_edges):
                sub = gc.graph(g.n_vertices, subset)
                if len(sub.vertices) > params.D ** 3:
                    continue
                if classify_self_bad(sub, params) == "self_bad":
                    targets.add(tuple(sorted(subset)))
    return sorted(targets)


def _connected_vertex_sets(g: LabeledGraph, max_size: int):
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    out: set[frozenset[int]] = set()

    def grow(current: frozenset[int]):
        if current in out:
            return
        out.add(current)
        if len(out) > 100_000:
            raise EnumerationBudgetError("connected vertex-set budget exceeded")
        if len(current) >= max_size:
            return
        frontier = set().union(*(adj[v] for v in current)) - current
        for v in sorted(frontier):
            grow(current | {v})

    for v in sorted(g.vertices):
        if adj[v]:
            grow(frozenset([v]))
    return sorted(out, key=sorted)


def sample_modified_sbm(params: ModelParams, rng_seed: int, *, skip_broken: bool = False) -> CorrelatedSample:
    """Block-model parent with listed structures broken by removing one
    uniform edge each, then the usual two-child subsampling.

    One RNG draw is consumed per listed structure present in the parent, in
    listed order.  With skip_broken=True a structure that already lost an
    edge to an earlier removal is skipped (consuming no draw).
    """
    rng = derived_rng(rng_seed)
    n = params.n
    sigma, g_adj = _draw_sbm(rng, params)
    g = _mask_to_graph(n, g_adj)
    removed: set[tuple[int, int]] = set()
    for target in _listed_removal_targets(g, params):
        if skip_broken and any(e in removed for e in target):
            continue
        pick = int(rng.integers(len(target)))
        removed.add(target[pick])
    g_prime = gc.graph(n, g.edges - removed, vertices=range(n))
    gp_adj = np.zeros((n, n), bool)
    for u, v in g_prime.edges:
        gp_adj[u, v] = gp_adj[v, u] = True
    pi, a, b = _draw_correlated(rng, n, gp_adj, float(params.s))
    return CorrelatedSample(
        tuple(int(x) for x in pi), tuple(int(x) for x in sigma),
        g, _mask_to_graph(n, a), _mask_to_graph(n, b),
        parent_pruned=g_prime,
    )


# -- vectorized statistics harnesses -------------------------------------------


def edge_statistics_correlated_er(params: ModelParams, trials: int, rng_seed: int) -> dict:
    """Empirical edge marginals and the joint indicator across aligned pairs.

    Shares the draw routine with sample_correlated_er; only scalar
    statistics are accumulated, so large n is fine.
    """
    n = params.n
    total_pairs = n * (n - 1) // 2
    a_edges = b_edges = joint = 0
    for t in range(trials):
        rng = derived_rng(rng_seed, t)
        g = _rand_sym_mask(rng, n, float(params.p))
        pi, a, b = _draw_correlated(rng, n, g, float(params.s))
        iu = np.triu_indices(n, 1)
        a_u = a[iu]
        b_aligned = b[np.ix_(pi, pi)][iu]
        a_edges += int(a_u.sum())
        b_edges += int(b[iu].sum())
        joint += int((a_u & b_aligned).sum())
    count = trials * total_pairs
    q = float(params.q)
    phat = a_edges / count
    rho_hat = (joint / count - phat ** 2) / (phat * (1 - phat)) if 0 < phat < 1 else float("nan")
    return {
        "trials": trials,
        "pair_count": count,
        "a_density": phat,
        "b_density": b_edges / count,
        "joint_density": joint / count,
        "expected_density": q,
        "expected_joint": q * (q + float(params.rho) * (1 - q)),
        "rho_hat": rho_hat,
    }


def edge_statistics_sbm(params: ModelParams, trials: int, rng_seed: int) -> dict:
    intra_e = intra_n = inter_e = inter_n = 0
    degree_total = 0
    for t in range(trials):
        rng = derived_rng(rng_seed, t)
        sigma, adj = _draw_sbm(rng, params)
        same = sigma[:, None] == sigma[None, :]
        iu = np.triu_indices(params.n, 1)
        same_u = same[iu]
        adj_u = adj[iu]
        intra_e += int(adj_u[same_u].sum())
        intra_n += int(same_u.sum())
        inter_e += int(adj_u[~same_u].sum())
        inter_n += int((~same_u).sum())
        degree_total += 2 * int(adj_u.sum())
    return {
        "trials": trials,
        "intra_rate": intra_e / intra_n,
        "inter_rate": inter_e / inter_n,
        "intra_count": intra_n,
        "inter_count": inter_n,
        "expected_intra": float(params.sbm_p_intra),
        "expected_inter": float(params.sbm_p_inter),
        "mean_degree": degree_total / (trials * params.n),
        "expected_mean_degree_limit": float(params.lam),
    }
