"""Generative samplers for the correlated graph models, the density
potentials that classify bad/admissible subgraphs, and the conditioning
events built from them.

Samplers are pure functions of (params, seed); independent trials use
derived seeds (seed, trial_index) so they parallelize without shared
state.  Desk-scale enumeration guards refuse an input past their budget
through graph_core.check_budget rather than silently truncating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import graph_core as gc
from . import measures as ms
from .graph_core import LabeledGraph
from .params import ModelParams  # noqa: F401  (re-exported)

# Reciprocal growth rate of unlabeled trees, for the N-selection inequalities.
TREE_GROWTH_ALPHA = 0.3383219


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic per-stream generator: (seed, *stream) seeds a fresh RNG."""
    return np.random.default_rng((seed,) + stream)


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
        if sorted(self.pi_star) != list(range(self.parent.n_vertices)):
            raise ValueError("pi_star is not a permutation")
        base = self.parent_pruned if self.parent_pruned is not None else self.parent
        if not self.left.edges <= base.edges:
            raise ValueError("left child has an edge outside the parent")
        inv = sorted(range(len(self.pi_star)), key=self.pi_star.__getitem__)  # inv[pi[i]] = i
        if not all(gc._norm_edge(inv[u], inv[v]) in base.edges for u, v in self.right.edges):
            raise ValueError("right child does not pull back into the parent")


# Uniforms drawn at a time: whole rows of the n x n stream, at least one.
_DRAW_BLOCK = 1 << 16


def _upper_draw(rng: np.random.Generator, n: int, prob=None, labels=None, at=None) -> np.ndarray:
    """Read the stream of rng.random((n, n)) in blocks of whole rows: return
    the uniforms at the sorted flat indices at (u*n + v), or else the sorted
    flat indices u*n + v, u < v, whose uniform is below prob -- a scalar, or
    with labels a table whose row labels[u] holds the probabilities of row u."""
    step = max(1, _DRAW_BLOCK // n) * n
    buf = np.empty(step)
    found = []
    for lo in range(0, n * n, step):
        block = rng.random(out=buf[:min(step, n * n - lo)])
        hi = lo + len(block)
        if at is not None:
            found.append(block[at[np.searchsorted(at, lo):np.searchsorted(at, hi)] - lo])
        else:
            rows = np.arange(lo // n, hi // n)
            hit = block.reshape(-1, n) < (prob if labels is None else prob[labels[rows]])
            hit &= np.arange(n) > rows[:, None]
            found.append(np.flatnonzero(hit) + lo)
    return np.concatenate(found)


def _graph(n: int, idx: np.ndarray, every: Optional[frozenset[int]] = None) -> LabeledGraph:
    """The graph on [n] whose edges are the flat indices u*n + v, checked for 0 <= u < v; every,
    if given, is a frozenset(range(n)) to share with the other graphs of a sample."""
    if n < 1:
        raise ValueError("ambient vertex count must be positive")
    u, v = np.divmod(idx, n)
    if (idx < 0).any() or (u >= v).any():  # no temporary outlives the test
        raise ValueError(f"edge index {idx[((idx < 0) | (u >= v)).argmax()]} out of range or unnormalized")
    return gc._labeled(n, frozenset(zip(u.tolist(), v.tolist())), every or frozenset(range(n)))


def _relabel(idx: np.ndarray, perm: np.ndarray, n: int) -> np.ndarray:
    """Overwrite each flat index u*n + v in idx with that of {perm[u], perm[v]}; return idx."""
    u, v = np.divmod(idx, n)
    np.take(perm, u, out=u)
    np.take(perm, v, out=v)
    np.multiply(np.minimum(u, v, out=idx), n, out=idx)
    idx += np.maximum(u, v, out=u)
    return idx


def draw_er(rng: np.random.Generator, n: int, q) -> LabeledGraph:
    """One G(n, q) graph drawn from rng."""
    if q is None:
        raise ValueError("the ER model needs q")
    if n < 1:  # before _upper_draw, which divides by n
        raise ValueError("ambient vertex count must be positive")
    return _graph(n, _upper_draw(rng, n, float(q)))


def adjacency_matrix(g: LabeledGraph) -> np.ndarray:
    """The boolean n x n adjacency matrix of g."""
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=bool)
    for u, v in g.edges:
        a[u, v] = a[v, u] = True
    return a


def _draw_children(rng: np.random.Generator, n: int, parent: np.ndarray, s: float):
    """(pi, in_a, in_kept): whether each child keeps each parent edge (sorted
    flat indices), each with probability s; B = pi(kept)."""
    in_a = _upper_draw(rng, n, at=parent) < s
    in_kept = _upper_draw(rng, n, at=parent) < s
    return rng.permutation(n), in_a, in_kept


def _correlated_sample(n: int, sigma, parent: LabeledGraph, base: np.ndarray, children, pruned=None):
    """The sample whose children were drawn on the sorted flat indices base, checked on the arrays."""
    pi, in_a, in_kept = children
    inv = np.argsort(pi)  # the inverse of pi, if pi is a permutation
    if not np.array_equal(pi[inv], np.arange(n)):
        raise ValueError("pi_star is not a permutation")
    left, right = base[in_a], _relabel(base[in_kept], pi, n)
    graphs = _graph(n, left, parent.vertices), _graph(n, right, parent.vertices)
    for child, error in ((left, "left child has an edge outside the parent"),  # right: pulled back in place
                         (_relabel(right, inv, n), "right child does not pull back into the parent")):
        if not np.all(np.searchsorted(base, child, "right") > np.searchsorted(base, child)):
            raise ValueError(error)
    out = object.__new__(CorrelatedSample)  # checked above: skip __post_init__
    out.__dict__.update(pi_star=tuple(pi.tolist()), sigma_star=None if sigma is None else tuple(sigma.tolist()),
                        parent=parent, left=graphs[0], right=graphs[1], parent_pruned=pruned)
    return out


def sample_correlated_er(params: ModelParams, rng_seed: int, *stream: int) -> CorrelatedSample:
    """Draw (pi, G, A, B): parent edge-p, children subsampled at rate s.
    The generator is derived_rng(rng_seed, *stream)."""
    if params.p is None or params.s is None:
        raise ValueError("correlated model needs (p, s) or (q, rho)")
    rng = derived_rng(rng_seed, *stream)
    n = params.n
    g = _upper_draw(rng, n, float(params.p))
    return _correlated_sample(n, None, _graph(n, g), g, _draw_children(rng, n, g, float(params.s)))


def sample_sbm(params: ModelParams, rng_seed: int) -> tuple[tuple[int, ...], LabeledGraph]:
    sigma, g = _draw_sbm(derived_rng(rng_seed), params)
    return tuple(sigma.tolist()), _graph(params.n, g)


def _draw_sbm(rng: np.random.Generator, params: ModelParams):
    n = params.n
    p_in, p_out = ms.sbm_block_probs(n, params.k, params.lam, params.eps)
    sigma = rng.integers(0, params.k, size=n)
    by_label = np.where(np.arange(params.k)[:, None] == sigma, float(p_in), float(p_out))
    return sigma, _upper_draw(rng, n, by_label, labels=sigma)


def _keep_prob(params: ModelParams) -> float:
    """s, a child's edge-keep probability, for the block-model samplers."""
    if params.s is None:
        raise ValueError("the correlated block model needs s, a child's edge-keep probability")
    return float(params.s)


def sample_correlated_sbm(params: ModelParams, rng_seed: int) -> CorrelatedSample:
    rng = derived_rng(rng_seed)
    n = params.n
    sigma, g = _draw_sbm(rng, params)
    return _correlated_sample(n, sigma, _graph(n, g), g, _draw_children(rng, n, g, _keep_prob(params)))


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


SUBGRAPH_EDGE_BUDGET = 15
CONNECTED_SET_BUDGET = 200_000
PACKED_PIECE_BUDGET = 22


def _edge_support_subgraphs(h: LabeledGraph) -> Iterable[LabeledGraph]:
    gc.check_budget("models._edge_support_subgraphs", "subgraph edges", len(h.edges), SUBGRAPH_EDGE_BUDGET)
    yield from gc.edge_induced_subgraphs(h)


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
    gc.check_budget("models.classify_self_bad", "self-bad check edges", len(h.edges), SUBGRAPH_EDGE_BUDGET)
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
    if le > 0 and lv >= 0:
        return {}  # every piece pays a positive potential: nothing to enumerate
    adj = gc._adjacency(g)
    pieces: dict[frozenset[int], float] = {}
    for current in _grow_connected_sets(adj, sorted(g.vertices), max_vertices, CONNECTED_SET_BUDGET,
                                        "connected vertex sets", "models._bad_connected_pieces"):
        # bad-subgraph candidates are edge-induced: a connected piece needs
        # at least two vertices and a spanning set of edges
        if len(current) < 2:
            continue
        if le > 0:
            # edges only raise the potential: a connected spanning
            # subgraph pays at least |V|-1 of them
            log_best = lv * len(current) + le * (len(current) - 1)
        else:
            induced = sum(len(adj[v] & current) for v in current) // 2
            log_best = lv * len(current) + le * induced
        if log_best < 0:
            pieces[current] = log_best
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
    gc.check_budget("models.contains_bad_subgraph", "near-bad pieces to pack", len(neg), PACKED_PIECE_BUDGET)
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
    """Share of trials t in which E holds; trial t draws from derived_rng(rng_seed, t)."""
    hits = 0
    for t in range(trials):
        rng = derived_rng(rng_seed, t)
        g = draw_er(rng, params.n, params.q) if model == "er" else _graph(params.n, _draw_sbm(rng, params)[1])
        hits += event_E_indicator(g, params, model)
    return hits / trials


# -- the pruned block model -----------------------------------------------------


MODIFIED_SBM_BUDGET = dict(n=30, N=6, D=3)


def _listed_removal_targets(g: LabeledGraph, params: ModelParams) -> list[tuple[tuple[int, int], ...]]:
    """Edge sets of the listed structures present in g: its cycles of length
    at most N, in lexicographic order of their sorted edge lists.

    Structures are listed against the parent graph g itself; the global
    list over the complete graph filtered to subgraphs of g gives the same
    sequence, so the removal stream is identical and reproducible.

    The paper also lists self-bad subgraphs (classify_self_bad) of at most
    D^3 vertices.  Dropping an edge from one lowers its potential by the edge
    factor le = log(1000 lam~^20 k^20 D^50 / n), so none exists while le > 0.
    le <= 0 takes n >= 1000 * 2^20 at the least; inside MODIFIED_SBM_BUDGET
    (n <= 30) le >= 17.4.  le is read when g holds an edge and D^3 >= 2 (a
    candidate exists), and le <= 0 there raises ValueError rather than list
    cycles alone.
    """
    if params.N is None or params.D is None or params.delta is None:
        raise ValueError("the pruned model needs N, D and delta")
    for name, cap in MODIFIED_SBM_BUDGET.items():
        gc.check_budget("models._listed_removal_targets", f"modified-model {name}", getattr(params, name),
                        cap)
    targets = {tuple(sorted(gc._norm_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))))
               for cyc in gc.all_cycles(g, params.N)}
    if g.edges and params.D ** 3 >= 2:
        _, le = _log_upsilon_factors(params)
        if le <= 0:
            raise ValueError(f"the edge factor le = {le:.6g} is not positive, so self-bad subgraphs "
                             "may exist, and the pruned model lists only short cycles")
    return sorted(targets)


def _grow_connected_sets(adj: dict[int, set[int]], roots: list[int], max_size: int,
                         budget: int, what: str, where: str) -> list[frozenset[int]]:
    """Every connected vertex set of at most max_size vertices whose least
    vertex is a root, each found once: a set grows only by vertices above
    its root, and a vertex joins the extension set only when it first
    becomes adjacent (Wernicke's ESU).  Once more than budget sets are
    found, graph_core.check_budget(where, what, ...) raises."""
    found: list[frozenset[int]] = []

    def grow(current: frozenset[int], extension: set[int], reached: set[int], root: int):
        found.append(current)
        if len(found) > budget:
            gc.check_budget(where, what, len(found), budget)
        if len(current) >= max_size:
            return
        while extension:
            w = extension.pop()
            fresh = {u for u in adj[w] if u > root and u not in reached}
            grow(current | {w}, extension | fresh, reached | adj[w], root)

    for v in roots:
        grow(frozenset([v]), {u for u in adj[v] if u > v}, adj[v] | {v}, v)
    return found


def sample_modified_sbm(params: ModelParams, rng_seed: int) -> CorrelatedSample:
    """Block-model parent with listed structures broken by removing one
    uniform edge each, then the usual two-child subsampling.

    One RNG draw is consumed per listed structure present in the parent, in
    listed order.
    """
    rng = derived_rng(rng_seed)
    n = params.n
    sigma, g_idx = _draw_sbm(rng, params)
    g = _graph(n, g_idx)
    removed = [target[int(rng.integers(len(target)))] for target in _listed_removal_targets(g, params)]
    pruned = g_idx[~np.isin(g_idx, [u * n + v for u, v in removed])]
    children = _draw_children(rng, n, pruned, _keep_prob(params))
    return _correlated_sample(n, sigma, g, pruned, children, _graph(n, pruned, g.vertices))
