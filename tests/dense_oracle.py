"""The dense samplers that lowdeg.models replaced by its row-block draws.

Each draw reads rng.random((n, n)) whole, keeps the strict upper triangle
of the n x n mask and relabels the second child with np.ix_.  The tests
hold the row-block draws to these bodies value for value, and to the
same generator state afterwards.
"""

import functools

import numpy as np

from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md
from lowdeg.graph_core import LabeledGraph


def mask_to_graph(n: int, adj: np.ndarray) -> LabeledGraph:
    # np.triu's nonzero pairs are already normalized (u < v)
    iu, ju = np.nonzero(np.triu(adj, 1))
    return LabeledGraph(n, frozenset(zip(iu.tolist(), ju.tolist())), frozenset(range(n)))


@functools.lru_cache(maxsize=4)
def strict_upper(n: int) -> np.ndarray:
    """Read-only mask of the pairs u < v of an n-vertex adjacency matrix."""
    mask = np.triu(np.ones((n, n), bool), 1)
    mask.setflags(write=False)
    return mask


def rand_sym_mask(rng: np.random.Generator, n: int, prob: float | np.ndarray) -> np.ndarray:
    u = rng.random((n, n))
    mask = (u < prob) & strict_upper(n)
    return mask | mask.T


def draw_correlated(rng: np.random.Generator, n: int, parent_adj: np.ndarray, s: float):
    """Subsample two children from a parent adjacency, relabel the second."""
    j = rand_sym_mask(rng, n, s)
    kk = rand_sym_mask(rng, n, s)
    pi = rng.permutation(n)
    a = parent_adj & j
    gk = parent_adj & kk
    b = np.zeros_like(parent_adj)
    b[np.ix_(pi, pi)] = gk
    return pi, a, b


def draw_sbm(rng: np.random.Generator, params: md.ModelParams):
    n = params.n
    p_in, p_out = ms.sbm_block_probs(n, params.k, params.lam, params.eps)
    sigma = rng.integers(0, params.k, size=n)
    same = sigma[:, None] == sigma[None, :]
    prob = np.where(same, float(p_in), float(p_out))
    return sigma, rand_sym_mask(rng, n, prob)


def _sample(n, pi, sigma, g, a, b, pruned=None) -> md.CorrelatedSample:
    return md.CorrelatedSample(
        tuple(int(x) for x in pi), None if sigma is None else tuple(int(x) for x in sigma),
        mask_to_graph(n, g), mask_to_graph(n, a), mask_to_graph(n, b), parent_pruned=pruned,
    )


def sample_correlated_er(params: md.ModelParams, rng_seed: int, *stream: int) -> md.CorrelatedSample:
    rng = md.derived_rng(rng_seed, *stream)
    n = params.n
    g = rand_sym_mask(rng, n, float(params.p))
    pi, a, b = draw_correlated(rng, n, g, float(params.s))
    return _sample(n, pi, None, g, a, b)


def sample_sbm(params: md.ModelParams, rng_seed: int):
    sigma, g = draw_sbm(md.derived_rng(rng_seed), params)
    return tuple(int(x) for x in sigma), mask_to_graph(params.n, g)


def sample_correlated_sbm(params: md.ModelParams, rng_seed: int) -> md.CorrelatedSample:
    rng = md.derived_rng(rng_seed)
    n = params.n
    sigma, g = draw_sbm(rng, params)
    pi, a, b = draw_correlated(rng, n, g, float(params.s))
    return _sample(n, pi, sigma, g, a, b)


def sample_modified_sbm(params: md.ModelParams, rng_seed: int) -> md.CorrelatedSample:
    rng = md.derived_rng(rng_seed)
    n = params.n
    sigma, g_adj = draw_sbm(rng, params)
    g = mask_to_graph(n, g_adj)
    removed = set()
    for target in md._listed_removal_targets(g, params):
        removed.add(target[int(rng.integers(len(target)))])
    g_prime = gc.graph(n, g.edges - removed, vertices=range(n))
    pi, a, b = draw_correlated(rng, n, md.adjacency_matrix(g_prime), float(params.s))
    return _sample(n, pi, sigma, g_adj, a, b, pruned=g_prime)


def edge_statistics_correlated_er(params: md.ModelParams, trials: int, rng_seed: int) -> tuple:
    """(A edges, B edges, aligned joint edges) summed over the trials."""
    n = params.n
    a_edges = b_edges = joint = 0
    iu = np.triu_indices(n, 1)
    for t in range(trials):
        rng = md.derived_rng(rng_seed, t)
        g = rand_sym_mask(rng, n, float(params.p))
        pi, a, b = draw_correlated(rng, n, g, float(params.s))
        a_u = a[iu]
        b_aligned = b[np.ix_(pi, pi)][iu]
        a_edges += int(a_u.sum())
        b_edges += int(b[iu].sum())
        joint += int((a_u & b_aligned).sum())
    return a_edges, b_edges, joint


def edge_statistics_sbm(params: md.ModelParams, trials: int, rng_seed: int) -> tuple:
    """(intra edges, intra pairs, inter edges, inter pairs, degree total)."""
    intra_e = intra_n = inter_e = inter_n = 0
    degree_total = 0
    iu = np.triu_indices(params.n, 1)
    for t in range(trials):
        rng = md.derived_rng(rng_seed, t)
        sigma, adj = draw_sbm(rng, params)
        same = sigma[:, None] == sigma[None, :]
        same_u = same[iu]
        adj_u = adj[iu]
        intra_e += int(adj_u[same_u].sum())
        intra_n += int(same_u.sum())
        inter_e += int(adj_u[~same_u].sum())
        inter_n += int((~same_u).sum())
        degree_total += 2 * int(adj_u.sum())
    return intra_e, intra_n, inter_e, inter_n, degree_total
