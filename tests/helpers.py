"""Helpers the tests build inputs and statistics with, kept out of the library.

No lowdeg command, paper quantity or perfbench workload reaches these, so
they live beside the tests (the README's "Paper quantities and guarded
oracles" section states the rule).  The statistics harnesses draw through
the samplers' own draw routines, so they test that draw code.
"""

import math

import numpy as np

from lowdeg import basis as bs
from lowdeg import bounds as bd
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md
from lowdeg.graph_core import LabeledGraph
from lowdeg.params import ModelParams


# -- graphs ------------------------------------------------------------------------


def cycle_graph(n: int, length: int | None = None, offset: int = 0) -> LabeledGraph:
    m = length if length is not None else n
    verts = [offset + i for i in range(m)]
    return gc.graph(n, [(verts[i], verts[(i + 1) % m]) for i in range(m)])


def path_graph(n: int, length: int, offset: int = 0) -> LabeledGraph:
    return gc.graph(n, [(offset + i, offset + i + 1) for i in range(length)])


def edge_induced_ops(s: LabeledGraph, t: LabeledGraph) -> tuple[LabeledGraph, LabeledGraph, LabeledGraph]:
    """Edge-induced intersection, union and symmetric difference (no isolated vertices)."""
    if s.n_vertices != t.n_vertices:
        raise ValueError("graphs live on different ambient vertex sets")
    n = s.n_vertices
    cap = gc.graph(n, s.edges & t.edges)
    cup = gc.graph(n, s.edges | t.edges)
    symdiff = gc.graph(n, s.edges ^ t.edges)
    return cap, cup, symdiff


def read_edge_list(text: str) -> LabeledGraph:
    """Inverse of graph_core.write_edge_list."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[1 : m + 1]]
    return gc.graph(n, edges, range(n))


# -- basis indices, measures and audits --------------------------------------------


def pair_index(s1: LabeledGraph, s2: LabeledGraph) -> bs.BasisIndex:
    return bs.BasisIndex("pair", s1, s2)


def planted_index(sigma: tuple[int, ...], s: LabeledGraph) -> bs.BasisIndex:
    return bs.BasisIndex("planted", s, sigma=sigma)


def sbm_graph_measure(n: int, k: int, lam, eps) -> ms.DiscreteMeasure:
    return ms.sbm_joint_measure(n, k, lam, eps).map(lambda x: x[1])


def audit_conditional_moment(s1: LabeledGraph, s2: LabeledGraph, params: ModelParams,
                             joint: ms.DiscreteMeasure | None = None,
                             slack: float = bd.DESK_SLACK) -> bd.BoundAudit:
    """Conditional pair-moment bound: |E[phi | pi(0)=0]| against the
    embedding sum, with the vertex-0 factor n when 0 lies in both graphs.
    The joint and the regime recorded on the audit are _event_joint's."""
    return bd._conditional_moment_audit(s1, s2, params, *bd._event_joint(params, joint), slack)


def hidden_sample_size(error_rate: float, n: int) -> int:
    """Coordinate count min(n, ceil(error_rate^(-1/2)))."""
    if not 0 < error_rate <= 1:
        raise ValueError("error rate must lie in (0, 1]")
    return min(n, math.ceil(1.0 / math.sqrt(float(error_rate))))


# -- vectorized statistics harnesses -------------------------------------------


def edge_statistics_correlated_er(params: ModelParams, trials: int, rng_seed: int) -> dict:
    """Empirical edge marginals and the joint indicator across aligned pairs.

    Shares the draw routine with sample_correlated_er; only scalar
    statistics are accumulated, so large n is fine.  B aligned by pi is the
    second child's kept set, so the joint count is |A & kept|.
    """
    n = params.n
    total_pairs = n * (n - 1) // 2
    a_edges = b_edges = joint = 0
    for t in range(trials):
        rng = md.derived_rng(rng_seed, t)
        g = md._upper_draw(rng, n, float(params.p))
        _, in_a, in_kept = md._draw_children(rng, n, g, float(params.s))
        a_edges += int(np.count_nonzero(in_a))
        b_edges += int(np.count_nonzero(in_kept))
        joint += int(np.count_nonzero(in_a & in_kept))
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
    total_pairs = params.n * (params.n - 1) // 2
    intra_e = intra_n = inter_e = inter_n = 0
    degree_total = 0
    for t in range(trials):
        rng = md.derived_rng(rng_seed, t)
        sigma, g = md._draw_sbm(rng, params)
        u, v = np.divmod(g, params.n)
        same_e = int(np.count_nonzero(sigma[u] == sigma[v]))
        same_n = sum(c * (c - 1) // 2 for c in np.bincount(sigma).tolist())
        intra_e += same_e
        intra_n += same_n
        inter_e += len(g) - same_e
        inter_n += total_pairs - same_n
        degree_total += 2 * len(g)
    p_in, p_out = ms.sbm_block_probs(params.n, params.k, params.lam, params.eps)
    return {
        "trials": trials,
        "intra_rate": intra_e / intra_n,
        "inter_rate": inter_e / inter_n,
        "intra_count": intra_n,
        "inter_count": inter_n,
        "expected_intra": float(p_in),
        "expected_inter": float(p_out),
        "mean_degree": degree_total / (trials * params.n),
        "expected_mean_degree_limit": float(params.lam),
    }
