"""Subgraph-indexed orthonormal polynomial bases and exact moments.

Three index kinds are supported: a single-graph basis (centered edge
indicators under an edge-q null), a pair basis over two graphs, and a
planted basis indexed by (labeling, graph) that is orthonormal under the
joint planted law.  These are p-biased Fourier bases (O'Donnell, ch. 8):
a value is a rational product of per-edge factors 1[e in x] - p_e times
one square root of a normalization that depends on the index alone, exact
(radical field over rationals) whenever the model parameters are
Fractions, float otherwise.

Every function here is pure and keeps no cache: a moment is recomputed
on each call, and a caller that needs one per class holds it itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import graph_core as gc
from . import measures as ms
from .exactnum import Rad
from .graph_core import LabeledGraph, check_budget
from .measures import DiscreteMeasure
from .params import ModelParams

PLANTED_FLOAT_N_CAP = 20
LEAF_CANCELLATION_VERTEX_BUDGET = 8


def _exact_inputs(*vals) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in vals)


def _sqrt(x, exact: bool):
    if exact:
        return Rad.sqrt(x)
    return math.sqrt(float(x))


def omega(k: int, a: int, b: int) -> int:
    """Centered equality kernel on labels: k-1 on the diagonal, -1 off it."""
    if not (0 <= a < k and 0 <= b < k):
        raise ValueError(f"labels ({a},{b}) outside range(0,{k})")
    return k - 1 if a == b else -1


def _h_squared(k: int, eps, lam, n: int, a: int, b: int):
    """Square of the per-edge scale, p(1-p) / (q0(1-q0)) at planted edge probability p."""
    w = omega(k, a, b)
    p_edge = (1 + eps * w) * lam / n
    if not 0 <= p_edge <= 1:
        raise ValueError("planted edge probability outside [0,1]")
    return (1 - p_edge) * (1 + eps * w) / (1 - lam / n)


def h_weight(k: int, eps, lam, n: int, a: int, b: int):
    """Per-edge moment scale between the planted and null normalizations."""
    return _sqrt(_h_squared(k, eps, lam, n, a, b), _exact_inputs(eps, lam))


def h_decomposition(k: int, eps, lam, n: int):
    """Write the edge scale as a + b * omega by solving the two label classes."""
    h_eq = h_weight(k, eps, lam, n, 0, 0)
    h_ne = h_weight(k, eps, lam, n, 0, 1 % k)
    a = (h_eq + (k - 1) * h_ne) / k
    b = (h_eq - h_ne) / k
    return a, b


# -- basis indices ---------------------------------------------------------------


@dataclass(frozen=True)
class BasisIndex:
    """Index of one basis polynomial: single(S), pair(S1,S2) or planted(sigma,S)."""

    kind: str
    s1: LabeledGraph
    s2: Optional[LabeledGraph] = None
    sigma: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in ("single", "pair", "planted"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        for g in (self.s1, self.s2):
            if g is not None and gc.isolated_vertices(g):
                raise ValueError("basis graphs may not have isolated vertices")
        if self.kind == "pair" and self.s2 is None:
            raise ValueError("pair index needs two graphs")
        if self.kind == "planted" and self.sigma is None:
            raise ValueError("planted index needs a labeling")

    @property
    def degree(self) -> int:
        d = len(self.s1.edges)
        if self.s2 is not None:
            d += len(self.s2.edges)
        return d


def single_index(s: LabeledGraph) -> BasisIndex:
    return BasisIndex("single", s)


def edge_subgraphs(n: int, max_edges: int) -> list[LabeledGraph]:
    """All edge-induced subgraphs of the complete graph with at most max_edges,
    in the edge_bits order of its edges."""
    return list(gc.edge_induced_subgraphs(gc.complete_graph(n), max_edges))


def single_indices(n: int, D: int) -> list[BasisIndex]:
    return [single_index(s) for s in edge_subgraphs(n, D)]


# -- pointwise evaluation --------------------------------------------------------


def null_edge_prob(params: ModelParams):
    """Edge probability of the single-graph null (block-model average)."""
    if params.lam is not None:
        return params.lam / params.n
    if params.q is not None:
        return params.q
    raise ValueError("params carry neither lam nor q")


def pair_edge_prob(params: ModelParams):
    """Edge probability of the pair null."""
    if params.q is not None:
        return params.q
    if params.lam is not None and params.s is not None:
        return params.lam * params.s / params.n
    raise ValueError("params carry neither q nor (lam, s)")


def _index_factors(idx: BasisIndex, params: ModelParams):
    """(exact, factors, norm_sq) from the index alone: factors lists
    (side, edge, p_e) for the factors 1[e in x_side] - p_e, side 1 being a
    pair atom's second graph, and norm_sq = prod 1/(p_e(1-p_e)), times k^n
    for a planted index, is the squared normalization."""
    if idx.kind == "planted":
        k, lam, eps, n = params.k, params.lam, params.eps, params.n
        exact, scale = _exact_inputs(lam, eps), k ** n
        if not exact and n > PLANTED_FLOAT_N_CAP:
            check_budget("basis._index_factors", "planted basis vertices in float mode", n,
                         PLANTED_FLOAT_N_CAP)
        factors = [(0, (u, v), (1 + eps * omega(k, idx.sigma[u], idx.sigma[v])) * lam / n)
                   for u, v in sorted(idx.s1.edges)]
    else:
        q = pair_edge_prob(params) if idx.kind == "pair" else null_edge_prob(params)
        exact, scale = _exact_inputs(q), 1
        factors = [(side, e, q) for side, g in enumerate((idx.s1, idx.s2)) if g is not None
                   for e in sorted(g.edges)]
    one = Fraction(1) if exact else 1.0
    return exact, factors, scale / math.prod((p * (1 - p) for _, _, p in factors), start=one)


def _centered_product(idx: BasisIndex, factors: list, point):
    """The rational product prod (1[e in x] - p_e) at an atom; zero at a
    planted atom whose labeling differs from the index's."""
    if idx.kind == "planted":
        if tuple(point[0]) != tuple(idx.sigma):
            return 0
        graphs = (point[1],)
    else:
        graphs = point if idx.kind == "pair" else (point,)
    return math.prod((e in graphs[side]) - p for side, e, p in factors)


def evaluate_basis(idx: BasisIndex, point, params: ModelParams):
    """Pointwise value of the indexed polynomial at a measure atom: the
    centered product times one square root of the normalization."""
    exact, factors, norm_sq = _index_factors(idx, params)
    return _centered_product(idx, factors, point) * _sqrt(norm_sq, exact)


def exact_expectation(measure: DiscreteMeasure, idx: BasisIndex, params: ModelParams):
    """Expectation of the indexed polynomial; exact in rational mode.  The
    centered products are summed over the atoms and the square root of the
    normalization is taken once."""
    check_budget("basis.exact_expectation", "measure atoms", len(measure), ms.ENUMERATION_BUDGET)
    exact, factors, norm_sq = _index_factors(idx, params)
    total = sum(w * _centered_product(idx, factors, x) for x, w in measure)
    return total * _sqrt(norm_sq, exact)


# -- closed-form planted moments --------------------------------------------------


def cross_moment_planted(params: ModelParams, s: LabeledGraph, sigma: tuple[int, ...], h: LabeledGraph):
    """Exact expectation of (null basis at S) x (planted basis at (sigma, H)).

    Zero unless H is an edge subset of S; otherwise the centered labels
    prod omega over E(S) \\ E(H) times one square root of
    k^-n prod h^2 over E(H) times t^(2|E(S) \\ E(H)|), with the exact
    per-edge transfer t^2 = eps^2 lam / (n - lam).  (The first-order
    eps^2 lam / n differs by (1 - lam/n)^-1 per edge, which matters at desk
    scale.)
    """
    k, lam, eps, n = params.k, params.lam, params.eps, params.n
    exact = _exact_inputs(lam, eps)
    if params.D is not None:
        check_budget("basis.cross_moment_planted", "index degree", max(len(s.edges), len(h.edges)), params.D)
    if not h.edges <= s.edges:
        return Rad.of(0) if exact else 0.0
    cross = s.edges - h.edges
    sq = (Fraction(1, k ** n) if exact else 1.0 / k ** n) * (eps * eps * lam / (n - lam)) ** len(cross)
    for u, v in sorted(h.edges):
        sq *= _h_squared(k, eps, lam, n, sigma[u], sigma[v])
    return math.prod(omega(k, sigma[u], sigma[v]) for u, v in cross) * _sqrt(sq, exact)


def leaf_cancellation_check(s: LabeledGraph, h: LabeledGraph, k: int):
    """Maximum over conditionings of |E[prod of omega over E(S)\\E(H)]|.

    Requires an exposed leaf (a leaf of S outside V(H)); the expectation
    vanishes for every conditioning, so the return value must be 0.
    Exact rational arithmetic throughout.
    """
    if not gc.is_subgraph(h, s):
        raise ValueError("h is not a subgraph of s")
    exposed = gc.leaves(s) - h.vertices
    if not exposed:
        raise ValueError("no exposed leaf: the cancellation identity does not apply")
    check_budget("basis.leaf_cancellation_check", "cancellation check vertices", len(s.vertices),
                 LEAF_CANCELLATION_VERTEX_BUDGET)
    free = sorted(s.vertices - h.vertices)
    fixed = sorted(h.vertices)
    cross = sorted(s.edges - h.edges)
    worst = Fraction(0)
    for fixed_labels in itertools.product(range(k), repeat=len(fixed)):
        assign = dict(zip(fixed, fixed_labels))
        total = Fraction(0)
        for free_labels in itertools.product(range(k), repeat=len(free)):
            assign.update(zip(free, free_labels))
            prod = Fraction(1)
            for u, v in cross:
                prod *= omega(k, assign[u], assign[v])
            total += prod
        total /= Fraction(k) ** len(free)
        worst = max(worst, abs(total))
    return worst
