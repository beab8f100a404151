"""Subgraph-indexed orthonormal polynomial bases and exact moments.

Three index kinds are supported: a single-graph basis (centered edge
indicators under an edge-q null), a pair basis over two graphs, and a
planted basis indexed by (labeling, graph) that is orthonormal under the
joint planted law.  Expectations are exact (radical field over rationals)
whenever the model parameters are Fractions, float otherwise.

Moment tables are append-only caches keyed by canonical class; evaluation
itself is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import graph_core as gc
from .exactnum import Rad
from .graph_core import EnumerationBudgetError, LabeledGraph
from .measures import DiscreteMeasure
from .models import ModelParams

PLANTED_FLOAT_N_CAP = 20


def _exact_inputs(*vals) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in vals if v is not None)


def _sqrt(x, exact: bool):
    if exact:
        return Rad.sqrt(x)
    return math.sqrt(float(x))


def omega(k: int, a: int, b: int) -> int:
    """Centered equality kernel on labels: k-1 on the diagonal, -1 off it."""
    if not (0 <= a < k and 0 <= b < k):
        raise ValueError(f"labels ({a},{b}) outside range(0,{k})")
    return k - 1 if a == b else -1


def h_weight(k: int, eps, lam, n: int, a: int, b: int):
    """Per-edge moment scale between the planted and null normalizations."""
    w = omega(k, a, b)
    p_edge = (1 + eps * w) * lam / n
    if not 0 <= p_edge <= 1:
        raise ValueError("planted edge probability outside [0,1]")
    val = (1 - p_edge) * (1 + eps * w) / (1 - lam / n)
    return _sqrt(val, _exact_inputs(eps, lam))


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

def pair_index(s1: LabeledGraph, s2: LabeledGraph) -> BasisIndex:
    return BasisIndex("pair", s1, s2)

def planted_index(sigma: tuple[int, ...], s: LabeledGraph) -> BasisIndex:
    return BasisIndex("planted", s, sigma=sigma)


def edge_subgraphs(n: int, max_edges: int) -> list[LabeledGraph]:
    """All edge-induced subgraphs of the complete graph with at most max_edges."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for k in range(min(max_edges, len(pairs)) + 1):
        for subset in itertools.combinations(pairs, k):
            out.append(gc.graph(n, subset))
    return out


def single_indices(n: int, D: int) -> list[BasisIndex]:
    return [single_index(s) for s in edge_subgraphs(n, D)]


def pair_indices(n: int, D: int) -> list[BasisIndex]:
    out = []
    for s1 in edge_subgraphs(n, D):
        for s2 in edge_subgraphs(n, D - len(s1.edges)):
            out.append(pair_index(s1, s2))
    return out


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


def _centered_edge(edges: frozenset, e: tuple[int, int], prob):
    return (1 if e in edges else 0) - prob


def evaluate_basis(idx: BasisIndex, point, params: ModelParams):
    """Pointwise value of the indexed polynomial at a measure atom."""
    if idx.kind == "single":
        q0 = null_edge_prob(params)
        exact = _exact_inputs(q0)
        edges = point
        val = Rad.of(1) if exact else 1.0
        norm = _sqrt(q0 * (1 - q0), exact)
        for e in sorted(idx.s1.edges):
            val = val * _centered_edge(edges, e, q0) / norm
        return val
    if idx.kind == "pair":
        q = pair_edge_prob(params)
        exact = _exact_inputs(q)
        a_edges, b_edges = point
        val = Rad.of(1) if exact else 1.0
        norm = _sqrt(q * (1 - q), exact)
        for e in sorted(idx.s1.edges):
            val = val * _centered_edge(a_edges, e, q) / norm
        for e in sorted(idx.s2.edges):
            val = val * _centered_edge(b_edges, e, q) / norm
        return val
    # planted
    sigma_star, edges = point
    k, lam, eps, n = params.k, params.lam, params.eps, params.n
    exact = _exact_inputs(lam, eps)
    if not exact and n > PLANTED_FLOAT_N_CAP:
        raise EnumerationBudgetError(
            f"planted basis in float mode is limited to n <= {PLANTED_FLOAT_N_CAP}; use Fractions"
        )
    if tuple(sigma_star) != tuple(idx.sigma):
        return Rad.of(0) if exact else 0.0
    val = _sqrt(Fraction(k) ** n if exact else float(k) ** n, exact)
    for u, v in sorted(idx.s1.edges):
        p_edge = (1 + eps * omega(k, idx.sigma[u], idx.sigma[v])) * lam / n
        val = val * _centered_edge(edges, (u, v), p_edge) / _sqrt(p_edge * (1 - p_edge), exact)
    return val


def centered_moments(measure: DiscreteMeasure, indices: list[BasisIndex], n: int, q) -> list:
    """Unnormalized centered moments E[prod_{e in S} (x_e - q)] of a graph
    measure on n vertices, one per index.  The indices are all single, or
    all pair indices over graph-pair atoms, with S1 on the first graph and
    S2 on the second.

    The orthonormal moment is this value over sqrt(q(1-q))^deg, so exact
    inputs give a Fraction and no square root is formed.  An atom x
    contributes (1-q)^c (-q)^(deg-c) with c = |S ∩ x|, counted on edge
    bitmasks, so the weights are summed by c, as integers over a common
    denominator in exact mode.
    """
    if not indices:
        return []
    bit = {e: 1 << i for i, e in enumerate(itertools.combinations(range(n), 2))}
    shift = len(bit)  # the second graph of a pair sits above the first
    pair = indices[0].kind == "pair"

    def mask(edges) -> int:
        return sum(bit[e] for e in edges)

    if pair:
        points = [mask(a) | mask(b) << shift for a, b in measure.outcomes]
    else:
        points = [mask(x) for x in measure.outcomes]
    if measure.exact:
        scale = math.lcm(*(Fraction(w).denominator for w in measure.weights))
        weights = [int(w * scale) for w in measure.weights]
    else:
        scale, weights = 1, measure.weights
    out = []
    for idx in indices:
        s_mask = mask(idx.s1.edges) | (mask(idx.s2.edges) << shift if pair else 0)
        by_overlap = [0] * (idx.degree + 1)
        for x, w in zip(points, weights):
            by_overlap[(s_mask & x).bit_count()] += w
        out.append(sum(c_w * (1 - q) ** c * (-q) ** (idx.degree - c)
                       for c, c_w in enumerate(by_overlap)) / scale)
    return out


def exact_expectation(measure: DiscreteMeasure, idx: BasisIndex, params: ModelParams):
    """Expectation of the indexed polynomial; exact in rational mode."""
    if len(measure) > 1 << 22:
        raise EnumerationBudgetError("measure support exceeds the enumeration budget")
    return measure.expectation(lambda x: evaluate_basis(idx, x, params))


# -- closed-form planted moments --------------------------------------------------


def cross_edge_weight(params: ModelParams):
    """Exact per-edge transfer factor between the null and planted bases.

    This is the exact value sqrt(eps^2 lam / (n - lam)); the first-order
    form sqrt(eps^2 lam / n) differs by (1 - lam/n)^(-1/2) per edge, which
    matters at desk scale.
    """
    k, lam, eps, n = params.k, params.lam, params.eps, params.n
    return _sqrt(eps * eps * lam / (n - lam), _exact_inputs(lam, eps))


def cross_moment_planted(params: ModelParams, s: LabeledGraph, sigma: tuple[int, ...], h: LabeledGraph):
    """Exact expectation of (null basis at S) x (planted basis at (sigma, H)).

    Zero unless H is an edge subset of S; otherwise a product of per-edge
    scales over E(H) and centered-label factors over E(S) \\ E(H).
    """
    k, lam, eps, n = params.k, params.lam, params.eps, params.n
    exact = _exact_inputs(lam, eps)
    if len(s.edges) > (params.D or len(s.edges)) or len(h.edges) > (params.D or len(h.edges)):
        raise EnumerationBudgetError("index degree exceeds D")
    if not h.edges <= s.edges:
        return Rad.of(0) if exact else 0.0
    val = _sqrt(Fraction(1, k ** n) if exact else 1.0 / k ** n, exact)
    for u, v in sorted(h.edges):
        val = val * h_weight(k, eps, lam, n, sigma[u], sigma[v])
    t = cross_edge_weight(params)
    for u, v in sorted(s.edges - h.edges):
        val = val * omega(k, sigma[u], sigma[v]) * t
    return val


def moment_table(measure: DiscreteMeasure, indices: list[BasisIndex], params: ModelParams) -> list[dict]:
    """Expectations grouped by canonical class, as JSON-ready records.

    Under an exchangeable measure every index in a class has the same
    moment, so one representative per class is computed and recorded:
    {canonical_form, kind, expectation_numerator, expectation_denominator}
    in rational mode, {canonical_form, kind, value} otherwise.
    """
    out: dict[tuple, dict] = {}
    for idx in indices:
        forms = [gc.canonicalize(idx.s1).hex_form]
        if idx.s2 is not None:
            forms.append(gc.canonicalize(idx.s2).hex_form)
        key = (idx.kind, tuple(forms))
        if key in out:
            continue
        value = exact_expectation(measure, idx, params)
        record = {"canonical_form": forms[0] if len(forms) == 1 else forms, "kind": idx.kind}
        if isinstance(value, Rad) and value.is_rational():
            frac = value.as_fraction()
            record["expectation_numerator"] = frac.numerator
            record["expectation_denominator"] = frac.denominator
        elif isinstance(value, Fraction):
            record["expectation_numerator"] = value.numerator
            record["expectation_denominator"] = value.denominator
        else:
            record["value"] = float(value)
        out[key] = record
    return list(out.values())


def path_expectation(k: int, a, b, length: int, lab0: int, lab1: int):
    """Expectation of a product of (a + b*omega) factors along a path,
    conditioned on the endpoint labels: a^l + b^l * omega(endpoints)."""
    if length < 1:
        raise ValueError("length must be at least 1")
    w = omega(k, lab0, lab1)
    return a ** length + b ** length * w


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
    if len(s.vertices) > 8:
        raise EnumerationBudgetError("cancellation check is limited to 8 vertices")
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
