"""Numeric audits of the enumeration and moment bounds used by the
hardness arguments: the embedding-sum bound on conditional pair moments,
the structured counting bounds, and the decomposition-sum inequality.

Audits compare an exactly computed left side against the closed-form
right side with the asymptotic slack replaced by an explicit desk-scale
factor (2 by default).  They report rather than gate: the pinned fixture
suites in the tests are chosen to hold, and the CLI surfaces lhs/rhs/slack
for arbitrary instances.  Audits are independent jobs and run in a
deterministic order.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from . import advantage as adv
from . import basis as bs
from . import graph_core as gc
from . import measures as ms
from .graph_core import LabeledGraph
from .params import ModelParams

DESK_SLACK = 2.0
ANCHORED_EXTRA_EDGE_BUDGET = 16
ANCHORED_CENSUS_BUDGET = 10


@dataclass
class BoundAudit:
    instance: str
    lhs: float
    rhs: float
    regime: str = ""

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1 + 1e-12)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def row(self) -> tuple:
        return (self.instance, self.lhs, self.rhs, self.slack, self.holds, self.regime)


# -- embedding-sum bound ---------------------------------------------------------


def F_bound(s1: LabeledGraph, s2: LabeledGraph, params: ModelParams) -> float:
    """Sum over classes embeddable in both graphs of
    n^-(|V1|+|V2|)/2 * rho^edges * D^-6(excess edges) * Aut."""
    if params.D is None or params.rho is None:
        raise ValueError("needs D and rho")
    cls1 = gc.subgraph_classes(s1)
    cls2 = gc.subgraph_classes(s2)
    common = set(cls1) & set(cls2)
    e1, e2 = len(s1.edges), len(s2.edges)
    v1, v2 = len(s1.vertices), len(s2.vertices)
    total = 0.0
    for form in sorted(common):  # a fixed summation order, whatever the hash seed
        cg = cls1[form]
        total += (
            params.n ** (-(v1 + v2) / 2)
            * float(params.rho) ** cg.n_edges
            * float(params.D) ** (-6 * (e1 + e2 - 2 * cg.n_edges))
            * cg.aut_count
        )
    return total


# -- structured counting weights ---------------------------------------------------


def _shape_exponent(s: LabeledGraph, h: LabeledGraph) -> Fraction:
    return Fraction(len(gc.leaves(s) - h.vertices) + gc.excess(s) - gc.excess(h), 2)


def M_triple(s0: LabeledGraph, s1: LabeledGraph, s2: LabeledGraph, params: ModelParams) -> float:
    """rho^|E0| n^(|V0| - (|V1|+|V2|)/2) D^-7(|E1|+|E2|-2|E0|)."""
    return (
        float(params.rho) ** len(s0.edges)
        * params.n ** (len(s0.vertices) - (len(s1.vertices) + len(s2.vertices)) / 2)
        * float(params.D) ** (-7 * (len(s1.edges) + len(s2.edges) - 2 * len(s0.edges)))
    )


def _pair_weight(s: LabeledGraph, h: LabeledGraph, params: ModelParams, d_power: int) -> float:
    if not gc.is_subgraph(h, s):
        raise ValueError("h is not a subgraph of s")
    expo = float(_shape_exponent(s, h))
    base = params.D ** d_power / params.n ** 0.1
    return base ** expo * (1 - float(params.delta) / 2) ** (len(s.edges) - len(h.edges))


def M_pair(s: LabeledGraph, h: LabeledGraph, params: ModelParams) -> float:
    return _pair_weight(s, h, params, 8)


def N_pair(s: LabeledGraph, h: LabeledGraph, params: ModelParams) -> float:
    return _pair_weight(s, h, params, 28)


def _anchored_between(h: LabeledGraph, s: LabeledGraph) -> Iterable[LabeledGraph]:
    """Graphs K with h anchored-in K and K a subgraph of s: the edge set
    ranges over supersets of E(h) inside E(s); declared vertices are then
    forced to the endpoints plus the isolated vertices of h."""
    extra = gc.graph(s.n_vertices, s.edges - h.edges)
    gc.check_budget("bounds._anchored_between", "anchored extra edges", extra.n_edges,
                    ANCHORED_EXTRA_EDGE_BUDGET)
    for sub in gc.edge_induced_subgraphs(extra):
        yield gc.graph_union(h, sub)


def P_sum(s: LabeledGraph, h: LabeledGraph, params: ModelParams) -> float:
    """Sum of M(s, K) * M(K, h) over anchored intermediate graphs K."""
    return sum(M_pair(s, k_mid, params) * M_pair(k_mid, h, params)
               for k_mid in _anchored_between(h, s))


def audit_P_sum(s: LabeledGraph, h: LabeledGraph, params: ModelParams,
                slack: float = DESK_SLACK) -> BoundAudit:
    """Decomposition-sum inequality: P(S,H) <= slack * 2^indep-cycles * N(S,H)."""
    lhs = P_sum(s, h, params)
    cycles = gc.independent_cycle_count(s, h)
    rhs = slack * 2 ** cycles * N_pair(s, h, params)
    return BoundAudit(f"P-sum e={len(s.edges)}/{len(h.edges)}", lhs, rhs)


# -- conditional-moment audit -------------------------------------------------------


# joint measure -> {(i, j): the moment table of its pair law conditioned on
# pi(i) = j}; an entry lives as long as its joint
_MATCH_COND_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def conditional_pair_moment(joint: ms.DiscreteMeasure, s1: LabeledGraph, s2: LabeledGraph,
                            params: ModelParams, i: int = 0, j: int = 0):
    """E[pair basis at (S1, S2) | matching sends i to j] under a matching joint:
    adv.centered_moment on the conditioned law's moment table (built once
    per joint and (i, j)) over sqrt(q(1-q))^deg."""
    bit = ms.edge_bits(params.n)
    cache = _MATCH_COND_CACHE.setdefault(joint, {})
    if (i, j) not in cache:
        cond = adv.condition_on_match(joint, i, j)
        coords = [(side, e) for side in (0, 1) for e in bit]
        cache[(i, j)] = adv.moment_table(cond.outcomes, cond.weights, coords, True)
    s = sum(bit[e] for e in s1.edges) | sum(bit[e] for e in s2.edges) << len(bit)
    q = bs.pair_edge_prob(params)
    raw = adv.centered_moment(cache[(i, j)], s, q)
    return raw * bs._sqrt((q * (1 - q)) ** -s.bit_count(), bs._exact_inputs(q))


def _event_joint(params: ModelParams, joint: ms.DiscreteMeasure | None = None
                ) -> tuple[str, ms.DiscreteMeasure]:
    """The event regime and the matching joint the conditional-moment audits use.

    The conditioning event is checked for vacuity (all graphs admissible at
    these parameters).  A vacuous event keeps the unconditioned joint,
    joint when given.  An active event conditions the parent law, and the
    children's joint is built from it by children_joint (a passed joint,
    unconditioned, is not used).
    """
    from .models import event_E_indicator

    if event_E_indicator(gc.complete_graph(params.n), params, "er"):
        # nothing is bad at these parameters: the event has full mass
        if joint is None:
            joint = ms.correlated_er_joint_measure(params.n, params.p, params.s)
        return "event-vacuous", joint
    parent = ms.er_graph_measure(params.n, params.p).condition(
        lambda g: event_E_indicator(gc.graph(params.n, g, range(params.n)), params, "er"))
    return "event-active", ms.children_joint(params.n, params.s, parent)


def _conditional_moment_audit(s1: LabeledGraph, s2: LabeledGraph, params: ModelParams, regime: str,
                              joint: ms.DiscreteMeasure, slack: float) -> BoundAudit:
    val = conditional_pair_moment(joint, s1, s2, params)
    lhs = abs(float(val))
    anchored = 0 in s1.vertices and 0 in s2.vertices
    rhs = slack * (params.n if anchored else 1) * F_bound(s1, s2, params)
    return BoundAudit(f"cond-moment e={len(s1.edges)},{len(s2.edges)}", lhs, rhs, regime)


# -- counting bound audits ------------------------------------------------------------


@cache
def _supergraph_counts(n: int, b: int, e: int, d: int, l_extra: int) -> dict[int, int]:
    """Counts by k of the l-sets of non-edges of a host (b support vertices,
    e edges, d declared isolated vertices, in K_n) that cover its declared
    vertices and add k vertices.  A non-edge adds none (C(b,2) - e of them),
    one outside vertex (b for each) or two (one for each pair); the outside
    vertices are 0..n-b-1, the declared ones first.  Each multiset of these
    groups stands for a product of binomials.  Cached per key and shared,
    so callers must not mutate the dict."""
    groups = [(0, math.comb(b, 2) - e)] + [(1 << x | 1 << y, b if x == y else 1) for x, y
                                           in itertools.combinations_with_replacement(range(n - b), 2)]
    declared = (1 << d) - 1
    counts: dict[int, int] = {}
    for multiset in itertools.combinations_with_replacement(groups, l_extra):
        mask, ways = 0, 1
        for (ends, size), run in itertools.groupby(multiset):  # equal groups are adjacent
            mask |= ends
            ways *= math.comb(size, len(list(run)))
        if ways and mask & declared == declared:
            counts[mask.bit_count() - d] = counts.get(mask.bit_count() - d, 0) + ways
    return counts


def audit_supergraph_count(s: LabeledGraph, k_extra: int, l_extra: int) -> BoundAudit:
    """Count of no-isolated supergraphs with k extra vertices and l extra
    edges against n^k (|V(S)|+k)^(2l).

    Counted: the sets of l non-edges of S whose union T with E(S), taken
    with its edge endpoints as vertices (so T has no isolated vertex),
    covers the declared vertices of S and has exactly k vertices more.
    It depends on S only through (n, |support|, |E(S)|, #declared isolated
    vertices): _supergraph_counts counts once per key.
    """
    n, b = s.n_vertices, len(gc.support(s))
    counts = _supergraph_counts(n, b, len(s.edges), len(s.vertices) - b, l_extra)
    rhs = n ** k_extra * (len(s.vertices) + k_extra) ** (2 * l_extra)
    return BoundAudit(f"supergraphs k={k_extra} l={l_extra}", counts.get(k_extra, 0), rhs)


def audit_admissible_supergraph_count(h: LabeledGraph, params: ModelParams, m: int, p_extra: int,
                                      q_extra: int) -> tuple[BoundAudit, BoundAudit]:
    """Count of admissible anchored supergraphs S of h with the given shape
    parameters (p extra edges, q extra vertices, shape exponent m, no
    independent long cycles) against (2D)^(3m) n^q * sum over cycle-count
    profiles of the factorial weights.

    S is admissible when models.event_E_indicator(s, params, "sbm") holds.
    At desk scale the block-model potential classifies most small graphs
    bad, so the admissible count can be vacuously zero.  One walk returns
    its audit and that of the strictly larger unfiltered count (a stronger
    check of the counting content), each regime recorded on its audit.
    """
    n, D, N = h.n_vertices, params.D, params.N
    if None in (D, N):
        raise ValueError("needs D and N")
    from .models import event_E_indicator

    candidates = sorted(set(itertools.combinations(range(n), 2)) - h.edges)
    admissible = count = 0
    for subset in itertools.combinations(candidates, p_extra):
        # V(S) is V(h) plus the new endpoints, so every isolated vertex of S
        # is one of h: S is anchored on h by construction
        if len(h.vertices.union(*subset)) - len(h.vertices) != q_extra:
            continue
        s = gc.graph(n, h.edges | frozenset(subset), h.vertices)
        if len(s.edges) > D or 2 * _shape_exponent(s, h) != m:
            continue
        # an independent cycle longer than N needs more than N edges
        if len(s.edges) > N and any(length > N for length in gc.independent_cycle_census(s, h)):
            continue
        count += 1
        admissible += event_E_indicator(s, params, "sbm")
    profile_sum = 0.0  # ends at 1.0 when D <= N: one empty profile
    for profile in itertools.product(range(p_extra + 1), repeat=len(range(N + 1, D + 1))):
        if sum(profile) <= p_extra:
            profile_sum += math.prod(1.0 / math.factorial(pj) for pj in profile)
    rhs = (2 * D) ** (3 * m) * n ** q_extra * profile_sum
    instance = f"admissible-supergraphs m={m} p={p_extra} q={q_extra}"
    return (BoundAudit(instance, admissible, rhs, "admissibility-filtered"),
            BoundAudit(instance, count, rhs, "admissibility-skipped(stronger-lhs)"))


def audit_anchored_subgraph_census(s: LabeledGraph, params: ModelParams) -> list[BoundAudit]:
    """Bucket every anchored subgraph H of s by (shape exponent, profile of
    independent-cycle counts over lengths N+1..D) and audit each bucket
    count against D^(15m) * binomial weights.  H is walked on vertex
    bitmasks: edge subsets of s by endpoint mask, then the declared extra
    vertices as the submasks of the spare ones; no H is built.

    The bound's domain is hosts without cycles of length at most N (the
    admissible graphs it is applied to); short-girth hosts can overfill the
    trivial-profile buckets.
    """
    D, N = params.D, params.N
    if None in (D, N):
        raise ValueError("needs D and N")
    if gc.has_cycle_at_most(s, N):
        raise ValueError("host has a cycle within the girth cut; bound out of domain")
    gc.check_budget("bounds.audit_anchored_subgraph_census", "host edges or vertices",
                    max(len(s.edges), len(s.vertices)), ANCHORED_CENSUS_BUDGET)
    cycles = [(sum(1 << v for v in c.vertices), len(c.edges)) for c in gc.cycle_components(s)]
    by_length = [[vs for vs, m_len in cycles if m_len == j] for j in range(N + 1, D + 1)]
    leaves, iso, declared = (sum(1 << v for v in vs)  # vertex sets as bitmasks
                             for vs in (gc.leaves(s), gc.isolated_vertices(s), s.vertices))
    # (excess(s) - |E(H)|, endpoint mask of E(H)) -> number of edge subsets of s
    subsets = {(gc.excess(s), 0): 1}
    for u, v in s.edges:
        for (x, ends), c in list(subsets.items()):
            key = (x - 1, ends | 1 << u | 1 << v)
            subsets[key] = subsets.get(key, 0) + c
    buckets: dict[tuple, int] = {}
    for (x, ends), c in subsets.items():
        spare = extra = declared & ~ends & ~iso
        while True:  # every submask of spare: the declared vertices of H beyond E(H)'s ends
            vh = ends | iso | extra
            # 2 * shape exponent, and the independent cycles of s avoiding V(H) by length
            key = ((leaves & ~vh).bit_count() + x + vh.bit_count(),
                   tuple(sum(1 for vs in group if not vs & vh) for group in by_length))
            buckets[key] = buckets.get(key, 0) + c
            if not extra:
                break
            extra = (extra - 1) & spare
    audits = []
    for (m, profile), count in sorted(buckets.items()):
        rhs = float(D) ** (15 * m)
        for group, mj in zip(by_length, profile):
            rhs *= math.comb(len(group), mj)
        audits.append(BoundAudit(f"anchored-subgraphs m={m} profile={profile}", count, rhs))
    return audits


# -- suites ----------------------------------------------------------------------------


def default_pair_fixtures(n: int = 4) -> list[tuple[LabeledGraph, LabeledGraph]]:
    """Pinned conditional-moment fixtures.

    The bound is asymptotic; pairs whose vertex sets fill the whole desk
    ambient (such as two spanning cycles at n = 4) sit outside the slack-2
    window and are deliberately not pinned here.  The CLI audits arbitrary
    instances and reports failures rather than hiding them.  Pairs that
    need more than n vertices are left out: n = 3 keeps the first three,
    n = 2 keeps (edge, edge).
    """
    edge, path = [(0, 1)], [(0, 1), (1, 2)]
    tri, c4 = path + [(0, 2)], path + [(2, 3), (0, 3)]
    return [(gc.graph(n, e1), gc.graph(n, e2))
            for e1, e2 in ((edge, edge), (edge, tri), (tri, tri), (path, c4))
            if max(v for e in e1 + e2 for v in e) < n]


# Each suite and the parameters it reads besides n.
SUITES = {"A1": (), "A4": ("D", "N", "k", "lam"), "A5": ("D", "N"),
          "B1": ("p", "q", "s", "rho", "D"), "B3": ("D", "delta"), "P-sum": ("D", "delta")}


def suite_default_params(name: str) -> ModelParams:
    """Parameters putting each suite in its meaningful regime.

    The decomposition-sum and subgraph-count weights are closed-form in n,
    so those suites use an astronomically large ambient n (the regime the
    bounds target) while the enumerated graphs stay desk-sized.
    """
    if name in ("A1",):
        return ModelParams(n=6, q=Fraction(1, 4), rho=Fraction(1, 3), D=4, delta=Fraction(1, 100))
    if name == "A4":
        return ModelParams(n=6, lam=Fraction(3, 2), k=2, eps=Fraction(1, 5),
                           q=Fraction(1, 4), rho=Fraction(1, 3), D=3, delta=Fraction(1, 100), N=3)
    if name == "A5":
        return ModelParams(n=9, q=Fraction(1, 4), rho=Fraction(1, 3), D=8, delta=Fraction(1, 100), N=3)
    if name == "B1":
        return ModelParams(n=4, q=Fraction(1, 4), rho=Fraction(1, 3), D=2, delta=Fraction(1, 100))
    if name in ("B3", "P-sum"):
        return ModelParams(n=10 ** 140, q=Fraction(1, 4), rho=Fraction(1, 3), D=3,
                           delta=Fraction(1, 100), N=3)
    raise ValueError(f"unknown suite {name!r}")


def run_suite(name: str, params: ModelParams | None = None, slack: float = DESK_SLACK) -> list[BoundAudit]:
    """Run one named audit suite; deterministic instance order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if params is None:
        params = suite_default_params(name)
    missing = [f for f in SUITES[name] if getattr(params, f) is None]
    if missing:
        raise ValueError(f"suite {name} reads {', '.join(('n',) + SUITES[name])}; "
                         f"the parameters lack {', '.join(missing)}")
    audits: list[BoundAudit] = []
    if name == "A1":
        k5 = gc.graph(params.n, itertools.combinations(range(min(params.n, 5)), 2))
        for s in gc.edge_induced_subgraphs(k5, 4):
            if not s.edges:
                continue
            for k_extra, l_extra in ((0, 1), (1, 1), (1, 2), (2, 2)):
                audits.append(audit_supergraph_count(s, k_extra, l_extra))
    elif name == "A4":
        h = gc.empty_graph(min(params.n, 7))
        for m, p_extra, q_extra in ((1, 1, 2), (1, 2, 3), (2, 2, 4), (1, 3, 4)):
            audits.extend(audit_admissible_supergraph_count(h, params, m, p_extra, q_extra))
    elif name == "A5":
        two_c4 = gc.graph(params.n, [(0, 1), (1, 2), (2, 3), (0, 3),
                                     (4, 5), (5, 6), (6, 7), (4, 7)])
        c5 = gc.graph(params.n, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        for host in (two_c4, c5):
            audits.extend(audit_anchored_subgraph_census(host, params))
    elif name == "B1":
        regime, joint = _event_joint(params)
        for s1, s2 in default_pair_fixtures(min(params.n, 4)):
            audits.append(_conditional_moment_audit(s1, s2, params, regime, joint, slack))
    elif name == "B3":
        for s_edges, h_edges in (
            ([(0, 1), (1, 2), (0, 2)], []),
            ([(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1)]),
            ([(0, 1), (1, 2), (0, 2), (2, 3)], [(2, 3)]),
        ):
            audits.append(audit_P_sum(gc.graph(params.n, s_edges),
                                      gc.graph(params.n, h_edges), params, slack))
    elif name == "P-sum":
        two_tri = gc.graph(params.n, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        audits.append(audit_P_sum(two_tri, gc.empty_graph(params.n), params, slack))
        audits.append(audit_P_sum(two_tri, gc.graph(params.n, [(0, 1), (1, 2), (0, 2)]), params, slack))
    return audits
