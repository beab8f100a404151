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
from typing import Iterable

from . import advantage as adv
from . import basis as bs
from . import graph_core as gc
from . import measures as ms
from .exactnum import Rad
from .graph_core import EnumerationBudgetError, LabeledGraph
from .models import ModelParams, event_E_indicator

DESK_SLACK = 2.0


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
    for form in common:
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
    extra = sorted(s.edges - h.edges)
    if len(extra) > 16:
        raise EnumerationBudgetError("anchored enumeration beyond 16 extra edges")
    iso_h = gc.isolated_vertices(h)
    for k in range(len(extra) + 1):
        for subset in itertools.combinations(extra, k):
            edges = h.edges | frozenset(subset)
            verts = {v for e in edges for v in e} | iso_h
            yield gc.graph(s.n_vertices, edges, verts)


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


# joint measure -> {(i, j): its pair law conditioned on pi(i) = j}; an entry
# lives as long as its joint
_MATCH_COND_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def conditional_pair_moment(joint: ms.DiscreteMeasure, s1: LabeledGraph, s2: LabeledGraph,
                            params: ModelParams, i: int = 0, j: int = 0):
    """E[pair basis at (S1, S2) | matching sends i to j] under a matching joint:
    the rational centered moment over sqrt(q(1-q))^deg."""
    cache = _MATCH_COND_CACHE.setdefault(joint, {})
    if (i, j) not in cache:
        cache[(i, j)] = adv.condition_on_match(joint, i, j)
    idx = bs.pair_index(s1, s2)
    q = bs.pair_edge_prob(params)
    (raw,) = bs.centered_moments(cache[(i, j)], [idx], params.n, q)
    norm_sq = (q * (1 - q)) ** idx.degree
    if isinstance(raw, Fraction):
        return raw * Rad.sqrt(1 / norm_sq)
    return raw / math.sqrt(norm_sq)


def audit_conditional_moment(s1: LabeledGraph, s2: LabeledGraph, params: ModelParams,
                             joint: ms.DiscreteMeasure | None = None,
                             slack: float = DESK_SLACK) -> BoundAudit:
    """Conditional pair-moment bound: |E[phi | pi(0)=0]| against the
    embedding sum, with the vertex-0 factor n when 0 lies in both graphs.

    The conditioning event is checked for vacuity (all graphs admissible at
    these parameters) and the regime is recorded on the audit.
    """
    if event_E_indicator(gc.complete_graph(params.n), params, "er"):
        # nothing is bad at these parameters: the event has full mass
        regime = "event-vacuous"
        if joint is None:
            joint = ms.correlated_er_joint_measure(params.n, params.p, params.s)
    else:
        regime = "event-active"
        big = ms.correlated_er_joint_measure(params.n, params.p, params.s, keep_parent=True)
        big = big.condition(
            lambda x: event_E_indicator(gc.graph(params.n, x[1], range(params.n)), params, "er")
        )
        joint = big.map(lambda x: (x[0], x[2], x[3]))
    val = conditional_pair_moment(joint, s1, s2, params)
    lhs = abs(float(val))
    anchored = 0 in s1.vertices and 0 in s2.vertices
    rhs = slack * (params.n if anchored else 1) * F_bound(s1, s2, params)
    return BoundAudit(f"cond-moment e={len(s1.edges)},{len(s2.edges)}", lhs, rhs, regime)


# -- counting bound audits ------------------------------------------------------------


def audit_supergraph_count(s: LabeledGraph, k_extra: int, l_extra: int) -> BoundAudit:
    """Count of no-isolated supergraphs with k extra vertices and l extra
    edges against n^k (|V(S)|+k)^(2l)."""
    n = s.n_vertices
    all_pairs = set(itertools.combinations(range(n), 2))
    candidates = sorted(all_pairs - s.edges)
    count = 0
    for subset in itertools.combinations(candidates, l_extra):
        t = gc.graph(n, s.edges | frozenset(subset))
        if gc.isolated_vertices(t):
            continue
        if not s.vertices <= t.vertices:
            continue
        if len(t.vertices) - len(s.vertices) == k_extra:
            count += 1
    rhs = n ** k_extra * (len(s.vertices) + k_extra) ** (2 * l_extra)
    return BoundAudit(f"supergraphs k={k_extra} l={l_extra}", count, rhs)


def _anchored_subgraphs_of(s: LabeledGraph) -> Iterable[LabeledGraph]:
    """All H with H a subgraph of s and every isolated vertex of s isolated
    in H (declared vertices range over supersets of the edge endpoints)."""
    edges = sorted(s.edges)
    if len(edges) > 10 or len(s.vertices) > 10:
        raise EnumerationBudgetError("anchored subgraph enumeration budget")
    iso_s = gc.isolated_vertices(s)
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            endpoints = {v for e in subset for v in e}
            spare = sorted(s.vertices - endpoints - iso_s)
            for r in range(len(spare) + 1):
                for extra in itertools.combinations(spare, r):
                    yield gc.graph(s.n_vertices, subset, endpoints | set(extra) | iso_s)


def audit_admissible_supergraph_count(h: LabeledGraph, params: ModelParams,
                                      m: int, p_extra: int, q_extra: int,
                                      require_admissible: bool = True) -> BoundAudit:
    """Count of admissible anchored supergraphs S of h with the given shape
    parameters (p extra edges, q extra vertices, shape exponent m, no
    independent long cycles) against (2D)^(3m) n^q * sum over cycle-count
    profiles of the factorial weights.

    At desk scale, the block-model potential classifies most small graphs
    bad, so the admissible count can be vacuously zero; passing
    require_admissible=False audits the strictly larger unfiltered count
    instead (a stronger check of the counting content) and records that in
    the regime field.
    """
    n, D, N = h.n_vertices, params.D, params.N
    if None in (D, N):
        raise ValueError("needs D and N")
    from .models import contains_bad_subgraph

    all_pairs = set(itertools.combinations(range(n), 2))
    candidates = sorted(all_pairs - h.edges)
    count = 0
    regime = "admissibility-vacuous" if not require_admissible else "admissibility-filtered"
    for subset in itertools.combinations(candidates, p_extra):
        s = gc.graph(n, h.edges | frozenset(subset), h.vertices)
        if len(s.edges) > D:
            continue
        if not gc.isolated_vertices(s) <= gc.isolated_vertices(h):
            continue
        if len(s.vertices) - len(h.vertices) != q_extra:
            continue
        if 2 * _shape_exponent(s, h) != m:
            continue
        census = gc.independent_cycle_census(s, h)
        if any(length > N for length in census):
            continue
        if require_admissible:
            if gc.has_cycle_at_most(s, N):
                continue  # admissible graphs carry no short cycles
            if contains_bad_subgraph(s, params, min(len(s.vertices), D ** 3), "sbm"):
                continue
        count += 1
    if not require_admissible:
        regime = "admissibility-skipped(stronger-lhs)"
    profile_sum = 0.0
    span = range(N + 1, D + 1)
    for profile in itertools.product(range(p_extra + 1), repeat=max(len(span), 0)):
        if sum(profile) <= p_extra:
            profile_sum += math.prod(1.0 / math.factorial(pj) for pj in profile)
    rhs = (2 * D) ** (3 * m) * n ** q_extra * (profile_sum if len(span) else 1.0)
    return BoundAudit(f"admissible-supergraphs m={m} p={p_extra} q={q_extra}", count, rhs, regime)


def audit_anchored_subgraph_census(s: LabeledGraph, params: ModelParams) -> list[BoundAudit]:
    """Bucket every anchored subgraph H of s by (shape exponent, profile of
    independent-cycle counts over lengths N+1..D) and audit each bucket
    count against D^(15m) * binomial weights.

    The bound's domain is hosts without cycles of length at most N (the
    admissible graphs it is applied to); short-girth hosts can overfill the
    trivial-profile buckets.
    """
    D, N = params.D, params.N
    if None in (D, N):
        raise ValueError("needs D and N")
    if gc.has_cycle_at_most(s, N):
        raise ValueError("host has a cycle within the girth cut; bound out of domain")
    buckets: dict[tuple, int] = {}
    for h in _anchored_subgraphs_of(s):
        m2 = 2 * _shape_exponent(s, h)
        census = gc.independent_cycle_census(s, h)
        profile = tuple(census.get(j, 0) for j in range(N + 1, D + 1))
        buckets[(int(m2), profile)] = buckets.get((int(m2), profile), 0) + 1
    own_census = {m_len: len([c for c in gc.cycle_components(s) if len(c.edges) == m_len])
                  for m_len in range(3, len(s.edges) + 1)}
    audits = []
    for (m, profile), count in sorted(buckets.items()):
        rhs = float(D) ** (15 * m)
        for j, mj in zip(range(N + 1, D + 1), profile):
            rhs *= math.comb(own_census.get(j, 0), mj)
        audits.append(BoundAudit(f"anchored-subgraphs m={m} profile={profile}", count, rhs))
    return audits


# -- suites ----------------------------------------------------------------------------


def default_pair_fixtures(n: int = 4) -> list[tuple[LabeledGraph, LabeledGraph]]:
    """Pinned conditional-moment fixtures.

    The bound is asymptotic; pairs whose vertex sets fill the whole desk
    ambient (such as two spanning cycles at n = 4) sit outside the slack-2
    window and are deliberately not pinned here.  The CLI audits arbitrary
    instances and reports failures rather than hiding them.
    """
    tri = gc.graph(n, [(0, 1), (1, 2), (0, 2)])
    edge = gc.graph(n, [(0, 1)])
    path = gc.graph(n, [(0, 1), (1, 2)])
    c4 = gc.graph(n, [(0, 1), (1, 2), (2, 3), (0, 3)])
    return [(edge, edge), (edge, tri), (tri, tri), (path, c4)]


SUITES = ("A1", "A4", "A5", "B1", "B3", "P-sum")


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


def _desk_graph(params: ModelParams, edges) -> LabeledGraph:
    return gc.graph(params.n, edges)


def run_suite(name: str, params: ModelParams | None = None, slack: float = DESK_SLACK) -> list[BoundAudit]:
    """Run one named audit suite; deterministic instance order."""
    if params is None:
        params = suite_default_params(name)
    audits: list[BoundAudit] = []
    if name == "A1":
        for s in bs.edge_subgraphs(min(params.n, 5), 4):
            if not s.edges:
                continue
            for k_extra, l_extra in ((0, 1), (1, 1), (1, 2), (2, 2)):
                audits.append(audit_supergraph_count(
                    gc.graph(params.n, s.edges), k_extra, l_extra))
    elif name == "A4":
        h = gc.empty_graph(min(params.n, 7))
        for m, p_extra, q_extra in ((1, 1, 2), (1, 2, 3), (2, 2, 4), (1, 3, 4)):
            audits.append(audit_admissible_supergraph_count(h, params, m, p_extra, q_extra,
                                                            require_admissible=True))
            audits.append(audit_admissible_supergraph_count(h, params, m, p_extra, q_extra,
                                                            require_admissible=False))
    elif name == "A5":
        two_c4 = _desk_graph(params, [(0, 1), (1, 2), (2, 3), (0, 3),
                                      (4, 5), (5, 6), (6, 7), (4, 7)])
        c5 = _desk_graph(params, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        for host in (two_c4, c5):
            audits.extend(audit_anchored_subgraph_census(host, params))
    elif name == "B1":
        joint = ms.correlated_er_joint_measure(params.n, params.p, params.s)
        for s1, s2 in default_pair_fixtures(min(params.n, 4)):
            audits.append(audit_conditional_moment(s1, s2, params, joint, slack))
    elif name == "B3":
        for s_edges, h_edges in (
            ([(0, 1), (1, 2), (0, 2)], []),
            ([(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1)]),
            ([(0, 1), (1, 2), (0, 2), (2, 3)], [(2, 3)]),
        ):
            audits.append(audit_P_sum(_desk_graph(params, s_edges),
                                      _desk_graph(params, h_edges), params, slack))
    elif name == "P-sum":
        two_tri = _desk_graph(params, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        audits.append(audit_P_sum(two_tri, gc.empty_graph(params.n), params, slack))
        audits.append(audit_P_sum(two_tri, _desk_graph(params, [(0, 1), (1, 2), (0, 2)]), params, slack))
    else:
        raise ValueError(f"unknown suite {name!r}")
    return audits
