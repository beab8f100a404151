import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction as F

import pytest

from lowdeg import basis as bs
from lowdeg import bounds as bd
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md


def test_f_bound_trivial_and_hand_expansion():
    pr = md.ModelParams(n=4, q=F(1, 4), rho=F(1, 3), D=2, delta=F(1, 100))
    assert bd.F_bound(gc.empty_graph(4), gc.empty_graph(4), pr) == 1.0
    edge = gc.graph(4, [(0, 1)])
    tri = gc.graph(4, [(0, 1), (1, 2), (0, 2)])
    # two embeddable classes: the empty graph and the single edge
    want = 4 ** -2.5 * (2.0 ** -24 + (1 / 3) * 2 * 2.0 ** -12)
    assert math.isclose(bd.F_bound(edge, tri, pr), want, rel_tol=1e-12)


def test_f_bound_monotone_in_rho():
    lo = md.ModelParams(n=4, q=F(1, 4), rho=F(1, 10), D=2, delta=F(1, 100))
    hi = md.ModelParams(n=4, q=F(1, 4), rho=F(3, 10), D=2, delta=F(1, 100))
    e = gc.graph(4, [(0, 1)])
    t = gc.graph(4, [(0, 1), (1, 2), (0, 2)])
    assert bd.F_bound(e, t, lo) < bd.F_bound(e, t, hi)


def test_pair_weights_trivial():
    pr = md.ModelParams(n=100, q=F(1, 4), rho=F(1, 3), D=3, delta=F(1, 100))
    tri = gc.graph(100, [(0, 1), (1, 2), (0, 2)])
    assert bd.N_pair(tri, tri, pr) == 1.0
    assert bd.M_pair(tri, tri, pr) == 1.0
    assert bd.M_triple(tri, tri, tri, pr) == float(pr.rho) ** 3 * 100 ** (3 - 3)
    with pytest.raises(ValueError):
        bd.M_pair(gc.graph(100, [(0, 1)]), tri, pr)


def test_n_pair_regression_fixture():
    pr = md.ModelParams(n=10 ** 4, q=F(1, 1000), D=3, delta=F(1, 100))
    c4 = gc.graph(10 ** 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # shape exponent vanishes for a bare cycle; only the decay factor remains
    assert math.isclose(bd.N_pair(c4, gc.empty_graph(10 ** 4), pr), (1 - 0.005) ** 4, rel_tol=1e-12)


def test_pair_weights_multiplicative_over_disjoint_unions():
    pr = bd.suite_default_params("P-sum")
    n = pr.n
    tri_a = gc.graph(n, [(0, 1), (1, 2), (0, 2)])
    tri_b = gc.graph(n, [(3, 4), (4, 5), (3, 5)])
    both = gc.graph(n, list(tri_a.edges | tri_b.edges))
    for fn in (bd.M_pair, bd.N_pair):
        lhs = fn(both, gc.empty_graph(n), pr)
        rhs = fn(tri_a, gc.empty_graph(n), pr) * fn(tri_b, gc.empty_graph(n), pr)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_p_sum_single_term_and_audit():
    pr = bd.suite_default_params("P-sum")
    n = pr.n
    tri = gc.graph(n, [(0, 1), (1, 2), (0, 2)])
    assert bd.P_sum(tri, tri, pr) == 1.0
    two_tri = gc.graph(n, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    audit = bd.audit_P_sum(two_tri, gc.empty_graph(n), pr)
    assert audit.holds
    assert gc.independent_cycle_count(two_tri, gc.empty_graph(n)) == 2


def test_conditional_moment_fixture_and_symmetry():
    pr = md.ModelParams(n=4, q=F(1, 4), rho=F(1, 3), D=2, delta=F(1, 100))
    joint = ms.correlated_er_joint_measure(4, pr.p, pr.s)
    edge = gc.graph(4, [(0, 1)])
    val = bd.conditional_pair_moment(joint, edge, edge, pr)
    assert val == pr.rho / 3  # hand computation over the three target slots
    audit = bd.audit_conditional_moment(edge, edge, pr, joint)
    assert audit.holds and audit.regime == "event-vacuous"
    # swapping the two sides leaves the moment unchanged (exchangeability)
    tri = gc.graph(4, [(0, 1), (1, 2), (0, 2)])
    assert bd.conditional_pair_moment(joint, edge, tri, pr) == bd.conditional_pair_moment(joint, tri, edge, pr)


def test_conditional_moment_vanishes_when_independent():
    pr = md.ModelParams(n=3, q=F(1, 4), rho=F(0), D=2, delta=F(1, 100))
    joint = ms.correlated_er_joint_measure(3, pr.p, pr.s)
    edge = gc.graph(3, [(0, 1)])
    assert bd.conditional_pair_moment(joint, edge, edge, pr) == 0
    # and for the empty pair the moment is one, inside the slack bound
    audit = bd.audit_conditional_moment(gc.empty_graph(3), gc.empty_graph(3), pr, joint)
    assert audit.lhs == 1.0 and audit.holds



def test_b1_decides_the_regime_once_and_builds_its_joint_once(monkeypatch):
    calls = []
    for name in ("children_joint", "correlated_er_joint_measure"):
        def counted(*args, _name=name, _real=getattr(ms, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(ms, name, counted)
    active = md.ModelParams(n=3, q=F(1, 10 ** 10), rho=F(1, 3), D=2, delta=F(1, 100))
    audits = bd.run_suite("B1", active)
    assert calls == ["children_joint"]
    assert [a.row() for a in audits] == [bd.audit_conditional_moment(s1, s2, active).row()
                                         for s1, s2 in bd.default_pair_fixtures(3)]
    assert {a.regime for a in audits} == {"event-active"}
    calls.clear()
    audits = bd.run_suite("B1", bd.suite_default_params("B1"))
    assert calls == ["correlated_er_joint_measure"]
    assert {a.regime for a in audits} == {"event-vacuous"}

def test_pair_fixtures_keep_the_pairs_that_fit_on_n_vertices():
    def edges(n):
        return [(s1.edges, s2.edges) for s1, s2 in bd.default_pair_fixtures(n)]

    tri = frozenset([(0, 1), (1, 2), (0, 2)])
    c4 = frozenset([(0, 1), (1, 2), (2, 3), (0, 3)])
    edge = frozenset([(0, 1)])
    assert edges(4) == [(edge, edge), (edge, tri), (tri, tri), (frozenset([(0, 1), (1, 2)]), c4)]
    assert edges(3) == edges(4)[:3] and edges(2) == edges(4)[:1]
    assert all(s.n_vertices == 3 for pair in bd.default_pair_fixtures(3) for s in pair)


def test_supergraph_count_bounds():
    s = gc.graph(6, [(0, 1), (1, 2)])
    trivial = bd.audit_supergraph_count(s, 0, 0)
    assert trivial.lhs == 1 and trivial.rhs == 1
    grown = bd.audit_supergraph_count(s, 1, 1)
    assert grown.holds
    # oracle for the (1,1) case: each new edge must touch a fresh vertex
    count = 0
    for u in s.vertices:
        count += 6 - len(s.vertices)
    assert grown.lhs == count


def test_anchored_subgraph_census_in_domain():
    pr = bd.suite_default_params("A5")
    host = gc.graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    audits = bd.audit_anchored_subgraph_census(host, pr)
    assert audits and all(a.holds for a in audits)
    # the zero-shape buckets are tight: {empty, either cycle, everything}
    zero = {a.instance: a for a in audits if a.instance.startswith("anchored-subgraphs m=0")}
    assert sum(int(a.lhs) for a in zero.values()) == 4
    # out of domain: short-girth hosts are rejected, not silently passed
    with pytest.raises(ValueError):
        bd.audit_anchored_subgraph_census(gc.graph(9, [(0, 1), (1, 2), (0, 2)]), pr)


def test_admissible_supergraph_audit_regimes():
    pr = bd.suite_default_params("A4")
    h = gc.empty_graph(6)
    filtered, stronger = bd.audit_admissible_supergraph_count(h, pr, 1, 2, 3)
    assert filtered.holds and stronger.holds
    assert filtered.lhs <= stronger.lhs
    # the unfiltered count really counts the two-edge paths in the ambient
    assert stronger.lhs == 60  # 3! / 2 * C(6,3) * ... = labeled 2-paths in K6


def test_suites_all_hold():
    for name in bd.SUITES:
        audits = bd.run_suite(name)
        assert audits, name
        assert all(a.holds for a in audits), (name, [a.row() for a in audits if not a.holds])


# sha256 of the rows of each default suite, one repr per line; computed
# before the counts moved to size keys and vertex bitmasks
SUITE_ROW_PINS = {
    "A1": "ccfaeedc2342f2a5405f6ec9739f01b5b55b226515561dd6d4ef9773eaa812dc",
    "A4": "fe3687282f8c5b981935b5df809c8ed3f77e8f673e034f15d453c5bcc4410ab4",
    "A5": "6090446f08886909d17b607e32c40da47f1b8daa7a89b9f149b59d081c5fa738",
    "B1": "89060ddb655a4ed3e650017d1a5f9bb9d99d5e9ec94819e7499792cf6417e2e0",
    "B3": "af186180f21dca3184914912c70b3fc2d524b8b93ff3361bd3a9fce2dd4420b3",
    "P-sum": "ff4ec3a8f98a60a4910f9f17ef0ac09a11b7c6afd6f4a2700d1f4d9f49e3376f",
}


@pytest.mark.parametrize("name", sorted(SUITE_ROW_PINS))
def test_suite_rows_are_pinned(name):
    rows = [repr(a.row()) for a in bd.run_suite(name)]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == SUITE_ROW_PINS[name]


def test_bounds_budget_errors_carry_fields():
    pr = md.ModelParams(n=20, q=F(1, 4), rho=F(1, 3), D=2, N=3, delta=F(1, 100))
    star = gc.graph(20, [(0, i) for i in range(1, 18)])
    with pytest.raises(gc.EnumerationBudgetError) as info:
        bd.P_sum(star, gc.empty_graph(20), pr)
    err = info.value
    assert (str(err), err.where, err.requested, err.budget) == (
        "anchored extra edges: requested 17, budget 16", "bounds._anchored_between", 17, 16)
    small_star = gc.graph(20, [(0, i) for i in range(1, 12)])
    with pytest.raises(gc.EnumerationBudgetError) as info:
        bd.audit_anchored_subgraph_census(small_star, pr)
    err = info.value
    assert (str(err), err.where, err.requested, err.budget) == (
        "host edges or vertices: requested 12, budget 10", "bounds.audit_anchored_subgraph_census", 12, 10)


# -- oracles: the per-candidate LabeledGraph loops the counts replaced ------------


def _supergraph_count_oracle(s, k_extra, l_extra):
    n = s.n_vertices
    candidates = sorted(set(itertools.combinations(range(n), 2)) - s.edges)
    count = 0
    for subset in itertools.combinations(candidates, l_extra):
        t = gc.graph(n, s.edges | frozenset(subset))
        if gc.isolated_vertices(t) or not s.vertices <= t.vertices:
            continue
        if len(t.vertices) - len(s.vertices) == k_extra:
            count += 1
    return count


def test_supergraph_count_matches_graph_loop_on_every_a1_host():
    for s in bs.edge_subgraphs(5, 4):
        if not s.edges:
            continue
        host = gc.graph(6, s.edges)
        for k_extra, l_extra in ((0, 1), (1, 1), (1, 2), (2, 2)):
            audit = bd.audit_supergraph_count(host, k_extra, l_extra)
            assert audit.lhs == _supergraph_count_oracle(host, k_extra, l_extra), (sorted(s.edges), k_extra)
            assert audit.rhs == 6 ** k_extra * (len(host.vertices) + k_extra) ** (2 * l_extra)


def test_supergraph_count_covers_declared_isolated_vertices():
    bare = gc.graph(6, [(0, 1)])
    padded = gc.graph(6, [(0, 1)], vertices=[0, 1, 5])
    # the extra edge must reach the declared vertex 5: (0,5) or (1,5) add no
    # vertex, (5,x) for x in 2..4 adds one; without 5 declared, any of the 8
    # edges from {0,1} to 2..5 adds one
    assert bd.audit_supergraph_count(bare, 1, 1).lhs == 8
    assert bd.audit_supergraph_count(bare, 0, 1).lhs == 0
    assert bd.audit_supergraph_count(padded, 1, 1).lhs == 3
    assert bd.audit_supergraph_count(padded, 0, 1).lhs == 2
    assert bd.audit_supergraph_count(padded, 0, 0).lhs == 0
    for host in (padded, gc.graph(6, [(0, 1), (1, 2)], vertices=[0, 1, 2, 4, 5]),
                 gc.graph(7, [(2, 3)], vertices=range(7))):
        for k_extra, l_extra in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2), (1, 3), (3, 3)):
            want = _supergraph_count_oracle(host, k_extra, l_extra)
            assert bd.audit_supergraph_count(host, k_extra, l_extra).lhs == want, (host, k_extra, l_extra)


def _admissible_count_oracle(h, params, m, p_extra, q_extra, require_admissible):
    """The admissible-supergraph count as one LabeledGraph per candidate edge set."""
    n, D, N = h.n_vertices, params.D, params.N
    candidates = sorted(set(itertools.combinations(range(n), 2)) - h.edges)
    count = 0
    for subset in itertools.combinations(candidates, p_extra):
        s = gc.graph(n, h.edges | frozenset(subset), h.vertices)
        if len(s.edges) > D:
            continue
        if not gc.isolated_vertices(s) <= gc.isolated_vertices(h):
            continue
        if len(s.vertices) - len(h.vertices) != q_extra:
            continue
        if 2 * bd._shape_exponent(s, h) != m:
            continue
        census = gc.independent_cycle_census(s, h)
        if any(length > N for length in census):
            continue
        if require_admissible:
            if gc.has_cycle_at_most(s, N):
                continue
            if md.contains_bad_subgraph(s, params, min(len(s.vertices), D ** 3), "sbm"):
                continue
        count += 1
    return count


def test_admissible_supergraph_count_matches_per_candidate_loop():
    pr = bd.suite_default_params("A4")
    suite = bd.run_suite("A4", pr)
    h = gc.empty_graph(6)
    shapes = [(m, p, q) for m, p, q in ((1, 1, 2), (1, 2, 3), (2, 2, 4), (1, 3, 4)) for _ in range(2)]
    for audit, (m, p, q), req in zip(suite, shapes, itertools.cycle((True, False))):
        assert audit.lhs == _admissible_count_oracle(h, pr, m, p, q, req), audit.instance
    # hosts with edges and declared isolated vertices; at n = 10^30 the
    # block-model potential passes small graphs, so the filtered count is
    # not vacuous and differs from the unfiltered one where a triangle forms
    big = dataclasses.replace(pr, n=10 ** 30)
    filtered_differs = False
    for h in (gc.graph(6, [(0, 1)], vertices=[0, 1, 5]),
              gc.graph(7, [(0, 1), (1, 2)], vertices=[0, 1, 2, 4, 6])):
        for params, m, p, q in itertools.product((pr, big), range(3), range(3), range(4)):
            counts = [a.lhs for a in bd.audit_admissible_supergraph_count(h, params, m, p, q)]
            assert counts == [_admissible_count_oracle(h, params, m, p, q, req)
                              for req in (True, False)], (sorted(h.edges), params.n, m, p, q)
            filtered_differs |= 0 < counts[0] < counts[1]
    assert filtered_differs


def test_admissible_supergraph_audit_reads_event_E_once_per_candidate(monkeypatch):
    real, calls = md.event_E_indicator, []

    def spy(g, params, model="er"):
        calls.append(model)
        return real(g, params, model)

    monkeypatch.setattr(md, "event_E_indicator", spy)
    suite = bd.run_suite("A4")
    stronger = [a.lhs for a in suite if a.regime == "admissibility-skipped(stronger-lhs)"]
    assert len(stronger) == 4 and sum(stronger) > 0
    assert calls == ["sbm"] * sum(stronger)


def test_anchored_census_buckets_match_per_h_census():
    pr = bd.suite_default_params("A5")
    D, N = pr.D, pr.N
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    hosts = [
        gc.graph(9, c4 + [(4, 5), (5, 6), (6, 7), (4, 7)]),
        gc.graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        gc.graph(9, c4 + [(4, 5), (5, 6), (6, 7), (7, 8), (4, 8)]),
        gc.graph(9, c4 + [(4, 5), (5, 6), (6, 7), (4, 7)], vertices=range(9)),
        gc.graph(9, c4 + [(3, 4), (5, 6)]),
    ]
    for host in hosts:
        buckets = {}
        for h in _anchored_subgraphs_per_subset(host):
            census = gc.independent_cycle_census(host, h)
            key = (int(2 * bd._shape_exponent(host, h)),
                   tuple(census.get(j, 0) for j in range(N + 1, D + 1)))
            buckets[key] = buckets.get(key, 0) + 1
        own = gc.independent_cycle_census(host, gc.empty_graph(9))
        want = {}
        for (m, profile), count in buckets.items():
            rhs = float(D) ** (15 * m)
            for j, mj in zip(range(N + 1, D + 1), profile):
                rhs *= math.comb(own.get(j, 0), mj)
            want[f"anchored-subgraphs m={m} profile={profile}"] = (count, rhs)
        got = {a.instance: (a.lhs, a.rhs) for a in bd.audit_anchored_subgraph_census(host, pr)}
        assert got == want, sorted(host.edges)


def _anchored_between_per_subset(h, s):
    """The anchored intermediate graphs as their own loop over extra edges."""
    extra = sorted(s.edges - h.edges)
    iso_h = gc.isolated_vertices(h)
    for k in range(len(extra) + 1):
        for subset in itertools.combinations(extra, k):
            edges = h.edges | frozenset(subset)
            yield gc.graph(s.n_vertices, edges, {v for e in edges for v in e} | iso_h)


def _anchored_subgraphs_per_subset(s):
    """The anchored subgraphs as their own loop over edge and vertex subsets."""
    edges = sorted(s.edges)
    iso_s = gc.isolated_vertices(s)
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            endpoints = {v for e in subset for v in e}
            spare = sorted(s.vertices - endpoints - iso_s)
            for r in range(len(spare) + 1):
                for extra in itertools.combinations(spare, r):
                    yield gc.graph(s.n_vertices, subset, endpoints | set(extra) | iso_s)


def test_anchored_enumerations_match_per_subset_loops():
    s = gc.graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], vertices=range(7))
    # h may declare isolated vertices, inside and outside the edge support of s
    for h in (gc.empty_graph(8), gc.graph(8, [(0, 1)]), gc.graph(8, [(0, 1)], vertices=[0, 1, 3, 5]),
              gc.graph(8, [(0, 1), (1, 2), (0, 2)], vertices=[0, 1, 2, 6]), s):
        assert list(bd._anchored_between(h, s)) == list(_anchored_between_per_subset(h, s))


def test_f_bound_sums_classes_in_canonical_order():
    # the float sum runs over the common classes sorted by canonical form,
    # so the printed rhs does not depend on the interpreter's hash seed
    pr = bd.suite_default_params("B1")
    tri = gc.graph(4, [(0, 1), (1, 2), (0, 2)])
    c4 = gc.graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for s1, s2 in ((tri, tri), (tri, c4), (c4, c4)):
        cls1, cls2 = gc.subgraph_classes(s1), gc.subgraph_classes(s2)
        total = 0.0
        for form in sorted(set(cls1) & set(cls2)):
            cg = cls1[form]
            total += (pr.n ** (-(len(s1.vertices) + len(s2.vertices)) / 2)
                      * float(pr.rho) ** cg.n_edges
                      * float(pr.D) ** (-6 * (len(s1.edges) + len(s2.edges) - 2 * cg.n_edges))
                      * cg.aut_count)
        assert bd.F_bound(s1, s2, pr) == total
