"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion; a failing criterion shows up as the corresponding failed test.
"""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import scipy.stats

from lowdeg import advantage as adv
from lowdeg import basis as bs
from lowdeg import bounds as bd
from lowdeg import certificate as ct
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md
from lowdeg import reduction as rd
from lowdeg.exactnum import Rad

import exact_oracles as oracle
import helpers as hp


def report(num: int, text: str):
    print(f"[PASS] criterion {num:2d}: {text}")


def se3(p: float, count: int) -> float:
    return 3 * math.sqrt(max(p * (1 - p), 1e-12) / count)


def all_edge_sets(n, cap=None):
    pairs = list(itertools.combinations(range(n), 2))
    top = len(pairs) if cap is None else min(cap, len(pairs))
    for k in range(top + 1):
        yield from itertools.combinations(pairs, k)


# -- 1: null-basis orthonormality ------------------------------------------------


def test_criterion_01_phi_orthonormality():
    pr = md.ModelParams(n=4, lam=F(1), k=2, eps=F(1, 5))
    measure = ms.er_graph_measure(4, bs.null_edge_prob(pr))
    indices = bs.single_indices(4, 3)
    assert len(indices) == 42
    table = {idx: [bs.evaluate_basis(idx, x, pr) for x in measure.outcomes] for idx in indices}
    for i, a in enumerate(indices):
        for b in indices[i:]:
            acc = Rad.of(0)
            for w, va, vb in zip(measure.weights, table[a], table[b]):
                acc = acc + w * (va * vb)
            assert acc == Rad.of(1 if a == b else 0)
    report(1, "single-graph basis orthonormal under the null, n=4 D=3, exact")


# -- 2: planted-basis orthonormality ----------------------------------------------


def test_criterion_02_psi_orthonormality():
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    joint = ms.sbm_joint_measure(3, 2, pr.lam, pr.eps)
    graphs = [gc.graph(3, es) for es in all_edge_sets(3, cap=2)]
    assert len(graphs) == 7
    indices = [hp.planted_index(sig, s)
               for sig in itertools.product(range(2), repeat=3) for s in graphs]
    table = {idx: [bs.evaluate_basis(idx, x, pr) for x in joint.outcomes] for idx in indices}
    for i, a in enumerate(indices):
        for b in indices[i:]:
            acc = Rad.of(0)
            for w, va, vb in zip(joint.weights, table[a], table[b]):
                acc = acc + w * (va * vb)
            assert acc == Rad.of(1 if a == b else 0)
    report(2, "planted basis orthonormal under the joint law, n=3 k=2, exact")


# -- 3: cross-moment closed form ----------------------------------------------------


def test_criterion_03_cross_moment_formula():
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    joint = ms.sbm_joint_measure(3, 2, pr.lam, pr.eps)
    rng = random.Random(42)
    pairs = [(0, 1), (0, 2), (1, 2)]
    checked = 0
    while checked < 220:
        s = gc.graph(3, [e for e in pairs if rng.random() < 0.6])
        h = gc.graph(3, [e for e in pairs if rng.random() < 0.5])
        sigma = tuple(rng.randrange(2) for _ in range(3))
        closed = bs.cross_moment_planted(pr, s, sigma, h)
        phi = bs.single_index(s)
        psi = hp.planted_index(sigma, h)
        brute = joint.expectation(
            lambda x: bs.evaluate_basis(phi, x[1], pr) * bs.evaluate_basis(psi, x, pr))
        assert abs(float(closed) - float(brute)) <= 1e-12
        assert closed == brute  # stronger: exact agreement in the radical field
        checked += 1
    report(3, f"cross-moment closed form vs enumeration on {checked} random instances, <= 1e-12")


# -- 4: completeness -----------------------------------------------------------------


def test_criterion_04_parseval_completeness():
    q, rho = F(1, 3), F(1, 2)
    pr = md.ModelParams(n=3, q=q, rho=rho)
    joint = ms.correlated_er_joint_measure(3, pr.p, pr.s)
    pair = joint.map(lambda x: (x[1], x[2]))
    null = ms.er_pair_measure(3, q)
    rep = adv.advantage_product_basis(pair, pr, 6, kind="pair")
    chi2 = pair.chi_square(null)
    assert rep.value_squared == 1 + chi2
    report(4, f"squared advantage equals 1 + chi-square exactly ({rep.value_squared})")


# -- 5: hidden informative sample -----------------------------------------------------


def test_criterion_05_hidden_sample_identity():
    base_null = ms.DiscreteMeasure(["x", "y"], [F(1, 2), F(1, 2)])
    base_alt = ms.DiscreteMeasure(["x", "y"], [F(1, 5), F(4, 5)])
    base = adv.advantage_gram_schmidt(base_alt, base_null, D=1)
    excesses = []
    for m in (1, 2, 4, 8):
        problem = adv.build_hidden_sample(base_null, base_alt, m)
        rep = adv.hidden_sample_advantage(problem, 1)
        assert (rep.value_squared - 1) * m == base.value_squared - 1
        excesses.append(rep.value_squared - 1)
    # dilution trend: the excess advantage scales exactly like 1/M
    for prev, nxt in zip(excesses, excesses[1:]):
        assert nxt < prev
        assert nxt * 2 == prev
    report(5, "hidden-sample dilution identity exact for M in {1,2,4,8}")


# -- 6: the recursion ------------------------------------------------------------------


def test_criterion_06_xi_recursion():
    pr = md.ModelParams(n=6, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    assert ct.xi(gc.empty_graph(6), pr) == Rad.of(1)
    for leafy in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)]):
        assert ct.xi(gc.graph(6, leafy), pr) == Rad.of(0)
    a, b = bs.h_decomposition(2, pr.eps, pr.lam, pr.n)
    t = ct.transfer_weight(pr, ct.FIRST_ORDER_KERNEL)
    closed = -(2 - 1) * t ** 3 / (a ** 3 + (2 - 1) * b ** 3)
    got = ct.xi(hp.cycle_graph(6, 3), pr)
    assert abs(float(got) - float(closed)) <= 1e-12
    assert got == closed
    # multiplicativity over every vertex-disjoint class pair within 6 edges
    pr12 = pr.with_(n=12)
    table = ct.XiTable(pr12)
    reps = ct.leafless_classes(6)
    pairs_checked = 0
    for r1 in reps:
        for r2 in reps:
            if len(r1.edges) + len(r2.edges) > 6:
                continue
            shift = max(r1.vertices) + 1
            moved = [(u + shift, v + shift) for u, v in r2.edges]
            union = gc.graph(12, list(r1.edges) + moved)
            assert ct.xi(union, pr12, table) == ct.xi(r1, pr12, table) * ct.xi(r2, pr12, table)
            pairs_checked += 1
    assert pairs_checked >= 1
    report(6, "recursion base cases, 3-cycle closed form, exact multiplicativity")


# -- 7: the linear system ----------------------------------------------------------------


def test_criterion_07_linear_system():
    pr = md.ModelParams(n=5, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    residual, rows = ct.verify_linear_system(pr, 3)
    assert rows == 176
    assert isinstance(residual, F) and residual == 0
    report(7, f"dual linear system: all {rows} rows exactly zero at n=5, D=3")


# -- 8: duality sandwich ---------------------------------------------------------------


def test_criterion_08_duality_sandwich():
    results = []
    for eps in (F(0), F(1, 5), F(2, 5)):
        for lam in (F(1, 2), F(1)):
            pr = md.ModelParams(n=4, lam=lam, k=2, eps=eps, delta=F(1, 100))
            exact, dual_norm = ct.duality_gap(pr, 3)
            assert exact <= dual_norm + 1e-9
            assert exact >= 1.0 - 1e-12
            if eps == 0:
                assert abs(exact - 1.0) < 1e-12 and abs(dual_norm - 1.0) < 1e-12
            results.append((float(eps), float(lam), exact, dual_norm))
    # the degree-0 problem is trivially balanced
    pr0 = md.ModelParams(n=4, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    assert ct.reversed_advantage_exact(pr0, 0).value == 1.0
    report(8, f"reversed advantage below the dual norm on all {len(results)} fixtures")


# -- 9: graph structure suite ----------------------------------------------------------


def test_criterion_09_graph_structure_suite():
    rng = random.Random(2024)

    # (i) vertex subadditivity / edge additivity: exhaustive on 4 ambient
    # vertices, randomized on 6
    pairs4 = list(itertools.combinations(range(4), 2))
    for es in itertools.chain.from_iterable(itertools.combinations(pairs4, k) for k in range(4)):
        for et in itertools.chain.from_iterable(itertools.combinations(pairs4, k) for k in range(4)):
            s, t = gc.graph(4, es), gc.graph(4, et)
            cap, _, _ = hp.edge_induced_ops(s, t)
            union = gc.graph_union(s, t)
            assert len(union.vertices) + len(cap.vertices) <= len(s.vertices) + len(t.vertices)
            assert len(union.edges) + len(cap.edges) == len(s.edges) + len(t.edges)
    pairs6 = list(itertools.combinations(range(6), 2))
    pr_phi = md.ModelParams(n=100, q=F(1, 50), D=3)
    for _ in range(500):
        s = gc.graph(6, [e for e in pairs6 if rng.random() < 0.5])
        t = gc.graph(6, [e for e in pairs6 if rng.random() < 0.5])
        cap, _, _ = hp.edge_induced_ops(s, t)
        union = gc.graph_union(s, t)
        assert len(union.vertices) + len(cap.vertices) <= len(s.vertices) + len(t.vertices)
        assert len(union.edges) + len(cap.edges) == len(s.edges) + len(t.edges)
        # (ii) potential submodularity on the same instances
        lhs = md.log_phi_potential(union, pr_phi) + md.log_phi_potential(cap, pr_phi)
        rhs = md.log_phi_potential(s, pr_phi) + md.log_phi_potential(t, pr_phi)
        assert lhs <= rhs + 1e-9

    # (iii) nested-class automorphism growth on up to 6 vertices; dropping
    # more than 3 edges is lossless to skip because Aut of a <=6-vertex
    # graph is at most 720 while the bound is then at least 3^8
    max_aut = math.factorial(6)
    assert 3 ** (2 * 4) > max_aut
    classes: dict[bytes, gc.CanonicalGraph] = {}
    reps: dict[bytes, gc.LabeledGraph] = {}
    for es in itertools.chain.from_iterable(itertools.combinations(pairs6, k) for k in range(len(pairs6) + 1)):
        g = gc.graph(6, es)
        cg = gc.canonicalize(g)
        classes.setdefault(cg.canonical_form, cg)
        reps.setdefault(cg.canonical_form, g)
    for form, t_canon in classes.items():
        t_graph = reps[form]
        edges = sorted(t_graph.edges)
        for drop in range(0, min(3, len(edges)) + 1):
            for removed in itertools.combinations(edges, drop):
                s_canon = gc.canonicalize(gc.graph(6, set(edges) - set(removed)))
                bound = t_canon.aut_count * max(t_canon.n_vertices, 1) ** (2 * drop)
                assert s_canon.aut_count <= bound

    # (v) subgraph counting: exhaustive over hosts in a 5-vertex ambient
    pairs5 = list(itertools.combinations(range(5), 2))
    for es in itertools.chain.from_iterable(itertools.combinations(pairs5, k) for k in range(8)):
        e_count = len(es)
        for k_drop in range(e_count + 1):
            count = math.comb(e_count, k_drop)  # edge-induced subgraphs dropping k edges
            assert count <= max(e_count, 1) ** k_drop if e_count else count == 1

    # decomposition counts on 500 random instances
    for _ in range(500):
        n = rng.randint(3, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        s = gc.graph(n, edges)
        h_edges = rng.sample(edges, rng.randint(0, len(edges))) if edges else []
        hv = {v for e in h_edges for v in e}
        extra = [v for v in s.vertices if v not in hv and rng.random() < 0.25]
        h = gc.graph(n, h_edges, list(hv) + extra)
        want = len(gc.leaves(s) - h.vertices) + gc.excess(s) - gc.excess(h)
        d2 = gc.decompose_difference(s, h, "A2")
        assert d2.t == want
        assert d2.reassembled_edges() == sorted(s.edges - h.edges)
        d3 = gc.decompose_difference(s, h, "A3")
        assert d3.t <= 5 * want
        assert d3.reassembled_edges() == sorted(s.edges - h.edges)

    # path expectation closed form, l <= 5 and k <= 4, on a rational grid
    grid_a = [F(0), F(1, 5), F(7, 10), F(1)]
    grid_b = [F(0), F(1, 5), F(2, 5)]
    for k in (2, 3, 4):
        for length in range(1, 6):
            for a in grid_a:
                for b in grid_b:
                    for labl in (0, 1 % k):
                        total = F(0)
                        for interior in itertools.product(range(k), repeat=length - 1):
                            labels = (0,) + interior + (labl,)
                            term = F(1)
                            for i in range(length):
                                term *= a + b * bs.omega(k, labels[i], labels[i + 1])
                            total += term
                        brute = total / k ** (length - 1)
                        assert oracle.path_expectation(k, a, b, length, 0, labl) == brute

    # exposed-leaf cancellation, 200 instances, exactly zero
    checked = 0
    while checked < 200:
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.45]
        if not edges:
            continue
        s = gc.graph(n, edges)
        h = gc.graph(n, [e for e in edges if rng.random() < 0.4])
        if not (gc.leaves(s) - h.vertices):
            continue
        assert bs.leaf_cancellation_check(s, h, rng.choice([2, 3, 4])) == 0
        checked += 1
    report(9, "graph structure suite: set identities, automorphism growth, "
              "counts, decompositions, path formula, leaf cancellation")


# -- 10: enumeration-bound audits ------------------------------------------------------------


def test_criterion_10_enumeration_bound_audits():
    total = 0
    for suite in ("A1", "A4", "A5"):
        audits = bd.run_suite(suite)
        assert audits
        bad = [a for a in audits if not a.holds]
        assert not bad, (suite, [a.row() for a in bad])
        total += len(audits)
    report(10, f"enumeration-bound audits: {total} instances, zero failures")


# -- 11: model statistics ---------------------------------------------------------------------


def test_criterion_11_model_statistics():
    pr = md.ModelParams(n=1000, q=F(3, 10), rho=F(1, 2))
    stats = hp.edge_statistics_correlated_er(pr, 200, 7)
    count = stats["pair_count"]
    assert abs(stats["a_density"] - 0.3) <= se3(0.3, count)
    pj = stats["expected_joint"]
    assert abs(stats["joint_density"] - pj) <= se3(pj, count)
    # the implied correlation, with the binomial error propagated through
    assert abs(stats["rho_hat"] - 0.5) <= se3(pj, count) / (0.3 * 0.7)

    prs = md.ModelParams(n=500, lam=F(2), k=2, eps=F(1, 2))
    sbm = hp.edge_statistics_sbm(prs, 200, 13)
    assert abs(sbm["intra_rate"] - sbm["expected_intra"]) <= se3(sbm["expected_intra"], sbm["intra_count"])
    assert abs(sbm["inter_rate"] - sbm["expected_inter"]) <= se3(sbm["expected_inter"], sbm["inter_count"])

    n, lam, s = 100, F(1), F(1, 2)
    pr_sbm = md.ModelParams(n=n, lam=lam, k=2, eps=F(0), s=s)
    pr_er = md.ModelParams(n=n, p=lam / n, s=s)
    counts_sbm = [len(md.sample_correlated_sbm(pr_sbm, 50_000 + t).left.edges) for t in range(2000)]
    counts_er = [len(md.sample_correlated_er(pr_er, 90_000 + t).left.edges) for t in range(2000)]
    ks = scipy.stats.ks_2samp(counts_sbm, counts_er)
    assert ks.pvalue > 0.01
    report(11, f"sampler statistics within 3 binomial sigma; KS p = {ks.pvalue:.3f}")


# -- 12: tree growth constant ------------------------------------------------------------------


def test_criterion_12_tree_growth_constant():
    counts = gc.rooted_tree_counts(9)
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286]
    est = gc.otter_constant_estimate(50)
    assert est.converged
    assert 0.337 <= est.value <= 0.340
    report(12, f"rooted-tree counts exact; growth constant {est.value:.5f} in [0.337, 0.340]")


# -- 13: conditional advantage ------------------------------------------------------------------


def test_criterion_13_conditional_advantage():
    values = {}
    for rho in (F(0), F(1, 5), F(7, 20)):
        pr = md.ModelParams(n=4, q=F(1, 4), rho=rho, D=2)
        joint = ms.correlated_er_joint_measure(4, pr.p, pr.s)
        rep = adv.conditional_advantage(joint, pr, 2, 0, 0)
        assert math.isfinite(rep.value)
        assert rep.value >= 1.0 - 1e-12
        if rho == 0:
            assert abs(rep.value - 1.0) <= 1e-12
        cond = adv.condition_on_match(joint, 0, 0)
        null = ms.er_pair_measure(4, F(1, 4))
        gs = adv.advantage_gram_schmidt(cond, null, D=2, exact=False)
        assert abs(rep.value - gs.value) <= 1e-9
        values[rho] = rep.value
    assert values[F(7, 20)] > values[F(1, 5)] > values[F(0)] - 1e-12
    report(13, "conditional advantage finite, >= 1, 1 at rho=0, two methods agree to 1e-9")


# -- 14: reduction harness ----------------------------------------------------------------------


def test_criterion_14_reduction_harness():
    n = 5
    rng = np.random.default_rng(3)

    def wild(a, b):
        mode = rng.integers(3)
        if mode == 0:
            return rng.random((n, n)) * 2
        if mode == 1:
            return np.eye(n)
        out = np.eye(n)
        out[0, 0] = 2
        return out

    fam = rd.truncate_family(rd.IndicatorFamily(n, wild))
    g = gc.empty_graph(n)
    for _ in range(10_000):
        h = fam.evaluate(g, g)
        assert set(np.unique(h)) <= {0.0, 1.0}
        assert set(np.unique(h.sum(axis=1))) <= {0.0, 1.0}

    pr = md.ModelParams(n=9, q=F(1, 3), rho=F(1, 2))
    for name in ("identity", "random", "greedy"):
        est = rd.ESTIMATORS[name](3)
        family = rd.estimator_to_indicators(rd.ESTIMATORS[name](3), 9)
        for seed in range(25):
            samp = md.sample_correlated_er(pr, seed)
            pi_hat = est(samp.left, samp.right)
            assert rd.planted_hit_sum(family, samp) == 9 * float(rd.overlap(pi_hat, samp.pi_star))

    pr0 = md.ModelParams(n=10, q=F(3, 10), rho=F(0))
    p_s, q_s = rd.correlated_er_samplers(pr0)
    trials = 400
    rep = rd.one_sided_test(lambda a, b: len(a.edges), 13.0, p_s, q_s, trials, 9)
    gap = abs(rep.q_accept_rate + rep.p_reject_rate - 1.0)
    assert gap <= 3 * math.sqrt(0.5 / trials)
    report(14, "truncation postcondition on 10^4 inputs; hit-sum identity exact; "
               "null-equals-alternative rates complementary within 3 sigma")
