import collections
import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from lowdeg import bounds as bd
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md

import dense_oracle as dense
import helpers as hp


def se3(p: float, count: int) -> float:
    return 3 * math.sqrt(max(p * (1 - p), 1e-12) / count)


# -- parameters ---------------------------------------------------------------


def test_reparameterization_round_trip():
    pr = md.ModelParams(n=50, q=F(3, 10), rho=F(1, 2))
    assert pr.p * pr.s == pr.q
    assert pr.s * (1 - pr.p) / (1 - pr.q) == pr.rho
    back = md.ModelParams(n=50, p=pr.p, s=pr.s)
    assert back.q == F(3, 10) and back.rho == F(1, 2)


def test_param_validation():
    with pytest.raises(ValueError):
        md.ModelParams(n=1)
    with pytest.raises(ValueError):
        md.ModelParams(n=10, q=F(3, 2))
    with pytest.raises(ValueError):
        md.ModelParams(n=10, p=F(1, 2), s=F(1, 2), q=F(9, 10), rho=F(1, 2))
    with pytest.raises(ValueError):
        md.ModelParams(n=10, lam=F(20), k=2, eps=F(1, 2))  # intra prob > 1
    with pytest.raises(ValueError):
        md.ModelParams(n=10, delta=F(1, 50))
    # degenerate endpoints are allowed
    pr = md.ModelParams(n=6, p=F(1, 2), s=F(1))
    assert pr.rho == 1
    # counts are integers: numpy ints are read as Python ints, 6.5 and 6.0 are refused by name
    counts = md.ModelParams(n=np.int64(6), k=np.int32(2), D=np.int16(2), N=np.uint8(3))
    assert [(x, type(x)) for x in (counts.n, counts.k, counts.D, counts.N)] == [
        (6, int), (2, int), (2, int), (3, int)]
    for name in ("n", "k", "D", "N"):
        for bad in (6.5, 6.0, F(6)):
            with pytest.raises(ValueError, match=f"^{name}={re.escape(repr(bad))} is not an integer$"):
                md.ModelParams(**{"n": 6, name: bad})
    with pytest.raises(ValueError, match="^n=6.5 is not an integer$"):
        bd.run_suite("B3", md.ModelParams(n=6.5, D=2, delta=F(1, 100)))


def test_float_delta_is_compared_with_the_float_cap():
    assert md.ModelParams(n=10, delta=0.01).delta == 0.01
    assert md.ModelParams(n=10, delta=F(1, 100)).delta == F(1, 100)
    with pytest.raises(ValueError):
        md.ModelParams(n=10, delta=0.0101)


def test_n_constant_inequalities():
    pr = md.ModelParams(n=100, lam=1, k=2, eps=0.2, delta=F(1, 100))
    n_star = md.choose_N(pr)
    assert md.n_constant_ok(pr.with_(N=n_star))
    assert not md.n_constant_ok(pr.with_(N=max(2, math.ceil(2 / pr.delta) - 10)))
    assert n_star >= 2 / pr.delta


# -- samplers ------------------------------------------------------------------


def test_sample_invariants_and_determinism():
    pr = md.ModelParams(n=20, q=F(1, 4), rho=F(1, 3))
    a = md.sample_correlated_er(pr, 7)
    b = md.sample_correlated_er(pr, 7)
    assert a.left.edges == b.left.edges and a.pi_star == b.pi_star
    c = md.sample_correlated_er(pr, 8)
    assert c.left.edges != a.left.edges or c.pi_star != a.pi_star
    # subset invariants are enforced at construction
    assert a.left.edges <= a.parent.edges
    with pytest.raises(ValueError):
        md.CorrelatedSample((0, 1), None, gc.empty_graph(2),
                            gc.graph(2, [(0, 1)], vertices=range(2)), gc.empty_graph(2))


def test_degenerate_full_subsampling():
    pr = md.ModelParams(n=8, p=F(1, 2), s=F(1))
    s = md.sample_correlated_er(pr, 3)
    inv = {v: i for i, v in enumerate(s.pi_star)}
    pulled = frozenset(tuple(sorted((inv[u], inv[v]))) for u, v in s.right.edges)
    assert s.left.edges == s.parent.edges
    assert pulled == s.parent.edges


def test_correlated_er_monte_carlo_marginals():
    pr = md.ModelParams(n=200, q=F(3, 10), rho=F(1, 2))
    stats = hp.edge_statistics_correlated_er(pr, 60, 17)
    assert abs(stats["a_density"] - 0.3) <= se3(0.3, stats["pair_count"])
    assert abs(stats["b_density"] - 0.3) <= se3(0.3, stats["pair_count"])
    pj = stats["expected_joint"]
    assert abs(stats["joint_density"] - pj) <= se3(pj, stats["pair_count"])
    # implied correlation lands near rho
    assert abs(stats["rho_hat"] - 0.5) <= se3(pj, stats["pair_count"]) / (0.3 * 0.7) + 0.01


def test_sbm_monte_carlo_rates():
    pr = md.ModelParams(n=300, lam=F(2), k=2, eps=F(1, 2))
    stats = hp.edge_statistics_sbm(pr, 80, 23)
    assert abs(stats["intra_rate"] - stats["expected_intra"]) <= se3(stats["expected_intra"], stats["intra_count"])
    assert abs(stats["inter_rate"] - stats["expected_inter"]) <= se3(stats["expected_inter"], stats["inter_count"])
    # mean degree concentrates near lam (up to the 1/n label imbalance)
    assert abs(stats["mean_degree"] - 2.0) < 0.1


def test_correlated_sbm_marginal_and_independence():
    pr = md.ModelParams(n=120, lam=F(2), k=2, eps=F(1, 2), s=F(1, 2))
    # marginal edge density of the left child is lam*s/n
    edges = 0
    trials = 120
    for t in range(trials):
        samp = md.sample_correlated_sbm(pr, 1000 + t)
        edges += len(samp.left.edges)
    pairs = pr.n * (pr.n - 1) // 2
    dens = edges / (trials * pairs)
    want = float(pr.lam * pr.s / pr.n)
    assert abs(dens - want) <= se3(want, trials * pairs)
    # conditional independence of the children given the parent and matching
    rng = np.random.default_rng(5)
    parent = md._upper_draw(rng, 30, 0.5)
    table = np.zeros((2, 2), dtype=int)
    u, v = 0, 1
    parent = np.union1d(parent, [u * 30 + v])
    at = np.searchsorted(parent, u * 30 + v)
    for t in range(800):
        rng_t = md.derived_rng(99, t)
        pi, in_a, in_kept = md._draw_children(rng_t, 30, parent, 0.5)
        # B aligned by pi is the kept set
        table[int(in_a[at]), int(in_kept[at])] += 1
    _, pval, _, _ = scipy.stats.chi2_contingency(table)
    assert pval > 0.01


def test_correlated_sbm_eps_zero_matches_er_ks():
    n, lam, s = 100, F(1), F(1, 2)
    pr_sbm = md.ModelParams(n=n, lam=lam, k=2, eps=F(0), s=s)
    pr_er = md.ModelParams(n=n, p=lam / n, s=s)
    counts_sbm = [len(md.sample_correlated_sbm(pr_sbm, 10_000 + t).left.edges) for t in range(600)]
    counts_er = [len(md.sample_correlated_er(pr_er, 20_000 + t).left.edges) for t in range(600)]
    stat = scipy.stats.ks_2samp(counts_sbm, counts_er)
    assert stat.pvalue > 0.01


def _block_sizes() -> tuple[int, ...]:
    # n = b draws the n x n stream in one block, n = b + 1 in more than one
    b = math.isqrt(md._DRAW_BLOCK)
    assert md._DRAW_BLOCK // b >= b and md._DRAW_BLOCK // (b + 1) < b + 1
    return (1, 2, b - 1, b, b + 1, 1000)


def test_draw_core_reads_the_dense_stream():
    for n in _block_sizes():
        labels = np.arange(n) % 3
        # row c of the table: the probabilities of a vertex labeled c
        table = np.random.default_rng(n).random((3, n))
        for prob, lab in ((0.3, None), (table, labels)):
            a, b = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
            got = md._upper_draw(a, n, prob, labels=lab)
            want = np.flatnonzero(np.triu(dense.rand_sym_mask(b, n, prob if lab is None else prob[lab]), 1))
            assert np.array_equal(got, want), n
            assert a.random() == b.random()
            at = want[::2]
            assert np.array_equal(md._upper_draw(a, n, at=at), b.random((n, n)).ravel()[at])
            assert a.random() == b.random()


def test_samplers_match_the_dense_oracle():
    for n in _block_sizes()[1:]:  # the models need n >= 2
        er = md.ModelParams(n=n, q=F(1, 20), rho=F(1, 2))
        sbm = md.ModelParams(n=n, lam=F(min(n, 8), 4), k=3, eps=F(1, 2), s=F(1, 2))
        a, b = md.derived_rng(n), md.derived_rng(n)
        assert md.draw_er(a, n, er.q) == dense.mask_to_graph(n, dense.rand_sym_mask(b, n, float(er.q)))
        assert a.random() == b.random()
        sigma, g = md._draw_sbm(a, sbm)
        sigma_d, g_d = dense.draw_sbm(b, sbm)
        assert np.array_equal(sigma, sigma_d) and np.array_equal(g, np.flatnonzero(np.triu(g_d, 1)))
        assert a.random() == b.random()
        pi, in_a, in_kept = md._draw_children(a, n, g, 0.5)
        pi_d, left_d, right_d = dense.draw_correlated(b, n, g_d, 0.5)
        assert np.array_equal(pi, pi_d) and np.array_equal(g[in_a], np.flatnonzero(np.triu(left_d, 1)))
        assert np.array_equal(g[in_kept], np.flatnonzero(np.triu(right_d[np.ix_(pi, pi)], 1)))
        assert a.random() == b.random()
        for seed in (0, 1):
            assert md.sample_correlated_er(er, seed, 2) == dense.sample_correlated_er(er, seed, 2)
            assert md.sample_sbm(sbm, seed) == dense.sample_sbm(sbm, seed)
            assert md.sample_correlated_sbm(sbm, seed) == dense.sample_correlated_sbm(sbm, seed)
    mod = md.ModelParams(n=10, lam=F(3, 2), k=2, eps=F(1, 10), s=F(1, 2), D=2, delta=F(1, 100), N=4)
    for seed in range(8):
        assert md.sample_modified_sbm(mod, seed) == dense.sample_modified_sbm(mod, seed)
    er = md.ModelParams(n=300, q=F(3, 10), rho=F(1, 2))
    stats = hp.edge_statistics_correlated_er(er, 3, 17)
    a_edges, b_edges, joint = dense.edge_statistics_correlated_er(er, 3, 17)
    count = stats["pair_count"]
    assert (stats["a_density"], stats["b_density"], stats["joint_density"]) == (
        a_edges / count, b_edges / count, joint / count)
    sbm = md.ModelParams(n=300, lam=F(2), k=3, eps=F(1, 2))
    stats = hp.edge_statistics_sbm(sbm, 3, 23)
    intra_e, intra_n, inter_e, inter_n, degree_total = dense.edge_statistics_sbm(sbm, 3, 23)
    assert (stats["intra_rate"], stats["inter_rate"], stats["intra_count"], stats["inter_count"]) == (
        intra_e / intra_n, inter_e / inter_n, intra_n, inter_n)
    assert stats["mean_degree"] == degree_total / (3 * 300)


def _draw_record(x) -> str:
    if isinstance(x, md.CorrelatedSample):
        return repr([_draw_record(p) for p in (x.pi_star, x.sigma_star, x.parent, x.left, x.right,
                                                x.parent_pruned)])
    if isinstance(x, gc.LabeledGraph):
        return repr((x.n_vertices, sorted(x.edges), sorted(x.vertices)))
    if isinstance(x, tuple):
        return repr(tuple(_draw_record(p) for p in x))
    return repr(x)


def _digest_grid():
    for n in (1, 2, 12, 255, 256, 257, 300):
        for seed in range(3):
            yield "draw_er", n, seed, md.draw_er(md.derived_rng(seed), n, F(1, 5))
    for n in (2, 12, 16, 255, 256, 257, 1000):
        pr = md.ModelParams(n=n, q=F(1, 4) if n < 100 else F(1, 50), rho=F(1, 2))
        for seed in range(3):
            yield "corr_er", n, seed, md.sample_correlated_er(pr, seed, 5)
    for n in (7, 30, 257, 500):
        pr = md.ModelParams(n=n, lam=F(3), k=2 if n != 30 else 3, eps=F(1, 2), s=F(1, 2))
        for seed in range(3):
            yield "sbm", n, seed, md.sample_sbm(pr, seed)
            yield "corr_sbm", n, seed, md.sample_correlated_sbm(pr, seed)
    for n in (10, 12):
        pr = md.ModelParams(n=n, lam=F(3, 2), k=2, eps=F(1, 10), s=F(1, 2), D=2, delta=F(1, 100), N=4)
        for seed in range(3):
            yield "mod_sbm", n, seed, md.sample_modified_sbm(pr, seed)
    yield "stats_er", 200, 17, hp.edge_statistics_correlated_er(
        md.ModelParams(n=200, q=F(3, 10), rho=F(1, 2)), 5, 17)
    yield "stats_sbm", 300, 23, hp.edge_statistics_sbm(
        md.ModelParams(n=300, lam=F(2), k=2, eps=F(1, 2)), 5, 23)


def test_draws_match_the_digest_of_the_dense_samplers():
    # pinned from the dense n x n samplers, before the row-block draws
    h = hashlib.sha256()
    for name, n, seed, x in _digest_grid():
        h.update(f"{name} {n} {seed} {_draw_record(x)}\n".encode())
    assert h.hexdigest() == "4b725a67d7fe86c31b3176fc978d6c118319423bc2deb4c28d36136df1927ffb"


# One draw from each sampler, in a fresh interpreter: which numpy modules do they load?
SAMPLER_PROBE = ("import sys\nfrom fractions import Fraction as F\nfrom lowdeg import models as md\n"
                 "md.sample_correlated_er(md.ModelParams(n=12, q=F(1, 4), rho=F(1, 2)), 0, 5)\n"
                 "pr = md.ModelParams(n=10, lam=F(3, 2), k=2, eps=F(1, 10), s=F(1, 2), D=2,"
                 " delta=F(1, 100), N=4)\n"
                 "md.sample_correlated_sbm(pr, 0)\nmd.sample_modified_sbm(pr, 0)\n"
                 "print('numpy.ma' in sys.modules)")


def test_samplers_do_not_import_numpy_ma():
    """numpy.ma takes 10-15 ms to import; np.setdiff1d loads it on first call."""
    env = {**os.environ, "PYTHONPATH": str(Path(md.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", SAMPLER_PROBE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_correlated_sample_errors():
    k3, empty = gc.complete_graph(3), gc.empty_graph(3)
    right = gc.graph(3, [(1, 2)], vertices=range(3))
    for pi in ((0, 0, 1), (1, 0), (0, 1, 3), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="pi_star is not a permutation"):
            md.CorrelatedSample(pi, None, k3, empty, right)
    path = gc.graph(3, [(0, 1)], vertices=range(3))
    # pi = (1, 2, 0) pulls (1, 2) back to (0, 1) and (0, 2) back to (1, 2)
    assert md.CorrelatedSample((1, 2, 0), None, path, empty, right).right == right
    off = gc.graph(3, [(0, 2)], vertices=range(3))
    with pytest.raises(ValueError, match="right child does not pull back into the parent"):
        md.CorrelatedSample((1, 2, 0), None, path, empty, off)
    # the pruned parent, not the parent, is what the children pull back into
    md.CorrelatedSample((1, 2, 0), None, k3, empty, off)
    with pytest.raises(ValueError, match="right child does not pull back into the parent"):
        md.CorrelatedSample((1, 2, 0), None, k3, empty, off, parent_pruned=path)


def test_public_constructors_accept_every_sampler_draw():
    # the samplers check index arrays and skip the public checks, which are the oracle here
    for name, n, seed, x in _digest_grid():
        parts = x if isinstance(x, tuple) else [x]  # sample_sbm gives (sigma, graph)
        if isinstance(x, md.CorrelatedSample):
            parts = [getattr(x, f.name) for f in dataclasses.fields(x)]
            assert md.CorrelatedSample(*parts) == x, (name, n, seed)
        graphs = [y for y in parts if isinstance(y, gc.LabeledGraph)]
        assert graphs or name.startswith("stats"), (name, n, seed)
        for g in graphs:
            public = gc.LabeledGraph(g.n_vertices, g.edges, g.vertices)
            assert public == g and hash(public) == hash(g), (name, n, seed)


def test_sampler_array_checks_refuse_bad_arrays():
    with pytest.raises(ValueError, match="^ambient vertex count must be positive$"):
        md._graph(0, np.array([], dtype=np.intp))
    # flat indices on n = 4: 4 is (1, 0), unnormalized; -1 is negative; 17 is past n*n; 10 is the loop (2, 2)
    for idx in (4, -1, 17, 10):
        with pytest.raises(ValueError, match=f"^edge index {idx} out of range or unnormalized$"):
            md._graph(4, np.array([1, idx]))
    base = np.array([1, 6])  # (0, 1) and (1, 2)
    both = np.array([True, True])
    for pi in ((0, 0, 1, 2), (1, 0, 2), (0, 1, 2, 4)):
        with pytest.raises(ValueError, match="^pi_star is not a permutation$"):
            md._correlated_sample(4, None, md._graph(4, base), base, (np.array(pi), both, both))
    # base holds 4, the unnormalized (1, 0): the right child pulls back to (0, 1), index 1, not in base
    with pytest.raises(ValueError, match="^right child does not pull back into the parent$"):
        md._correlated_sample(4, None, md._graph(4, base), np.array([4]),
                              (np.array([2, 3, 0, 1]), np.array([False]), np.array([True])))
    got = md._correlated_sample(4, None, md._graph(4, base), base, (np.array([2, 3, 0, 1]), both, both))
    assert got == md.CorrelatedSample((2, 3, 0, 1), None, md._graph(4, base), md._graph(4, base),
                                      gc.graph(4, [(2, 3), (0, 3)], vertices=range(4)))


def test_draw_er_refuses_a_nonpositive_vertex_count():
    # checked before the row-block draw, which divides by n and sizes arrays by n
    for n in (0, -3):
        with pytest.raises(ValueError, match="^ambient vertex count must be positive$"):
            md.draw_er(md.derived_rng(1), n, 0.5)


def _chi_square(joint, draws) -> float:
    law = dict(zip(joint.outcomes, map(float, joint.weights)))
    counts = collections.Counter(draws)
    assert set(counts) <= set(law)
    m = len(draws)
    return sum((counts[x] - m * w) ** 2 / (m * w) for x, w in law.items())


def test_correlated_samplers_match_their_enumerated_joints():
    # 4,000 draws of each sampler at n = 3 against its 384-atom (pi, A, B) law
    er = md.ModelParams(n=3, p=F(1, 2), s=F(1, 2))
    sbm = md.ModelParams(n=3, lam=F(3, 2), k=2, eps=F(1, 3), s=F(1, 2))
    cases = (
        (ms.correlated_er_joint_measure(3, er.p, er.s),
         [md.sample_correlated_er(er, 41, t) for t in range(4000)]),
        (ms.correlated_sbm_joint_measure(3, 2, sbm.lam, sbm.eps, sbm.s),
         [md.sample_correlated_sbm(sbm, 50_000 + t) for t in range(4000)]),
    )
    for joint, samples in cases:
        bound = scipy.stats.chi2.isf(1e-6, len(joint) - 1)
        assert _chi_square(joint, [(x.pi_star, x.left.edges, x.right.edges) for x in samples]) < bound
        # pi* read as its inverse: the 3-cycles swap, and the law no longer fits
        flipped = [(tuple(sorted(range(3), key=x.pi_star.__getitem__)), x.left.edges, x.right.edges)
                   for x in samples]
        assert _chi_square(joint, flipped) > bound


def test_block_model_sampler_matches_its_enumerated_joint():
    # 4,000 draws of sample_sbm at n = 3, k = 3 against the 216-atom
    # (sigma, G) law; k = 3 so that the label convention shows (at k = 2,
    # swapping the labels is a symmetry of the law)
    pr = md.ModelParams(n=3, lam=F(1), k=3, eps=F(1, 2))  # p_in = 2/3, p_out = 1/6
    joint = ms.sbm_joint_measure(3, pr.k, pr.lam, pr.eps)
    draws = [md.sample_sbm(pr, 60_000 + t) for t in range(4000)]
    bound = scipy.stats.chi2.isf(1e-6, len(joint) - 1)
    assert _chi_square(joint, [(sigma, g.edges) for sigma, g in draws]) < bound
    # each graph paired with the previous draw's labels: the same marginals,
    # but the edges no longer follow the labels, and the law no longer fits
    shifted = [(draws[t - 1][0], g.edges) for t, (_, g) in enumerate(draws)]
    assert _chi_square(joint, shifted) > bound


# -- potentials and admissibility ------------------------------------------------


def test_phi_potential_formula():
    pr = md.ModelParams(n=10 ** 4, q=F(1, 1000), D=4)
    c4 = hp.cycle_graph(8, 4)
    want = ((10 ** 4) ** (1 + 4 / 4) * 4 ** 20) ** 4 * ((1 / 1000) * 4 ** 6) ** 4
    assert math.isclose(md.phi_potential(c4, pr), want, rel_tol=1e-9)
    assert md.log_phi_potential(c4, pr) > 0  # not bad
    assert md.phi_potential(gc.empty_graph(4), pr) == 1.0
    assert md.is_admissible_er(c4, pr)


def test_phi_submodularity_random():
    import random

    rng = random.Random(2)
    pr = md.ModelParams(n=100, q=F(1, 50), D=3)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for _ in range(200):
        s = gc.graph(5, [e for e in pairs if rng.random() < 0.5])
        t = gc.graph(5, [e for e in pairs if rng.random() < 0.5])
        cap, _, _ = hp.edge_induced_ops(s, t)
        union = gc.graph_union(s, t)
        lhs = md.log_phi_potential(union, pr) + md.log_phi_potential(cap, pr)
        rhs = md.log_phi_potential(s, pr) + md.log_phi_potential(t, pr)
        assert lhs <= rhs + 1e-9


def test_phi_multiplicative_over_disjoint_unions():
    pr = md.ModelParams(n=100, q=F(1, 50), D=3, lam=F(1), k=2, eps=F(1, 5))
    a = gc.graph(8, [(0, 1), (1, 2), (0, 2)])
    b = gc.graph(8, [(4, 5), (5, 6)])
    both = gc.graph(8, list(a.edges | b.edges))
    assert math.isclose(md.log_phi_potential(both, pr),
                        md.log_phi_potential(a, pr) + md.log_phi_potential(b, pr))
    assert math.isclose(md.log_upsilon_potential(both, pr),
                        md.log_upsilon_potential(a, pr) + md.log_upsilon_potential(b, pr))


def test_upsilon_and_self_bad():
    pr = md.ModelParams(n=10 ** 6, lam=2, k=2, eps=F(1, 10), D=3, delta=F(1, 200))
    empty = gc.empty_graph(6)
    assert md.upsilon_potential(empty, pr) == 1.0
    assert md.classify_self_bad(empty, pr) == "good"
    # regression fixture: densest 6-vertex graph at these parameters
    assert md.classify_self_bad(gc.complete_graph(6), pr) == "good"
    # construct a genuinely bad instance: dense subgraph at inverted scale
    pr_bad = md.ModelParams(n=100, lam=2, k=2, eps=F(1, 10), D=3, delta=F(1, 200))
    tri = gc.graph(6, [(0, 1), (1, 2), (0, 2)])
    if md.classify_self_bad(tri, pr_bad) == "bad":
        # bad but not self-bad demands a badder proper subgraph
        assert any(
            md.log_upsilon_potential(gc.graph(6, es), pr_bad) <= md.log_upsilon_potential(tri, pr_bad)
            for es in ([(0, 1)], [(0, 1), (1, 2)])
        )


def test_event_indicator_and_rate():
    pr = md.ModelParams(n=500, q=F(1, 500), D=3)
    assert md.event_E_indicator(gc.empty_graph(500), pr, "er")
    rate = md.event_E_rate(pr, 40, 1)
    assert rate >= 0.9
    # SBM mode: a short cycle kills the event
    pr_sbm = md.ModelParams(n=30, lam=F(1), k=2, eps=F(1, 10), D=2, delta=F(1, 100), N=3)
    tri = gc.graph(30, [(0, 1), (1, 2), (0, 2)])
    assert not md.event_E_indicator(tri, pr_sbm, "sbm")
    assert md.event_E_indicator(gc.empty_graph(30), pr_sbm, "sbm")


def test_event_rate_draws_trial_t_from_the_derived_stream():
    er = md.ModelParams(n=30, q=F(1, 10), D=2)
    sbm = md.ModelParams(n=30, lam=F(3, 2), k=2, eps=F(1, 2), D=2, delta=F(1, 100), N=4)
    draws = {"er": lambda t: dense.rand_sym_mask(md.derived_rng(3, t), 30, 0.1),
             "sbm": lambda t: dense.draw_sbm(md.derived_rng(3, t), sbm)[1]}
    for model, pr in (("er", er), ("sbm", sbm)):
        hits = sum(md.event_E_indicator(dense.mask_to_graph(30, draws[model](t)), pr, model)
                   for t in range(40))
        assert md.event_E_rate(pr, 40, 3, model) == hits / 40
    assert 0 < hits < 40  # the block-model event is neither sure nor impossible here


def test_edge_support_subgraphs_match_per_subset_loop():
    hosts = [gc.graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)], vertices=range(7)),
             gc.complete_graph(4), gc.empty_graph(3)]
    for h in hosts:
        edges = sorted(h.edges)
        want = [gc.graph(h.n_vertices, subset)
                for k in range(len(edges) + 1) for subset in itertools.combinations(edges, k)]
        assert list(md._edge_support_subgraphs(h)) == want
    # the budget is checked on the first next(), not when the generator is made
    lazy = md._edge_support_subgraphs(gc.graph(20, [(0, i) for i in range(1, 17)]))
    with pytest.raises(gc.EnumerationBudgetError):
        next(lazy)


# -- the pruned model --------------------------------------------------------------


def test_modified_sbm_structure():
    pr = md.ModelParams(n=10, lam=F(3, 2), k=2, eps=F(1, 10), s=F(1, 2),
                        D=2, delta=F(1, 100), N=4)
    for seed in range(60):
        samp = md.sample_modified_sbm(pr, seed)
        gp = samp.parent_pruned
        assert gp.edges <= samp.parent.edges
        assert not gc.has_cycle_at_most(gp, pr.N)
        assert samp.left.edges <= gp.edges
        # removals are at most the number of listed structures present
        listed = md._listed_removal_targets(samp.parent, pr)
        assert len(samp.parent.edges - gp.edges) <= len(listed)


def test_modified_sbm_forest_passes_through():
    pr = md.ModelParams(n=8, lam=F(1, 4), k=2, eps=F(1, 10), s=F(1, 2),
                        D=2, delta=F(1, 100), N=3)
    seen_forest = False
    for seed in range(40):
        samp = md.sample_modified_sbm(pr, seed)
        if not gc.all_cycles(samp.parent) and not md._listed_removal_targets(samp.parent, pr):
            assert samp.parent_pruned.edges == samp.parent.edges
            seen_forest = True
    assert seen_forest


def test_modified_sbm_triangle_forced_removal():
    # when the parent is exactly one triangle, one of its edges must go
    pr = md.ModelParams(n=6, lam=F(1), k=2, eps=F(1, 10), s=F(1, 2),
                        D=2, delta=F(1, 100), N=3)
    found = False
    for seed in range(300):
        samp = md.sample_modified_sbm(pr, seed)
        cyc3 = [c for c in gc.all_cycles(samp.parent) if len(c) == 3]
        if len(samp.parent.edges) == 3 and len(cyc3) == 1:
            assert len(samp.parent_pruned.edges) == 2
            found = True
            break
    assert found


def _budget_fields(call):
    with pytest.raises(gc.EnumerationBudgetError) as info:
        call()
    err = info.value
    return str(err), err.where, err.requested, err.budget


def test_models_budget_errors_carry_fields():
    sixteen = gc.graph(20, [(0, i) for i in range(1, 17)])
    er = md.ModelParams(n=500, q=F(1, 500), D=3)
    assert _budget_fields(lambda: md.is_admissible_er(sixteen, er)) == (
        "subgraph edges: requested 16, budget 15", "models._edge_support_subgraphs", 16, 15)
    sbm = md.ModelParams(n=30, lam=F(1), k=2, eps=F(1, 10), D=2, delta=F(1, 100), N=3)
    assert _budget_fields(lambda: md.classify_self_bad(sixteen, sbm)) == (
        "self-bad check edges: requested 16, budget 15", "models.classify_self_bad", 16, 15)
    # an edge costs 10 log 10 in vertices and pays log q below that: each of
    # 23 disjoint edges is a negative piece, none bad on its own
    near = md.ModelParams(n=10, q=math.exp(-23.1), D=1)
    matching = gc.graph(46, [(2 * i, 2 * i + 1) for i in range(23)])
    assert _budget_fields(lambda: md.contains_bad_subgraph(matching, near, 4, "er")) == (
        "near-bad pieces to pack: requested 23, budget 22", "models.contains_bad_subgraph", 23, 22)
    # a star with r leaves has 2^r connected vertex sets through its centre
    star18 = gc.graph(19, [(0, i) for i in range(1, 19)])
    assert _budget_fields(lambda: md.contains_bad_subgraph(star18, near, 19, "er")) == (
        "connected vertex sets: requested 200001, budget 200000", "models._bad_connected_pieces",
        200_001, 200_000)
    # the pruned model lists short cycles only: a star has none, and its
    # 2^17 connected vertex sets are not enumerated
    pruned = md.ModelParams(n=30, lam=F(1), k=2, eps=F(1, 10), D=3, delta=F(1, 100), N=3, s=F(1, 2))
    star17 = gc.graph(30, [(0, i) for i in range(1, 18)])
    assert md._listed_removal_targets(star17, pruned) == []
    too_big = md.ModelParams(n=31, lam=F(1), k=2, eps=F(1, 10), D=3, delta=F(1, 100), N=3, s=F(1, 2))
    assert _budget_fields(lambda: md.sample_modified_sbm(too_big, 0)) == (
        "modified-model n: requested 31, budget 30", "models._listed_removal_targets", 31, 30)


def test_disjoint_negative_pieces_are_bad_only_when_packed():
    # each edge is a negative piece (-0.074) and no single one is bad (the
    # threshold is -0.834): twelve of them packed into 24 vertices are
    near = md.ModelParams(n=10, q=math.exp(-23.1), D=1)
    for edges, max_vertices, bad in ((12, 24, True), (11, 24, False), (12, 22, False)):
        matching = gc.graph(2 * edges, [(2 * i, 2 * i + 1) for i in range(edges)])
        assert md.contains_bad_subgraph(matching, near, max_vertices, "er") is bad
        brute = any(len(h.vertices) <= max_vertices and md.is_bad_er(h, near)
                    for h in gc.edge_induced_subgraphs(matching))
        assert brute is bad


def _connected_vertex_sets(g, max_size):
    """g's connected vertex sets of at most max_size vertices, isolated
    vertices left out, in sorted order."""
    adj = gc._adjacency(g)
    sets = md._grow_connected_sets(adj, [v for v in sorted(g.vertices) if adj[v]], max_size, 100_000,
                                   "connected vertex-set budget exceeded", "connected vertex sets")
    return sorted(sets, key=sorted)


def test_connected_vertex_sets_match_brute_force():
    # every connected vertex set, each once, against a subset scan
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = gc.graph(n, edges, vertices=range(n))
        want = []
        for size in range(1, 6):
            for vs in itertools.combinations(range(n), size):
                sub = gc.graph(n, [e for e in edges if e[0] in vs and e[1] in vs], vertices=vs)
                if len(gc.connected_components(sub)) == 1 and (size > 1 or g.degree(vs[0])):
                    want.append(frozenset(vs))
        assert _connected_vertex_sets(g, 5) == sorted(want, key=sorted)


# -- oracles: the per-candidate LabeledGraph loops the listing and samplers replaced


def _listing_oracle(g, params):
    targets = set()
    for cyc in gc.all_cycles(g, params.N):
        targets.add(tuple(sorted(gc._norm_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))))
    for vs in _connected_vertex_sets(g, params.D ** 3):
        induced = sorted(e for e in g.edges if e[0] in vs and e[1] in vs)
        for k_edges in range(1, len(induced) + 1):
            for subset in itertools.combinations(induced, k_edges):
                sub = gc.graph(g.n_vertices, subset)
                if len(sub.vertices) > params.D ** 3:
                    continue
                if md.classify_self_bad(sub, params) == "self_bad":
                    targets.add(tuple(sorted(subset)))
    return sorted(targets)


def _short_cycles(g, N):
    """g's cycles of length at most N as sorted edge tuples, in sorted order."""
    return sorted({tuple(sorted(gc._norm_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))))
                   for c in gc.all_cycles(g, N)})


def _pruned_params(lam, n=10, D=2, N=4):
    return md.ModelParams(n=n, lam=lam, k=2, eps=F(1, 10), s=F(1, 2), D=D, delta=F(1, 100), N=N)


def test_listed_removal_targets_match_graph_loop():
    listed = 0
    for lam in (F(1, 2), F(1), F(3, 2), F(2)):
        pr = _pruned_params(lam)
        for seed in range(12):
            _, g = md.sample_sbm(pr, seed)
            got = md._listed_removal_targets(g, pr)
            assert got == _listing_oracle(g, pr), (lam, seed)
            listed += len(got)
    assert listed >= 10
    # at D = 3 single edges are bad (not self-bad): classify_self_bad runs
    pr = _pruned_params(F(1), D=3, N=3)
    assert md.classify_self_bad(gc.graph(10, [(0, 1)]), pr) == "bad"
    for seed in range(4):
        _, g = md.sample_sbm(pr, seed)
        assert md._listed_removal_targets(g, pr) == _listing_oracle(g, pr), seed


_NOT_POSITIVE = "the edge factor le = .* is not positive"


def test_listed_removal_targets_self_bad_under_negative_edge_factors(monkeypatch):
    # inside MODIFIED_SBM_BUDGET the edge factor is positive, so nothing is
    # self-bad; these factors make self-bad edge sets exist, and the listing,
    # which holds short cycles only, refuses them
    pr = _pruned_params(F(2))
    k4 = list(itertools.combinations(range(4), 2))
    k4_far = [(u + 5, v + 5) for u, v in k4]
    # lv = 1, le = -1: a K4 is self-bad, and so are two disjoint K4s
    monkeypatch.setattr(md, "_log_upsilon_factors", lambda params: (1.0, -1.0))
    assert md.classify_self_bad(gc.graph(10, k4), pr) == "self_bad"
    assert md.classify_self_bad(gc.graph(10, k4 + k4_far), pr) == "self_bad"
    hosts = [gc.graph(10, k4 + [(3, 4), (4, 5), (5, 6), (6, 4)], vertices=range(10)),
             gc.graph(10, k4 + [(3, 4), (4, 5)] + k4_far, vertices=range(10))]
    for g in hosts:
        assert any(len(t) > pr.N for t in _listing_oracle(g, pr))  # longer than any listed cycle
        with pytest.raises(ValueError, match=_NOT_POSITIVE):
            md._listed_removal_targets(g, pr)
    # lv = -0.3, le = -0.1: an edge is good, any two edges on three or more
    # vertices are bad and self-bad, so the support size decides
    monkeypatch.setattr(md, "_log_upsilon_factors", lambda params: (-0.3, -0.1))
    path = gc.graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)], vertices=range(10))
    want = _listing_oracle(path, pr)
    assert ((0, 1), (1, 2)) in want and ((0, 1),) not in want
    with pytest.raises(ValueError, match=_NOT_POSITIVE):
        md._listed_removal_targets(path, pr)
    # no candidate, no factor: an edgeless parent, and D = 1 (D^3 = 1 vertex holds no edge)
    assert md._listed_removal_targets(gc.empty_graph(10), pr) == []
    assert md._listed_removal_targets(path, _pruned_params(F(2), D=1)) == []
    # through the sampler
    with pytest.raises(ValueError, match=_NOT_POSITIVE):
        md.sample_modified_sbm(_pruned_params(F(2)), 0)


def test_listed_removal_targets_budget_raise_matches_graph_loop(monkeypatch):
    # a vertex set inducing 16 edges: K6 plus a pendant edge
    pr = _pruned_params(F(5), n=12)
    g = gc.graph(12, list(itertools.combinations(range(6), 2)) + [(0, 6)], vertices=range(12))
    # under the real factors the edge factor is positive, nothing is
    # self-bad, and the host lists only its cycles of length at most N
    assert md._listed_removal_targets(g, pr) == _short_cycles(g, pr.N)
    # under a negative edge factor the graph loop meets classify_self_bad's
    # edge budget; the listing refuses the factor instead
    with monkeypatch.context() as patched:
        patched.setattr(md, "_log_upsilon_factors", lambda params: (1.0, -0.1))
        want = _budget_fields(lambda: _listing_oracle(g, pr))
        assert want == ("self-bad check edges: requested 16, budget 15", "models.classify_self_bad", 16, 15)
        with pytest.raises(ValueError, match=_NOT_POSITIVE):
            md._listed_removal_targets(g, pr)
    # missing block-model parameters fail as before: on the first candidate
    no_k = md.ModelParams(n=12, lam=F(5), D=2, delta=F(1, 100), N=4)
    with pytest.raises(ValueError, match="upsilon potential needs D, k and lam"):
        md._listed_removal_targets(g, no_k)
    assert md._listed_removal_targets(gc.empty_graph(12), no_k) == []


def test_listed_removal_targets_inside_the_budget_raise_nowhere():
    # with a positive edge factor only the short cycles are listed, and the
    # dense parents the self-bad search used to refuse now sample
    for lam in (F(1, 2), F(1), F(2), F(5)):
        for n in (8, 10, 12):
            pr = _pruned_params(lam, n=n)
            for seed in range(6):
                _, g = md.sample_sbm(pr, seed)
                assert md._listed_removal_targets(g, pr) == _short_cycles(g, pr.N), (lam, n, seed)
    pr = md.ModelParams(n=12, lam=F(3), k=3, eps=F(1, 2), s=F(1, 2), D=2, N=3, delta=F(1, 100))
    sample = md.sample_modified_sbm(pr, 11)
    assert sample.parent_pruned.edges < sample.parent.edges


def test_draw_er_and_adjacency_matrix_keep_the_stream_and_the_edges():
    for n, q in ((1, F(1, 2)), (9, F(2, 5)), (40, 0.05)):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        g = md.draw_er(a, n, q)
        assert g == dense.mask_to_graph(n, dense.rand_sym_mask(b, n, float(q)))
        assert a.random() == b.random()
        adj = md.adjacency_matrix(g)
        assert adj.dtype == bool and np.array_equal(adj, adj.T)
        assert dense.mask_to_graph(n, adj) == g


def test_mask_to_graph_matches_graph_builder():
    rng = np.random.default_rng(3)
    masks = [np.zeros((7, 7), bool), ~np.eye(7, dtype=bool), np.zeros((1, 1), bool)]
    for n, p in ((7, 0.3), (12, 0.5), (30, 0.1)):
        upper = np.triu(rng.random((n, n)) < p, 1)
        masks.append(upper | upper.T)
    for adj in masks:
        n = len(adj)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]]
        # the dense oracle reads the mask, lowdeg the flat indices u*n + v
        for got in (dense.mask_to_graph(n, adj), md._graph(n, np.flatnonzero(np.triu(adj, 1)))):
            assert got == gc.graph(n, pairs, vertices=range(n))
            assert all(type(x) is int for e in got.edges for x in e)
            assert all(type(v) is int for v in got.vertices)


def test_rand_sym_mask_keeps_the_random_stream():
    for n, prob in ((1, 0.5), (9, 0.4), (40, 0.05)):
        a, b, c = (np.random.default_rng(n) for _ in range(3))
        got = dense.rand_sym_mask(a, n, prob)
        upper = (b.random((n, n)) < prob) & np.triu(np.ones((n, n), bool), 1)
        assert np.array_equal(got, upper | upper.T)
        assert got.flags.writeable
        # the row-block draw keeps the same pairs and the same stream
        assert np.array_equal(md._upper_draw(c, n, prob), np.flatnonzero(upper))
        assert a.random() == b.random() == c.random()
    with pytest.raises(ValueError):
        dense.strict_upper(5)[0, 1] = False


def test_bad_pieces_empty_when_no_piece_can_be_negative():
    pr = md.ModelParams(n=500, q=F(1, 500), D=3)
    lv, le = md._log_phi_factors(pr)
    assert le > 0 and lv >= 0
    rng = np.random.default_rng(9)
    for trial in range(6):
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = gc.graph(n, edges, vertices=range(n))
        # every connected piece of k >= 2 vertices costs at least lv*k + le*(k-1) > 0
        for size in range(2, 6):
            for vs in itertools.combinations(range(n), size):
                assert lv * size + le * (size - 1) >= 0
        assert md._bad_connected_pieces(g, pr, 5, "er") == {}
        assert not md.contains_bad_subgraph(g, pr, 5, "er")
    # nothing is enumerated, so the 200,000-set budget is no longer reached
    star18 = gc.graph(19, [(0, i) for i in range(1, 19)])
    assert md._bad_connected_pieces(star18, pr, 19, "er") == {}
    # with lv < 0 an edge is a negative piece (a path of two is not), so the
    # enumeration still runs
    sbm = md.ModelParams(n=100, lam=2, k=2, eps=F(1, 10), D=3, delta=F(1, 200))
    lv, le = md._log_upsilon_factors(sbm)
    assert le > 0 > lv and 3 * lv + 2 * le > 0
    assert md._bad_connected_pieces(gc.graph(6, [(0, 1), (1, 2)]), sbm, 3, "sbm") == {
        frozenset({0, 1}): 2 * lv + le, frozenset({1, 2}): 2 * lv + le}
