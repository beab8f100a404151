import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lowdeg import graph_core as gc
from lowdeg import models as md
from lowdeg import reduction as rd


def test_overlap_basics():
    assert rd.overlap((0, 1, 2, 3), (0, 1, 2, 3)) == 1
    assert rd.overlap((0, 1, 2, 3), (1, 0, 2, 3)) == F(1, 2)
    with pytest.raises(ValueError):
        rd.overlap((0, 1), (0, 1, 2))


def test_overlap_uniform_mean():
    rng = np.random.default_rng(4)
    n = 50
    base = tuple(range(n))
    total = 0
    trials = 10_000
    for _ in range(trials):
        total += float(rd.overlap(base, tuple(int(x) for x in rng.permutation(n))))
    mean = total / trials
    se = 3 * math.sqrt((1 / n) * (1 - 1 / n) / (trials * n))
    # coordinates within one permutation are dependent; widen by the usual factor
    assert abs(mean - 1 / n) < 5 * se + 1e-3


def test_indicator_family_row_structure():
    n = 7
    fam = rd.estimator_to_indicators(rd.identity_estimator, n)
    pr = md.ModelParams(n=n, q=F(1, 3), rho=F(1, 2))
    samp = md.sample_correlated_er(pr, 1)
    h = fam.evaluate(samp.left, samp.right)
    assert np.array_equal(h.sum(axis=1), np.ones(n))
    assert set(np.unique(h)) <= {0.0, 1.0}


def test_hit_sum_equals_overlap_identity():
    n = 9
    pr = md.ModelParams(n=n, q=F(1, 3), rho=F(1, 2))
    for name in ("identity", "random", "greedy"):
        # two instances from the same seed: the random baseline is stateful
        # (one draw per call), so direct calls and family calls must advance
        # through the same stream positions
        estimator = rd.ESTIMATORS[name](3)
        fam = rd.estimator_to_indicators(rd.ESTIMATORS[name](3), n)
        for seed in range(20):
            samp = md.sample_correlated_er(pr, seed)
            pi_hat = estimator(samp.left, samp.right)
            assert rd.planted_hit_sum(fam, samp) == pytest.approx(
                n * float(rd.overlap(pi_hat, samp.pi_star)))


def test_hit_sum_identity_needs_matching_streams():
    # the random estimator draws a fresh permutation per call, so the family
    # evaluation must be compared against the same call sequence
    n = 6
    pr = md.ModelParams(n=n, q=F(1, 3), rho=F(1, 2))
    samp = md.sample_correlated_er(pr, 0)
    est = rd.ESTIMATORS["random"](7)
    fam = rd.estimator_to_indicators(est, n)
    h = fam.evaluate(samp.left, samp.right)
    assert np.array_equal(h.sum(axis=1), np.ones(n))


def test_truncation_postcondition_fuzzed():
    rng = np.random.default_rng(11)
    n = 5

    def wild(a, b):
        mode = rng.integers(4)
        if mode == 0:
            return rng.random((n, n)) * 2
        if mode == 1:
            out = np.zeros((n, n)); out[0] = 1
            return out
        if mode == 2:
            out = np.eye(n); out[2, 2] = 2
            return out
        out = np.eye(n)
        return out

    fam = rd.truncate_family(rd.IndicatorFamily(n, wild))
    g = gc.empty_graph(n)
    for _ in range(10_000):
        h = fam.evaluate(g, g)
        assert set(np.unique(h)) <= {0.0, 1.0}
        assert set(np.unique(h.sum(axis=1))) <= {0.0, 1.0}


def test_truncation_examples():
    n = 4
    ok = rd.estimator_to_indicators(rd.identity_estimator, n)
    g = gc.empty_graph(n)
    t = rd.truncate_family(ok)
    assert np.array_equal(t.evaluate(g, g), ok.evaluate(g, g))
    double_row = rd.IndicatorFamily(n, lambda a, b: np.eye(n) + np.eye(n)[::-1] * (np.arange(n) == 0))
    t2 = rd.truncate_family(double_row)
    assert np.all(t2.evaluate(g, g) == 0)


def test_mix_statistic_values():
    assert rd.mix_statistic([0, 0, 0, 0], F(0)) == [F(1, 4)] * 4
    assert rd.mix_statistic([1, 0, 0, 0], F(1)) == [1, 0, 0, 0]
    assert rd.mix_statistic([0, 1, 0, 0], F(1, 2)) == [F(1, 8), F(5, 8), F(1, 8), F(1, 8)]
    g = rd.mix_statistic([0, 1, 0, 0], F(1, 3))
    assert sum(g) == 1
    with pytest.raises(ValueError):
        rd.mix_statistic([2, 0], F(1, 2))
    with pytest.raises(ValueError):
        rd.mix_statistic([0, 0], 2)


def test_mix_row_sum_bound():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 10)
        row = [0] * n
        if rng.random() < 0.7:
            row[rng.randrange(n)] = 1
        lam = F(rng.randint(0, 4), 4)
        g = rd.mix_statistic(row, lam)
        assert sum(g) <= 1
        assert sum(g) == (1 - lam) + lam * sum(row)


def test_mix_quadratic_diagnostic():
    d = rd.mix_quadratic_diagnostic(0.3, 0.25, 100)
    assert math.isclose(d["bound"], 1 + 0.0625 - 0.15)
    assert d["bound_with_correction"] <= d["bound"]


def test_row_orthogonality_square_identity():
    # one-hot rows: the squared row sums to the row sum, exactly
    n = 6
    fam = rd.estimator_to_indicators(rd.identity_estimator, n)
    g = gc.empty_graph(n)
    h = fam.evaluate(g, g)
    for i in range(n):
        assert np.sum(h[i] ** 2) == np.sum(h[i]) == 1
        for j in range(n):
            for kk in range(n):
                if j != kk:
                    assert h[i, j] * h[i, kk] == 0


def test_lambda_set_bound():
    errs = [0.001] * 300 + [0.02] * 10
    lam, guaranteed = rd.lambda_set(errs, 0.3)
    assert len(lam) >= guaranteed
    assert all(errs[j] <= (1 - 0.15) / len(errs) for j in lam)
    with pytest.raises(ValueError):
        rd.lambda_set([0.5, 0.6], 0.3)


def test_correlated_er_samplers_share_the_derived_seeding():
    # both samplers draw trial t of a run seeded with seed from
    # derived_rng(seed, t); the alternative no longer seeds from hash()
    pr = md.ModelParams(n=10, q=F(1, 4), rho=F(1, 3))
    p_s, q_s = rd.correlated_er_samplers(pr)
    for seed, t in ((3, 0), (3, 7), (11, 2)):
        draw = p_s(seed, t)
        assert draw == p_s(seed, t)
        samp = md.sample_correlated_er(pr, seed, t)
        assert draw == (samp.left, samp.right)
        old = md.sample_correlated_er(pr, hash((seed, t)) % (1 << 32))
        assert draw != (old.left, old.right)
        rng = md.derived_rng(seed, t)
        first = md._rand_sym_mask(rng, pr.n, float(pr.q))
        second = md._rand_sym_mask(rng, pr.n, float(pr.q))
        assert q_s(seed, t) == (md._mask_to_graph(pr.n, first), md._mask_to_graph(pr.n, second))


def test_one_sided_test_constant_statistic():
    pr = md.ModelParams(n=8, q=F(1, 4), rho=F(1, 3))
    p_s, q_s = rd.correlated_er_samplers(pr)
    rep = rd.one_sided_test(lambda a, b: 0.0, 0.5, p_s, q_s, 50, 1)
    assert rep.q_accept_rate == 1.0 and rep.p_reject_rate == 0.0
    assert rep.classify() == "powerless"
    with pytest.raises(ValueError):
        rd.one_sided_test(lambda a, b: 0.0, 0.5, p_s, q_s, 0, 1)


def test_one_sided_test_null_equals_alt_complementary():
    pr = md.ModelParams(n=10, q=F(3, 10), rho=F(0))
    p_s, q_s = rd.correlated_er_samplers(pr)
    trials = 400
    rep = rd.one_sided_test(lambda a, b: len(a.edges), 13.0, p_s, q_s, trials, 9)
    gap = abs(rep.q_accept_rate + rep.p_reject_rate - 1.0)
    assert gap <= 3 * math.sqrt(2 * 0.25 / trials)


def test_one_sided_test_oracle_separates():
    # harness validation: a pre-aligned common-edge count separates cleanly at
    # high correlation (the alternative sampler cheats by undoing the hidden
    # relabeling before handing the pair over)
    pr = md.ModelParams(n=30, q=F(3, 10), rho=F(9, 10))

    def p_sampler(seed, t):
        samp = md.sample_correlated_er(pr, hash((seed, t)) % (1 << 32))
        inv = {v: i for i, v in enumerate(samp.pi_star)}
        aligned = gc.graph(pr.n, [tuple(sorted((inv[u], inv[v]))) for u, v in samp.right.edges],
                           vertices=range(pr.n))
        return samp.left, aligned

    _, q_sampler = rd.correlated_er_samplers(pr)
    stat = lambda a, b: len(a.edges & b.edges)
    rep = rd.one_sided_test(stat, 80.0, p_sampler, q_sampler, 120, 3)
    assert rep.p_reject_rate >= 0.95
    assert rep.q_accept_rate >= 0.95
    assert rep.classify(reject_floor=0.5) in ("strong-detect candidate", "one-sided candidate")
