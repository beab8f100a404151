from fractions import Fraction as F

import pytest

from lowdeg import advantage as adv
from lowdeg import basis as bs
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md


def corr_er_setup(n=3, q=F(1, 3), rho=F(1, 2), D=3):
    pr = md.ModelParams(n=n, q=q, rho=rho, D=D)
    joint = ms.correlated_er_joint_measure(n, pr.p, pr.s)
    pair = joint.map(lambda x: (x[1], x[2]))
    null = ms.er_pair_measure(n, q)
    return pr, joint, pair, null


def test_null_advantage_is_one():
    pr = md.ModelParams(n=3, q=F(1, 3))
    null = ms.er_pair_measure(3, F(1, 3))
    rep = adv.advantage_product_basis(null, pr, 3, kind="pair")
    assert rep.value == 1.0
    assert all(c == 0 for c in rep.per_index.values())


def test_degree_zero_is_one():
    pr, _, pair, _ = corr_er_setup()
    rep = adv.advantage_product_basis(pair, pr, 0, kind="pair")
    assert rep.value == 1.0


def test_product_basis_matches_chi_square_at_full_degree():
    pr, _, pair, null = corr_er_setup()
    rep = adv.advantage_product_basis(pair, pr, 6, kind="pair")
    assert rep.value_squared == 1 + pair.chi_square(null)


def test_monotone_in_degree():
    pr, _, pair, _ = corr_er_setup()
    values = [adv.advantage_product_basis(pair, pr, d, kind="pair").value for d in range(0, 7)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_three_methods_agree():
    pr, _, pair, null = corr_er_setup()
    a = adv.advantage_product_basis(pair, pr, 3, kind="pair")
    b = adv.advantage_gram_schmidt(pair, null, D=3, exact=False)
    c = adv.advantage_rayleigh(pair, null, D=3)
    assert abs(a.value - b.value) < 1e-9
    assert abs(a.value - c.value) < 1e-9


def test_gram_schmidt_two_point_closed_form():
    # null uniform on two points, alternative (1/5, 4/5): the single centered
    # feature gives advantage^2 = 1 + (2 * 3/10)^2 by direct calculus
    q = ms.DiscreteMeasure(["x", "y"], [F(1, 2), F(1, 2)])
    p = ms.DiscreteMeasure(["x", "y"], [F(1, 5), F(4, 5)])
    rep = adv.advantage_gram_schmidt(p, q, D=1)
    assert rep.value_squared == 1 + F(9, 25)
    same = adv.advantage_gram_schmidt(q, q, D=1)
    assert same.value_squared == 1


def test_gram_schmidt_rejects_support_escape():
    q = ms.DiscreteMeasure(["x", "y"], [F(1, 2), F(1, 2)])
    p = ms.DiscreteMeasure(["x", "z"], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        adv.advantage_gram_schmidt(p, q, D=1)


def test_gram_schmidt_null_direction_discard():
    # a null atom of weight zero spans a direction that vanishes a.s.;
    # the alternative must not charge it
    q = ms.DiscreteMeasure(["x", "y", "z"], [F(1, 2), F(1, 2), F(0)])
    p = ms.DiscreteMeasure(["x", "y", "z"], [F(1, 4), F(3, 4), F(0)])
    rep = adv.advantage_gram_schmidt(p, q, D=2)
    assert rep.value_squared == 1 + F(1, 4)


def _square(x):
    """Square of a Rad that must come out rational."""
    sq = x * x
    assert sq.is_rational()
    return sq.as_fraction()


def test_product_basis_per_index_matches_evaluate_basis():
    # each contribution against the square of the orthonormal basis mean,
    # summed per class, for both index kinds
    pr, _, pair, _ = corr_er_setup()
    sbm = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    graphs = ms.sbm_graph_measure(3, 2, sbm.lam, sbm.eps)
    for measure, params, kind in ((pair, pr, "pair"), (graphs, sbm, "single")):
        rep = adv.advantage_product_basis(measure, params, 4, kind=kind)
        indices = bs.pair_indices(3, 4) if kind == "pair" else bs.single_indices(3, 4)
        want = {}
        for idx in indices:
            if idx.degree == 0:
                continue
            graphs_of = (idx.s1, idx.s2) if kind == "pair" else (idx.s1,)
            forms = tuple(gc.canonicalize(g).hex_form for g in graphs_of)
            key = forms if kind == "pair" else forms[0]
            mean = measure.expectation(lambda x, i=idx: bs.evaluate_basis(i, x, params))
            want[key] = want.get(key, 0) + _square(mean)
        assert rep.per_index == want
        assert all(type(v) is F for v in rep.per_index.values())
        assert rep.value_squared == 1 + sum(want.values())


# -- conditional advantage ----------------------------------------------------------


def test_conditional_advantage_independent_case():
    pr = md.ModelParams(n=4, q=F(1, 4), rho=F(0), D=2)
    joint = ms.correlated_er_joint_measure(4, pr.p, pr.s)
    rep = adv.conditional_advantage(joint, pr, 2, 0, 0)
    assert abs(rep.value - 1.0) < 1e-12


def test_conditional_advantage_exchangeable_in_target():
    pr = md.ModelParams(n=3, q=F(1, 3), rho=F(1, 2), D=2)
    joint = ms.correlated_er_joint_measure(3, pr.p, pr.s)
    r01 = adv.conditional_advantage(joint, pr, 2, 0, 0)
    r12 = adv.conditional_advantage(joint, pr, 2, 0, 1)
    assert r01.value_squared == r12.value_squared


def test_conditional_advantage_cross_method_and_grouping():
    pr = md.ModelParams(n=3, q=F(1, 3), rho=F(1, 2), D=2)
    joint = ms.correlated_er_joint_measure(3, pr.p, pr.s)
    rep = adv.conditional_advantage(joint, pr, 2, 0, 0)
    cond = adv.condition_on_match(joint, 0, 0)
    null = ms.er_pair_measure(3, pr.q)
    gs = adv.advantage_gram_schmidt(cond, null, D=2, exact=False)
    assert abs(rep.value - gs.value) < 1e-9
    assert rep.value >= 1.0
    # permutation-grouped conditional expectation equals the direct one
    idx = bs.pair_index(gc.graph(3, [(0, 1)]), gc.graph(3, [(0, 1)]))
    direct = cond.expectation(lambda x: bs.evaluate_basis(idx, x, pr))
    grouped = adv.grouped_conditional_expectation(joint, idx, pr, 0, 0)
    assert direct == grouped


def test_conditional_at_least_unconditional_fixture():
    pr = md.ModelParams(n=3, q=F(1, 3), rho=F(3, 10), D=2)
    joint = ms.correlated_er_joint_measure(3, pr.p, pr.s)
    cond = adv.conditional_advantage(joint, pr, 2, 0, 0)
    pair = joint.map(lambda x: (x[1], x[2]))
    plain = adv.advantage_product_basis(pair, pr, 2, kind="pair")
    assert float(cond.value_squared) >= float(plain.value_squared) - 1e-12


# -- hidden informative sample -------------------------------------------------------


def two_point_base():
    q = ms.DiscreteMeasure(["x", "y"], [F(1, 2), F(1, 2)])
    p = ms.DiscreteMeasure(["x", "y"], [F(1, 5), F(4, 5)])
    return q, p


def test_hidden_sample_size_rule():
    assert adv.hidden_sample_size(0.01, 1000) == 10
    assert adv.hidden_sample_size(0.000001, 50) == 50
    assert adv.hidden_sample_size(1.0, 10) == 1


def test_hidden_likelihood_ratio_matches_mass_ratio():
    q, p = two_point_base()
    problem = adv.build_hidden_sample(q, p, 3)
    null = problem.composite_null()
    alt = problem.composite_alt()
    direct = alt.likelihood_ratio_table(null)
    for y in null.outcomes:
        assert adv.hidden_likelihood_ratio(problem, y) == direct[y]
    # M = 1 reduces to the base ratio
    prob1 = adv.build_hidden_sample(q, p, 1)
    base_lr = p.likelihood_ratio_table(q)
    for y in q.outcomes:
        assert adv.hidden_likelihood_ratio(prob1, (y,)) == base_lr[y]


def test_hidden_identity_and_trend():
    q, p = two_point_base()
    base = adv.advantage_gram_schmidt(p, q, D=1)
    prev_excess = None
    for m in (1, 2, 4, 8):
        problem = adv.build_hidden_sample(q, p, m)
        rep = adv.hidden_sample_advantage(problem, 1)
        assert (rep.value_squared - 1) * m == base.value_squared - 1
        excess = rep.value_squared - 1
        if prev_excess is not None:
            assert excess * 2 == prev_excess  # halves exactly when M doubles
        prev_excess = excess
    # the fixture from the build sheet: 1.36 dilutes to exactly 1.09 at M=4
    m4 = adv.hidden_sample_advantage(adv.build_hidden_sample(q, p, 4), 1)
    assert base.value_squared == F(34, 25)
    assert m4.value_squared == F(109, 100)


def test_hidden_equal_measures_stay_at_one():
    q, _ = two_point_base()
    for m in (1, 3):
        rep = adv.hidden_sample_advantage(adv.build_hidden_sample(q, q, m), 1)
        assert rep.value_squared == 1


def test_hidden_full_gram_schmidt_oracle():
    q, p = two_point_base()
    problem = adv.build_hidden_sample(q, p, 3)
    full = adv.advantage_gram_schmidt(problem.composite_alt(), problem.composite_null(), D=8)
    direct = adv.hidden_sample_advantage(problem, 3)
    assert full.value_squared == direct.value_squared


def test_hidden_rejects_undefined_ratio():
    q = ms.DiscreteMeasure(["x", "y"], [F(1), F(0)])
    p = ms.DiscreteMeasure(["x", "y"], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        adv.build_hidden_sample(q, p, 2)


def test_conditional_pair_moment_matches_evaluate_basis():
    # the rational centered moment against the mean of the orthonormal pair
    # basis over the conditioned joint, on pairs of odd and even degree
    from lowdeg import bounds as bd

    pr, joint, _, _ = corr_er_setup(n=3, q=F(1, 4), rho=F(1, 3), D=4)
    edge = gc.graph(3, [(0, 1)])
    far = gc.graph(3, [(1, 2)])
    path = gc.graph(3, [(0, 1), (1, 2)])
    tri = gc.graph(3, [(0, 1), (1, 2), (0, 2)])
    empty = gc.empty_graph(3)
    for i, j in ((0, 0), (0, 1)):
        cond = joint.condition(lambda x: x[0][i] == j).map(lambda x: (x[1], x[2]))
        for s1, s2 in ((edge, edge), (edge, far), (path, edge), (tri, path), (empty, tri)):
            idx = bs.pair_index(s1, s2)
            want = cond.expectation(lambda x: bs.evaluate_basis(idx, x, pr))
            assert bd.conditional_pair_moment(joint, s1, s2, pr, i, j) == want
