import itertools
import math
import random
from fractions import Fraction as F

import pytest

from lowdeg import advantage as adv
from lowdeg import basis as bs
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md

import exact_oracles as oracle
import helpers as hp


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
    graphs = hp.sbm_graph_measure(3, 2, sbm.lam, sbm.eps)
    for measure, params, kind in ((pair, pr, "pair"), (graphs, sbm, "single")):
        rep = adv.advantage_product_basis(measure, params, 4, kind=kind)
        indices = oracle.pair_indices(3, 4) if kind == "pair" else bs.single_indices(3, 4)
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
    idx = hp.pair_index(gc.graph(3, [(0, 1)]), gc.graph(3, [(0, 1)]))
    direct = cond.expectation(lambda x: bs.evaluate_basis(idx, x, pr))
    grouped = oracle.grouped_conditional_expectation(joint, idx, pr, 0, 0)
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


def _nested_composite_alt(null, alt, M):
    """The composite alternative built from nested two-factor products, each
    flattened from (((x0, x1), x2), ...) to (x0, x1, x2, ...) and mixed."""
    def flatten(x):
        tail = []
        for _ in range(M - 1):
            x, last = x
            tail.append(last)
        return (x, *reversed(tail))

    coeff = F(1, M) if null.exact and alt.exact else 1.0 / M
    comps = []
    for kappa in range(M):
        parts = [alt if i == kappa else null for i in range(M)]
        prod = parts[0]
        for nxt in parts[1:]:
            prod = prod.product(nxt)
        comps.append(prod.map(flatten))
    return ms.DiscreteMeasure.mixture(comps, [coeff] * M)


@pytest.mark.parametrize("exact", [True, False])
def test_composite_alt_matches_nested_products(exact):
    null_w, alt_w = [F(1, 2), F(1, 4), F(1, 4)], [F(1, 5), F(2, 5), F(2, 5)]
    if not exact:
        null_w, alt_w = [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]
    null = ms.DiscreteMeasure(["x", "y", "z"], null_w)
    alt = ms.DiscreteMeasure(["x", "y", "z"], alt_w)
    for M in (1, 2, 3, 4):
        got = oracle.composite_alt(adv.build_hidden_sample(null, alt, M))
        want = _nested_composite_alt(null, alt, M)
        assert dict(zip(got.outcomes, got.weights)) == dict(zip(want.outcomes, want.weights))
        assert got.exact == exact


def test_hidden_sample_size_rule():
    assert hp.hidden_sample_size(0.01, 1000) == 10
    assert hp.hidden_sample_size(0.000001, 50) == 50
    assert hp.hidden_sample_size(1.0, 10) == 1


def test_hidden_likelihood_ratio_matches_mass_ratio():
    q, p = two_point_base()
    problem = adv.build_hidden_sample(q, p, 3)
    null = oracle.composite_null(problem)
    alt = oracle.composite_alt(problem)
    direct = alt.likelihood_ratio_table(null)
    for y in null.outcomes:
        assert oracle.hidden_likelihood_ratio(problem, y) == direct[y]
    # M = 1 reduces to the base ratio
    prob1 = adv.build_hidden_sample(q, p, 1)
    base_lr = p.likelihood_ratio_table(q)
    for y in q.outcomes:
        assert oracle.hidden_likelihood_ratio(prob1, (y,)) == base_lr[y]


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
    full = adv.advantage_gram_schmidt(oracle.composite_alt(problem), oracle.composite_null(problem),
                                      D=8)
    direct = adv.hidden_sample_advantage(problem, 3)
    assert full.value_squared == direct.value_squared


def test_hidden_rejects_undefined_ratio():
    q = ms.DiscreteMeasure(["x", "y"], [F(1), F(0)])
    p = ms.DiscreteMeasure(["x", "y"], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        adv.build_hidden_sample(q, p, 2)


def slot_product_features(base_null, M, D):
    """Oracle features of the degree-D composite: the constant, then every
    product over distinct slots of the base's nonconstant degree-one
    features, with at most D factors.  They span what the products of the
    base's orthogonalized directions span."""
    base = [fn for _, fn in adv.default_features(base_null, 1)[1:]]
    feats = [(0, lambda y: 1)]
    for size in range(1, min(D, M) + 1):
        for slots in itertools.combinations(range(M), size):
            for fns in itertools.product(base, repeat=size):
                feats.append((size, lambda y, s=slots, f=fns: math.prod(
                    fn(y[i]) for i, fn in zip(s, f))))
    return feats


def hidden_oracle(problem, D, exact=None):
    """The composite Gram-Schmidt advantage over slot_product_features."""
    features = slot_product_features(problem.base_null, problem.M, D)
    return adv.advantage_gram_schmidt(oracle.composite_alt(problem), oracle.composite_null(problem),
                                      features, exact=exact).value_squared


def test_hidden_law_matches_slot_product_oracle():
    q = ms.DiscreteMeasure(["a", "b", "c"], [F(1, 3), F(1, 2), F(1, 6)])
    p = ms.DiscreteMeasure(["a", "b", "c"], [F(1, 4), F(1, 4), F(1, 2)])
    chi2 = p.chi_square(q)
    for M in (1, 2, 3, 4):
        problem = adv.build_hidden_sample(q, p, M)
        for D in (1, 2, 3):
            rep = adv.hidden_sample_advantage(problem, D)
            assert rep.value_squared == hidden_oracle(problem, D) == 1 + chi2 / M
            assert rep.method == "hidden_sample_law" and rep.degree == D
            assert sum(rep.per_index.values()) == chi2 / M
        with pytest.raises(ValueError, match="D must be at least 1"):
            adv.hidden_sample_advantage(problem, 0)
    # float weights take the float kernel on both sides
    qf = ms.DiscreteMeasure(["a", "b", "c"], [0.5, 0.3, 0.2])
    pf = ms.DiscreteMeasure(["a", "b", "c"], [0.1, 0.6, 0.3])
    problem = adv.build_hidden_sample(qf, pf, 3)
    rep = adv.hidden_sample_advantage(problem, 2)
    assert type(rep.value_squared) is float
    assert abs(rep.value_squared - hidden_oracle(problem, 2)) < 1e-12
    assert abs(rep.value_squared - (1 + pf.chi_square(qf) / 3)) < 1e-12


def test_hidden_law_on_a_graph_base():
    # an n=3 graph base whose degree-one features are the edge indicators:
    # the law dilutes the degree-one base advantage, not the chi-square
    q = ms.er_graph_measure(3, F(1, 3))
    planted = ms.DiscreteMeasure([frozenset({(0, 1)}), frozenset({(0, 1), (1, 2)})],
                                 [F(1, 2), F(1, 2)])
    p = ms.DiscreteMeasure.mixture([ms.er_graph_measure(3, F(1, 4)), planted], [F(1, 2)] * 2)
    base = adv.advantage_gram_schmidt(p, q, D=1).value_squared
    assert base < 1 + p.chi_square(q)
    problem = adv.build_hidden_sample(q, p, 2)
    for D in (1, 2, 3):
        rep = adv.hidden_sample_advantage(problem, D)
        assert rep.value_squared == hidden_oracle(problem, D) == 1 + (base - 1) / 2


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
            idx = hp.pair_index(s1, s2)
            want = cond.expectation(lambda x: bs.evaluate_basis(idx, x, pr))
            assert bd.conditional_pair_moment(joint, s1, s2, pr, i, j) == want


# -- the Gram-matrix orthogonalization kernel ------------------------------------------


def column_gram_schmidt(p, q, features):
    """Oracle: unnormalized Gram-Schmidt on the feature columns over the null
    atoms, in Fractions, with the alternative means carried along; returns
    (value_squared, per_index) keyed by feature position."""
    w = [F(x) for x in q.weights]
    cols = [[F(fn(x)) for x in q.outcomes] for _, fn in features]
    p_cols = [[F(fn(x)) for x in p.outcomes] for _, fn in features]
    pw = [F(x) for x in p.weights]
    kept = []
    per_index = {}
    for fi, (col, p_col) in enumerate(zip(cols, p_cols)):
        e, pe = col[:], p_col[:]
        for vec, p_vec, norm in kept:
            coef = sum(wi * a * b for wi, a, b in zip(w, e, vec)) / norm
            e = [a - coef * b for a, b in zip(e, vec)]
            pe = [a - coef * b for a, b in zip(pe, p_vec)]
        norm = sum(wi * a * a for wi, a in zip(w, e))
        p_mean = sum(wi * a for wi, a in zip(pw, pe))
        if norm == 0:
            assert p_mean == 0
            continue
        kept.append((e, pe, norm))
        if fi:
            per_index[fi] = p_mean * p_mean / norm
    return 1 + sum(per_index.values()), per_index


def test_gram_kernel_matches_column_gram_schmidt_on_pairs():
    _, _, pair, null = corr_er_setup()
    features = adv.default_features(null, 3)
    value_squared, per_index = column_gram_schmidt(pair, null, features)
    explicit = adv.advantage_gram_schmidt(pair, null, features, exact=True)
    assert (explicit.value_squared, explicit.per_index) == (value_squared, per_index)
    assert len(per_index) == 41 and all(type(v) is F for v in explicit.per_index.values())
    # the default features go through the orbit route: same value
    assert adv.advantage_gram_schmidt(pair, null, D=3, exact=True).value_squared == value_squared


def test_gram_kernel_matches_column_gram_schmidt_on_hidden_composite():
    q = ms.DiscreteMeasure(["a", "b", "c"], [F(1, 3), F(1, 2), F(1, 6)])
    p = ms.DiscreteMeasure(["a", "b", "c"], [F(1, 4), F(1, 4), F(1, 2)])
    problem = adv.build_hidden_sample(q, p, 3)
    alt, null = oracle.composite_alt(problem), oracle.composite_null(problem)
    rep = adv.advantage_gram_schmidt(alt, null, D=8)
    value_squared, per_index = column_gram_schmidt(alt, null, adv.default_features(null, 8))
    assert (rep.value_squared, rep.per_index) == (value_squared, per_index)
    # the composite of degree up to M is the whole composite chi-square
    assert adv.hidden_sample_advantage(problem, 3).value_squared == value_squared


def test_gram_kernel_discards_null_directions_like_gram_schmidt():
    q = ms.DiscreteMeasure(["x", "y", "z", "w"], [F(1, 2), F(0), F(1, 3), F(1, 6)])
    p = ms.DiscreteMeasure(["x", "y", "z", "w"], [F(1, 5), F(0), F(1, 5), F(3, 5)])
    features = adv.default_features(q, 1) + [(1, lambda x: int(x in "yz"))]
    rep = adv.advantage_gram_schmidt(p, q, features)
    value_squared, per_index = column_gram_schmidt(p, q, features)
    assert (rep.value_squared, rep.per_index) == (value_squared, per_index)
    assert 1 not in rep.per_index and 4 not in rep.per_index  # the y one-hot, then "y or z" = z
    assert value_squared == 1 + p.chi_square(q)
    approx = adv.advantage_gram_schmidt(p, q, features, exact=False)
    assert approx.per_index.keys() == per_index.keys()
    assert abs(approx.value_squared - value_squared) < 1e-12
    # the hidden-sample route drops the same direction of its base
    problem = adv.build_hidden_sample(q, p, 2)
    full = adv.advantage_gram_schmidt(oracle.composite_alt(problem), oracle.composite_null(problem),
                                      D=4)
    assert adv.hidden_sample_advantage(problem, 2).value_squared == full.value_squared


def test_gram_kernel_fractional_features_and_repeated_atoms():
    # centered and scaled features, and an alternative listing an atom twice
    _, _, pair, null = corr_er_setup(n=3, q=F(1, 4), rho=F(1, 3), D=2)
    features = [(d, lambda x, fn=fn, d=d: (fn(x) - F(1, 4) ** d) / (d + 2))
                for d, fn in adv.default_features(null, 2)]
    rep = adv.advantage_gram_schmidt(pair, null, features)
    value_squared, per_index = column_gram_schmidt(pair, null, features)
    assert (rep.value_squared, rep.per_index) == (value_squared, per_index)
    split = ms.DiscreteMeasure(pair.outcomes + pair.outcomes[:1],
                               [w / 2 if i == 0 else w for i, w in enumerate(pair.weights)]
                               + [pair.weights[0] / 2])
    assert adv.advantage_gram_schmidt(split, null, features).per_index == per_index


def test_gram_kernel_infinite_advantage_raises():
    # two equal features: the second direction vanishes under the null, but
    # an alternative mean off the null's range charges it
    for gram, means in (([[F(1), F(1)], [F(1), F(1)]], [F(1), F(1) + F(1, 10 ** 9)]),
                        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0 + 1e-7])):
        with pytest.raises(ValueError, match="advantage infinite"):
            adv._ldl(gram, means, exact=isinstance(means[0], F))
        lower, pivots, reduced = adv._ldl(gram, [means[0]] * 2, exact=isinstance(means[0], F))
        assert pivots[1] == 0 and reduced[1] == 0 and lower[1] == [1]


def test_gram_kernel_float_mode_within_rounding_of_exact():
    _, _, pair, null = corr_er_setup()
    cond = corr_er_setup(n=4, q=F(1, 4), rho=F(7, 20), D=2)
    cases = ((pair, null, 3), (adv.condition_on_match(cond[1], 0, 0), cond[3], 2))
    for p, q, D in cases:
        exact = adv.advantage_gram_schmidt(p, q, D=D, exact=True)
        approx = adv.advantage_gram_schmidt(p, q, D=D, exact=False)
        assert abs(approx.value_squared - exact.value_squared) < 1e-12
        assert approx.per_index.keys() == exact.per_index.keys()
        assert all(abs(approx.per_index[i] - exact.per_index[i]) < 1e-12 for i in exact.per_index)
    # the n=4 conditional advantage is 249/200 by the product-basis route
    assert exact.value_squared == F(249, 200)


def test_gram_kernel_float_pivot_tolerance():
    # a pivot within 1e-10 of its diagonal entry is a discarded direction:
    # stored as 0, with no later feature projected on it
    gram = [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 1e-9], [0.0, 1e-9, 1.0]]
    lower, pivots, _ = adv._ldl(gram, [1.0, 1.0, 0.0], exact=False)
    assert pivots[1] == 0 and lower[2] == [0.0, 0]
    kept = [[1.0, 1.0], [1.0, 1.0 + 1e-9]]
    assert adv._ldl(kept, [1.0, 1.0], exact=False)[1][1] > 0


# -- the fraction-free LDL^T and the superset-sum table ---------------------------------


def fraction_ldl(gram, means):
    """Oracle: the unnormalized LDL^T pass in Fractions, as the exact kernel
    ran it before it worked in integers."""
    lower, pivots, reduced = [], [], []
    for i, g_row in enumerate(gram):
        scaled = []  # scaled[k] = lower[i][k] * pivots[k]
        for k in range(i):
            scaled.append(g_row[k] - sum(a * b for a, b in zip(scaled, lower[k])))
        l_row = [t / d if d else 0 for t, d in zip(scaled, pivots)]
        pivot = g_row[i] - sum(a * b for a, b in zip(scaled, l_row))
        mean = means[i] - sum(a * b for a, b in zip(l_row, reduced))
        if pivot <= 0:
            if mean != 0:
                raise ValueError("null direction with nonzero alternative mean: advantage infinite")
            pivot = 0
        lower.append(l_row)
        pivots.append(pivot)
        reduced.append(mean)
    return lower, pivots, reduced


def random_gram(rng, n_atoms, n_feats):
    """G = E_Q[f_i f_j] and c = E_P[f_i] for random integer features over
    atoms with random rational weights.  Some null weights are 0 (features
    living there vanish under the null), some features repeat or combine
    earlier ones, and P charges the null support only, so the kernel must
    discard directions without raising."""
    wq = [F(rng.randint(0, 3), rng.randint(1, 9)) for _ in range(n_atoms)]
    wq[0] = wq[0] or F(1, 7)
    wp = [F(rng.randint(1, 5), rng.randint(1, 9)) if w else F(0) for w in wq]
    feats = []
    for _ in range(n_feats):
        roll = rng.random()
        if feats and roll < 0.2:
            feats.append(feats[rng.randrange(len(feats))][:])
        elif len(feats) > 1 and roll < 0.35:
            a, b = rng.sample(feats, 2)
            k = F(rng.randint(-3, 3), rng.randint(1, 4))
            feats.append([x + k * y for x, y in zip(a, b)])
        elif roll < 0.45:  # supported where the null has no mass
            feats.append([rng.randint(-2, 2) if not w else 0 for w in wq])
        else:
            feats.append([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_atoms)])
    gram = [[sum(w * x * y for w, x, y in zip(wq, fi, fj)) for fj in feats] for fi in feats]
    means = [sum(w * x for w, x in zip(wp, fi)) for fi in feats]
    return gram, means, feats, wq


def test_fraction_free_ldl_matches_fraction_loop_on_random_psd_grams():
    rng = random.Random(20241)
    discarded = raised = 0
    for _ in range(60):
        gram, means, feats, wq = random_gram(rng, rng.randint(2, 9), rng.randint(1, 12))
        want = fraction_ldl(gram, means)
        assert adv._ldl(gram, means, exact=True) == want
        discarded += want[1].count(0)
        # the alternative also charging the atoms without null mass
        bad = [m + F(sum(x for x, w in zip(fi, wq) if not w), 5) for m, fi in zip(means, feats)]
        try:
            want = fraction_ldl(gram, bad)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="advantage infinite"):
                adv._ldl(gram, bad, exact=True)
        else:
            assert adv._ldl(gram, bad, exact=True) == want
    assert discarded > 20 and raised > 10  # both discard cases were exercised


def n4_conditioned():
    _, joint, _, null = corr_er_setup(n=4, q=F(1, 4), rho=F(7, 20), D=2)
    return adv.condition_on_match(joint, 0, 0), null


def handed_orbits(monkeypatch):
    """A list that records the orbits each orbit_gram call is handed."""
    handed = []
    orbit_gram = adv.orbit_gram
    monkeypatch.setattr(adv, "orbit_gram", lambda tq, tp, orbits: handed.append(orbits)
                        or orbit_gram(tq, tp, orbits))
    return handed


def orbit_and_atom_grams(handed, p, q, D, exact=True):
    """_null_gram on default_features(q, D) by the orbit route and by the
    per-atom route, and the orbits the orbit route handed orbit_gram (the
    handed_orbits list), each as the list of its monomials' positions."""
    feats = adv.default_features(q, D)
    orbit = adv._null_gram(p, q, None, D, exact)
    atom = adv._null_gram(p, q, feats, None, exact)
    bits = len(adv._edge_coordinates(q)[0])
    pos = {sum(1 << t for t in c): i for i, c in enumerate(
        c for k in range(D + 1) for c in itertools.combinations(range(bits), k))}
    blocks = [sorted(pos[m] for m in orbit) for orbit in handed[-1].values()]
    assert sorted(i for b in blocks for i in b) == list(range(len(feats)))
    return orbit, atom, blocks


def block_sums(gram, means, blocks):
    """The Gram matrix and means of the orbit sums of the features, from
    theirs: G_AB is the sum of G_st over s in A and t in B."""
    return ([[sum(gram[i][j] for i in a for j in b) for b in blocks] for a in blocks],
            [sum(means[i] for i in a) for a in blocks])


def test_fraction_free_ldl_matches_fraction_loop_on_advantage_kernels(monkeypatch):
    handed = handed_orbits(monkeypatch)
    _, _, pair, null = corr_er_setup()
    cases = [(pair, null, D) for D in (1, 2, 3)] + [(*n4_conditioned(), 2)]
    for p, q, D in cases:
        (gram, means, *_), (atom_gram, atom_means, *_), blocks = orbit_and_atom_grams(handed, p, q, D)
        assert (gram, means) == block_sums(atom_gram, atom_means, blocks)
        values = []
        for g, c in ((gram, means), (atom_gram, atom_means)):
            lower, pivots, reduced = adv._ldl(g, c, exact=True)
            assert (lower, pivots, reduced) == fraction_ldl(g, c)
            assert all(type(v) is F for v in pivots + reduced if v)
            values.append(1 + sum(r * r / d for d, r in zip(pivots[1:], reduced[1:]) if d))
        assert values[0] == values[1]
    assert values[0] == F(249, 200) and len(blocks) == 17


def test_superset_sum_table_matches_the_values_path(monkeypatch):
    handed = handed_orbits(monkeypatch)
    _, joint, pair, null = corr_er_setup()
    graph_null = ms.er_graph_measure(3, F(1, 3))
    graph_alt = joint.map(lambda x: x[2])  # the relabeled child: again edge-q
    tilted = ms.DiscreteMeasure(graph_null.outcomes, [w * (1 + len(x)) for x, w in graph_null],
                                normalize=True)
    cases = [(graph_alt, graph_null, D) for D in (1, 2, 3)] + [(tilted, graph_null, 2)]
    cases += [(pair, null, D) for D in (1, 2, 3)] + [(*n4_conditioned(), 2)]
    # a null and an alternative that are not symmetric in the two graphs
    lopsided = ms.er_graph_measure(3, F(1, 3)).product(ms.er_graph_measure(3, F(1, 4)))
    cases.append((pair, lopsided, 2))
    cases.append((ms.DiscreteMeasure(lopsided.outcomes, [w * (1 + 2 * len(a) + len(b)) for (a, b), w
                                                         in lopsided], normalize=True), lopsided, 3))
    for p, q, D in cases:
        (gram, means, *_), (atom_gram, atom_means, *_), blocks = orbit_and_atom_grams(handed, p, q, D)
        assert (gram, means) == block_sums(atom_gram, atom_means, blocks)
        assert len(blocks) < len(atom_gram)


def test_custom_features_and_abstract_atoms_skip_the_table(monkeypatch):
    calls = []
    table = adv._monomial_gram

    def spy(*args):
        calls.append(args[-1])
        return table(*args)

    _, _, pair, null = corr_er_setup()
    linear_want = adv.advantage_gram_schmidt(pair, null, D=1, exact=True).value_squared
    monkeypatch.setattr(adv, "_monomial_gram", spy)
    default = adv.advantage_gram_schmidt(pair, null, D=2, exact=True)
    assert calls == [2]
    custom = adv.advantage_gram_schmidt(pair, null, adv.default_features(null, 2), exact=True)
    assert calls == [2] and custom.value_squared == default.value_squared
    linear = adv.advantage_gram_schmidt(pair, null, adv.default_features(null, 1), D=2, exact=True)
    assert calls == [2] and linear.value_squared == linear_want
    adv.advantage_gram_schmidt(pair, null, D=2, exact=False)  # float mode reads the table too
    monkeypatch.setattr(adv, "ENUMERATION_BUDGET", (1 << 6) - 1)  # below the 2^6 masks of n=3 pairs
    with pytest.raises(gc.EnumerationBudgetError, match="moment-table entries: requested 64, budget 63"):
        adv.advantage_gram_schmidt(pair, null, D=2, exact=True)
    base = ms.DiscreteMeasure(["a", "b"], [F(1, 2), F(1, 2)])
    adv.advantage_gram_schmidt(base, base, D=1, exact=True)
    assert calls == [2, 2, 2]  # the refused call reached the table; the abstract atoms did not


@pytest.mark.parametrize("n", [7, 8, 10])
def test_product_basis_takes_a_one_atom_law_on_any_n(n):
    """A path's single atom against edge-q: m of the N edges carry centered
    moment 1 - q and the rest -q, so a + b of them carry
    ((1-q)/q)^a (q/(1-q))^b.  The table holds the path's 2^m subsets."""
    q, m, N = F(1, 4), n - 1, math.comb(n, 2)
    path = ms.DiscreteMeasure([hp.path_graph(n, m).edges], [F(1)])
    for D in (1, 2):
        want = sum(math.comb(m, a) * math.comb(N - m, b) * ((1 - q) / q) ** a * (q / (1 - q)) ** b
                   for a in range(D + 1) for b in range(D + 1 - a))
        assert adv.advantage_product_basis(path, md.ModelParams(n=n, q=q), D, "single").value_squared == want
    assert want == {7: F(782, 3), 8: F(1165, 3), 10: 758}[n]


def test_gram_schmidt_reads_the_table_past_two_to_the_coordinates(monkeypatch):
    """Four disjoint K4s and the empty graph: 24 charged coordinates, so 2^24
    masks, but a down-closure of 4 * 63 + 1.  Default features take the
    orbit route and agree with the same features given explicitly."""
    k4s = [frozenset(itertools.combinations(range(4 * i, 4 * i + 4), 2)) for i in range(4)]
    q = ms.DiscreteMeasure(k4s + [frozenset()], [F(1, 5)] * 5)
    p = ms.DiscreteMeasure(k4s + [frozenset()], [F(1, 8), F(1, 8), F(1, 4), F(1, 4), F(1, 4)])
    assert len(adv._edge_coordinates(q)[0]) == 24
    calls = []
    table = adv._monomial_gram
    monkeypatch.setattr(adv, "_monomial_gram", lambda *args: calls.append(args[-1]) or table(*args))
    for D in (1, 2):
        want = adv.advantage_gram_schmidt(p, q, adv.default_features(q, D)).value_squared
        assert adv.advantage_gram_schmidt(p, q, D=D).value_squared == want
    assert calls == [1, 2]


def test_float_gram_on_the_table_is_the_exact_sum_rounded_once(monkeypatch):
    calls = []
    table = adv._monomial_gram

    def spy(*args):
        calls.append(args[-1])
        return table(*args)

    monkeypatch.setattr(adv, "_monomial_gram", spy)
    handed = handed_orbits(monkeypatch)
    cases = []
    for q, rho in ((F(1, 3), F(1, 2)), (0.25, 0.35)):
        _, joint, pair, null = corr_er_setup(q=q, rho=rho)
        cases += [(joint.map(lambda x: x[2]), ms.er_graph_measure(3, q)), (pair, null)]
    for p, q in cases:
        (gram, means, *_), _, blocks = orbit_and_atom_grams(handed, p, q, 2, exact=False)
        # oracle: Fraction sums over the atoms and the orbit blocks, each
        # rounded by float() at the end
        feats = adv.default_features(q, 2)
        rows = [[f(x) * F(w) for x, w in q] for _, f in feats]
        exact_gram = [[sum(a * g(x) for a, x in zip(row, q.outcomes)) for _, g in feats] for row in rows]
        exact_means = [sum(f(x) * F(w) for x, w in p) for _, f in feats]
        want = block_sums(exact_gram, exact_means, blocks)
        assert (gram, means) == ([list(map(float, row)) for row in want[0]], list(map(float, want[1])))
        assert all(type(v) is float for v in means + gram[-1])
    assert calls == [2] * 4
    adv.advantage_rayleigh(*cases[-1], D=2)
    assert calls == [2] * 5


def test_table_path_rejects_alternative_outside_null_support():
    _, _, pair, null = corr_er_setup()
    restricted = null.condition(lambda x: (0, 1) not in x[0])
    with pytest.raises(ValueError, match="outside the null support"):
        adv.advantage_gram_schmidt(pair, restricted, D=2, exact=True)
    zeroed = ms.DiscreteMeasure(null.outcomes, [w if (0, 1) not in x[0] else 0 * w for x, w in null],
                                normalize=True)
    with pytest.raises(ValueError, match="outside the null support"):
        adv.advantage_gram_schmidt(pair, zeroed, D=2, exact=True)


# -- symmetry orbits ------------------------------------------------------------------


def test_gram_schmidt_and_product_basis_agree_class_by_class(monkeypatch):
    """On the product null, Gram-Schmidt on the orbit sums carries, class
    by class, what the product basis carries; the orbits are those of
    S_n x S_n, or of Stab(0) x Stab(0) under pi(1) = 1."""
    handed = handed_orbits(monkeypatch)
    cases = []
    for n, q, rho, degrees in ((3, F(1, 3), F(1, 2), range(1, 7)), (4, F(1, 4), F(7, 20), range(1, 5))):
        pr, joint, pair, _ = corr_er_setup(n=n, q=q, rho=rho)
        cases += [(pr, p, D) for p in (pair, adv.condition_on_match(joint, 0, 0)) for D in degrees]
    sbm = md.ModelParams(n=3, k=2, lam=F(1), eps=F(2, 5), s=F(1, 2))
    sbm_joint = ms.correlated_sbm_joint_measure(3, 2, sbm.lam, sbm.eps, sbm.s)
    cases += [(sbm, p, D) for p in (sbm_joint.map(lambda x: (x[1], x[2])),
                                    adv.condition_on_match(sbm_joint, 0, 0)) for D in (2, 3)]
    for pr, p, D in cases:
        null = ms.er_pair_measure(pr.n, bs.pair_edge_prob(pr))
        product = adv.advantage_product_basis(p, pr, D, kind="pair")
        gs = adv.advantage_gram_schmidt(p, null, D=D)
        assert gs.per_index == product.per_index, (pr.n, D)
        assert gs.value_squared == product.value_squared
    counts = list(map(len, handed))
    # n=4, D = 2 and 4, without and with the condition
    assert [counts[i] for i in (13, 15, 17, 19)] == [8, 32, 17, 93]
    assert counts[:3] == [3, 6, 10]  # n=3: one class of S1 and one of S2 per pair of sizes


def test_float_pair_laws_are_exactly_symmetric_and_share_the_exact_orbits(monkeypatch):
    """Each image's float weight is one correctly rounded sum, so a pair law
    and its relabelings agree bit for bit and Gram-Schmidt finds the exact
    laws' orbits: 8 at n=4, D=2, and 17 under pi(1) = 1."""
    handed = handed_orbits(monkeypatch)
    _, joint, pair, null = corr_er_setup(n=4, q=0.25, rho=0.35, D=2)
    conditioned = adv.condition_on_match(joint, 0, 0)

    def relabel(edges, u, v):
        swap = {u: v, v: u}
        return frozenset(gc._norm_edge(swap.get(a, a), swap.get(b, b)) for a, b in edges)

    for law, vertices in ((pair, range(4)), (conditioned, range(1, 4))):  # pi(1) = 1 fixes vertex 0
        weight = dict(law)
        assert not law.exact and len(weight) == 4096
        for u, v in itertools.combinations(vertices, 2):
            for (a, b), w in weight.items():
                assert weight[relabel(a, u, v), b].hex() == w.hex()
                assert weight[a, relabel(b, u, v)].hex() == w.hex()
    for p, want, orbits in ((pair, F(449, 400), 8), (conditioned, F(249, 200), 17)):
        assert abs(adv.advantage_gram_schmidt(p, null, D=2).value_squared - want) <= 1e-12
        assert len(handed[-1]) == orbits


def test_orbits_come_from_the_transpositions_that_fix_the_laws(monkeypatch):
    handed = handed_orbits(monkeypatch)
    _, _, pair, null = corr_er_setup()
    # the pair law tilted by a distinct weight on two edges of each graph:
    # no transposition of either side fixes it, so every orbit is one monomial
    tilt = {(0, (0, 1)): 1, (0, (0, 2)): 2, (1, (0, 1)): 3, (1, (1, 2)): 4}
    asymmetric = ms.DiscreteMeasure(pair.outcomes, [
        w * (1 + sum(c for (side, e), c in tilt.items() if e in x[side])) for x, w in pair], normalize=True)
    for D in (1, 2, 3):
        features = adv.default_features(null, D)
        rep = adv.advantage_gram_schmidt(asymmetric, null, D=D)
        assert len(handed[-1]) == len(features) and all(len(o) == 1 for o in handed[-1].values())
        value_squared, per_index = column_gram_schmidt(asymmetric, null, features)
        explicit = adv.advantage_gram_schmidt(asymmetric, null, features)
        assert rep.value_squared == explicit.value_squared == value_squared
        coords = adv._edge_coordinates(null)[0]
        keys = oracle.class_keys(3, coords, True, adv.small_masks(len(coords), D))
        by_class = {}
        for i, contrib in per_index.items():
            by_class[keys[i]] = by_class.get(keys[i], 0) + contrib
        assert rep.per_index == by_class
    # conditioned on pi(1) = 1, the laws are fixed by Stab(0) x Stab(0) only
    for n, D in ((3, 3), (4, 2)):
        _, joint, _, null = corr_er_setup(n=n, q=F(1, 4), rho=F(7, 20))
        adv.advantage_gram_schmidt(adv.condition_on_match(joint, 0, 0), null, D=D)
        assert sorted(map(sorted, handed[-1].values())) == sorted(map(sorted, stabilizer_orbits(n, D)))


def stabilizer_orbits(n, D):
    """The orbits of the pair monomials of at most D edges under every
    (sigma, tau) in S_n x S_n fixing vertex 0, by applying each pair."""
    edges = list(itertools.combinations(range(n), 2))
    coords = [(side, e) for side in (0, 1) for e in edges]
    perms = [p for p in itertools.permutations(range(n)) if p[0] == 0]
    orbits = set()
    for k in range(D + 1):
        for combo in itertools.combinations(coords, k):
            orbits.add(frozenset(
                sum(1 << coords.index((side, tuple(sorted((perm[side][u], perm[side][v])))))
                    for side, (u, v) in combo)
                for perm in itertools.product(perms, repeat=2)))
    return orbits


def spied_symmetry_orbits(monkeypatch):
    """A list of (arguments, result) of each symmetry_orbits call."""
    calls = []
    orbits = adv.symmetry_orbits
    monkeypatch.setattr(adv, "symmetry_orbits", lambda *args: calls.append((args, orbits(*args))) or calls[-1][1])
    return calls


def transposition_search(coords, reads, D, pair):
    """The oracle's (orbits, keys) for the arguments of symmetry_orbits."""
    orbits = oracle.transposition_orbits(coords, reads, D)
    n = 1 + max((v for _, e in coords for v in e), default=0)
    return orbits, oracle.class_keys(n, coords, pair, orbits)


def test_named_groups_give_the_orbits_of_the_transposition_search(monkeypatch):
    """On every law the advantage tests serve at n <= 4, the first of S_n,
    Stab(0), ..., Stab(n-1) that fixes each side gives the orbits and keys,
    in the same order, that the search over all vertex transpositions gives.
    The one exception is the four-K4 law, fixed only by permutations within
    its blocks: it gets one orbit per monomial."""
    calls = spied_symmetry_orbits(monkeypatch)
    cases = []
    for n, q, rho, D, matches in ((3, F(1, 3), F(1, 2), 3, ((0, 0), (0, 1), (1, 2), (2, 0))),
                                  (4, F(1, 4), F(7, 20), 2, ((0, 0), (3, 1))), (4, 0.25, 0.35, 2, ((2, 3),))):
        pr, joint, pair, null = corr_er_setup(n=n, q=q, rho=rho)
        cases += [(pr, p, null, D) for p in [pair] + [adv.condition_on_match(joint, i, j) for i, j in matches]]
    sbm = md.ModelParams(n=3, k=2, lam=F(1), eps=F(2, 5), s=F(1, 2))
    sbm_joint = ms.correlated_sbm_joint_measure(3, 2, sbm.lam, sbm.eps, sbm.s)
    cases += [(sbm, p, ms.er_pair_measure(3, bs.pair_edge_prob(sbm)), 3) for p in
              (sbm_joint.map(lambda x: (x[1], x[2])), *(adv.condition_on_match(sbm_joint, 0, j) for j in (0, 2)))]
    _, joint, pair, null = corr_er_setup()
    graph = md.ModelParams(n=3, q=F(1, 3))
    graph_null = ms.er_graph_measure(3, graph.q)
    cases += [(graph, joint.map(lambda x: x[2]), graph_null, 3)]
    for tilt in ({(0, 1): 1, (0, 2): 1}, {(0, 1): 1}, {(0, 1): 1, (1, 2): 2}):  # Stab(0), Stab(2), none
        cases.append((graph, ms.DiscreteMeasure(graph_null.outcomes, [
            w * (1 + sum(c for e, c in tilt.items() if e in x)) for x, w in graph_null], normalize=True),
            graph_null, 3))
    tilt = {(0, (0, 1)): 1, (0, (0, 2)): 2, (1, (0, 1)): 3, (1, (1, 2)): 4}
    cases.append((None, ms.DiscreteMeasure(pair.outcomes, [
        w * (1 + sum(c for (side, e), c in tilt.items() if e in x[side])) for x, w in pair], normalize=True),
        null, 3))
    lopsided = ms.er_graph_measure(3, F(1, 3)).product(ms.er_graph_measure(3, F(1, 4)))
    cases += [(None, pair, lopsided, 2), (None, ms.DiscreteMeasure(lopsided.outcomes, [
        w * (1 + 2 * len(a) + len(b)) for (a, b), w in lopsided], normalize=True), lopsided, 3)]
    for pr, p, q, D in cases:
        adv.advantage_gram_schmidt(p, q, D=D)
        if pr is not None and p.exact:
            adv.advantage_product_basis(p, pr, D, kind="pair" if adv._edge_coordinates(p)[1] else "single")
    assert len(calls) == 35
    for args, got in calls:
        want = transposition_search(*args)
        assert list(got[0].items()) == list(want[0].items()) and got[1] == want[1]
    k4s = [frozenset(itertools.combinations(range(4 * i, 4 * i + 4), 2)) for i in range(4)]
    q = ms.DiscreteMeasure(k4s + [frozenset()], [F(1, 5)] * 5)
    adv.advantage_gram_schmidt(q, q, D=1)
    args, (orbits, _) = calls[-1]
    assert len(orbits) == 25 and len(transposition_search(*args)[0]) == 5  # the search finds S_4 on each block
    adv.advantage_gram_schmidt(q, q, D=2)
    assert len(calls[-1][1][0]) == 1 + 24 + 276  # one orbit per monomial


@pytest.mark.parametrize("n, D, counts, roots", [
    (3, 3, (10, 23), [(0, 0)]), (4, 2, (8, 17), [(0, 0)]), (4, 4, (32, 93), [(0, 0), (1, 3)]),
    (5, 4, (44, 164), [(0, 0), (2, 4)]), (6, 4, (54, 200), [(3, 3), (5, 2)])])
def test_product_orbit_counts_on_synthetic_tables(n, D, counts, roots):
    """An empty table is fixed by S_n x S_n.  One that charges the edges at
    vertex i on side 0 and at vertex j on side 1 is fixed by Stab(i) x
    Stab(j), so its orbits are products of rooted one-graph orbits."""
    coords = [(side, e) for side in (0, 1) for e in ms.edge_bits(n)]
    monomials = sum(math.comb(len(coords), k) for k in range(D + 1))
    for table, want in [(adv._Table(), counts[0])] + [(adv._Table(
            {1 << t: 1 for t, (side, e) in enumerate(coords) if (i, j)[side] in e}), counts[1]) for i, j in roots]:
        orbits, keys = adv.symmetry_orbits(coords, [(table, D)], D, True)
        assert len(orbits) == len(keys) == want
        assert sum(map(len, orbits.values())) == monomials
        side0 = (1 << len(coords) // 2) - 1
        rooted = [sum(table) & side0, sum(table) & ~side0]
        for rep, orbit in orbits.items():  # each side keeps its count of rooted edges
            assert {tuple((m & r).bit_count() for r in rooted) for m in orbit} == {
                tuple((rep & r).bit_count() for r in rooted)}
