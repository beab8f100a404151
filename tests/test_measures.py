import gc
import itertools
import math
from fractions import Fraction as F

import pytest

from lowdeg import measures as ms
from lowdeg.graph_core import EnumerationBudgetError


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ms.DiscreteMeasure(["a", "b"], [F(1, 2), F(1, 3)])
    m = ms.DiscreteMeasure(["a", "b"], [F(1, 2), F(1, 3)], normalize=True)
    assert sum(m.weights) == 1
    assert m.exact


def test_condition_map_product():
    m = ms.DiscreteMeasure(list(range(4)), [F(1, 4)] * 4)
    even = m.condition(lambda x: x % 2 == 0)
    assert sorted(even.outcomes) == [0, 2]
    assert all(w == F(1, 2) for w in even.weights)
    with pytest.raises(ValueError):
        m.condition(lambda x: x > 10)
    merged = m.map(lambda x: x % 2)
    assert dict(zip(merged.outcomes, merged.weights)) == {0: F(1, 2), 1: F(1, 2)}
    prod = m.product(m)
    assert len(prod) == 16 and sum(prod.weights) == 1
    p3 = ms.DiscreteMeasure(["x", "y"], [F(1, 3), F(2, 3)]).power(3)
    assert len(p3) == 8
    assert dict(zip(p3.outcomes, p3.weights))[("y", "y", "y")] == F(8, 27)


def test_likelihood_ratio_and_chi_square():
    q = ms.DiscreteMeasure(["a", "b"], [F(1, 2), F(1, 2)])
    p = ms.DiscreteMeasure(["a", "b"], [F(1, 4), F(3, 4)])
    table = p.likelihood_ratio_table(q)
    assert table == {"a": F(1, 2), "b": F(3, 2)}
    assert p.chi_square(q) == 2 * (F(1, 4) ** 2) / F(1, 2)
    p_bad = ms.DiscreteMeasure(["a", "c"], [F(1, 4), F(3, 4)])
    with pytest.raises(ValueError):
        p_bad.likelihood_ratio_table(q)


def test_er_measure_marginals():
    m = ms.er_graph_measure(3, F(1, 3))
    assert len(m) == 8 and m.exact
    # per-edge marginal is q
    assert m.mass(lambda g: (0, 1) in g) == F(1, 3)


def test_sbm_joint_marginals():
    joint = ms.sbm_joint_measure(3, 2, F(1), F(2, 5))
    # label marginal uniform
    assert joint.map(lambda x: x[0]).weights == [F(1, 8)] * 8
    # edge probability given equal labels
    eq = joint.condition(lambda x: x[0][0] == x[0][1])
    p_in = (1 + F(2, 5)) * F(1) / 3
    assert eq.mass(lambda x: (0, 1) in x[1]) == p_in


def test_correlated_joint_consistency():
    p, s = F(1, 2), F(2, 3)
    joint = ms.correlated_er_joint_measure(3, p, s)
    assert sum(joint.weights) == 1
    # A marginal is edge-(p*s)
    assert joint.mass(lambda x: (0, 1) in x[1]) == p * s
    assert joint.mass(lambda x: (0, 1) in x[2]) == p * s
    # permutation marginal is uniform
    pis = joint.map(lambda x: x[0])
    assert all(w == F(1, 6) for w in pis.weights)


def test_correlated_sbm_joint_reduces_to_er_at_zero_eps():
    lam, s = F(3, 2), F(1, 2)
    sbm = ms.correlated_sbm_joint_measure(3, 2, lam, F(0), s)
    er = ms.correlated_er_joint_measure(3, lam / 3, s)
    d_sbm = dict(zip(sbm.outcomes, sbm.weights))
    d_er = dict(zip(er.outcomes, er.weights))
    assert d_sbm == d_er
    # n=4: eight label-class components, each over the common denominator
    sbm = ms.correlated_sbm_joint_measure(4, 2, lam, F(0), s)
    er = ms.correlated_er_joint_measure(4, lam / 4, s)
    assert dict(zip(sbm.outcomes, sbm.weights)) == dict(zip(er.outcomes, er.weights))


def test_float_matching_joints_match_the_exact_ones():
    """Float inputs keep their float products; exact inputs build integer
    numerators over a common denominator.  Both give the same law."""
    def assert_close(approx, exact):
        assert exact.exact and not approx.exact and approx.outcomes == exact.outcomes
        assert all(type(w) is float and abs(w - x) <= 1e-12
                   for w, x in zip(approx.weights, exact.weights))

    p, s = F(2, 5), F(3, 4)
    exact = ms.correlated_er_joint_measure(3, p, s)
    for fp, fs in ((float(p), float(s)), (p, float(s))):
        assert_close(ms.correlated_er_joint_measure(3, fp, fs), exact)
    for k in (2, 3):
        assert_close(ms.correlated_sbm_joint_measure(3, k, 1.0, 0.3, 0.5),
                     ms.correlated_sbm_joint_measure(3, k, F(1), F(3, 10), F(1, 2)))


def test_matching_joint_restores_the_garbage_collector_state(monkeypatch):
    seen = []
    checked_total = ms._checked_total

    def recording(weights):
        seen.append(gc.isenabled())
        return checked_total(weights)

    monkeypatch.setattr(ms, "_checked_total", recording)
    was = gc.isenabled()
    try:
        for before in (True, False):
            (gc.enable if before else gc.disable)()
            assert len(ms.correlated_er_joint_measure(3, F(1, 2), F(1, 2))) == 384
            assert gc.isenabled() is before
            with pytest.raises(ValueError, match="negative weight"):  # s > 1
                ms.correlated_er_joint_measure(3, F(1, 2), F(3, 2))
            assert gc.isenabled() is before
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4  # the atoms are checked with the collector paused


@pytest.mark.parametrize("exact", [True, False])
def test_matching_joints_check_their_pair_weights_as_the_public_constructor_would(monkeypatch, exact):
    """Every matching joint is the measure DiscreteMeasure makes of its atoms,
    though its weights are checked once, on the 4^C(n,2) pairs (A, B)."""
    num = (lambda a, b: F(a, b)) if exact else (lambda a, b: a / b)
    parent = ms.er_graph_measure(3, num(1, 3))
    builds = {
        "corr-er": lambda: ms.correlated_er_joint_measure(3, num(2, 5), num(2, 3)),
        "corr-sbm": lambda: ms.correlated_sbm_joint_measure(3, 2, num(1, 1), num(3, 10), num(1, 2)),
        "children": lambda: ms.children_joint(3, num(1, 2), parent),
    }
    checked_total = ms._checked_total
    for name, build in builds.items():
        seen = []
        monkeypatch.setattr(ms, "_checked_total", lambda w: seen.append(len(w)) or checked_total(w))
        joint = build()
        monkeypatch.setattr(ms, "_checked_total", checked_total)
        assert seen == [4 ** 3], name
        public = ms.DiscreteMeasure(joint.outcomes, joint.weights)
        assert public.outcomes == joint.outcomes, name
        assert all(a is b for a, b in zip(public.weights, joint.weights)), name
        assert len(public.weights) == len(joint.weights) == 6 * 4 ** 3, name
        assert public.exact is joint.exact is exact, name


@pytest.mark.parametrize("exact", [True, False])
def test_matching_joint_rejects_a_bad_total_or_a_negative_pair_weight(exact):
    num = (lambda a, b: F(a, b)) if exact else (lambda a, b: a / b)
    full = 7  # every edge of K_3
    over = [(num(1, 2), [(full, num(1, 3))]), (num(501, 1000), [(1, num(1, 2)), (full & ~1, num(1, 4))])]
    message = "1001/1000" if exact else r"1\.00(1|09999)\d*"
    with pytest.raises(ValueError, match=f"^weights sum to {message}, not 1$"):
        ms._child_subsampling_joint(3, num(1, 2), over)
    with pytest.raises(ValueError, match="^negative weight$"):
        ms._child_subsampling_joint(3, num(3, 2), [(num(1, 1), [(full, num(1, 2))])])


def _subsets(items):
    items = sorted(items)
    return [frozenset(c) for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


def _nested_joint(n, laws, s, keep_parent=False):
    """Oracle by plain enumeration: pi, a parent law given as (weight, edge
    probability per pair), the parent G, then both children A, B within G,
    summed into a dict."""
    pairs = list(itertools.combinations(range(n), 2))
    out = {}
    for pi in itertools.permutations(range(n)):
        for law_w, prob in laws:
            for g in _subsets(pairs):
                w_g = law_w / math.factorial(n)
                for e in pairs:
                    w_g *= prob[e] if e in g else 1 - prob[e]
                for a in _subsets(g):
                    for b in _subsets(g):
                        w = w_g * s ** (len(a) + len(b)) * (1 - s) ** (2 * len(g) - len(a) - len(b))
                        b_img = frozenset(tuple(sorted((pi[u], pi[v]))) for u, v in b)
                        key = (pi, g, a, b_img) if keep_parent else (pi, a, b_img)
                        out[key] = out.get(key, 0) + w
    return out


def test_correlated_joints_match_nested_enumeration():
    n, p, s = 3, F(2, 5), F(2, 3)
    pairs = list(itertools.combinations(range(n), 2))
    er = [(F(1), {e: p for e in pairs})]
    joint = ms.correlated_er_joint_measure(n, p, s)
    assert dict(zip(joint.outcomes, joint.weights)) == _nested_joint(n, er, s)
    k, lam, eps = 2, F(3, 2), F(2, 5)
    p_in, p_out = (1 + (k - 1) * eps) * lam / n, (1 - eps) * lam / n
    sbm = [(F(1, k ** n), {(u, v): p_in if sigma[u] == sigma[v] else p_out for u, v in pairs})
           for sigma in itertools.product(range(k), repeat=n)]
    joint = ms.correlated_sbm_joint_measure(n, k, lam, eps, s)
    assert dict(zip(joint.outcomes, joint.weights)) == _nested_joint(n, sbm, s)


@pytest.mark.parametrize("n", [3, 4])
def test_children_of_the_er_law_are_the_er_matching_joint(n):
    p, s = F(2, 5), F(3, 4)
    joint = ms.correlated_er_joint_measure(n, p, s)
    children = ms.children_joint(n, s, ms.er_graph_measure(n, p))
    assert children.exact and children.outcomes == joint.outcomes and children.weights == joint.weights
    approx = ms.children_joint(n, float(s), ms.er_graph_measure(n, float(p)))
    assert not approx.exact and approx.outcomes == joint.outcomes
    assert all(abs(w - x) <= 1e-12 for w, x in zip(approx.weights, joint.weights))


@pytest.mark.parametrize("k", [2, 3])
def test_children_of_the_block_model_law_are_the_sbm_matching_joint(k):
    lam, eps, s = F(3, 2), F(2, 5), F(2, 3)
    joint = ms.correlated_sbm_joint_measure(3, k, lam, eps, s)
    children = ms.children_joint(3, s, ms.sbm_graph_measure(3, k, lam, eps))
    assert children.outcomes == joint.outcomes and children.weights == joint.weights


def test_event_active_moment_audit_matches_nested_enumeration():
    """At q = 1e-10 the event E drops the triangle parent; the audit's joint
    is the children of the conditioned parent law, G summed out."""
    from lowdeg import bounds as bd
    from lowdeg import graph_core as gc
    from lowdeg.models import ModelParams, event_E_indicator

    n = 3
    params = ModelParams(n=n, q=F(1, 10 ** 10), rho=F(1, 3), D=2, delta=F(1, 100))
    pairs = list(itertools.combinations(range(n), 2))

    def event(g):
        return event_E_indicator(gc.graph(n, g, range(n)), params, "er")

    assert [g for g in _subsets(pairs) if not event(g)] == [frozenset(pairs)]
    kept = _nested_joint(n, [(F(1), {e: params.p for e in pairs})], params.s, keep_parent=True)
    kept = {x: w for x, w in kept.items() if event(x[1])}
    mass = sum(kept.values())
    oracle = {}
    for (pi, _g, a, b), w in kept.items():
        oracle[pi, a, b] = oracle.get((pi, a, b), 0) + w / mass
    joint = ms.DiscreteMeasure(list(oracle), list(oracle.values()))
    for s1, s2 in bd.default_pair_fixtures(n):
        audit = bd.audit_conditional_moment(s1, s2, params)
        assert audit.regime == "event-active"
        assert audit.lhs == abs(float(bd.conditional_pair_moment(joint, s1, s2, params)))


def test_matching_joint_budget_error_is_structured():
    with pytest.raises(EnumerationBudgetError) as info:
        ms.correlated_er_joint_measure(5, F(1, 2), F(1, 2))
    err = info.value
    assert err.where == "measures._child_subsampling_joint"
    assert err.requested == math.factorial(5) * 4 ** 10
    assert err.budget == ms.ENUMERATION_BUDGET < err.requested
    assert str(err) == "matching-joint atoms: requested 125829120, budget 4194304"


def test_exact_flag_is_fixed_at_construction():
    m = ms.DiscreteMeasure(["a", "b"], [F(1, 4), F(3, 4)])
    assert "exact" in vars(m) and m.exact
    assert not ms.DiscreteMeasure(["a", "b"], [0.25, 0.75]).exact


# -- weight validation ------------------------------------------------------------


def _primes(count):
    out = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def test_negative_exact_weight_rejected():
    with pytest.raises(ValueError, match="^negative weight$"):
        ms.DiscreteMeasure(["a", "b"], [F(-1, 2), F(3, 2)])
    with pytest.raises(ValueError, match="^negative weight$"):
        ms.DiscreteMeasure(["a", "b", "c"], [F(1, 2), -1, F(3, 2)])
    with pytest.raises(ValueError, match="^negative weight$"):
        ms.DiscreteMeasure(["a", "b"], [-0.5, 1.5])
    with pytest.raises(ValueError, match="^negative weight$"):
        ms.DiscreteMeasure(["a", "b"], [F(-1, 2), F(1, 2)], normalize=True)


def test_exact_sum_must_be_one_with_the_sum_in_the_message():
    with pytest.raises(ValueError, match="^weights sum to 5/6, not 1$"):
        ms.DiscreteMeasure(["a", "b"], [F(1, 2), F(1, 3)])
    with pytest.raises(ValueError, match="^weights sum to 2, not 1$"):
        ms.DiscreteMeasure(["a", "b"], [1, 1])
    with pytest.raises(ValueError, match="^weights sum to 0, not 1$"):
        ms.DiscreteMeasure([], [])


def test_mixed_int_and_fraction_weights_are_exact():
    m = ms.DiscreteMeasure(["a", "b", "c"], [0, F(1, 2), F(1, 2)])
    assert m.exact and m.weights == [0, F(1, 2), F(1, 2)]
    assert ms.DiscreteMeasure(["a", "b"], [1, F(0)]).exact
    assert not ms.DiscreteMeasure(["a", "b"], [F(1, 2), 0.5]).exact
    # normalizing divides by the sum: ints over an int sum become floats
    ints = ms.DiscreteMeasure(["a", "b"], [1, 3], normalize=True)
    assert ints.weights == [0.25, 0.75] and not ints.exact
    mixed = ms.DiscreteMeasure(["a", "b"], [1, F(3)], normalize=True)
    assert mixed.weights == [F(1, 4), F(3, 4)] and mixed.exact


def test_many_coprime_denominators_summing_to_one():
    squares = [p * p for p in _primes(60)]
    head = [F(1, d) for d in squares]
    weights = head + [1 - sum(head)]
    m = ms.DiscreteMeasure(range(len(weights)), weights)
    assert m.exact and m.weights == weights
    # off by one part in the product of all the denominators
    tiny = F(1, math.prod(squares))
    with pytest.raises(ValueError, match="not 1$"):
        ms.DiscreteMeasure(range(len(weights)), weights[:-1] + [weights[-1] + tiny])
    # a telescoping sum with many shared factors
    n = 3000
    steps = [F(1, k * (k + 1)) for k in range(1, n)] + [F(1, n)]
    assert ms.DiscreteMeasure(range(n), steps).exact


def test_float_sum_tolerance_is_1e_12():
    for off in (5e-13, -5e-13):
        assert not ms.DiscreteMeasure(["a", "b"], [0.5, 0.5 + off]).exact
    for off in (2e-12, -2e-12):
        with pytest.raises(ValueError, match=r"^weights sum to 0\.99999|^weights sum to 1\.00000"):
            ms.DiscreteMeasure(["a", "b"], [0.5, 0.5 + off])


def test_non_finite_float_weights_rejected():
    nan, inf = float("nan"), float("inf")
    for weights, normalize in (([nan, 1.0], False), ([nan, 1.0], True), ([inf, 1.0], True)):
        with pytest.raises(ValueError, match="^weights sum to (nan|inf), not 1$"):
            ms.DiscreteMeasure([0, 1], weights, normalize=normalize)


# -- one tuple product and one edge layout, against plain per-factor loops -----


def _pair_product(a, b):
    """The two-factor product with (x, y) atoms, as a plain double loop."""
    return ms.DiscreteMeasure([(x, y) for x in a.outcomes for y in b.outcomes],
                              [wx * wy for wx in a.weights for wy in b.weights])


def _flatten(x, m):
    """((x0, x1), x2), ... of an m-fold nested pair product as (x0, x1, x2, ...)."""
    tail = []
    for _ in range(m - 1):
        x, last = x
        tail.append(last)
    return (x, *reversed(tail))


def _atoms(m):
    return list(zip(m.outcomes, m.weights))


@pytest.mark.parametrize("exact", [True, False])
def test_flat_product_matches_flattened_nested_pairs(exact):
    w = (lambda *ws: [F(x) for x in ws]) if exact else (lambda *ws: [float(F(x)) for x in ws])
    a = ms.DiscreteMeasure(["a", "b"], w("1/3", "2/3"))
    b = ms.DiscreteMeasure([0, 1, 2], w("1/7", "2/7", "4/7"))
    c = ms.DiscreteMeasure([frozenset(), frozenset({(0, 1)})], w("3/10", "7/10"))
    assert _atoms(a.product(b)) == _atoms(_pair_product(a, b))
    nested = _pair_product(_pair_product(a, b), c)
    flat = [(_flatten(x, 3), wx) for x, wx in _atoms(nested)]
    assert _atoms(a.product(b, c)) == flat
    assert [x for x, _ in _atoms(a.product())] == [("a",), ("b",)]
    assert _atoms(c.power(3)) == _atoms(c.product(c, c))
    assert _atoms(c.power(1)) == _atoms(c.product())


def test_edge_layout_round_trips():
    for n in range(1, 6):
        bits = ms.edge_bits(n)
        assert list(bits) == list(itertools.combinations(range(n), 2))
        assert list(bits.values()) == [1 << i for i in range(len(bits))]
        sets = ms.edge_sets(n)
        assert len(sets) == 1 << len(bits)
        for mask, edges in enumerate(sets):
            assert sum(bits[e] for e in edges) == mask
            assert edges == frozenset(e for e, b in bits.items() if mask & b)


def _per_edge_er(n, q):
    """er_graph_measure as a loop over masks with one Bernoulli factor per edge."""
    pairs = list(itertools.combinations(range(n), 2))
    outs, ws = [], []
    for mask in range(2 ** len(pairs)):
        w = F(1) if isinstance(q, F) else 1.0
        for i in range(len(pairs)):
            w = w * (q if mask >> i & 1 else 1 - q)
        outs.append(frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1))
        ws.append(w)
    return list(zip(outs, ws))


def _per_edge_sbm(n, k, lam, eps):
    """sbm_joint_measure as a loop over labelings and masks, per-edge factors."""
    pairs = list(itertools.combinations(range(n), 2))
    p_in, p_out = ms.sbm_block_probs(n, k, lam, eps)
    out = []
    for sigma in itertools.product(range(k), repeat=n):
        for mask in range(2 ** len(pairs)):
            w = F(1, k ** n) if isinstance(p_in, F) else 1.0 / k ** n
            for i, (u, v) in enumerate(pairs):
                p = p_in if sigma[u] == sigma[v] else p_out
                w = w * (p if mask >> i & 1 else 1 - p)
            out.append(((sigma, frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)), w))
    return out


def test_er_and_sbm_measures_match_per_edge_loops():
    for n in range(2, 5):
        for q in (F(1, 3), 0.3):
            assert _atoms(ms.er_graph_measure(n, q)) == _per_edge_er(n, q)
    for k in (2, 3):
        for lam, eps in ((F(3, 2), F(2, 5)), (1.5, 0.4)):
            assert _atoms(ms.sbm_joint_measure(3, k, lam, eps)) == _per_edge_sbm(3, k, lam, eps)


def test_label_classes_match_enumeration_of_labelings():
    """Oracle: group every sigma in [k]^n by its equal-label edge mask."""
    for n in range(1, 6):
        bits = ms.edge_bits(n)
        for k in range(1, 5):
            brute: dict = {}
            for sigma in itertools.product(range(k), repeat=n):
                mask = sum(b for (u, v), b in bits.items() if sigma[u] == sigma[v])
                brute[mask] = brute.get(mask, 0) + 1
            classes = ms.label_classes(n, k)
            assert classes == brute
            assert sum(classes.values()) == k ** n


def _per_triple_joint(n, s, parents, keep_parent):
    """Oracle: the matching joint as built before its weights were keyed by
    class over all components -- one per-component count key and one
    Fraction sum per triple, and one outcome tuple per (pi, triple)."""
    sets = ms.edge_sets(n)
    full = len(sets) - 1
    perms = list(itertools.permutations(range(n)))
    if keep_parent:
        triples = [(g, a, b) for g in range(len(sets)) for a in range(len(sets)) if a & ~g == 0
                   for b in range(len(sets)) if b & ~g == 0]
    else:
        triples = [(a | b, a, b) for a in range(len(sets)) for b in range(len(sets))]
    weights = [0] * len(triples)
    for coef, classes in parents:
        factors = []
        for mask, p in classes:
            off = 1 - p if keep_parent else 1 - p + p * (1 - s) * (1 - s)
            factors.append((mask, (p * s * s, p * s * (1 - s), p * (1 - s) * (1 - s), off)))
        for t, (g, a, b) in enumerate(triples):
            states = (a & b, a ^ b, g & ~(a | b), full & ~g)
            w = coef / len(perms)
            for mask, fs in factors:
                for f, st in zip(fs, states):
                    w = w * f ** (st & mask).bit_count()
            weights[t] = weights[t] + w
    outs = []
    for pi in perms:
        image = [frozenset(ms._norm_edge(pi[u], pi[v]) for u, v in es) for es in sets]
        for g, a, b in triples:
            outs.append((pi, sets[g], sets[a], image[b]) if keep_parent else (pi, sets[a], image[b]))
    return outs, weights * len(perms)


@pytest.mark.parametrize("n,p,s,keep_parent", [
    (3, F(2, 3), F(1, 2), False), (4, F(5, 14), F(7, 10), False),
    (3, 0.4, 0.7, False)])
def test_correlated_er_joint_matches_per_triple_loop(n, p, s, keep_parent):
    joint = ms.correlated_er_joint_measure(n, p, s)
    one = ms._one_like([p, s])
    outs, weights = _per_triple_joint(n, s, [(one, [((1 << n * (n - 1) // 2) - 1, p)])], keep_parent)
    assert joint.outcomes == outs
    assert joint.weights == weights and list(map(type, joint.weights)) == list(map(type, weights))
    if joint.exact:  # one weight object per weight class
        assert len(set(map(id, joint.weights))) < len(joint) // math.factorial(n)


def test_correlated_sbm_joint_matches_per_triple_loop():
    for lam, eps, s in ((F(1), F(3, 10), F(1, 2)), (1.0, 0.3, 0.5)):
        joint = ms.correlated_sbm_joint_measure(3, 2, lam, eps, s)
        p_in, p_out = ms.sbm_block_probs(3, 2, lam, eps)
        one = ms._one_like([lam, eps, s])
        parents = [(one * count / 2 ** 3, [(intra, p_in), (7 & ~intra, p_out)])
                   for intra, count in ms.label_classes(3, 2).items()]
        outs, weights = _per_triple_joint(3, s, parents, keep_parent=False)
        assert joint.outcomes == outs and joint.weights == weights


def test_checked_total_counts_repeated_weight_objects():
    third, sixth = F(1, 3), F(1, 6)
    assert ms._checked_total([third] * 3) == (1, True)
    weights = [third] * 1000 + [sixth] * 2 + [F(1, 6)] * 2 + [2] * 5
    total, exact = ms._checked_total(weights)
    assert exact and total == F(1000, 3) + F(4, 6) + 10 and type(total) is F
    assert ms._checked_total([1] * 7) == (7, True) and type(ms._checked_total([1] * 7)[0]) is int
    negative = F(-1, 5)
    for bad in ([negative] * 5000 + [F(1, 2)] * 10, [F(1, 2)] * 10 + [negative], [-1] * 3):
        with pytest.raises(ValueError, match="negative weight"):
            ms._checked_total(bad)
    with pytest.raises(ValueError, match="negative weight"):
        ms.DiscreteMeasure(range(6), [negative] * 2 + [F(7, 20)] * 4)  # sums to 1
    assert ms.DiscreteMeasure(range(4), [F(1, 4)] * 4).exact


def test_checked_total_finds_one_negative_object_after_many_repeats():
    weights = [F(1, 2), F(1, 3), 1] * 33_333 + [F(-1, 7)]
    assert len(weights) == 10 ** 5
    with pytest.raises(ValueError, match="negative weight"):
        ms._checked_total(weights)
    total, exact = ms._checked_total([1, F(1, 2), 3, F(1, 2), 1])
    assert exact and total == 6 and type(total) is F
    total, exact = ms._checked_total([F(2, 3)] * 3 + [5] * 2)
    assert exact and total == 12 and type(total) is F


def test_integer_weights_over_the_least_common_denominator():
    half = F(1, 2)
    nums, den = ms.integer_weights([half, 3, F(2, 3), half, F(-1, 4), 0])
    assert (nums, den) == ([6, 36, 8, 6, -3, 0], 12)
    assert ms.integer_weights([half] * 1000) == ([1] * 1000, 2)
    assert ms.integer_weights([2, 5, True]) == ([2, 5, 1], 1)
    nums, den = ms.integer_weights([0.25, F(1, 3)])  # a float through Fraction, exactly
    assert (nums, den) == ([3, 4], 12)
    nums, den = ms.integer_weights([0.1])
    assert F(nums[0], den) == F(0.1) and den == 2 ** 55


def _per_atom_condition(m, predicate):
    """Oracle: the conditioned law with one division per atom."""
    kept = [(x, w) for x, w in m if predicate(x) and w != 0]
    total = sum(w for _, w in kept)
    return [x for x, _ in kept], [w / total for _, w in kept]


def _per_atom_map(m, fn):
    """Oracle: the pushforward with one weight addition per atom; a float
    law's weights are gathered per image and summed once by math.fsum."""
    if not m.exact:
        acc: dict = {}
        for x, w in m:
            acc.setdefault(fn(x), []).append(w)
        return list(acc), list(map(math.fsum, acc.values()))
    acc = {}
    for x, w in m:
        acc[fn(x)] = acc.get(fn(x), 0) + w
    return list(acc), list(acc.values())


def _same_law(measure, outcomes, weights):
    assert measure.outcomes == outcomes
    assert measure.weights == weights
    assert list(map(type, measure.weights)) == list(map(type, weights))


@pytest.mark.parametrize("n,p,s", [(3, F(2, 3), F(1, 2)), (4, F(5, 14), F(7, 10)),
                                   (3, F(1, 3), F(1)), (3, 0.4, 0.7)])  # s = 1: zero weights
def test_condition_and_map_match_per_atom_oracles(n, p, s):
    joint = ms.correlated_er_joint_measure(n, p, s)
    match, pair = (lambda x: x[0][0] == 0), (lambda x: (x[1], x[2]))
    cond = joint.condition(match)
    _same_law(cond, *_per_atom_condition(joint, match))
    _same_law(cond.map(pair), *_per_atom_map(cond, pair))
    _same_law(joint.map(pair), *_per_atom_map(joint, pair))
    if not joint.exact:  # float laws are bit-identical, one fsum per image
        assert [w.hex() for w in joint.map(pair).weights] == \
            [w.hex() for w in _per_atom_map(joint, pair)[1]]
        return
    # atoms shared a weight object before conditioning iff they share one after
    before = [id(w) for x, w in joint if match(x) and w != 0]
    shared = set(zip(before, map(id, cond.weights)))
    assert len(shared) == len(set(before)) == len(set(map(id, cond.weights))) < len(cond)


def test_condition_compares_each_kept_weight_object_with_zero_once(monkeypatch):
    """Conditioning the n=4 joint on pi(1)=1 keeps 24,576 atoms, which share
    a few dozen weight objects: each is compared with 0 once, not each atom."""
    joint = ms.correlated_er_joint_measure(4, F(5, 14), F(7, 10))
    ids = set(map(id, joint.weights))
    zero_tests = []
    eq = F.__eq__
    monkeypatch.setattr(F, "__eq__", lambda a, b: (id(a) in ids and zero_tests.append(a)) or eq(a, b))
    cond = joint.condition(lambda x: x[0][0] == 0)
    assert len(cond) == 24576 and 0 < len(zero_tests) <= len(ids) < 50


def test_weight_types_survive_measure_surgery():
    ints = ms.DiscreteMeasure(["a", "b", "c"], [0, 1, 0])
    image = ints.map(lambda x: x == "b")
    assert image.weights == [0, 1] and list(map(type, image.weights)) == [int, int]
    assert image.exact
    halves = ms.DiscreteMeasure(range(4), [F(1, 4)] * 4).map(lambda x: 0)
    assert halves.weights == [1] and type(halves.weights[0]) is F
    unnormalized = ms.DiscreteMeasure(range(4), [1, 1, 2, 0], normalize=True)  # ints over ints
    assert unnormalized.weights == [0.25, 0.25, 0.5, 0.0] and not unnormalized.exact
    floats = ms.DiscreteMeasure(range(3), [0.1, 0.2, 0.7]).condition(lambda x: x > 0)
    assert floats.weights == [0.2 / (0.2 + 0.7), 0.7 / (0.2 + 0.7)] and not floats.exact
