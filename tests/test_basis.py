import itertools
import math
import random
from fractions import Fraction as F

import pytest

from lowdeg import basis as bs
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md
from lowdeg.exactnum import Rad

import exact_oracles as oracle


def all_edge_sets(n):
    pairs = list(itertools.combinations(range(n), 2))
    for k in range(len(pairs) + 1):
        yield from itertools.combinations(pairs, k)


def test_omega_values():
    assert bs.omega(3, 1, 1) == 2
    assert bs.omega(2, 0, 1) == -1
    for k in (2, 3, 5):
        # uniform label average vanishes
        assert sum(bs.omega(k, 0, b) for b in range(k)) == 0
    with pytest.raises(ValueError):
        bs.omega(2, 0, 2)


def test_h_weight_values_and_normalization():
    # direct evaluation at a reference point
    val = bs.h_weight(2, F(1, 2), F(2), 100, 0, 0)
    want = math.sqrt((1 - 0.03) * 1.5 / (1 - 0.02))
    assert abs(float(val) - want) < 1e-12
    # eps = 0 collapses both label classes to 1
    assert bs.h_weight(2, F(0), F(2), 100, 0, 1) == Rad.of(1)
    # the square equals the moment-normalization ratio p(1-p)/(q0(1-q0))
    k, eps, lam, n = 2, F(2, 5), F(1), 3
    for a, b in ((0, 0), (0, 1)):
        w = bs.omega(k, a, b)
        p = (1 + eps * w) * lam / n
        q0 = lam / n
        h = bs.h_weight(k, eps, lam, n, a, b)
        assert (h * h).as_fraction() == p * (1 - p) / (q0 * (1 - q0))
    with pytest.raises(ValueError):
        bs.h_weight(2, F(9, 10), F(20), 10, 0, 0)


def test_h_decomposition_reproduces_both_classes():
    k, eps, lam, n = 3, F(1, 4), F(3, 2), 12
    a, b = bs.h_decomposition(k, eps, lam, n)
    for x, y in ((0, 0), (0, 1)):
        w = bs.omega(k, x, y)
        assert a + b * w == bs.h_weight(k, eps, lam, n, x, y)


def test_evaluate_basis_values():
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    empty = bs.single_index(gc.empty_graph(3))
    assert bs.evaluate_basis(empty, frozenset(), pr) == Rad.of(1)
    q0 = bs.null_edge_prob(pr)
    edge_idx = bs.single_index(gc.graph(3, [(0, 1)]))
    got = bs.evaluate_basis(edge_idx, frozenset({(0, 1)}), pr)
    assert got == (1 - q0) / Rad.sqrt(q0 * (1 - q0))
    # planted indicator prefactor
    psi = bs.planted_index((0, 0, 0), gc.empty_graph(3))
    assert bs.evaluate_basis(psi, ((0, 0, 0), frozenset()), pr) == Rad.sqrt(F(8))
    assert bs.evaluate_basis(psi, ((0, 0, 1), frozenset()), pr) == Rad.of(0)


def test_pair_basis_orthonormal_exact():
    q = F(1, 3)
    pr = md.ModelParams(n=3, q=q)
    measure = ms.er_pair_measure(3, q)
    idxs = oracle.pair_indices(3, 2)
    table = {}
    for idx in idxs:
        table[idx] = [bs.evaluate_basis(idx, x, pr) for x in measure.outcomes]
    for i, a in enumerate(idxs):
        for b in idxs[i:]:
            acc = Rad.of(0)
            for w, va, vb in zip(measure.weights, table[a], table[b]):
                acc = acc + w * (va * vb)
            assert acc == Rad.of(1 if a == b else 0)


def _edge_subgraphs_per_subset(n, max_edges):
    """The K_n subgraph listing as its own loop over combinations of pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    return [gc.graph(n, subset) for k in range(min(max_edges, len(pairs)) + 1)
            for subset in itertools.combinations(pairs, k)]


def test_edge_subgraphs_match_per_subset_loop():
    for n in range(1, 6):
        for D in range(-1, n * (n - 1) // 2 + 2):
            assert bs.edge_subgraphs(n, D) == _edge_subgraphs_per_subset(n, D)


def _per_edge_oracle(idx, point, params):
    """The per-edge Rad loop evaluate_basis used to run: one multiplication
    and one division by a square-root norm per edge of the index."""
    def sqrt(x, exact):
        return Rad.sqrt(x) if exact else math.sqrt(float(x))

    def exact_of(*vals):
        return all(isinstance(v, (F, int)) for v in vals)

    if idx.kind == "planted":
        sigma_star, edges = point
        k, lam, eps, n = params.k, params.lam, params.eps, params.n
        exact = exact_of(lam, eps)
        if tuple(sigma_star) != tuple(idx.sigma):
            return Rad.of(0) if exact else 0.0
        val = sqrt(F(k) ** n if exact else float(k) ** n, exact)
        for u, v in sorted(idx.s1.edges):
            p = (1 + eps * bs.omega(k, idx.sigma[u], idx.sigma[v])) * lam / n
            val = val * ((1 if (u, v) in edges else 0) - p) / sqrt(p * (1 - p), exact)
        return val
    q = bs.pair_edge_prob(params) if idx.kind == "pair" else bs.null_edge_prob(params)
    exact = exact_of(q)
    norm = sqrt(q * (1 - q), exact)
    val = Rad.of(1) if exact else 1.0
    for g, edges in zip((idx.s1, idx.s2), point if idx.kind == "pair" else (point,)):
        for e in sorted(g.edges):
            val = val * ((1 if e in edges else 0) - q) / norm
    return val


@pytest.mark.parametrize("exact", [True, False])
def test_evaluate_basis_matches_per_edge_loop(exact):
    num = (lambda x: x) if exact else float
    pr = md.ModelParams(n=3, lam=num(F(1)), k=2, eps=num(F(2, 5)), q=num(F(1, 4)))
    graphs = [gc.graph(3, es) for es in all_edge_sets(3)]
    cases = [(bs.single_indices(3, 3), ms.er_graph_measure(3, pr.lam / 3)),
             (oracle.pair_indices(3, 3), ms.er_pair_measure(3, pr.q)),
             ([bs.planted_index(sigma, s) for sigma in itertools.product(range(2), repeat=3)
               for s in graphs], ms.sbm_joint_measure(3, 2, pr.lam, pr.eps))]
    for indices, measure in cases:
        for idx in indices:
            for x in measure.outcomes:
                got, want = bs.evaluate_basis(idx, x, pr), _per_edge_oracle(idx, x, pr)
                if exact:
                    assert isinstance(got, Rad) and got == want, (idx, x)
                else:
                    assert isinstance(got, float) and abs(got - want) <= 1e-12 * abs(want), (idx, x)


def test_basis_values_take_one_root_and_no_inverse(monkeypatch):
    pr = md.ModelParams(n=4, lam=F(1), k=2, eps=F(2, 5), q=F(1, 3))
    tri = [(0, 1), (1, 2), (0, 2)]
    cases = [(bs.single_index(gc.graph(4, tri)), ms.er_graph_measure(4, F(1, 4))),
             (bs.single_index(gc.graph(4, tri)), ms.sbm_graph_measure(4, 2, pr.lam, pr.eps)),
             (bs.pair_index(gc.graph(3, tri), gc.graph(3, [(0, 1)])), ms.er_pair_measure(3, pr.q)),
             (bs.planted_index((0, 1, 0, 0), gc.graph(4, tri)), ms.sbm_joint_measure(4, 2, pr.lam, pr.eps))]
    calls = dict.fromkeys(("mul", "inverse", "sqrt"), 0)
    mul, inverse, sqrt = Rad.__mul__, Rad.inverse, Rad.sqrt

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_sqrt(cls, x):
        calls["sqrt"] += 1
        return sqrt(x)

    monkeypatch.setattr(Rad, "__mul__", counted_mul)
    monkeypatch.setattr(Rad, "__rmul__", counted_mul)
    monkeypatch.setattr(Rad, "inverse", counted_inverse)
    monkeypatch.setattr(Rad, "sqrt", classmethod(counted_sqrt))
    for idx, measure in cases:
        calls.update(dict.fromkeys(calls, 0))
        assert isinstance(bs.exact_expectation(measure, idx, pr), Rad)
        assert calls["inverse"] == 0 and calls["sqrt"] <= 1 and calls["mul"] <= 1, (len(measure), calls)
        for x in measure.outcomes[:16]:
            calls.update(dict.fromkeys(calls, 0))
            bs.evaluate_basis(idx, x, pr)
            assert calls["inverse"] == 0 and calls["sqrt"] <= 1 and calls["mul"] <= 1, calls


def test_exact_expectation_null_kills_nonempty():
    q = F(1, 3)
    pr = md.ModelParams(n=3, q=q, lam=F(1))
    m = ms.er_graph_measure(3, bs.null_edge_prob(pr))
    for es in all_edge_sets(3):
        idx = bs.single_index(gc.graph(3, es))
        want = Rad.of(1 if not es else 0)
        assert bs.exact_expectation(m, idx, pr) == want


def test_cross_moment_closed_form_exhaustive():
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    joint = ms.sbm_joint_measure(3, 2, pr.lam, pr.eps)
    for s_edges in all_edge_sets(3):
        s = gc.graph(3, s_edges)
        for h_edges in all_edge_sets(3):
            h = gc.graph(3, h_edges)
            for sigma in itertools.product(range(2), repeat=3):
                closed = bs.cross_moment_planted(pr, s, sigma, h)
                phi = bs.single_index(s)
                psi = bs.planted_index(sigma, h)
                brute = joint.expectation(
                    lambda x: bs.evaluate_basis(phi, x[1], pr) * bs.evaluate_basis(psi, x, pr))
                assert closed == brute


def test_cross_moment_disjoint_multiplicativity():
    pr = md.ModelParams(n=6, lam=F(1), k=2, eps=F(3, 10))
    s1, h1 = gc.graph(6, [(0, 1), (1, 2), (0, 2)]), gc.graph(6, [(0, 1)])
    s2, h2 = gc.graph(6, [(3, 4), (4, 5)]), gc.empty_graph(6)
    sigma = (0, 1, 0, 1, 1, 0)
    both_s = gc.graph(6, list(s1.edges | s2.edges))
    both_h = gc.graph(6, list(h1.edges | h2.edges))
    lhs = bs.cross_moment_planted(pr, both_s, sigma, both_h)
    k_half = Rad.sqrt(F(1, 2 ** 6))
    rhs = (bs.cross_moment_planted(pr, s1, sigma, h1)
           * bs.cross_moment_planted(pr, s2, sigma, h2)) / k_half
    assert lhs == rhs


def test_cross_moment_zero_when_not_nested():
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    s = gc.graph(3, [(0, 1)])
    h = gc.graph(3, [(1, 2)])
    assert bs.cross_moment_planted(pr, s, (0, 0, 0), h) == Rad.of(0)


def test_parseval_completeness_full_degree():
    # at full degree the squared basis expansion recovers the chi-square mass
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    planted = ms.sbm_graph_measure(3, 2, pr.lam, pr.eps)
    null = ms.er_graph_measure(3, bs.null_edge_prob(pr))
    total = F(0)
    for es in all_edge_sets(3):
        idx = bs.single_index(gc.graph(3, es))
        e = bs.exact_expectation(planted, idx, pr)
        sq = e * e
        total += sq.as_fraction()
    assert total == 1 + planted.chi_square(null)


def test_moment_table_per_class():
    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    planted = ms.sbm_graph_measure(3, 2, pr.lam, pr.eps)
    indices = bs.single_indices(3, 2)
    by_class: dict[str, set] = {}
    for idx in indices:
        by_class.setdefault(gc.canonicalize(idx.s1).hex_form, set()).add(
            bs.exact_expectation(planted, idx, pr))
    # classes at degree <= 2 on three vertices: empty, edge, two-edge path
    assert len(by_class) == 3
    # exchangeability: every index in a class carries the class moment
    assert all(len(moments) == 1 for moments in by_class.values())
    # all same-class indices agree under the exchangeable measure
    edge_moments = {
        bs.exact_expectation(planted, bs.single_index(gc.graph(3, [e])), pr)
        for e in [(0, 1), (0, 2), (1, 2)]
    }
    assert len(edge_moments) == 1


def test_path_expectation_brute_force_grid():
    grid = [F(0), F(1, 5), F(7, 10), F(1)]
    for k in (2, 3, 4):
        for length in (1, 2, 3, 4, 5):
            for a in grid:
                for b in (F(0), F(1, 5), F(2, 5)):
                    for lab0 in range(min(k, 2)):
                        lab_end = (lab0 + 1) % k
                        for labl in (lab0, lab_end):
                            want = _brute_path(k, a, b, length, lab0, labl)
                            got = bs.path_expectation(k, a, b, length, lab0, labl)
                            assert got == want


def _brute_path(k, a, b, length, lab0, labl):
    total = F(0)
    for interior in itertools.product(range(k), repeat=length - 1):
        labels = (lab0,) + interior + (labl,)
        term = F(1)
        for i in range(length):
            term *= a + b * bs.omega(k, labels[i], labels[i + 1])
        total += term
    return total / k ** (length - 1)


def test_path_expectation_b_zero():
    assert bs.path_expectation(3, F(2, 3), F(0), 4, 0, 1) == F(2, 3) ** 4


def test_leaf_cancellation_examples_and_random():
    # single exposed edge
    s = gc.graph(4, [(0, 1)])
    assert bs.leaf_cancellation_check(s, gc.empty_graph(4), 2) == 0
    # three-path with an exposed leaf
    s3 = gc.graph(4, [(0, 1), (1, 2), (2, 3)])
    h3 = gc.graph(4, [(0, 1)])
    assert bs.leaf_cancellation_check(s3, h3, 3) == 0
    rng = random.Random(9)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.45]
        s = gc.graph(n, edges)
        if not edges:
            continue
        h_edges = [e for e in edges if rng.random() < 0.4]
        h = gc.graph(n, h_edges)
        if not (gc.leaves(s) - h.vertices):
            continue
        k = rng.choice([2, 3, 4])
        assert bs.leaf_cancellation_check(s, h, k) == 0
        checked += 1


def test_leaf_cancellation_precondition():
    tri = gc.graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        bs.leaf_cancellation_check(tri, gc.empty_graph(3), 2)


def test_planted_float_cap():
    pr = md.ModelParams(n=25, lam=1.0, k=2, eps=0.1)
    idx = bs.planted_index(tuple([0] * 25), gc.empty_graph(25))
    with pytest.raises(gc.EnumerationBudgetError):
        bs.evaluate_basis(idx, (tuple([0] * 25), frozenset()), pr)


def _budget_fields(call):
    with pytest.raises(gc.EnumerationBudgetError) as info:
        call()
    err = info.value
    return str(err), err.where, err.requested, err.budget


def test_basis_budget_errors_carry_fields():
    pr = md.ModelParams(n=25, lam=1.0, k=2, eps=0.1)
    idx = bs.planted_index(tuple([0] * 25), gc.empty_graph(25))
    assert _budget_fields(lambda: bs.evaluate_basis(idx, (tuple([0] * 25), frozenset()), pr)) == (
        "planted basis vertices in float mode: requested 25, budget 20", "basis._index_factors", 25, 20)

    class HugeSupport:  # only its size is read before the guard
        def __len__(self):
            return (1 << 22) + 1

    assert _budget_fields(lambda: bs.exact_expectation(HugeSupport(), idx, pr)) == (
        "measure atoms: requested 4194305, budget 4194304", "basis.exact_expectation", (1 << 22) + 1, 1 << 22)
    planted = md.ModelParams(n=4, lam=F(1), k=2, eps=F(1, 5), D=1)
    path = gc.graph(4, [(0, 1), (1, 2)])
    assert _budget_fields(lambda: bs.cross_moment_planted(planted, path, (0, 0, 1, 1), gc.empty_graph(4))) == (
        "index degree: requested 2, budget 1", "basis.cross_moment_planted", 2, 1)
    long_path = gc.path_graph(9, 8)
    assert _budget_fields(lambda: bs.leaf_cancellation_check(long_path, gc.graph(9, [(0, 1)]), 2)) == (
        "cancellation check vertices: requested 9, budget 8", "basis.leaf_cancellation_check", 9, 8)
