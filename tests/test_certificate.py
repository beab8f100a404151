import itertools
import math
from fractions import Fraction as F

import pytest

from lowdeg import basis as bs
from lowdeg import certificate as ct
from lowdeg import graph_core as gc
from lowdeg import models as md
from lowdeg.exactnum import Rad


def params6(eps=F(3, 10), lam=F(1)):
    return md.ModelParams(n=6, lam=lam, k=2, eps=eps, delta=F(1, 100))


def brute_label_average(n_verts, k, eps, lam, n, h_edges, omega_edges):
    """Oracle: plain enumeration over all label assignments, no component
    splitting, no shared code with the certificate module."""
    verts = sorted({v for e in (set(h_edges) | set(omega_edges)) for v in e})
    total = Rad.of(0)
    for labels in itertools.product(range(k), repeat=len(verts)):
        assign = dict(zip(verts, labels))
        term = Rad.of(1)
        for u, v in h_edges:
            w = k - 1 if assign[u] == assign[v] else -1
            p_edge = (1 + eps * w) * lam / n
            term = term * Rad.sqrt((1 - p_edge) * (1 + eps * w) / (1 - lam / n))
        for u, v in omega_edges:
            term = term * (k - 1 if assign[u] == assign[v] else -1)
        total = total + term
    return total / F(k) ** len(verts)


def test_p_of_cycle_closed_form():
    pr = params6()
    a, b = bs.h_decomposition(2, pr.eps, pr.lam, pr.n)
    for length in (3, 4):
        cyc = gc.cycle_graph(6, length)
        closed = a ** length + (2 - 1) * b ** length
        assert ct.P_of(cyc, pr) == closed
        assert ct.P_of_path_form(cyc, pr) == closed
    # k = 3 cross-check against the label-enumeration oracle
    pr3 = md.ModelParams(n=9, lam=F(1), k=3, eps=F(1, 5), delta=F(1, 100))
    a3, b3 = bs.h_decomposition(3, pr3.eps, pr3.lam, pr3.n)
    tri = gc.cycle_graph(9, 3)
    assert ct.P_of(tri, pr3) == a3 ** 3 + 2 * b3 ** 3
    assert ct.P_of(tri, pr3) == brute_label_average(3, 3, pr3.eps, pr3.lam, 9, tri.edges, [])


def test_q_of_values():
    pr = params6()
    tri = gc.cycle_graph(6, 3)
    q_val = ct.Q_of(tri, gc.empty_graph(6), pr)
    assert q_val.as_fraction() == 1  # k - 1
    pr3 = md.ModelParams(n=9, lam=F(1), k=3, eps=F(1, 5), delta=F(1, 100))
    tri9 = gc.cycle_graph(9, 3)
    assert ct.Q_of(tri9, gc.empty_graph(9), pr3).as_fraction() == 2
    # oracle agreement on a mixed instance
    s = gc.graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    h = gc.graph(6, [(0, 1), (1, 2), (0, 2)])
    assert ct.Q_of(s, h, pr) == brute_label_average(
        6, 2, pr.eps, pr.lam, 6, h.edges, s.edges - h.edges)
    assert ct.Q_of(s, s, pr) == ct.P_of(s, pr)


def test_p_of_path_form_matches_enumeration_on_classes():
    pr = params6()
    for rep in ct.leafless_classes(6):
        rep6 = gc.graph(max(6, rep.n_vertices), rep.edges)
        assert ct.P_of_path_form(rep6, pr) == ct.P_of(rep6, pr)


def test_xi_base_cases():
    pr = params6()
    assert ct.xi(gc.empty_graph(6), pr) == Rad.of(1)
    assert ct.xi(gc.graph(6, [(0, 1)]), pr) == Rad.of(0)
    assert ct.xi(gc.graph(6, [(0, 1), (1, 2)]), pr) == Rad.of(0)


def test_xi_triangle_closed_form():
    pr = params6()
    a, b = bs.h_decomposition(2, pr.eps, pr.lam, pr.n)
    t = ct.transfer_weight(pr, ct.FIRST_ORDER_KERNEL)
    tri = gc.cycle_graph(6, 3)
    closed = -(2 - 1) * t ** 3 / (a ** 3 + (2 - 1) * b ** 3)
    got = ct.xi(tri, pr)
    assert got == closed
    assert abs(float(got) - float(closed)) < 1e-12
    # independent unrolling oracle: only the empty graph feeds the recursion
    p_brute = brute_label_average(3, 2, pr.eps, pr.lam, 6, tri.edges, [])
    q_brute = brute_label_average(3, 2, pr.eps, pr.lam, 6, [], tri.edges)
    assert got == -(t ** 3) * q_brute / p_brute


def test_xi_multiplicative_over_disjoint_unions():
    pr = md.ModelParams(n=12, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    table = ct.XiTable(pr)
    tri_a = gc.graph(12, [(0, 1), (1, 2), (0, 2)])
    tri_b = gc.graph(12, [(3, 4), (4, 5), (3, 5)])
    both = gc.graph(12, list(tri_a.edges | tri_b.edges))
    assert ct.xi(both, pr, table) == ct.xi(tri_a, pr, table) * ct.xi(tri_b, pr, table)
    # every vertex-disjoint class pair within the degree budget
    reps = ct.leafless_classes(6)
    for r1 in reps:
        for r2 in reps:
            if len(r1.edges) + len(r2.edges) > 6:
                continue
            shift = max(r1.vertices) + 1 if r1.vertices else 0
            moved = [(u + shift, v + shift) for u, v in r2.edges]
            union = gc.graph(12, list(r1.edges) + moved)
            assert ct.xi(union, pr, table) == ct.xi(r1, pr, table) * ct.xi(r2, pr, table)


def test_xi_vanishes_without_signal():
    pr = params6(eps=F(0))
    for rep in ct.leafless_classes(6):
        val = ct.xi(gc.graph(12 if rep.n_vertices <= 12 else rep.n_vertices, rep.edges),
                    pr.with_(n=12))
        if rep.edges:
            assert val == Rad.of(0)


def test_leafless_classes_census():
    reps = ct.leafless_classes(6)
    by_shape = sorted((len(r.vertices), len(r.edges)) for r in reps)
    # 3..6-cycles, diamond, K4, bowtie, complete bipartite 2x3, house, two triangles
    assert by_shape == [(3, 3), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (5, 6), (5, 6), (6, 6), (6, 6)]
    assert ct.leafless_classes(2) == []


def test_dual_norms():
    pr = params6()
    assert ct.build_dual(pr, 2).norm == 1.0
    dual3 = ct.build_dual(pr, 3)
    tri = gc.cycle_graph(6, 3)
    xi_tri = ct.xi(tri, pr)
    want = 1 + 20 * (xi_tri * xi_tri).as_fraction()  # 20 labeled triangles in K6
    assert dual3.norm_squared == want
    assert ct.build_dual(params6(eps=F(0)), 3).norm == 1.0
    # coefficient lookup matches the recursion
    assert dual3.coefficient(tri) == xi_tri


def test_linear_system_exactly_zero():
    pr = md.ModelParams(n=4, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    residual, rows = ct.verify_linear_system(pr, 3)
    assert rows == 42
    assert isinstance(residual, F) and residual == 0
    residual2, _ = ct.verify_linear_system(pr, 3, kernel=ct.EXACT_KERNEL)
    assert residual2 == 0


def test_row_residual_leafy_rows_vanish_by_cancellation():
    pr = params6()
    table = ct.XiTable(pr)
    for edges in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (2, 3)]):
        r = ct.row_residual(gc.graph(6, edges), pr, table)
        assert r.is_zero()
    # the empty row hits its target instead
    assert ct.row_residual(gc.empty_graph(6), pr, table).is_zero()


def test_reversed_advantage_trivial_cases():
    pr = md.ModelParams(n=4, lam=F(1), k=2, eps=F(0), delta=F(1, 100))
    rep = ct.reversed_advantage_exact(pr, 3)
    assert abs(rep.value - 1.0) < 1e-12
    rep0 = ct.reversed_advantage_exact(
        md.ModelParams(n=4, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100)), 0)
    assert rep0.value == 1.0


def test_reversed_advantage_against_float_oracle():
    # float Rayleigh through the generic feature machinery as a second route
    import numpy as np
    from lowdeg import measures as ms

    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    joint = ms.sbm_joint_measure(3, 2, pr.lam, pr.eps)
    planted = joint.map(lambda x: x[1])
    null = ms.er_graph_measure(3, bs.null_edge_prob(pr))
    # swap roles: sup E_null[f] / sqrt(E_planted[f^2]) via Gram under planted
    feats = [(0, lambda x: 1.0)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for r in (1, 2, 3):
        for combo in itertools.combinations(pairs, r):
            feats.append((r, lambda x, c=combo: float(all(e in x for e in c))))
    fq = np.array([[fn(x) for x in planted.outcomes] for _, fn in feats])
    wq = np.array([float(w) for w in planted.weights])
    fp = np.array([[fn(x) for x in null.outcomes] for _, fn in feats])
    wp = np.array([float(w) for w in null.weights])
    gram = (fq * wq) @ fq.T
    c = fp @ wp
    sol = np.linalg.solve(gram, c)
    oracle = math.sqrt(float(c @ sol))
    got = ct.reversed_advantage_exact(pr, 3)
    assert abs(got.value - oracle) < 1e-9


def _brute_reversed_value_sq(pr, D):
    """(G^-1)_00 for the orthonormal null basis Gram matrix under the planted
    joint, by summing over its atoms and eliminating in Fractions."""
    from lowdeg import measures as ms

    joint = ms.sbm_joint_measure(pr.n, pr.k, pr.lam, pr.eps)
    q0 = pr.lam / pr.n
    pairs = list(itertools.combinations(range(pr.n), 2))
    sets = [c for r in range(D + 1) for c in itertools.combinations(pairs, r)]
    cols = []
    for es in sets:
        col = []
        for _sigma, edges in joint.outcomes:
            val = F(1)
            for e in es:
                val *= ((e in edges) - q0)
            col.append(val)
        cols.append(col)
    # (G^-1)_00 is the same for the raw and the orthonormal basis: the
    # degree-0 direction has scale 1
    gram = [[sum(w * a * b for w, a, b in zip(joint.weights, ci, cj)) for cj in cols] for ci in cols]
    dim = len(sets)
    aug = [row + [F(int(i == 0))] for i, row in enumerate(gram)]
    for c in range(dim):
        piv = next(r for r in range(c, dim) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(dim):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return aug[0][dim]


def test_reversed_advantage_against_brute_force_gram():
    pr3 = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    pr4 = md.ModelParams(n=4, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    for pr, D in [(pr3, 1), (pr3, 2), (pr3, 3), (pr4, 2)]:
        got = ct.reversed_advantage_exact(pr, D).value_squared
        assert type(got) is F and got == _brute_reversed_value_sq(pr, D)


def test_reversed_advantage_budget_error_is_structured():
    pr = md.ModelParams(n=5, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    with pytest.raises(gc.EnumerationBudgetError) as info:
        ct.reversed_advantage_exact(pr, 2)
    assert (info.value.requested, info.value.budget) == (5, 4)
    assert info.value.where.startswith("reversed_advantage_exact")


def test_duality_gap_fixture_grid():
    for eps in (F(0), F(1, 5), F(2, 5)):
        pr = md.ModelParams(n=4, lam=F(1, 2), k=2, eps=eps, delta=F(1, 100))
        exact, dual_norm = ct.duality_gap(pr, 2)
        assert exact <= dual_norm + 1e-9
        assert exact >= 1.0 - 1e-12


def test_magnitude_bound_audits():
    pr = params6(eps=F(1, 10), lam=F(1, 2))  # small signal: bound regime applies
    assert ct.lambda0_condition_ok(pr)
    tri = gc.cycle_graph(6, 3)
    lhs, rhs = ct.xi_cycle_union_bound(tri, pr)
    assert lhs <= rhs
    pr12 = pr.with_(n=12)
    two_tri = gc.graph(12, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    lhs2, rhs2 = ct.xi_cycle_union_bound(two_tri, pr12)
    assert lhs2 <= rhs2
    # every positive-excess leafless class within budget
    for rep in ct.leafless_classes(6):
        if gc.excess(rep) > 0:
            lhs3, rhs3 = ct.xi_excess_bound(gc.graph(12, rep.edges), pr12, 6)
            assert lhs3 <= rhs3
    with pytest.raises(ValueError):
        ct.xi_cycle_union_bound(gc.graph(6, [(0, 1)]), pr)


def test_parseval_direction_exact():
    # the planted second moment of a polynomial equals the sum of squared
    # projections on the full planted basis, exactly; truncating the column
    # set only drops squares, giving the one-sided matrix bound
    import random
    from lowdeg import measures as ms

    pr = md.ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    joint = ms.sbm_joint_measure(3, 2, pr.lam, pr.eps)
    indices = bs.single_indices(3, 3)
    rng = random.Random(13)
    for _ in range(5):
        coeffs = {idx: F(rng.randint(-3, 3), rng.randint(1, 4)) for idx in indices}

        def f_value(atom):
            total = Rad.of(0)
            for idx, c in coeffs.items():
                total = total + c * bs.evaluate_basis(idx, atom[1], pr)
            return total

        second_moment = joint.expectation(lambda x: f_value(x) * f_value(x))
        projection_sq = Rad.of(0)
        truncated_sq = Rad.of(0)
        for sigma in itertools.product(range(2), repeat=3):
            for h in bs.edge_subgraphs(3, 3):
                proj = Rad.of(0)
                for idx, c in coeffs.items():
                    proj = proj + c * bs.cross_moment_planted(pr, idx.s1, sigma, h)
                projection_sq = projection_sq + proj * proj
                if len(h.edges) <= 2:
                    truncated_sq = truncated_sq + proj * proj
        assert (second_moment - projection_sq).is_zero()
        assert float(truncated_sq) <= float(second_moment) + 1e-12


def test_norm_trend_is_bounded_in_n():
    eps, lam = F(1, 5), F(1)
    norms = []
    for n in (6, 8, 10, 12):
        pr = md.ModelParams(n=n, lam=lam, k=2, eps=eps, delta=F(1, 100))
        norms.append(ct.build_dual(pr, 3).norm)
    # the copy count grows like n^3 while each squared value decays like
    # n^-3, so the norm approaches a constant: non-exploding is the claim
    assert all(v <= norms[0] * 1.5 for v in norms)


def test_label_averages_match_enumeration_on_small_rows():
    # every S with at most 4 edges on 5 vertices and every leafless H in S,
    # for k = 2 and k = 3; float mode within 1e-12 of the exact value
    for k, eps in ((2, F(3, 10)), (3, F(1, 5))):
        pr = md.ModelParams(n=5, lam=F(1), k=k, eps=eps, delta=F(1, 100))
        prf = md.ModelParams(n=5, lam=1.0, k=k, eps=float(eps), delta=F(1, 100))
        checked = 0
        for s in bs.edge_subgraphs(5, 4):
            edges = sorted(s.edges)
            for r in range(len(edges) + 1):
                for h_edges in itertools.combinations(edges, r):
                    h = gc.graph(5, h_edges)
                    if gc.leaves(h):
                        continue
                    got = ct.Q_of(s, h, pr)
                    assert got == brute_label_average(5, k, pr.eps, pr.lam, 5, h.edges,
                                                      s.edges - h.edges)
                    assert abs(ct.Q_of(s, h, prf) - float(got)) <= 1e-12
                    checked += 1
            if not gc.leaves(s):
                p_val = ct.P_of(s, pr)
                assert p_val == brute_label_average(5, k, pr.eps, pr.lam, 5, s.edges, [])
                assert abs(ct.P_of(s, prf) - float(p_val)) <= 1e-12
        assert checked > len(bs.edge_subgraphs(5, 4))  # the cycles add rows beyond H = empty


def test_linear_system_exactly_zero_k3():
    pr = md.ModelParams(n=5, lam=F(1), k=3, eps=F(1, 5), delta=F(1, 100))
    prf = md.ModelParams(n=5, lam=1.0, k=3, eps=0.2, delta=F(1, 100))
    for kernel in (ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL):
        residual, rows = ct.verify_linear_system(pr, 3, kernel=kernel)
        assert rows == 176
        assert type(residual) is F and residual == 0
        worst, rows_f = ct.verify_linear_system(prf, 3, kernel=kernel)
        assert rows_f == 176 and worst <= 1e-12


def test_certificate_budget_errors_are_structured():
    pr12 = md.ModelParams(n=12, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    pr4 = md.ModelParams(n=4, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    cases = [
        (lambda: ct.P_of(gc.cycle_graph(12, 11), pr12), "certificate.label_average", 11, 10,
         "label enumeration beyond 10 vertices per component"),
        (lambda: ct.xi(gc.cycle_graph(12, 7), pr12), "certificate.xi", 7, 6,
         "recursion edge budget is 6"),
        (lambda: ct.leafless_classes(7), "certificate.leafless_classes", 7, 6,
         "class enumeration budget is 6 edges"),
        (lambda: ct.verify_linear_system(pr4, 2, n_rows_cap=10),
         "certificate.verify_linear_system", 22, 10, "row enumeration exceeds the cap"),
    ]
    for call, where, requested, budget, message in cases:
        with pytest.raises(gc.EnumerationBudgetError) as info:
            call()
        err = info.value
        assert (err.where, err.requested, err.budget, str(err)) == (where, requested, budget, message)
