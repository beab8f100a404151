import itertools
import math
from fractions import Fraction as F

import pytest

from lowdeg import basis as bs
from lowdeg import certificate as ct
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md
from lowdeg.advantage import small_masks
from lowdeg.exactnum import Rad

from exact_oracles import solve_exact


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


def _leafless_classes_per_subset(max_edges):
    """The class enumeration as one LabeledGraph per edge subset of K_m."""
    if max_edges < 3:
        return []
    m = max_edges
    pairs = list(itertools.combinations(range(m), 2))
    seen = {}
    for k in range(3, max_edges + 1):
        for subset in itertools.combinations(pairs, k):
            g = gc.graph(m, subset)
            if gc.leaves(g) or gc.isolated_vertices(g):
                continue
            key = gc.canonicalize(g).hex_form
            seen.setdefault(key, g)
    return list(seen.values())


def test_leafless_classes_match_per_subset_loop():
    # same representatives in the same order: float norms sum in entry order
    for m in range(7):
        assert ct.leafless_classes(m) == _leafless_classes_per_subset(m)


def test_leafless_classes_come_from_the_leafless_masks(monkeypatch):
    want = {m: _leafless_classes_per_subset(m) for m in range(7)}

    def refuse(*args):
        raise AssertionError("leafless_classes closes the leafless masks only")

    monkeypatch.setattr(gc, "canonicalize", refuse)
    monkeypatch.setattr(ct, "edge_orbits", refuse)
    ct._leafless_reps.cache_clear()
    for m in range(7):
        assert ct.leafless_classes(m) == want[m]


def _filtered_leafless_masks(edges, max_size):
    """The small_masks(len(edges), max_size) in which no vertex has degree one:
    the body _leafless_masks had before it grew the subsets vertex by vertex."""
    inc = {}
    for i, (u, v) in enumerate(edges):
        inc[u] = inc.get(u, 0) | 1 << i
        inc[v] = inc.get(v, 0) | 1 << i
    return [mask for mask in small_masks(len(edges), max_size)
            if all((mask & m).bit_count() != 1 for m in inc.values())]


def test_leafless_masks_match_the_small_masks_filter():
    # same masks in the same order: _row_sum adds its terms in this order
    for m in range(8):
        edges = list(ms.edge_bits(m))
        assert ct._leafless_masks(edges, m) == _filtered_leafless_masks(edges, m), m
    for rep in ct.leafless_classes(6):
        edges = sorted(rep.edges)
        for size in range(len(edges) + 1):
            assert ct._leafless_masks(edges, size) == _filtered_leafless_masks(edges, size), (edges, size)


def test_leafless_classes_count_every_leafless_mask_of_the_complete_graph():
    # each class has perm(m, |V|) / |Aut| labeled copies in K_m, one per nonempty leafless mask
    for m, want in ((3, 1), (4, 7), (5, 67), (6, 822)):
        copies = sum(math.perm(m, len(g.vertices)) // gc.automorphism_count(g) for g in ct.leafless_classes(m))
        assert copies == len(ct._leafless_masks(list(ms.edge_bits(m)), m)) - 1 == want, m


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


def test_reversed_advantage_equals_gram_schmidt_with_the_roles_swapped():
    """The reversed advantage is the advantage of the null over the planted
    graph law: Gram-Schmidt on the enumerated measures, with the null edge
    monomials orthogonalized under the planted law.  Forests are independent
    edges of marginal q0 under the planted law, so D < 3 gives 1."""
    from lowdeg import advantage as adv

    for k in (2, 3):
        pr = md.ModelParams(n=4, lam=F(1), k=k, eps=F(2, 5), delta=F(1, 100))
        null = ms.er_graph_measure(4, bs.null_edge_prob(pr))
        planted = ms.sbm_graph_measure(4, k, pr.lam, pr.eps)
        for D in (1, 2, 3):
            want = adv.advantage_gram_schmidt(null, planted, D=D).value_squared
            assert type(want) is F and (want > 1) == (D == 3), (k, D)
            assert ct.reversed_advantage_exact(pr, D).value_squared == want, (k, D)


def _reversed_tables(pr):
    """The planted and null moment tables reversed_advantage_exact reads."""
    n, k, q0 = pr.n, pr.k, bs.null_edge_prob(pr)
    planted = ct._edge_moment_table(n, ms.label_classes(n, k), *ms.sbm_block_probs(n, k, pr.lam, pr.eps))
    return planted, ct._edge_moment_table(n, {0: 1}, q0, q0)


def test_edge_moment_tables_are_superset_sums_of_the_enumerated_laws():
    """Each closed-form table against advantage.moment_table over the
    enumerated graph law, both integers over a denominator: nums[T] / den is
    the chance that every edge of the mask T is present, read by lookup on
    every mask (a mask the sparse table does not hold reads 0)."""
    from lowdeg import advantage as adv

    for n, k, eps in itertools.product((2, 3, 4), (2, 3), (F(0), F(2, 5))):
        pr = md.ModelParams(n=n, lam=F(1), k=k, eps=eps)
        bit = ms.edge_bits(n)
        laws = (ms.sbm_graph_measure(n, k, pr.lam, eps), ms.er_graph_measure(n, bs.null_edge_prob(pr)))
        for law, (nums, den) in zip(laws, _reversed_tables(pr)):
            sums, law_den = adv.moment_table(law.outcomes, law.weights, [(0, e) for e in bit], False)
            assert len(nums) == 1 << len(bit)
            assert all(nums[t] * law_den == sums[t] * den for t in range(1 << len(bit))), (n, k, eps)


def test_orbit_gram_sums_the_monomial_gram_over_orbit_blocks():
    """On the reversed advantage's tables at n=4, D=3, the orbit kernel's
    G_AB is the sum of M_planted(S | T) over S in A and T in B, and c_A the
    sum of M_null(S) over S in A; the seven orbits have five sizes."""
    from lowdeg import advantage as adv

    orbits = ct.edge_orbits(4, 3)
    assert sorted({len(o) for o in orbits.values()}) == [1, 3, 4, 6, 12]
    for k, eps in ((2, F(2, 5)), (3, F(1, 5))):
        (mq, den_q), (mp, den_p) = tables = _reversed_tables(
            md.ModelParams(n=4, lam=F(1), k=k, eps=eps))
        gram, means = adv.orbit_gram(*tables, orbits)
        blocks = list(orbits.values())
        assert gram == [[F(sum(mq[s | t] for s in a for t in b), den_q) for b in blocks] for a in blocks]
        assert means == [F(sum(mp[s] for s in a), den_p) for a in blocks]


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


def _full_gram_value_sq(params, D):
    """(G^-1)_00 from the full Gram system over every edge subset with at
    most D edges: the body reversed_advantage_exact had before it solved
    the orbit quotient."""
    from lowdeg import measures as ms

    n, k = params.n, params.k
    p_in, p_out = ms.sbm_block_probs(n, k, params.lam, params.eps)
    q0 = bs.null_edge_prob(params)
    sq_in, sq_out = [p * (1 - q0) ** 2 + (1 - p) * q0 ** 2 for p in (p_in, p_out)]
    d_in, d_out = p_in - q0, p_out - q0
    classes = ms.label_classes(n, k)
    bit = {e: 1 << i for i, e in enumerate(itertools.combinations(range(n), 2))}
    indices = bs.single_indices(n, D)
    masks = [sum(bit[e] for e in idx.s1.edges) for idx in indices]

    # powers 0..C(n,2) of each factor, indexed by bit count
    pw_sq_in, pw_sq_out, pw_d_in, pw_d_out = (
        [x ** i for i in range(len(bit) + 1)] for x in (sq_in, sq_out, d_in, d_out))

    def raw_entry(both: int, once: int) -> F:
        total = F(0)
        for intra, count in classes.items():
            total += (count * pw_sq_in[(both & intra).bit_count()]
                      * pw_sq_out[(both & ~intra).bit_count()]
                      * pw_d_in[(once & intra).bit_count()]
                      * pw_d_out[(once & ~intra).bit_count()])
        return total / k ** n

    dim = len(indices)
    gram = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            gram[i][j] = gram[j][i] = raw_entry(masks[i] & masks[j], masks[i] ^ masks[j])
    rhs = [F(1 if idx.degree == 0 else 0) for idx in indices]
    sol = solve_exact(gram, rhs)
    return next(x for idx, x in zip(indices, sol) if idx.degree == 0)


def test_reversed_advantage_orbit_quotient_matches_full_gram():
    for D, eps, k, lam in itertools.product((1, 2, 3), (F(0), F(1, 5), F(1, 3), F(2, 5)),
                                            (2, 3), (F(1, 2), F(1), F(3, 2))):
        pr = md.ModelParams(n=4, lam=lam, k=k, eps=eps, delta=F(1, 100))
        got = ct.reversed_advantage_exact(pr, D).value_squared
        assert type(got) is F and got == _full_gram_value_sq(pr, D), (D, eps, k, lam)
    null = md.ModelParams(n=4, lam=F(1), k=2, eps=F(0), delta=F(1, 100))
    assert ct.reversed_advantage_exact(null, 3).value_squared == 1


def _bit_loop_edge_orbits(n, max_edges):
    """The S_n-orbits of edge bitmasks by closure under (0 1) and (0 1 ... n-1),
    each mask mapped one set bit at a time: the body edge_orbits had before
    it mapped masks by byte tables."""
    bit = {e: 1 << i for i, e in enumerate(itertools.combinations(range(n), 2))}
    gens = [[bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in bit]
            for p in ([1, 0, *range(2, n)], [*range(1, n), 0])]
    orbits, placed = {}, set()
    for size in range(max_edges + 1):
        for mask in map(sum, itertools.combinations(bit.values(), size)):
            if mask in placed:
                continue
            orbit, frontier = {mask}, [mask]
            while frontier:
                src = frontier.pop()
                for gen in gens:
                    img, rest = 0, src
                    while rest:
                        low = rest & -rest
                        img |= gen[low.bit_length() - 1]
                        rest ^= low
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            orbits[mask] = orbit
            placed |= orbit
    return orbits


def test_edge_orbits_match_the_bit_loop_closure():
    """Same representatives in the same order, and the same orbits; at n=7
    and n=8 the masks span three and four bytes."""
    cases = [(n, m) for n in range(2, 7) for m in range(7)] + [(n, m) for n in (7, 8) for m in range(4)]
    for n, m in cases:
        assert list(ct.edge_orbits(n, m).items()) == list(_bit_loop_edge_orbits(n, m).items()), (n, m)


def test_edge_orbits_are_one_shared_read_only_value():
    orbits = ct.edge_orbits(4, 3)
    assert ct.edge_orbits(4, 3) is orbits
    with pytest.raises(TypeError):
        orbits[0] = frozenset()
    assert all(type(orbit) is frozenset for orbit in orbits.values())
    pr = md.ModelParams(n=4, lam=F(1), k=2, eps=F(1, 5), delta=F(1, 100))
    ct.build_dual(pr, 3)  # closes the leafless masks of K_3, not edge_orbits(3, 3)
    ct.verify_linear_system(pr, 3)
    ct.reversed_advantage_exact(pr, 3)
    for n, m in ((4, 3), (3, 3)):
        assert list(ct.edge_orbits(n, m).items()) == list(_bit_loop_edge_orbits(n, m).items())
    assert ct.leafless_classes(2) == []
    assert ct.leafless_classes(3) is not ct.leafless_classes(3)


def _per_class_value_sq(params, D):
    """(G^-1)_00 on the orbit quotient with each raw Gram entry a sum of
    Fraction powers over the label classes: the body reversed_advantage_exact
    had before it summed in integers, on the bit-loop orbits."""
    n, k = params.n, params.k
    p_in, p_out = ms.sbm_block_probs(n, k, params.lam, params.eps)
    q0 = bs.null_edge_prob(params)
    sq_in, sq_out = [p * (1 - q0) ** 2 + (1 - p) * q0 ** 2 for p in (p_in, p_out)]
    d_in, d_out = p_in - q0, p_out - q0
    classes = ms.label_classes(n, k)

    def raw_entry(both, once):
        total = F(0)
        for intra, count in classes.items():
            total += (count * sq_in ** (both & intra).bit_count()
                      * sq_out ** (both & ~intra).bit_count()
                      * d_in ** (once & intra).bit_count()
                      * d_out ** (once & ~intra).bit_count())
        return total / k ** n

    orbits = _bit_loop_edge_orbits(n, D)
    quotient = [[sum(raw_entry(a & b, a ^ b) for b in orbit) for orbit in orbits.values()]
                for a in orbits]
    return solve_exact(quotient, [F(int(a == 0)) for a in orbits])[0]


def test_reversed_advantage_integer_sums_match_per_class_fractions():
    """The grid n in {2,3,4}, D in 0..3, four eps, k in {2,3,4}, three
    lambda: 432 points, of which the 36 with p_in > 1 are not a model."""
    checked = 0
    for n, D, eps, k, lam in itertools.product((2, 3, 4), range(4), (F(0), F(1, 5), F(1, 3), F(2, 5)),
                                               (2, 3, 4), (F(1, 2), F(1), F(3, 2))):
        if (1 + (k - 1) * eps) * lam > n:
            continue
        pr = md.ModelParams(n=n, lam=lam, k=k, eps=eps, delta=F(1, 100))
        got = ct.reversed_advantage_exact(pr, D).value_squared
        assert type(got) is F and got == _per_class_value_sq(pr, D), (n, D, eps, k, lam)
        checked += 1
    assert checked == 396


def test_duality_sandwich_three_communities():
    pr = md.ModelParams(n=4, lam=F(1), k=3, eps=F(2, 5), delta=F(1, 100))
    exact, dual_norm = ct.duality_gap(pr, 3)
    assert 1 < exact <= dual_norm
    assert abs(exact - 1.0011560) < 1e-7 and abs(dual_norm - 1.0018301) < 1e-7


def test_reversed_advantage_budget_error_is_structured():
    pr = md.ModelParams(n=5, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    with pytest.raises(gc.EnumerationBudgetError) as info:
        ct.reversed_advantage_exact(pr, 2)
    err = info.value
    assert (err.where, err.requested, err.budget, str(err)) == (
        "certificate.reversed_advantage_exact", 5, 4, "exact reversed advantage n: requested 5, budget 4")


def test_duality_gap_fixture_grid():
    for eps in (F(0), F(1, 5), F(2, 5)):
        pr = md.ModelParams(n=4, lam=F(1, 2), k=2, eps=eps, delta=F(1, 100))
        exact, dual_norm = ct.duality_gap(pr, 2)
        assert exact <= dual_norm + 1e-9
        assert exact >= 1.0 - 1e-12


def test_duality_sandwich_is_decided_in_rationals(monkeypatch):
    """With both squares rational the comparison is exact: equality holds at
    eps=0, and a dual short of the advantage by 1e-30 (far inside the float
    tolerance) is refused."""
    null = md.ModelParams(n=4, lam=F(1), k=2, eps=F(0), delta=F(1, 100))
    value_sq = ct.reversed_advantage_exact(null, 3).value_squared
    norm_sq = ct.build_dual(null, 3, kernel=ct.EXACT_KERNEL).norm_squared
    assert type(value_sq) is F and type(norm_sq) is F and value_sq == norm_sq
    assert ct.duality_gap(null, 3) == (1.0, 1.0)

    pr = md.ModelParams(n=4, lam=F(1), k=2, eps=F(1, 5), delta=F(1, 100))
    short = ct.reversed_advantage_exact(pr, 3).value_squared - F(1, 10 ** 30)

    class ShortDual:
        norm_squared = short
        norm = math.sqrt(float(short))

    monkeypatch.setattr(ct, "build_dual", lambda params, D, kernel: ShortDual())
    with pytest.raises(AssertionError, match="duality violated"):
        ct.duality_gap(pr, 3)


def test_duality_sandwich_is_decided_exactly_at_three_communities(monkeypatch):
    """At k=3 the squared dual norm is irrational, and the sandwich is still
    decided exactly: a dual short of the advantage by sqrt(91) 1e-30, far
    below float resolution, is refused, and one over it by as much passes."""
    pr = md.ModelParams(n=4, lam=F(1), k=3, eps=F(2, 5), delta=F(1, 100))
    value_sq = ct.reversed_advantage_exact(pr, 3).value_squared
    norm_sq = ct.build_dual(pr, 3, kernel=ct.EXACT_KERNEL).norm_squared
    assert type(value_sq) is F and isinstance(norm_sq, Rad) and not norm_sq.is_rational()
    assert (norm_sq - value_sq).sign() == 1
    exact, dual_norm = ct.duality_gap(pr, 3)
    assert exact == math.sqrt(float(value_sq)) and dual_norm == math.sqrt(float(norm_sq))

    hair = Rad({91: F(1, 10 ** 30)})
    for stub_sq, holds in ((value_sq - hair, False), (value_sq + hair, True)):
        class StubDual:
            norm_squared = stub_sq
            norm = math.sqrt(float(stub_sq))

        monkeypatch.setattr(ct, "build_dual", lambda params, D, kernel: StubDual())
        if holds:
            assert ct.duality_gap(pr, 3) == (exact, StubDual.norm)
        else:
            with pytest.raises(AssertionError, match="duality violated"):
                ct.duality_gap(pr, 3)


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


def test_label_averages_match_enumeration_when_k_covers_the_vertices():
    # k = 6 >= |V|: every set partition of the vertices is a label class
    pr = md.ModelParams(n=12, lam=F(1), k=6, eps=F(1, 10), delta=F(1, 100))
    tri, c4 = [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    diamond = tri + [(1, 3), (2, 3)]
    # each S with H empty, a triangle, or S itself
    for name, edges, hs in (("C3", tri, ([], tri)), ("C4", c4, ([], c4)),
                            ("diamond", diamond, ([], tri, diamond))):
        s = gc.graph(12, edges)
        for h_edges in hs:
            got = ct.Q_of(s, gc.graph(12, h_edges), pr)
            want = brute_label_average(len(s.vertices), 6, pr.eps, pr.lam, 12, h_edges,
                                       s.edges - set(h_edges))
            assert got == want, (name, h_edges)
        assert ct.P_of(s, pr) == ct.Q_of(s, s, pr)


def test_xi_cycle_closed_form_at_many_communities():
    # 24 communities: the label classes of C6 stand for 24^5 labelings
    k = 24
    pr = md.ModelParams(n=40, lam=F(1), k=k, eps=F(1, 100), delta=F(1, 100))
    a, b = bs.h_decomposition(k, pr.eps, pr.lam, pr.n)
    t = ct.transfer_weight(pr, ct.FIRST_ORDER_KERNEL)
    assert ct.xi(gc.cycle_graph(40, 6), pr) == -(k - 1) * t ** 6 / (a ** 6 + (k - 1) * b ** 6)


def test_p_of_long_cycle_matches_path_form():
    pr = md.ModelParams(n=40, lam=F(1), k=7, eps=F(1, 100), delta=F(1, 100))
    c9 = gc.cycle_graph(40, 9)
    assert ct.P_of(c9, pr) == ct.P_of_path_form(c9, pr)


def test_linear_system_exactly_zero_k3():
    pr = md.ModelParams(n=5, lam=F(1), k=3, eps=F(1, 5), delta=F(1, 100))
    prf = md.ModelParams(n=5, lam=1.0, k=3, eps=0.2, delta=F(1, 100))
    for kernel in (ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL):
        residual, rows = ct.verify_linear_system(pr, 3, kernel=kernel)
        assert rows == 176
        assert type(residual) is F and residual == 0
        worst, rows_f = ct.verify_linear_system(prf, 3, kernel=kernel)
        assert rows_f == 176 and worst <= 1e-12


def test_certificate_budget_errors_are_structured(monkeypatch):
    pr12 = md.ModelParams(n=12, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    pr4 = md.ModelParams(n=4, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    cases = [
        (lambda: ct.P_of(gc.cycle_graph(12, 11), pr12), "certificate._label_product_expectation", 11, 10,
         "label component vertices: requested 11, budget 10"),
        (lambda: ct.xi(gc.cycle_graph(12, 7), pr12), "certificate._row_sum", 7, 6,
         "recursion edges: requested 7, budget 6"),
        (lambda: ct.leafless_classes(7), "certificate.leafless_classes", 7, 6,
         "leafless class edges: requested 7, budget 6"),
        (lambda: ct.build_dual(params6(), 7), "certificate.leafless_classes", 7, 6,
         "leafless class edges: requested 7, budget 6"),
        (lambda: ct.verify_linear_system(pr4, 2),
         "certificate.verify_linear_system", 22, 10, "linear-system rows: requested 22, budget 10"),
    ]
    monkeypatch.setattr(ct, "LINEAR_SYSTEM_ROW_BUDGET", 10)  # read by verify_linear_system alone
    for call, where, requested, budget, message in cases:
        with pytest.raises(gc.EnumerationBudgetError) as info:
            call()
        err = info.value
        assert (err.where, err.requested, err.budget, str(err)) == (where, requested, budget, message)
    # K4 has 6 edges, so no class past the budget has a labeled copy
    assert ct.build_dual(pr4, 7).entries == ct.build_dual(pr4, 6).entries


def _xi_per_subset_loop(s, params, table):
    """The recursion written out on its own: leafless proper edge subsets
    of s by size in combinations order, each term t^|S\\H| xi(H) Q(H, S)
    accumulated in place, memoized in table.values."""
    core = gc.graph(s.n_vertices, s.edges)
    if not core.edges:
        return Rad.of(1) if table.exact else 1.0
    if gc.leaves(core):
        return Rad.of(0) if table.exact else 0.0
    key = gc.canonicalize(core).hex_form
    if key not in table.values:
        edges = sorted(core.edges)
        total = Rad.of(0) if table.exact else 0.0
        for size in range(len(edges)):
            for h in itertools.combinations(edges, size):
                h_edges = frozenset(h)
                sub = gc.graph(core.n_vertices, h_edges)
                if h_edges and gc.leaves(sub):
                    continue
                sub_val = _xi_per_subset_loop(sub, params, table)
                if not sub_val:
                    continue
                q_val = ct._label_product_expectation(table, h_edges, core.edges - h_edges)
                total = total + table.t_powers[len(edges) - size] * sub_val * q_val
        p_val = ct._label_product_expectation(table, core.edges, frozenset())
        table.values[key] = -(total / p_val)
    return table.values[key]


@pytest.mark.parametrize("kernel", [ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL])
def test_xi_matches_per_subset_loop_on_every_class(kernel):
    reps = ct.leafless_classes(6)
    for k in (2, 3):
        for lam, eps in ((F(1), F(3, 10)), (1.0, 0.3)):
            pr = md.ModelParams(n=8, lam=lam, k=k, eps=eps)
            table, oracle = ct.XiTable(pr, kernel), ct.XiTable(pr, kernel)
            for rep in reps:
                assert ct.xi(rep, pr, table) == _xi_per_subset_loop(rep, pr, oracle)


def test_xi_table_names_missing_parameters():
    for kw, missing in ((dict(k=2, eps=F(1, 5)), "lam"), (dict(lam=F(1)), "eps, k"),
                        (dict(lam=F(1), eps=F(1, 5)), "k")):
        with pytest.raises(ValueError, match=f"needs {missing}$"):
            ct.XiTable(md.ModelParams(n=4, **kw))


def test_int_rates_give_the_values_of_their_fractions():
    tri = gc.graph(3, [(0, 1), (1, 2), (0, 2)])
    sigma = (0, 0, 1)

    def values(pr):
        return (bs.evaluate_basis(bs.planted_index(sigma, tri), (sigma, tri.edges), pr),
                ct.XiTable(pr)._h_scales,
                bs.cross_moment_planted(pr, tri, sigma, gc.graph(3, [(0, 1)])),
                ct.xi(tri, pr))

    ints = md.ModelParams(n=3, lam=1, k=2, eps=0)
    assert type(ints.lam) is F and type(ints.eps) is F
    assert values(ints) == values(md.ModelParams(n=3, lam=F(1), k=2, eps=F(0)))


def _per_row_linear_system(params, D, kernel):
    """The linear-system check written out row by row: row_residual on
    every labeled edge subgraph of K_n with at most D edges."""
    table = ct.XiTable(params, kernel)
    rows = bs.edge_subgraphs(params.n, D)
    worst, exact_zero = 0.0, table.exact
    for s in rows:
        r = ct.row_residual(s, params, table)
        if r:
            worst, exact_zero = max(worst, abs(float(r))), False
    return (F(0) if exact_zero else worst), len(rows)


def test_linear_system_orbit_quotient_matches_per_row_loop(monkeypatch):
    cases = [(5, 3, 2, 176), (5, 3, 3, 176), (5, 4, 2, 386), (5, 4, 3, 386), (6, 4, 2, 1941)]
    for n, D, k, rows in cases:
        pr = md.ModelParams(n=n, lam=F(1), k=k, eps=F(3, 10), delta=F(1, 100))
        for kernel in (ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL):
            got = ct.verify_linear_system(pr, D, kernel=kernel)
            assert type(got[0]) is F and got == _per_row_linear_system(pr, D, kernel) == (0, rows)
    # scaling xi on the triangle class breaks the system on every row that
    # holds a triangle; the quotient must report the per-row loop's worst row
    exact_xi = ct.xi

    def perturbed_xi(s, params, table=None):
        value = exact_xi(s, params, table)
        tri_key = gc.canonicalize(gc.cycle_graph(s.n_vertices, 3)).hex_form
        if gc.canonicalize(gc.graph(s.n_vertices, s.edges)).hex_form == tri_key:
            value = value * F(8, 7)
        return value

    monkeypatch.setattr(ct, "xi", perturbed_xi)
    for n, D, k, _ in cases:
        pr = md.ModelParams(n=n, lam=F(1), k=k, eps=F(3, 10), delta=F(1, 100))
        for kernel in (ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL):
            want = _per_row_linear_system(pr, D, kernel)
            assert want[0] > 0
            assert ct.verify_linear_system(pr, D, kernel=kernel) == want, (n, D, k, kernel)


def test_edge_orbit_sizes_match_labeled_copy_counts():
    for n in range(1, 7):
        bit = ms.edge_bits(n)
        for D in range(5):
            orbits = ct.edge_orbits(n, D)
            assert next(iter(orbits)) == 0  # the empty set's orbit comes first
            for rep, orbit in orbits.items():
                edges = [e for e, b in bit.items() if rep & b]
                assert all(m.bit_count() == len(edges) for m in orbit)
                assert len(orbit) == ct._labeled_count(n, gc.graph(n, edges)), (n, D, edges)
            want = sum(math.comb(len(bit), j) for j in range(D + 1))
            assert sum(map(len, orbits.values())) == want
            assert len(set().union(*orbits.values())) == want
    assert len(ct.edge_orbits(6, 4)) == 18


def test_row_cap_is_checked_before_enumerating():
    pr = md.ModelParams(n=40, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    with pytest.raises(gc.EnumerationBudgetError) as info:
        ct.verify_linear_system(pr, 12)
    assert info.value.requested == sum(math.comb(780, j) for j in range(13))
