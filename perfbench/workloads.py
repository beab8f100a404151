"""One round of a workload's library script, run as a fresh process.

    python3 perfbench/workloads.py --workload adv-enum --seed 7 --trace 0

lowdeg must be importable (perfbench/run.py puts src/ on PYTHONPATH).
Every call into lowdeg is one timed operation; the checks against the
oracles in oracles.py run outside the timed region.  The last line of
standard output is a JSON object with the operations, the checks, the
peak resident memory and, with --trace 1, the per-layer span metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles as orc  # noqa: E402


class Abort(Exception):
    """An operation failed that is not a known fault; the round stops."""


class Round:
    def __init__(self):
        self.ops: list[dict] = []
        self.checks: list[dict] = []

    def op(self, name: str, fn, *args, fault: type | None = None, **kwargs):
        """Time one call.  A raise of `fault` is recorded as a known failure
        and returns None; any other exception aborts the round."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            dt = time.perf_counter() - t0
            known = fault is not None and isinstance(exc, fault)
            self.ops.append({"name": name, "s": dt, "ok": False, "known_fault": known,
                             "error": f"{type(exc).__name__}: {exc}"})
            if known:
                return None
            raise Abort(name) from exc
        self.ops.append({"name": name, "s": time.perf_counter() - t0, "ok": True})
        return result

    def check(self, name: str, ok: bool, detail: object = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": "" if ok else str(detail)})


def _drop_pi(atom):
    return (atom[1], atom[2])


# -- adv-enum -------------------------------------------------------------------


def _check_joint(rnd: Round, label: str, joint, n: int, q: F):
    """Atom count, exact total mass, uniform labelings and Bernoulli(q)
    edge marginals of both children."""
    m = n * (n - 1) // 2
    rnd.check(f"{label} atom count", len(joint) == orc.correlated_er_joint_size(n), len(joint))
    total = F(0)
    by_pi: dict = {}
    by_a: dict = {}
    by_b: dict = {}
    for (pi, a, b), w in joint:
        total += w
        by_pi[pi] = by_pi.get(pi, 0) + w
        by_a[a] = by_a.get(a, 0) + w
        by_b[b] = by_b.get(b, 0) + w
    rnd.check(f"{label} total mass is exactly 1", total == 1, total)
    rnd.check(f"{label} labelings uniform",
              len(by_pi) == math.factorial(n)
              and all(w == F(1, math.factorial(n)) for w in by_pi.values()), by_pi)
    for side, marg in (("a", by_a), ("b", by_b)):
        ok = len(marg) == 2 ** m and all(
            w == q ** len(s) * (1 - q) ** (m - len(s)) for s, w in marg.items())
        rnd.check(f"{label} child {side} has Bernoulli(q) edges", ok)


def adv_enum(rnd: Round, seed: int):
    from lowdeg import advantage as adv
    from lowdeg import measures as ms
    from lowdeg import models as md

    rng = random.Random(seed)
    rnd.check("orbit counter reproduces A008406 row 4", orc.orbit_self_test())

    p3 = md.ModelParams(n=3, q=F(1, 3), rho=F(1, 2))
    joint3 = rnd.op("correlated_er_joint_measure n=3", ms.correlated_er_joint_measure, 3, p3.p, p3.s)
    _check_joint(rnd, "joint n=3", joint3, 3, p3.q)
    pair3 = rnd.op("pair marginal n=3", joint3.map, _drop_pi)

    for D in (2, 4, 6):
        rep = rnd.op(f"advantage_product_basis n=3 D={D}",
                     adv.advantage_product_basis, pair3, p3, D, kind="pair")
        want = orc.correlated_er_advantage_sq(3, p3.rho, D)
        rnd.check(f"product basis n=3 D={D} equals orbit sum",
                  isinstance(rep.value_squared, F) and rep.value_squared == want,
                  f"{rep.value_squared} != {want}")

    # The conditioning event pi(i) = j is drawn from the seed; the orbit sum
    # under the stabilizer of i does not depend on j.
    i, j = rng.randrange(3), rng.randrange(3)
    for D in (2, 4):
        rep = rnd.op(f"conditional_advantage n=3 D={D}",
                     adv.conditional_advantage, joint3, p3, D, i, j)
        want = orc.correlated_er_advantage_sq(3, p3.rho, D, fixed=i)
        rnd.check(f"conditional pi({i})={j} n=3 D={D} equals stabilizer orbit sum",
                  isinstance(rep.value_squared, F) and rep.value_squared == want,
                  f"{rep.value_squared} != {want}")

    null3 = rnd.op("er_pair_measure n=3", ms.er_pair_measure, 3, p3.q)
    want = orc.correlated_er_advantage_sq(3, p3.rho, 3)
    rep = rnd.op("advantage_gram_schmidt exact n=3 D=3",
                 adv.advantage_gram_schmidt, pair3, null3, D=3, exact=True)
    rnd.check("exact Gram-Schmidt n=3 D=3 equals orbit sum",
              isinstance(rep.value_squared, F) and rep.value_squared == want, rep.value_squared)
    rep = rnd.op("advantage_gram_schmidt float n=3 D=3",
                 adv.advantage_gram_schmidt, pair3, null3, D=3, exact=False)
    rnd.check("float Gram-Schmidt n=3 D=3 within 1e-9",
              abs(float(rep.value_squared) - float(want)) <= 1e-9, rep.value_squared)
    rep = rnd.op("advantage_rayleigh n=3 D=3", adv.advantage_rayleigh, pair3, null3, D=3)
    rnd.check("Rayleigh n=3 D=3 within 1e-9",
              abs(float(rep.value_squared) - float(want)) <= 1e-9, rep.value_squared)

    null_w, alt_w = [F(1, 2), F(1, 2)], [F(1, 5), F(4, 5)]
    chi2 = orc.chi_square(null_w, alt_w)
    base_null = ms.DiscreteMeasure([0, 1], null_w)
    base_alt = ms.DiscreteMeasure([0, 1], alt_w)
    for M in (1, 2, 4, 8):
        problem = rnd.op(f"build_hidden_sample M={M}", adv.build_hidden_sample, base_null, base_alt, M)
        rep = rnd.op(f"hidden_sample_advantage M={M}", adv.hidden_sample_advantage, problem, 1)
        rnd.check(f"hidden M={M}: (V^2-1)*M equals the base chi-square",
                  (rep.value_squared - 1) * M == chi2, rep.value_squared)

    p4 = md.ModelParams(n=4, q=F(1, 4), rho=F(7, 20))
    joint4 = rnd.op("correlated_er_joint_measure n=4", ms.correlated_er_joint_measure, 4, p4.p, p4.s)
    _check_joint(rnd, "joint n=4", joint4, 4, p4.q)


# -- dual-cert ----------------------------------------------------------------------


def _radicals(x) -> dict:
    return dict(x.terms) if hasattr(x, "terms") else ({1: F(x)} if x else {})


def _check_dual(rnd: Round, dual, n: int, params, kernel: str, classes: list):
    label = f"dual n={n} D={dual.degree} {kernel}"
    nonempty = sorted((nv, ne, count) for _v, nv, ne, count in dual.entries.values() if ne)
    want = sorted((v, e, orc.labeled_copies(n, edges)) for v, e, edges in classes)
    rnd.check(f"{label}: classes and labeled-copy counts match brute force", nonempty == want,
              f"{nonempty} != {want}")
    norm_sq: dict = {}
    for value, _nv, _ne, count in dual.entries.values():
        sq = orc.radical_mul(_radicals(value), _radicals(value))
        norm_sq = orc.radical_add(norm_sq, {d: c * count for d, c in sq.items()})
    rnd.check(f"{label}: norm^2 equals the count-weighted sum of xi^2",
              _radicals(dual.norm_squared) == norm_sq, dual.norm_squared)
    tri = [v for v, nv, ne, _c in dual.entries.values() if (nv, ne) == (3, 3)]
    xi3 = orc.xi_triangle(params.k, params.eps, params.lam, n, kernel == "exact")
    rnd.check(f"{label}: xi(C3) matches the closed form",
              len(tri) == 1 and abs(float(tri[0]) - xi3) <= 1e-12 * abs(xi3), tri)


def dual_cert(rnd: Round, seed: int):
    from lowdeg import certificate as ct
    from lowdeg import graph_core as gc
    from lowdeg import models as md

    rng = random.Random(seed)
    p6 = md.ModelParams(n=6, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    classes = orc.leafless_classes(6)
    for kernel in (ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL):
        dual = rnd.op(f"build_dual n=6 D=6 {kernel}", ct.build_dual, p6, 6, kernel=kernel)
        _check_dual(rnd, dual, 6, p6, kernel, classes)

    rows_want = orc.edge_subgraph_count(6, 4)
    for kernel in (ct.FIRST_ORDER_KERNEL, ct.EXACT_KERNEL):
        residual, rows = rnd.op(f"verify_linear_system n=6 D=4 {kernel}",
                                ct.verify_linear_system, p6, 4, kernel=kernel)
        rnd.check(f"linear system n=6 D=4 {kernel}: every residual is exactly Fraction(0)",
                  type(residual) is F and residual == 0 and rows == rows_want, (residual, rows))

    # The sandwich 1 <= reversed advantage <= dual norm at eps = 2/5; eps = 1/5
    # at the same n, k, lambda and D is the README dual-check command, checked
    # with the CLI part.  At n=4, D=3 the only non-empty leafless class is C3.
    p4 = md.ModelParams(n=4, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100))
    value, norm = rnd.op("duality_gap n=4 D=3 eps=2/5", ct.duality_gap, p4, 3)
    xi3 = orc.xi_triangle(p4.k, p4.eps, p4.lam, 4, True)
    norm_want = math.sqrt(1 + orc.labeled_copies(4, orc.cycle_edges(3)) * xi3 ** 2)
    rnd.check("duality n=4 D=3 eps=2/5: dual norm matches the closed form",
              abs(norm - norm_want) <= 1e-12 * norm_want, (norm, norm_want))
    rnd.check("duality n=4 D=3 eps=2/5: 1 < reversed advantage <= dual norm",
              1.0 < value <= norm, (value, norm))

    # xi over a vertex-disjoint pair of triangles, placed at random in [12]
    p12 = p6.with_(n=12)
    perm = list(range(12))
    rng.shuffle(perm)
    tri_a = gc.graph(12, orc.relabel(orc.cycle_edges(3), perm))
    tri_b = gc.graph(12, orc.relabel(orc.cycle_edges(3, 3), perm))
    both = gc.graph(12, tri_a.edges | tri_b.edges)
    xa = rnd.op("xi C3 n=12", ct.xi, tri_a, p12)
    xb = rnd.op("xi C3 n=12 (second)", ct.xi, tri_b, p12)
    xab = rnd.op("xi 2C3 n=12", ct.xi, both, p12)
    rnd.check("xi is exactly multiplicative over disjoint triangles",
              _radicals(xab) == orc.radical_mul(_radicals(xa), _radicals(xb)), (xa, xb, xab))
    xi3 = orc.xi_triangle(2, p12.eps, p12.lam, 12, False)
    rnd.check("xi(C3) at n=12 matches the closed form", abs(float(xa) - xi3) <= 1e-12 * abs(xi3), xa)


# -- canon-sample -------------------------------------------------------------------


CANON_GRAPHS = (
    [(f"C{l}", orc.cycle_edges(l), orc.cycle_aut(l)) for l in range(8, 17)]
    + [(f"2C{m}", orc.disjoint_cycles(2, m), orc.disjoint_copies_aut(orc.cycle_aut(m), 2))
       for m in range(4, 9)]
    + [("3C4", orc.disjoint_cycles(3, 4), orc.disjoint_copies_aut(orc.cycle_aut(4), 3)),
       ("Q3", orc.hypercube_edges(3), orc.hypercube_aut(3)),
       ("Q4", orc.hypercube_edges(4), orc.hypercube_aut(4)),
       ("Petersen", orc.petersen_edges(), orc.PETERSEN_AUT)]
)
# Inside the 16-vertex canonical budget, yet the search exhausts its node
# budget on both: it visits every minimal leaf and prunes no automorphism.
FAULT_GRAPHS = [("K1,10", orc.star_edges(10), orc.star_aut(10)),
                ("7K2", orc.matching_edges(7), orc.matching_aut(7))]
AUT_BUDGET_VERTICES = 10  # graph_core.automorphism_count refuses larger supports
RELABELED_TWICE = ("C14", "2C7")


def _labelings(rng: random.Random, edges, count: int) -> list[frozenset]:
    """`count` random relabelings of `edges` with pairwise different edge sets."""
    n = len(orc.support(edges))
    out: list[frozenset] = []
    while len(out) < count:
        perm = list(range(n))
        rng.shuffle(perm)
        image = orc.relabel(edges, perm)
        if image not in out:
            out.append(image)
    return out


def _pulls_back(pi, right_edges, parent_edges) -> bool:
    inv = {v: i for i, v in enumerate(pi)}
    return all(orc.norm_edge(inv[u], inv[v]) in parent_edges for u, v in right_edges)


def _same_sample(x, y) -> bool:
    return (x.pi_star, x.sigma_star, x.parent.edges, x.left.edges, x.right.edges) == \
        (y.pi_star, y.sigma_star, y.parent.edges, y.left.edges, y.right.edges)


def canon_sample(rnd: Round, seed: int):
    from lowdeg import bounds as bd
    from lowdeg import graph_core as gc
    from lowdeg import models as md
    from lowdeg import reduction as rd

    rng = random.Random(seed)
    forms = {}
    for name, edges, aut in CANON_GRAPHS:
        first, second = _labelings(rng, edges, 2)
        n = len(orc.support(edges))
        cg = rnd.op(f"canonicalize {name}", gc.canonicalize, gc.graph(n, first))
        forms[name] = cg.canonical_form
        rnd.check(f"|Aut({name})| = {aut}", cg.aut_count == aut, cg.aut_count)
        if n <= AUT_BUDGET_VERTICES:
            got = rnd.op(f"automorphism_count {name}", gc.automorphism_count, gc.graph(n, second))
            rnd.check(f"automorphism_count({name}) = {aut}", got == aut, got)
        if name in RELABELED_TWICE:
            for attempt in ("second labeling", "second labeling again"):
                again = rnd.op(f"canonicalize {name} {attempt}", gc.canonicalize, gc.graph(n, second))
                rnd.check(f"{name}: canonical form agrees under the {attempt}",
                          again.canonical_form == cg.canonical_form)
    for m in range(4, 9):
        rnd.check(f"C{2 * m} and 2C{m} have different canonical forms",
                  forms[f"C{2 * m}"] != forms[f"2C{m}"])
    for name, edges, aut in FAULT_GRAPHS:
        (labeled,) = _labelings(rng, edges, 1)
        cg = rnd.op(f"canonicalize {name}", gc.canonicalize,
                    gc.graph(len(orc.support(edges)), labeled), fault=gc.EnumerationBudgetError)
        if cg is not None:
            rnd.check(f"|Aut({name})| = {aut}", cg.aut_count == aut, cg.aut_count)

    # samplers: same seed, same output; children pull back into the parent
    er = md.ModelParams(n=1000, q=F(1, 50), rho=F(1, 2))
    s_seed = rng.randrange(1 << 31)
    first = rnd.op("sample_correlated_er n=1000", md.sample_correlated_er, er, s_seed)
    again = rnd.op("sample_correlated_er n=1000 (same seed)", md.sample_correlated_er, er, s_seed)
    rnd.check("correlated ER n=1000 repeats under the same seed", _same_sample(first, again))
    rnd.check("correlated ER n=1000 children pull back into the parent",
              first.left.edges <= first.parent.edges
              and _pulls_back(first.pi_star, first.right.edges, first.parent.edges))
    # Both children are Binomial(C(n,2), q) edge counts; pooled they are
    # correlated, so the window is on the left child.  Five sigma: the seed
    # is arbitrary and a false alarm must not be a failed run.
    pairs = 1000 * 999 // 2
    rnd.check("correlated ER n=1000 edge density within 5 binomial sigma",
              orc.binomial_window(len(first.left.edges), pairs, float(er.q), 5.0),
              len(first.left.edges))

    sbm = md.ModelParams(n=500, lam=F(3), k=2, eps=F(1, 2), s=F(1, 2))
    s_seed = rng.randrange(1 << 31)
    first = rnd.op("sample_correlated_sbm n=500", md.sample_correlated_sbm, sbm, s_seed)
    again = rnd.op("sample_correlated_sbm n=500 (same seed)", md.sample_correlated_sbm, sbm, s_seed)
    rnd.check("correlated SBM n=500 repeats under the same seed", _same_sample(first, again))
    rnd.check("correlated SBM n=500 children pull back into the parent",
              first.left.edges <= first.parent.edges
              and _pulls_back(first.pi_star, first.right.edges, first.parent.edges))

    mod = md.ModelParams(n=10, lam=F(3, 2), k=2, eps=F(1, 10), s=F(1, 2), D=2,
                         delta=F(1, 100), N=4)
    seeds = [rng.randrange(1 << 31) for _ in range(30)]
    ok = True
    for t, sd in enumerate(seeds):
        samp = rnd.op(f"sample_modified_sbm n=10 #{t}", md.sample_modified_sbm, mod, sd)
        pruned = samp.parent_pruned.edges
        ok = ok and pruned <= samp.parent.edges and samp.left.edges <= pruned \
            and _pulls_back(samp.pi_star, samp.right.edges, pruned) \
            and not orc.has_cycle_at_most(10, pruned, mod.N)
        if t == 0:
            first = samp
    again = rnd.op("sample_modified_sbm n=10 #0 (same seed)", md.sample_modified_sbm, mod, seeds[0])
    rnd.check("modified SBM: pruned parent has girth > N and holds both children", ok)
    rnd.check("modified SBM repeats under the same seed",
              _same_sample(first, again) and first.parent_pruned.edges == again.parent_pruned.edges)

    # parents and children of small correlated-ER draws, canonicalized
    small = md.ModelParams(n=16, q=F(1, 8), rho=F(1, 2))
    for t in range(5):
        samp = rnd.op(f"sample_correlated_er n=16 #{t}", md.sample_correlated_er, small,
                      rng.randrange(1 << 31))
        for part in ("parent", "left", "right"):
            g = getattr(samp, part)
            perm = list(range(16))
            rng.shuffle(perm)
            moved = gc.graph(16, orc.relabel(g.edges, perm), vertices=range(16))
            a = rnd.op(f"canonicalize n=16 #{t} {part}", gc.canonicalize, g)
            b = rnd.op(f"canonicalize n=16 #{t} {part} relabeled", gc.canonicalize, moved)
            rnd.check(f"n=16 #{t} {part}: canonical form invariant under relabeling",
                      a.canonical_form == b.canonical_form and a.aut_count == b.aut_count)
        s_graph = gc.graph(16, samp.parent.edges)
        h_graph = gc.graph(16, samp.left.edges)
        deco = rnd.op(f"decompose_difference n=16 #{t}", gc.decompose_difference, s_graph, h_graph)
        rest = sorted(samp.parent.edges - samp.left.edges)
        expected_t = (len(orc.leaves(samp.parent.edges) - orc.support(samp.left.edges))
                      + len(samp.parent.edges) - len(orc.support(samp.parent.edges))
                      - len(samp.left.edges) + len(orc.support(samp.left.edges)))
        rnd.check(f"n=16 #{t}: decomposition covers G minus A with the predicted path count",
                  deco.reassembled_edges() == rest and deco.t == expected_t, (deco.t, expected_t))

    p10 = md.ModelParams(n=10, q=F(1, 4), rho=F(1, 3))
    family = rd.truncate_family(rd.estimator_to_indicators(rd.greedy_degree_estimator, 10))
    p_sampler, q_sampler = rd.correlated_er_samplers(p10)
    trials = 20
    report = rnd.op("one_sided_test n=10 greedy", rd.one_sided_test,
                    lambda a, b: float(family.evaluate(a, b).trace()), 0.5,
                    p_sampler, q_sampler, trials, rng.randrange(1 << 20))
    rnd.check("one-sided test rates are hit fractions of the trials",
              all(0 <= r <= 1 and abs(r * trials - round(r * trials)) < 1e-9
                  for r in (report.q_accept_rate, report.p_reject_rate)),
              (report.q_accept_rate, report.p_reject_rate))

    for suite in ("A1", "A4", "A5", "B3", "P-sum"):
        audits = rnd.op(f"run_suite {suite}", bd.run_suite, suite)
        rnd.check(f"bound suite {suite}: every audit has lhs <= rhs",
                  audits and all(a.lhs <= a.rhs for a in audits),
                  [a.row() for a in audits if not a.lhs <= a.rhs][:3])

    counts = rnd.op("rooted_tree_counts 12", gc.rooted_tree_counts, 12)
    rnd.check("rooted tree counts match A000081", counts == orc.A000081, counts)
    est = rnd.op("otter_constant_estimate 50", gc.otter_constant_estimate, 50)
    rnd.check("Otter constant estimate within 1e-4", est.converged
              and abs(est.value - orc.OTTER_ALPHA) < 1e-4, est)


WORKLOADS = {"adv-enum": adv_enum, "dual-cert": dual_cert, "canon-sample": canon_sample}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import lowdeg.advantage, lowdeg.bounds, lowdeg.certificate, lowdeg.reduction  # noqa: E401,F401

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rnd = Round()
    aborted = None
    try:
        WORKLOADS[args.workload](rnd, args.seed)
    except Abort as exc:
        aborted = f"{exc}: {exc.__cause__!r}"
    out = {
        "ops": rnd.ops,
        "checks": rnd.checks,
        "aborted": aborted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
