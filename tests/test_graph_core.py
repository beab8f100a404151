import ast
import collections
import hashlib
import importlib
import itertools
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from lowdeg import advantage as adv
from lowdeg import basis as bs
from lowdeg import bounds as bd
from lowdeg import certificate as ct
from lowdeg import graph_core as gc
from lowdeg import measures as ms
from lowdeg import models as md

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lowdeg"


def brute_automorphisms(g: gc.LabeledGraph) -> int:
    """Oracle: count vertex bijections of the declared set fixing the edges."""
    verts = sorted(g.vertices)
    count = 0
    for perm in itertools.permutations(verts):
        mapping = dict(zip(verts, perm))
        mapped = frozenset(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges)
        if mapped == g.edges:
            count += 1
    return count


def brute_isomorphic(a: gc.LabeledGraph, b: gc.LabeledGraph) -> bool:
    """Oracle: exhaustive bijection search on the declared vertex sets."""
    va, vb = sorted(a.vertices), sorted(b.vertices)
    if len(va) != len(vb) or len(a.edges) != len(b.edges):
        return False
    for perm in itertools.permutations(vb):
        mapping = dict(zip(va, perm))
        mapped = frozenset(tuple(sorted((mapping[u], mapping[v]))) for u, v in a.edges)
        if mapped == b.edges:
            return True
    return False


def random_graph(rng: random.Random, n: int, p: float = 0.5, declare_extra: bool = False):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if rng.random() < p]
    g = gc.graph(n, edges)
    if declare_extra:
        extra = [v for v in range(n) if v not in g.vertices and rng.random() < 0.4]
        g = gc.graph(n, edges, list(g.vertices) + extra)
    return g


def star(r: int) -> gc.LabeledGraph:
    return gc.graph(r + 1, [(0, i) for i in range(1, r + 1)])


def matching(m: int) -> gc.LabeledGraph:
    return gc.graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def cycles(copies: int, length: int) -> gc.LabeledGraph:
    return gc.graph(copies * length, [(c * length + i, c * length + (i + 1) % length)
                                      for c in range(copies) for i in range(length)])


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1]


def petersen() -> gc.LabeledGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return gc.graph(10, outer + inner + spokes)


def torus_graph(steps: set[tuple[int, int]]) -> gc.LabeledGraph:
    """Cayley graph of Z4 x Z4 with a symmetric step set."""
    return gc.graph(16, [(a, b) for a in range(16) for b in range(a + 1, 16)
                         if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps])


# -- basics ------------------------------------------------------------------


def test_excess_examples():
    tri = gc.graph(5, [(0, 1), (1, 2), (0, 2)])
    assert gc.excess(tri) == 0
    assert gc.excess(gc.graph(5, [(0, 1)])) == -1
    assert gc.excess(gc.complete_graph(4)) == 2
    assert gc.excess(gc.empty_graph(3)) == 0


def test_graph_validation():
    with pytest.raises(ValueError):
        gc.graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        gc.graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        gc.LabeledGraph(3, frozenset({(0, 1)}), frozenset({0}))


def test_edge_induced_ops():
    s = gc.graph(4, [(0, 1)])
    t = gc.graph(4, [(1, 2)])
    cap, cup, sym = gc.edge_induced_ops(s, t)
    assert cap.edges == frozenset() and cap.vertices == frozenset()
    assert cup.edges == frozenset({(0, 1), (1, 2)})
    assert sym.edges == cup.edges
    cap, cup, sym = gc.edge_induced_ops(s, s)
    assert cap.edges == cup.edges == s.edges and not sym.edges
    with pytest.raises(ValueError):
        gc.edge_induced_ops(s, gc.graph(5, [(0, 1)]))


def test_edge_count_additivity_random():
    rng = random.Random(3)
    for _ in range(100):
        s = random_graph(rng, 4)
        t = random_graph(rng, 4)
        cap, cup, _ = gc.edge_induced_ops(s, t)
        assert len(cup.edges) + len(cap.edges) == len(s.edges) + len(t.edges)


def test_leaves_and_isolated():
    g = gc.graph(6, [(0, 1), (1, 2)], vertices=[0, 1, 2, 5])
    assert gc.leaves(g) == frozenset({0, 2})
    assert gc.isolated_vertices(g) == frozenset({5})
    assert gc.support(g) == frozenset({0, 1, 2})


# -- canonical forms -----------------------------------------------------------


def test_canonicalize_relabeling_invariance():
    rng = random.Random(5)
    tri = gc.graph(3, [(0, 1), (1, 2)])
    assert gc.canonicalize(tri).canonical_form == gc.canonicalize(
        gc.graph(3, [(2, 0), (0, 1)])).canonical_form
    for _ in range(1000):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5, declare_extra=True)
        perm = list(range(n))
        rng.shuffle(perm)
        assert gc.canonicalize(g).canonical_form == gc.canonicalize(gc.relabel(g, perm)).canonical_form


def test_canonicalize_separates_classes():
    tri = gc.graph(3, [(0, 1), (1, 2), (0, 2)])
    path = gc.graph(4, [(0, 1), (1, 2), (2, 3)])
    assert gc.canonicalize(tri).canonical_form != gc.canonicalize(path).canonical_form


def test_eleven_classes_on_four_vertices():
    # oracle: the number of graphs on 4 unlabeled vertices is 11
    forms = set()
    pairs = list(itertools.combinations(range(4), 2))
    for k in range(len(pairs) + 1):
        for es in itertools.combinations(pairs, k):
            forms.add(gc.canonicalize(gc.graph(4, es, vertices=range(4))).canonical_form)
    assert len(forms) == 11


def test_canonical_equality_matches_brute_isomorphism():
    rng = random.Random(6)
    for _ in range(200):
        a = random_graph(rng, 5, 0.5, declare_extra=True)
        b = random_graph(rng, 5, 0.5, declare_extra=True)
        assert (gc.canonicalize(a).canonical_form == gc.canonicalize(b).canonical_form) == brute_isomorphic(a, b)


def test_canonical_budget():
    with pytest.raises(gc.EnumerationBudgetError):
        gc.canonicalize(gc.complete_graph(17))


def test_budget_errors_carry_fields():
    with pytest.raises(gc.EnumerationBudgetError) as info:
        gc.canonicalize(gc.complete_graph(17))
    err = info.value
    assert (err.where, err.requested, err.budget) == ("graph_core.canonicalize", 17, 16)
    assert str(err) == "non-isolated vertices: requested 17, budget 16"
    # other raise sites still work with the message alone
    assert gc.EnumerationBudgetError("plain").requested is None


def test_search_budget_error_reports_nodes(monkeypatch):
    monkeypatch.setattr(gc, "_canon_memo", {})
    monkeypatch.setattr(gc, "_SEARCH_NODE_BUDGET", 3)
    with pytest.raises(gc.EnumerationBudgetError) as info:
        gc.canonicalize(gc.cycle_graph(16))
    err = info.value
    assert (err.where, err.requested, err.budget) == ("graph_core.canonicalize", 4, 3)


_TWO = ms.DiscreteMeasure([0, 1], [F(1, 2), F(1, 2)])
_PLANTED = md.ModelParams(n=12, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100), D=1)
_SBM = md.ModelParams(n=30, lam=F(1), k=2, eps=F(1, 10), D=2, delta=F(1, 100), N=3)
# an edge costs 10 log 10 in vertices and pays log q below that: each edge
# is a negative piece, none bad on its own
_NEAR = md.ModelParams(n=10, q=math.exp(-23.1), D=1)
_STAR16 = gc.graph(20, [(0, i) for i in range(1, 17)])
# one atom holding 23 of K_8's 28 edges: a down-closure of 2^23 masks
_K8_23 = ms.DiscreteMeasure([frozenset(list(ms.edge_bits(8))[:23])], [F(1)])

# (module.NAME values patched in, call, where, requested, budget, what): one
# case per guard, each past its limit
BUDGET_GUARDS = {
    "canonical-vertices": ({}, lambda: gc.canonicalize(gc.complete_graph(17)),
                           "graph_core.canonicalize", 17, 16, "non-isolated vertices"),
    "canonical-search": ({"graph_core._SEARCH_NODE_BUDGET": 3, "graph_core._canon_memo": {}},
                         lambda: gc.canonicalize(gc.cycle_graph(16)),
                         "graph_core.canonicalize", 4, 3, "canonical search nodes"),
    "embedding-host": ({}, lambda: gc.count_embeddings(gc.graph(17, [(0, 1)]), gc.complete_graph(17)),
                       "graph_core.count_embeddings", 17, 16, "host vertices"),
    "rooted-trees": ({}, lambda: gc.rooted_tree_counts(61),
                     "graph_core.rooted_tree_counts", 61, 60, "tree vertices"),
    "product": ({}, lambda: _TWO.product(*[_TWO] * 22),
                "measures.DiscreteMeasure.product", 1 << 23, 1 << 22, "product atoms"),
    "power": ({}, lambda: _TWO.power(23), "measures.DiscreteMeasure.power", 1 << 23, 1 << 22, "power atoms"),
    "er-graphs": ({}, lambda: ms.er_graph_measure(8, F(1, 2)),
                  "measures.er_graph_measure", 1 << 28, 1 << 22, "graph atoms"),
    "sbm-joint": ({}, lambda: ms.sbm_joint_measure(7, 2, F(1), F(1, 5)),
                  "measures.sbm_joint_measure", 1 << 28, 1 << 22, "planted atoms"),
    "matching-joint": ({}, lambda: ms.correlated_er_joint_measure(5, F(1, 2), F(1, 2)),
                       "measures._child_subsampling_joint", math.factorial(5) * 4 ** 10, 1 << 22,
                       "matching-joint atoms"),
    "moment-table": ({}, lambda: adv.advantage_product_basis(_K8_23, md.ModelParams(n=8, q=F(1, 2)), 1, "single"),
                     "advantage.moment_table", 1 << 23, 1 << 22, "moment-table entries"),
    "planted-float": ({}, lambda: bs.evaluate_basis(bs.planted_index((0,) * 25, gc.empty_graph(25)),
                                                    ((0,) * 25, frozenset()),
                                                    md.ModelParams(n=25, lam=1.0, k=2, eps=0.1)),
                      "basis._index_factors", 25, 20, "planted basis vertices in float mode"),
    "expectation": ({"measures.ENUMERATION_BUDGET": 1},
                    lambda: bs.exact_expectation(_TWO, bs.single_index(gc.empty_graph(2)), _NEAR),
                    "basis.exact_expectation", 2, 1, "measure atoms"),
    "cross-moment": ({}, lambda: bs.cross_moment_planted(_PLANTED, gc.path_graph(12, 2), (0,) * 12,
                                                         gc.empty_graph(12)),
                     "basis.cross_moment_planted", 2, 1, "index degree"),
    "leaf-cancellation": ({}, lambda: bs.leaf_cancellation_check(gc.path_graph(9, 8),
                                                                 gc.graph(9, [(0, 1)]), 2),
                          "basis.leaf_cancellation_check", 9, 8, "cancellation check vertices"),
    "anchored-between": ({}, lambda: bd.P_sum(gc.graph(20, [(0, i) for i in range(1, 18)]),
                                              gc.empty_graph(20), _SBM),
                         "bounds._anchored_between", 17, 16, "anchored extra edges"),
    "anchored-census": ({}, lambda: bd.audit_anchored_subgraph_census(
                            gc.graph(20, [(0, i) for i in range(1, 12)]), _SBM),
                        "bounds.audit_anchored_subgraph_census", 12, 10, "host edges or vertices"),
    "label-average": ({}, lambda: ct.P_of(gc.cycle_graph(12, 11), _PLANTED),
                      "certificate._label_product_expectation", 11, 10, "label component vertices"),
    "xi-row": ({}, lambda: ct.xi(gc.cycle_graph(12, 7), _PLANTED),
               "certificate._row_sum", 7, 6, "recursion edges"),
    "leafless-classes": ({}, lambda: ct.leafless_classes(7),
                         "certificate.leafless_classes", 7, 6, "leafless class edges"),
    "linear-system": ({"certificate.LINEAR_SYSTEM_ROW_BUDGET": 10},
                      lambda: ct.verify_linear_system(_PLANTED, 1),
                      "certificate.verify_linear_system", 67, 10, "linear-system rows"),
    "reversed-advantage": ({}, lambda: ct.reversed_advantage_exact(md.ModelParams(
                               n=4, lam=F(1), k=2, eps=F(2, 5), delta=F(1, 100)), 4),
                           "certificate.reversed_advantage_exact", 4, 3, "exact reversed advantage D"),
    "edge-support": ({}, lambda: md.is_admissible_er(_STAR16, _NEAR),
                     "models._edge_support_subgraphs", 16, 15, "subgraph edges"),
    "self-bad": ({}, lambda: md.classify_self_bad(_STAR16, _SBM),
                 "models.classify_self_bad", 16, 15, "self-bad check edges"),
    "connected-sets": ({"models.CONNECTED_SET_BUDGET": 100},
                       lambda: md.contains_bad_subgraph(gc.graph(9, [(0, i) for i in range(1, 9)]),
                                                        _NEAR, 9, "er"),
                       "models._bad_connected_pieces", 101, 100, "connected vertex sets"),
    "packed-pieces": ({}, lambda: md.contains_bad_subgraph(
                          gc.graph(46, [(2 * i, 2 * i + 1) for i in range(23)]), _NEAR, 4, "er"),
                      "models.contains_bad_subgraph", 23, 22, "near-bad pieces to pack"),
    "modified-sbm": ({}, lambda: md.sample_modified_sbm(md.ModelParams(
                         n=30, lam=F(1), k=2, eps=F(1, 10), D=4, delta=F(1, 100), N=3, s=F(1, 2)), 0),
                     "models._listed_removal_targets", 4, 3, "modified-model D"),
}


@pytest.mark.parametrize("case", BUDGET_GUARDS)
def test_every_budget_guard_raises_a_structured_error(case, monkeypatch):
    patched, call, where, requested, budget, what = BUDGET_GUARDS[case]
    for constant, value in patched.items():
        module, name = constant.split(".")
        monkeypatch.setattr(importlib.import_module(f"lowdeg.{module}"), name, value)
    with pytest.raises(gc.EnumerationBudgetError) as info:
        call()
    err = info.value
    assert (err.where, err.requested, err.budget, str(err)) == (
        where, requested, budget, f"{what}: requested {requested}, budget {budget}")


def _readme_budget_rows():
    """(module, name, guarded wheres, limit) per row of the README's Budgets table."""
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## Budgets", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            constant, guards, _what, limit = (cell.strip() for cell in line.strip("|").split("|"))
            module, name = constant.strip("`").split(".")
            rows.append((module, name, re.findall(r"`([\w.]+)`", guards), ast.literal_eval(limit.strip("`"))))
    return rows


def test_readme_budget_table_matches_the_constants():
    rows = _readme_budget_rows()
    for module, name, _wheres, limit in rows:
        assert getattr(importlib.import_module(f"lowdeg.{module}"), name) == limit, (module, name)
    # every module-level budget in the package has a row
    declared = {(path.stem, name) for path in SRC.glob("*.py")
                for name in re.findall(r"^(\w+(?:_BUDGET|_CAP|_ENVELOPE)) =",
                                       path.read_text(encoding="utf-8"), re.MULTILINE)}
    assert declared == {(module, name) for module, name, _, _ in rows}
    # and every guard the table names is tripped by a case above
    assert {w for _, _, wheres, _ in rows for w in wheres} <= {case[2] for case in BUDGET_GUARDS.values()}


def test_only_check_budget_builds_the_budget_error():
    built = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        built += [(path.stem, node.lineno) for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call) and "EnumerationBudgetError"
                  in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        assert text.count("raise EnumerationBudgetError") == (path.stem == "graph_core"), path.name
    helper = next(node for node in ast.parse((SRC / "graph_core.py").read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "check_budget")
    assert [module for module, _ in built] == ["graph_core"]
    assert helper.lineno <= built[0][1] <= helper.end_lineno


def test_only_the_trusted_constructors_skip_the_graph_and_sample_checks():
    # object.__new__(X) builds an X without its __post_init__ checks
    skipped = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
                        and ast.unparse(node.args[0]) in ("LabeledGraph", "CorrelatedSample")):
                    skipped[ast.unparse(node.args[0])].append((path.stem, getattr(top, "name", None)))
    assert skipped["LabeledGraph"] == [("graph_core", "_labeled")]
    assert [module for module, _ in skipped["CorrelatedSample"]] == ["models"]


def test_only_vertex_generators_builds_permutation_tables():
    # the vertex groups' generators are built in one place, and the certificate builds none of its own
    built = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            built += [(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "byte_tables"]
    assert built == [("advantage", "vertex_generators")]
    certificate = (SRC / "certificate.py").read_text(encoding="utf-8")
    assert "byte_tables" not in certificate and not [
        node.name for node in ast.walk(ast.parse(certificate)) if isinstance(node, ast.FunctionDef)
        and "generator" in node.name]


def test_automorphism_counts_against_brute_force():
    cases = [
        (gc.graph(3, [(0, 1), (1, 2), (0, 2)]), 6),
        (gc.graph(3, [(0, 1), (1, 2)]), 2),
        (gc.graph(5, [(0, 1), (1, 2), (0, 2)], vertices=range(5)), 12),
    ]
    for g, want in cases:
        assert gc.automorphism_count(g) == want
        assert brute_automorphisms(g) == want
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6), 0.5, declare_extra=True)
        assert gc.automorphism_count(g) == brute_automorphisms(g)


def test_automorphism_count_shares_the_canonical_budget():
    # 11-16 non-isolated vertices
    q4 = gc.graph(16, hypercube_edges(4))
    assert gc.automorphism_count(gc.cycle_graph(16)) == 32
    assert gc.automorphism_count(q4) == 384
    assert gc.automorphism_count(star(10)) == math.factorial(10)
    with pytest.raises(gc.EnumerationBudgetError):
        gc.automorphism_count(gc.complete_graph(17))


def test_aut_times_labeled_copies_is_factorial():
    # connected graphs: aut * (#labeled copies on |V| vertices) = |V|!
    rng = random.Random(8)
    seen = 0
    for _ in range(200):
        g = random_graph(rng, 6, 0.55)
        comps = gc.connected_components(g)
        if len(comps) != 1 or not g.edges:
            continue
        v = len(g.vertices)
        base = gc.relabel(g, {u: i for i, u in enumerate(sorted(g.vertices))})
        base = gc.graph(v, base.edges)
        target = gc.canonicalize(base).canonical_form
        pairs = list(itertools.combinations(range(v), 2))
        copies = 0
        for es in itertools.combinations(pairs, len(base.edges)):
            if gc.canonicalize(gc.graph(v, es)).canonical_form == target:
                copies += 1
        assert gc.automorphism_count(base) * copies == math.factorial(v)
        seen += 1
        if seen >= 12:
            break
    assert seen >= 12


def _shuffled(g: gc.LabeledGraph, rng: random.Random) -> gc.LabeledGraph:
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    return gc.relabel(g, perm)


def test_closed_form_automorphism_counts_and_relabeling_invariance():
    cases = [(star(r), math.factorial(r)) for r in range(2, 16)]
    cases += [(matching(m), 2 ** m * math.factorial(m)) for m in range(1, 9)]
    cases += [(gc.cycle_graph(length), 2 * length) for length in range(3, 17)]
    cases += [(cycles(2, m), 2 * (2 * m) ** 2) for m in range(3, 9)]
    cases += [(gc.graph(16, hypercube_edges(4)), 384), (petersen(), 120)]
    rng = random.Random(12)
    for g, want in cases:
        cg = gc.canonicalize(g)
        assert cg.aut_count == want
        for _ in range(3):
            moved = gc.canonicalize(_shuffled(g, rng))
            assert moved.canonical_form == cg.canonical_form
            assert moved.aut_count == want


def test_156_classes_on_six_vertices():
    # oracle: OEIS A000088, the number of graphs on 6 unlabeled vertices
    pairs = list(itertools.combinations(range(6), 2))
    forms = set()
    for k in range(len(pairs) + 1):
        for es in itertools.combinations(pairs, k):
            forms.add(gc.canonicalize(gc.graph(6, es, vertices=range(6))).canonical_form)
    assert len(forms) == 156


def test_shrikhande_and_rook_graph_are_separated():
    # both strongly regular with parameters (16, 6, 2, 2); colour refinement
    # alone cannot tell them apart
    shrikhande = torus_graph({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})
    rook = torus_graph({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})
    a, b = gc.canonicalize(shrikhande), gc.canonicalize(rook)
    assert a.canonical_form != b.canonical_form
    assert (a.aut_count, b.aut_count) == (192, 1152)
    rng = random.Random(13)
    for g, cg in ((shrikhande, a), (rook, b)):
        for _ in range(5):
            assert gc.canonicalize(_shuffled(g, rng)).canonical_form == cg.canonical_form


def test_canonical_equality_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(14)

    def to_graph(h, n):
        return gc.graph(n, h.edges(), range(n))

    for _ in range(150):
        n = rng.randint(2, 16)
        if rng.random() < 0.5 and n >= 6:
            # sparse: networkx's matcher is slow on dense regular pairs
            d = rng.choice((2, 4))
            a = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30))
            b = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30))
        else:
            a = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(1 << 30))
            b = nx.gnm_random_graph(n, a.number_of_edges(), seed=rng.randrange(1 << 30))
        moved = nx.relabel_nodes(a, dict(zip(range(n), rng.sample(range(n), n))))
        ca = gc.canonicalize(to_graph(a, n))
        assert gc.canonicalize(to_graph(moved, n)).canonical_form == ca.canonical_form
        same = gc.canonicalize(to_graph(b, n)).canonical_form == ca.canonical_form
        assert same == nx.is_isomorphic(a, b)


def test_count_embeddings():
    tri = gc.graph(4, [(0, 1), (1, 2), (0, 2)])
    assert gc.count_embeddings(gc.graph(4, [(0, 1)]), tri) == 3
    k4 = gc.complete_graph(4)
    assert gc.count_embeddings(gc.graph(4, [(0, 1), (1, 2), (0, 2)]), k4) == 4
    assert gc.count_embeddings(gc.empty_graph(4), tri) == 1
    # with isolated vertices in the pattern
    pattern = gc.graph(4, [(0, 1)], vertices=[0, 1, 2])
    host = gc.graph(4, [(0, 1), (2, 3)], vertices=range(4))
    # choose one of 2 edges, then 1 extra vertex among the remaining 2
    assert gc.count_embeddings(pattern, host) == 4


def _subgraph_classes_per_subset(s, max_edges=None):
    """The class census as its own loop over the edge subsets of s by size."""
    out = {}
    edges = sorted(s.edges)
    cap = len(edges) if max_edges is None else min(max_edges, len(edges))
    for k in range(cap + 1):
        for subset in itertools.combinations(edges, k):
            cg = gc.canonicalize(gc.graph(s.n_vertices, subset))
            out.setdefault(cg.canonical_form, cg)
    return out


def test_edge_induced_subgraphs_by_size_then_combinations_order():
    host = gc.graph(6, [(2, 3), (0, 1), (1, 2)], vertices=range(6))
    got = [(sorted(g.edges), sorted(g.vertices)) for g in gc.edge_induced_subgraphs(host)]
    assert got == [([], []), ([(0, 1)], [0, 1]), ([(1, 2)], [1, 2]), ([(2, 3)], [2, 3]),
                   ([(0, 1), (1, 2)], [0, 1, 2]), ([(0, 1), (2, 3)], [0, 1, 2, 3]),
                   ([(1, 2), (2, 3)], [1, 2, 3]), ([(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3])]
    assert [g.n_edges for g in gc.edge_induced_subgraphs(host, 1)] == [0, 1, 1, 1]
    assert list(gc.edge_induced_subgraphs(host, -1)) == []


def test_subgraph_classes_match_per_subset_loop():
    rng = random.Random(12)
    hosts = [gc.graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)], vertices=range(7)),
             gc.complete_graph(4), gc.empty_graph(3)]
    hosts += [random_graph(rng, rng.randint(2, 5), declare_extra=True) for _ in range(8)]
    for s in hosts:
        for max_edges in (None, 0, 2, 4):
            want = _subgraph_classes_per_subset(s, max_edges)
            assert list(gc.subgraph_classes(s, max_edges).items()) == list(want.items())


# -- cycles ---------------------------------------------------------------------


def test_all_cycles_triangle_square():
    g = gc.graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    cycles = gc.all_cycles(g)
    assert sorted(len(c) for c in cycles) == [3, 4]
    assert gc.has_cycle_at_most(g, 3)
    assert not gc.has_cycle_at_most(gc.graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 3)


def _random_graphs(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.4, 0.6, 0.9))
        yield gc.graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
                       range(n))


# sha256 of repr(all_cycles(g, cap)) over _random_graphs(30, 200, 8) and the
# caps None, 3, 4, 6, computed when each cycle walk was its own recursion
ALL_CYCLES_PIN = "12dc8a6541779c3189ef7802c72304af43ec3958bbde5697ff47d644eabd068d"


def test_cycle_walk_keeps_its_order_and_decides_short_cycles():
    digest = hashlib.sha256()
    for g in _random_graphs(30, 200, 8):
        for cap in (None, 3, 4, 6):
            cycles = gc.all_cycles(g, cap)
            digest.update(repr(cycles).encode())
            if cap is not None:
                assert gc.has_cycle_at_most(g, cap) == bool(cycles), (sorted(g.edges), cap)
    assert digest.hexdigest() == ALL_CYCLES_PIN


def test_has_cycle_at_most_stops_at_the_first_cycle(monkeypatch):
    walk, produced = gc._cycles, []

    def counted(g, max_len):
        for cyc in walk(g, max_len):
            produced.append(cyc)
            yield cyc

    monkeypatch.setattr(gc, "_cycles", counted)
    dense = gc.complete_graph(12)  # 59,740,609 cycles
    assert gc.has_cycle_at_most(dense, 12)
    assert produced == [(0, 1, 2)]
    assert not gc.has_cycle_at_most(gc.graph(12, [(i, i + 1) for i in range(11)]), 12)
    assert len(produced) == 1
    # all_cycles drains the same walk
    assert gc.all_cycles(gc.complete_graph(5), 4) == produced[1:]


def test_k4_cycle_census():
    cycles = gc.all_cycles(gc.complete_graph(4))
    assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]


def test_independent_cycle_census():
    s = gc.graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert gc.independent_cycle_census(s, gc.empty_graph(8)) == {3: 1, 4: 1}
    # a pendant edge breaks independence
    s2 = gc.graph(8, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert gc.independent_cycle_census(s2, gc.empty_graph(8)) == {}
    # census avoids the declared vertices of h
    two_tri = gc.graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    h = gc.graph(8, [(0, 1), (1, 2), (0, 2)])
    assert gc.independent_cycle_census(two_tri, h) == {3: 1}


# -- decompositions ---------------------------------------------------------------


def a2_count(s, h):
    return len(gc.leaves(s) - h.vertices) + gc.excess(s) - gc.excess(h)


def test_decompose_triangle_and_trivial():
    tri = gc.graph(5, [(0, 1), (1, 2), (0, 2)])
    d = gc.decompose_difference(tri, gc.empty_graph(5), "A2")
    assert d.t == 0 and d.m == 1 == len(d.cycles)
    d2 = gc.decompose_difference(tri, tri, "A2")
    assert d2.t == 0 and d2.m == 0
    with pytest.raises(ValueError):
        gc.decompose_difference(tri, gc.graph(5, [(3, 4)]), "A2")
    with pytest.raises(ValueError):
        gc.decompose_difference(tri, gc.empty_graph(5), "A9")


def test_decompose_theta_follows_count_formula():
    # two vertices joined by three disjoint length-2 paths: excess 1, no leaves
    theta = gc.graph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    d = gc.decompose_difference(theta, gc.empty_graph(5), "A2")
    assert d.t == a2_count(theta, gc.empty_graph(5)) == 1
    assert d.reassembled_edges() == sorted(theta.edges)


def _a2_properties(s, h, d):
    anchors0 = set(h.vertices) | set(gc.leaves(s))
    cycle_sets = [gc.support(c) for c in d.cycles]
    # cycles pairwise vertex-disjoint and avoiding V(h)
    for i, ci in enumerate(cycle_sets):
        assert not (ci & h.vertices)
        for j in range(i):
            assert not (ci & cycle_sets[j])
    all_cycle_verts = set().union(*cycle_sets) if cycle_sets else set()
    prev_path_verts: set = set()
    for p, (u, v) in zip(d.paths, d.endpoints):
        interior = gc.support(p) - {u, v}
        allowed = set(h.vertices) | all_cycle_verts | prev_path_verts | set(gc.leaves(s))
        assert {u, v} <= allowed
        assert not (interior & allowed)
        prev_path_verts |= gc.support(p)


def _a3_properties(s, h, d):
    # cycles are independent in s and avoid V(h)
    for c in d.cycles:
        assert not (gc.support(c) & h.vertices)
        for e in s.edges - c.edges:
            assert not (set(e) & gc.support(c))
    # paths pairwise intersect only in endpoints
    for i, (p, ep) in enumerate(zip(d.paths, d.endpoints)):
        extern = set(h.vertices) | set(gc.leaves(s))
        for c in d.cycles:
            extern |= gc.support(c)
        for j, q in enumerate(d.paths):
            if i != j:
                extern |= gc.support(q)
        assert gc.support(p) & extern <= set(ep)
        assert set(ep) <= extern | set(ep)  # endpoints may also be fresh roots covered by others
    # every endpoint vertex is genuinely on the union it points to
    for i, (p, ep) in enumerate(zip(d.paths, d.endpoints)):
        others = set(h.vertices) | set(gc.leaves(s))
        for c in d.cycles:
            others |= gc.support(c)
        for j, q in enumerate(d.paths):
            if i != j:
                others |= gc.support(q)
        for v in ep:
            assert v in others, "endpoint not anchored on any other piece"


def test_decompose_random_properties():
    rng = random.Random(11)
    for trial in range(500):
        n = rng.randint(3, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        s = gc.graph(n, edges)
        h_edges = rng.sample(edges, rng.randint(0, len(edges))) if edges else []
        hv = {v for e in h_edges for v in e}
        extra = [v for v in s.vertices if v not in hv and rng.random() < 0.3]
        h = gc.graph(n, h_edges, list(hv) + extra)
        d2 = gc.decompose_difference(s, h, "A2")
        assert d2.reassembled_edges() == sorted(s.edges - h.edges)
        assert d2.t == a2_count(s, h)
        _a2_properties(s, h, d2)
        d3 = gc.decompose_difference(s, h, "A3")
        assert d3.reassembled_edges() == sorted(s.edges - h.edges)
        assert d3.t <= 5 * a2_count(s, h)
        _a3_properties(s, h, d3)


def test_decompose_deterministic():
    s = gc.graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    a = gc.decompose_difference(s, gc.empty_graph(6), "A2")
    b = gc.decompose_difference(s, gc.empty_graph(6), "A2")
    assert a.reassembled_edges() == b.reassembled_edges()
    assert a.endpoints == b.endpoints
    assert [sorted(c.edges) for c in a.cycles] == [sorted(c.edges) for c in b.cycles]



def _threads_oracle(s, h):
    """The A3 thread loop on a plain neighbour dict, written apart from
    decompose_difference: carve the independent cycles away from V(h), then
    from each stop (anchor or vertex of remaining degree other than 2) in
    sorted order follow the smallest remaining edge until the next stop."""
    carved = sorted((c for c in gc.cycle_components(s) if not (gc.support(c) & h.vertices)),
                    key=lambda c: sorted(c.edges))
    adj: dict = {}
    for u, v in s.edges - h.edges - frozenset(e for c in carved for e in c.edges):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    stops = set(h.vertices) | set(gc.leaves(s)) | {v for c in carved for v in gc.support(c)}
    stops |= {v for v, ys in adj.items() if len(ys) != 2}
    paths = []
    for t in sorted(stops):
        while adj.get(t):
            path = [t]
            while len(path) == 1 or path[-1] not in stops:
                x = path[-1]
                y = sorted(adj[x])[0]
                adj[x].discard(y)
                adj[y].discard(x)
                path.append(y)
            paths.append(path)
    assert not any(adj.values())
    return ([sorted(c.edges) for c in carved],
            [sorted(gc.graph(s.n_vertices, zip(p, p[1:])).edges) for p in paths],
            [(p[0], p[-1]) for p in paths])


def _random_pair(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    h_edges = rng.sample(edges, rng.randint(0, len(edges))) if edges else []
    return gc.graph(n, edges), gc.graph(n, h_edges)


def test_a3_threads_match_the_thread_loop_oracle():
    rng = random.Random(23)
    for _ in range(600):
        s, h = _random_pair(rng, rng.randint(3, 9))
        d = gc.decompose_difference(s, h, "A3")
        got = ([sorted(c.edges) for c in d.cycles], [sorted(p.edges) for p in d.paths], d.endpoints)
        assert got == _threads_oracle(s, h)


def test_a2_lollipop_and_dumbbell_fixtures():
    empty = gc.empty_graph(7)
    # a triangle on 2, 3, 4 hung on the stem 0-1-2 from the leaf 0: the
    # walk from 0 bites its tail at 2, so the triangle is a cycle and the
    # stem comes back as the one ear
    lollipop = gc.graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
    # triangles on 0, 1, 2 and 4, 5, 6 joined by the path 2-3-4: no anchor,
    # so the first cycle is seeded from vertex 0
    dumbbell = gc.graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    for s, cycles, paths, endpoints in (
        (lollipop, [[(2, 3), (2, 4), (3, 4)]], [[(0, 1), (1, 2)]], [(0, 2)]),
        (dumbbell, [[(0, 1), (0, 2), (1, 2)], [(4, 5), (4, 6), (5, 6)]], [[(2, 3), (3, 4)]], [(2, 4)]),
    ):
        d = gc.decompose_difference(s, empty, "A2")
        assert [sorted(c.edges) for c in d.cycles] == cycles
        assert [sorted(p.edges) for p in d.paths] == paths
        assert d.endpoints == endpoints
        assert d.t == a2_count(s, empty) == 1
        assert d.reassembled_edges() == sorted(s.edges)
        _a2_properties(s, empty, d)


def test_decompose_random_properties_on_larger_graphs():
    rng = random.Random(29)
    for n in range(9, 13):
        for _ in range(60):
            s, h = _random_pair(rng, n)
            d2 = gc.decompose_difference(s, h, "A2")
            assert d2.reassembled_edges() == sorted(s.edges - h.edges)
            assert d2.t == a2_count(s, h)
            _a2_properties(s, h, d2)
            d3 = gc.decompose_difference(s, h, "A3")
            assert d3.reassembled_edges() == sorted(s.edges - h.edges)
            assert d3.t <= 5 * a2_count(s, h)
            _a3_properties(s, h, d3)


def test_walk_with_no_edge_left_is_an_assertion():
    with pytest.raises(AssertionError):
        gc._walk({0: set(), 1: set()}, 0, set())


# -- rooted trees ------------------------------------------------------------------


def rooted_tree_forms(n: int, _memo={1: [()]}):
    """Oracle: canonical nested-tuple forms of rooted trees, by recursive
    multiset construction (independent of the divisor-sum recurrence)."""
    if n in _memo:
        return _memo[n]
    forms = set()

    def extend(remaining: int, max_size: int, acc: tuple):
        if remaining == 0:
            forms.add(tuple(sorted(acc, reverse=True)))
            return
        for size in range(min(remaining, max_size), 0, -1):
            for child in rooted_tree_forms(size):
                extend(remaining - size, size, acc + (child,))

    extend(n - 1, n - 1, ())
    _memo[n] = sorted(forms)
    return _memo[n]


def test_rooted_tree_counts_against_construction_oracle():
    counts = gc.rooted_tree_counts(9)
    assert counts == [len(rooted_tree_forms(n)) for n in range(1, 10)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286]


def test_growth_constant_window():
    est = gc.otter_constant_estimate(50)
    assert est.converged
    assert 0.337 <= est.value <= 0.340
    crude = gc.otter_constant_estimate(3)
    assert not crude.converged
    assert crude.value == 0.5  # the raw ratio of the last two counts
    assert not gc.otter_constant_estimate(2).converged
    with pytest.raises(gc.EnumerationBudgetError):
        gc.rooted_tree_counts(61)


# -- edge list I/O -----------------------------------------------------------------


def test_edge_list_round_trip():
    g = gc.graph(5, [(0, 1), (2, 4)], vertices=range(5))
    text = gc.write_edge_list(g)
    assert text.splitlines()[0] == "5 2"
    back = gc.read_edge_list(text)
    assert back.edges == g.edges and back.n_vertices == 5
    assert back.vertices == frozenset(range(5))  # isolated vertices implied by n
