"""Dual certificate for the reversed advantage: the per-class recursion
over leafless graphs, the dual vector it induces, exact verification of
the defining linear system, and the exact reversed advantage it bounds.

Two per-edge transfer kernels are supported.  The defining recursion and
the published closed forms use the first-order kernel sqrt(eps^2 lam / n);
the exact-moment kernel sqrt(eps^2 lam / (n - lam)) matches the true
cross moments at finite n, which is what a valid duality bound against
the exactly-computed advantage requires.  verify_linear_system checks
each kernel against its own matrix, so residuals vanish identically for
both.

The label averages P_of and Q_of behind the recursion and the linear
system are counted in integers: the per-edge scale takes one value on
equal labels and one on unequal labels, and the centered kernel omega is
k-1 or -1, so each component's labelings are tallied as integer
omega-products by the number of equal-label scaled edges.  Square roots
enter only in one short sum per component, over powers of the two edge
scales that are computed once per XiTable together with the powers of
the transfer weight.  P_of_path_form is an independent oracle.

The recursion table is built bottom-up by edge count; entries within a
level are independent.  Memoization is keyed by canonical class, in one
XiTable per parameter set and kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import basis as bs
from . import graph_core as gc
from . import measures as ms
from .exactnum import Rad, solve_exact
from .graph_core import EnumerationBudgetError, LabeledGraph
from .models import ModelParams

XI_EDGE_BUDGET = 6
FIRST_ORDER_KERNEL = "first_order"
EXACT_KERNEL = "exact"


def _exact_mode(params: ModelParams) -> bool:
    return isinstance(params.lam, (Fraction, int)) and isinstance(params.eps, (Fraction, int))


def transfer_weight(params: ModelParams, kernel: str):
    """Per-edge transfer factor t with t^2 = eps^2 lam / n (first order) or
    eps^2 lam / (n - lam) (exact moments)."""
    lam, eps, n = params.lam, params.eps, params.n
    if kernel == FIRST_ORDER_KERNEL:
        val = eps * eps * lam / n
    elif kernel == EXACT_KERNEL:
        val = eps * eps * lam / (n - lam)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return Rad.sqrt(val) if _exact_mode(params) else math.sqrt(float(val))


# -- label-average expectations -------------------------------------------------


LABEL_VERTEX_BUDGET = 10


def _label_product_expectation(table: "XiTable", h_edges: frozenset, omega_edges: frozenset):
    """E over uniform labels of prod h(edge) over h_edges times prod
    omega(edge) over omega_edges, component by component.

    h takes two values, h_eq on equal labels and h_ne on unequal ones, and
    omega is the integer k-1 or -1.  So a component's labelings are summed
    in integers: coeff[j] collects the omega-products of the labelings with
    j equal-label h edges, and the component average is
    sum_j coeff[j] h_eq^j h_ne^(m-j) / k^|V|, one short exact sum.  Labels
    are exchangeable, so the first vertex keeps label 0 and the other
    vertices range over k^(|V|-1) labelings.
    """
    k = table.params.k
    total = Rad.of(1) if table.exact else 1.0
    all_edges = h_edges | omega_edges
    if not all_edges:
        return total
    for comp in gc.connected_components(gc.graph(1 + max(v for _, v in all_edges), all_edges)):
        if len(comp) > LABEL_VERTEX_BUDGET:
            raise EnumerationBudgetError(
                f"label enumeration beyond {LABEL_VERTEX_BUDGET} vertices per component",
                where="certificate.label_average", requested=len(comp), budget=LABEL_VERTEX_BUDGET)
        pos = {v: i for i, v in enumerate(sorted(comp))}
        ch = [(pos[u], pos[v]) for u, v in h_edges if u in comp]
        co = [(pos[u], pos[v]) for u, v in omega_edges if u in comp]
        coeff = [0] * (len(ch) + 1)
        for rest in itertools.product(range(k), repeat=len(comp) - 1):
            labels = (0,) + rest
            w = 1
            for u, v in co:
                w *= k - 1 if labels[u] == labels[v] else -1
            coeff[sum(labels[u] == labels[v] for u, v in ch)] += w
        acc = sum((c * term for c, term in zip(coeff, table.h_terms(len(ch))) if c),
                  Rad.of(0) if table.exact else 0.0)
        denom = k ** (len(comp) - 1)
        total = total * acc * (Fraction(1, denom) if table.exact else 1.0 / denom)
    return total


def P_of(s: LabeledGraph, params: ModelParams):
    """Label average of the product of per-edge scales over E(S)."""
    return _label_product_expectation(XiTable(params), s.edges, frozenset())


def Q_of(s: LabeledGraph, h: LabeledGraph, params: ModelParams):
    """Label average of per-edge scales over E(H) times centered kernels
    over E(S) \\ E(H)."""
    if not h.edges <= s.edges:
        raise ValueError("h is not an edge subset of s")
    return _label_product_expectation(XiTable(params), h.edges, s.edges - h.edges)


def P_of_path_form(s: LabeledGraph, params: ModelParams):
    """Independent oracle for P_of: decompose the leafless graph into
    threads between branch vertices and average the per-thread closed form
    over the branch labels only."""
    if gc.leaves(s):
        raise ValueError("path-form evaluation expects a leafless graph")
    k = params.k
    a, b = bs.h_decomposition(k, params.eps, params.lam, params.n)
    exact = _exact_mode(params)
    total = Rad.of(1) if exact else 1.0
    for comp in gc.connected_components(s):
        cedges = [e for e in s.edges if e[0] in comp]
        sub = gc.graph(s.n_vertices, cedges)
        deco = gc.decompose_difference(sub, gc.empty_graph(s.n_vertices), "A3")
        if deco.cycles:
            # a bare cycle component: coinciding endpoints collapse the
            # conditional average to the closed form directly
            assert not deco.paths and len(deco.cycles) == 1
            l = len(deco.cycles[0].edges)
            total = total * (a ** l + b ** l * (k - 1))
            continue
        branch = sorted({v for pair in deco.endpoints for v in pair})
        acc = Rad.of(0) if exact else 0.0
        for labels in itertools.product(range(k), repeat=len(branch)):
            assign = dict(zip(branch, labels))
            term = Rad.of(1) if exact else 1.0
            for p, (u, v) in zip(deco.paths, deco.endpoints):
                term = term * bs.path_expectation(k, a, b, len(p.edges), assign[u], assign[v])
            acc = acc + term
        denom = Fraction(k) ** len(branch) if exact else float(k ** len(branch))
        total = total * (acc / denom)
    return total


# -- the recursion table ---------------------------------------------------------


@dataclass
class XiTable:
    """Memoized recursion values keyed by canonical class, and the
    per-parameter constants of the label averages: the edge scales h_eq
    and h_ne on equal and on unequal labels, the products
    h_eq^j h_ne^(m-j), and the powers of the kernel's transfer weight t.
    Each constant is computed once per table, on first use."""

    params: ModelParams
    kernel: str = FIRST_ORDER_KERNEL
    values: dict[str, object] = field(default_factory=dict)
    _h_terms: dict[int, list] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def exact(self) -> bool:
        return _exact_mode(self.params)

    @cached_property
    def _h_scales(self) -> tuple:
        pr = self.params
        return (bs.h_weight(pr.k, pr.eps, pr.lam, pr.n, 0, 0),
                bs.h_weight(pr.k, pr.eps, pr.lam, pr.n, 0, 1 % pr.k))

    @cached_property
    def t_powers(self) -> list:
        """[t^j for j = 0..XI_EDGE_BUDGET], t the kernel's transfer weight."""
        t = transfer_weight(self.params, self.kernel)
        powers = [Rad.of(1) if self.exact else 1.0]
        for _ in range(XI_EDGE_BUDGET):
            powers.append(powers[-1] * t)
        return powers

    def h_terms(self, m: int) -> list:
        """[h_eq^j h_ne^(m-j) for j = 0..m]."""
        if m not in self._h_terms:
            one = Rad.of(1) if self.exact else 1.0
            h_eq, h_ne = self._h_scales if m else (one, one)
            self._h_terms[m] = [h_eq ** j * h_ne ** (m - j) for j in range(m + 1)]
        return self._h_terms[m]


def _leafless_edge_subsets(s: LabeledGraph, proper: bool) -> list[frozenset]:
    """Edge subsets of s in which no vertex has degree one, by size; the
    test is on edge bitmasks: inc[v] marks the edges at v."""
    edges = sorted(s.edges)
    if len(edges) > XI_EDGE_BUDGET:
        raise EnumerationBudgetError(f"recursion edge budget is {XI_EDGE_BUDGET}",
                                     where="certificate.xi", requested=len(edges),
                                     budget=XI_EDGE_BUDGET)
    inc: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        inc[u] = inc.get(u, 0) | 1 << i
        inc[v] = inc.get(v, 0) | 1 << i
    out = []
    top = len(edges) - 1 if proper else len(edges)
    for k in range(top + 1):
        for subset in itertools.combinations(range(len(edges)), k):
            mask = sum(1 << i for i in subset)
            if all((mask & m).bit_count() != 1 for m in inc.values()):
                out.append(frozenset(edges[i] for i in subset))
    return out


def xi(s: LabeledGraph, params: ModelParams, table: XiTable | None = None):
    """Recursion value of the edge-support class of s.

    One for the empty graph, zero for any graph with a leaf; otherwise
    minus the P-normalized, kernel-weighted sum over proper leafless edge
    subsets.  Multiplicative over vertex-disjoint unions.  A table passed
    in must be built for params.
    """
    if table is None:
        table = XiTable(params)
    exact = _exact_mode(params)
    core = gc.graph(s.n_vertices, s.edges)  # recursion sees the edge support only
    if not core.edges:
        return Rad.of(1) if exact else 1.0
    if gc.leaves(core):
        return Rad.of(0) if exact else 0.0
    key = gc.canonicalize(core).hex_form
    if key in table.values:
        return table.values[key]
    total = Rad.of(0) if exact else 0.0
    for h_edges in _leafless_edge_subsets(core, proper=True):
        sub_val = xi(gc.graph(core.n_vertices, h_edges), params, table)
        if not sub_val:
            continue
        q_val = _label_product_expectation(table, h_edges, core.edges - h_edges)
        total = total + table.t_powers[len(core.edges) - len(h_edges)] * sub_val * q_val
    p_val = _label_product_expectation(table, core.edges, frozenset())
    if not p_val:
        raise ValueError("degenerate label average; parameters out of range")
    value = -(total / p_val)
    table.values[key] = value
    return value


def leafless_classes(max_edges: int) -> list[LabeledGraph]:
    """One labeled representative per isomorphism class of nonempty leafless
    graphs with at most max_edges edges (vertex count is then at most the
    edge count)."""
    if max_edges > XI_EDGE_BUDGET:
        raise EnumerationBudgetError(f"class enumeration budget is {XI_EDGE_BUDGET} edges",
                                     where="certificate.leafless_classes", requested=max_edges,
                                     budget=XI_EDGE_BUDGET)
    if max_edges < 3:
        return []
    m = max_edges
    pairs = list(itertools.combinations(range(m), 2))
    seen: dict[str, LabeledGraph] = {}
    for k in range(3, max_edges + 1):
        for subset in itertools.combinations(pairs, k):
            g = gc.graph(m, subset)
            if gc.leaves(g) or gc.isolated_vertices(g):
                continue
            key = gc.canonicalize(g).hex_form
            seen.setdefault(key, g)
    return list(seen.values())


@dataclass
class DualVector:
    """Dual coefficients u[(sigma, H)] = k^(-n/2) * xi(H), stored per class.

    entries: canonical hex -> (value, n_vertices, n_edges, labeled_count).
    The squared norm collapses the label sum: it is the sum of xi^2 over
    labeled leafless graphs within the degree budget.
    """

    params: ModelParams
    degree: int
    kernel: str
    entries: dict[str, tuple] = field(default_factory=dict)

    @property
    def norm_squared(self):
        total = None
        for value, _nv, _ne, count in self.entries.values():
            term = count * _square_of(value)
            total = term if total is None else total + term
        return total

    @property
    def norm(self) -> float:
        return math.sqrt(float(self.norm_squared))

    def coefficient(self, h: LabeledGraph):
        """The common value u[(sigma, H)] * k^(n/2) for the class of h."""
        key = gc.canonicalize(gc.graph(h.n_vertices, h.edges)).hex_form
        if key in self.entries:
            return self.entries[key][0]
        return xi(h, self.params, XiTable(self.params, self.kernel))


def _square_of(x):
    if isinstance(x, Rad):
        sq = x * x
        return sq.as_fraction() if sq.is_rational() else sq
    return x * x


def _labeled_count(n: int, class_rep: LabeledGraph) -> int:
    v = len(class_rep.vertices)
    if v > n:
        return 0
    aut = gc.automorphism_count(class_rep)
    return math.perm(n, v) // aut


def build_dual(params: ModelParams, D: int, kernel: str = FIRST_ORDER_KERNEL) -> DualVector:
    """Recursion values for every leafless class within the degree budget,
    weighted by labeled-copy counts in the ambient complete graph."""
    exact = _exact_mode(params)
    table = XiTable(params, kernel)
    dual = DualVector(params, D, kernel)
    empty = gc.empty_graph(params.n)
    dual.entries[gc.canonicalize(empty).hex_form] = (Rad.of(1) if exact else 1.0, 0, 0, 1)
    for rep in leafless_classes(min(D, XI_EDGE_BUDGET)):
        count = _labeled_count(params.n, rep)
        if count == 0:
            continue
        val = xi(rep, params, table)
        key = gc.canonicalize(rep).hex_form
        dual.entries[key] = (val, len(rep.vertices), len(rep.edges), count)
    return dual


# -- linear system and duality -----------------------------------------------------


def row_residual(s: LabeledGraph, params: ModelParams, table: XiTable):
    """Row value of the defining linear system at S minus its target."""
    total = Rad.of(0) if _exact_mode(params) else 0.0
    for h_edges in _leafless_edge_subsets(s, proper=False):
        val = xi(gc.graph(s.n_vertices, h_edges), params, table)
        if not val:
            continue
        q_val = _label_product_expectation(table, h_edges, s.edges - h_edges)
        total = total + table.t_powers[len(s.edges) - len(h_edges)] * val * q_val
    target = 1 if not s.edges else 0
    return total - target


def verify_linear_system(params: ModelParams, D: int, kernel: str = FIRST_ORDER_KERNEL,
                         n_rows_cap: int = 100_000):
    """Residual of every row S (graphs without isolated vertices, at most D
    edges); returns (max_abs_residual, row_count).  Exactly zero in
    rational mode."""
    table = XiTable(params, kernel)
    rows = bs.edge_subgraphs(params.n, D)
    if len(rows) > n_rows_cap:
        raise EnumerationBudgetError("row enumeration exceeds the cap",
                                     where="certificate.verify_linear_system",
                                     requested=len(rows), budget=n_rows_cap)
    worst = 0.0
    exact_all_zero = True
    for s in rows:
        r = row_residual(s, params, table)
        if isinstance(r, Rad):
            if not r.is_zero():
                exact_all_zero = False
                worst = max(worst, abs(float(r)))
        else:
            worst = max(worst, abs(r))
    if table.exact and exact_all_zero:
        return Fraction(0), len(rows)
    return worst, len(rows)


def reversed_advantage_exact(params: ModelParams, D: int):
    """Exact reversed advantage sup E_null[f] / sqrt(E_planted[f^2]) over the
    degree-D span, via the planted Gram matrix of the null basis.

    Given the labeling sigma the planted edges are independent, so the raw
    Gram entry E[prod_{S_i} (x_e - q0) prod_{S_j} (x_e - q0)] is the label
    average of a product over edges: E_sigma[(x_e - q0)^2] on S_i ∩ S_j and
    p_e(sigma) - q0 on S_i △ S_j.  The labelings are grouped by their
    equal-label edge set (ms.label_classes).  The orthonormal basis rescales
    the Gram matrix by the diagonal sqrt(q0(1-q0))^(-deg), which leaves
    (G^-1)_00 unchanged because the degree-0 scale is 1, so the raw rational
    system is solved and the value is exact.

    Budget: n <= 4, D <= 3 is the supported envelope.
    """
    for name, got, cap in (("n", params.n, 4), ("D", D, 3)):
        if got > cap:
            raise EnumerationBudgetError("exact reversed advantage is limited to n <= 4, D <= 3",
                                         where=f"reversed_advantage_exact {name}",
                                         requested=got, budget=cap)
    if not _exact_mode(params):
        raise ValueError("exact reversed advantage needs rational parameters")
    n, k = params.n, params.k
    p_in, p_out = ms.sbm_block_probs(n, k, params.lam, params.eps)
    q0 = bs.null_edge_prob(params)
    sq_in, sq_out = [p * (1 - q0) ** 2 + (1 - p) * q0 ** 2 for p in (p_in, p_out)]
    d_in, d_out = p_in - q0, p_out - q0
    classes = ms.label_classes(n, k)
    bit = {e: 1 << i for i, e in enumerate(itertools.combinations(range(n), 2))}
    indices = bs.single_indices(n, D)
    masks = [sum(bit[e] for e in idx.s1.edges) for idx in indices]

    def raw_entry(both: int, once: int) -> Fraction:
        total = Fraction(0)
        for intra, count in classes.items():
            total += (count * sq_in ** (both & intra).bit_count()
                      * sq_out ** (both & ~intra).bit_count()
                      * d_in ** (once & intra).bit_count()
                      * d_out ** (once & ~intra).bit_count())
        return total / k ** n

    dim = len(indices)
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            gram[i][j] = gram[j][i] = raw_entry(masks[i] & masks[j], masks[i] ^ masks[j])
    rhs = [Fraction(1 if idx.degree == 0 else 0) for idx in indices]
    sol = solve_exact(gram, rhs)
    value_sq = next(x for idx, x in zip(indices, sol) if idx.degree == 0)
    from .advantage import AdvantageReport

    return AdvantageReport(D, math.sqrt(max(float(value_sq), 0.0)), value_sq, "rayleigh")


def duality_gap(params: ModelParams, D: int) -> tuple:
    """(exact reversed advantage, dual norm) with the exact-moment kernel.

    The dual built on the exact kernel solves the exact linear system, so
    its norm upper-bounds the exact advantage; a violation beyond 1e-9
    raises.
    """
    rep = reversed_advantage_exact(params, D)
    dual = build_dual(params, D, kernel=EXACT_KERNEL)
    if rep.value > dual.norm + 1e-9:
        raise AssertionError(
            f"duality violated: advantage {rep.value} exceeds dual norm {dual.norm}"
        )
    return rep.value, dual.norm


# -- magnitude bound audits ----------------------------------------------------------


def lambda0_condition_ok(params: ModelParams) -> bool:
    """Parameter regime for the magnitude bounds: the constant-coefficient
    share of the edge scale beats (1-delta)/(1-delta/2)."""
    k, eps, delta = params.k, float(params.eps), float(params.delta)
    a_lim = ((k - 1) * math.sqrt(1 - eps) + math.sqrt(1 + eps * (k - 1))) / k
    return a_lim / (1 - delta) >= 1 / (1 - delta / 2)


def xi_cycle_union_bound(s: LabeledGraph, params: ModelParams, value=None) -> tuple[float, float]:
    """(|xi|, bound) for a vertex-disjoint union of m cycles:
    k^m (1-delta/2)^(e/2) n^(-e/2)."""
    comps = gc.cycle_components(s)
    if gc.leaves(s) or sum(len(c.edges) for c in comps) != len(s.edges):
        raise ValueError("graph is not a disjoint union of cycles")
    if value is None:
        value = xi(s, params, XiTable(params))
    m = len(comps)
    e = len(s.edges)
    bound = params.k ** m * (1 - float(params.delta) / 2) ** (e / 2) * params.n ** (-e / 2)
    return abs(float(value)), bound


def xi_excess_bound(s: LabeledGraph, params: ModelParams, D: int, value=None) -> tuple[float, float]:
    """(|xi|, bound) for leafless graphs with positive excess:
    (10 tau)! (2kD)^(10 tau) (1-delta/2)^(e/2) n^(-e/2)."""
    tau = gc.excess(s)
    if tau <= 0:
        raise ValueError("excess bound applies to positive-excess graphs")
    if value is None:
        value = xi(s, params, XiTable(params))
    e = len(s.edges)
    bound = (
        math.factorial(10 * tau)
        * (2 * params.k * D) ** (10 * tau)
        * (1 - float(params.delta) / 2) ** (e / 2)
        * params.n ** (-e / 2)
    )
    return abs(float(value)), bound
