"""Dual certificate for the reversed advantage: the per-class recursion
over leafless graphs, the dual vector it induces, exact verification of
the defining linear system, and the exact reversed advantage it bounds.

Two per-edge transfer kernels are supported.  The defining recursion and
the published closed forms use the first-order kernel sqrt(eps^2 lam / n);
the exact-moment kernel sqrt(eps^2 lam / (n - lam)) matches the true
cross moments at finite n, which is what a valid duality bound against
the exactly-computed advantage requires.  verify_linear_system checks
each kernel against its own matrix, so residuals vanish identically for
both.  A row's residual is invariant under vertex permutations (labels
are i.i.d. uniform and xi is keyed by class), so the system is checked
once per S_n-orbit of rows: 18 orbits stand for the 1,941 rows at n=6,
D=4.  The orbits close the edge bitmasks under S_n's two vertex_generators,
not the canonical labeling that keys xi.  The exact reversed advantage is
Gram-Schmidt with the roles swapped on orbit sums over the same orbits,
and the dual vector's leafless classes are the orbits of K_m's leafless
edge subsets under the same generators.

The label averages P_of and Q_of behind the recursion and the linear
system are counted in integers: the per-edge scale takes one value on
equal labels and one on unequal labels, and the centered kernel omega is
k-1 or -1, so each component's label classes are tallied as integer
omega-products by the number of equal-label scaled edges.  Square roots
enter only in one short sum per component, over powers of the two edge
scales that are computed once per XiTable together with the powers of
the transfer weight.  P_of_path_form is an independent oracle.

The recursion and the rows of the linear system share one row sum
(_row_sum).  The recursion table is built bottom-up by edge count;
entries within a level are independent.  Memoization is keyed by
canonical class, in one XiTable per parameter set and kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from types import MappingProxyType

from . import basis as bs
from . import graph_core as gc
from . import measures as ms
from .advantage import gram_schmidt_report, mask_orbits, orbit_gram, small_masks, vertex_generators
from .exactnum import Rad
from .graph_core import LabeledGraph
from .params import ModelParams

XI_EDGE_BUDGET = 6
LINEAR_SYSTEM_ROW_BUDGET = 100_000  # rows (edge subsets of K_n) verify_linear_system accepts
FIRST_ORDER_KERNEL = "first_order"
EXACT_KERNEL = "exact"


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
    return bs._sqrt(val, bs._exact_inputs(lam, eps))


# -- label-average expectations -------------------------------------------------


LABEL_VERTEX_BUDGET = 10


def _label_product_expectation(table: "XiTable", h_edges: frozenset, omega_edges: frozenset):
    """E over uniform labels of prod h(edge) over h_edges times prod
    omega(edge) over omega_edges, component by component.

    h takes two values, h_eq on equal labels and h_ne on unequal ones, and
    omega is the integer k-1 or -1.  So a component's labelings are tallied
    in integers per label class (ms.label_classes, at most Bell(|V|) set
    partitions whatever k is): coeff[j] collects the omega-products of the
    labelings with j equal-label h edges, and the component average is
    sum_j coeff[j] h_eq^j h_ne^(m-j) / k^|V|, one short exact sum.  A class
    counts k times its labelings with first label 0, so it adds count // k
    and the denominator is k^(|V|-1).
    """
    k = table.params.k
    total = table.one
    all_edges = h_edges | omega_edges
    if not all_edges:
        return total
    for comp in gc.connected_components(gc.graph(1 + max(v for _, v in all_edges), all_edges)):
        if len(comp) > LABEL_VERTEX_BUDGET:
            gc.check_budget("certificate._label_product_expectation", "label component vertices",
                            len(comp), LABEL_VERTEX_BUDGET)
        pos = {v: i for i, v in enumerate(sorted(comp))}
        bit = ms.edge_bits(len(comp))
        ch = sum(bit[pos[u], pos[v]] for u, v in h_edges if u in comp)
        co = sum(bit[pos[u], pos[v]] for u, v in omega_edges if u in comp)
        coeff = [0] * (ch.bit_count() + 1)
        for intra, count in ms.label_classes(len(comp), k).items():
            eq = (co & intra).bit_count()
            w = (k - 1) ** eq * (-1) ** (co.bit_count() - eq)
            coeff[(ch & intra).bit_count()] += count // k * w
        acc = sum((c * term for c, term in zip(coeff, table.h_terms(ch.bit_count())) if c), table.zero)
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
    exact = bs._exact_inputs(params.lam, params.eps)
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
    h_eq^j h_ne^(m-j), the powers of the kernel's transfer weight t, and
    one and zero in the table's arithmetic (Rad when exact, else float).
    Each constant is computed once per table, on first use."""

    params: ModelParams
    kernel: str = FIRST_ORDER_KERNEL
    values: dict[str, object] = field(default_factory=dict)
    _h_terms: dict[int, list] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [name for name in ("lam", "eps", "k") if getattr(self.params, name) is None]
        if missing:
            raise ValueError(f"the dual certificate needs {', '.join(missing)}")

    @cached_property
    def exact(self) -> bool:
        return bs._exact_inputs(self.params.lam, self.params.eps)

    @cached_property
    def one(self):
        return Rad.of(1) if self.exact else 1.0

    @cached_property
    def zero(self):
        return Rad.of(0) if self.exact else 0.0

    @cached_property
    def _h_scales(self) -> tuple:
        pr = self.params
        return (bs.h_weight(pr.k, pr.eps, pr.lam, pr.n, 0, 0),
                bs.h_weight(pr.k, pr.eps, pr.lam, pr.n, 0, 1 % pr.k))

    @cached_property
    def t_powers(self) -> list:
        """[t^j for j = 0..XI_EDGE_BUDGET], t the kernel's transfer weight."""
        t = transfer_weight(self.params, self.kernel)
        powers = [self.one]
        for _ in range(XI_EDGE_BUDGET):
            powers.append(powers[-1] * t)
        return powers

    def h_terms(self, m: int) -> list:
        """[h_eq^j h_ne^(m-j) for j = 0..m]."""
        if m not in self._h_terms:
            h_eq, h_ne = self._h_scales if m else (self.one, self.one)
            self._h_terms[m] = [h_eq ** j * h_ne ** (m - j) for j in range(m + 1)]
        return self._h_terms[m]


def _leafless_masks(edges: list, max_size: int) -> list[int]:
    """Bitmasks over edges (u < v) of the subsets of at most max_size edges with no vertex of degree
    one, in small_masks order.  They grow vertex by vertex: a vertex's picks among its edges to later
    vertices fix its degree.  A subset's key is size * 4^w - rev * 2^w + mask (w edges, rev the bit
    reversal of mask): a sum over its edges, sorted in small_masks order, whose low w bits are mask."""
    w, inc, ahead = len(edges), {}, {}
    for i, (u, v) in enumerate(edges):
        inc[u], inc[v] = inc.get(u, 0) | 1 << i, inc.get(v, 0) | 1 << i
        ahead.setdefault(u, []).append(i)
    low, grown = (1 << w) - 1, [0]
    for v in sorted(inc):
        picks = [(sum((1 << 2 * w) - (1 << 2 * w - 1 - i) + (1 << i) for i in c), len(c))
                 for size in range(min(len(ahead.get(v, ())), max_size) + 1)
                 for c in itertools.combinations(ahead.get(v, ()), size)]
        grown = [key + add for key in grown
                 for deg, room in [((key & inc[v]).bit_count(), max_size - (key & low).bit_count())]
                 for add, size in picks if size <= room and deg + size != 1]
    return [key & low for key in sorted(grown)]


def _row_sum(s: LabeledGraph, params: ModelParams, table: XiTable, proper: bool):
    """Sum of t^|E(S) \\ E(H)| xi(H) Q(H, S) over the leafless edge subsets
    H of S by size, only the proper ones when proper is set.  xi(S) is
    minus the proper sum over P(S); row S of the linear system is the
    full sum, with target [S = empty]."""
    edges = sorted(s.edges)
    gc.check_budget("certificate._row_sum", "recursion edges", len(edges), XI_EDGE_BUDGET)
    top = len(edges) - 1 if proper else len(edges)
    total = table.zero
    for mask in _leafless_masks(edges, top):
        h_edges = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
        val = xi(gc.graph(s.n_vertices, h_edges), params, table)
        if val:
            q_val = _label_product_expectation(table, h_edges, s.edges - h_edges)
            total = total + table.t_powers[len(s.edges) - len(h_edges)] * val * q_val
    return total


def xi(s: LabeledGraph, params: ModelParams, table: XiTable | None = None):
    """Recursion value of the edge-support class of s.

    One for the empty graph, zero for any graph with a leaf; otherwise
    minus the P-normalized, kernel-weighted sum over proper leafless edge
    subsets.  Multiplicative over vertex-disjoint unions.  A table passed
    in must be built for params.
    """
    if table is None:
        table = XiTable(params)
    core = gc.graph(s.n_vertices, s.edges)  # recursion sees the edge support only
    if not core.edges:
        return table.one
    if gc.leaves(core):
        return table.zero
    key = gc.canonicalize(core).hex_form
    if key in table.values:
        return table.values[key]
    total = _row_sum(core, params, table, proper=True)
    p_val = _label_product_expectation(table, core.edges, frozenset())
    if not p_val:
        raise ValueError("degenerate label average; parameters out of range")
    value = -(total / p_val)
    table.values[key] = value
    return value


def leafless_classes(max_edges: int) -> list[LabeledGraph]:
    """One labeled representative per isomorphism class of nonempty leafless graphs with at most
    max_edges edges (and vertices): the orbits of the leafless edge subsets of K_max_edges with at
    most max_edges edges, a family closed under vertex permutations: edge_orbits' representatives."""
    gc.check_budget("certificate.leafless_classes", "leafless class edges", max_edges, XI_EDGE_BUDGET)
    bit = ms.edge_bits(max_edges)
    return [gc.graph(max_edges, [e for e, b in bit.items() if rep & b]) for rep in _leafless_reps(max_edges)]


@cache
def _leafless_reps(m: int) -> tuple[int, ...]:
    """leafless_classes(m) as edge bitmasks over ms.edge_bits(m), built once per m: the orbits after {0}."""
    edges = list(ms.edge_bits(m))
    return tuple(mask_orbits(vertex_generators(edges, range(m)), _leafless_masks(edges, m)))[1:]


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
        return sum(count * _square_of(value) for value, _nv, _ne, count in self.entries.values())

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
    if D is None:
        raise ValueError("the dual certificate needs D")
    table = XiTable(params, kernel)
    dual = DualVector(params, D, kernel)
    empty = gc.empty_graph(params.n)
    dual.entries[gc.canonicalize(empty).hex_form] = (table.one, 0, 0, 1)
    for rep in leafless_classes(min(D, math.comb(params.n, 2))):
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
    return _row_sum(s, params, table, proper=False) - (0 if s.edges else 1)


@cache
def edge_orbits(n: int, max_edges: int) -> MappingProxyType:
    """The S_n-orbits of the edge bitmasks over ms.edge_bits(n) with at most
    max_edges edges, by mask_orbits under vertex_generators, with no
    canonical labeling.  Built once per (n, max_edges) and process: every
    caller shares the result, so it is a read-only mapping of frozensets."""
    gens = vertex_generators(list(ms.edge_bits(n)), range(n))
    return MappingProxyType(mask_orbits(gens, small_masks(math.comb(n, 2), max_edges)))


def verify_linear_system(params: ModelParams, D: int, kernel: str = FIRST_ORDER_KERNEL):
    """Residual of every row S (edge subsets of K_n with at most D edges);
    returns (max_abs_residual, row_count).  Exactly zero in rational mode.

    Labels are i.i.d. uniform and xi is keyed by class, so Q(pi H, pi S) =
    Q(H, S) for every vertex permutation pi and the residual is constant on
    each S_n-orbit of rows.  It is computed once per orbit (edge_orbits) and
    stands for every row of the orbit; row_count is the total orbit size.
    At n=6, D=4 the 1,941 rows form 18 orbits.
    """
    if D is None:
        raise ValueError("the linear system needs D")
    bit = ms.edge_bits(params.n)
    n_rows = sum(math.comb(len(bit), j) for j in range(min(D, len(bit)) + 1))
    gc.check_budget("certificate.verify_linear_system", "linear-system rows", n_rows,
                    LINEAR_SYSTEM_ROW_BUDGET)
    table = XiTable(params, kernel)
    worst, exact_zero, rows = 0.0, table.exact, 0
    for rep, orbit in edge_orbits(params.n, D).items():
        s = gc.graph(params.n, [e for e, b in bit.items() if rep & b])
        r = row_residual(s, params, table)
        if r:
            worst, exact_zero = max(worst, abs(float(r))), False
        rows += len(orbit)
    return (Fraction(0) if exact_zero else worst), rows


# the sizes reversed_advantage_exact accepts; dual-check reads them too
REVERSED_ADVANTAGE_ENVELOPE = {"n": 4, "D": 3}


def reversed_advantage_exact(params: ModelParams, D: int):
    """Exact reversed advantage sup E_null[f] / sqrt(E_planted[f^2]) over the
    degree-D span: Gram-Schmidt with the roles swapped, the null's edge
    monomials orthogonalized under the planted graph law.

    Both laws are fixed by every vertex permutation, so the best test is
    constant on the S_n-orbits of edge sets (edge_orbits), and the Gram
    kernel of advantage_gram_schmidt (orbit_gram, then _ldl_fraction_free)
    runs on the orbit sums of the monomials: 7 orbits for the 42 monomials
    at n=4, D=3.  Its tables are closed forms (_edge_moment_table).  The
    sizes are capped by REVERSED_ADVANTAGE_ENVELOPE (n <= 4, D <= 3).
    """
    for name, got in (("n", params.n), ("D", D)):
        gc.check_budget("certificate.reversed_advantage_exact", f"exact reversed advantage {name}", got,
                        REVERSED_ADVANTAGE_ENVELOPE[name])
    if not bs._exact_inputs(params.lam, params.eps):
        raise ValueError("exact reversed advantage needs rational parameters")
    n, k, q0 = params.n, params.k, bs.null_edge_prob(params)
    planted = _edge_moment_table(n, ms.label_classes(n, k), *ms.sbm_block_probs(n, k, params.lam, params.eps))
    null = _edge_moment_table(n, {0: 1}, q0, q0)
    return gram_schmidt_report(*orbit_gram(planted, null, edge_orbits(n, D)), True, D)


def _edge_moment_table(n: int, classes: dict[int, int], p_in, p_out) -> tuple[list[int], int]:
    """(nums, den), nums[T] / den the chance that every edge of the mask T over
    ms.edge_bits(n) is present when the count labelings of each equal-label
    edge set intra in classes keep each edge with probability p_in on intra
    and p_out off it, independently."""
    m = n * (n - 1) // 2
    (a_in, a_out), den = ms.integer_weights([p_in, p_out])
    nums = [den ** (m - mask.bit_count())
            * sum(count * a_in ** (mask & intra).bit_count() * a_out ** (mask & ~intra).bit_count()
                  for intra, count in classes.items())
            for mask in range(1 << m)]
    return nums, sum(classes.values()) * den ** m


def duality_gap(params: ModelParams, D: int) -> tuple:
    """(exact reversed advantage, dual norm) with the exact-moment kernel.

    The dual built on the exact kernel solves the exact linear system, so
    its norm upper-bounds the exact advantage, and a violation raises.
    The sandwich is decided exactly: norm_squared - value_squared >= 0 by
    Rad.sign, whether the squared norm is a Fraction (k = 2) or a Rad.
    """
    rep = reversed_advantage_exact(params, D)
    dual = build_dual(params, D, kernel=EXACT_KERNEL)
    if Rad.of(dual.norm_squared - rep.value_squared).sign() < 0:
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
    m, e = len(comps), len(s.edges)
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
