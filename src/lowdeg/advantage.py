"""Low-degree advantage computation on enumerable instances.

Three routes are provided and cross-checked by the tests: the product
basis route (exact, for independent-edge nulls), generic Gram-Schmidt
orthogonalization over an explicit feature map (exact when both measures
are, float otherwise), and a generalized Rayleigh-quotient route through the
feature Gram matrix.  On graph and graph-pair atoms every route reads one
moment table per law (moment_table: M(T), the chance that every edge of the
mask T is present, held only on the masks below some atom) and works on the
orbits of the edge monomials under S_n or one vertex's stabilizer on each
graph, whichever fixes the tables it reads (symmetry_orbits): the product
basis takes one centered moment per orbit, and Gram-Schmidt and Rayleigh
orthogonalize the orbit sums (orbit_gram).  On top of these sit the
conditional advantage for matching-joint measures and the hidden-informative-sample advantage, which
dilutes a base testing problem across M independent coordinates: its
squared advantage is exactly 1 + (Adv^2(base) - 1)/M at every D >= 1.  It
is computed from the base pair alone; the tests build the M-fold composite
laws (tests/exact_oracles.py) and check the law against them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import basis as bs
from . import graph_core as gc
from .graph_core import _norm_edge, check_budget
from .measures import ENUMERATION_BUDGET, DiscreteMeasure, edge_bits, integer_weights
from .params import ModelParams


@dataclass
class AdvantageReport:
    """Result of one advantage computation.

    value_squared is exact (Fraction) when the inputs were; value is its
    float square root.  per_index holds the squared projection carried by
    the nonconstant basis directions, summed per key.
    """

    degree: int
    value: float
    value_squared: object
    method: str
    per_index: dict = field(default_factory=dict)


def _to_float_sq(value_squared) -> float:
    v = float(value_squared)
    if v < 0 and v > -1e-12:
        v = 0.0
    return math.sqrt(v)


def advantage_product_basis(p: DiscreteMeasure, q_params: ModelParams, D: int,
                            kind: str) -> AdvantageReport:
    """Advantage via the centered-edge product basis, valid when the null is
    the independent-edge measure matching the basis normalization in
    q_params: one plus m_S^2 / (q(1-q))^|S| over the nonempty indices S, the
    centered moment m_S = E[prod_{e in S} (x_e - q)] read exactly off P's
    moment table (centered_moment; bs.evaluate_basis is the pointwise
    oracle).  An orbit A of indices (symmetry_orbits) carries
    |A| m_S^2 / (q(1-q))^|S|, keyed by the class of S, or of S1 and of S2
    when kind is "pair".  At q = 1 every index
    has null variance 0 and is skipped, as Gram-Schmidt drops it."""
    n, pair = q_params.n, kind == "pair"
    q = bs.pair_edge_prob(q_params) if pair else bs.null_edge_prob(q_params)
    coords = [(side, e) for side in range(1 + pair) for e in edge_bits(n)]
    table = moment_table(p.outcomes, p.weights, coords, pair)
    orbits, keys = symmetry_orbits(coords, [(table[0], D)], D, pair) if q * (1 - q) else ({}, [])
    keyed = [(key, len(a) * centered_moment(table, s, q) ** 2 / (q * (1 - q)) ** s.bit_count())
             for key, (s, a) in zip(keys, orbits.items()) if s]
    return _keyed_report(D, "product_basis", p.exact, keyed)


def _keyed_report(degree: int, method: str, exact: bool, keyed: list) -> AdvantageReport:
    """The report of squared advantage 1 plus every contribution of the
    (key, contribution) pairs keyed, with per_index their sum per key."""
    per_index = {}
    for key, c in keyed:
        per_index[key] = per_index.get(key, 0) + c
    total = (Fraction(1) if exact else 1.0) + sum(c for _, c in keyed)
    return AdvantageReport(degree, _to_float_sq(total), total, method, per_index)


# -- generic feature maps ---------------------------------------------------------


def _edge_coordinates(measure: DiscreteMeasure):
    """(coords, pair): the sorted edge coordinates default_features grades,
    tagged (side, edge), side 0 on single graphs, side 0 or 1 when pair is
    True (graph-pair atoms); None for abstract atoms."""
    atom = measure.outcomes[0]
    if isinstance(atom, frozenset):
        return [(0, e) for e in sorted({e for x in measure.outcomes for e in x})], False
    if isinstance(atom, tuple) and len(atom) == 2 and isinstance(atom[0], frozenset):
        return [(side, e) for side in (0, 1)
                for e in sorted({e for x in measure.outcomes for e in x[side]})], True
    return None


def default_features(measure: DiscreteMeasure, D: int) -> list[tuple[int, Callable]]:
    """Degree-graded feature map for the atoms of a measure.

    Graph and graph-pair atoms get edge-indicator monomials up to degree D;
    abstract atoms get one-hot indicators (degree one each).
    """
    feats: list[tuple[int, Callable]] = [(0, lambda x: 1)]
    coords = _edge_coordinates(measure)
    if coords is None:  # abstract atoms: indicators of all but the first support point
        for pt in list(measure.outcomes)[1:]:
            feats.append((1, lambda x, p=pt: int(x == p)))
        return feats
    coords, pair = coords
    for k in range(1, D + 1):
        for combo in itertools.combinations(coords, k):
            if pair:
                feats.append((k, lambda x, c=combo: int(all(e in x[side] for side, e in c))))
            else:
                feats.append((k, lambda x, c=combo: int(all(e in x for _, e in c))))
    return feats


def advantage_gram_schmidt(p: DiscreteMeasure, q: DiscreteMeasure,
                           features: list[tuple[int, Callable]] | None = None,
                           D: int | None = None, exact: bool | None = None) -> AdvantageReport:
    """Advantage by orthogonalizing an explicit feature list under the null.

    The features are orthogonalized through the null Gram matrix
    (_null_gram, _ldl): the i-th direction carries E_P[e_i]^2 / E_Q[e_i^2],
    exactly in rational mode.  Directions that vanish almost surely under
    the null are discarded after checking the alternative does not charge
    them (otherwise the advantage is infinite and a ValueError is raised).
    exact=None means exact iff both measures are.  per_index is keyed by
    class on graph atoms with no features given, else by feature position.
    """
    if exact is None:
        exact = q.exact and p.exact
    gram, means, keys, degree = _null_gram(p, q, features, D, exact)
    return gram_schmidt_report(gram, means, exact, degree, keys)


def gram_schmidt_report(gram: list[list], means: list, exact: bool, degree: int,
                        keys: list | None = None) -> AdvantageReport:
    """Gram-Schmidt's report from the null Gram matrix and alternative means
    of features whose first is the constant 1, by _ldl.  per_index sums the
    contribution of feature i under keys[i] (its position by default)."""
    _lower, pivots, reduced = _ldl(gram, means, exact)
    keys = keys or range(len(gram))
    return _keyed_report(degree, "gram_schmidt", exact,
                         [(keys[i], r * r / d) for i, (d, r) in enumerate(zip(pivots, reduced)) if i and d])


def _null_gram(p: DiscreteMeasure, q: DiscreteMeasure, features: list | None, D: int | None,
               exact: bool):
    """(gram, means, keys, degree): the null Gram matrix G_ij = E_Q[f_i f_j]
    and the alternative means c_i = E_P[f_i] as nested lists, the per_index
    key of each feature, and the report's degree (D, else the features'
    top degree).  P's weights are carried onto the null atoms, so an
    alternative that charges an atom outside the null support is rejected.

    Every entry is an exact sum of integers over a common denominator;
    float mode rounds each finished entry once.  With no features given,
    graph atoms get the orbit sums of default_features(q, D), which span
    the same optimum, read off the down-closure moment tables and keyed
    by class (_monomial_gram).  Other features, and abstract atoms, are evaluated once
    per null atom and keyed by position."""
    if features is None and D is None:
        raise ValueError("need features or D")
    at = {x: a for a, x in enumerate(q.outcomes)}
    pw = [0] * len(q)
    for x, w in p:
        if w:
            a = at.get(x)
            if a is None or not q.weights[a]:
                raise ValueError("alternative charges atoms outside the null support")
            pw[a] += w
    coords = _edge_coordinates(q) if features is None else None
    if coords is not None:
        gram, means, keys = _monomial_gram(q, pw, *coords, D)
    else:
        keys, features = None, default_features(q, D) if features is None else features
        values = [[fn(x) for x in q.outcomes] for _, fn in features]
        nums, s = integer_weights([v for row in values for v in row])
        f = [nums[i:i + len(q)] for i in range(0, len(nums), len(q))]
        (wq, den_q), (wp, den_p) = integer_weights(q.weights), integer_weights(pw)
        gram = [[None] * len(f) for _ in f]
        for i, row in enumerate(f):
            fw = list(map(operator.mul, row, wq))
            for j in range(i + 1):
                gram[i][j] = gram[j][i] = Fraction(sum(map(operator.mul, fw, f[j])), den_q * s * s)
        means = [Fraction(sum(map(operator.mul, row, wp)), den_p * s) for row in f]
    if not exact:
        gram, means = [list(map(float, row)) for row in gram], list(map(float, means))
    return gram, means, keys, D if D is not None else max(d for d, _ in features)


def _monomial_gram(q: DiscreteMeasure, pw: list, coords: list, pair: bool, D: int):
    """(gram, means, keys) of the orbit sums of default_features(q, D) by
    orbit_gram, on the symmetry_orbits of Q's table up to 2D bits and P's
    up to D."""
    table_q, table_p = (moment_table(q.outcomes, w, coords, pair) for w in (q.weights, pw))
    orbits, keys = symmetry_orbits(coords, [(table_q[0], 2 * D), (table_p[0], D)], D, pair)
    return (*orbit_gram(table_q, table_p, orbits), keys)


def orbit_gram(table_q: tuple, table_p: tuple, orbits: dict) -> tuple[list, list]:
    """Null Gram matrix and alternative means of orbit-summed monomials.  A
    table (nums, den) gives M(T) = nums[T] / den, the chance that the
    coordinates in the mask T are all 1, and orbits maps each representative
    mask to its orbit A.  For the orbits of a group that fixes Q and P,
    G_AB = |A| sum_{t in B} M_Q(rep A | t) and c_A = |A| M_P(rep A)."""
    (mq, den_q), (mp, den_p) = table_q, table_p
    entry = functools.cache(lambda num: Fraction(num, den_q))  # one gcd and object per value
    gram = [[None] * len(orbits) for _ in orbits]
    for i, (a, orbit) in enumerate(orbits.items()):
        for j, other in enumerate(itertools.islice(orbits.values(), i + 1)):
            gram[i][j] = gram[j][i] = entry(len(orbit) * sum(mq[a | t] for t in other))
    return gram, [Fraction(len(orbit) * mp[a], den_p) for a, orbit in orbits.items()]


# -- moment tables and their symmetry orbits ----------------------------------------


class _Table(dict):
    """A sparse moment table's numerators: a mask it does not hold reads 0."""
    def __missing__(self, mask: int) -> int:
        return 0


def moment_table(outcomes: list, weights: list, coords: list, pair: bool) -> tuple[dict[int, int], int]:
    """(M, den): M[T] / den is the weight of the graph or graph-pair atoms
    that have every coordinate (side, edge) of the mask T over coords, in
    integers over the weights' common denominator (floats taken exactly).
    M holds only the masks below some atom's mask, by Yates' zeta transform
    over the masks present, and reads 0 at any other; its size bound
    min(2^len(coords), sum over atoms of 2^|atom|) is held to
    ENUMERATION_BUDGET."""
    bit = {c: 1 << t for t, c in enumerate(coords)}
    nums, den = integer_weights(weights)
    table = _Table()
    for x, w in zip(outcomes, nums):
        table[sum(bit[side, e] for side, g in enumerate(x if pair else (x,)) for e in g)] += w
    check_budget("advantage.moment_table", "moment-table entries",
                 min(1 << len(coords), sum(1 << m.bit_count() for m in table)), ENUMERATION_BUDGET)
    for b in (1 << t for t in range(len(coords))):
        for m in [m for m in table if m & b]:
            table[m ^ b] += table[m]
    return table, den


def centered_moment(table: tuple, s: int, q) -> Fraction:
    """E[prod_{t in S} (x_t - q)] for the mask S, exactly, from a moment
    table (nums, den): the sum over T within S of (-q)^|S \\ T| M(T)."""
    nums, den = table
    q, total, t = Fraction(q), 0, s
    while True:
        total += (-q) ** (s ^ t).bit_count() * nums[t]
        if not t:
            return total / den
        t = (t - 1) & s


def byte_tables(image: list[int]) -> list[tuple[int, list[int]]]:
    """The bit permutation that sends bit t to image[t], as (shift, table)
    per byte of a mask: table[b] is the OR of the images of the bits of the
    byte b (apply_bytes)."""
    out = []
    for start in range(0, len(image), 8):
        table = [0]
        for img in image[start:start + 8]:
            table += [x | img for x in table]
        out.append((start, table))
    return out


def apply_bytes(tables: list[tuple[int, list[int]]], mask: int) -> int:
    """The image of mask under the byte_tables permutation tables."""
    img = 0
    for shift, table in tables:
        img |= table[mask >> shift & 255]
    return img


def small_masks(bits: int, max_size: int):
    """The masks below 2^bits with at most max_size bits set, by size and
    then in combinations order (default_features' order of monomials)."""
    singles = [1 << t for t in range(bits)]
    return (sum(c) for size in range(max_size + 1) for c in itertools.combinations(singles, size))


def mask_orbits(gens: list[list], masks) -> dict[int, frozenset[int]]:
    """Representative -> orbit for masks, a family closed under the group the
    byte_tables permutations gens generate: representatives in the order of
    masks, each the first of its orbit there, each orbit its closure."""
    orbits: dict[int, frozenset[int]] = {}
    placed: set[int] = set()
    for mask in masks:
        if mask in placed:
            continue
        orbit, frontier = {mask}, [mask]
        while frontier:
            src = frontier.pop()
            for tables in gens:
                img = apply_bytes(tables, src)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        orbits[mask] = frozenset(orbit)
        placed |= orbit
    return orbits


def vertex_generators(edges: list, vertices) -> list | None:
    """byte_tables of (v0 v1) and (v0 v1 ... v_last), generators of S_vertices,
    on the bitmasks over edges; None if one sends an edge outside edges."""
    bit, vs, gens = {e: 1 << t for t, e in enumerate(edges)}, list(vertices), []
    for cycle in (vs[:2], vs):
        p = dict(zip(cycle, cycle[1:] + cycle[:1]))
        image = [bit.get(_norm_edge(p.get(u, u), p.get(v, v))) for u, v in edges]
        if None in image:
            return None
        gens.append(byte_tables(image))
    return gens


def symmetry_orbits(coords: list, reads: list[tuple[dict, int]], D: int, pair: bool) -> tuple[dict, list]:
    """(orbits, keys) of the monomials of at most D coordinates (side, edge)
    under G_0 x G_1.  G_s is the first of S_n, Stab(0), ..., Stab(n-1) whose
    vertex_generators, acting on side s, fix each (table, k) in reads on the
    masks of at most k bits it holds, hence on all (else G_s is trivial), so
    it fixes every Gram entry and mean a route reads.  An orbit is a product
    of side orbits (mask_orbits), its key the tuple of their classes on n
    vertices."""
    n = 1 + max((v for _, e in coords for v in e), default=0)
    factors, off = [], 0
    for side in range(1 + pair):
        edges = [e for s, e in coords if s == side]
        low = (1 << len(edges)) - 1 << off
        for vs in [range(n)] + [[u for u in range(n) if u != v] for v in range(n)]:
            gens = vertex_generators(edges, vs)
            if gens is not None and all(table[m] == table[m & ~low | apply_bytes(g, (m & low) >> off) << off]
                                        for g in gens for table, k in reads for m in table if m.bit_count() <= k):
                break
        else:
            gens = []
        factors.append([(rep << off, frozenset(m << off for m in orbit), gc.canonicalize(
            gc.graph(n, [e for t, e in enumerate(edges) if rep >> t & 1])).hex_form)
            for rep, orbit in mask_orbits(gens, small_masks(len(edges), D)).items()])
        off += len(edges)
    prods = {sum(r for r, _, _ in f): list(zip(*f))[1:] for f in itertools.product(*factors)}
    order = [m for m in small_masks(off, D) if m in prods]
    return ({m: frozenset(map(sum, itertools.product(*prods[m][0]))) for m in order},
            [prods[m][1] if pair else prods[m][1][0] for m in order])


def _ldl(gram: list[list], means: list, exact: bool):
    """Orthogonalize features from their null Gram matrix by one
    unnormalized LDL^T pass.

    Returns (lower, pivots, reduced): e_i = f_i - sum_k lower[i][k] e_k is
    the i-th orthogonalized feature, pivots[i] = E_Q[e_i^2] and
    reduced[i] = E_P[e_i] (L^-1 c).  A pivot at or below tolerance (0
    exact, 1e-10 G_ii in float) is a direction that vanishes under the
    null: it is stored as 0 and no later feature is projected on it; if the
    alternative charges it (by more than 1e-8 in float) the advantage is
    infinite and ValueError is raised.  In exact arithmetic these are the
    values of Gram-Schmidt run on the feature columns, computed in integers
    by _ldl_fraction_free.
    """
    if exact:
        return _ldl_fraction_free(gram, means)
    lower: list[list] = []
    pivots, reduced = [], []
    for i, g_row in enumerate(gram):
        scaled: list = []  # scaled[k] = lower[i][k] * pivots[k]
        for k in range(i):
            scaled.append(g_row[k] - sum(map(operator.mul, scaled, lower[k])))
        l_row = [t / d if d else 0 for t, d in zip(scaled, pivots)]
        pivot = g_row[i] - sum(map(operator.mul, scaled, l_row))
        mean = means[i] - sum(map(operator.mul, l_row, reduced))
        if pivot <= 1e-10 * g_row[i]:
            if abs(mean) > 1e-8:
                raise ValueError("null direction with nonzero alternative mean: advantage infinite")
            pivot = 0
        lower.append(l_row)
        pivots.append(pivot)
        reduced.append(mean)
    return lower, pivots, reduced


def _ldl_fraction_free(gram: list[list], means: list):
    """Exact _ldl by Bareiss' fraction-free elimination.

    G's lower triangle and the means c become integers a_ij and a_ic over
    their common denominators.  Eliminating kept pivot k from a later row i
    sets a_ij <- (a_kk a_ij - a_ik a_jk) / a_prev (j in k+1..i, and j = c),
    a_prev the previous kept pivot (1 at first): by Sylvester's identity
    each entry stays a bordered minor, so the division is exact, and
    a_kk / a_prev is the Schur pivot.  A pivot at or below 0 is skipped;
    for a PSD Gram matrix its Schur row is all zero.
    """
    size = len(gram)
    nums, den_g = integer_weights([g for i, row in enumerate(gram) for g in row[:i + 1]])
    rows = [nums[i * (i + 1) // 2:(i + 1) * (i + 2) // 2] for i in range(size)]
    col, den_c = integer_weights(means)
    lower = [[0] * i for i in range(size)]
    pivots, reduced = [], []
    prev = 1
    for k, row in enumerate(rows):
        piv, ck = row[k], col[k]
        if piv <= 0:
            if ck:
                raise ValueError("null direction with nonzero alternative mean: advantage infinite")
            pivots.append(0)
            reduced.append(Fraction(0))
            continue
        pivots.append(Fraction(piv, prev * den_g))
        reduced.append(Fraction(ck, prev * den_c))
        column = [r[k] for r in rows[k + 1:]]
        for i in range(k + 1, size):
            r, a = rows[i], rows[i][k]
            lower[i][k] = Fraction(a, piv)
            r[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(r[k + 1:], column)]
            col[i] = (piv * col[i] - a * ck) // prev
        prev = piv
    return lower, pivots, reduced


def advantage_rayleigh(p: DiscreteMeasure, q: DiscreteMeasure,
                       features: list[tuple[int, Callable]] | None = None,
                       D: int | None = None) -> AdvantageReport:
    """Advantage as sqrt(c^T A^+ c) with A the feature Gram matrix under the
    null and c the alternative feature means (float route, a least-squares
    cross-check of the LDL^T kernel that shares only the Gram builder)."""
    import numpy as np

    gram, c, _keys, degree = _null_gram(p, q, features, D, False)
    gram, c = np.array(gram), np.array(c)
    sol, *_ = np.linalg.lstsq(gram, c, rcond=1e-12)
    if not np.allclose(gram @ sol, c, atol=1e-8):
        raise ValueError("alternative mean outside the null feature range: advantage infinite")
    vsq = float(c @ sol)
    return AdvantageReport(degree, math.sqrt(max(vsq, 0.0)), vsq, "rayleigh")


# -- conditional advantage ---------------------------------------------------------


def condition_on_match(joint: DiscreteMeasure, i: int, j: int) -> DiscreteMeasure:
    """Condition a (pi, a, b) joint on pi(i) = j and marginalize to (a, b)."""
    return joint.condition(lambda x: x[0][i] == j).map(lambda x: (x[1], x[2]))


def conditional_advantage(joint: DiscreteMeasure, q_params: ModelParams, D: int,
                          i: int, j: int) -> AdvantageReport:
    """Advantage of the matching-conditioned alternative against the pair null."""
    cond = condition_on_match(joint, i, j)
    return advantage_product_basis(cond, q_params, D, kind="pair")


# -- hidden informative sample ------------------------------------------------------


def hidden_sample_size(error_rate: float, n: int) -> int:
    """Coordinate count min(n, ceil(error_rate^(-1/2)))."""
    if not 0 < error_rate <= 1:
        raise ValueError("error rate must lie in (0, 1]")
    return min(n, math.ceil(1.0 / math.sqrt(float(error_rate))))


@dataclass(frozen=True)
class HiddenSampleProblem:
    """M-fold product null against a uniformly hidden single planted slot,
    held as its base pair: the composite laws are never built here."""

    base_null: DiscreteMeasure
    base_alt: DiscreteMeasure
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        # fail fast if the likelihood ratio is undefined
        self.base_alt.likelihood_ratio_table(self.base_null)


def build_hidden_sample(base_null: DiscreteMeasure, base_alt: DiscreteMeasure, M: int) -> HiddenSampleProblem:
    return HiddenSampleProblem(base_null, base_alt, M)


def hidden_sample_law(base: AdvantageReport, M: int, D: int) -> AdvantageReport:
    """Advantage of the M-slot hidden-sample problem from its base report
    (the base pair over its degree-one features), by the 1/M law.

    A composite direction is a product of null-orthonormal base directions
    over its slots.  Under the component with base_alt in slot kappa its
    mean factors by slot and every other slot has null mean 0, so only
    single-slot products carry mean (E_alt[e]/M): for every D >= 1 the
    squared advantage is 1 + (Adv^2(base) - 1)/M.  per_index is keyed like
    the base report's: contribution / M, summed over the M slots.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    per_index = {i: c / M for i, c in base.per_index.items()}
    vsq = 1 + (base.value_squared - 1) / M
    return AdvantageReport(D, _to_float_sq(vsq), vsq, "hidden_sample_law", per_index)


def hidden_sample_advantage(problem: HiddenSampleProblem, D: int) -> AdvantageReport:
    """hidden_sample_law of the base's degree-one Gram-kernel report."""
    base = advantage_gram_schmidt(problem.base_alt, problem.base_null, D=1)
    return hidden_sample_law(base, problem.M, D)
