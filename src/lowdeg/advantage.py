"""Low-degree advantage computation on enumerable instances.

Three routes are provided and cross-checked by the tests: the product
basis route (exact, for independent-edge nulls), generic Gram-Schmidt
orthogonalization over an explicit feature map (exact when both measures
are, float otherwise), and a generalized Rayleigh-quotient route through the
feature Gram matrix.  On top of these sit the conditional advantage for
matching-joint measures and the hidden-informative-sample advantage, which
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
from .measures import ENUMERATION_BUDGET, DiscreteMeasure, integer_weights
from .params import ModelParams


@dataclass
class AdvantageReport:
    """Result of one advantage computation.

    value_squared is exact (Fraction) when the inputs were; value is its
    float square root.  per_index holds the squared projection carried by
    each nonconstant basis direction.
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
    """Advantage via the centered-edge product basis.

    Valid when the null is the independent-edge measure matching the basis
    normalization in q_params; the squared advantage is then one plus the
    sum of squared alternative-expectations over nonempty indices.  Each
    square is E[prod_{e in S} (x_e - q)]^2 / (q(1-q))^deg, taken from the
    unnormalized centered moment (bs.centered_moments), so exact inputs
    give Fractions and no square root is formed; bs.evaluate_basis is the
    pointwise oracle.  kind is "pair" for graph-pair atoms, else "single".
    At q = 1 every nonempty index has null variance 0 and is skipped, as
    Gram-Schmidt drops it, so the value is 1.
    """
    n = q_params.n
    if kind == "pair":
        indices, q = bs.pair_indices(n, D), bs.pair_edge_prob(q_params)
    else:
        indices, q = bs.single_indices(n, D), bs.null_edge_prob(q_params)
    indices = [idx for idx in indices if idx.degree] if q * (1 - q) else []
    per_index = {}
    total = Fraction(1) if p.exact else 1.0
    for idx, raw in zip(indices, bs.centered_moments(p, indices, n, q)):
        contrib = raw * raw / (q * (1 - q)) ** idx.degree
        key = _index_key(idx)
        per_index[key] = per_index.get(key, 0) + contrib
        total = total + contrib
    return AdvantageReport(D, _to_float_sq(total), total, "product_basis", per_index)


def _index_key(idx: bs.BasisIndex):
    if idx.kind == "pair":
        return (gc.canonicalize(idx.s1).hex_form, gc.canonicalize(idx.s2).hex_form)
    return gc.canonicalize(idx.s1).hex_form


# -- generic feature maps ---------------------------------------------------------


def _edge_coordinates(measure: DiscreteMeasure):
    """(coords, pair): the sorted edge coordinates default_features grades,
    tagged (side, edge) when pair is True (graph-pair atoms); None for
    abstract atoms."""
    atom = measure.outcomes[0]
    if isinstance(atom, frozenset):
        return sorted({e for x in measure.outcomes for e in x}), False
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
                feats.append((k, lambda x, c=combo: int(all(e in x for e in c))))
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
    exact=None means exact iff both measures are.
    """
    feats, degree = _features(q, features, D)
    if exact is None:
        exact = q.exact and p.exact
    gram_inputs = _null_gram(p, q, feats, exact, monomial_degree=D if features is None else None)
    return gram_schmidt_report(*gram_inputs, exact, degree)


def gram_schmidt_report(gram: list[list], means: list, exact: bool, degree: int) -> AdvantageReport:
    """Gram-Schmidt's report from the null Gram matrix and alternative means
    of features whose first is the constant 1, by _ldl."""
    _lower, pivots, reduced = _ldl(gram, means, exact)
    per_index = {i: r * r / d for i, (d, r) in enumerate(zip(pivots, reduced)) if i and d}
    total = (Fraction(1) if exact else 1.0) + sum(per_index.values())
    return AdvantageReport(degree, _to_float_sq(total), total, "gram_schmidt", per_index)


def _features(q: DiscreteMeasure, features, D) -> tuple[list, int]:
    """The feature list (default_features(q, D) if none is given) and the
    degree of the report."""
    if features is None:
        if D is None:
            raise ValueError("need features or D")
        features = default_features(q, D)
    return features, D if D is not None else max(d for d, _ in features)


def _null_gram(p: DiscreteMeasure, q: DiscreteMeasure, features: list, exact: bool,
               monomial_degree: int | None = None):
    """The null Gram matrix G_ij = E_Q[f_i f_j] and the alternative means
    c_i = E_P[f_i] as nested lists.  P's weights are carried onto the null
    atoms, so an alternative that charges an atom outside the null support
    is rejected.

    Every entry is an exact sum of integers over a common denominator; float
    mode rounds each finished entry once.  The features
    default_features(q, monomial_degree) on graph or graph-pair atoms are
    read off one superset-sum table per measure (_monomial_gram) if its 2^N
    entries fit ENUMERATION_BUDGET.  Otherwise each feature is evaluated
    once per null atom, and integer numerators are summed once per pair
    j <= i of the symmetric G."""
    at = {x: a for a, x in enumerate(q.outcomes)}
    pw = [0] * len(q)
    for x, w in p:
        if w:
            a = at.get(x)
            if a is None or not q.weights[a]:
                raise ValueError("alternative charges atoms outside the null support")
            pw[a] += w
    coords = _edge_coordinates(q) if monomial_degree is not None else None
    if coords is not None and 1 << len(coords[0]) <= ENUMERATION_BUDGET:
        gram, means = _monomial_gram(q, pw, *coords, monomial_degree)
    else:
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
    if exact:
        return gram, means
    return [list(map(float, row)) for row in gram], list(map(float, means))


def _monomial_gram(q: DiscreteMeasure, pw: list, coords: list, pair: bool, D: int):
    """_null_gram of default_features(q, D) by orbit_gram, one orbit per
    monomial in default_features' order, on the atoms' masks over coords."""
    bit = {c: 1 << t for t, c in enumerate(coords)}
    if pair:
        masks = [sum(bit[0, e] for e in a) + sum(bit[1, e] for e in b) for a, b in q.outcomes]
    else:
        masks = [sum(map(bit.__getitem__, x)) for x in q.outcomes]
    table_q, table_p = ((_superset_sums(masks, w, len(coords)), den)
                        for w, den in (integer_weights(q.weights), integer_weights(pw)))
    mono = [sum(1 << t for t in c) for k in range(D + 1)
            for c in itertools.combinations(range(len(coords)), k)]
    return orbit_gram(table_q, table_p, {a: (a,) for a in mono})


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


def _superset_sums(masks: list[int], weights: list[int], bits: int) -> list[int]:
    """M(T) = sum of weights[a] over the masks[a] that contain T, for every
    T below 2^bits, by Yates' zeta transform (bits * 2^(bits-1) additions)."""
    table = [0] * (1 << bits)
    for m, w in zip(masks, weights):
        table[m] += w
    for t in range(bits):
        b = 1 << t
        for m in range(1 << bits):
            if m & b:
                table[m ^ b] += table[m]
    return table


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

    feats, degree = _features(q, features, D)
    gram, c = (np.array(m) for m in _null_gram(p, q, feats, False,
                                                monomial_degree=D if features is None else None))
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
