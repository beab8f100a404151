"""Low-degree advantage computation on enumerable instances.

Three routes are provided and cross-checked by the tests: the product
basis route (exact, for independent-edge nulls), generic Gram-Schmidt
orthogonalization over an explicit feature map (exact on small supports,
float otherwise), and a generalized Rayleigh-quotient route through the
feature Gram matrix.  On top of these sit the conditional advantage for
matching-joint measures and the hidden-informative-sample construction,
which dilutes a base testing problem across M independent coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import basis as bs
from . import graph_core as gc
from .measures import DiscreteMeasure
from .models import ModelParams


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

    def top_contributions(self, count: int = 10) -> list[tuple[object, float]]:
        items = sorted(self.per_index.items(), key=lambda kv: -float(kv[1]))
        return [(k, float(v)) for k, v in items[:count]]


def _to_float_sq(value_squared) -> float:
    v = float(value_squared)
    if v < 0 and v > -1e-12:
        v = 0.0
    return math.sqrt(v)


def advantage_product_basis(p: DiscreteMeasure, q_params: ModelParams, D: int,
                            kind: str | None = None) -> AdvantageReport:
    """Advantage via the centered-edge product basis.

    Valid when the null is the independent-edge measure matching the basis
    normalization in q_params; the squared advantage is then one plus the
    sum of squared alternative-expectations over nonempty indices.  Each
    square is E[prod_{e in S} (x_e - q)]^2 / (q(1-q))^deg, taken from the
    unnormalized centered moment (bs.centered_moments), so exact inputs
    give Fractions and no square root is formed; bs.evaluate_basis is the
    pointwise oracle.
    """
    atom = p.outcomes[0]
    if kind is None:
        kind = "pair" if isinstance(atom, tuple) and len(atom) == 2 else "single"
    n = q_params.n
    if kind == "pair":
        indices, q = bs.pair_indices(n, D), bs.pair_edge_prob(q_params)
    else:
        indices, q = bs.single_indices(n, D), bs.null_edge_prob(q_params)
    indices = [idx for idx in indices if idx.degree]
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


def default_features(measure: DiscreteMeasure, D: int) -> list[tuple[int, Callable]]:
    """Degree-graded feature map for the atoms of a measure.

    Graph and graph-pair atoms get edge-indicator monomials up to degree D;
    abstract atoms get one-hot indicators (degree one each).
    """
    atom = measure.outcomes[0]
    if isinstance(atom, frozenset):
        pairs = sorted({e for x in measure.outcomes for e in x})
        feats: list[tuple[int, Callable]] = [(0, lambda x: 1)]
        for k in range(1, D + 1):
            for combo in itertools.combinations(pairs, k):
                feats.append((k, lambda x, c=combo: int(all(e in x for e in c))))
        return feats
    if isinstance(atom, tuple) and len(atom) == 2 and isinstance(atom[0], frozenset):
        pa = sorted({e for x in measure.outcomes for e in x[0]})
        pb = sorted({e for x in measure.outcomes for e in x[1]})
        tagged = [(0, e) for e in pa] + [(1, e) for e in pb]
        feats = [(0, lambda x: 1)]
        for k in range(1, D + 1):
            for combo in itertools.combinations(tagged, k):
                def fn(x, c=combo):
                    return int(all(e in x[side] for side, e in c))
                feats.append((k, fn))
        return feats
    # abstract atoms: indicators of all but the first support point
    support = list(measure.outcomes)
    feats = [(0, lambda x: 1)]
    for pt in support[1:]:
        feats.append((1, lambda x, p=pt: int(x == p)))
    return feats


def advantage_gram_schmidt(p: DiscreteMeasure, q: DiscreteMeasure,
                           features: list[tuple[int, Callable]] | None = None,
                           D: int | None = None, exact: bool | None = None) -> AdvantageReport:
    """Advantage by orthogonalizing an explicit feature list under the null.

    Exact mode runs unnormalized Gram-Schmidt in rational arithmetic;
    directions that vanish almost surely under the null are discarded
    after checking the alternative does not charge them (otherwise the
    advantage is infinite and a ValueError is raised).
    """
    if features is None:
        if D is None:
            raise ValueError("need features or D")
        features = default_features(q, D)
    degree = D if D is not None else max(d for d, _ in features)
    if exact is None:
        exact = q.exact and p.exact and len(q) * len(features) <= 1 << 18
    qw = {x: w for x, w in q}
    missing = [x for x, w in p if w != 0 and qw.get(x, 0) == 0]
    if missing:
        raise ValueError("alternative charges atoms outside the null support")
    if exact:
        return _gram_schmidt_exact(p, q, features, degree)
    return _gram_schmidt_float(p, q, features, degree)


def _gram_schmidt_exact(p, q, features, degree):
    cols = [[Fraction(fn(x)) for x in q.outcomes] for _, fn in features]
    w = [Fraction(wt) for wt in q.weights]
    p_cols = [[Fraction(fn(x)) for x in p.outcomes] for _, fn in features]
    pw = [Fraction(wt) for wt in p.weights]
    kept: list[list[Fraction]] = []
    kept_norm: list[Fraction] = []
    kept_p: list[Fraction] = []
    per_index = {}
    for fi, col in enumerate(cols):
        e = col[:]
        pe = p_cols[fi][:]
        for basis_vec, norm, basis_p in zip(kept, kept_norm, kept_p):
            inner = sum(wi * a * b for wi, a, b in zip(w, e, basis_vec))
            if inner:
                coef = inner / norm
                e = [a - coef * b for a, b in zip(e, basis_vec)]
                pe = [a - coef * b for a, b in zip(pe, basis_p)]
        norm = sum(wi * a * a for wi, a in zip(w, e))
        p_exp = sum(wi * a for wi, a in zip(pw, pe))
        if norm == 0:
            if p_exp != 0:
                raise ValueError("null direction with nonzero alternative mean: advantage infinite")
            continue
        kept.append(e)
        kept_norm.append(norm)
        kept_p.append(pe)
        if fi > 0:
            per_index[fi] = p_exp * p_exp / norm
    total = Fraction(1) + sum(per_index.values(), Fraction(0))
    return AdvantageReport(degree, _to_float_sq(total), total, "gram_schmidt", per_index)


def _gram_schmidt_float(p, q, features, degree):
    fq = np.array([[float(fn(x)) for x in q.outcomes] for _, fn in features])
    wq = np.array([float(w) for w in q.weights])
    fp = np.array([[float(fn(x)) for x in p.outcomes] for _, fn in features])
    wp = np.array([float(w) for w in p.weights])
    per_index = {}
    kept_rows = []
    kept_p_rows = []
    kept_norms = []
    scale = float(np.max(np.abs(fq))) or 1.0
    for fi in range(fq.shape[0]):
        e = fq[fi].copy()
        pe = fp[fi].copy()
        for row, prow, norm in zip(kept_rows, kept_p_rows, kept_norms):
            coef = float(np.dot(wq * e, row)) / norm
            e -= coef * row
            pe -= coef * prow
        norm = float(np.dot(wq * e, e))
        if norm <= (1e-10 * scale) ** 2:
            p_exp = float(np.dot(wp, pe))
            if abs(p_exp) > 1e-8:
                raise ValueError("null direction with nonzero alternative mean: advantage infinite")
            continue
        kept_rows.append(e)
        kept_p_rows.append(pe)
        kept_norms.append(norm)
        if fi > 0:
            p_exp = float(np.dot(wp, pe))
            per_index[fi] = p_exp * p_exp / norm
    total = 1.0 + sum(per_index.values())
    return AdvantageReport(degree, math.sqrt(total), total, "gram_schmidt", per_index)


def advantage_rayleigh(p: DiscreteMeasure, q: DiscreteMeasure,
                       features: list[tuple[int, Callable]] | None = None,
                       D: int | None = None) -> AdvantageReport:
    """Advantage as sqrt(c^T A^+ c) with A the feature Gram matrix under the
    null and c the alternative feature means (float route)."""
    if features is None:
        if D is None:
            raise ValueError("need features or D")
        features = default_features(q, D)
    degree = D if D is not None else max(d for d, _ in features)
    fq = np.array([[float(fn(x)) for x in q.outcomes] for _, fn in features])
    wq = np.array([float(w) for w in q.weights])
    fp = np.array([[float(fn(x)) for x in p.outcomes] for _, fn in features])
    wp = np.array([float(w) for w in p.weights])
    gram = (fq * wq) @ fq.T
    c = fp @ wp
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
    report = advantage_product_basis(cond, q_params, D, kind="pair")
    report.method = "product_basis"
    return report


def grouped_conditional_expectation(joint: DiscreteMeasure, idx: bs.BasisIndex,
                                    q_params: ModelParams, i: int, j: int):
    """The conditional basis expectation computed by grouping atoms per
    permutation; must equal the direct conditional expectation."""
    groups: dict[tuple, list] = {}
    for (pi, a, b), w in joint:
        if pi[i] == j:
            groups.setdefault(pi, []).append(((a, b), w))
    total = 0
    mass = 0
    for pi, rows in groups.items():
        for (ab, w) in rows:
            total = total + w * bs.evaluate_basis(idx, ab, q_params)
            mass = mass + w
    return total / mass


# -- hidden informative sample ------------------------------------------------------


def hidden_sample_size(error_rate: float, n: int) -> int:
    """Coordinate count min(n, ceil(error_rate^(-1/2)))."""
    if not 0 < error_rate <= 1:
        raise ValueError("error rate must lie in (0, 1]")
    return min(n, math.ceil(1.0 / math.sqrt(float(error_rate))))


@dataclass(frozen=True)
class HiddenSampleProblem:
    """M-fold product null against a uniformly hidden single planted slot."""

    base_null: DiscreteMeasure
    base_alt: DiscreteMeasure
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        # fail fast if the likelihood ratio is undefined
        self.base_alt.likelihood_ratio_table(self.base_null)

    @classmethod
    def from_error_rate(cls, base_null, base_alt, error_rate, n) -> "HiddenSampleProblem":
        return cls(base_null, base_alt, hidden_sample_size(error_rate, n))

    def composite_null(self) -> DiscreteMeasure:
        return self.base_null.power(self.M)

    def composite_alt(self) -> DiscreteMeasure:
        comps = []
        coeffs = []
        one = Fraction(1, self.M) if self.base_null.exact and self.base_alt.exact else 1.0 / self.M
        for kappa in range(self.M):
            parts = [self.base_alt if i == kappa else self.base_null for i in range(self.M)]
            prod = parts[0]
            for nxt in parts[1:]:
                prod = prod.product(nxt)
            prod = prod.map(_flatten_pair_tuple(self.M))
            comps.append(prod)
            coeffs.append(one)
        return DiscreteMeasure.mixture(comps, coeffs)


def _flatten_pair_tuple(m: int):
    def flatten(x):
        out = []
        def rec(y, depth):
            if depth == 0:
                out.append(y)
            else:
                rec(y[0], depth - 1)
                out.append(y[1])
        rec(x, m - 1)
        return tuple(out)
    return flatten


def build_hidden_sample(base_null: DiscreteMeasure, base_alt: DiscreteMeasure, M: int) -> HiddenSampleProblem:
    return HiddenSampleProblem(base_null, base_alt, M)


def hidden_likelihood_ratio(problem: HiddenSampleProblem, outcome: tuple):
    """Likelihood ratio of the composite pair at an M-tuple: the average of
    the base ratios over the coordinates."""
    table = problem.base_alt.likelihood_ratio_table(problem.base_null)
    total = 0
    for y in outcome:
        if y not in table:
            raise ValueError(f"outcome {y!r} outside the base null support")
        total = total + table[y]
    return total / problem.M


def hidden_sample_advantage(problem: HiddenSampleProblem, D: int) -> AdvantageReport:
    """Advantage of the composite problem, computed directly.

    The base one-hot features are orthogonalized under the base null; the
    composite basis consists of coordinatewise products with at most D
    nonconstant factors, and the squared advantage sums the squared
    composite-alternative means.  Exact in rational mode.
    """
    null = problem.base_null
    exact = null.exact and problem.base_alt.exact
    one = Fraction(1) if exact else 1.0
    feats = default_features(null, 1)[1:]  # nonconstant one-hots
    cols = [[(Fraction(fn(x)) if exact else float(fn(x))) for x in null.outcomes] for _, fn in feats]
    w = null.weights
    kept: list[list] = [[one] * len(null)]  # start from the constant function
    norms: list = [one]
    for col in cols:
        e = col[:]
        for vec, norm in zip(kept, norms):
            inner = sum(wi * a * b for wi, a, b in zip(w, e, vec))
            if inner != 0:
                coef = inner / norm
                e = [a - coef * b for a, b in zip(e, vec)]
        norm = sum(wi * a * a for wi, a in zip(w, e))
        if norm == 0:
            continue
        kept.append(e)
        norms.append(norm)
    kept, norms = kept[1:], norms[1:]  # products use only nonconstant directions
    atom_value = [
        {x: e[i] for i, x in enumerate(null.outcomes)} for e in kept
    ]
    alt = problem.composite_alt()
    M = problem.M
    total = Fraction(1) if exact else 1.0
    per_index = {}
    r = len(kept)
    for size in range(1, min(D, M) + 1):
        for slots in itertools.combinations(range(M), size):
            for assign in itertools.product(range(r), repeat=size):
                mean = alt.expectation(
                    lambda y, s=slots, a=assign: _prod(atom_value[ai][y[si]] for si, ai in zip(s, a))
                )
                norm = _prod(norms[ai] for ai in assign)
                contrib = mean * mean / norm
                total = total + contrib
                per_index[(slots, assign)] = contrib
    return AdvantageReport(D, _to_float_sq(total), total, "product_basis", per_index)


def _prod(items):
    out = None
    for x in items:
        out = x if out is None else out * x
    return out if out is not None else 1
