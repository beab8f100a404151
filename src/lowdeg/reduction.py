"""Reduction machinery from estimators to detection statistics: overlap,
entrywise indicator families, the truncation that enforces the row
constraints everywhere, the uniform-smoothing mixture, and an empirical
one-sided-test harness.

Estimators are plug-ins; only baselines ship here (identity, seeded
random, greedy degree-profile matching) since the reductions quantify
over arbitrary efficient estimators.  Empirical constant-order judgments
are parameterized thresholds supplied by the caller, never hard-coded.
Trials run on derived seeds and merge associatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import models as md
from .graph_core import LabeledGraph
from .models import CorrelatedSample, ModelParams, derived_rng


def overlap(pi: tuple[int, ...], pi_prime: tuple[int, ...]) -> Fraction:
    """Fraction of coordinates the two permutations match on."""
    if len(pi) != len(pi_prime):
        raise ValueError("permutations act on different sets")
    hits = sum(1 for a, b in zip(pi, pi_prime) if a == b)
    return Fraction(hits, len(pi))


def _adjacency(g: LabeledGraph) -> np.ndarray:
    a = np.zeros((g.n_vertices, g.n_vertices), dtype=bool)
    for u, v in g.edges:
        a[u, v] = a[v, u] = True
    return a


# -- estimators -------------------------------------------------------------------


def identity_estimator(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...]:
    return tuple(range(a.n_vertices))


def random_estimator_factory(seed: int) -> Callable:
    state = {"count": 0}

    def estimator(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...]:
        rng = derived_rng(seed, state["count"])
        state["count"] += 1
        return tuple(int(x) for x in rng.permutation(a.n_vertices))

    return estimator


def greedy_degree_estimator(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...]:
    """Match vertices by (degree, sorted neighbor degrees) profiles, greedily."""
    def profile(g: LabeledGraph):
        adj = _adjacency(g)
        deg = adj.sum(axis=1)
        return [
            (int(deg[v]), tuple(sorted((int(deg[u]) for u in np.nonzero(adj[v])[0]), reverse=True)))
            for v in range(g.n_vertices)
        ]

    pa = profile(a)
    pb = profile(b)
    order_a = sorted(range(a.n_vertices), key=lambda v: (pa[v], v), reverse=True)
    order_b = sorted(range(b.n_vertices), key=lambda v: (pb[v], v), reverse=True)
    pi = [0] * a.n_vertices
    for va, vb in zip(order_a, order_b):
        pi[va] = vb
    return tuple(pi)


ESTIMATORS = {
    "identity": lambda seed: identity_estimator,
    "random": random_estimator_factory,
    "greedy": lambda seed: greedy_degree_estimator,
}


# -- indicator families ----------------------------------------------------------


@dataclass
class IndicatorFamily:
    """Entrywise statistics h[i, j] evaluated per sample as an n x n array."""

    n: int
    fn: Callable  # (LabeledGraph, LabeledGraph) -> np.ndarray

    def evaluate(self, a: LabeledGraph, b: LabeledGraph) -> np.ndarray:
        out = np.asarray(self.fn(a, b), dtype=float)
        if out.shape != (self.n, self.n):
            raise ValueError(f"family returned shape {out.shape}, wanted {(self.n, self.n)}")
        return out


def estimator_to_indicators(estimator: Callable, n: int) -> IndicatorFamily:
    """One-hot rows of the estimated matching: h[i, j] = [estimate(i) == j]."""

    def fn(a: LabeledGraph, b: LabeledGraph) -> np.ndarray:
        pi = estimator(a, b)
        out = np.zeros((n, n))
        for i, j in enumerate(pi):
            out[i, j] = 1.0
        return out

    return IndicatorFamily(n, fn)


def truncate_family(family: IndicatorFamily) -> IndicatorFamily:
    """Zero the whole sample unless every entry is 0/1 and every row sums to 1.

    The output satisfies the strong row constraints on every input: entries
    in {0,1} and row sums in {0,1}.
    """

    def fn(a: LabeledGraph, b: LabeledGraph) -> np.ndarray:
        raw = family.evaluate(a, b)
        binary = np.all((raw == 0.0) | (raw == 1.0))
        rows_one = np.all(raw.sum(axis=1) == 1.0)
        if binary and rows_one:
            return raw
        return np.zeros_like(raw)

    return IndicatorFamily(family.n, fn)


def planted_hit_sum(family: IndicatorFamily, sample: CorrelatedSample) -> float:
    """Sum of h[i, pi*(i)]; equals n times the overlap for one-hot families."""
    h = family.evaluate(sample.left, sample.right)
    return float(sum(h[i, sample.pi_star[i]] for i in range(family.n)))


# -- mixing and aggregation --------------------------------------------------------


def mix_statistic(f_row, lam_mix):
    """Uniform smoothing of one indicator row: (1 - lam)/n + lam * f."""
    if not 0 <= lam_mix <= 1:
        raise ValueError("mixing weight outside [0,1]")
    n = len(f_row)
    total = sum(f_row)
    if any(x not in (0, 1) for x in f_row) or total > 1:
        raise ValueError("row must be a 0/1 vector summing to at most 1")
    base = (1 - lam_mix) / n if isinstance(lam_mix, Fraction) else (1.0 - lam_mix) / n
    return [base + lam_mix * x for x in f_row]


def mix_quadratic_diagnostic(c, lam_mix, n) -> dict:
    """The mean-squared-error bound for a smoothed indicator row, given an
    empirical row-hit rate c: the analytic bound is 1 + lam^2 - 2*c*lam
    minus a nonnegative 1/n correction."""
    bound = 1 + lam_mix ** 2 - 2 * c * lam_mix
    correction = (1 - lam_mix) ** 2 / n
    return {"bound": float(bound), "bound_with_correction": float(bound - correction)}


def lambda_set(errors, c) -> tuple[list[int], float]:
    """Coordinates whose error is at most (1 - c/2)/n, given that the total
    error is at most 1 - c; the returned set always has at least c*n/2
    members."""
    n = len(errors)
    total = sum(errors)
    if total > 1 - c:
        raise ValueError("total error exceeds 1 - c; the construction needs that margin")
    cut = (1 - c / 2) / n
    lam = [j for j, e in enumerate(errors) if e <= cut]
    guaranteed = c * n / 2
    if len(lam) < guaranteed:
        raise AssertionError("selection bound violated; arithmetic bug")
    return lam, guaranteed


def aggregate_statistic(g_rows) -> float:
    """Sum the per-coordinate statistics into one scalar detector."""
    return float(sum(g_rows))


# -- one-sided test harness -----------------------------------------------------------


@dataclass
class OneSidedTestReport:
    q_accept_rate: float
    p_reject_rate: float
    trials: int
    seed: int
    q_ci: tuple[float, float]
    p_ci: tuple[float, float]

    def classify(self, strong_accept: float = 0.99, reject_floor: float = 0.5) -> str:
        if self.q_accept_rate >= strong_accept and self.p_reject_rate >= strong_accept:
            return "strong-detect candidate"
        if self.q_accept_rate >= strong_accept and self.p_reject_rate >= reject_floor:
            return "one-sided candidate"
        return "powerless"


def _binom_ci(hits: int, trials: int) -> tuple[float, float]:
    rate = hits / trials
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
    return (max(rate - half, 0.0), min(rate + half, 1.0))


def one_sided_test(statistic: Callable, threshold: float,
                   p_sampler: Callable, q_sampler: Callable,
                   trials: int, seed: int) -> OneSidedTestReport:
    """Empirical acceptance rate under the null and rejection rate under the
    alternative, on disjoint derived-seed streams."""
    if trials < 1:
        raise ValueError("need at least one trial")
    q_accept = 0
    p_reject = 0
    for t in range(trials):
        a, b = q_sampler(seed * 2 + 1, t)
        if statistic(a, b) <= threshold:
            q_accept += 1
        a, b = p_sampler(seed * 2, t)
        if statistic(a, b) > threshold:
            p_reject += 1
    return OneSidedTestReport(
        q_accept / trials, p_reject / trials, trials, seed,
        _binom_ci(q_accept, trials), _binom_ci(p_reject, trials),
    )


def correlated_er_samplers(params: ModelParams):
    """(alternative, null) pair samplers for the subsampling model; the null
    is two independent graphs at the subsampled density.  Trial t of a run
    seeded with seed draws from derived_rng(seed, t) in both."""

    def p_sampler(seed, t):
        s = md.sample_correlated_er(params, seed, t)
        return s.left, s.right

    def q_sampler(seed, t):
        rng = derived_rng(seed, t)
        a = md._mask_to_graph(params.n, md._rand_sym_mask(rng, params.n, float(params.q)))
        b = md._mask_to_graph(params.n, md._rand_sym_mask(rng, params.n, float(params.q)))
        return a, b

    return p_sampler, q_sampler
