"""Exact finite measures over graphs, graph pairs, and labeled outcomes.

A DiscreteMeasure is a plain list of outcome atoms with weights, rational
when the underlying model parameters are rational.  Product, conditional
and mixture constructions are provided because the conditional-advantage
and planted-basis computations all need measure surgery.

Atom conventions used throughout the package:
  * a graph is a frozenset of normalized edges (u, v) with u < v;
  * a graph pair is a tuple (edges_a, edges_b);
  * a planted outcome is (sigma, edges) with sigma a tuple in [k]^n;
  * a matching-joint outcome is (pi, edges_a, edges_b) with pi a tuple.
"""

from __future__ import annotations

import gc
import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .graph_core import _norm_edge, check_budget

ENUMERATION_BUDGET = 1 << 22


def edge_bits(n: int) -> dict[tuple[int, int], int]:
    """The edge layout of K_n: pair i of combinations(range(n), 2) is bit 1 << i."""
    return {e: 1 << i for i, e in enumerate(itertools.combinations(range(n), 2))}


def edge_sets(n: int) -> list[frozenset]:
    """The edge set of every bitmask over edge_bits(n), indexed by mask."""
    pairs = list(edge_bits(n))
    return [frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)
            for mask in range(1 << len(pairs))]


class DiscreteMeasure:
    """A finite distribution; exact when every weight is a Fraction."""

    def __init__(self, outcomes: Iterable, weights: Iterable, *, normalize: bool = False):
        self.outcomes = list(outcomes)
        self.weights = list(weights)
        if len(self.outcomes) != len(self.weights):
            raise ValueError("outcomes and weights differ in length")
        total, exact = _checked_total(self.weights)
        if not normalize:
            _require_unit_total(total, exact)
        elif not (exact or math.isfinite(total)):
            raise ValueError(f"weights sum to {total}, not 1")
        elif total == 0:
            raise ValueError("cannot normalize a zero measure")
        else:  # one division per distinct weight object, shared by its atoms
            distinct = dict(zip(map(id, self.weights), self.weights))
            scaled = {key: w / total for key, w in distinct.items()}
            self.weights = list(map(scaled.__getitem__, map(id, self.weights)))
            exact = exact and isinstance(total, Fraction)  # ints over an int total are floats
        # weights are never reassigned after this point
        self.exact = exact

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(zip(self.outcomes, self.weights))

    def expectation(self, fn: Callable):
        total = 0
        for x, w in self:
            total = total + w * fn(x)
        return total

    def mass(self, predicate: Callable) -> Fraction | float:
        return sum(w for x, w in self if predicate(x))

    def condition(self, predicate: Callable) -> "DiscreteMeasure":
        """Condition on predicate, dropping 0 weights: one test per kept weight object."""
        keep = list(map(predicate, self.outcomes))
        kept = list(itertools.compress(self.weights, keep))
        zero = {key for key, w in dict(zip(map(id, kept), kept)).items() if w == 0}
        keep = [k and id(w) not in zero for k, w in zip(keep, self.weights)] if zero else keep
        if not any(keep):
            raise ValueError("conditioning event has zero mass")
        outs, ws = (itertools.compress(v, keep) for v in (self.outcomes, self.weights))
        return DiscreteMeasure(outs, ws, normalize=True)

    def map(self, fn: Callable) -> "DiscreteMeasure":
        """Pushforward merging atoms with equal image; exact weights are summed
        as integer_weights numerators, float weights by one math.fsum per
        image, correctly rounded whatever the order of its atoms."""
        weights, den = integer_weights(self.weights) if self.exact else (self.weights, 1)
        groups: dict = {}
        for y, w in zip(map(fn, self.outcomes), weights):
            groups.setdefault(y, []).append(w)
        sums = list(map(sum if self.exact else math.fsum, groups.values()))
        if self.exact and any(isinstance(w, Fraction) for w in self.weights):
            sums = [Fraction(v, den) for v in sums]
        return DiscreteMeasure(list(groups), sums)

    def product(self, *others: "DiscreteMeasure") -> "DiscreteMeasure":
        """Product measure with flat tuple atoms (x, y, ...), one slot per factor."""
        check_budget("measures.DiscreteMeasure.product", "product atoms",
                     math.prod(map(len, others), start=len(self)), ENUMERATION_BUDGET)
        outs, ws = [(x,) for x in self.outcomes], self.weights
        for other in others:
            outs = [o + (y,) for o in outs for y in other.outcomes]
            ws = [w * wy for w in ws for wy in other.weights]
        return DiscreteMeasure(outs, ws)

    def power(self, m: int) -> "DiscreteMeasure":
        """m-fold product with tuple outcomes."""
        if m < 1:
            raise ValueError("power needs m >= 1")
        check_budget("measures.DiscreteMeasure.power", "power atoms", len(self) ** m, ENUMERATION_BUDGET)
        return self.product(*[self] * (m - 1))

    @staticmethod
    def mixture(components: list["DiscreteMeasure"], coeffs: list) -> "DiscreteMeasure":
        acc: dict = {}
        for comp, c in zip(components, coeffs):
            for x, w in comp:
                acc[x] = acc.get(x, 0) + c * w
        return DiscreteMeasure(list(acc), list(acc.values()))

    def likelihood_ratio_table(self, null: "DiscreteMeasure") -> dict:
        """dP/dQ per atom; raises if P charges an atom Q does not."""
        qw = {x: w for x, w in null}
        out = {}
        for x, w in self:
            if w == 0:
                continue
            if x not in qw or qw[x] == 0:
                raise ValueError(f"alternative charges {x!r} outside the null support")
            out[x] = w / qw[x]
        for x, w in null:
            out.setdefault(x, 0 * w)
        return out

    def chi_square(self, null: "DiscreteMeasure"):
        """sum (P-Q)^2 / Q over the null support."""
        pw = {x: w for x, w in self}
        total = 0
        for x, qx in null:
            if qx == 0:
                if pw.get(x, 0) != 0:
                    raise ValueError("alternative charges a null-null atom")
                continue
            diff = pw.get(x, 0) - qx
            total = total + diff * diff / qx
        return total


def integer_weights(values: list) -> tuple[list[int], int]:
    """(nums, den) with values[i] == nums[i] / den over the least common
    denominator, converting each distinct object once (ints and Fractions
    directly, other numbers through Fraction)."""
    distinct = dict(zip(map(id, values), values))
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in distinct.values()]
    den = math.lcm(*(v.denominator for v in fracs))
    nums = dict(zip(distinct, [v.numerator * (den // v.denominator) for v in fracs]))
    return list(map(nums.__getitem__, map(id, values))), den


def _checked_total(weights: list) -> tuple:
    """(sum, exact) of a weight list, rejecting a negative weight.  Exact
    weights (ints and Fractions) are immutable: each distinct object is
    converted by integer_weights and sign-tested once, and the total is one
    pass over the weights that sums their numerators looked up by id."""
    kinds = set(map(type, weights))
    if not all(issubclass(k, (Fraction, int)) for k in kinds):
        if any(w < 0 for w in weights):
            raise ValueError("negative weight")
        return sum(weights), False
    distinct = dict(zip(map(id, weights), weights))
    nums, den = integer_weights(list(distinct.values()))
    if any(num < 0 for num in nums):
        raise ValueError("negative weight")
    total = sum(map(dict(zip(distinct, nums)).__getitem__, map(id, weights)))
    return (Fraction(total, den) if any(issubclass(k, Fraction) for k in kinds) else total), True


def _require_unit_total(total, exact: bool) -> None:
    """Raise unless a weight total is 1: exactly, or within 1e-12 for floats."""
    if exact:
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
    elif not abs(float(total) - 1.0) <= 1e-12:  # NaN fails this test too
        raise ValueError(f"weights sum to {float(total)}, not 1")


def _measure(outcomes: list, weights: list, exact: bool) -> DiscreteMeasure:
    """A DiscreteMeasure on weights already checked: as many as the
    outcomes, none negative, summing to 1, exact iff all are ints and
    Fractions."""
    out = object.__new__(DiscreteMeasure)
    out.outcomes, out.weights, out.exact = outcomes, weights, exact
    return out


def _one_like(weights) -> Fraction | float:
    return Fraction(1) if all(isinstance(w, (Fraction, int)) for w in weights) else 1.0


# -- enumerated model measures -------------------------------------------------


def er_graph_measure(n: int, q) -> DiscreteMeasure:
    """All graphs on [n]; independent edges with probability q."""
    m = n * (n - 1) // 2
    check_budget("measures.er_graph_measure", "graph atoms", 2 ** m, ENUMERATION_BUDGET)
    one = _one_like([q])
    return DiscreteMeasure(edge_sets(n), [
        math.prod((q if mask >> i & 1 else 1 - q for i in range(m)), start=one)
        for mask in range(1 << m)])


def er_pair_measure(n: int, q) -> DiscreteMeasure:
    """Two independent edge-q graphs, as (edges_a, edges_b) atoms."""
    single = er_graph_measure(n, q)
    return single.product(single)


def sbm_block_probs(n: int, k: int, lam, eps) -> tuple:
    """(p_in, p_out): the edge probabilities within and across blocks."""
    missing = [name for name, val in (("lam", lam), ("k", k), ("eps", eps)) if val is None]
    if missing:
        raise ValueError(f"the block model needs {', '.join(missing)}")
    p_in = (1 + (k - 1) * eps) * lam / n
    p_out = (1 - eps) * lam / n
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError("block edge probabilities outside [0,1]")
    return p_in, p_out


@cache
def label_classes(n: int, k: int) -> dict[int, int]:
    """Count the labelings sigma in [k]^n by their equal-label edge set.

    Keys are bitmasks over edge_bits(n) of the edges (u, v) with
    sigma[u] == sigma[v].  Each set partition of [n] (a restricted growth
    string) into b blocks is one key and stands for k (k-1) ... (k-b+1)
    labelings, so the cost does not grow with k.  Only strings with at
    most k blocks are grown: the others stand for no labeling.  The dict
    is cached per (n, k) and shared, so callers must not mutate it.
    """
    bits = edge_bits(n)
    strings = [()]
    for _ in range(n):
        strings = [rg + (b,) for rg in strings for b in range(min(max(rg, default=-1) + 2, k))]
    return {sum(b for (u, v), b in bits.items() if rg[u] == rg[v]): math.perm(k, max(rg, default=-1) + 1)
            for rg in strings}


def sbm_joint_measure(n: int, k: int, lam, eps) -> DiscreteMeasure:
    """Joint (sigma, graph) law: uniform labels, block edge probabilities."""
    m = n * (n - 1) // 2
    check_budget("measures.sbm_joint_measure", "planted atoms", k ** n * 2 ** m, ENUMERATION_BUDGET)
    p_in, p_out = sbm_block_probs(n, k, lam, eps)
    label_w = Fraction(1, k ** n) if isinstance(p_in, Fraction) else 1.0 / k ** n
    pairs, sets = edge_bits(n), edge_sets(n)
    outs, ws = [], []
    for sigma in itertools.product(range(k), repeat=n):
        probs = [p_in if sigma[u] == sigma[v] else p_out for u, v in pairs]
        for mask, edges in enumerate(sets):
            outs.append((sigma, edges))
            ws.append(math.prod((p if mask >> i & 1 else 1 - p for i, p in enumerate(probs)),
                                start=label_w))
    return DiscreteMeasure(outs, ws)


def sbm_graph_measure(n: int, k: int, lam, eps) -> DiscreteMeasure:
    return sbm_joint_measure(n, k, lam, eps).map(lambda x: x[1])


def _child_subsampling_joint(n: int, s, parents: list) -> DiscreteMeasure:
    """Joint (pi, A, pi(B)) law of two children that keep each parent edge
    independently with probability s, the second relabeled by a uniform
    permutation pi.

    The parent law is the mixture sum_c coef_c * (independent edges), each
    component given as (coef, classes) with classes a list of (edge mask,
    edge probability) partitioning edge_bits(n).  Given pi and the
    component every edge is independent, so an atom's weight is a product
    of per-edge factors -- p s^2 on A∩B, p s (1-s) on A△B, and
    1 - p + p (1-s)^2 off A∪B (the parent summed out) -- summed over the
    components.  It depends only on the count of edges in each state
    within each class mask, so it is computed once per such key and every
    atom of a key shares one weight object.
    With exact inputs every coefficient and factor is put over one common
    denominator den (integer_weights).  A component's term has exactly
    1 + C(n,2) factors, so a key's weight is the one Fraction
    (sum_c num_c * prod num^count) / den^(1 + C(n,2)); float inputs keep
    their float products.
    The weights are checked on the 4^C(n,2) pairs (A, B), not on the
    n! times as many atoms that repeat them: _checked_total rejects a
    negative pair weight, and n! times the pairs' total must be 1 (within
    1e-12 for floats), as DiscreteMeasure requires of every measure.
    The cyclic garbage collector is paused while the weights are checked
    and the atoms made: they are acyclic tuples, and the collector would
    otherwise walk them again and again as they are made.  Its previous
    state is restored on the way out, also when the check raises.
    """
    n_pairs = n * (n - 1) // 2
    check_budget("measures._child_subsampling_joint", "matching-joint atoms",
                 math.factorial(n) * 4 ** n_pairs, ENUMERATION_BUDGET)
    sets = edge_sets(n)
    full = len(sets) - 1
    perms = list(itertools.permutations(range(n)))
    masks = list(dict.fromkeys(mask for _coef, classes in parents for mask, _p in classes))
    components = []
    for coef, classes in parents:
        factors = [(3 * masks.index(mask), (p * s * s, p * s * (1 - s), 1 - p + p * (1 - s) * (1 - s)))
                   for mask, p in classes]
        components.append((coef / len(perms), factors))
    values = [v for coef, factors in components
              for v in (coef, *(f for _at, fs in factors for f in fs))]
    scale = None
    if all(isinstance(v, (int, Fraction)) for v in values):
        nums, den = integer_weights(values)
        num = dict(zip(values, nums))
        components = [(num[coef], [(at, tuple(map(num.__getitem__, fs))) for at, fs in factors])
                      for coef, factors in components]
        scale = den ** (1 + n_pairs)
    enabled = gc.isenabled()
    gc.disable()
    try:
        cache: dict = {}
        weights = []
        for a, b in itertools.product(range(len(sets)), repeat=2):
            states = (a & b, a ^ b, full & ~(a | b))
            key = tuple([(st & mask).bit_count() for mask in masks for st in states])
            w = cache.get(key)
            if w is None:
                w = 0
                for term, factors in components:
                    for at, fs in factors:
                        for f, c in zip(fs, key[at:at + 3]):
                            term = term * f ** c
                    w = w + term
                w = cache[key] = w if scale is None else Fraction(w, scale)
            weights.append(w)
        total, exact = _checked_total(weights)
        _require_unit_total(total * len(perms), exact)
        a_sets = [es for es in sets for _b in sets]
        outs = []
        for pi in perms:
            image = [frozenset(_norm_edge(pi[u], pi[v]) for u, v in es) for es in sets]
            outs.extend(zip(itertools.repeat(pi), a_sets, image * len(sets)))
        return _measure(outs, weights * len(perms), exact)
    finally:
        if enabled:
            gc.enable()


def correlated_er_joint_measure(n: int, p, s) -> DiscreteMeasure:
    """Joint (pi, edges_a, edges_b) law of the correlated edge-subsampling model.

    The parent is edge-p; both children keep each parent edge independently
    with probability s, and the second child is relabeled by a uniform
    permutation pi.  Built per edge by _child_subsampling_joint: every
    (pi, A, B) appears once, no merging.
    """
    if p is None or s is None:
        raise ValueError("the matching joint needs (p, s); derive them from (q, rho) first")
    parent = [(_one_like([p, s]), [((1 << n * (n - 1) // 2) - 1, p)])]
    return _child_subsampling_joint(n, s, parent)


def children_joint(n: int, s, parent: DiscreteMeasure) -> DiscreteMeasure:
    """Joint (pi, edges_a, edges_b) law of the two children of any
    enumerated graph law on [n], such as a conditioned one.

    Each parent graph G is one point-mass component of
    _child_subsampling_joint: edge probability 1 on G and 0 off it.
    """
    bits = edge_bits(n)
    full = (1 << len(bits)) - 1
    masks = (sum(bits[e] for e in g) for g in parent.outcomes)
    components = [(w, [(m, 1), (full & ~m, 0)]) for m, w in zip(masks, parent.weights)]
    return _child_subsampling_joint(n, s, components)


def correlated_sbm_joint_measure(n: int, k: int, lam, eps, s) -> DiscreteMeasure:
    """Joint (pi, edges_a, edges_b) law with a block-model parent.

    Given sigma the parent has independent edges, p_in within blocks and
    p_out across them; the labelings are grouped by their equal-label edge
    set (label_classes), one mixture component each, and the children are
    built by _child_subsampling_joint.
    """
    if s is None:
        raise ValueError("the block-model matching joint needs s, a child's edge-keep probability")
    p_in, p_out = sbm_block_probs(n, k, lam, eps)
    one = _one_like([lam, eps, s])
    full = (1 << n * (n - 1) // 2) - 1
    parents = [(one * count / k ** n, [(intra, p_in), (full & ~intra, p_out)])
               for intra, count in label_classes(n, k).items()]
    return _child_subsampling_joint(n, s, parents)
