"""Oracles that lowdeg's routes are checked against, kept out of the library.

Each one computes a quantity the library also computes, by a different
path: a direct linear solve, Rad products and sums by the plain loops over
terms, a per-permutation grouping of a joint's atoms, the hidden-sample
composite laws built atom by atom, the pair indices (S1, S2) of the
product basis listed one by one, and the symmetry orbits of the edge
monomials found by searching every vertex transposition.  None is called
by lowdeg itself.
"""

import itertools
import math
from fractions import Fraction

from lowdeg import basis as bs
from lowdeg import graph_core as gc
from lowdeg.exactnum import Rad
from lowdeg.measures import DiscreteMeasure


def pair_indices(n: int, D: int) -> list:
    """Every pair index (S1, S2) on n vertices with at most D edges in all,
    by the edges of S1, then of S2 (the indices the product basis sums over)."""
    return [bs.pair_index(s1, s2) for s1 in bs.edge_subgraphs(n, D)
            for s2 in bs.edge_subgraphs(n, D - len(s1.edges))]


def solve_exact(matrix: list[list], rhs: list) -> list:
    """Solve a nonsingular linear system exactly: forward elimination, then
    back substitution.

    Entries come from one exact field whose zero is falsy and whose inverse
    is 1 / x: Fractions or Rad values.  Pivots are chosen by float
    magnitude but all arithmetic stays in the field.  Nothing here comes
    from the library's LDL^T kernels, which the tests check against it.
    """
    m = len(matrix)
    a = [[*row, rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(float(a[r][col])))
        if not a[pivot][col]:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        inv = 1 / top[col]
        for row in a[col + 1:]:
            if row[col]:
                f = row[col] * inv
                row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], top[col + 1:])]
    sol = [None] * m
    for i in reversed(range(m)):
        row = a[i]
        total = row[m]
        for j in range(i + 1, m):
            total = total - row[j] * sol[j]
        sol[i] = total / row[i]
    return sol


def rad_mul(x: Rad, y: Rad) -> Rad:
    """x * y by the double loop over both operands' terms, with no fast path;
    the terms come out in the order the loop first meets their radicands."""
    out = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            out[d] = out.get(d, Fraction(0)) + c1 * c2 * g
    return Rad(out)


def rad_add(x: Rad, y: Rad) -> Rad:
    """x + y by one pass over y's terms into a copy of x's."""
    out = dict(x.terms)
    for d, c in y.terms.items():
        out[d] = out.get(d, Fraction(0)) + c
    return Rad(out)


def grouped_conditional_expectation(joint: DiscreteMeasure, idx: bs.BasisIndex,
                                    q_params, i: int, j: int):
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


def composite_null(problem) -> DiscreteMeasure:
    """The M-fold product of a hidden-sample problem's base null."""
    return problem.base_null.power(problem.M)


def composite_alt(problem) -> DiscreteMeasure:
    """Mixture over the hidden slot kappa of the products with base_alt in
    slot kappa and base_null elsewhere."""
    null, alt, M = problem.base_null, problem.base_alt, problem.M
    coeff = Fraction(1, M) if null.exact and alt.exact else 1.0 / M
    comps = [DiscreteMeasure.product(*(alt if i == kappa else null for i in range(M)))
             for kappa in range(M)]
    return DiscreteMeasure.mixture(comps, [coeff] * M)


def hidden_likelihood_ratio(problem, outcome: tuple):
    """Likelihood ratio of the composite pair at an M-tuple: the average of
    the base ratios over the coordinates."""
    table = problem.base_alt.likelihood_ratio_table(problem.base_null)
    total = 0
    for y in outcome:
        if y not in table:
            raise ValueError(f"outcome {y!r} outside the base null support")
        total = total + table[y]
    return total / problem.M


def transposition_orbits(coords: list, reads: list, D: int) -> dict:
    """Representative -> orbit of the monomial masks of at most D coordinates
    (side, edge), under the group that the vertex transpositions of one side
    generate when they send coords into coords and fix each (table, k) in
    reads on every mask of at most k bits.  Masks move one bit at a time;
    each representative is its orbit's first mask by size, then in
    combinations order."""
    at = {c: t for t, c in enumerate(coords)}

    def masks(k):
        return [sum(1 << t for t in c) for size in range(k + 1)
                for c in itertools.combinations(range(len(coords)), size)]

    def move(image, mask):
        return sum(1 << image[t] for t in range(len(coords)) if mask >> t & 1)

    gens, reads = [], [(table, masks(k)) for table, k in reads]
    vertices = sorted({v for _, e in coords for v in e})
    for side, (u, v) in itertools.product(sorted({s for s, _ in coords}), itertools.combinations(vertices, 2)):
        swap = {u: v, v: u}
        image = [at.get((s, tuple(sorted((swap.get(a, a), swap.get(b, b))))) if s == side else (s, (a, b)))
                 for s, (a, b) in coords]
        if None not in image and all(table[m] == table[move(image, m)] for table, read in reads for m in read):
            gens.append(image)
    orbits, placed = {}, set()
    for mask in masks(D):
        if mask not in placed:
            orbit, frontier = {mask}, [mask]
            while frontier:
                src = frontier.pop()
                for img in (move(image, src) for image in gens):
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            orbits[mask] = frozenset(orbit)
            placed |= orbit
    return orbits


def class_keys(n: int, coords: list, pair: bool, masks) -> list:
    """The class of each monomial mask over coords: the canonical form of the
    graph on n vertices with its edges, a pair of them on graph-pair
    coordinates."""
    keys = []
    for mask in masks:
        forms = tuple(gc.canonicalize(gc.graph(n, [e for t, (s, e) in enumerate(coords)
                                                   if s == side and mask >> t & 1])).hex_form
                      for side in range(1 + pair))
        keys.append(forms if pair else forms[0])
    return keys
