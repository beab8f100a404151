"""Independent oracles for the benchmark's correctness checks.

Nothing here imports lowdeg.  Each oracle is computed from a closed form,
a published sequence, or brute force over permutations, so a check built
on it shares no code path with the routine it checks.  Graphs are plain
sets of (u, v) pairs with u < v.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# OEIS A000081: unlabeled rooted trees with n nodes, n = 1..12.
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]

# OEIS A008406, row 4: graphs on 4 unlabeled vertices by edge count 0..6.
A008406_ROW4 = [1, 1, 2, 3, 2, 1, 1]

# Otter's constant: the reciprocal growth rate of A000081.
OTTER_ALPHA = 0.3383218568992076


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def relabel(edges, perm) -> frozenset:
    return frozenset(norm_edge(perm[u], perm[v]) for u, v in edges)


# -- orbit counting and the closed-form advantage ----------------------------


def edge_subset_orbits(n: int, e: int, fixed: int | None = None) -> int:
    """Orbits of e-edge subsets of K_n under S_n, or under the stabilizer of
    the vertex `fixed`.  Each orbit is counted once, at its lexicographically
    smallest image."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = [p for p in itertools.permutations(range(n)) if fixed is None or p[fixed] == fixed]
    count = 0
    for subset in itertools.combinations(pairs, e):
        key = tuple(sorted(subset))
        if all(tuple(sorted(relabel(subset, p))) >= key for p in perms):
            count += 1
    return count


def orbit_self_test() -> bool:
    """The orbit counter must reproduce the graphs on 4 vertices by edge count."""
    return [edge_subset_orbits(4, e) for e in range(7)] == A008406_ROW4


def correlated_er_advantage_sq(n: int, rho: Fraction, D: int, fixed: int | None = None) -> Fraction:
    """Adv^2_{<=D} of correlated Erdos-Renyi against the independent pair:
    the sum over e <= D/2 of rho^(2e) times the orbit count of e-edge
    subsets, under S_n or, when conditioning on pi(i) = j, under the
    stabilizer of i."""
    return sum(
        (rho ** (2 * e) * edge_subset_orbits(n, e, fixed) for e in range(D // 2 + 1)),
        Fraction(0),
    )


def chi_square(null: list[Fraction], alt: list[Fraction]) -> Fraction:
    return sum(((a - q) ** 2 / q for q, a in zip(null, alt)), Fraction(0))


def correlated_er_joint_size(n: int) -> int:
    """Atoms (pi, a, b) of the correlated joint: every pair (a, pi^-1 b) of
    edge sets of K_n occurs under some parent, for each of the n! labelings."""
    return math.factorial(n) * 4 ** math.comb(n, 2)


# -- automorphisms -------------------------------------------------------------


def cycle_aut(length: int) -> int:
    return 2 * length


def disjoint_copies_aut(aut_one: int, copies: int) -> int:
    return aut_one ** copies * math.factorial(copies)


def hypercube_aut(d: int) -> int:
    return 2 ** d * math.factorial(d)


PETERSEN_AUT = 120


def star_aut(r: int) -> int:
    return math.factorial(r)


def matching_aut(m: int) -> int:
    return 2 ** m * math.factorial(m)


def brute_force_aut(edges) -> int:
    """Automorphisms of an edge set on its own support, by trying every
    permutation.  Meant for at most 7 vertices."""
    edges = frozenset(edges)
    verts = sorted({v for e in edges for v in e})
    if len(verts) > 7:
        raise ValueError("brute-force automorphisms are limited to 7 vertices")
    count = 0
    for image in itertools.permutations(verts):
        perm = dict(zip(verts, image))
        if relabel(edges, perm) == edges:
            count += 1
    return count


# -- graph families ------------------------------------------------------------


def cycle_edges(length: int, offset: int = 0) -> list[tuple[int, int]]:
    return [norm_edge(offset + i, offset + (i + 1) % length) for i in range(length)]


def disjoint_cycles(copies: int, length: int) -> list[tuple[int, int]]:
    return [e for c in range(copies) for e in cycle_edges(length, c * length)]


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u ^ 1 << b) for u in range(2 ** d) for b in range(d) if u < u ^ 1 << b]


def petersen_edges() -> list[tuple[int, int]]:
    outer = cycle_edges(5)
    inner = [norm_edge(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return outer + inner + spokes


def star_edges(r: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, r + 1)]


def matching_edges(m: int) -> list[tuple[int, int]]:
    return [(2 * i, 2 * i + 1) for i in range(m)]


# -- elementary graph quantities ----------------------------------------------


def degrees(edges) -> dict[int, int]:
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def leaves(edges) -> set[int]:
    return {v for v, d in degrees(edges).items() if d == 1}


def support(edges) -> set[int]:
    return {v for e in edges for v in e}


def has_cycle_at_most(n: int, edges, length: int) -> bool:
    """True when the graph has a cycle with at most `length` edges: the
    shortest cycle through each edge (u, v) is one plus the u-v distance
    with that edge removed."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in edges:
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if (x, y) in ((u, v), (v, u)) or y in dist:
                        continue
                    dist[y] = dist[x] + 1
                    nxt.append(y)
            frontier = nxt
        if v in dist and dist[v] + 1 <= length:
            return True
    return False


def binomial_window(count: int, trials: int, prob: float, sigmas: float) -> bool:
    mean = trials * prob
    sd = math.sqrt(trials * prob * (1 - prob))
    return abs(count - mean) <= sigmas * sd


# -- dual certificate -----------------------------------------------------------


def labeled_copies(n: int, edges) -> int:
    """Labeled copies of a graph in K_n: n!/(n-v)! over its automorphisms."""
    v = len(support(edges))
    return math.perm(n, v) // brute_force_aut(edges) if v <= n else 0


def leafless_classes(max_edges: int) -> list[tuple[int, int, frozenset]]:
    """(vertices, edges, representative) for each isomorphism class of
    graphs without isolated vertices, with 3..max_edges edges and minimum
    degree two.  Classes are found as orbits of labeled graphs on [v]."""
    out = []
    for v in range(3, max_edges + 1):
        pairs = list(itertools.combinations(range(v), 2))
        perms = list(itertools.permutations(range(v)))
        for e in range(v, max_edges + 1):
            seen: set[frozenset] = set()
            for subset in itertools.combinations(pairs, e):
                edges = frozenset(subset)
                if edges in seen:
                    continue
                deg = degrees(edges)
                if len(deg) < v or min(deg.values()) < 2:
                    continue
                seen.update(relabel(edges, p) for p in perms)
                out.append((v, e, edges))
    return out


def edge_subgraph_count(n: int, max_edges: int) -> int:
    m = math.comb(n, 2)
    return sum(math.comb(m, k) for k in range(max_edges + 1))


def _h(k: int, eps: float, lam: float, n: int, w: int) -> float:
    p_edge = (1 + eps * w) * lam / n
    return math.sqrt((1 - p_edge) * (1 + eps * w) / (1 - lam / n))


def xi_triangle(k: int, eps: Fraction, lam: Fraction, n: int, exact_kernel: bool) -> float:
    """xi(C3) = -(k-1) t^3 / (a^3 + (k-1) b^3), with the per-edge scale
    split as h = a + b*omega over the two label classes, in floats."""
    e, l = float(eps), float(lam)
    h_eq = _h(k, e, l, n, k - 1)
    h_ne = _h(k, e, l, n, -1)
    a = (h_eq + (k - 1) * h_ne) / k
    b = (h_eq - h_ne) / k
    t = math.sqrt(e * e * l / ((n - l) if exact_kernel else n))
    return -(k - 1) * t ** 3 / (a ** 3 + (k - 1) * b ** 3)


# -- arithmetic on sums of square roots ---------------------------------------
# A value is a dict {squarefree radicand: rational coefficient}.


def _squarefree(n: int) -> tuple[int, int]:
    """n = s*s*d with d squarefree; returns (s, d)."""
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1
    return s, d * n


def radical_mul(x: dict, y: dict) -> dict:
    out: dict[int, Fraction] = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            s, d = _squarefree(d1 * d2)
            out[d] = out.get(d, Fraction(0)) + c1 * c2 * s
    return {d: c for d, c in out.items() if c != 0}


def radical_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for d, c in y.items():
        out[d] = out.get(d, Fraction(0)) + c
    return {d: c for d, c in out.items() if c != 0}

