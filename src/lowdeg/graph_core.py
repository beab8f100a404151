"""Labeled graphs with a declared vertex support, plus the combinatorial
machinery the rest of the package leans on: edge-induced operations,
canonical labeling with exact automorphism counts, cycle and path
decompositions of edge differences, independent-cycle censuses, and
unlabeled rooted-tree counting with a growth-rate estimate.

Graphs here are desk-scale (canonical labeling is capped at 16
non-isolated vertices).  The canonical labeling is an
individualization-refinement search with automorphism pruning in the
style of McKay and Piperno, not a general-purpose tool.  All values are
immutable and all functions are pure.  The canonical-form memo is a
process-wide dict: each entry is an immutable value written under its own
key, so concurrent readers and writers at worst repeat a computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

CANONICAL_VERTEX_BUDGET = 16
_SEARCH_NODE_BUDGET = 2_000_000
ROOTED_TREE_BUDGET = 60


class EnumerationBudgetError(ValueError):
    """Raised when an operation would exceed its desk-scale search budget.

    ``where`` names the guarded operation, ``requested`` the size that was
    asked for and ``budget`` the largest allowed; each is None where the
    raise site does not say.
    """

    def __init__(self, message: str, *, where: str | None = None,
                 requested: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.where = where
        self.requested = requested
        self.budget = budget


def check_budget(where: str, what: str, requested: int, budget: int) -> None:
    """Raise EnumerationBudgetError when requested exceeds budget.

    ``where`` names the guarded function as module.function and ``what``
    the quantity counted; the message reads "what: requested r, budget b".
    A guard on a hot path compares inline and calls this only past its
    limit, so the path gains no call.
    """
    if requested > budget:
        raise EnumerationBudgetError(f"{what}: requested {requested}, budget {budget}",
                                     where=where, requested=requested, budget=budget)


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class LabeledGraph:
    """A graph on ambient vertex set [n] with an explicit declared support.

    ``vertices`` is the declared support: isolated vertices are
    representable by declaring them without incident edges.  Every derived
    quantity (excess, leaves, cycles, ...) is a pure function of
    (n_vertices, edges, vertices).
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]]
    vertices: frozenset[int]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("ambient vertex count must be positive")
        for u, v in self.edges:
            if not (0 <= u < v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range or unnormalized")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) endpoint outside declared vertices")
        for v in self.vertices:
            if not 0 <= v < self.n_vertices:
                raise ValueError(f"vertex {v} out of ambient range")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return _norm_edge(*edge) in self.edges

    def __le__(self, other: "LabeledGraph") -> bool:
        return is_subgraph(self, other)


def graph(n: int, edges: Iterable[tuple[int, int]] = (), vertices: Iterable[int] | None = None) -> LabeledGraph:
    """Build a LabeledGraph; the declared support defaults to the edge endpoints."""
    es = frozenset(_norm_edge(u, v) for u, v in edges)
    if vertices is None:
        vs = frozenset(v for e in es for v in e)
    else:
        vs = frozenset(vertices) | frozenset(v for e in es for v in e)
    return LabeledGraph(n, es, vs)


def _labeled(n: int, edges: frozenset[tuple[int, int]], vertices: frozenset[int]) -> LabeledGraph:
    """A LabeledGraph on checked fields: 0 <= u < v < n for each edge, both ends in vertices."""
    out = object.__new__(LabeledGraph)
    out.__dict__.update(n_vertices=n, edges=edges, vertices=vertices)
    return out


def empty_graph(n: int) -> LabeledGraph:
    return graph(n)


def complete_graph(n: int) -> LabeledGraph:
    return graph(n, itertools.combinations(range(n), 2), range(n))


def cycle_graph(n: int, length: int | None = None, offset: int = 0) -> LabeledGraph:
    m = length if length is not None else n
    verts = [offset + i for i in range(m)]
    return graph(n, [(verts[i], verts[(i + 1) % m]) for i in range(m)])


def path_graph(n: int, length: int, offset: int = 0) -> LabeledGraph:
    return graph(n, [(offset + i, offset + i + 1) for i in range(length)])


def relabel(g: LabeledGraph, perm: dict[int, int] | list[int]) -> LabeledGraph:
    """Apply a vertex bijection of the ambient set."""
    if isinstance(perm, list):
        perm = {i: p for i, p in enumerate(perm)}
    return graph(
        g.n_vertices,
        [(perm[u], perm[v]) for u, v in g.edges],
        [perm[v] for v in g.vertices],
    )


# -- elementary derived quantities ------------------------------------------


def excess(g: LabeledGraph) -> int:
    """Edge count minus declared vertex count."""
    return len(g.edges) - len(g.vertices)


def support(g: LabeledGraph) -> frozenset[int]:
    """Vertices with at least one incident edge."""
    return frozenset(v for e in g.edges for v in e)


def isolated_vertices(g: LabeledGraph) -> frozenset[int]:
    return g.vertices - support(g)


def leaves(g: LabeledGraph) -> frozenset[int]:
    """Declared vertices of degree exactly one."""
    deg: dict[int, int] = {}
    for u, v in g.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return frozenset(v for v, d in deg.items() if d == 1)


def is_subgraph(h: LabeledGraph, g: LabeledGraph) -> bool:
    return h.n_vertices == g.n_vertices and h.vertices <= g.vertices and h.edges <= g.edges


def edge_induced_ops(s: LabeledGraph, t: LabeledGraph) -> tuple[LabeledGraph, LabeledGraph, LabeledGraph]:
    """Edge-induced intersection, union and symmetric difference (no isolated vertices)."""
    if s.n_vertices != t.n_vertices:
        raise ValueError("graphs live on different ambient vertex sets")
    n = s.n_vertices
    cap = graph(n, s.edges & t.edges)
    cup = graph(n, s.edges | t.edges)
    symdiff = graph(n, s.edges ^ t.edges)
    return cap, cup, symdiff


def graph_union(s: LabeledGraph, t: LabeledGraph) -> LabeledGraph:
    """Vertex-and-edge union (declared vertices are kept)."""
    if s.n_vertices != t.n_vertices:
        raise ValueError("graphs live on different ambient vertex sets")
    return graph(s.n_vertices, s.edges | t.edges, s.vertices | t.vertices)


def _adjacency(g: LabeledGraph) -> dict[int, set[int]]:
    """Neighbour sets, keyed by every declared vertex of g."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected_components(g: LabeledGraph) -> list[frozenset[int]]:
    """Components of the declared support, isolated vertices as singletons."""
    adj = _adjacency(g)
    seen: set[int] = set()
    comps = []
    for v in sorted(g.vertices):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


# -- cycles -------------------------------------------------------------------


def _cycles(g: LabeledGraph, max_len: int | None):
    """The one cycle walk: depth first from each start vertex in increasing
    order, through larger vertices in increasing order, yielding each cycle
    of length at most max_len (any length when None) as it closes."""
    adj = {v: sorted(nbrs) for v, nbrs in _adjacency(g).items()}
    cap = max_len if max_len is not None else len(g.vertices)
    for start in sorted(adj):
        path, on_path, stack = [start], {start}, [iter(adj[start])]
        while stack:
            for w in stack[-1]:
                if w == start:
                    if len(path) >= 3 and path[1] < path[-1]:  # orientation dedupe
                        yield tuple(path)
                elif w > start and w not in on_path and len(path) < cap:
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(adj[w]))
                    break
            else:  # every neighbor of the path's end is walked: step back
                stack.pop()
                on_path.discard(path.pop())


def all_cycles(g: LabeledGraph, max_len: int | None = None) -> list[tuple[int, ...]]:
    """All simple cycles, each reported once as a vertex tuple starting at
    its smallest vertex with the smaller neighbor second."""
    return list(_cycles(g, max_len))


def has_cycle_at_most(g: LabeledGraph, max_len: int) -> bool:
    """Does g have a cycle of length at most max_len?  Stops at the first."""
    return next(_cycles(g, max_len), None) is not None


def cycle_components(g: LabeledGraph) -> list[LabeledGraph]:
    """Connected components of g that are exactly cycles.

    These are precisely the independent cycles: no edge outside the cycle
    touches its vertex set.
    """
    out = []
    for comp in connected_components(g):
        comp_edges = [e for e in g.edges if e[0] in comp]
        if len(comp) >= 3 and len(comp_edges) == len(comp):
            sub = graph(g.n_vertices, comp_edges)
            if all(sub.degree(v) == 2 for v in comp):
                out.append(sub)
    return out


def independent_cycle_census(s: LabeledGraph, h: LabeledGraph) -> dict[int, int]:
    """Count independent m-cycles of s whose vertex set avoids the declared
    vertices of h, keyed by length m."""
    if not is_subgraph(h, s):
        raise ValueError("h is not a subgraph of s")
    census: dict[int, int] = {}
    for c in cycle_components(s):
        if support(c) & h.vertices:
            continue
        m = len(c.edges)
        census[m] = census.get(m, 0) + 1
    return census


def independent_cycle_count(s: LabeledGraph, h: LabeledGraph) -> int:
    return sum(independent_cycle_census(s, h).values())


# -- canonical forms and automorphisms ---------------------------------------


@dataclass(frozen=True)
class CanonicalGraph:
    """An isomorphism class: canonical byte string plus basic counts."""

    canonical_form: bytes
    n_vertices: int
    n_edges: int
    aut_count: int

    @property
    def hex_form(self) -> str:
        return self.canonical_form.hex()


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(cells: list[int], nbr: list[int]) -> list[int]:
    """Coarsest equitable refinement of an ordered partition.

    Cells are vertex bitmasks.  Each round splits every cell by its
    vertices' neighbour counts into each cell, subcells in increasing key
    order, until a round splits nothing.  Only the cell order and the
    adjacency enter the keys, so relabeling the graph relabels the result.
    """
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in _bits(cell):
                key = tuple((nbr[v] & c).bit_count() for c in cells)
                groups[key] = groups.get(key, 0) | 1 << v
            out.extend(groups[k] for k in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _orbit(v: int, gens: list[list[int]]) -> int:
    """Bitmask of the orbit of v under the group generated by gens."""
    orbit, frontier = 1 << v, [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                frontier.append(y)
    return orbit


def _canonical_core(nbr: list[int], m: int) -> tuple[tuple[int, ...], int]:
    """Least row encoding over the leaves of an individualization-refinement
    search, plus the automorphism count of the core.

    A node refines its ordered partition, then branches on each vertex of
    its first non-singleton cell, individualized in front of the rest of
    the cell.  A discrete partition is a leaf: it orders the vertices, and
    row i of its encoding has bit j < i set when the vertices at positions
    i and j are adjacent.  Relabeling the graph relabels the tree, so the
    least encoding over all leaves is canonical.

    A leaf whose encoding equals the first or the best leaf's gives an
    automorphism, which fixes the vertices individualized above the node
    where the two paths part and maps the earlier path's subtree there onto
    the current one; the rest of the current subtree is abandoned.  A node
    skips a child in the orbit of a searched child under the automorphisms
    found so far that fix its individualized vertices.  Every child in the
    orbit of the first path's child at a first-path node leads to a leaf
    matching the first leaf, so that orbit is complete when the node
    finishes, and |Aut| is the product of these orbit sizes
    (orbit-stabilizer; McKay and Piperno, "Practical graph isomorphism,
    II", 2014).
    """
    if m == 0:
        return (), 1
    gens: list[list[int]] = []
    first: tuple | None = None  # (encoding, order, path) of the first leaf
    best: tuple | None = None
    nodes = 0
    aut = 1

    def leaf(cells: list[int], path: list[int]) -> int | None:
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        pos = [0] * m
        for i, v in enumerate(order):
            pos[v] = i
        enc = tuple(
            sum(1 << pos[u] for u in _bits(nbr[v]) if pos[u] < i) for i, v in enumerate(order)
        )
        if first is None:
            first = best = (enc, order, path)
            return None
        for ref in (first, best):
            if enc == ref[0]:
                g = [0] * m
                for a, b in zip(ref[1], order):
                    g[a] = b
                gens.append(g)
                return next((k for k, (a, b) in enumerate(zip(path, ref[2])) if a != b), len(path))
        if enc < best[0]:
            best = (enc, order, path)
        return None

    def fixing(path: list[int]) -> list[list[int]]:
        return [g for g in gens if all(g[u] == u for u in path)]

    def search(cells: list[int], path: list[int]) -> int | None:
        """Search below one node; return the depth to resume at after a
        jump back, or None to continue with the next sibling."""
        nonlocal nodes, aut
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            check_budget("graph_core.canonicalize", "canonical search nodes", nodes, _SEARCH_NODE_BUDGET)
        on_first = first is None
        cells = _refine(cells, nbr)
        t = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if t is None:
            return leaf(cells, path)
        depth, target = len(path), cells[t]
        searched = 0
        for v in _bits(target):
            stab = fixing(path)
            if any(_orbit(u, stab) >> v & 1 for u in _bits(searched)):
                continue
            searched |= 1 << v
            back = search(cells[:t] + [1 << v, target ^ 1 << v] + cells[t + 1:], path + [v])
            if back is not None and back < depth:
                return back
        if on_first:
            aut *= _orbit(first[2][depth], fixing(path)).bit_count()
        return None

    search([(1 << m) - 1], [])
    return best[0], aut


_canon_memo: dict[tuple, CanonicalGraph] = {}


def canonicalize(g: LabeledGraph) -> CanonicalGraph:
    """Canonical form of the isomorphism class of g (declared vertices count)."""
    core = sorted(support(g))
    if len(core) > CANONICAL_VERTEX_BUDGET:
        check_budget("graph_core.canonicalize", "non-isolated vertices", len(core), CANONICAL_VERTEX_BUDGET)
    iso = len(g.vertices) - len(core)
    index = {v: i for i, v in enumerate(core)}
    m = len(core)
    nbr = [0] * m
    for u, v in g.edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    key = (tuple(nbr), m, iso)
    hit = _canon_memo.get(key)
    if hit is not None:
        return hit
    rows, core_aut = _canonical_core(nbr, m)
    header = f"{len(g.vertices)},{m},{len(g.edges)}:".encode()
    body = b"".join(r.to_bytes((m + 7) // 8, "big") for r in rows)
    cg = CanonicalGraph(header + body, len(g.vertices), len(g.edges),
                        core_aut * math.factorial(iso))
    _canon_memo[key] = cg
    return cg


def automorphism_count(g: LabeledGraph) -> int:
    """Number of vertex bijections of the declared set preserving the edge set.

    Isolated vertices contribute a factorial factor.  Same budget as
    canonicalize.
    """
    return canonicalize(g).aut_count


def count_embeddings(h: LabeledGraph | CanonicalGraph, s: LabeledGraph) -> int:
    """Number of subgraphs of s isomorphic to h.

    A subgraph is an edge subset together with a choice of declared
    vertices covering the endpoints; isolated vertices of h are matched by
    choosing extra vertices of s.
    """
    if isinstance(h, LabeledGraph):
        h_canon = canonicalize(h)
    else:
        h_canon = h
    if h_canon.n_vertices > len(s.vertices):
        return 0
    check_budget("graph_core.count_embeddings", "host vertices", len(s.vertices), CANONICAL_VERTEX_BUDGET)
    # Split the pattern into its edge-bearing core and isolated padding.
    core_edges = h_canon.n_edges
    total = 0
    edges = sorted(s.edges)
    for subset in itertools.combinations(edges, core_edges):
        sub = graph(s.n_vertices, subset)
        spare = sorted(s.vertices - sub.vertices)
        pad = h_canon.n_vertices - len(sub.vertices)  # at most len(spare): h fits in s
        if pad < 0:
            continue
        padded = graph(s.n_vertices, subset, [*sub.vertices, *spare[:pad]])
        if canonicalize(padded).canonical_form == h_canon.canonical_form:
            total += math.comb(len(spare), pad)
    return total


def edge_induced_subgraphs(s: LabeledGraph, max_edges: int | None = None) -> Iterable[LabeledGraph]:
    """Every edge-induced subgraph of s (no isolated vertices) with at most
    max_edges edges: by edge count, then in combinations order of sorted(s.edges)."""
    edges = sorted(s.edges)
    cap = len(edges) if max_edges is None else min(max_edges, len(edges))
    for k in range(cap + 1):
        for subset in itertools.combinations(edges, k):
            yield graph(s.n_vertices, subset)


def subgraph_classes(s: LabeledGraph, max_edges: int | None = None) -> dict[bytes, CanonicalGraph]:
    """Canonical classes of edge-induced subgraphs of s (no isolated vertices)."""
    out: dict[bytes, CanonicalGraph] = {}
    for sub in edge_induced_subgraphs(s, max_edges):
        cg = canonicalize(sub)
        out.setdefault(cg.canonical_form, cg)
    return out


# -- decomposition of an edge difference --------------------------------------


@dataclass
class PathCycleDecomposition:
    """Cycles and paths partitioning E(S) \\ E(H).

    Paths carry their endpoint pair; a path whose endpoints coincide is a
    closed ear hung at an anchor vertex (these arise when a block of S
    meets the rest only at a single vertex).
    """

    cycles: list[LabeledGraph] = field(default_factory=list)
    paths: list[LabeledGraph] = field(default_factory=list)
    endpoints: list[tuple[int, int]] = field(default_factory=list)

    @property
    def t(self) -> int:
        return len(self.paths)

    @property
    def m(self) -> int:
        return len(self.cycles)

    def reassembled_edges(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for c in self.cycles:
            out.extend(sorted(c.edges))
        for p in self.paths:
            out.extend(sorted(p.edges))
        return sorted(out)


def _walk(pool: dict[int, set[int]], start: int, stops) -> list[int]:
    """Walk from start, always along the smallest remaining edge, removing
    each edge taken.  Ends at the first vertex that is in stops or already on
    the walk, and returns the walk including that vertex."""
    walk = [start]
    while True:
        x = walk[-1]
        if not pool[x]:
            raise AssertionError(f"walk stuck at vertex {x}")
        y = min(pool[x])
        pool[x].remove(y)
        pool[y].remove(x)
        done = y in stops or y in walk
        walk.append(y)
        if done:
            return walk


def decompose_difference(s: LabeledGraph, h: LabeledGraph, variant: str = "A2") -> PathCycleDecomposition:
    """Decompose E(S) \\ E(H) into cycles and anchored paths.

    Variant "A2": cycles are pairwise vertex-disjoint and avoid V(H); path
    endpoints lie on earlier pieces, V(H) or leaves of S, and interiors are
    fresh.  The path count then equals |leaves(S) - V(H)| + excess(S) -
    excess(H).

    Variant "A3": cycles are independent cycles of S avoiding V(H); paths
    pairwise meet only in endpoints, and the path count is at most five
    times the A2 count.

    Both variants cut their pieces with one walk over the remaining edges
    (`_walk`).  Determinism: ties are always broken toward the smallest
    vertex.
    """
    if variant not in ("A2", "A3"):
        raise ValueError(f"unknown variant {variant!r}")
    if not is_subgraph(h, s):
        raise ValueError("h is not a subgraph of s")
    if not isolated_vertices(s) <= h.vertices:
        raise ValueError("isolated vertices of s must be declared in h")

    n = s.n_vertices
    rest = s.edges - h.edges
    out = PathCycleDecomposition()
    anchors = set(h.vertices) | set(leaves(s))

    if variant == "A3":
        # independent cycles of s away from V(h) come out first
        carved = [c for c in cycle_components(s) if not (support(c) & h.vertices)]
        pool = _adjacency(graph(n, rest - frozenset(e for c in carved for e in c.edges)))
        out.cycles.extend(sorted(carved, key=lambda c: sorted(c.edges)))
        for c in out.cycles:
            anchors |= support(c)
        # remaining pieces: maximal threads between branch/anchor vertices
        stops = anchors | {v for v, ys in pool.items() if len(ys) != 2}
        for t in sorted(stops):
            while pool.get(t):
                path = _walk(pool, t, stops)
                out.paths.append(graph(n, zip(path, path[1:])))
                out.endpoints.append((path[0], path[-1]))
        if any(pool.values()):
            raise AssertionError("threads left edges uncovered")
        return out

    # variant A2: ears from the smallest anchor; with no anchor left on the
    # remaining edges, a walk from the smallest vertex seeds a cycle
    pool = _adjacency(graph(n, rest))
    while any(pool.values()):
        start = min([v for v in anchors if pool.get(v)] or [v for v, ys in pool.items() if ys])
        walk = _walk(pool, start, anchors)
        if walk[-1] not in anchors:
            # the walk bit its own tail at a fresh vertex: the loop becomes a
            # cycle and the stem goes back to the pool
            i = walk.index(walk[-1])
            for a, b in zip(walk[:i], walk[1 : i + 1]):
                pool[a].add(b)
                pool[b].add(a)
            walk = walk[i:]
            out.cycles.append(graph(n, zip(walk, walk[1:])))
        else:
            out.paths.append(graph(n, zip(walk, walk[1:])))
            out.endpoints.append((walk[0], walk[-1]))
        anchors |= set(walk)
    return out


# -- rooted trees and the tree growth constant --------------------------------


def rooted_tree_counts(max_n: int) -> list[int]:
    """Counts of unlabeled rooted trees on 1..max_n vertices.

    Uses the Euler-transform recurrence driven by the divisor sum.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check_budget("graph_core.rooted_tree_counts", "tree vertices", max_n, ROOTED_TREE_BUDGET)
    r = [0, 1]
    for n in range(1, max_n):
        total = 0
        for k in range(1, n + 1):
            div = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += div * r[n - k + 1]
        r.append(total // n)
    return r[1 : max_n + 1]


@dataclass(frozen=True)
class GrowthEstimate:
    value: float
    converged: bool
    raw_ratio: float


def otter_constant_estimate(max_n: int) -> GrowthEstimate:
    """Estimate the reciprocal growth rate lim r_n / r_{n+1}.

    Tree counts grow like C * beta^n * n^(-3/2), so the raw ratio carries a
    (1+1/n)^(3/2) prefactor that converges only like 1/n; plain Aitken on
    the raw sequence stalls well outside the third decimal.  We divide the
    known prefactor out first and then run two Aitken rounds on the
    remainder.  Estimates without enough terms for acceleration fall back
    to the raw ratio and are flagged unconverged.
    """
    counts = rooted_tree_counts(max_n)
    if len(counts) < 2:
        return GrowthEstimate(float("nan"), False, float("nan"))
    ratios = [counts[i] / counts[i + 1] for i in range(len(counts) - 1)]
    raw = ratios[-1]
    seq = [r * (1 + 1.0 / (i + 1)) ** -1.5 for i, r in enumerate(ratios)]
    if len(seq) < 3:
        return GrowthEstimate(raw, False, raw)
    rounds = 0
    while len(seq) >= 3 and rounds < 2:
        nxt = []
        for i in range(len(seq) - 2):
            denom = seq[i + 2] - 2 * seq[i + 1] + seq[i]
            if denom == 0:
                nxt.append(seq[i + 2])
            else:
                nxt.append(seq[i + 2] - (seq[i + 2] - seq[i + 1]) ** 2 / denom)
        seq = nxt
        rounds += 1
    return GrowthEstimate(seq[-1], rounds == 2 and max_n >= 20, raw)


# -- edge-list text format -----------------------------------------------------


def write_edge_list(g: LabeledGraph) -> str:
    """First line "n m", then one "u v" line per edge (0-based)."""
    lines = [f"{g.n_vertices} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> LabeledGraph:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[1 : m + 1]]
    return graph(n, edges, range(n))
