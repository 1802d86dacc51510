"""Composition and canonical decomposition of graphs and sequences.

A splitted graph is a split graph with a fixed partition (independent
side A, clique side B).  Composing a splitted graph onto a second graph
takes the disjoint union and joins every B vertex to every vertex of
the second graph.  At the degree-sequence level, with k clique terms in
the head and m terms in the second sequence, the clique terms gain m,
the second sequence's terms gain k, and the independent terms ride
along unchanged.

Every graph factors uniquely into indecomposable components under this
operation: a list of splitted heads (leftmost outermost) ending in a
plain tail.  Decomposition extracts the minimal head greedily and
recurses.  A vertex set S is a valid head when it is proper and
nonempty, its B vertices are adjacent to everything outside S and form
a clique, and its A vertices are independent and anticomplete to the
outside.  The minimal head is the smallest one, then the one with the
largest clique side, then the lexicographically first vertex set.

The head is read off the degree order (Tyshkevich, Discrete Math. 220
(2000)).  In a valid head with p clique and q independent vertices,
every B vertex has degree at least that of every vertex outside B, and
every A vertex at most that of every vertex outside A; a B vertex never
ties with an A vertex.  A B vertex tying with a vertex outside S is its
true twin, and an A vertex tying with one is its false twin.  So the p
highest-degree vertices as B and the q lowest-degree vertices as A,
ties broken by lowest index, form a valid head whenever any (p, q) head
exists, and the lexicographically first one.  Trying each size s = p + q
upward and p from s downward tests O(n^2) candidates per head, each by
a degree bound and then by bitmask.  No valid head means the graph is
the tail.

The degree-sequence analogue slices the top p and bottom q terms of the
sorted sequence, un-shifts them, and checks that the head is realizable
as a splitted graph and the middle is graphic.  The graph route above
never consults it, so the two stay independent.

Indecomposability has an independent second route: vertices are merged
whenever a 4-set induces one of 2K2, C4, P4, and a graph on 2 or more
vertices is indecomposable exactly when a single merge class covers V.
Those three are exactly the 4-vertex graphs in which every vertex has
one or two neighbours inside the 4-set, so each 4-set is classified by
four masked bit counts.
"""

from dataclasses import dataclass
from itertools import combinations

from . import graphcore as gc
from . import seqcore
from .errors import InvariantViolation, NotGraphic


# === splitted graphs and sequences =====================================


@dataclass(frozen=True)
class SplittedGraph:
    graph: gc.SimpleGraph
    independent: frozenset
    clique: frozenset

    def __post_init__(self):
        g = self.graph
        a, b = self.independent, self.clique
        if a | b != set(range(g.n)) or a & b:
            raise ValueError("independent and clique sides must partition V")
        for u, v in combinations(sorted(a), 2):
            if g.has_edge(u, v):
                raise ValueError(f"independent side has edge {u}-{v}")
        for u, v in combinations(sorted(b), 2):
            if not g.has_edge(u, v):
                raise ValueError(f"clique side misses edge {u}-{v}")

    def splitted_sequence(self) -> "SplittedSequence":
        degs = self.graph.degrees()
        c = tuple(sorted((degs[v] for v in self.clique), reverse=True))
        a = tuple(sorted((degs[v] for v in self.independent), reverse=True))
        return SplittedSequence(c, a)


@dataclass(frozen=True)
class SplittedSequence:
    """Degree sequence of a splitted graph; clique terms before the
    semicolon in the text form."""

    clique_terms: tuple[int, ...]
    independent_terms: tuple[int, ...]

    def __post_init__(self):
        if realize_splitted(self.clique_terms, self.independent_terms) is None:
            raise ValueError(
                f"not realizable with the declared partition: {format_splitted(self)}"
            )

    def terms(self) -> tuple[int, ...]:
        return self.clique_terms + self.independent_terms


def realize_splitted(clique_terms, independent_terms) -> gc.SimpleGraph | None:
    """Build a graph realizing the declared partition, or None.

    Clique side first (vertices 0..p-1), pairwise adjacent; the
    leftover clique degrees are matched to the independent side by
    largest-first bipartite filling, which succeeds exactly when some
    bipartite realization exists.
    """
    c = tuple(clique_terms)
    a = tuple(independent_terms)
    p, q = len(c), len(a)
    if p + q == 0:
        return None
    if any(c[i] < c[i + 1] for i in range(p - 1)) or any(
        a[j] < a[j + 1] for j in range(q - 1)
    ):
        return None
    residual = [t - (p - 1) for t in c]
    demand = list(a)
    if any(r < 0 or r > q for r in residual) or any(t < 0 or t > p for t in demand):
        return None
    if sum(residual) != sum(demand):
        return None
    edges = list(combinations(range(p), 2))
    order = sorted(range(p), key=lambda i: -residual[i])
    for i in order:
        need = residual[i]
        targets = sorted(range(q), key=lambda j: (-demand[j], j))[:need]
        for j in targets:
            if demand[j] == 0:
                return None
            demand[j] -= 1
            edges.append((i, p + j))
    if any(demand):
        return None
    return gc.SimpleGraph(p + q, edges)


def splitted_graph_from_terms(s: SplittedSequence) -> SplittedGraph:
    g = realize_splitted(s.clique_terms, s.independent_terms)
    if g is None:
        raise InvariantViolation(
            f"declared realizable, not realized: {format_splitted(s)}"
        )
    p = len(s.clique_terms)
    return SplittedGraph(
        g, frozenset(range(p, g.n)), frozenset(range(p))
    )


def parse_splitted(text: str) -> SplittedSequence:
    """Parse "2,2;1,1" (empty sides allowed: "0;", ";0")."""
    if text.count(";") != 1:
        raise ValueError(f"not a splitted-sequence literal: {text!r}")
    left, right = text.split(";")
    try:
        c = tuple(int(t) for t in left.split(",")) if left else ()
        a = tuple(int(t) for t in right.split(",")) if right else ()
    except ValueError:
        raise ValueError(f"not a splitted-sequence literal: {text!r}") from None
    return SplittedSequence(c, a)


def format_splitted(s: SplittedSequence) -> str:
    left = ",".join(str(t) for t in s.clique_terms)
    right = ",".join(str(t) for t in s.independent_terms)
    return f"{left};{right}"


def splitted_canonical_form(sg: SplittedGraph) -> bytes:
    """Code equal iff partition-preserving isomorphic."""
    colors = [1 if v in sg.clique else 0 for v in range(sg.graph.n)]
    return gc.canonical_form_colored(sg.graph, colors)


# === composition ========================================================


def compose_graph(head: SplittedGraph, h: gc.SimpleGraph) -> gc.SimpleGraph:
    """Disjoint union plus the complete join clique x V(h); head
    vertices keep their labels, h's shift up by head order."""
    k = head.graph.n
    edges = head.graph.edges()
    edges += [(u + k, v + k) for u, v in h.edges()]
    edges += [(b, w + k) for b in sorted(head.clique) for w in range(h.n)]
    return gc.SimpleGraph(k + h.n, edges)


def compose_splitted(head: SplittedGraph, second: SplittedGraph) -> SplittedGraph:
    """Composition carrying the merged partition (A1 u A2; B1 u B2)."""
    g = compose_graph(head, second.graph)
    k = head.graph.n
    return SplittedGraph(
        g,
        head.independent | {v + k for v in second.independent},
        head.clique | {v + k for v in second.clique},
    )


def compose_sequence(
    head: SplittedSequence, e: seqcore.DegreeSequence
) -> seqcore.DegreeSequence:
    k = len(head.clique_terms)
    m = len(e)
    merged = (
        [t + m for t in head.clique_terms]
        + [t + k for t in e]
        + list(head.independent_terms)
    )
    return seqcore.normalize(merged)


# === decomposition ======================================================


@dataclass(frozen=True)
class GraphDecomposition:
    heads: tuple[SplittedGraph, ...]
    tail: gc.SimpleGraph


@dataclass(frozen=True)
class SequenceDecomposition:
    heads: tuple[SplittedSequence, ...]
    tail: seqcore.DegreeSequence


def _degree_head(g: gc.SimpleGraph):
    """Minimal valid head as (vertex set, A side, B side), each sorted,
    or None when g is its own tail."""
    n = g.n
    adj = g.adj
    degs = g.degrees()
    high = sorted(range(n), key=lambda v: (-degs[v], v))
    low = sorted(range(n), key=lambda v: (degs[v], v))
    top = [0]  # top[p]: mask of high[:p]
    for v in high:
        top.append(top[-1] | 1 << v)
    bottom = [0]  # bottom[q]: mask of low[:q]
    for v in low:
        bottom.append(bottom[-1] | 1 << v)
    full = (1 << n) - 1
    for size in range(1, n):
        for p in range(size, -1, -1):
            q = size - p
            # a B vertex sees the rest and the other B vertices, an A
            # vertex at most the B side
            if p and degs[high[p - 1]] < n - size + p - 1:
                continue
            if q and degs[low[q - 1]] > p:
                continue
            b, a = top[p], bottom[q]
            if a & b:
                continue
            rest = full & ~(a | b)
            if all(
                adj[v] & rest == rest and (adj[v] | 1 << v) & b == b
                for v in high[:p]
            ) and not any(adj[v] & (rest | a) for v in low[:q]):
                return (
                    tuple(sorted(high[:p] + low[:q])),
                    sorted(low[:q]),
                    sorted(high[:p]),
                )
    return None


def decompose_graph(g: gc.SimpleGraph) -> GraphDecomposition:
    """Greedy leftmost extraction of minimal heads; unique by the
    decomposition theorem."""
    heads = []
    work = g
    while True:
        hit = _degree_head(work)
        if hit is None:
            return GraphDecomposition(tuple(heads), work)
        subset, a, b = hit
        pos = {v: i for i, v in enumerate(subset)}
        heads.append(
            SplittedGraph(
                work.induced(subset),
                frozenset(pos[v] for v in a),
                frozenset(pos[v] for v in b),
            )
        )
        work = work.remove_vertices(subset)


def recompose_graph(dec: GraphDecomposition) -> gc.SimpleGraph:
    out = dec.tail
    for head in reversed(dec.heads):
        out = compose_graph(head, out)
    return out


def _sequence_head(d: seqcore.DegreeSequence):
    """First valid (p, q) head slice of d, smallest total first, then
    largest clique part."""
    n = len(d)
    for size in range(1, n):
        for p in range(size, -1, -1):
            q = size - p
            m = n - size
            clique = tuple(t - m for t in d[:p])
            indep = tuple(d[n - q :])
            tail = tuple(t - p for t in d[p : n - q])
            if clique and clique[-1] < 0:
                continue
            if tail and tail[-1] < 0:
                continue
            if realize_splitted(clique, indep) is None:
                continue
            if not seqcore.is_graphic(tail):
                continue
            return SplittedSequence(clique, indep), tail
    return None


def decompose_sequence(d: seqcore.DegreeSequence) -> SequenceDecomposition:
    d = seqcore.normalize(d)
    if not seqcore.is_graphic(d):
        raise NotGraphic(seqcore.format_sequence(d))
    heads = []
    work = d
    while True:
        hit = _sequence_head(work)
        if hit is None:
            return SequenceDecomposition(tuple(heads), work)
        head, work = hit
        heads.append(head)


def recompose_sequence(dec: SequenceDecomposition) -> seqcore.DegreeSequence:
    out = dec.tail
    for head in reversed(dec.heads):
        out = compose_sequence(head, out)
    return out


# === indecomposability, second route ===================================


def is_indecomposable_graph(g: gc.SimpleGraph) -> bool:
    """Union-find route: merge every 4-set inducing 2K2, C4, or P4;
    indecomposable iff one class covers V (K1 counts as
    indecomposable)."""
    n = g.n
    if n == 1:
        return True
    if n < 4:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj = g.adj
    for quad in combinations(range(n), 4):
        q = sum(1 << v for v in quad)
        # in-quad degrees all 1 or 2: 2K2, C4 or P4
        if all(0 < (adj[v] & q).bit_count() < 3 for v in quad):
            root = find(quad[0])
            for v in quad[1:]:
                parent[find(v)] = root
    return len({find(v) for v in range(n)}) == 1


# === Erdos-Gallai differences under composition ========================


@dataclass(frozen=True)
class EgConcatenationReport:
    profile: tuple[int, ...]
    concatenated: tuple[int, ...]
    matches: bool


def check_eg_concatenation(d: seqcore.DegreeSequence) -> EgConcatenationReport:
    """Head-by-head slack lists, truncated at each clique-part size,
    must concatenate to the profile of the composed sequence."""
    d = seqcore.normalize(d)
    dec = decompose_sequence(d)
    pieces = []
    for head in dec.heads:
        p = len(head.clique_terms)
        if p == 0:
            continue
        terms = seqcore.normalize(head.terms())
        pieces.extend(seqcore.eg_difference(terms, k) for k in range(1, p + 1))
    tail_prof = seqcore.eg_profile(dec.tail)
    pieces.extend(tail_prof.deltas)
    profile = seqcore.eg_profile(d).deltas
    return EgConcatenationReport(profile, tuple(pieces), tuple(pieces) == profile)
