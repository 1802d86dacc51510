"""Brute-force oracles used by the test suite.

Everything here is deliberately independent of the package internals:
graphicality via Havel-Hakimi, containment and canonical forms via
exhaustive permutation search, the first forbidden witness by a prefix
search over the whole graph, split partitions and decomposition heads
by subset enumeration.  Slow on purpose; bounds are chosen so
each oracle call stays well under a second.

Graphs are passed around as (n, edges) with edges a collection of
sorted vertex pairs.
"""

from functools import lru_cache
from itertools import combinations, permutations


def havel_hakimi(seq) -> bool:
    """Graphicality by repeated largest-vertex elimination."""
    work = sorted(seq, reverse=True)
    if any(t < 0 for t in work):
        return False
    while work:
        d = work.pop(0)
        if d == 0:
            return True
        if d > len(work):
            return False
        for i in range(d):
            work[i] -= 1
            if work[i] < 0:
                return False
        work.sort(reverse=True)
    return True


def nonincreasing_sequences(n, max_entry):
    """All nonincreasing tuples of length n with entries in 0..max_entry."""
    if n == 0:
        yield ()
        return
    for first in range(max_entry, -1, -1):
        for rest in nonincreasing_sequences(n - 1, first):
            yield (first,) + rest


def all_candidate_sequences(n):
    """All nonincreasing length-n tuples with entries at most n-1."""
    return nonincreasing_sequences(n, n - 1)


def all_graphic_sequences(n):
    return [s for s in all_candidate_sequences(n) if havel_hakimi(s)]


def all_edge_subsets(n):
    """Every labeled graph on n vertices, as a frozenset of pairs."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def degrees_of(n, edges):
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return tuple(sorted(degs, reverse=True))


def realizations(seq):
    """All labeled graphs on len(seq) vertices realizing seq."""
    n = len(seq)
    target = tuple(sorted(seq, reverse=True))
    return [e for e in all_edge_subsets(n) if degrees_of(n, e) == target]


def induced_subgraph_witness(n_g, edges_g, n_f, edges_f):
    """Lexicographically smallest vertex set of the host graph inducing
    a copy of the pattern, or None."""
    adj_g = {(u, v) for u, v in edges_g} | {(v, u) for u, v in edges_g}
    for subset in combinations(range(n_g), n_f):
        for perm in permutations(subset):
            ok = True
            for a, b in combinations(range(n_f), 2):
                host = (perm[a], perm[b]) in adj_g
                patt = (min(a, b), max(a, b)) in edges_f or (a, b) in edges_f
                if host != patt:
                    ok = False
                    break
            if ok:
                return subset
    return None


def canonical_by_permutation(n, edges):
    """Minimal adjacency bit tuple over all vertex orderings."""
    adj = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    best = None
    for perm in permutations(range(n)):
        bits = tuple(
            1 if (perm[i], perm[j]) in adj else 0
            for i in range(n)
            for j in range(i + 1, n)
        )
        if best is None or bits < best:
            best = bits
    return best


def is_module(n, edges, mset):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    outside = [v for v in range(n) if v not in mset]
    for v in outside:
        hits = [u in adj[v] for u in mset]
        if any(hits) and not all(hits):
            return False
    return True


def _adjacency_sets(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def split_partition_by_subsets(n, edges):
    """(independent side, clique side) as frozensets, or None: the
    first vertex set in combinations order that is a clique with an
    independent complement, tried from the largest size down."""
    adj = _adjacency_sets(n, edges)
    for size in range(n, -1, -1):
        for clique in combinations(range(n), size):
            if not all(v in adj[u] for u, v in combinations(clique, 2)):
                continue
            rest = [v for v in range(n) if v not in clique]
            if not any(v in adj[u] for u, v in combinations(rest, 2)):
                return frozenset(rest), frozenset(clique)
    return None


def _head_partition(n, adj, subset):
    """Forced (A, B) split of a head candidate, or None if invalid."""
    rest = set(range(n)) - set(subset)
    a, b = [], []
    for v in subset:
        hits = len(adj[v] & rest)
        if hits == len(rest):
            b.append(v)
        elif hits == 0:
            a.append(v)
        else:
            return None
    if any(v in adj[u] for u, v in combinations(a, 2)):
        return None
    if any(v not in adj[u] for u, v in combinations(b, 2)):
        return None
    return a, b


def minimal_head(n, edges):
    """Smallest valid decomposition head over every vertex subset;
    among equals, largest clique side B, then lexicographically first
    vertex set.  Returns (subset, A, B), each sorted, or None."""
    adj = _adjacency_sets(n, edges)
    for size in range(1, n):
        found = []
        for subset in combinations(range(n), size):
            part = _head_partition(n, adj, subset)
            if part is not None:
                a, b = part
                found.append((-len(b), subset, a, b))
        if found:
            _, subset, a, b = min(found)
            return subset, a, b
    return None


def _relabel(edges, keep):
    pos = {v: i for i, v in enumerate(keep)}
    return sorted(
        tuple(sorted((pos[u], pos[v])))
        for u, v in edges
        if u in pos and v in pos
    )


def decompose_by_subsets(n, edges):
    """Greedy decomposition by minimal_head.  Heads are (order, edges,
    A positions, B positions) on the head's vertices relabelled in
    increasing order; the tail is (order, edges), relabelled the same
    way."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    heads = []
    while True:
        hit = minimal_head(n, edges)
        if hit is None:
            return heads, (n, edges)
        subset, a, b = hit
        pos = {v: i for i, v in enumerate(subset)}
        heads.append(
            (
                len(subset),
                _relabel(edges, subset),
                [pos[v] for v in a],
                [pos[v] for v in b],
            )
        )
        keep = [v for v in range(n) if v not in pos]
        edges = _relabel(edges, keep)
        n = len(keep)


# The seven minimal forbidden induced subgraphs of the weakly threshold
# class, in the package's family order, as (name, order, edges).
FORBIDDEN_FAMILY = (
    ("2K2", 4, ((0, 1), (2, 3))),
    ("C4", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    ("C5", 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    ("H", 6, ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))),
    (
        "H-complement",
        6,
        tuple(
            p
            for p in combinations(range(6), 2)
            if p not in {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)}
        ),
    ),
    ("S3", 6, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5))),
    (
        "S3-complement",
        6,
        tuple(
            p
            for p in combinations(range(6), 2)
            if p not in {(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)}
        ),
    ),
)


@lru_cache(maxsize=None)
def _prefix_code_tables(k, edges):
    """Entry j: edge codes the first j vertices of some labeling of the
    pattern induce, the pair a < b of positions being bit b*(b-1)/2 + a."""
    codes = set()
    for perm in permutations(range(k)):
        code = 0
        for u, v in edges:
            a, b = sorted((perm[u], perm[v]))
            code |= 1 << (b * (b - 1) // 2 + a)
        codes.add(code)
    return [{c & ((1 << j * (j - 1) // 2) - 1) for c in codes} for j in range(k + 1)]


def _first_copy_in_whole_graph(n, adj, k, tables):
    """Lexicographically first increasing k-tuple inducing the pattern,
    grown vertex by vertex over the whole graph and pruned by prefix
    codes."""
    chosen = []

    def extend(code, start):
        j = len(chosen)
        if j == k:
            return tuple(chosen)
        shift = j * (j - 1) // 2
        for v in range(start, n - k + j + 1):
            grown = code
            for i, u in enumerate(chosen):
                if adj[v] >> u & 1:
                    grown |= 1 << (shift + i)
            if grown in tables[j + 1]:
                chosen.append(v)
                hit = extend(grown, v + 1)
                chosen.pop()
                if hit is not None:
                    return hit
        return None

    return extend(0, 0)


def forbidden_witness_by_whole_graph_search(n, edges):
    """(member name, vertex tuple) of the first family member, in
    family order, induced anywhere in the graph, with its
    lexicographically first vertex set; None for a member of the
    class.  Every member is searched over the whole graph, with no use
    of split sides or of the decomposition."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for name, k, f_edges in FORBIDDEN_FAMILY:
        if k > n:
            continue
        hit = _first_copy_in_whole_graph(n, adj, k, _prefix_code_tables(k, f_edges))
        if hit is not None:
            return name, hit
    return None
