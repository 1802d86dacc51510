"""Labeled simple graphs on small vertex counts.

Vertices are 0..n-1 and each vertex's neighborhood is a bitmask, so
adjacency tests and neighborhood algebra are single integer ops.  The
hard cap is 64 vertices; isomorphism-grade operations (canonical_form)
are bounded at 16.

Canonical forms are exact: vertices are grouped into degree classes
(classes ordered by decreasing degree, forced by the degree sequence)
and the code is the lexicographically minimal adjacency bit string over
all class-respecting vertex orderings, found by branch and bound.  Two
graphs get the same code iff they are isomorphic.  The bit order is the
column-by-column upper triangle: placing vertex t contributes its
adjacency bits to vertices placed 0..t-1, in that order.

The seven-graph forbidden family for the weakly threshold class is
built here explicitly, and is_wt_by_forbidden searches for an induced
member, returning a witness when one exists.  The exhaustive scan
screens against the same members' labeling codes.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from . import seqcore
from .errors import SizeLimit

MAX_VERTICES = 64
CANONICAL_MAX = 16


class SimpleGraph:
    """Immutable labeled simple graph; adjacency stored as bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > MAX_VERTICES:
            raise SizeLimit(f"n={n} exceeds the {MAX_VERTICES}-vertex cap")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.adj = tuple(masks)

    # --- basic accessors -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        ]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    # --- derived graphs --------------------------------------------------

    def add_vertex(self, nbrs) -> "SimpleGraph":
        """New graph with vertex n adjacent exactly to nbrs."""
        new = self.edges()
        for u in nbrs:
            if not 0 <= u < self.n:
                raise ValueError(f"neighbor {u} out of range")
            new.append((u, self.n))
        return SimpleGraph(self.n + 1, new)

    def induced(self, vertices) -> "SimpleGraph":
        """Subgraph on the given vertices, relabeled 0..k-1 in the
        given order."""
        vs = list(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        if len(pos) != len(vs):
            raise ValueError("duplicate vertices")
        es = [
            (pos[u], pos[v])
            for u, v in self.edges()
            if u in pos and v in pos
        ]
        return SimpleGraph(len(vs), es)

    def remove_vertices(self, vertices) -> "SimpleGraph":
        drop = set(vertices)
        return self.induced([v for v in range(self.n) if v not in drop])

    # --- value semantics -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"SimpleGraph({self.n}, {self.edges()})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# --- small named graphs ------------------------------------------------


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, combinations(range(n), 2))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


# --- core operations ---------------------------------------------------


def degree_sequence(g: SimpleGraph) -> seqcore.DegreeSequence:
    return seqcore.normalize(g.degrees())


def complement(g: SimpleGraph) -> SimpleGraph:
    full = (1 << g.n) - 1
    es = []
    for u in range(g.n):
        others = full & ~g.adj[u] & ~(1 << u)
        es.extend((u, v) for v in _bits(others) if v > u)
    return SimpleGraph(g.n, es)


# --- canonical forms ---------------------------------------------------


def _minimal_ordering(g: SimpleGraph, keys) -> tuple[list[int], tuple[int, ...]]:
    """Minimal class-respecting adjacency bit string and an ordering
    achieving it.

    Vertices are grouped by key (classes laid out in decreasing key
    order) and only orderings filling each class's slots from its own
    vertices compete.  Any key-preserving isomorphism respects the
    classes, so the minimum is an isomorphism invariant.

    Twins (equal keys, equal adjacency outside the pair) are placed in
    index order: swapping two is an automorphism, so the minimal code
    and the first ordering attaining it are unchanged, and a clique or
    independent class costs one ordering instead of all of them.
    """
    n = g.n
    if n > CANONICAL_MAX:
        raise SizeLimit(f"canonical form bounded at n={CANONICAL_MAX}")
    slot_key = sorted(keys, reverse=True)
    adj = g.adj
    # lower-index twins of each vertex, which must be placed before it
    twins_below = [
        sum(
            1 << u
            for u in range(v)
            if keys[u] == keys[v]
            and adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
        )
        for v in range(n)
    ]

    best_bits: list[int] | None = None
    best_perm: tuple[int, ...] = ()
    perm: list[int] = []

    def extend(pos: int, bits: list[int], used: int):
        nonlocal best_bits, best_perm
        if pos == n:
            if best_bits is None or bits < best_bits:
                best_bits = list(bits)
                best_perm = tuple(perm)
            return
        want = slot_key[pos]
        for v in range(n):
            if used >> v & 1 or keys[v] != want or twins_below[v] & ~used:
                continue
            fresh = [adj[v] >> u & 1 for u in perm]
            cand = bits + fresh
            if best_bits is not None and cand > best_bits[: len(cand)]:
                continue
            perm.append(v)
            extend(pos + 1, cand, used | 1 << v)
            perm.pop()

    extend(0, [], 0)
    assert best_bits is not None
    return best_bits, best_perm


@lru_cache(maxsize=1 << 17)
def _canonical(g: SimpleGraph) -> tuple[bytes, tuple[int, ...]]:
    degs = g.degrees()
    bits, perm = _minimal_ordering(g, degs)
    return bytes([g.n]) + _pack_bits(bits), perm


@lru_cache(maxsize=1 << 15)
def _canonical_colored(g: SimpleGraph, colors: tuple) -> tuple[bytes, tuple[int, ...]]:
    degs = g.degrees()
    keys = [(colors[v], degs[v]) for v in range(g.n)]
    bits, perm = _minimal_ordering(g, keys)
    # the bit string pins the graph; the key layout pins the coloring
    descriptor = repr((g.n, sorted(keys, reverse=True))).encode()
    return descriptor + b"|" + _pack_bits(bits), perm


def _pack_bits(bits) -> bytes:
    out = bytearray()
    acc = 0
    width = 0
    for b in bits:
        acc = acc << 1 | b
        width += 1
        if width == 8:
            out.append(acc)
            acc = 0
            width = 0
    if width:
        out.append(acc << (8 - width))
    return bytes(out)


def canonical_form(g: SimpleGraph) -> bytes:
    """Isomorphism-complete code; equal codes iff isomorphic (n <= 16)."""
    return _canonical(g)[0]


def canonical_ordering(g: SimpleGraph) -> tuple[int, ...]:
    """A vertex ordering whose adjacency bit string attains the code.

    Composing orderings of two graphs with equal codes gives an
    explicit isomorphism between them.
    """
    return _canonical(g)[1]


def canonical_form_colored(g: SimpleGraph, colors) -> bytes:
    """Code for isomorphism restricted to color-preserving maps.

    colors is one hashable label per vertex; equal codes iff some
    isomorphism maps each vertex to one of the same color.
    """
    if len(colors) != g.n:
        raise ValueError("need one color per vertex")
    return _canonical_colored(g, tuple(colors))[0]


def graph_from_canonical_form(code: bytes) -> SimpleGraph:
    """Rebuild the graph a canonical_form code describes."""
    if not code:
        raise ValueError("empty code")
    n = code[0]
    nbits = n * (n - 1) // 2
    data = code[1:]
    if len(data) != (nbits + 7) // 8:
        raise ValueError("code length does not match its vertex count")
    edges = []
    i = 0
    for v in range(n):
        for u in range(v):
            if data[i // 8] >> (7 - i % 8) & 1:
                edges.append((u, v))
            i += 1
    return SimpleGraph(n, edges)


def are_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def isomorphism(g: SimpleGraph, h: SimpleGraph) -> list[int] | None:
    """Map f with f[v_of_g] = v_of_h preserving adjacency, or None."""
    if g.n != h.n or canonical_form(g) != canonical_form(h):
        return None
    pg = canonical_ordering(g)
    ph = canonical_ordering(h)
    f = [0] * g.n
    for slot in range(g.n):
        f[pg[slot]] = ph[slot]
    return f


# --- split partitions --------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    independent: frozenset
    clique: frozenset


def split_partition(g: SimpleGraph) -> SplitPartition | None:
    """Split partition with clique of maximum size, or None.

    With m the corrected Durfee number of the degree sequence, a split
    graph's m highest-degree vertices form a maximum clique and the
    rest an independent set, however ties are broken (Hammer and
    Simeone, *The splittance of a graph*, Combinatorica 1 (1981)).  So
    the top m by (-degree, index) are taken as the clique side and both
    sides are checked by one mask test per vertex; if either fails, g
    is not split.
    """
    m = seqcore.corrected_durfee(degree_sequence(g))
    degs = g.degrees()
    adj = g.adj
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    top, rest = order[:m], order[m:]
    clique = sum(1 << v for v in top)
    indep = sum(1 << v for v in rest)
    if all((adj[v] | 1 << v) & clique == clique for v in top) and not any(
        adj[v] & indep for v in rest
    ):
        return SplitPartition(frozenset(rest), frozenset(top))
    return None


# --- induced subgraph search -------------------------------------------


@lru_cache(maxsize=32)
def labeling_codes(f: SimpleGraph) -> frozenset[int]:
    """Edge codes of every labeling of f.  In a labeling the pair u < v
    is bit v*(v-1)/2 + u, the layout ``exhaustive`` uses for its masks."""
    n = f.n
    weight = [
        [1 << (max(a, b) * (max(a, b) - 1) // 2 + min(a, b)) for b in range(n)]
        for a in range(n)
    ]
    edges = f.edges()
    codes = set()
    for perm in permutations(range(n)):
        code = 0
        for u, v in edges:
            code |= weight[perm[u]][perm[v]]
        codes.add(code)
    return frozenset(codes)


@lru_cache(maxsize=32)
def _prefix_codes(f: SimpleGraph) -> tuple[frozenset[int], ...]:
    """Entry j: the edge codes the first j vertices of some labeling of
    f induce.  They own the low j*(j-1)/2 bits of a labeling's code, so
    entry f.n is ``labeling_codes(f)``."""
    full = labeling_codes(f)
    return tuple(
        frozenset(c & ((1 << j * (j - 1) // 2) - 1) for c in full)
        for j in range(f.n + 1)
    )


def contains_induced(g: SimpleGraph, f: SimpleGraph) -> tuple[int, ...] | None:
    """Lexicographically smallest vertex set inducing a copy of f, or
    None.

    The edge codes of all labelings of f, up to k! of them for k = f.n,
    are tabulated once per pattern, together with their restrictions
    to the first j vertices.  Vertex sets are grown one increasing
    vertex at a time, so they are met in lexicographic order and
    witnesses are stable.  Each new vertex adds its adjacency to the
    chosen ones, read off the bitmasks, to the code, and a prefix whose
    code no labeling of f starts with is dropped with all its
    extensions.
    """
    k = f.n
    if k > g.n:
        raise ValueError("pattern larger than host")
    tables = _prefix_codes(f)
    adj = g.adj
    chosen: list[int] = []

    def extend(code: int, start: int) -> tuple[int, ...] | None:
        j = len(chosen)
        if j == k:
            return tuple(chosen)
        table = tables[j + 1]
        shift = j * (j - 1) // 2
        for v in range(start, g.n - k + j + 1):
            row = adj[v]
            grown = code
            for i, u in enumerate(chosen):
                if row >> u & 1:
                    grown |= 1 << (shift + i)
            if grown in table:
                chosen.append(v)
                hit = extend(grown, v + 1)
                chosen.pop()
                if hit is not None:
                    return hit
        return None

    return extend(0, 0)


# --- forbidden family ---------------------------------------------------


def _build_h_graph() -> SimpleGraph:
    # two adjacent centers, two private pendants each
    return SimpleGraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def _build_net() -> SimpleGraph:
    # triangle with one pendant per corner
    return SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def forbidden_family() -> list[tuple[str, SimpleGraph]]:
    """The seven minimal forbidden induced subgraphs, with names."""
    two_k2 = SimpleGraph(4, [(0, 1), (2, 3)])
    h = _build_h_graph()
    net = _build_net()
    return [
        ("2K2", two_k2),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("H", h),
        ("H-complement", complement(h)),
        ("S3", net),
        ("S3-complement", complement(net)),
    ]


@dataclass(frozen=True)
class ForbiddenWitness:
    family_member: str
    vertices: tuple[int, ...]


def find_forbidden(g: SimpleGraph) -> ForbiddenWitness | None:
    """First forbidden family member induced in g, in family order."""
    for name, member in forbidden_family():
        if member.n > g.n:
            continue
        hit = contains_induced(g, member)
        if hit is not None:
            return ForbiddenWitness(name, hit)
    return None


def is_wt_by_forbidden(g: SimpleGraph) -> bool:
    return find_forbidden(g) is None


def is_wt_by_degrees(g: SimpleGraph) -> bool:
    return seqcore.classify(degree_sequence(g)).weakly_threshold


# --- twins and clones --------------------------------------------------


def twins_and_clones(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Partition of V into classes of equal open neighborhoods (twins)
    or equal closed neighborhoods (clones)."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] == g.adj[v]:
                union(u, v)
            elif g.adj[u] | 1 << u == g.adj[v] | 1 << v:
                union(u, v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(vs) for vs in groups.values())


# --- text formats -------------------------------------------------------


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse "n=4;edges=0-1,1-2,2-3"."""
    try:
        n_part, e_part = text.strip().split(";", 1)
        if not n_part.startswith("n=") or not e_part.startswith("edges="):
            raise ValueError
        n = int(n_part[2:])
        body = e_part[len("edges="):]
        edges = []
        if body:
            for chunk in body.split(","):
                u, v = chunk.split("-")
                edges.append((int(u), int(v)))
    except ValueError:
        raise ValueError(f"not an edge-list literal: {text!r}") from None
    return SimpleGraph(n, edges)


def format_edge_list(g: SimpleGraph) -> str:
    body = ",".join(f"{u}-{v}" for u, v in g.edges())
    return f"n={g.n};edges={body}"


def to_graph6(g: SimpleGraph) -> str:
    """Standard graph6 text (short form, n <= 62)."""
    if g.n > 62:
        raise SizeLimit("graph6 short form bounded at n=62")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


def from_graph6(text: str) -> SimpleGraph:
    data = [ord(c) - 63 for c in text.strip()]
    if not data or not 0 <= data[0] <= 62:
        raise ValueError(f"not a graph6 literal: {text!r}")
    n = data[0]
    if n == 0:
        raise ValueError("graph6 with zero vertices unsupported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need or any(not 0 <= v < 64 for v in data[1:]):
        raise ValueError(f"not a graph6 literal: {text!r}")
    bits = []
    for val in data[1:]:
        for shift in range(5, -1, -1):
            bits.append(val >> shift & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return SimpleGraph(n, edges)
