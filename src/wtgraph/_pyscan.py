"""Pure-Python scan kernel over all labeled graphs of one order.

A graph on n vertices is an integer edge mask: bit v*(v-1)/2 + u set
means u and v are adjacent (u < v).  Membership in the one-unit-slack
class is answered by three separate routes:

* a degree-profile test on the sorted degree tuple,
* an induced-subgraph screen against the seven minimal obstructions,
* a structural reduction stripping extreme vertices until stuck.

``scan`` walks every mask of an order, cross-checks the routes and
complement closure, and reports counts.  The compiled twin module
mirrors ``scan`` and ``routes`` with the same semantics; this one is
the fallback and the reference.
"""

from __future__ import annotations

from itertools import combinations, permutations

SCAN_MAX = 8

# the five obstructions up to complement; the two 6-vertex ones gain
# their complements in _bad_tables
_OBSTRUCTIONS = [
    (4, ((0, 1), (2, 3))),
    (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    (6, ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5))),
    (6, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5))),
]


def _pair_bit(u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def _edge_code(edges) -> int:
    code = 0
    for u, v in edges:
        code |= 1 << _pair_bit(u, v)
    return code


def _complement_edges(k: int, edges):
    present = {frozenset(e) for e in edges}
    return [
        (u, v)
        for u, v in combinations(range(k), 2)
        if frozenset((u, v)) not in present
    ]


def _bad_tables() -> dict[int, frozenset[int]]:
    """Edge codes of every labeling of every obstruction, by order."""
    members = list(_OBSTRUCTIONS)
    members += [
        (k, tuple(_complement_edges(k, edges)))
        for k, edges in _OBSTRUCTIONS
        if k == 6
    ]
    tables: dict[int, set[int]] = {4: set(), 5: set(), 6: set()}
    for k, edges in members:
        for perm in permutations(range(k)):
            tables[k].add(_edge_code([(perm[u], perm[v]) for u, v in edges]))
    return {k: frozenset(v) for k, v in tables.items()}


_TABLES = _bad_tables()


def _subset_layouts(n: int):
    """Per k-subset, global bit position of each local pair slot."""
    layouts = []
    for k in (4, 5, 6):
        if k > n:
            continue
        rows = []
        for sub in combinations(range(n), k):
            row = [0] * (k * (k - 1) // 2)
            for a in range(k):
                for b in range(a):
                    row[_pair_bit(b, a)] = _pair_bit(sub[b], sub[a])
            rows.append(tuple(row))
        layouts.append((k, tuple(rows)))
    return layouts


_LAYOUTS: dict[int, list] = {}


def _layouts_for(n: int):
    """``_subset_layouts(n)``, kept per order up to ``SCAN_MAX + 1``."""
    if n > SCAN_MAX + 1:
        return _subset_layouts(n)
    hit = _LAYOUTS.get(n)
    if hit is None:
        hit = _LAYOUTS[n] = _subset_layouts(n)
    return hit


def _degree_route(degs: tuple[int, ...]) -> bool:
    """Slack of every prefix inequality stays within one unit.

    ``degs`` must be sorted nonincreasing and come from an actual
    graph, so evenness and the first-term bound hold for free.
    """
    n = len(degs)
    m = 0
    while m < n and degs[m] >= m:
        m += 1
    head = 0
    for k in range(1, m + 1):
        head += degs[k - 1]
        tail = sum(min(k, t) for t in degs[k:])
        if k * (k - 1) + tail - head > 1:
            return False
    return True


def _obstruction_route(n: int, mask: int, layouts) -> bool:
    for k, rows in layouts:
        table = _TABLES[k]
        for row in rows:
            code = 0
            for i, p in enumerate(row):
                if mask >> p & 1:
                    code |= 1 << i
            if code in table:
                return False
    return True


def _adjacency(n: int, mask: int) -> list[int]:
    adj = [0] * n
    bit = 0
    for v in range(n):
        for u in range(v):
            if mask >> bit & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit += 1
    return adj


def _reduction_route(n: int, mask: int) -> bool:
    """Strip extreme vertices until order three or stuck.

    Removals, tried in order: an isolated vertex; a dominating vertex;
    a pendant hanging on the unique vertex of degree n-2 (that vertex
    stays maximum after the removal); a degree-(n-2) vertex whose
    non-neighbor sits strictly below every other degree (so it stays
    minimum); a spanned path of four vertices whose midpoints cover
    everything else and whose endpoints touch nothing else.  Each is
    reversible inside the class, so stuck above order three means the
    graph is outside it.
    """
    adj = _adjacency(n, mask)
    while n > 3:
        degs = [bin(a).count("1") for a in adj]
        drop = None
        for v in range(n):
            if degs[v] == 0 or degs[v] == n - 1:
                drop = (v,)
                break
        if drop is None:
            tops = [v for v in range(n) if degs[v] == n - 2]
            if len(tops) == 1:
                u = tops[0]
                for z in range(n):
                    if degs[z] == 1 and adj[z] >> u & 1:
                        drop = (z,)
                        break
        if drop is None:
            for v in range(n):
                if degs[v] != n - 2:
                    continue
                w = next(
                    x for x in range(n) if x != v and not adj[v] >> x & 1
                )
                if all(
                    degs[x] > degs[w]
                    for x in range(n)
                    if x != v and x != w
                ):
                    drop = (v,)
                    break
        if drop is None:
            ones = [z for z in range(n) if degs[z] == 1]
            for z1, z2 in combinations(ones, 2):
                u1 = adj[z1].bit_length() - 1
                u2 = adj[z2].bit_length() - 1
                if (
                    u1 != u2
                    and degs[u1] == n - 2
                    and degs[u2] == n - 2
                    and adj[u1] >> u2 & 1
                    and not adj[u1] >> z2 & 1
                    and not adj[u2] >> z1 & 1
                ):
                    drop = (z1, u1, u2, z2)
                    break
        if drop is None:
            return False
        keep = [v for v in range(n) if v not in drop]
        adj = [
            sum(
                1 << i
                for i, u in enumerate(keep)
                if adj[v] >> u & 1
            )
            for v in keep
        ]
        n = len(keep)
    return True


def routes(n: int, mask: int) -> tuple[bool, bool, bool]:
    """The three membership verdicts for one graph."""
    degs = [0] * n
    bit = 0
    for v in range(n):
        for u in range(v):
            if mask >> bit & 1:
                degs[u] += 1
                degs[v] += 1
            bit += 1
    key = tuple(sorted(degs, reverse=True))
    return (
        _degree_route(key),
        _obstruction_route(n, mask, _layouts_for(n)),
        _reduction_route(n, mask),
    )


def scan(n: int):
    """Walk every mask of order n and cross-check all routes.

    Returns (total, wt_count, disagreements, complement_mismatches,
    wt_degree_tuples, first_disagreeing_mask_or_None).
    """
    nbits = n * (n - 1) // 2
    pairs = [(u, v) for v in range(n) for u in range(v)]
    layouts = _subset_layouts(n)
    memo: dict[tuple[int, ...], bool] = {}
    wt_count = 0
    disagreements = 0
    comp_mismatch = 0
    first = None
    for mask in range(1 << nbits):
        degs = [0] * n
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                degs[u] += 1
                degs[v] += 1
        key = tuple(sorted(degs, reverse=True))
        r1 = memo.get(key)
        if r1 is None:
            r1 = memo[key] = _degree_route(key)
        r2 = _obstruction_route(n, mask, layouts)
        r3 = _reduction_route(n, mask)
        if not (r1 == r2 == r3):
            disagreements += 1
            if first is None:
                first = mask
        if r1:
            wt_count += 1
        ckey = tuple(sorted((n - 1 - d for d in degs), reverse=True))
        rc = memo.get(ckey)
        if rc is None:
            rc = memo[ckey] = _degree_route(ckey)
        if r1 != rc:
            comp_mismatch += 1
    seqs = frozenset(k for k, good in memo.items() if good)
    return (1 << nbits, wt_count, disagreements, comp_mismatch, seqs, first)
