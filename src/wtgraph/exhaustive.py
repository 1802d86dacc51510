"""Whole-order scans over every labeled graph.

A graph on n vertices is an integer edge mask: bit v*(v-1)/2 + u set
means u and v are adjacent (u < v).  Membership in the one-unit-slack
class is answered by three separate routes:

* a degree-profile test on the sorted degree tuple,
* an induced-subgraph screen against the edge codes of every labeling
  of the seven members of ``graphcore.forbidden_family``,
* a structural reduction stripping extreme vertices until stuck.

``scan_all`` walks every mask of an order, cross-checks the routes and
complement closure, and reports counts, so a scan doubles as a
consistency audit.  ``routes`` gives the three verdicts for one mask.
The screen's tables and subset layouts are built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import graphcore
from .errors import SizeLimit

# The only scan kernel; kept as a name because perfbench/worker.py
# records exhaustive.BACKEND with every benchmark run.
BACKEND = "pure"

SCAN_MAX = 7


@dataclass(frozen=True)
class ScanResult:
    order: int
    total: int
    wt_count: int
    disagreements: int
    complement_mismatches: int
    sequences: frozenset[tuple[int, ...]]
    first_disagreement: int | None

    @property
    def consistent(self) -> bool:
        return self.disagreements == 0 and self.complement_mismatches == 0


def scan_all(n: int) -> ScanResult:
    """Scan all 2^(n(n-1)/2) labeled graphs of order n."""
    if n < 1:
        raise ValueError(f"order must be positive: {n}")
    if n > SCAN_MAX:
        raise SizeLimit(f"full scans bounded at order {SCAN_MAX}")
    return ScanResult(n, *_scan(n))


def routes(n: int, mask: int) -> tuple[bool, bool, bool]:
    """Three membership verdicts for the graph encoded by ``mask``."""
    if n < 1 or n > SCAN_MAX + 1:
        raise ValueError(f"order out of range: {n}")
    nbits = n * (n - 1) // 2
    if not 0 <= mask < 1 << nbits:
        raise ValueError(f"mask out of range for order {n}: {mask}")
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
        _obstruction_route(mask, _subset_layouts(n), _obstruction_tables()),
        _reduction_route(n, mask),
    )


def edge_mask(n: int, edges) -> int:
    """Mask encoding for an edge list, colex pair order."""
    mask = 0
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u}, {v}) for order {n}")
        mask |= 1 << _pair_bit(u, v)
    return mask


# --- the kernel ----------------------------------------------------------


def _pair_bit(u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


@lru_cache(maxsize=None)
def _obstruction_tables() -> tuple[frozenset[int], ...]:
    """Entry k: edge codes of every labeling of every family member on
    k vertices."""
    family = [member for _, member in graphcore.forbidden_family()]
    return tuple(
        frozenset().union(*(graphcore.labeling_codes(f) for f in family if f.n == k))
        for k in range(max(f.n for f in family) + 1)
    )


@lru_cache(maxsize=None)
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
    return tuple(layouts)


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


def _obstruction_route(mask: int, layouts, tables) -> bool:
    for k, rows in layouts:
        table = tables[k]
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


def _scan(n: int):
    """Walk every mask of order n and cross-check all routes.

    Returns (total, wt_count, disagreements, complement_mismatches,
    wt_degree_tuples, first_disagreeing_mask_or_None).
    """
    nbits = n * (n - 1) // 2
    pairs = [(u, v) for v in range(n) for u in range(v)]
    layouts = _subset_layouts(n)
    tables = _obstruction_tables()
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
        r2 = _obstruction_route(mask, layouts, tables)
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
