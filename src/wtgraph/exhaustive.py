"""Whole-order scans over every labeled graph.

A graph on n vertices is an integer edge mask: bit v*(v-1)/2 + u set
means u and v are adjacent (u < v).  The layout is colex, so the low
(n-1)(n-2)/2 bits of a mask are the graph on vertices 0..n-2 and the
bits above them are vertex n-1's row.  Membership in the one-unit-slack
class is answered by three separate routes:

* a degree-profile test on the sorted degree tuple,
* an induced-subgraph screen against the edge codes of every labeling
  of the seven members of ``graphcore.forbidden_family``,
* a structural reduction stripping extreme vertices until stuck.

The screen and the reduction each do one step at the top order and
leave the rest to their own verdict on a smaller graph:

* the screen checks every 4-, 5- and 6-subset that holds vertex n-1,
  and the graph on vertices 0..n-2 must be clear too;
* the reduction removes what its first applicable rule allows and asks
  about the residual graph.  Every rule needs a vertex of degree 0,
  n-2 or n-1, so a graph without one is rejected at once.

Verdicts on smaller graphs go into a memo keyed by order and mask.  It
caches a pure function, so it cannot change an answer.

``scan_all`` walks every mask of an order, cross-checks the routes and
complement closure, and reports counts, so a scan doubles as a
consistency audit; its memo holds the smaller orders only.  ``routes``
gives the three verdicts for one mask through the same steps with a
fresh memo.  The screen's tables are built on first use.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import or_

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
    if not 0 <= mask < 1 << _nbits(n):
        raise ValueError(f"mask out of range for order {n}: {mask}")
    degs = _degrees(n, mask)
    return (
        _degree_route(tuple(sorted(degs, reverse=True))),
        _obstruction_route(n, mask, [{} for _ in range(n)]),
        _reduction_route(n, mask, degs, [{} for _ in range(n)]),
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


def _nbits(n: int) -> int:
    return n * (n - 1) // 2


def _pair_bit(u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


# Entry i: the pair (u, v) that mask bit i stands for.
_PAIRS = tuple((u, v) for v in range(SCAN_MAX + 1) for u in range(v))

# Entry n: per vertex, the mask bits of its pairs at order n.
_INCIDENCE = tuple(
    tuple(
        sum(1 << i for i, pair in enumerate(_PAIRS[: _nbits(n)]) if v in pair)
        for v in range(n)
    )
    for n in range(SCAN_MAX + 2)
)


def _degrees(n: int, mask: int) -> list[int]:
    return [(mask & inc).bit_count() for inc in _INCIDENCE[n]]


def _other_end(v: int, bit: int) -> int:
    """The vertex that mask bit ``bit`` pairs with v."""
    u, w = _PAIRS[bit]
    return u + w - v


def _without(n: int, mask: int, v: int) -> int:
    """Mask of the graph on the other n-1 vertices, in index order."""
    out = mask & ((1 << v * (v - 1) // 2) - 1)
    below = (1 << v) - 1
    for w in range(v + 1, n):
        row = mask >> w * (w - 1) // 2 & ((1 << w) - 1)
        out |= ((row & below) | (row >> (v + 1)) << v) << (w - 1) * (w - 2) // 2
    return out


@lru_cache(maxsize=None)
def _obstruction_codes() -> frozenset[int]:
    """Edge code of every labeling of every family member.  A member on
    k vertices also sets bit k(k-1)/2, just above its code, so codes of
    different orders never coincide."""
    return frozenset(
        code | 1 << _nbits(f.n)
        for _, f in graphcore.forbidden_family()
        for code in graphcore.labeling_codes(f)
    )


@lru_cache(maxsize=None)
def _top_tables(n: int) -> tuple[tuple[array, ...], ...]:
    """Per-byte gather tables for the subsets of order n that hold
    vertex n-1: 4-subsets first, then 5- and 6-subsets.

    Entry b, x is an ``array('H')`` with one slot per subset: the bits
    of the subset's local edge code that mask byte b sets when it reads
    x.  Byte 0 also sets the order bit of ``_obstruction_codes``, so
    OR-ing one entry per byte gives each subset's tagged code.
    """
    subsets = [
        sub + (n - 1,)
        for k in (4, 5, 6)
        if k <= n
        for sub in combinations(range(n - 1), k - 1)
    ]
    # per mask bit, per subset: the local code bit it sets, if any
    spread = [array("H", [0]) * len(subsets) for _ in range(_nbits(n))]
    for j, sub in enumerate(subsets):
        for b in range(len(sub)):
            for a in range(b):
                spread[_pair_bit(sub[a], sub[b])][j] = 1 << _pair_bit(a, b)
    tables = []
    for byte in range((_nbits(n) + 7) // 8):
        first = [1 << _nbits(len(sub)) if byte == 0 else 0 for sub in subsets]
        entries = [array("H", first)]
        for bit in spread[8 * byte : 8 * byte + 8]:
            entries += [array("H", map(or_, e, bit)) for e in entries]
        tables.append(tuple(entries))
    return tuple(tables)


def _top_clear(n: int, mask: int) -> bool:
    """No 4-, 5- or 6-subset holding vertex n-1 induces a family
    member."""
    tables = _top_tables(n)
    codes = tables[0][mask & 255]
    shift = 8
    for table in tables[1:]:
        codes = map(or_, codes, table[mask >> shift & 255])
        shift += 8
    return _obstruction_codes().isdisjoint(codes)


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


def _obstruction_route(n: int, mask: int, memo: list[dict[int, bool]]) -> bool:
    """No 4-, 5- or 6-subset induces a family member: none holding
    vertex n-1, and none inside the graph on vertices 0..n-2, whose
    verdict ``memo[n-1]`` keeps."""
    if n < 4:
        return True
    rest = mask & ((1 << (n - 1) * (n - 2) // 2) - 1)
    seen = memo[n - 1]
    clear = seen.get(rest)
    if clear is None:
        clear = seen[rest] = _obstruction_route(n - 1, rest, memo)
    return clear and _top_clear(n, mask)


def _reduction_route(
    n: int, mask: int, degs: list[int], memo: list[dict[int, bool]]
) -> bool:
    """Strip extreme vertices until order three or stuck.

    Removals, tried in order: an isolated vertex; a dominating vertex;
    a pendant hanging on the unique vertex of degree n-2 (that vertex
    stays maximum after the removal); a degree-(n-2) vertex whose
    non-neighbor sits strictly below every other degree (so it stays
    minimum); a spanned path of four vertices whose midpoints cover
    everything else and whose endpoints touch nothing else.  Each is
    reversible inside the class, so stuck above order three means the
    graph is outside it.  The lowest index goes first within a rule.
    One removal happens here; ``memo`` keeps the residual's verdict
    under its order.
    """
    if n <= 3:
        return True
    top = n - 2
    low = min(degs)
    if low and max(degs) < top:
        return False
    inc = _INCIDENCE[n]
    drop = None
    # an isolated and a dominating vertex never occur together
    if low == 0:
        drop = (degs.index(0),)
    elif n - 1 in degs:
        drop = (degs.index(n - 1),)
    if drop is None and degs.count(top) == 1:
        u = degs.index(top)
        for z in range(n):
            if degs[z] == 1 and mask >> _pair_bit(z, u) & 1:
                drop = (z,)
                break
    # below every degree but v's (which is n-2) means: the only vertex
    # of the minimum degree, and that minimum under n-2
    if drop is None and low < top and degs.count(low) == 1:
        for v in range(n):
            if degs[v] == top:
                w = _other_end(v, (inc[v] & ~mask).bit_length() - 1)
                if degs[w] == low:
                    drop = (v,)
                    break
    if drop is None:
        ones = [z for z in range(n) if degs[z] == 1]
        for z1, z2 in combinations(ones, 2):
            u1 = _other_end(z1, (mask & inc[z1]).bit_length() - 1)
            u2 = _other_end(z2, (mask & inc[z2]).bit_length() - 1)
            if (
                u1 != u2
                and degs[u1] == top
                and degs[u2] == top
                and mask >> _pair_bit(u1, u2) & 1
                and not mask >> _pair_bit(u1, z2) & 1
                and not mask >> _pair_bit(u2, z1) & 1
            ):
                drop = (z1, u1, u2, z2)
                break
    if drop is None:
        return False
    for v in sorted(drop, reverse=True):
        mask = _without(n, mask, v)
        n -= 1
    seen = memo[n]
    ok = seen.get(mask)
    if ok is None:
        ok = seen[mask] = _reduction_route(n, mask, _degrees(n, mask), memo)
    return ok


def _scan(n: int):
    """Walk every mask of order n and cross-check all routes.

    Returns (total, wt_count, disagreements, complement_mismatches,
    wt_degree_tuples, first_disagreeing_mask_or_None).
    """
    nbits = _nbits(n)
    incidence = _INCIDENCE[n]
    obstruction_memo: list[dict[int, bool]] = [{} for _ in range(n)]
    reduction_memo: list[dict[int, bool]] = [{} for _ in range(n)]
    # sorted degree tuple -> (degree verdict, complement's verdict differs)
    by_degrees: dict[tuple[int, ...], tuple[bool, bool]] = {}
    wt_count = 0
    disagreements = 0
    comp_mismatch = 0
    first = None
    for mask in range(1 << nbits):
        degs = [(mask & inc).bit_count() for inc in incidence]
        key = tuple(sorted(degs, reverse=True))
        known = by_degrees.get(key)
        if known is None:
            r1 = _degree_route(key)
            rc = _degree_route(tuple(n - 1 - d for d in reversed(key)))
            known = by_degrees[key] = (r1, r1 != rc)
        r1, flips = known
        r2 = _obstruction_route(n, mask, obstruction_memo)
        r3 = _reduction_route(n, mask, degs, reduction_memo)
        if not (r1 == r2 == r3):
            disagreements += 1
            if first is None:
                first = mask
        if r1:
            wt_count += 1
        if flips:
            comp_mismatch += 1
    seqs = frozenset(k for k, (good, _) in by_degrees.items() if good)
    return (1 << nbits, wt_count, disagreements, comp_mismatch, seqs, first)
