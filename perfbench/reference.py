"""Independent references the benchmark checks the program's outputs with.

Nothing here imports wtgraph: every answer is recomputed from the
definitions in the paper, with networkx as the isomorphism oracle and
numpy for the brute-force labelled counts.  A graph is passed around as
``(n, edges)`` with ``edges`` a list of pairs.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import networkx as nx
import numpy as np

# --- degree sequences ------------------------------------------------------


def slack_profile(d) -> list[int]:
    """Erdos-Gallai slacks delta_1..delta_m of a sequence.

    delta_k = k(k-1) + sum_{i>k} min(k, d_i) - sum_{i<=k} d_i, for
    k <= m = max{i : d_i >= i - 1} (1-indexed, d nonincreasing).
    """
    d = sorted(d, reverse=True)
    out = []
    head = 0
    for k in range(1, len(d) + 1):
        if d[k - 1] < k - 1:
            break
        head += d[k - 1]
        out.append(k * (k - 1) + sum(min(k, t) for t in d[k:]) - head)
    return out


def is_wt_sequence(d) -> bool:
    """The paper's test: graphic (even sum, no negative slack) and every
    slack at most 1."""
    if sum(d) % 2:
        return False
    return all(0 <= x <= 1 for x in slack_profile(d))


def _nonincreasing(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(cap, -1, -1):
        for rest in _nonincreasing(n - 1, first):
            yield (first,) + rest


def wt_sequences(n: int) -> set[tuple[int, ...]]:
    """Brute force: every nonincreasing length-n tuple with terms at most
    n - 1 that passes the slack test."""
    return {d for d in _nonincreasing(n, n - 1) if is_wt_sequence(d)}


# --- counts from the generating functions ----------------------------------

# Rational generating functions from the paper, constant term first:
# sum s_n x^n = (x - x^2 - x^3) / (1 - 3x + x^2 + x^3) and
# sum w_n x^n = (x - 2x^2 - x^3 - x^5) / (1 - 4x + 3x^2 + x^3 + x^5).
_S_SERIES = ((0, 1, -1, -1), (1, -3, 1, 1))
_W_SERIES = ((0, 1, -2, -1, 0, -1), (1, -4, 3, 1, 0, 1))


def _coefficient(series, n: int) -> int:
    num, den = series
    out: list[int] = []
    for k in range(n + 1):
        c = num[k] if k < len(num) else 0
        c -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(c)
    return out[n]


def s_count(n: int) -> int:
    """Number of WT degree sequences of length n."""
    return _coefficient(_S_SERIES, n)


def w_count(n: int) -> int:
    """Number of WT graphs on n vertices, up to isomorphism."""
    return _coefficient(_W_SERIES, n)


# --- labelled counts -------------------------------------------------------


def labelled_wt_counts(n: int) -> tuple[int, int]:
    """(labelled graphs, labelled WT graphs) on n vertices, over every
    edge mask at once.

    A graph's degree sequence is graphic, so the slack test reduces to
    delta_k <= 1 wherever d_k >= k - 1.
    """
    pairs = list(combinations(range(n), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    deg = np.zeros((masks.size, n), dtype=np.int16)
    for bit, (u, v) in enumerate(pairs):
        on = ((masks >> bit) & 1).astype(np.int16)
        deg[:, u] += on
        deg[:, v] += on
    d = -np.sort(-deg, axis=1)
    ok = np.ones(masks.size, dtype=bool)
    for k in range(1, n + 1):
        active = d[:, k - 1] >= k - 1
        head = d[:, :k].sum(axis=1)
        tail = np.minimum(d[:, k:], k).sum(axis=1)
        ok &= ~(active & (k * (k - 1) + tail - head > 1))
    return int(masks.size), int(ok.sum())


# --- graphs ----------------------------------------------------------------


def to_nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def degree_sequence(n: int, edges) -> tuple[int, ...]:
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return tuple(sorted(degs, reverse=True))


def is_wt_graph(n: int, edges) -> bool:
    return is_wt_sequence(degree_sequence(n, edges))


def isomorphic(a, b) -> bool:
    """a and b are (n, edges) pairs."""
    return a[0] == b[0] and nx.is_isomorphic(to_nx(*a), to_nx(*b))


def _with_pendants(core: nx.Graph, per_vertex: int) -> nx.Graph:
    g = core.copy()
    nxt = max(g) + 1
    for v in list(core):
        for _ in range(per_vertex):
            g.add_edge(v, nxt)
            nxt += 1
    return g


def forbidden_graphs() -> dict[str, nx.Graph]:
    """The seven minimal forbidden induced subgraphs, by definition:
    two disjoint edges, the 4- and 5-cycles, the double star with two
    leaves on each of two adjacent centres (H), the net (a triangle
    with one pendant per corner, S3), and the complements of the last
    two."""
    h = _with_pendants(nx.complete_graph(2), 2)
    net = _with_pendants(nx.complete_graph(3), 1)
    return {
        "2K2": nx.disjoint_union(nx.complete_graph(2), nx.complete_graph(2)),
        "C4": nx.cycle_graph(4),
        "C5": nx.cycle_graph(5),
        "H": h,
        "H-complement": nx.complement(h),
        "S3": net,
        "S3-complement": nx.complement(net),
    }


def from_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode short-form graph6: n + 63, then the upper triangle column
    by column in six-bit groups."""
    data = [ord(c) - 63 for c in text]
    n = data[0]
    bits = [val >> shift & 1 for val in data[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, b in zip(pairs, bits) if b]


# --- recognition outputs ---------------------------------------------------


def apply_op(adj: list[set[int]], kind: str, target: int | None = None) -> None:
    """Apply one construction op to adjacency sets, in place.

    D adds a dominating vertex, I an isolated one, WD(s) a vertex
    adjacent to all but s, WI(a) a vertex adjacent to a alone, SP4 a
    path on four new vertices whose midpoints see every old vertex.
    The Type-2 degree preconditions are checked; a violation raises
    ValueError.
    """
    k = len(adj)
    degs = [len(a) for a in adj]
    if kind == "SP4":
        path = [{k + 1}, {k, k + 2}, {k + 1, k + 3}, {k + 2}]
        for v in range(k):
            adj[v] |= {k + 1, k + 2}
        path[1] |= set(range(k))
        path[2] |= set(range(k))
        adj.extend(path)
        return
    if kind == "D":
        new = set(range(k))
    elif kind == "I":
        new = set()
    elif kind == "WD":
        if not 0 <= target < k or degs[target] != min(degs):
            raise ValueError(f"WD({target}): skip vertex lacks minimum degree")
        new = set(range(k)) - {target}
    elif kind == "WI":
        if not 0 <= target < k or degs[target] != max(degs):
            raise ValueError(f"WI({target}): attach vertex lacks maximum degree")
        new = {target}
    else:
        raise ValueError(f"unknown op {kind!r}")
    for v in new:
        adj[v].add(k)
    adj.append(new)


def replay_script(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Rebuild the graph a construction script describes, in the text
    form ``seed=K1;ops=D,I,WD(3),WI(0),SP4``."""
    seed_part, ops_part = text.split(";")
    seed = seed_part.removeprefix("seed=")
    if seed == "K1":
        adj: list[set[int]] = [set()]
    elif seed == "P4":
        adj = [{1}, {0, 2}, {1, 3}, {2}]
    else:
        raise ValueError(f"unknown seed {seed!r}")
    body = ops_part.removeprefix("ops=")
    for tok in body.split(",") if body else []:
        kind, _, arg = tok.partition("(")
        apply_op(adj, kind, int(arg.rstrip(")")) if arg else None)
    return len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]


def check_recognition(graph, out: dict) -> list[str]:
    """``out`` holds ``script`` (text or None) and ``witness`` ({name,
    vertices} or None) for the (n, edges) ``graph``."""
    n, edges = graph
    wt = is_wt_graph(n, edges)
    if (out["script"] is not None) != wt:
        return [f"script given = {out['script'] is not None}, slack test says WT = {wt}"]
    if wt:
        try:
            rebuilt = replay_script(out["script"])
        except ValueError as e:
            return [f"script does not replay: {e}"]
        if not isomorphic(rebuilt, graph):
            return ["replayed script is not isomorphic to the input"]
        return []
    w = out["witness"]
    family = forbidden_graphs()
    if w is None or w["name"] not in family:
        return [f"no named forbidden witness: {w!r}"]
    vs = w["vertices"]
    if len(set(vs)) != len(vs) or not all(0 <= v < n for v in vs):
        return [f"witness vertices invalid: {vs}"]
    sub = to_nx(n, edges).subgraph(vs)
    if not nx.is_isomorphic(sub, family[w["name"]]):
        return [f"vertices {vs} do not induce {w['name']}"]
    return []


# --- decompositions --------------------------------------------------------


def compose(head: dict, rest):
    """Disjoint union of a splitted head and (n, edges) ``rest``, with
    every clique vertex of the head joined to every vertex of rest."""
    k = head["n"]
    n, edges = rest
    out = [tuple(e) for e in head["edges"]]
    out += [(u + k, v + k) for u, v in edges]
    out += [(b, w + k) for b in head["clique"] for w in range(n)]
    return k + n, out


def _head_problem(head: dict) -> str | None:
    n, a, b = head["n"], set(head["independent"]), set(head["clique"])
    if n < 1 or a | b != set(range(n)) or a & b:
        return "head sides do not partition its vertices"
    es = {frozenset(e) for e in head["edges"]}
    if any(frozenset(p) in es for p in combinations(sorted(a), 2)):
        return "head independent side has an edge"
    if any(frozenset(p) not in es for p in combinations(sorted(b), 2)):
        return "head clique side misses an edge"
    return None


def check_decomposition(graph, dec: dict, seq_dec: dict) -> list[str]:
    """``dec`` holds ``heads`` (each {n, edges, independent, clique}) and
    ``tail`` ({n, edges}); ``seq_dec`` holds the sequence decomposition
    of the input's degree sequence as ``heads`` ([clique terms,
    independent terms] pairs) and ``tail`` (terms)."""
    for head in dec["heads"]:
        problem = _head_problem(head)
        if problem:
            return [problem]
    out = (dec["tail"]["n"], dec["tail"]["edges"])
    for head in reversed(dec["heads"]):
        out = compose(head, out)
    if not isomorphic(out, graph):
        return ["recomposition is not isomorphic to the input"]
    parts = []
    for head in dec["heads"]:
        degs = [0] * head["n"]
        for u, v in head["edges"]:
            degs[u] += 1
            degs[v] += 1
        clique = sorted((degs[v] for v in head["clique"]), reverse=True)
        indep = sorted((degs[v] for v in head["independent"]), reverse=True)
        parts.append([clique, indep])
    want = [[list(c), list(a)] for c, a in seq_dec["heads"]]
    tail = list(degree_sequence(dec["tail"]["n"], dec["tail"]["edges"]))
    if parts != want or tail != list(seq_dec["tail"]):
        return ["component degree sequences differ from the sequence decomposition"]
    return []


# --- catalogs --------------------------------------------------------------


def check_graph_catalog(n: int, graphs) -> list[str]:
    """``graphs`` is a list of (n, edges): it must hold exactly one
    representative of every WT graph on n vertices."""
    problems = []
    if len(graphs) != w_count(n):
        problems.append(f"{len(graphs)} graphs, w_{n} = {w_count(n)}")
    if any(g[0] != n or not is_wt_graph(*g) for g in graphs):
        problems.append("a catalog graph is not WT by the slack test")
    buckets = defaultdict(list)
    for g in graphs:
        h = to_nx(*g)
        invariant = sorted((h.degree(v), sorted(h.degree(w) for w in h[v])) for v in h)
        buckets[repr(invariant)].append(h)
    for group in buckets.values():
        for a, b in combinations(group, 2):
            if nx.is_isomorphic(a, b):
                problems.append("two catalog graphs are isomorphic")
                break
    realised = {degree_sequence(*g) for g in graphs}
    if not wt_sequences(n) <= realised:
        problems.append(f"some WT sequence of length {n} is not realised")
    return problems


def check_sequence_catalog(n: int, items) -> list[str]:
    got = [tuple(d) for d in items]
    if len(set(got)) != len(got):
        return ["sequence catalog repeats an item"]
    if set(got) != wt_sequences(n):
        return [f"sequence catalog differs from the brute-force WT set of length {n}"]
    return []
