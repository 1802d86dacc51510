"""Vertex-addition construction of WT graphs.

Five operations grow a graph: adding a dominating vertex, an isolated
vertex (Type 1), a weakly dominating vertex (adjacent to all but one
minimum-degree vertex), a weakly isolated vertex (adjacent to exactly
one maximum-degree vertex) (Type 2), or a semi-joined path on four new
vertices whose midpoints are joined to every old vertex (Type 3).
Starting from K1 or the 4-path and applying these in any valid order
yields exactly the WT graphs.

The reverse direction peels one construction step off a WT graph; the
applicable case is read off the sorted degree sequence d:

    a. d_n = 0                                    remove an isolated vertex
    b. d_1 = n-1                                  remove a dominating vertex
    c. d_2 < d_1 = n-2, d_{n-1} = d_n = 1         remove a weakly isolated vertex
    d. d_1 = d_2 = n-2, d_{n-1} > d_n = 1         remove a weakly dominating vertex
    e. d_1 = d_2 = n-2, d_{n-1} = d_n = 1,        remove the semi-joined 4-path
       second slack 0

Exactly one case applies, and the leftover graph is again WT, which
drives recognition, sequence realization, and exhaustive generation.
"""

import os
from dataclasses import dataclass
from pathlib import Path

from . import graphcore as gc
from . import majorize, seqcore
from .errors import (
    InvalidOperation,
    InvariantViolation,
    NotWeaklyThreshold,
    SizeLimit,
)

OP_DOMINATING = "D"
OP_ISOLATED = "I"
OP_WEAKLY_DOMINATING = "WD"
OP_WEAKLY_ISOLATED = "WI"
OP_SEMIJOINED_P4 = "SP4"

TYPE1 = frozenset({OP_DOMINATING, OP_ISOLATED})
TYPE2 = frozenset({OP_WEAKLY_DOMINATING, OP_WEAKLY_ISOLATED})

ENUMERATION_MAX = gc.CANONICAL_MAX
SEQUENCE_ENUMERATION_MAX = 10


@dataclass(frozen=True)
class BuildOp:
    kind: str
    vertex: int | None = None

    def __post_init__(self):
        if self.kind in TYPE2:
            if self.vertex is None or self.vertex < 0:
                raise ValueError(f"{self.kind} needs a target vertex")
        elif self.kind in TYPE1 or self.kind == OP_SEMIJOINED_P4:
            if self.vertex is not None:
                raise ValueError(f"{self.kind} takes no vertex")
        else:
            raise ValueError(f"unknown op kind {self.kind!r}")


def dominating() -> BuildOp:
    return BuildOp(OP_DOMINATING)


def isolated() -> BuildOp:
    return BuildOp(OP_ISOLATED)


def weakly_dominating(skip: int) -> BuildOp:
    """New vertex adjacent to all but skip; skip must have minimum
    degree when applied."""
    return BuildOp(OP_WEAKLY_DOMINATING, skip)


def weakly_isolated(attach: int) -> BuildOp:
    """New vertex adjacent to attach only; attach must have maximum
    degree when applied."""
    return BuildOp(OP_WEAKLY_ISOLATED, attach)


def semijoined_p4() -> BuildOp:
    return BuildOp(OP_SEMIJOINED_P4)


@dataclass(frozen=True)
class BuildScript:
    seed: str
    ops: tuple[BuildOp, ...] = ()

    def __post_init__(self):
        if self.seed not in ("K1", "P4"):
            raise ValueError(f"seed must be K1 or P4, got {self.seed!r}")


@dataclass(frozen=True)
class PeelStep:
    case: str
    removed: tuple[int, ...]


def seed_graph(name: str) -> gc.SimpleGraph:
    return gc.SimpleGraph(1, []) if name == "K1" else gc.path_graph(4)


# === running scripts ===================================================


def apply_op(g: gc.SimpleGraph, op: BuildOp) -> gc.SimpleGraph:
    n = g.n
    degs = g.degrees()
    edges = g.edges()
    if op.kind == OP_DOMINATING:
        edges += [(v, n) for v in range(n)]
        return gc.SimpleGraph(n + 1, edges)
    if op.kind == OP_ISOLATED:
        return gc.SimpleGraph(n + 1, edges)
    if op.kind == OP_WEAKLY_DOMINATING:
        s = op.vertex
        if s >= n:
            raise InvalidOperation(f"skip vertex {s} not in graph")
        if degs[s] != min(degs):
            raise InvalidOperation(f"skip vertex {s} lacks minimum degree")
        edges += [(v, n) for v in range(n) if v != s]
        return gc.SimpleGraph(n + 1, edges)
    if op.kind == OP_WEAKLY_ISOLATED:
        a = op.vertex
        if a >= n:
            raise InvalidOperation(f"attach vertex {a} not in graph")
        if degs[a] != max(degs):
            raise InvalidOperation(f"attach vertex {a} lacks maximum degree")
        return gc.SimpleGraph(n + 1, edges + [(a, n)])
    # semi-joined 4-path: n..n+3 form a path with midpoints n+1, n+2
    edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3)]
    edges += [(v, n + 1) for v in range(n)]
    edges += [(v, n + 2) for v in range(n)]
    return gc.SimpleGraph(n + 4, edges)


def run_script(script: BuildScript) -> gc.SimpleGraph:
    g = seed_graph(script.seed)
    for i, op in enumerate(script.ops):
        try:
            g = apply_op(g, op)
        except InvalidOperation as e:
            raise InvalidOperation(f"op {i}: {e}") from None
    return g


def format_script(script: BuildScript) -> str:
    parts = []
    for op in script.ops:
        if op.kind in TYPE2:
            parts.append(f"{op.kind}({op.vertex})")
        else:
            parts.append(op.kind)
    return f"seed={script.seed};ops={','.join(parts)}"


def parse_script(text: str) -> BuildScript:
    try:
        seed_part, ops_part = text.split(";")
        seed = seed_part.removeprefix("seed=")
        body = ops_part.removeprefix("ops=")
        if not seed_part.startswith("seed=") or not ops_part.startswith("ops="):
            raise ValueError
        ops = []
        for tok in body.split(",") if body else []:
            if tok.endswith(")") and "(" in tok:
                kind, arg = tok[:-1].split("(")
                ops.append(BuildOp(kind, int(arg)))
            else:
                ops.append(BuildOp(tok))
        return BuildScript(seed, tuple(ops))
    except ValueError:
        raise ValueError(f"not a build script: {text!r}") from None


# === peeling ===========================================================


def _is_wt_graph(g: gc.SimpleGraph) -> bool:
    d = seqcore.normalize(g.degrees())
    c = seqcore.classify(d)
    return c.weakly_threshold


def peel(g: gc.SimpleGraph) -> PeelStep:
    """One reverse construction step; exactly one case fits a WT graph."""
    n = g.n
    if n < 2:
        raise ValueError("peeling needs at least two vertices")
    if not _is_wt_graph(g):
        raise NotWeaklyThreshold("input graph is not weakly threshold")
    degs = g.degrees()
    d = seqcore.normalize(degs)
    if d[-1] == 0:
        v = degs.index(0)
        return PeelStep("a", (v,))
    if d[0] == n - 1:
        v = degs.index(n - 1)
        return PeelStep("b", (v,))
    if d[1] < d[0] == n - 2 and d[-2] == d[-1] == 1:
        for z in range(n):
            if degs[z] == 1 and degs[g.neighbors(z)[0]] == n - 2:
                return PeelStep("c", (z,))
    elif d[0] == d[1] == n - 2 and d[-2] > d[-1] == 1:
        for v in range(n):
            if degs[v] != n - 2:
                continue
            non = [w for w in range(n) if w != v and not g.has_edge(v, w)]
            if degs[non[0]] == d[-1]:
                return PeelStep("d", (v,))
    elif (
        d[0] == d[1] == n - 2
        and d[-2] == d[-1] == 1
        and seqcore.eg_difference(d, 2) == 0
    ):
        zs = [v for v in range(n) if degs[v] == 1]
        us = [v for v in range(n) if degs[v] == n - 2]
        z1, z2 = zs
        u1 = g.neighbors(z1)[0]
        u2 = us[0] if us[1] == u1 else us[1]
        if not (u1 in us and g.has_edge(z2, u2) and g.has_edge(u1, u2)):
            raise InvariantViolation("case e degrees without a semi-joined 4-path")
        return PeelStep("e", (z1, u1, u2, z2))
    raise InvariantViolation("no construction case applies")


# === recognition =======================================================


def _base_script(g: gc.SimpleGraph):
    if g.n == 1:
        return BuildScript("K1"), {0: 0}
    if g.n == 4:
        iso = gc.isomorphism(gc.path_graph(4), g)
        if iso is not None:
            return BuildScript("P4"), dict(enumerate(iso))
    return None


def _build_wt(g: gc.SimpleGraph):
    """Script plus a map from replay vertices to vertices of g."""
    base = _base_script(g)
    if base is not None:
        return base
    step = peel(g)
    rest = [v for v in range(g.n) if v not in step.removed]
    inner_script, inner_map = _build_wt(g.induced(rest))
    vmap = {r: rest[inner_map[r]] for r in range(len(rest))}
    back = {orig: r for r, orig in vmap.items()}
    k = len(rest)
    if step.case == "a":
        op = isolated()
    elif step.case == "b":
        op = dominating()
    elif step.case == "c":
        z = step.removed[0]
        op = weakly_isolated(back[g.neighbors(z)[0]])
    elif step.case == "d":
        v = step.removed[0]
        non = next(
            w for w in range(g.n) if w != v and not g.has_edge(v, w)
        )
        op = weakly_dominating(back[non])
    else:
        op = semijoined_p4()
        z1, u1, u2, z2 = step.removed
        vmap.update({k: z1, k + 1: u1, k + 2: u2, k + 3: z2})
        return (
            BuildScript(inner_script.seed, inner_script.ops + (op,)),
            vmap,
        )
    vmap[k] = step.removed[0]
    return BuildScript(inner_script.seed, inner_script.ops + (op,)), vmap


def recognize(g: gc.SimpleGraph):
    """BuildScript for a WT graph, else the forbidden witness.

    The slack test on the degree sequence decides membership in
    polynomial time, and a member is peeled into its script.  Only a
    non-member pays for the witness search, which must then succeed.
    """
    if _is_wt_graph(g):
        return _build_wt(g)[0]
    witness = gc.find_forbidden(g)
    if witness is None:
        raise InvariantViolation(
            "slack test rejects a graph with no forbidden induced subgraph"
        )
    return witness


# === sequence realization ==============================================


def realize(d: seqcore.DegreeSequence) -> gc.SimpleGraph:
    """Deterministic WT realization, rebuilt along the peel cases with
    lowest-index targets."""
    d = seqcore.normalize(d)
    if not seqcore.classify(d).weakly_threshold:
        raise NotWeaklyThreshold(seqcore.format_sequence(d))
    return _realize_sorted(d)


def _realize_sorted(d: seqcore.DegreeSequence) -> gc.SimpleGraph:
    n = len(d)
    if n == 1:
        return gc.SimpleGraph(1, [])
    if d == (2, 2, 1, 1):
        return gc.path_graph(4)
    if d[-1] == 0:
        return apply_op(_realize_sorted(d[:-1]), isolated())
    if d[0] == n - 1:
        rest = tuple(t - 1 for t in d[1:])
        return apply_op(_realize_sorted(rest), dominating())
    if d[1] < d[0] == n - 2 and d[-2] == d[-1] == 1:
        rest = (d[0] - 1,) + d[1:-1]
        g = _realize_sorted(rest)
        degs = g.degrees()
        return apply_op(g, weakly_isolated(degs.index(max(degs))))
    if d[0] == d[1] == n - 2 and d[-2] > d[-1] == 1:
        rest = tuple(t - 1 for t in d[1:-1]) + (d[-1],)
        g = _realize_sorted(rest)
        degs = g.degrees()
        return apply_op(g, weakly_dominating(degs.index(min(degs))))
    rest = tuple(t - 2 for t in d[2:-2])
    return apply_op(_realize_sorted(rest), semijoined_p4())


# === exhaustive generation =============================================


def _catalog_dir() -> Path | None:
    root = os.environ.get("WT_CATALOG_DIR")
    return Path(root) if root else None


def _load_level(k: int) -> set[bytes] | None:
    """The stored level k, or None when it is missing or fails a check.

    Each code must be the canonical form of a WT graph on k vertices,
    and there must be as many distinct codes as the counting formula
    gives, so a level that loads is exactly the level the closure
    would rebuild.
    """
    from . import census  # census imports this module

    root = _catalog_dir()
    if root is None:
        return None
    path = root / f"level_{k}.txt"
    if not path.is_file():
        return None
    forms = set()
    try:
        for line in path.read_text().splitlines():
            order, hexcode, _seq = line.split(" ")
            code = bytes.fromhex(hexcode)
            if int(order) != k or code[:1] != bytes([k]):
                return None
            g = gc.graph_from_canonical_form(code)
            if gc.canonical_form(g) != code or not _is_wt_graph(g):
                return None
            forms.add(code)
    except ValueError:
        return None
    if len(forms) != census.count_wt_graphs(k):
        return None
    return forms


def _store_level(k: int, forms: set[bytes]) -> None:
    """Write level k through a temporary file, so a reader never sees
    a partly written level."""
    root = _catalog_dir()
    if root is None:
        return
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for code in sorted(forms):
        g = gc.graph_from_canonical_form(code)
        seq = seqcore.format_sequence(seqcore.normalize(g.degrees()))
        lines.append(f"{k} {code.hex()} {seq}")
    path = root / f"level_{k}.txt"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text("".join(line + "\n" for line in lines))
    os.replace(tmp, path)


def _expansions(g: gc.SimpleGraph):
    """Every one-vertex op result, over all valid target choices."""
    degs = g.degrees()
    lo, hi = min(degs), max(degs)
    yield apply_op(g, dominating())
    yield apply_op(g, isolated())
    for v in range(g.n):
        if degs[v] == lo:
            yield apply_op(g, weakly_dominating(v))
        if degs[v] == hi:
            yield apply_op(g, weakly_isolated(v))


def enumerate_wt_graphs(n: int) -> set[bytes]:
    """Canonical forms of all WT graphs on n vertices, by breadth-first
    closure of the construction from the two seeds."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > ENUMERATION_MAX:
        raise SizeLimit(f"graph enumeration bounded at n={ENUMERATION_MAX}")
    levels: dict[int, set[bytes]] = {}
    for k in range(1, n + 1):
        cached = _load_level(k)
        if cached is not None:
            levels[k] = cached
            continue
        forms: set[bytes] = set()
        if k == 1:
            forms.add(gc.canonical_form(seed_graph("K1")))
        if k == 4:
            forms.add(gc.canonical_form(seed_graph("P4")))
        for code in levels.get(k - 1, ()):
            g = gc.graph_from_canonical_form(code)
            for out in _expansions(g):
                forms.add(gc.canonical_form(out))
        for code in levels.get(k - 4, ()):
            g = gc.graph_from_canonical_form(code)
            forms.add(gc.canonical_form(apply_op(g, semijoined_p4())))
        levels[k] = forms
        _store_level(k, forms)
    return levels[n]


def enumerate_wt_sequences(n: int) -> set[seqcore.DegreeSequence]:
    """All length-n WT degree sequences."""
    if n < 1:
        raise ValueError("length must be positive")
    if n > SEQUENCE_ENUMERATION_MAX:
        raise SizeLimit(
            f"sequence enumeration bounded at n={SEQUENCE_ENUMERATION_MAX}"
        )
    out = set()
    for total in range(0, n * (n - 1) + 1, 2):
        for d in majorize.graphic_sequences(n, total):
            if all(x <= 1 for x in seqcore.eg_profile(d).deltas):
                out.add(d)
    return out


# === script normalization ==============================================


def _retarget(base: gc.SimpleGraph, vertex: int, pick) -> int:
    """Keep the target if still valid on base, else the lowest vertex
    of the wanted extreme degree."""
    degs = base.degrees()
    want = pick(degs)
    if vertex < base.n and degs[vertex] == want:
        return vertex
    return degs.index(want)


def _rewrite_pair(a: BuildOp, b: BuildOp, base: gc.SimpleGraph) -> list[BuildOp]:
    if a.kind == OP_ISOLATED and b.kind == OP_WEAKLY_ISOLATED:
        return [weakly_isolated(_retarget(base, b.vertex, max)), isolated()]
    if a.kind == OP_DOMINATING and b.kind == OP_WEAKLY_DOMINATING:
        return [weakly_dominating(_retarget(base, b.vertex, min)), dominating()]
    if a.kind == OP_ISOLATED and b.kind == OP_WEAKLY_DOMINATING:
        return [dominating(), isolated()]
    return [isolated(), dominating()]


def normalize_script(script: BuildScript) -> BuildScript:
    """Equivalent script in which a Type 3 op separates every Type 1 op
    from any later Type 2 op.

    Each pass rewrites one adjacent Type1-Type2 pair; like-flavored
    pairs commute (the target recomputed against the shorter prefix),
    and mixed pairs collapse to two Type 1 ops.
    """
    ops = list(script.ops)
    while True:
        for i in range(len(ops) - 1):
            if ops[i].kind in TYPE1 and ops[i + 1].kind in TYPE2:
                base = run_script(BuildScript(script.seed, tuple(ops[:i])))
                ops[i : i + 2] = _rewrite_pair(ops[i], ops[i + 1], base)
                break
        else:
            return BuildScript(script.seed, tuple(ops))
