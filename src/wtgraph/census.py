"""Exact counts of the graph families this package studies.

Five count families share one table layout:

* ``s``: degree sequences whose slack profile stays within one unit,
* ``w``: isomorphism classes of graphs realizing such sequences,
* ``g`` and ``h``: the subsets of those whose canonical decomposition
  is a single component (sequences and graphs respectively),
* ``threshold``: the zero-slack subset, 2^(n-1) on n vertices.

Every count is an exact unbounded integer obtained from a linear
recurrence or from expanding a rational generating function; the lone
floating-point routine here is a diagnostic cross-check, never a
source of truth.  ``oracle_crosscheck`` ties the formulas back to the
exhaustive generators at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import buildkit, decomp, graphcore, seqcore
from .errors import InvariantViolation, NotExpandable, OutOfDomain, SizeLimit

TABLE_NAMES = ("g", "h", "s", "w", "threshold")

CROSSCHECK_GRAPH_MAX = 7
CROSSCHECK_SEQUENCE_MAX = 9


@dataclass(frozen=True)
class RationalSeries:
    """Quotient of integer polynomials, constant term first."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        for c in self.numerator + self.denominator:
            if not isinstance(c, int):
                raise ValueError("coefficients must be integers")
        if not self.denominator:
            raise NotExpandable("empty denominator")


def series_coefficients(f: RationalSeries, upto: int) -> list[int]:
    """Power-series coefficients of x^0..x^upto of ``f``.

    The denominator's constant term must be 1 so the division
    recurrence stays in the integers.
    """
    num, den = f.numerator, f.denominator
    if den[0] == 0:
        raise NotExpandable("denominator constant term is zero")
    if den[0] != 1:
        raise NotExpandable("denominator constant term must be 1")
    out: list[int] = []
    for k in range(upto + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c)
    return out


def wt_sequence_series() -> RationalSeries:
    """Generating function whose x^n coefficient is ``s`` at order n."""
    return RationalSeries((0, 1, -1, -1), (1, -3, 1, 1))


def wt_graph_series() -> RationalSeries:
    """Generating function whose x^n coefficient is ``w`` at order n."""
    return RationalSeries((0, 1, -2, -1, 0, -1), (1, -4, 3, 1, 0, 1))


def indecomposable_sequence_series() -> RationalSeries:
    """Coefficients (0, 2, 0, 0, g_4, g_5, ...).

    The 2 at order one counts the one-term component twice, once per
    side of its splitted form.
    """
    return RationalSeries((0, 2, -4, 0, 1), (1, -2))


def indecomposable_graph_series() -> RationalSeries:
    """Coefficients (0, 2, 0, 0, h_4, h_5, ...), sides counted as above."""
    return RationalSeries((0, 2, -6, 2, 1, -1, 1), (1, -3, 1))


def _poly_sub(a, b) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def assemble_from_components(parts: RationalSeries) -> RationalSeries:
    """Chain the one-component series F into (F - x)/(1 - F).

    Works purely on the integer polynomials; the result is not reduced,
    only its expansion matters.
    """
    n, d = parts.numerator, parts.denominator
    return RationalSeries(_poly_sub(n, (0,) + d), _poly_sub(d, n))


def count_indecomposable_sequences(n: int) -> int:
    if n < 4:
        raise OutOfDomain(f"no single-component count below 4 terms: {n}")
    return 2 ** (n - 4)


def count_indecomposable_graphs(n: int) -> int:
    if n < 4:
        raise OutOfDomain(f"no single-component count below 4 vertices: {n}")
    a, b, c = 1, 2, 6
    if n == 4:
        return a
    if n == 5:
        return b
    for _ in range(n - 6):
        a, b, c = b, c, 3 * c - b
    return c


def _expect_equal(found: int, want: int) -> None:
    """Two routes to one count; a mismatch is a bug, under any flags."""
    if found != want:
        raise InvariantViolation((found, want))


def count_wt_sequences(n: int) -> int:
    """Exact sequence count, recurrence route checked against the Pell route."""
    if n < 1:
        raise ValueError(f"order must be positive: {n}")
    s = [1, 2, 4]
    while len(s) < n:
        s.append(3 * s[-1] - s[-2] - s[-3])
    t1, t2 = 2, 6
    for _ in range(n - 1):
        t1, t2 = t2, 2 * t2 + t1
    _expect_equal(4 * s[n - 1] - 2, t1)
    return s[n - 1]


def count_wt_graphs(n: int) -> int:
    if n < 1:
        raise ValueError(f"order must be positive: {n}")
    w = [1, 2, 4, 9, 21]
    while len(w) < n:
        w.append(4 * w[-1] - 3 * w[-2] - w[-3] - w[-5])
    return w[n - 1]


def count_threshold_graphs(n: int) -> int:
    if n < 1:
        raise ValueError(f"order must be positive: {n}")
    return 2 ** (n - 1)


_COUNTERS = {
    "g": (4, count_indecomposable_sequences),
    "h": (4, count_indecomposable_graphs),
    "s": (1, count_wt_sequences),
    "w": (1, count_wt_graphs),
    "threshold": (1, count_threshold_graphs),
}


@dataclass(frozen=True)
class CountTable:
    name: str
    values: dict[int, int]

    def __post_init__(self):
        if self.name not in TABLE_NAMES:
            raise ValueError(f"unknown table name: {self.name!r}")


def count_table(name: str, upto: int) -> CountTable:
    start, fn = _COUNTERS[name] if name in _COUNTERS else (None, None)
    if fn is None:
        raise ValueError(f"unknown table name: {name!r}")
    return CountTable(name, {n: fn(n) for n in range(start, upto + 1)})


def growth_ratios(table: CountTable, upto: int) -> list[Fraction]:
    """Exact consecutive ratios values[n+1]/values[n] up to the bound."""
    ns = sorted(k for k in table.values if k <= upto)
    return [
        Fraction(table.values[b], table.values[a])
        for a, b in zip(ns, ns[1:])
        if b == a + 1
    ]


def format_count_table_tsv(upto: int) -> str:
    """TSV of all five families, single-component columns 0 below order 4."""
    lines = ["n\tg\th\ts\tw\tthreshold"]
    for n in range(1, upto + 1):
        g = count_indecomposable_sequences(n) if n >= 4 else 0
        h = count_indecomposable_graphs(n) if n >= 4 else 0
        lines.append(
            f"{n}\t{g}\t{h}\t{count_wt_sequences(n)}"
            f"\t{count_wt_graphs(n)}\t{count_threshold_graphs(n)}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CrosscheckReport:
    """Formula counts confirmed against the exhaustive generators.

    Graph-side fields are None when only the sequence side fits in the
    size budget; single-component fields are None below order 4.
    """

    order: int
    sequences: int
    graphs: int | None
    indecomposable_sequences: int | None
    indecomposable_graphs: int | None
    threshold: int | None


def oracle_crosscheck(n: int) -> CrosscheckReport:
    if n < 1:
        raise ValueError(f"order must be positive: {n}")
    if n > CROSSCHECK_SEQUENCE_MAX:
        raise SizeLimit(f"crosscheck bounded at order {CROSSCHECK_SEQUENCE_MAX}")

    seqs = buildkit.enumerate_wt_sequences(n)
    s_n = count_wt_sequences(n)
    _expect_equal(len(seqs), s_n)

    g_n = None
    if n >= 4:
        g_n = count_indecomposable_sequences(n)
        single = sum(1 for d in seqs if not decomp.decompose_sequence(d).heads)
        _expect_equal(single, g_n)

    if n > CROSSCHECK_GRAPH_MAX:
        return CrosscheckReport(n, s_n, None, g_n, None, None)

    codes = buildkit.enumerate_wt_graphs(n)
    w_n = count_wt_graphs(n)
    _expect_equal(len(codes), w_n)
    graphs = [graphcore.graph_from_canonical_form(c) for c in codes]

    h_n = None
    if n >= 4:
        h_n = count_indecomposable_graphs(n)
        single = sum(1 for g in graphs if decomp.is_indecomposable_graph(g))
        _expect_equal(single, h_n)

    t_n = count_threshold_graphs(n)
    zero_slack = sum(
        1
        for g in graphs
        if all(
            x == 0
            for x in seqcore.eg_profile(seqcore.normalize(g.degrees())).deltas
        )
    )
    _expect_equal(zero_slack, t_n)

    return CrosscheckReport(n, s_n, w_n, g_n, h_n, t_n)


def float_wt_graph_estimate(n: int) -> float:
    """Numeric closed-form evaluation of the graph count.

    Diagnostic only: sums c_i * r_i^n over the five characteristic
    roots, with roots and weights solved in floating point.  Exact
    counting never routes through here.
    """
    import numpy as np

    if n < 1:
        raise ValueError(f"order must be positive: {n}")
    roots = np.roots([1, -4, 3, 1, 0, 1])
    vand = np.array([[r**k for r in roots] for k in range(1, 6)], dtype=complex)
    coeffs = np.linalg.solve(vand, np.array([1, 2, 4, 9, 21], dtype=complex))
    return float(sum(c * r**n for c, r in zip(coeffs, roots)).real)
