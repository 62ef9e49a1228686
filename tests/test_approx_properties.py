"""Property-based tests (hypothesis) for the degraded approx tier.

The approximate solver trades optimality for one-pass speed, but three
things it may never trade away, and each is a property here:

- **feasibility** — every labeling it returns satisfies the spec on the
  graph it was asked about, connected or not, mutated mid-stream or not;
- **certificate soundness** — its reported gap really brackets the
  optimum: ``lower_bound <= optimum <= span`` (checked against the
  brute-force optimum where that is computable), so ``gap = span - lb``
  is a true upper bound on the distance to optimal;
- **determinism** — a fixed ``(graph, spec, seed)`` reproduces the exact
  same labels bit for bit; the degraded tier must be replayable (and on
  three small graphs the labels themselves are pinned).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.approx import approx_labeling
from repro.graphs.generators import cycle_graph, paper_figure1_graph, star_graph
from repro.graphs.graph import Graph
from repro.labeling.bounds import lower_bound
from repro.labeling.exact import exact_labeling
from repro.labeling.spec import L21, LpSpec

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def sparse_graphs(draw, min_n=1, max_n=14):
    """Arbitrary graphs, disconnected ones very much included."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, (p for p, keep in zip(pairs, mask) if keep))


@st.composite
def specs(draw):
    """Constraint vectors of length 1-3 with values 1-4 (no reduction regime
    assumed — the approx tier must hold its properties on any LpSpec)."""
    k = draw(st.integers(1, 3))
    return LpSpec(tuple(draw(st.integers(1, 4)) for _ in range(k)))


@st.composite
def mutations(draw, n):
    """A short toggle stream over vertex pairs of an n-vertex graph."""
    if n < 2:
        return []
    steps = draw(st.integers(1, 6))
    out = []
    for _ in range(steps):
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# feasibility — on anything the generators can produce
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(sparse_graphs(), specs())
def test_approx_always_feasible(g, spec):
    res = approx_labeling(g, spec)
    assert res.labeling.is_feasible(g, spec)
    assert res.span == res.labeling.span


@settings(**SETTINGS)
@given(st.data())
def test_approx_feasible_after_mutations(data):
    """Toggling edges between solves never breaks the next solve."""
    g = data.draw(sparse_graphs(min_n=2, max_n=10))
    for u, v in data.draw(mutations(g.n)):
        if g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.add_edge(u, v)
        res = approx_labeling(g, L21)
        assert res.labeling.is_feasible(g, L21)


# ---------------------------------------------------------------------------
# certificate soundness
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(sparse_graphs(), specs())
def test_lower_bound_never_exceeds_approx_span(g, spec):
    res = approx_labeling(g, spec)
    assert res.lower_bound == lower_bound(g, spec)
    assert res.lower_bound <= res.span
    assert res.gap == res.span - res.lower_bound
    assert res.gap >= 0


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_graphs(max_n=8), specs())
def test_gap_certificate_brackets_the_optimum(g, spec):
    """``span - gap <= optimum <= span``: the certificate is honest."""
    res = approx_labeling(g, spec)
    opt = exact_labeling(g, spec, max_n=8).span
    assert res.lower_bound <= opt <= res.span
    # equivalently, in certificate terms:
    assert res.span - res.gap <= opt


@settings(**SETTINGS)
@given(sparse_graphs(), specs())
def test_ratio_matches_certificate(g, spec):
    res = approx_labeling(g, spec)
    if res.lower_bound > 0:
        assert res.ratio == res.span / res.lower_bound
    else:
        assert res.ratio == 1.0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(sparse_graphs(), specs(), st.integers(0, 2**31 - 1))
def test_bit_identical_for_fixed_seed(g, spec, seed):
    a = approx_labeling(g, spec, seed=seed)
    b = approx_labeling(g.copy(), spec, seed=seed)  # cold analysis too
    assert a.labeling.labels == b.labeling.labels
    assert (a.span, a.lower_bound, a.gap, a.ratio) == (
        b.span, b.lower_bound, b.gap, b.ratio
    )


def test_empty_graph_short_circuit():
    res = approx_labeling(Graph(0, []), L21)
    assert res.labeling.labels == ()
    assert res.span == 0 and res.gap == 0 and res.ratio == 1.0


@pytest.mark.parametrize(
    "graph, expected",
    [
        (paper_figure1_graph(), (4, 0, 2, 0, 5)),
        (cycle_graph(6), (1, 3, 0, 2, 6, 4)),
        (star_graph(5), (3, 5, 0, 1, 7, 6)),
    ],
    ids=["paper_figure1", "cycle6", "star5"],
)
def test_pinned_labels(graph, expected):
    """Exact L(2,1) labels: the select pass's first fit must not drift."""
    assert approx_labeling(graph, L21).labeling.labels == expected
