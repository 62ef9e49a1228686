"""Referee: the solver's spans against a committed table of optimal spans.

``tests/data/golden_spans.json`` holds the optimum for every MATRIX
reduction instance, for the paper's two figures and for the Griggs–Yeh
closed forms at a few sizes.  For every record, ``solve_labeling(engine=
"auto")`` must not go below the optimum (that would mean the solver or the
table is wrong), an answer marked ``exact`` must equal it, and the summed
excess of the heuristic answers may not grow.
"""

import json
from pathlib import Path

import pytest

from repro.graphs import generators as gen
from repro.harness.workloads import MATRIX, make_workload
from repro.labeling import special
from repro.labeling.spec import LpSpec
from repro.reduction.solver import solve_labeling

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_spans.json").read_text()
)["spans"]

#: Σ(span − golden) over the table: LK answers 42 and 43 on
#: ``diam3-sparse`` n=40, whose optimum is 41 on both seeds.
MAX_SPAN_EXCESS = 3


def _record_id(rec):
    if rec["seed"] is None:
        return f"{rec['leg']}{tuple(rec['args'])}"
    return f"{rec['leg']}/n{rec['n']}/s{rec['seed']}"


def _graph(rec):
    if rec["seed"] is None:
        return getattr(gen, rec["leg"] + "_graph")(*rec["args"])
    return make_workload(MATRIX[rec["leg"]].family, rec["n"], rec["seed"]).graph


@pytest.fixture(scope="module")
def solved():
    """Every record solved once with the ``auto`` engine, keyed by its id."""
    return {
        _record_id(rec): solve_labeling(
            _graph(rec), LpSpec(tuple(rec["p"])), engine="auto"
        )
        for rec in GOLDEN
    }


def test_table_covers_every_matrix_reduction_instance():
    keys = {(r["leg"], r["n"], r["seed"], tuple(r["p"])) for r in GOLDEN}
    for leg in MATRIX.values():
        if leg.reduction:
            for w in leg.workloads():
                assert (leg.name, w.n, w.seed, leg.spec) in keys


def test_closed_form_records_match_griggs_yeh():
    for rec in GOLDEN:
        if rec["source"] == "griggs_yeh":
            closed = getattr(special, f"l21_span_{rec['leg']}")(*rec["args"])
            assert rec["span"] == closed, _record_id(rec)
            assert _graph(rec).n == rec["n"], _record_id(rec)


@pytest.mark.parametrize("rec", GOLDEN, ids=_record_id)
def test_span_against_golden(rec, solved):
    result = solved[_record_id(rec)]
    assert result.span >= rec["span"], "span below the optimum"
    if result.exact:
        assert result.span == rec["span"]


def test_span_excess_does_not_grow(solved):
    excess = sum(solved[_record_id(r)].span - r["span"] for r in GOLDEN)
    assert excess <= MAX_SPAN_EXCESS
