"""Harness, parallel layer and CLI tests."""

import io
import sys

import pytest

from repro.errors import ReproError
from repro.graphs import generators as gen
from repro.harness.runner import EngineRun, run_engines, time_call
from repro.harness.tables import render_markdown, render_table
from repro.harness.workloads import WORKLOADS, make_workload, sweep
from repro.labeling.spec import L21
from repro.parallel.pool import chunked, default_workers, parallel_map
from repro.parallel.portfolio import portfolio_solve, sequential_portfolio


class TestWorkloads:
    def test_all_families_instantiate(self):
        for family in WORKLOADS:
            wl = make_workload(family, 8, seed=1)
            assert wl.graph.n >= 2
            assert family in wl.label

    def test_deterministic(self):
        a = make_workload("diam2", 10, seed=3)
        b = make_workload("diam2", 10, seed=3)
        assert a.graph == b.graph

    def test_unknown_family(self):
        with pytest.raises(ReproError):
            make_workload("quantum", 5)

    def test_sweep_cross_product(self):
        wls = sweep("diam2", [6, 8], [0, 1, 2])
        assert len(wls) == 6


class TestRunner:
    def test_time_call(self):
        out, secs = time_call(lambda: 42)
        assert out == 42 and secs >= 0

    def test_run_engines_ratios(self):
        wls = [make_workload("diam2", 8, seed=s) for s in range(2)]
        runs = run_engines(wls, L21, ["held_karp", "nearest_neighbor"])
        assert len(runs) == 4
        by_wl: dict[str, list[EngineRun]] = {}
        for r in runs:
            by_wl.setdefault(r.workload, []).append(r)
        for rows in by_wl.values():
            exact = next(r for r in rows if r.engine == "held_karp")
            assert exact.ratio == 1.0
            for r in rows:
                assert r.ratio >= 1.0


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_render_markdown(self):
        out = render_markdown(["x"], [[1]])
        assert out.splitlines()[1] == "|---|"

    def test_float_formatting(self):
        out = render_table(["v"], [[0.00000012], [1234567.0], [0.0]])
        assert "e" in out  # scientific for extremes
        assert "0" in out

    def test_empty_rows(self):
        out = render_table(["col"], [])
        assert "col" in out


class TestParallelPool:
    def test_chunked(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_parallel_map_order(self):
        assert parallel_map(str, [3, 1, 2], workers=1) == ["3", "1", "2"]

    def test_parallel_map_processes(self):
        # len is picklable and cheap; use 2 workers to exercise the pool
        out = parallel_map(len, [[1], [1, 2], []], workers=2)
        assert out == [1, 2, 0]


class TestPortfolio:
    def test_parallel_matches_sequential(self):
        g = gen.random_graph_with_diameter_at_most(20, 2, seed=5)
        engines = ["two_opt", "nearest_neighbor"]
        seq = sequential_portfolio(g, L21, engines)
        par = portfolio_solve(g, L21, engines, workers=2)
        assert par.span == seq.span
        assert par.labeling.is_feasible(g, L21)


class TestCli:
    def run_cli(self, argv, stdin_text=None):
        from repro.cli import main
        old_out, old_in = sys.stdout, sys.stdin
        sys.stdout = io.StringIO()
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
            return code, sys.stdout.getvalue()
        finally:
            sys.stdout, sys.stdin = old_out, old_in

    def test_engines_listing(self):
        code, out = self.run_cli(["engines"])
        assert code == 0 and "held_karp" in out

    def test_generate_and_solve_roundtrip(self, tmp_path):
        code, out = self.run_cli(["generate", "diam2", "8", "--seed", "2"])
        assert code == 0
        p = tmp_path / "g.edges"
        p.write_text(out)
        code, out = self.run_cli(
            ["solve", str(p), "-p", "2,1", "--engine", "held_karp", "--labels"]
        )
        assert code == 0 and "span:" in out and "exact: True" in out

    def test_solve_from_stdin(self):
        code, out = self.run_cli(
            ["solve", "-", "-p", "2,1"], stdin_text="3 3\n0 1\n1 2\n0 2\n"
        )
        assert code == 0 and "span: 4" in out  # K3 -> 2(n-1) = 4

    def test_reduce_prints_matrix(self):
        code, out = self.run_cli(
            ["reduce", "-", "-p", "2,1"], stdin_text="3 2\n0 1\n1 2\n"
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows[0] == ["0", "2", "1"]

    def test_solve_json_record(self):
        import json
        code, out = self.run_cli(
            ["solve", "-", "-p", "2,1", "--json", "--labels"],
            stdin_text="3 3\n0 1\n1 2\n0 2\n",
        )
        assert code == 0
        record = json.loads(out)
        assert record["span"] == 4 and record["exact"] is True
        assert record["n"] == 3 and record["p"] == [2, 1]
        assert len(record["labels"]) == 3

    def test_batch_from_stdin_stream(self, capfd):
        import json
        block = "3 3\n0 1\n1 2\n0 2\n"
        code, out = self.run_cli(
            ["batch", "-", "-p", "2,1", "--workers", "1"],
            stdin_text=block * 3,
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["span"] for r in records] == [4, 4, 4]
        assert [r["cached"] for r in records] == [False, True, True]
        summary = json.loads(capfd.readouterr().err.strip().splitlines()[-1])
        assert summary["server"]["submitted"] == 3
        assert summary["server"]["solved"] == 1

    def test_batch_from_directory_with_cache(self, tmp_path, capfd):
        import json
        from repro.graphs import io as gio
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        for seed in (0, 1):
            g = gen.random_graph_with_diameter_at_most(8, 2, seed=seed)
            gio.write_edge_list(g, gdir / f"g{seed}.edges")
        cache = tmp_path / "cache.json"
        code, _ = self.run_cli(["batch", str(gdir), "--cache", str(cache),
                                "--workers", "1", "--engine", "held_karp"])
        assert code == 0 and cache.exists()
        capfd.readouterr()
        # second run over the same directory is served entirely from disk
        code, out = self.run_cli(["batch", str(gdir), "--cache", str(cache),
                                  "--workers", "1", "--engine", "held_karp"])
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["cached"] for r in records)
        assert sorted(r["tag"] for r in records) == ["g0.edges", "g1.edges"]

    def test_batch_directory_workers_keep_input_order(self, tmp_path, capfd):
        import json
        from repro.graphs import io as gio
        from repro.graphs.operations import relabel
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        graphs = [
            gen.random_graph_with_diameter_at_most(9, 2, seed=seed)
            for seed in range(4)
        ]
        # a relabeled duplicate of g0, sorted last by file name
        graphs.append(relabel(graphs[0], list(reversed(range(9)))))
        for i, g in enumerate(graphs):
            gio.write_edge_list(g, gdir / f"g{i}.edges")
        runs = {}
        for workers in ("1", "2"):
            code, out = self.run_cli(["batch", str(gdir), "--workers", workers,
                                      "--engine", "held_karp"])
            assert code == 0
            runs[workers] = [json.loads(line) for line in out.splitlines()]
            summary = json.loads(capfd.readouterr().err.strip().splitlines()[-1])
            assert summary["server"]["submitted"] == 5
            assert summary["server"]["solved"] == 4
            assert "cache" in summary and "shard_lock_wait" in summary
        for records in runs.values():
            assert [r["tag"] for r in records] == [
                f"g{i}.edges" for i in range(5)
            ]
            assert records[4]["cached"] is True
        assert [r["span"] for r in runs["2"]] == [r["span"] for r in runs["1"]]

    def test_batch_directory_is_never_routed_to_approx(self, tmp_path, capfd):
        # Both of the router's auto -> approx triggers: a graph with
        # n > 256, and submissions past half of a tiny queue.  A directory
        # batch must still answer every file on the requested engine.
        import json
        from repro.graphs import io as gio
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        gio.write_edge_list(gen.star_graph(299), gdir / "a_big.edges")
        for seed in range(8):
            g = gen.random_graph_with_diameter_at_most(9, 2, seed=seed)
            gio.write_edge_list(g, gdir / f"g{seed}.edges")
        code, out = self.run_cli(["batch", str(gdir), "--workers", "1",
                                  "--queue-size", "2",
                                  "--engine", "nearest_neighbor"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 9
        assert records[0]["n"] == 300
        assert {r["engine"] for r in records} == {"nearest_neighbor"}
        capfd.readouterr()

    def test_batch_cache_file_from_single_lock_cache(self, tmp_path):
        import json
        import shutil
        from pathlib import Path
        from repro.graphs import io as gio
        from repro.graphs.operations import relabel
        fixture = Path(__file__).parent / "data" / "cache_v1.json"
        cache = tmp_path / "cache.json"
        shutil.copy(fixture, cache)
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        # the fixture holds g = diam2(8, seed=1) solved with held_karp
        g = gen.random_graph_with_diameter_at_most(8, 2, seed=1)
        gio.write_edge_list(relabel(g, [3, 0, 7, 1, 6, 2, 5, 4]),
                            gdir / "g.edges")
        code, out = self.run_cli(["batch", str(gdir), "--cache", str(cache),
                                  "--engine", "held_karp"])
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["cached"] is True

    def test_batch_stream_serving_mode(self, capfd):
        import json
        block = "3 3\n0 1\n1 2\n0 2\n"
        code, out = self.run_cli(
            ["batch", "-", "-p", "2,1", "--stream", "--workers", "2",
             "--engine", "held_karp"],
            stdin_text=block * 3,
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 3
        assert all(r["span"] == 4 for r in records)
        assert sorted(r["tag"] for r in records) == [
            "stdin[0]", "stdin[1]", "stdin[2]"
        ]
        summary = json.loads(capfd.readouterr().err.strip().splitlines()[-1])
        assert summary["server"]["submitted"] == 3
        # identical blocks: exactly one engine run, rest hit or coalesce
        assert summary["server"]["solved"] == 1
        assert "shard_lock_wait" in summary

    def test_batch_stream_requires_stdin_source(self, tmp_path):
        code, _ = self.run_cli(["batch", str(tmp_path), "--stream"])
        assert code == 2  # ReproError -> one-line error, exit 2

    def test_batch_rejects_bad_source(self):
        with pytest.raises(SystemExit):
            self.run_cli(["batch", "/definitely/not/a/dir"])

    def test_unknown_experiment_id(self):
        code, out = self.run_cli(["experiment", "E99"])
        assert code == 2

    def test_experiment_run(self):
        code, out = self.run_cli(["experiment", "E2"])
        assert code == 0 and "PASS" in out
