"""Cross-process span-tree reconstruction, Chrome export, flame view."""

import json
import os

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.sweep import RegressionGrid, SweepEngine
from repro.observability.perf import (
    build_span_tree,
    collect_trace_records,
    parse_chrome_trace,
    render_flame,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.observability.tracing import TraceContext, derive_trace_id


def _traced_job_dir(tmp_path, filter_name="cge", num_seeds=2):
    """A traced sweep with worker telemetry, plus the root job span."""
    import time

    root = TraceContext.root(derive_trace_id("job", "j-1"), name="job")
    engine = SweepEngine(
        parallel=False,
        events=os.fspath(tmp_path / "events.jsonl"),
        telemetry_dir=os.fspath(tmp_path / "telemetry"),
        cache_dir=os.fspath(tmp_path / "cache"),
        trace=root.child("sweep"),
    )
    grid = RegressionGrid(
        filters=(filter_name,), attacks=("zero",), fault_counts=(1,),
        num_seeds=num_seeds, n=4, d=1, iterations=15,
    )
    engine.run_regression_grid(grid)
    engine.events.emit(
        "span", name="job", seconds=1.0, ts=time.time() - 1.0,
        **root.fields(),
    )
    return root


def _names(roots):
    return [node.name for root in roots for node in root.walk()]


class TestSpanTree:
    def test_engine_tree_has_full_chain(self, tmp_path):
        _traced_job_dir(tmp_path)
        roots = build_span_tree(collect_trace_records(os.fspath(tmp_path)))
        assert [r.name for r in roots] == ["job"]
        job = roots[0]
        assert [c.name for c in job.children] == ["sweep"]
        sweep = job.children[0]
        assert [c.name for c in sweep.children] == ["chunk-0"]
        chunk = sweep.children[0]
        assert [c.name for c in chunk.children] == ["group-f1-cge-zero"]
        names = _names(roots)
        assert "run" in names and "round" in names
        # lineage is consistent throughout
        for node in job.walk():
            assert node.trace_id == job.trace_id
            for child in node.children:
                assert child.parent_span_id == node.span_id

    def test_sequential_backend_gets_one_run_per_seed(self, tmp_path):
        # clipping is stateful, so the batch engine falls back to one
        # run_dgd (and one "run" span) per seed.
        _traced_job_dir(tmp_path, filter_name="clipping", num_seeds=3)
        roots = build_span_tree(collect_trace_records(os.fspath(tmp_path)))
        assert _names(roots).count("run") == 3

    def test_duplicate_span_ids_last_wins(self):
        records = [
            {"event": "span", "name": "x", "seconds": 1.0, "ts": 1.0,
             "trace_id": "t", "span_id": "a", "parent_span_id": None},
            {"event": "span", "name": "x", "seconds": 2.0, "ts": 1.0,
             "trace_id": "t", "span_id": "a", "parent_span_id": None},
        ]
        roots = build_span_tree(records)
        assert len(roots) == 1
        assert roots[0].seconds == 2.0

    def test_orphan_parents_become_roots(self):
        records = [
            {"event": "span", "name": "child", "seconds": 1.0, "ts": 2.0,
             "trace_id": "t", "span_id": "b", "parent_span_id": "missing"},
        ]
        roots = build_span_tree(records)
        assert [r.name for r in roots] == ["child"]

    def test_non_span_records_attach_to_owner(self):
        records = [
            {"event": "span", "name": "run", "seconds": 1.0, "ts": 1.0,
             "trace_id": "t", "span_id": "a", "parent_span_id": None},
            {"event": "round", "round": 0, "trace_id": "t", "span_id": "a"},
            {"event": "round", "round": 1, "trace_id": "t", "span_id": "a"},
        ]
        roots = build_span_tree(records)
        assert len(roots[0].events) == 2

    def test_untraced_records_build_empty_forest(self):
        assert build_span_tree([{"event": "round", "round": 0}]) == []


class TestCollect:
    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            collect_trace_records(os.fspath(tmp_path / "nope"))

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            collect_trace_records(os.fspath(tmp_path))

    def test_records_tagged_with_stream(self, tmp_path):
        stream = tmp_path / "a.jsonl"
        stream.write_text('{"event": "round", "round": 0}\n')
        records = collect_trace_records(os.fspath(tmp_path))
        assert records[0]["_stream"] == "a.jsonl"


class TestChromeExport:
    def test_export_parse_round_trip_reproduces_tree(self, tmp_path):
        _traced_job_dir(tmp_path)
        records = collect_trace_records(os.fspath(tmp_path))
        roots = build_span_tree(records)
        artifact = tmp_path / "trace.json"
        document = write_chrome_trace(os.fspath(artifact), records)
        rebuilt = build_span_tree(parse_chrome_trace(os.fspath(artifact)))

        def strip_events(payload):
            payload = dict(payload)
            payload.pop("events", None)
            payload["children"] = [
                strip_events(child) for child in payload["children"]
            ]
            return payload

        assert ([strip_events(r.to_payload()) for r in roots]
                == [strip_events(r.to_payload()) for r in rebuilt])
        # the artifact on disk is the bare Perfetto-loadable document
        on_disk = json.loads(artifact.read_text())
        assert on_disk == document
        assert on_disk["displayTimeUnit"] == "ms"

    def test_events_are_viewer_well_formed(self, tmp_path):
        _traced_job_dir(tmp_path)
        document = to_chrome_trace(
            collect_trace_records(os.fspath(tmp_path))
        )
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "X"}
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        threads = {e["tid"] for e in xs}
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert {e["tid"] for e in metadata} >= threads
        # one virtual thread per source stream
        assert len(metadata) == len(
            {e["args"]["name"] for e in metadata}
        )

    def test_parse_validates_schema(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            parse_chrome_trace({"nope": []})
        with pytest.raises(InvalidParameterError):
            parse_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(InvalidParameterError):
            parse_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1,
                 "ts": 0, "dur": 1, "args": {}},
            ]})
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(InvalidParameterError):
            parse_chrome_trace(os.fspath(bad))


class TestFlame:
    def test_flame_renders_tree_and_collapses_rounds(self, tmp_path):
        _traced_job_dir(tmp_path)
        roots = build_span_tree(collect_trace_records(os.fspath(tmp_path)))
        flame = render_flame(roots)
        lines = flame.splitlines()
        assert lines[0].startswith("job")
        assert any(line.strip().startswith("sweep") for line in lines)
        assert any("round x" in line for line in lines)  # collapsed
        assert "100.0%" in lines[0]

    def test_empty_forest_message(self):
        assert render_flame([]) == "(no traced spans)"


class TestCli:
    def test_trace_export_and_flame_commands(self, tmp_path, capsys):
        from repro.cli import main

        _traced_job_dir(tmp_path)
        artifact = tmp_path / "out.json"
        assert main(["trace", "export", os.fspath(tmp_path),
                     "--output", os.fspath(artifact)]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out
        parse_chrome_trace(os.fspath(artifact))

        assert main(["trace", "flame", os.fspath(tmp_path)]) == 0
        assert "job" in capsys.readouterr().out

    def test_trace_export_untraced_stream_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "plain.jsonl"
        stream.write_text('{"event": "round", "round": 0}\n')
        assert main(["trace", "export", os.fspath(stream),
                     "--output", os.fspath(tmp_path / "o.json")]) == 1

    def test_trace_export_missing_path_exits_2(self, tmp_path):
        from repro.cli import main

        assert main(["trace", "export", os.fspath(tmp_path / "nope"),
                     "--output", os.fspath(tmp_path / "o.json")]) == 2
