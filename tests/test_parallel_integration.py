"""Integration tests: the parallel engine composed with the rest of the
stack — ``DetectionPipeline.run_batch(workers=N)``, the ``detect
--workers`` CLI, and the ``read_batches`` stream reader that feeds them.
"""

import random

import numpy as np
import pytest

from repro.core.checkpoint import save_detector
from repro.detection import DetectionPipeline
from repro.errors import ConfigurationError, StreamError
from repro.parallel import ParallelShardedDetector
from repro.streams import load_clicks, read_batches, write_clicks_csv, write_clicks_jsonl

from tests.fleets import tbf_fleet
from tests.test_resilience import make_billing, make_stream


# ----------------------------------------------------------------------
# read_batches: the batch feed for the vectorized / parallel paths
# ----------------------------------------------------------------------

class TestReadBatches:
    def test_batches_concatenate_to_load_clicks(self, tmp_path):
        clicks = make_stream(137)
        path = tmp_path / "stream.jsonl"
        write_clicks_jsonl(path, clicks)
        batches = list(read_batches(path, 25))
        assert [len(batch) for batch in batches[:-1]] == [25] * (len(batches) - 1)
        assert len(batches[-1]) <= 25
        assert [c for batch in batches for c in batch] == load_clicks(path)

    def test_csv_and_jsonl_agree(self, tmp_path):
        clicks = make_stream(60)
        csv_path, jsonl_path = tmp_path / "s.csv", tmp_path / "s.jsonl"
        write_clicks_csv(csv_path, clicks)
        write_clicks_jsonl(jsonl_path, clicks)
        assert list(read_batches(csv_path, 17)) == list(read_batches(jsonl_path, 17))

    def test_malformed_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        clicks = make_stream(10)
        write_clicks_jsonl(path, clicks)
        with open(path, "a") as handle:
            handle.write("not json\n")
        with pytest.raises(StreamError, match="bad.jsonl:11"):
            list(read_batches(path, 4))

    def test_malformed_skip_and_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        clicks = make_stream(10)
        write_clicks_jsonl(path, clicks)
        with open(path, "a") as handle:
            handle.write("not json\n")
        write_clicks_jsonl(tmp_path / "tail.jsonl", clicks[:3])
        with open(tmp_path / "tail.jsonl") as tail, open(path, "a") as handle:
            handle.write(tail.read())
        seen = []
        batches = list(read_batches(path, 4, on_malformed=seen.append))
        assert len(seen) == 1
        assert seen[0].line_number == 11
        assert sum(len(batch) for batch in batches) == 13

    def test_invalid_batch_size(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_clicks_jsonl(path, make_stream(5))
        with pytest.raises(StreamError, match="batch_size"):
            list(read_batches(path, 0))


# ----------------------------------------------------------------------
# DetectionPipeline.run_batch(workers=N)
# ----------------------------------------------------------------------

class TestPipelineWorkers:
    def test_workers_matches_single_process_run(self):
        clicks = make_stream(400)
        reference = DetectionPipeline(
            tbf_fleet(64, 2, 2048, 4, seed=3), billing=make_billing()
        )
        expected = reference.run_batch(clicks)

        detector = tbf_fleet(64, 2, 2048, 4, seed=3)
        pipeline = DetectionPipeline(detector, billing=make_billing())
        result = pipeline.run_batch(clicks, workers=2)

        assert (result.processed, result.valid, result.duplicates,
                result.budget_exhausted) == (
            expected.processed, expected.valid, expected.duplicates,
            expected.budget_exhausted,
        )
        assert result.billing_summary == expected.billing_summary
        # The original detector is back in service with the fleet's
        # final state written into it, bit for bit.
        assert pipeline.detector is detector
        for expected_shard, synced in zip(
            reference.detector.shards, detector.shards
        ):
            assert save_detector(expected_shard) == save_detector(synced)

    def test_workers_requires_matching_shard_count(self):
        pipeline = DetectionPipeline(tbf_fleet(64, 2, 2048, 4, seed=3))
        with pytest.raises(ConfigurationError, match="2 shards"):
            pipeline.run_batch(make_stream(10), workers=4)

    def test_workers_rejects_unsharded_detector(self):
        from repro.core import TBFDetector

        pipeline = DetectionPipeline(TBFDetector(64, 2048, 4, seed=3))
        with pytest.raises(ConfigurationError, match="cannot parallelize"):
            pipeline.run_batch(make_stream(10), workers=2)

    def test_already_parallel_detector_passes_through(self):
        clicks = make_stream(150)
        engine = ParallelShardedDetector(tbf_fleet(64, 2, 2048, 4, seed=3))
        pipeline = DetectionPipeline(engine)
        try:
            result = pipeline.run_batch(clicks, workers=2)
            assert result.processed == len(clicks)
            assert pipeline.detector is engine  # not closed, not replaced
            # Engine still serves traffic afterwards.
            engine.observe_batch(np.arange(10, dtype=np.uint64))
        finally:
            engine.close()


# ----------------------------------------------------------------------
# CLI: detect --workers
# ----------------------------------------------------------------------

class TestCliWorkers:
    @pytest.fixture()
    def stream_file(self, tmp_path):
        path = tmp_path / "clicks.jsonl"
        rng = random.Random(5)
        clicks = make_stream(400, seed=8)
        for click in clicks:
            click.cost = rng.random()
        write_clicks_jsonl(path, clicks)
        return path

    def test_detect_workers_runs_and_reports(self, stream_file, capsys):
        from repro.cli import main

        assert main(["detect", "--workers", "2", "--window", "64",
                     str(stream_file)]) == 0
        out = capsys.readouterr().out
        assert "[2 workers]" in out
        assert "duplicates" in out

    def test_detect_workers_matches_sharded_single_process(
        self, stream_file, capsys
    ):
        from repro.cli import main

        assert main(["detect", "--workers", "2", "--window", "64",
                     str(stream_file)]) == 0
        parallel_out = capsys.readouterr().out.split("[2 workers]")[0]

        # The same sharded configuration run in-process must count the
        # same duplicates (the parallel engine is bit-identical).
        clicks = load_clicks(stream_file)
        from repro.detection import DetectorSpec, WindowSpec, create_detector

        tbf = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 64, 1), seed=0, target_fp=0.001))
        sharded = tbf_fleet(64, 2, tbf.num_entries, tbf.num_hashes, seed=0)
        pipeline = DetectionPipeline(sharded)
        duplicates = sum(pipeline.process_click(click) for click in clicks)
        assert f"{len(clicks)} clicks; {duplicates} duplicates" in parallel_out

    def test_detect_one_worker_matches_classify_stream(
        self, stream_file, capsys
    ):
        # The default --workers 1 runs the batch path in-process; it must
        # count exactly the duplicates the scalar classifier finds.
        from repro.cli import main
        from repro.detection import (
            DetectorSpec,
            WindowSpec,
            classify_stream,
            create_detector,
        )

        assert main(["detect", "--window", "64", "--chunk-size", "37",
                     str(stream_file)]) == 0
        out = capsys.readouterr().out
        assert "workers]" not in out
        clicks = load_clicks(stream_file)
        detector = create_detector(DetectorSpec(
            algorithm="tbf", window=WindowSpec("sliding", 64), target_fp=0.001
        ))
        duplicates = sum(classify_stream(clicks, detector))
        assert duplicates > 0
        assert f"{len(clicks)} clicks; {duplicates} duplicates (" in out

    def test_detect_workers_rejects_non_tbf(self, stream_file, capsys):
        from repro.cli import main

        assert main(["detect", "--workers", "2", "--algorithm", "gbf",
                     str(stream_file)]) == 2
        assert "requires --algorithm tbf" in capsys.readouterr().err
