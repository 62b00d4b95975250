"""Tests for the command-line interface (driven in-process via main())."""

import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import _build_parser, _serve_config, main
from repro.errors import ProtocolError
from repro.serve import ServeClient, ServeConfig


def test_generate_then_detect(tmp_path, capsys):
    stream = tmp_path / "clicks.jsonl"
    assert main([
        "generate", str(stream),
        "--duration", "600", "--click-rate", "1.0", "--visitors", "50",
        "--botnet-bots", "10", "--bot-interval", "60", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "fraudulent" in out
    assert stream.exists()

    assert main([
        "detect", str(stream),
        "--algorithm", "tbf", "--window", "4096", "--target-fp", "0.001",
        "--quality",
    ]) == 0
    out = capsys.readouterr().out
    assert "duplicates" in out
    assert "click quality" in out


def test_generate_csv_format(tmp_path, capsys):
    stream = tmp_path / "clicks.csv"
    assert main([
        "generate", str(stream), "--duration", "120", "--seed", "1",
    ]) == 0
    header = stream.read_text().splitlines()[0]
    assert header.startswith("timestamp,")


@pytest.mark.parametrize("algorithm", [
    "gbf", "tbf-jumping", "metwally-cbf", "exact",
    "tbf-time", "gbf-time", "time-limited-bf",
])
def test_detect_other_algorithms(tmp_path, capsys, algorithm):
    stream = tmp_path / "clicks.jsonl"
    main(["generate", str(stream), "--duration", "200", "--seed", "2"])
    capsys.readouterr()
    # The time-based algorithms take the window in seconds of timestamps.
    timed = (
        ["--duration", "60", "--resolution", "8"]
        if algorithm in ("tbf-time", "gbf-time", "time-limited-bf")
        else []
    )
    assert main([
        "detect", str(stream), "--algorithm", algorithm,
        "--window", "1024", "--memory-kib", "64", *timed,
    ]) == 0
    assert "duplicates" in capsys.readouterr().out


def test_detect_memory_budget_mode(tmp_path, capsys):
    stream = tmp_path / "clicks.jsonl"
    main(["generate", str(stream), "--duration", "200", "--seed", "5"])
    capsys.readouterr()
    assert main([
        "detect", str(stream), "--algorithm", "tbf",
        "--window", "2048", "--memory-kib", "128",
    ]) == 0


def test_plan_command(capsys):
    assert main([
        "plan", "--window", "1048576", "--target-fp", "0.001",
    ]) == 0
    out = capsys.readouterr().out
    assert "GBF" in out and "TBF" in out and "predicted FP" in out


def test_figures_command(capsys):
    assert main(["figures", "--which", "2b", "--scale", "2048"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2(b)" in out


def test_figures_theory_speed(capsys):
    # Figure 1 at a big scale stays fast enough for CI.
    assert main(["figures", "--which", "1", "--scale", "4096"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_serve_flag_defaults_are_the_serve_config_defaults():
    # One source: `repro serve` with no flags builds exactly the default
    # ServeConfig, so a default changed there reaches every server.
    args = _build_parser().parse_args(["serve"])
    assert _serve_config(args) == ServeConfig()


def test_time_based_algorithm_needs_duration(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--algorithm", "tbf-time"])
    assert exit_info.value.code == 2
    assert "needs duration" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["serve", "--algorithm", "tbf", "--duration", "60"])


def test_serve_time_based_refuses_a_batch_beyond_skew_tolerance():
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--algorithm",
         "time-limited-bf", "--window", "4096", "--duration", "60",
         "--skew-tolerance", "0.5", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        assert ready, "server printed nothing"
        line = proc.stdout.readline().strip()
        match = re.fullmatch(
            r"serving time-limited-bf \(window 4096\) on \S+:(\d+)", line
        )
        assert match, line
        ids = np.arange(100, dtype=np.uint64)
        with ServeClient("127.0.0.1", int(match.group(1)), timeout=30) as client:
            assert client.send(ids, np.full(100, 1000.0)).shape == (100,)
            # 998 s behind the stream watermark: refused, never applied.
            with pytest.raises(ProtocolError, match="skew_tolerance"):
                client.send(ids, np.full(100, 2.0))
            # 0.2 s behind: inside the tolerance, clamped and classified.
            assert client.send(ids + 100, np.full(100, 999.8)).shape == (100,)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "drained: 200 clicks classified, 1 frames dead-lettered" in out
