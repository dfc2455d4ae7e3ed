"""Smoke tests and the negative control for the benchmark's output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs a short window against real server processes; its
checks must pass on the current code and must fail when the oracle is
perturbed, which proves they compare something.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import MIN_READS, WORKLOADS  # noqa: E402

SEED = 5


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request):
    bench = run.Run(request.param, SEED, seconds=2.0)
    try:
        bench.wl.prepare(SEED, bench.work)
        topo = bench.topology("smoke")
        bench.window(topo)
        bench.drain(topo)
        yield bench
    finally:
        bench.close()


def test_servers_start_and_drain_cleanly(smoke):
    assert smoke.problems == []
    assert not smoke.live


def test_every_read_succeeds(smoke):
    (window,) = smoke.windows
    assert len(window.reads) >= MIN_READS  # the 2 s window is extended
    assert run._failures(window) == 0
    if smoke.wl.name == "live_churn":
        assert window.writes and all(w.ok for w in window.writes)


def test_checks_pass_on_current_code(smoke):
    assert smoke.verify() == []


def test_checks_fail_on_perturbed_oracle(smoke):
    assert smoke.verify(perturb=True)


def _main(capsys, workload="coordinator_search_zipf"):
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "2", "--trace", "0"])
    return code, capsys.readouterr()


def test_cli_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    verify = run.Run.verify
    monkeypatch.setattr(run.Run, "verify", lambda self: verify(self, perturb=True))
    code, out = _main(capsys)
    assert code == 1
    assert json.loads(out.out.splitlines()[-1])["correct"] is False
    assert "mismatch:" in out.err


def test_thin_tail_exits_with_its_own_code(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_TAIL", 10 ** 6)
    code, out = _main(capsys)
    assert code == 4
    assert "beyond p95" in out.err
    assert '"metrics"' not in out.out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
