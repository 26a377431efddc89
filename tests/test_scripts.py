"""Smoke tests for the scripts under scripts/, run as a user would run them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from slicerank.setsys import BINARY, MOD
from slicerank.tensor import decomposition_size

ROOT = Path(__file__).resolve().parent.parent


def test_extremal_table_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/extremal_table.py",
         "--binary-max", "3", "--mod", "3:1", "--capset-max", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [
        ["setting", "n", "max", "optimal", "nodes", "bound"],
        ["binary", "1", "2", "True", "5", "6"],
        ["binary", "2", "3", "True", "9", "9"],
        ["binary", "3", "5", "True", "20", "48"],
        ["mod-3", "1", "2", "True", "5", "3"],
        ["capset", "1", "2", "True", "5", "3"],
        ["capset", "2", "4", "True", "11", "9"],
    ]


def test_extremal_table_defaults_prove_the_largest_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/extremal_table.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {tuple(line.split()[:2]): line.split()[2:4] for line in proc.stdout.splitlines()}
    assert rows[("binary", "6")] == ["19", "True"]
    assert rows[("mod-4", "3")] == ["12", "True"]


def test_certify_demo_writes_round_tripping_certificates(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/certify_demo.py",
         "--seeds", "1", "--max-n", "2", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    paths = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in paths] == sorted(
        f"cert_D{D}_n{n}_s0.json" for D in (3, 4, 5) for n in (1, 2)
    )
    for path in paths:
        text = path.read_text()
        cert = json.loads(text)
        assert json.dumps(cert, indent=2, sort_keys=True) + "\n" == text
        assert cert["setting"] == MOD and cert["diagonal_ok"]
        assert int(cert["slice_count"]) == decomposition_size(MOD, cert["n"], cert["D"])


def test_capacity_report_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/capacity_report.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exact count <= growth^n check, n<= 50, D<= 20: True"


def test_certify_scaling_times_each_stage():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/certify_scaling.py",
         "--instances", "binary:6", "mod-3:3", "--size", "8", "--repeats", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["setting", "n", "members", "layers", "find_sunflower_ms",
                      "slice_count_ms", "certify_ms", "slice_count"]
    assert [row[:2] for row in rows] == [["binary", "6"], ["mod-3", "3"]]
    for row in rows:
        assert 1 <= int(row[2]) <= 8
        assert all(float(ms) >= 0 for ms in row[4:7])
    layers = int(rows[0][3])
    assert int(rows[0][7]) == layers * decomposition_size(BINARY, 6)
    assert int(rows[1][7]) == decomposition_size(MOD, 3, 3)


def test_search_scaling_times_each_instance():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/search_scaling.py",
         "--instances", "binary:3", "capset:2", "mod-4:2", "--budget", "15"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["setting", "n", "D", "max", "optimal", "nodes", "seconds"]
    assert [row[:6] for row in rows] == [
        ["binary", "3", "-", "4", "False", "16"],  # stopped one node past the budget
        ["capset", "2", "-", "4", "True", "11"],
        ["mod-d", "2", "4", "4", "True", "15"],
    ]
    assert all(float(row[6]) >= 0 for row in rows)


def _check_verify_scaling_rows(*extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/verify_scaling.py", "--instances", "binary:3", "mod-3:2",
         *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["setting", "n", "D", "terms", "slices", "expand_ms",
                      "verify_expansion_ms", "decompose_ms", "verify_decomposition_ms", "seconds"]
    assert [row[:5] for row in rows] == [
        ["binary", "3", "-", str(4**3), str(decomposition_size(BINARY, 3))],
        ["mod-d", "2", "3", str(6**2), str(decomposition_size(MOD, 2, 3))],
    ]
    for row in rows:
        # the stages run inside the timed call; the median of two runs is
        # their mean, so the medians keep that order
        stages = [float(cell) for cell in row[5:9]]
        assert min(stages) >= 0 and sum(stages) <= float(row[9]) * 1e3 + 0.5


def test_verify_scaling_times_each_instance():
    _check_verify_scaling_rows()


def test_verify_scaling_repeats_each_instance():
    _check_verify_scaling_rows("--repeats", "2")


def test_verify_scaling_prints_the_median_of_the_repeats(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("verify_scaling", ROOT / "scripts" / "verify_scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = {"terms": "64", "slices": "8 (closed-form bound 48)"}
    runs = iter([(lines, dict.fromkeys(script.STAGES, ms), seconds)
                 for ms, seconds in [(4.0, 0.5), (1.0, 0.25), (2.0, 3.0)]])
    monkeypatch.setattr(script, "run_once", lambda spec: next(runs))
    monkeypatch.setattr(sys, "argv", ["verify_scaling.py", "--instances", "binary:3",
                                      "--repeats", "3"])
    script.main()
    assert capsys.readouterr().out.splitlines()[1] == "binary 3 - 64 8 2.0 2.0 2.0 2.0 0.500"
