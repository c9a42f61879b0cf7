"""Smoke tests of the command-line scripts and a source-level check of the
package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phiring"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_make_tables_reports_all_equal():
    proc = run_script("make_tables.py", "--contexts", "3,1,4", "3,2,3")
    assert proc.returncode == 0, proc.stderr
    assert "all equal   : True" in proc.stdout


def test_arrangement_scan_runs():
    proc = run_script("arrangement_scan.py", "--p", "3", "--n", "3", "--count", "4", "--cutoff", "4")
    assert proc.returncode == 0, proc.stderr
    assert "scanned" in proc.stdout


def test_bench_writes_its_report(tmp_path):
    localize = "localize --p 3 --n 3 --cutoff 6 --sample 2 --sample-max-size 6"
    ro_table = "ro-table --p 3 --n 3 --max-mult 2 --k-max 4"
    proc = run_script("bench.py", "--label", "smoke", "--jobs", "3,2,3", localize, ro_table,
                      "--repeat", "2", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    job, lz, rt = report["jobs"]
    assert job["job"] == "phi-verify --p 3 --n 2 --cutoff 3"
    assert job["exit"] == [0] and len(job["wall_s"]) == 2 and len(job["stdout_sha256"]) == 1
    assert job["closed_form_s"] >= 0
    weights = job["weights"]
    assert [w["weight"] for w in weights] == [0, 1, 2, 3]
    assert [w["presentation_dim"] for w in weights] == [w["oracle_dim"] for w in weights] == [1, 4, 7, 10]
    assert all(w["presentation_s"] >= 0 and w["oracle_s"] >= 0 for w in weights)
    # each figure is rounded to 0.1 ms
    assert all(0 <= w["oracle_rows_s"] + w["oracle_elim_s"] <= w["oracle_s"] + 2e-4 for w in weights)
    assert all(0 <= w["presentation_rows_s"] + w["presentation_elim_s"] <= w["presentation_s"] + 2e-4
               for w in weights)
    # command lines run end to end only, with the same output on each run
    assert (lz["job"], rt["job"]) == (localize, ro_table)
    for other in (lz, rt):
        assert len(other["wall_s"]) == 2 and len(other["stdout_sha256"]) == 1
        assert "weights" not in other and "closed_form_s" not in other
    assert set(lz["exit"]) <= {0, 1} and rt["exit"] == [0]


def test_bench_defaults_cover_localize_and_ro_table():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    commands = [bench.parse_job(text)[0][:7] for text in bench.DEFAULT_JOBS]
    assert ["localize", "--p", "3", "--n", "3", "--cutoff", "6"] in commands
    assert ["ro-table", "--p", "3", "--n", "3", "--max-mult", "4"] in commands
    # presentation building, whose floor is the zero-sum triples, is timed too
    assert ["phi-verify", "--p", "7", "--n", "3", "--cutoff", "1"] in commands
    assert ["phi-verify", "--p", "3", "--n", "4", "--cutoff", "1"] in commands
    assert ["relation-check", "--p", "5", "--n", "3"] in commands
    assert bench.parse_job("3,3,5") == (
        ["phi-verify", "--p", "3", "--n", "3", "--cutoff", "5"], (3, 3, 5))


@pytest.mark.parametrize(
    "argv",
    [
        ["ro-table", "--p", "5", "--n", "2", "--max-mult", "2", "--k-max", "4"],
        # two labels, 1*line and 2*line, on one line
        ["ro-dim", "--p", "5", "--n", "2", "--mult", "1,0:1;2,0:1", "--k", "3"],
        ["localize", "--p", "3", "--n", "3", "--cutoff", "4", "--lines", "1,0,0;0,1,0;1,1,1"],
        ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "4"],
        ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "3", "--verbatim", "--format", "json"],
        ["phi-basis", "--p", "5", "--n", "2", "--weight", "3"],
        ["phi-basis", "--p", "3", "--n", "2", "--weight", "3", "--verbatim"],
        ["relation-check", "--p", "3", "--n", "3", "--verbatim"],
    ],
    ids=["ro-table", "ro-dim", "localize", "phi-verify", "phi-verify-verbatim", "phi-basis",
         "phi-basis-verbatim", "relation-check-verbatim"],
)
def test_optimized_run_matches_plain_run(argv):
    # python -O strips assert statements: no result may depend on one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "phiring.cli", *argv],
            capture_output=True,
            env=env,
            timeout=120,
        )
        for flags in ([], ["-O"])
    )
    assert plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name, lines)


def test_float64_bound_stated_in_modp_only():
    # one float64 path, one bound: modp.check_exact
    stated = sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "2**53" in path.read_text(encoding="utf-8")
    )
    assert stated == ["modp.py"]


def test_no_int64_bound_in_the_package():
    # the oracle's products run on the one float64 path too: no second bound
    stated = sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "2**63" in path.read_text(encoding="utf-8")
    )
    assert stated == []


def test_import_builds_no_parser_and_no_table():
    # importing the CLI is setup every run pays: the parser and the cached
    # tables are built on first use, never at import
    code = (
        "import phiring.cli as cli\n"
        "from phiring import charspace, oracle, superalg\n"
        "caches = (cli._build_parser, superalg.monomial_codes, oracle._times_x, oracle._wedge_x,\n"
        "          charspace.enumerate_lines)\n"
        "print([f.cache_info().currsize for f in caches])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0]\n"


def test_names_perfbench_wraps_exist():
    # perfbench/spans.py wraps these by name, so renaming one breaks
    # perfbench/run.py --trace 1
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {mod: importlib.import_module("phiring." + mod) for mod, *_ in spans.ENTRY_POINTS}
    missing = [
        (mod, attr)
        for mod, attr, *_ in spans.ENTRY_POINTS
        if not callable(getattr(modules[mod], attr, None))
    ]
    assert missing == []
    from phiring import modp, oracle

    assert callable(vars(modp.RowReducer).get("add_row"))
    assert callable(vars(oracle.PolyExtElement).get("__mul__"))
