import concurrent.futures
import contextlib
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from symdist import cli, sweep, tasks
from symdist.boxes import box_to_json, golden_box
from symdist.config import TOLS
from symdist.exceptions import SolverError
from symdist.sweep import SweepResult, SweepSpec, run_sweep, to_svg

from conftest import dilution_reproducer


def parse_csv(text: str) -> SweepResult:
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return SweepResult(header, rows)


def _monotone_nonincreasing(col, slack=1e-6):
    prev = math.inf
    for v in col:
        if math.isinf(v) and v > 0:
            prev = math.inf
            continue
        assert v <= prev + slack
        prev = v
    return True


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(family="nope", start=0, stop=1)
    with pytest.raises(ValueError):
        SweepSpec(family="gad-gamma", start=0, stop=1, steps=1)
    with pytest.raises(ValueError):
        SweepSpec(family="gad-gamma", start=0, stop=1, quantities=("bogus",))
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            SweepSpec(family="gad-gamma", start=0, stop=1, eps=eps)


def test_spec_rejects_empty_quantities():
    with pytest.raises(ValueError, match="no quantities selected"):
        SweepSpec("gad-gamma", quantities=())


def test_gad_gamma_sweep_endpoints():
    spec = SweepSpec(family="gad-gamma", start=0.0, stop=1.0, steps=5,
                     N=0.1, q=1 / 3)
    res = run_sweep(spec)
    assert res.header == ["gamma", "xi_min", "xi_max", "sd", "xi_max_star"]
    assert len(res.rows) == 5
    first, last = res.rows[0], res.rows[-1]
    # gamma = 0: identity channel leaves orthogonal pure states
    assert all(math.isinf(v) for v in first[1:])
    # gamma = 1: both branch states collapse to diag(0.9, 0.1)
    assert last[1] == pytest.approx(0.0, abs=1e-6)
    assert last[2] == pytest.approx(0.0, abs=1e-6)
    assert last[3] == pytest.approx(math.log2(1.5), abs=1e-6)
    assert last[4] == pytest.approx(math.log2(1.5), abs=1e-6)
    for name in res.header[1:]:
        _monotone_nonincreasing(res.column(name))


def test_gad_phi_sweep_monotone():
    spec = SweepSpec(family="gad-phi", start=0.0, stop=math.pi / 2, steps=5,
                     gamma=0.25, N=0.1, q=1 / 3)
    res = run_sweep(spec)
    for name in res.header[1:]:
        _monotone_nonincreasing(res.column(name))


def test_csv_round_trip():
    spec = SweepSpec(family="gad-gamma", start=0.0, stop=1.0, steps=3,
                     quantities=("sd", "xi_max_star"))
    res = run_sweep(spec)
    back = parse_csv(res.to_csv())
    assert back.header == res.header
    for a, b in zip(back.rows, res.rows):
        assert a == b  # 17-digit serialization is exact for doubles


def test_worker_pool_matches_serial():
    spec = SweepSpec(family="gad-gamma", start=0.2, stop=0.8, steps=4,
                     quantities=("sd",))
    serial = run_sweep(spec, jobs=1)
    pooled = run_sweep(spec, jobs=2)
    assert serial.rows == pooled.rows


def test_pooled_sweep_keeps_the_tolerances(monkeypatch):
    """Pool workers use the caller's tolerances whatever the start method:
    a ``spawn`` (or ``forkserver``) worker imports ``config`` afresh and
    takes TOLS from the pool's initializer."""
    spec = SweepSpec("gad-gamma", steps=5, N=0.0, quantities=("xi_max", "xi_min"))
    default = run_sweep(spec).rows
    monkeypatch.setattr(TOLS, "support", 0.5)
    serial = run_sweep(spec).rows
    assert serial != default
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    assert run_sweep(spec, jobs=2).rows == serial


def _in_process_pool(sizes: list):
    """A stand-in for ProcessPoolExecutor that records each pool's
    max_workers in ``sizes`` and maps in this process, so a test of the
    pool's size starts no process."""
    @contextlib.contextmanager
    def pool(max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)
        yield types.SimpleNamespace(map=map)
    return pool


def test_sweep_starts_at_most_one_worker_per_grid_point(monkeypatch):
    """--jobs caps the pool, and so does the grid: a 3-point sweep starts at
    most 3 workers however many jobs are asked for, and one job none."""
    spec = SweepSpec(family="gad-gamma", steps=3, quantities=("sd",))
    serial = run_sweep(spec).rows
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(sizes))
    assert run_sweep(spec, jobs=2).rows == serial
    assert sizes == [2]     # the stand-in is in use before a large pool is asked for
    for jobs in (3, 100_000, 1):
        assert run_sweep(spec, jobs=jobs).rows == serial
    assert sizes == [2, 3, 3]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys, monkeypatch, jobs):
    """Fewer than one job is a domain error (exit 2 from the CLI), not a
    serial sweep."""
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _in_process_pool(sizes))
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(SweepSpec(family="gad-gamma", steps=3), jobs=jobs)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--family", "gad-gamma", "--steps", "3",
                     "--jobs", str(jobs), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "jobs" in captured.err
    assert not out.exists() and sizes == []


def test_importing_the_cli_leaves_multiprocessing_out():
    """Only a pooled sweep imports the process pool, so importing the CLI
    in a fresh interpreter does not import multiprocessing."""
    src = Path(sweep.__file__).resolve().parent.parent
    code = ("import sys, symdist.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert run.stdout == "[]\n"


def test_svg_output():
    spec = SweepSpec(family="gad-gamma", start=0.1, stop=1.0, steps=4,
                     quantities=("sd",))
    svg = to_svg(run_sweep(spec))
    assert svg.startswith("<svg")
    assert "polyline" in svg
    # a series with no finite value draws no line; a flat one draws its line
    empty = to_svg(SweepResult(["x", "y"], [[0.0, math.nan], [1.0, math.inf]]))
    assert empty.startswith("<svg") and "polyline" not in empty
    flat = to_svg(SweepResult(["x", "y"], [[0.0, 0.0], [1.0, 0.0]]))
    assert flat.count("polyline") == 1
    # a zero-width x range draws its line too
    point = to_svg(SweepResult(["x", "y"], [[0.5, 1.0], [0.5, 2.0]]))
    assert point.count("polyline") == 1


def test_cli_golden_values(capsys):
    assert cli.main(["sd", "--golden", "4,0.5"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["sd", "--golden", "inf,0.5"]) == 0
    assert capsys.readouterr().out == "inf\n"
    assert cli.main(["perr", "--golden", "4,0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.125"
    assert cli.main(["chernoff", "--golden", "1,0.5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-9)


def test_cli_box_files(tmp_path, capsys):
    src = tmp_path / "g2.json"
    tgt = tmp_path / "g4.json"
    src.write_text(box_to_json(golden_box(2, 0.5)))
    tgt.write_text(box_to_json(golden_box(4, 0.5)))
    assert cli.main(["distill", str(src), "--regime", "cds"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-9)
    assert cli.main(["dilute", str(src), "--regime", "cds"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-9)
    assert cli.main(["convert", str(src), str(tgt), "--regime", "cds"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-6)
    assert cli.main(["rates", str(src)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("distill ")


def test_cli_dilute_reproducer_tiny_eps(tmp_path, capsys):
    box = tmp_path / "box.json"
    box.write_text(box_to_json(dilution_reproducer()))
    assert cli.main(["dilute", str(box), "--regime", "cptpA", "--eps", "1e-9"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(8.1951040515, abs=1e-5)


def test_cli_error_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 0.5, "rho0": [[1, 0]], "rho1": [[[1, 0]]]}')
    assert cli.main(["perr", str(bad)]) == 2
    assert "rho0" in capsys.readouterr().err
    assert cli.main(["sd", "--golden", "nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["perr", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert cli.main(["sd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "provide a box JSON file or --golden" in captured.err
    # a solver failure exits 3 and prints no value
    box = tmp_path / "g2.json"
    box.write_text(box_to_json(golden_box(2, 0.5)))
    monkeypatch.setattr(tasks, "min_conversion_error", _failing_task)
    assert cli.main(["convert", str(box), str(box)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("solver failure: ")


@pytest.mark.parametrize("text", ["5", "null", '["p", "rho0", "rho1"]', '"p rho0 rho1"'],
                         ids=["number", "null", "list", "string"])
def test_cli_box_json_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    """A box file holding valid JSON other than an object is a domain error
    (exit 2), not a TypeError traceback."""
    box = tmp_path / "box.json"
    box.write_text(text)
    assert cli.main(["sd", str(box)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected an object" in captured.err


@pytest.mark.parametrize("option, value", [("--N", "1.5"), ("--gamma", "-0.5"),
                                           ("--q", "1"), ("--q-target", "0"),
                                           ("--eps", "-0.1"),
                                           ("--quantities", "min_conversion_error")])
def test_cli_sweep_spec_outside_its_domain_exits_2(tmp_path, capsys, option, value):
    """Fixed sweep parameters outside their ranges, and a conversion error
    asked of a family without a target, are domain errors."""
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--family", "gad-gamma", "--steps", "3", option, value,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_cli_rejects_non_finite_input(tmp_path, capsys):
    """NaN box entries, non-finite eps and a non-positive or non-finite
    --tol are domain errors (exit 2), not printed values or tracebacks."""
    good = tmp_path / "good.json"
    good.write_text(box_to_json(golden_box(2, 0.5)))
    nan_box = tmp_path / "nan.json"
    nan_box.write_text(good.read_text().replace("[0.75, 0.0]", "[NaN, 0]", 1))
    for cmd in ("perr", "sd", "chernoff", "rates"):
        assert cli.main([cmd, str(nan_box)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err
    for cmd in ("distill", "dilute"):
        for eps in ("nan", "inf"):
            for regime in ("cptpA", "cds"):
                assert cli.main([cmd, str(good), "--eps", eps,
                                 "--regime", regime]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "eps" in captured.err
    assert cli.main(["sweep", "--family", "gad-gamma", "--eps", "nan",
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "eps" in capsys.readouterr().err
    for argv in (["--tol", "-1", "dilute", "--golden", "4,0.5", "--regime", "cds"],
                 ["--tol", "nan", "sd", "--golden", "inf,0.5"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err


def test_cli_sweep_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    svg = tmp_path / "fig.svg"
    rc = cli.main(["sweep", "--family", "gad-gamma", "--steps", "3",
                   "--quantities", "sd,xi_max_star", "--out", str(out),
                   "--svg", str(svg)])
    assert rc == 0
    capsys.readouterr()
    parsed = parse_csv(out.read_text())
    assert parsed.header == ["gamma", "sd", "xi_max_star"]
    assert len(parsed.rows) == 3
    assert svg.read_text().startswith("<svg")


def _failing_task(*args):
    raise SolverError("conversion-error program: solver returned max_iterations")


def test_cli_sweep_records_failed_cells(tmp_path, capsys, monkeypatch):
    """A cell whose task raises SolverError is written as nan, its message
    goes to the .failures.json sidecar, and the command says how many
    cells failed."""
    monkeypatch.setattr(tasks, "min_conversion_error", _failing_task)
    out = tmp_path / "fig4.csv"
    assert cli.main(["sweep", "--family", "conversion-phi", "--steps", "3",
                     "--out", str(out)]) == 0
    sidecar = tmp_path / "fig4.failures.json"
    assert capsys.readouterr().out == f"wrote {out} (3 failed cells, see {sidecar})\n"
    parsed = parse_csv(out.read_text())
    assert parsed.header == ["phi", "min_conversion_error"]
    assert all(math.isnan(v) for v in parsed.column("min_conversion_error"))
    assert json.loads(sidecar.read_text()) == {
        str(i): {"min_conversion_error": "conversion-error program: solver "
                                         "returned max_iterations"} for i in range(3)}


def test_cli_sweep_defaults_match_spec(tmp_path, capsys):
    """With no parameter flags the CLI sweep runs SweepSpec's defaults."""
    out = tmp_path / "f.csv"
    rc = cli.main(["sweep", "--family", "gad-phi", "--steps", "3",
                   "--quantities", "sd,xi_max", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    spec = SweepSpec("gad-phi", 0.0, math.pi / 2, steps=3,
                     quantities=("sd", "xi_max"))
    assert out.read_text() == run_sweep(spec).to_csv()
    # with no quantities either, conversion-phi sweeps the conversion error
    spec = SweepSpec("conversion-phi", 0.0, steps=3)
    assert spec.stop == math.pi / 2
    assert spec.quantities == ("min_conversion_error",)
    assert cli.main(["sweep", "--family", "conversion-phi", "--steps", "3",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == run_sweep(spec).to_csv()
    spec = SweepSpec("gad-gamma")
    assert (spec.start, spec.stop, spec.steps) == (0.0, 1.0, 41)
    assert spec.quantities == ("xi_min", "xi_max", "sd", "xi_max_star")


def test_cli_sweep_rejects_empty_quantities(tmp_path, capsys):
    """An empty --quantities selects nothing: exit 2 and no CSV, rather
    than the family's default columns."""
    out = tmp_path / "q.csv"
    assert cli.main(["sweep", "--family", "gad-gamma", "--quantities", "",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no quantities selected" in captured.err
    assert not out.exists()


def test_cli_tol_holds_for_one_command(capsys):
    support, infinite_perr = TOLS.support, TOLS.infinite_perr
    assert cli.main(["--tol", "1e-6", "sd", "--golden", "4,0.5"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert (TOLS.support, TOLS.infinite_perr) == (support, infinite_perr)
    assert cli.main(["--tol", "-1", "sd", "--golden", "4,0.5"]) == 2
    capsys.readouterr()
    assert (TOLS.support, TOLS.infinite_perr) == (support, infinite_perr)


def test_cli_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", "1", "sd", "--golden", "4,0.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_serialization_of_inf_and_nan():
    def row(v):
        return sweep._serialize(v, 17)
    assert row(math.inf) == "inf"
    assert row(-math.inf) == "-inf"
    assert row(math.nan) == "nan"
    assert float(row(1 / 3)) == 1 / 3
