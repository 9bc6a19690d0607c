"""
CLI behavior through click's test runner: output shapes, exit codes,
file round-trips.  Exit 0 is success, 1 a domain failure, 2 bad usage.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mothership
from mothership import (
    builtin_fixture,
    construct,
    export_bigm,
    export_miqcp,
    generate,
    improve,
    parse_instance,
    parse_plan,
    plan_assignment,
    serialize_instance,
    serialize_plan,
    solve_bnb,
)
from mothership.cli import cli

SMALL_OPTIMUM = 36.37122987569251


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_files(tmp_path):
    inst, plan = builtin_fixture("small")
    ipath = tmp_path / "instance.json"
    ppath = tmp_path / "plan.json"
    ipath.write_text(serialize_instance(inst))
    ppath.write_text(serialize_plan(plan))
    return ipath, ppath


class TestGenerate:
    def test_writes_instance_json(self, runner):
        result = runner.invoke(
            cli, ["generate", "--seed", "3", "--stations", "2", "--robots", "1",
                  "--customers", "4"]
        )
        assert result.exit_code == 0
        inst = parse_instance(result.output)
        assert inst.n_customers == 4

    def test_deterministic(self, runner):
        args = ["generate", "--seed", "9", "--stations", "2", "--robots", "2",
                "--customers", "3"]
        assert runner.invoke(cli, args).output == runner.invoke(cli, args).output

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        result = runner.invoke(
            cli, ["generate", "--seed", "1", "--stations", "2", "--robots", "1",
                  "--customers", "2", "-o", str(out)]
        )
        assert result.exit_code == 0
        assert parse_instance(out.read_text()).n_customers == 2

    def test_domain_error_exits_1(self, runner):
        result = runner.invoke(
            cli, ["generate", "--seed", "0", "--stations", "0", "--robots", "1",
                  "--customers", "1"]
        )
        assert result.exit_code == 1
        assert "n_stations" in result.output

    def test_negative_seed_exits_1(self, runner):
        # numpy's ValueError escaped as a traceback
        result = runner.invoke(
            cli, ["generate", "--seed", "-1", "--stations", "2", "--robots", "1",
                  "--customers", "1"]
        )
        assert result.exit_code == 1
        assert "Error: seed must be a nonnegative integer" in result.output


class TestValidate:
    def test_clean_fixture_exits_0(self, runner):
        result = runner.invoke(cli, ["validate", "--fixture", "small"])
        assert result.exit_code == 0
        assert "plan is feasible" in result.output

    def test_violations_exit_1(self, runner):
        result = runner.invoke(cli, ["validate", "--fixture", "medium"])
        assert result.exit_code == 1
        assert "range(9)" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(cli, ["validate", "--fixture", "medium",
                                     "--format", "json"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc[0]["kind"] == "range(9)"

    def test_instance_and_plan_files(self, runner, small_files):
        ipath, ppath = small_files
        result = runner.invoke(cli, ["validate", "-i", str(ipath), "-p", str(ppath)])
        assert result.exit_code == 0

    def test_requires_exactly_one_source(self, runner, small_files):
        ipath, _ = small_files
        assert runner.invoke(cli, ["validate"]).exit_code == 2
        result = runner.invoke(
            cli, ["validate", "-i", str(ipath), "--fixture", "small"]
        )
        assert result.exit_code == 2

    def test_instance_file_without_plan_is_usage_error(self, runner, small_files):
        ipath, _ = small_files
        assert runner.invoke(cli, ["validate", "-i", str(ipath)]).exit_code == 2


class TestEvaluate:
    def test_table_has_objective(self, runner):
        result = runner.invoke(cli, ["evaluate", "--fixture", "small"])
        assert result.exit_code == 0
        assert "objective" in result.output
        assert "36.3712" in result.output

    def test_fixture_notes_appended(self, runner):
        result = runner.invoke(cli, ["evaluate", "--fixture", "small"])
        assert "note:" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(cli, ["evaluate", "--fixture", "small",
                                     "--format", "json"])
        doc = json.loads(result.output)
        assert doc["objective"] == SMALL_OPTIMUM

    def test_csv_format(self, runner):
        result = runner.invoke(cli, ["evaluate", "--fixture", "small",
                                     "--format", "csv"])
        assert result.output.splitlines()[0] == "variable,value"

    def test_broken_plan_exits_1(self, runner, small_files, tmp_path):
        ipath, _ = small_files
        bad = tmp_path / "bad_plan.json"
        bad.write_text(serialize_plan(
            parse_plan('{"tour": [1], "sorties": []}')
        ))
        result = runner.invoke(cli, ["evaluate", "-i", str(ipath), "-p", str(bad)])
        assert result.exit_code == 1


class TestSolve:
    def test_exact_on_small_fixture(self, runner, tmp_path):
        out = tmp_path / "plan.json"
        result = runner.invoke(cli, ["solve", "--fixture", "small", "-o", str(out)])
        assert result.exit_code == 0
        assert "status     optimal" in result.output
        assert repr(SMALL_OPTIMUM) in result.output
        assert serialize_plan(parse_plan(out.read_text())) == (
            serialize_plan(solve_bnb(builtin_fixture("small")[0]).plan)
        )

    def test_heuristic_method(self, runner):
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--method", "heuristic"])
        assert result.exit_code == 0
        assert "status     heuristic" in result.output
        assert repr(SMALL_OPTIMUM) in result.output

    @pytest.mark.parametrize("method", ["exact", "heuristic"])
    def test_stats_line(self, runner, method):
        result = runner.invoke(cli, ["solve", "--fixture", "small", "--method", method])
        assert result.exit_code == 0
        lines = [line for line in result.output.splitlines() if line.startswith("stats ")]
        assert len(lines) == 1
        printed = dict(item.split("=") for item in lines[0].split()[1:])
        inst = builtin_fixture("small")[0]
        if method == "exact":
            report = solve_bnb(inst)
        else:
            report = improve(inst, construct(inst))
        assert report.stats
        assert printed == {k: str(v) for k, v in report.stats.items()}

    def test_no_stats_line_without_stats(self, runner, tmp_path):
        gen = runner.invoke(
            cli, ["generate", "--seed", "4", "--stations", "2", "--robots", "1",
                  "--customers", "3"]
        )
        ipath = tmp_path / "tiny.json"
        ipath.write_text(gen.output)
        result = runner.invoke(cli, ["solve", "-i", str(ipath), "--method", "oracle"])
        assert result.exit_code == 0
        assert "stats" not in result.output

    def test_oracle_rejects_oversized_fixture(self, runner):
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--method", "oracle"])
        assert result.exit_code == 1
        assert "oracle limit" in result.output

    def test_oracle_on_tiny_generated_instance(self, runner, tmp_path):
        gen = runner.invoke(
            cli, ["generate", "--seed", "4", "--stations", "2", "--robots", "1",
                  "--customers", "3"]
        )
        ipath = tmp_path / "tiny.json"
        ipath.write_text(gen.output)
        result = runner.invoke(cli, ["solve", "-i", str(ipath), "--method", "oracle"])
        assert result.exit_code == 0
        assert "status     optimal" in result.output

    def test_exhausted_node_budget_exits_1(self, runner):
        # the first dive needs 11 undos; a 4-node cap stops it
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--budget-nodes", "4"])
        assert result.exit_code == 1
        assert "budget exhausted before any feasible plan" in result.output

    def test_dive_undo_cap_exits_1(self, runner, tmp_path):
        # with no budget the first dive stops at its undo cap
        ipath = tmp_path / "packing.json"
        ipath.write_text(serialize_instance(generate(6, 5, 2, 30)))
        result = runner.invoke(cli, ["solve", "-i", str(ipath)])
        assert result.exit_code == 1
        assert result.output.count("Error:") == 1
        assert "Error: budget exhausted before any feasible plan was found: the cap of 10030 " \
            "placements (30 customers plus 10000 undos) stopped the first dive" in result.output

    def test_budget_before_any_plan_exits_1(self, runner, clock):
        # the clock passes the cap before the first dive has a plan
        clock.step = 1.0
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--budget-seconds", "0.5"])
        assert result.exit_code == 1
        assert "budget exhausted before any feasible plan" in result.output

    @pytest.mark.parametrize(
        "flag, message",
        [("--budget-nodes", "max_nodes must be positive"),
         ("--budget-seconds", "max_seconds must be positive")],
    )
    def test_zero_budget_exits_1(self, runner, flag, message):
        result = runner.invoke(cli, ["solve", "--fixture", "small", flag, "0"])
        assert result.exit_code == 1
        assert message in result.output

    @pytest.mark.parametrize(
        "method, args",
        [("heuristic", ["--budget-nodes", "3"]),
         ("oracle", ["--budget-nodes", "3"]),
         ("oracle", ["--budget-seconds", "1"]),
         ("oracle", ["--seed", "0"]),
         ("oracle", ["--budget-seconds", "0.5"]),
         ("exact", ["--seed", "1"]),
         ("exact", ["--seed", "0"])],
    )
    def test_flag_the_method_ignores_is_usage_error(self, runner, method, args):
        # given on the command line, even at its default value
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--method", method, *args])
        assert result.exit_code == 2
        assert f"{args[0]} does not apply to --method {method}" in result.output

    def test_restarts_is_an_unknown_option(self, runner):
        # the heuristic runs one ruin-and-recreate loop; nothing restarts
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--method", "heuristic", "--restarts", "4"])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert "--restarts" in result.output

    def test_partial_budget_reports_gap(self, runner):
        # the first dive needs 11 undos, which an 11-node cap allows;
        # the proof takes 78 nodes
        result = runner.invoke(cli, ["solve", "--fixture", "small",
                                     "--budget-nodes", "11"])
        assert result.exit_code == 0
        assert "status     budget-exhausted" in result.output
        assert "gap" in result.output


class TestExport:
    def test_miqcp_to_stdout(self, runner):
        result = runner.invoke(cli, ["export", "--fixture", "small"])
        assert result.exit_code == 0
        assert result.output.startswith("\\")
        assert "Minimize" in result.output

    def test_bigm_to_file(self, runner, tmp_path):
        out = tmp_path / "model.lp"
        result = runner.invoke(cli, ["export", "--fixture", "small",
                                     "--form", "bigm", "-o", str(out)])
        assert result.exit_code == 0
        text = out.read_text()
        assert "Bounds" in text and text.rstrip().endswith("End")

    @pytest.mark.parametrize("form,exporter", [("bigm", export_bigm), ("miqcp", export_miqcp)])
    @pytest.mark.parametrize("speed", ["vehicle", "robot"])
    def test_file_is_the_library_text(self, runner, tmp_path, form, exporter, speed):
        out = tmp_path / "model.lp"
        result = runner.invoke(cli, ["export", "--fixture", "small", "--form", form,
                                     "--arrival-speed", speed, "-o", str(out)])
        assert result.exit_code == 0
        inst, _ = builtin_fixture("small")
        assert out.read_bytes() == exporter(inst, arrival_speed=speed).encode()

    def test_arrival_speed_option(self, runner):
        a = runner.invoke(cli, ["export", "--fixture", "small"])
        b = runner.invoke(cli, ["export", "--fixture", "small",
                                "--arrival-speed", "robot"])
        assert b.exit_code == 0
        assert a.output != b.output


class TestImportSolution:
    def test_round_trip(self, runner, tmp_path):
        inst, plan = builtin_fixture("small")
        sol = tmp_path / "solution.txt"
        sol.write_text(
            "\n".join(
                f"{k} {v}" for k, v in plan_assignment(inst, plan).items() if v != 0.0
            )
        )
        out = tmp_path / "imported_plan.json"
        result = runner.invoke(cli, ["import-solution", "--fixture", "small",
                                     str(sol), "-o", str(out)])
        assert result.exit_code == 0
        assert repr(SMALL_OPTIMUM) in result.output
        assert serialize_plan(parse_plan(out.read_text())) == serialize_plan(plan)

    def test_bad_solution_exits_1(self, runner, tmp_path):
        sol = tmp_path / "bad.txt"
        sol.write_text("y_0_1 0.5")
        result = runner.invoke(cli, ["import-solution", "--fixture", "small", str(sol)])
        assert result.exit_code == 1
        assert "fractional" in result.output


class TestBench:
    def test_table_rows(self, runner):
        result = runner.invoke(cli, ["bench", "--runs", "2", "--customers", "3",
                                     "--method", "heuristic"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split()[:2] == ["seed", "objective"]
        assert len(lines) == 4

    def test_csv_format(self, runner):
        result = runner.invoke(cli, ["bench", "--runs", "1", "--customers", "2",
                                     "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "seed,objective,status,nodes,seconds"


class TestPlot:
    def test_svg_to_file(self, runner, tmp_path):
        out = tmp_path / "plan.svg"
        result = runner.invoke(cli, ["plot", "--fixture", "small", "-o", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("<svg ")

    def test_svg_to_stdout(self, runner):
        result = runner.invoke(cli, ["plot", "--fixture", "medium"])
        assert result.exit_code == 0
        assert "</svg>" in result.output


# Each entry is the file's text, or an edit of the small fixture's document.
BAD_INSTANCES = {
    "malformed-json": ('{"customers": [', "invalid JSON"),
    "gapped-customer-ids": (lambda doc: doc["customers"][3].update(id=30),
                            "customer ids must be 0..7 without gaps"),
    "stations-not-a-list": (lambda doc: doc.update(stations=5), "stations must be a list, got 5"),
    "customers-null": (lambda doc: doc.update(customers=None), "customers must be a list, got None"),
}


@pytest.fixture(params=sorted(BAD_INSTANCES))
def bad_instance(request, tmp_path):
    """An instance file `parse_instance` rejects, and its error text."""
    text, message = BAD_INSTANCES[request.param]
    if callable(text):
        doc = json.loads(serialize_instance(builtin_fixture("small")[0]))
        text(doc)
        text = json.dumps(doc)
    path = tmp_path / "bad_instance.json"
    path.write_text(text)
    return path, message


class TestErrorBoundary:
    """Every command's domain errors, wherever raised, exit 1 with one
    `Error:` line, not a traceback."""

    @pytest.mark.parametrize(
        "command", ["validate", "evaluate", "solve", "export", "import-solution", "plot"]
    )
    def test_bad_instance_file_exits_1(self, runner, small_files, bad_instance, command):
        ipath, message = bad_instance
        _, ppath = small_files
        extra = {"validate": ["-p", str(ppath)], "evaluate": ["-p", str(ppath)],
                 "plot": ["-p", str(ppath)], "import-solution": [str(ppath)]}
        result = runner.invoke(cli, [command, "-i", str(ipath), *extra.get(command, [])])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output

    @pytest.mark.parametrize("command", ["validate", "evaluate", "plot"])
    @pytest.mark.parametrize(
        "sorties, message",
        [("5", "sorties must be a list, got 5"),
         ('[{"robot": 0, "station": 1, "services": 5}]', "sorties[0].services must be a list"),
         ('[{"robot": 0, "station": 1, "services": [[0]]}]', "service ids must be nonnegative"),
         ('[{"robot": 0, "station": 1, "services": [0.0]}]', "service ids must be nonnegative")],
        ids=["sorties-5", "services-5", "services-nested", "services-float"],
    )
    def test_bad_plan_file_exits_1(self, runner, small_files, tmp_path, command, sorties, message):
        ipath, _ = small_files
        plan = tmp_path / "bad_plan.json"
        plan.write_text(f'{{"tour": [1, 2], "sorties": {sorties}}}')
        result = runner.invoke(cli, [command, "-i", str(ipath), "-p", str(plan)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output

    @pytest.mark.parametrize(
        "command, message",
        [("validate", "sortie (r0, S9) references unknown station"),
         ("evaluate", "Error: plan structure invalid: tour references unknown station 9"),
         ("plot", "Error: unknown station id 9")],
    )
    def test_plan_naming_an_unknown_station_exits_1(self, runner, small_files, tmp_path,
                                                    command, message):
        # `validate` reports the plan's violations; the others cannot
        # work on the plan at all
        ipath, _ = small_files
        plan = tmp_path / "plan9.json"
        plan.write_text(serialize_plan(parse_plan(
            '{"tour": [2, 9], "sorties": [{"robot": 0, "station": 9, "services": [0]}]}'
        )))
        result = runner.invoke(cli, [command, "-i", str(ipath), "-p", str(plan)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output


class TestFixtures:
    def test_lists_bundled_instances(self, runner):
        result = runner.invoke(cli, ["fixtures"])
        assert result.exit_code == 0
        assert "small" in result.output
        assert "medium" in result.output
        assert "36.3712" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(cli, ["fixtures", "--format", "json"])
        names = {row["name"] for row in json.loads(result.output)}
        assert names == {"small", "medium"}


def test_readme_solve_block_is_the_cli_output(runner):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    shown = re.search(r"`solve --fixture small` prints the proven optimum:\n\n```\n(.*?)```",
                      readme, re.S)
    assert shown is not None
    result = runner.invoke(cli, ["solve", "--fixture", "small"])
    assert result.exit_code == 0

    def masked(text):
        return re.sub(r"^wall_time  \S+$", "wall_time  -", text, flags=re.M)

    assert masked(shown.group(1)) == masked(result.output)


def test_module_entry_point_runs():
    # Nothing inherited but the import path of the package under test (src/ or an install).
    package_root = Path(mothership.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mothership.cli", "fixtures"],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "MOTHERSHIP_LOG": "info",
            "PYTHONPATH": str(package_root),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "small" in proc.stdout


def test_audit_script_runs():
    # the script imports the package the tests import, and nothing else
    package_root = Path(mothership.__file__).resolve().parent.parent
    script = Path(__file__).resolve().parent.parent / "scripts" / "audit_reference_tables.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "=== small ===" in proc.stdout and "=== medium ===" in proc.stdout


def test_benchmark_reference_check_runs():
    # the check re-proves frozen benchmark optima and compares their
    # plans bit-exactly, so a change to the search's tie rule that would
    # move one fails here; the script imports the package from src/
    script = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--check"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "reference ok" in proc.stdout
