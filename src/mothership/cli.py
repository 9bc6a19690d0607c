"""
Command-line front end.

Subcommands cover the library surface: generate, validate, evaluate,
solve, export, import-solution, bench, plot, fixtures.  Exit status is
0 on success, 1 on domain failures (violations found, infeasible,
import errors), 2 on usage errors.  Set MOTHERSHIP_LOG=debug|info|...
to enable logging.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .evaluation import propagate, schedule_to_json, validate, violations_to_json
from .exact import (
    BudgetExhaustedError,
    EnumerationLimitError,
    InfeasibleInstanceError,
    SolveBudget,
    SolveReport,
    solve_bnb,
    solve_oracle,
)
from .fixtures import builtin_fixture, fixture_names, fixture_notes
from .heuristic import SearchParams, construct, improve
from .instgen import generate as generate_instance
from .mipexport import SolutionImportError, export_bigm, export_miqcp, import_solution
from .model import (
    Instance,
    ModelError,
    RoutePlan,
    parse_instance,
    parse_plan,
    serialize_instance,
    serialize_plan,
)
from .plotting import plan_svg

_DOMAIN_ERRORS = (ModelError, SolutionImportError, InfeasibleInstanceError,
                  EnumerationLimitError, BudgetExhaustedError)

FORMATS = ("table", "json", "csv")


def _load_instance(instance_path: str | None, fixture: str | None) -> Instance:
    if (instance_path is None) == (fixture is None):
        raise click.UsageError("provide exactly one of --instance/-i or --fixture")
    if fixture is not None:
        return builtin_fixture(fixture)[0]
    return parse_instance(Path(instance_path).read_text())


def _load_plan(plan_path: str | None, fixture: str | None) -> RoutePlan:
    if plan_path is not None:
        return parse_plan(Path(plan_path).read_text())
    if fixture is not None:
        return builtin_fixture(fixture)[1]
    raise click.UsageError("provide --plan/-p (or --fixture, which bundles a plan)")


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _render(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(headers, row)) for row in rows], indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return "\n".join(lines)


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default="table",
    show_default=True,
    help="Output format.",
)
instance_option = click.option(
    "-i", "--instance", "instance_path", type=click.Path(exists=True, dir_okay=False)
)
fixture_option = click.option(
    "--fixture", type=click.Choice(fixture_names()), help="Use a bundled instance."
)
plan_option = click.option(
    "-p", "--plan", "plan_path", type=click.Path(exists=True, dir_okay=False)
)


class _Commands(click.Group):
    """The one place a domain error raised under a command becomes an
    `Error:` line and exit status 1 (`bench` alone catches its own, one
    table row per failed run)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _DOMAIN_ERRORS as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Commands)
def cli():
    """Routing toolkit: a vehicle carries robots that serve customers."""


@cli.command("generate")
@click.option("--seed", type=int, required=True)
@click.option("--stations", "n_stations", type=int, required=True)
@click.option("--robots", "n_robots", type=int, required=True)
@click.option("--customers", "n_customers", type=int, required=True)
@click.option("--width", type=float, default=100.0, show_default=True)
@click.option("--height", type=float, default=100.0, show_default=True)
@click.option("--robot-range", type=float, default=200.0, show_default=True)
@click.option("--vehicle-speed", type=float, default=50.0, show_default=True)
@click.option("--robot-speed", type=float, default=5.0, show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def cmd_generate(seed, n_stations, n_robots, n_customers, width, height,
                 robot_range, vehicle_speed, robot_speed, output):
    """Generate a seeded random instance (JSON)."""
    instance = generate_instance(
        seed, n_stations, n_robots, n_customers,
        width=width, height=height, robot_range=robot_range,
        vehicle_speed=vehicle_speed, robot_speed=robot_speed,
    )
    _emit(serialize_instance(instance), output)


@cli.command("validate")
@instance_option
@fixture_option
@plan_option
@format_option
def cmd_validate(instance_path, fixture, plan_path, fmt):
    """Check a plan; exit 1 if violations are found."""
    instance = _load_instance(instance_path, fixture)
    plan = _load_plan(plan_path, fixture)
    violations = validate(instance, plan)
    if fmt == "json":
        click.echo(violations_to_json(violations))
    else:
        rows = [[v.kind, v.detail] for v in violations]
        click.echo(_render(["kind", "detail"], rows, fmt))
    if violations:
        sys.exit(1)
    if fmt == "table":
        click.echo("plan is feasible")


@cli.command("evaluate")
@instance_option
@fixture_option
@plan_option
@format_option
def cmd_evaluate(instance_path, fixture, plan_path, fmt):
    """Propagate a plan's schedule and print it."""
    instance = _load_instance(instance_path, fixture)
    plan = _load_plan(plan_path, fixture)
    schedule = propagate(instance, plan)
    if fmt == "json":
        click.echo(schedule_to_json(schedule))
    else:
        rows = []
        for k in plan.tour:
            rows.append([f"ta_{k}", f"{schedule.arrive[k]:.4f}"])
            rows.append([f"td_{k}", f"{schedule.depart[k]:.4f}"])
        for o in sorted(schedule.complete):
            rows.append([f"tc_{o}", f"{schedule.complete[o]:.4f}"])
        for o in sorted(schedule.tardiness):
            if schedule.tardiness[o] > 0.0:
                rows.append([f"tt_{o}", f"{schedule.tardiness[o]:.4f}"])
        rows.append(["objective", f"{schedule.objective:.4f}"])
        click.echo(_render(["variable", "value"], rows, fmt))
        if fixture and fmt == "table":
            notes = fixture_notes(fixture)
            if notes:
                click.echo("")
                for note in notes:
                    click.echo(f"note: {note}")


# the solve options each method has no use for
_IGNORED_BY = {"exact": ("seed",), "heuristic": ("budget_nodes",),
               "oracle": ("budget_nodes", "budget_seconds", "seed")}


@cli.command("solve")
@instance_option
@fixture_option
@click.option(
    "--method",
    type=click.Choice(["exact", "oracle", "heuristic"]),
    default="exact",
    show_default=True,
)
@click.option("--budget-nodes", type=int, default=None)
@click.option("--budget-seconds", type=float, default=None,
              help="Time cap: none for exact, 10 s for heuristic if not given.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False),
              help="Write the plan JSON here.")
@click.pass_context
def cmd_solve(ctx, instance_path, fixture, method, budget_nodes, budget_seconds,
              seed, output):
    """Solve an instance and print the plan and its objective."""
    for name in _IGNORED_BY[method]:
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            raise click.UsageError(f"--{name.replace('_', '-')} does not apply to --method {method}")
    instance = _load_instance(instance_path, fixture)
    report = _run_solver(instance, method, budget_nodes, budget_seconds, seed)
    click.echo(f"status     {report.status}")
    click.echo(f"objective  {report.objective!r}")
    if report.bound_gap is not None:
        click.echo(f"gap        {report.bound_gap!r}")
    click.echo(f"nodes      {report.nodes}")
    click.echo(f"wall_time  {report.wall_time:.3f}s")
    if report.stats:
        click.echo("stats      " + " ".join(f"{k}={v}" for k, v in report.stats.items()))
    _echo_plan(report.plan)
    if output:
        Path(output).write_text(serialize_plan(report.plan))


def _echo_plan(plan: RoutePlan):
    click.echo(f"tour       {' -> '.join(str(k) for k in plan.tour)}")
    for s in plan.sorties:
        chain = ", ".join(f"C{o}" for o in s.services)
        click.echo(f"sortie     robot {s.robot} at S{s.station}: {chain}")


def _run_solver(instance, method, budget_nodes, budget_seconds, seed) -> SolveReport:
    if method == "oracle":
        return solve_oracle(instance)
    if method == "exact":
        budget = SolveBudget(max_nodes=budget_nodes, max_seconds=budget_seconds)
        return solve_bnb(instance, budget=budget)
    caps = {} if budget_seconds is None else {"max_seconds": budget_seconds}
    params = SearchParams(seed=seed, **caps)
    return improve(instance, construct(instance, seed=seed), params)


@cli.command("export")
@instance_option
@fixture_option
@click.option("--form", type=click.Choice(["miqcp", "bigm"]), default="miqcp",
              show_default=True)
@click.option("--arrival-speed", type=click.Choice(["vehicle", "robot"]),
              default="vehicle", show_default=True,
              help="Speed dividing vehicle legs in arrival rows (13).")
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def cmd_export(instance_path, fixture, form, arrival_speed, output):
    """Write the exact model as LP text."""
    instance = _load_instance(instance_path, fixture)
    exporter = export_miqcp if form == "miqcp" else export_bigm
    _emit(exporter(instance, arrival_speed=arrival_speed), output)


@cli.command("import-solution")
@instance_option
@fixture_option
@click.argument("solution", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False),
              help="Write the recovered plan JSON here.")
def cmd_import_solution(instance_path, fixture, solution, output):
    """Turn a solver solution file back into a plan."""
    instance = _load_instance(instance_path, fixture)
    plan, schedule = import_solution(instance, Path(solution).read_text())
    click.echo(f"objective  {schedule.objective!r}")
    _echo_plan(plan)
    if output:
        Path(output).write_text(serialize_plan(plan))


@cli.command("bench")
@click.option("--runs", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="First seed; run i uses seed + i.")
@click.option("--stations", "n_stations", type=int, default=2, show_default=True)
@click.option("--robots", "n_robots", type=int, default=2, show_default=True)
@click.option("--customers", "n_customers", type=int, default=5, show_default=True)
@click.option("--robot-range", type=float, default=200.0, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["exact", "oracle", "heuristic"]),
    default="exact",
    show_default=True,
)
@format_option
def cmd_bench(runs, seed, n_stations, n_robots, n_customers, robot_range, method, fmt):
    """Solve a batch of seeded instances and tabulate the results."""
    rows = []
    for i in range(runs):
        s = seed + i
        try:
            instance = generate_instance(s, n_stations, n_robots, n_customers,
                                         robot_range=robot_range)
            report = _run_solver(instance, method, None, None, s)
            rows.append([s, f"{report.objective:.6f}", report.status,
                         report.nodes, f"{report.wall_time:.3f}"])
        except _DOMAIN_ERRORS as e:
            rows.append([s, "", "error: " + str(e), 0, ""])
    click.echo(_render(["seed", "objective", "status", "nodes", "seconds"], rows, fmt))


@cli.command("plot")
@instance_option
@fixture_option
@plan_option
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def cmd_plot(instance_path, fixture, plan_path, output):
    """Render a plan as SVG."""
    instance = _load_instance(instance_path, fixture)
    plan = _load_plan(plan_path, fixture)
    _emit(plan_svg(instance, plan), output)


@cli.command("fixtures")
@format_option
def cmd_fixtures(fmt):
    """List the bundled reference instances."""
    rows = []
    for name in fixture_names():
        instance, plan = builtin_fixture(name)
        schedule = propagate(instance, plan)
        rows.append([
            name,
            instance.n_stations,
            instance.fleet_size,
            instance.n_customers,
            f"{schedule.objective:.4f}",
        ])
    click.echo(_render(["name", "stations", "robots", "customers",
                        "plan objective"], rows, fmt))


def main():
    level = os.environ.get("MOTHERSHIP_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    cli()


if __name__ == "__main__":
    main()
