"""
Routing toolkit for a vehicle that carries customer-serving robots.

A vehicle leaves a depot, tours launch stations, and at each station
robots fly out-and-back sorties to customers; every customer has a
deadline and an importance weight, and plans are scored by total
weighted tardiness.  The package models instances and plans, validates
and evaluates them, solves small instances exactly, improves larger
ones heuristically, and exports the exact mixed-integer model.
"""

from .evaluation import (
    PlanEvaluator,
    distance,
    objective,
    propagate,
    schedule_to_json,
    sortie_length,
    validate,
    violations_to_json,
)
from .exact import (
    BudgetExhaustedError,
    EnumerationLimitError,
    InfeasibleInstanceError,
    SearchNode,
    SolveBudget,
    SolveReport,
    horizon,
    lower_bound,
    solve_bnb,
    solve_oracle,
)
from .fixtures import builtin_fixture, fixture_names, fixture_notes
from .heuristic import NEIGHBORHOODS, SearchParams, construct, improve
from .instgen import generate, station_layout
from .mipexport import (
    SolutionImportError,
    export_bigm,
    export_miqcp,
    import_solution,
    name_w,
    name_x,
    name_y,
    name_z,
    parse_variable,
    plan_assignment,
)
from .model import (
    EPSILON,
    VIOLATION_KINDS,
    Customer,
    Instance,
    ModelError,
    ParseError,
    Point,
    RoutePlan,
    Schedule,
    Sortie,
    Station,
    Violation,
    parse_instance,
    parse_plan,
    serialize_instance,
    serialize_plan,
)
from .plotting import plan_svg

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "Customer",
    "EnumerationLimitError",
    "EPSILON",
    "InfeasibleInstanceError",
    "Instance",
    "ModelError",
    "NEIGHBORHOODS",
    "ParseError",
    "PlanEvaluator",
    "Point",
    "RoutePlan",
    "Schedule",
    "SearchNode",
    "SearchParams",
    "SolutionImportError",
    "SolveBudget",
    "SolveReport",
    "Sortie",
    "Station",
    "VIOLATION_KINDS",
    "Violation",
    "builtin_fixture",
    "construct",
    "distance",
    "export_bigm",
    "export_miqcp",
    "fixture_names",
    "fixture_notes",
    "generate",
    "horizon",
    "import_solution",
    "improve",
    "lower_bound",
    "name_w",
    "name_x",
    "name_y",
    "name_z",
    "objective",
    "parse_instance",
    "parse_plan",
    "parse_variable",
    "plan_assignment",
    "plan_svg",
    "propagate",
    "schedule_to_json",
    "serialize_instance",
    "serialize_plan",
    "solve_bnb",
    "solve_oracle",
    "sortie_length",
    "station_layout",
    "validate",
    "violations_to_json",
    "__version__",
]
