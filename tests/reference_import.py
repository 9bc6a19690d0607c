"""
The solution import of `mipexport.import_solution`, written plainly.

Every model binary is looked up by name, in loops over robots,
stations and customers: the vehicle arcs, the first services and the
chain walk per (station, robot), then every succession and every
return.  A missing name reads 0.  `import_solution` reads only the set
binaries of the file instead; tests assert that both return the same
plan and schedule, or raise the same `SolutionImportError` text, on
files with at most one defect.
"""

from __future__ import annotations

import logging

from mothership import Instance, RoutePlan, Schedule, Sortie, validate
from mothership.evaluation import _tight_schedule
from mothership.mipexport import (
    BINARY_TOLERANCE,
    TIME_MISMATCH_TOLERANCE,
    SolutionImportError,
    _variable_names,
    name_w,
    name_x,
    name_y,
    name_z,
)

logger = logging.getLogger(__name__)


def _reference_parse(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionImportError(f"line {ln}: expected 'name value', got {raw!r}")
        name, val = parts
        try:
            v = float(val)
        except ValueError:
            raise SolutionImportError(f"line {ln}: bad value {val!r}") from None
        if name in values:
            raise SolutionImportError(f"line {ln}: duplicate variable {name}")
        values[name] = v
    return values


def _binary(values: dict[str, float], name: str) -> int:
    v = values.get(name, 0.0)
    if abs(v) <= BINARY_TOLERANCE:
        return 0
    if abs(v - 1.0) <= BINARY_TOLERANCE:
        return 1
    raise SolutionImportError(f"{name} = {v} is fractional; expected 0 or 1")


def reference_import(instance: Instance, text: str) -> tuple[RoutePlan, Schedule]:
    """`import_solution` by name lookup over every model binary."""
    values = _reference_parse(text)
    known = _variable_names(instance)
    for name in values:
        if name not in known:
            raise SolutionImportError(f"unknown variable {name}")

    stations = [s.id for s in instance.stations]
    customers = [c.id for c in instance.customers]
    robots = range(instance.fleet_size)
    nodes = [0] + stations

    succ: dict[int, int] = {}
    n_arcs = 0
    for k in nodes:
        for l in nodes:
            if k == l:
                continue
            if _binary(values, name_y(k, l)):
                if k in succ:
                    raise SolutionImportError(f"node {k} has two outgoing vehicle arcs")
                succ[k] = l
                n_arcs += 1
    if n_arcs != len(stations) + 1:
        raise SolutionImportError(
            f"expected {len(stations) + 1} vehicle arcs, found {n_arcs}"
        )
    tour = []
    at = 0
    while True:
        if at not in succ:
            raise SolutionImportError(f"vehicle route dangles at node {at}")
        at = succ[at]
        if at == 0:
            break
        if at in tour:
            raise SolutionImportError(f"vehicle route revisits station {at}")
        tour.append(at)
    if len(tour) != len(stations):
        raise SolutionImportError(
            "vehicle arcs form a subtour that skips some stations"
        )

    sorties = []
    used_w = set()
    for k in stations:
        for r in robots:
            firsts = [o for o in customers if _binary(values, name_x(r, k, o))]
            if len(firsts) > 1:
                raise SolutionImportError(
                    f"robot {r} at station {k} has {len(firsts)} first services"
                )
            if not firsts:
                continue
            chain = [firsts[0]]
            while True:
                o = chain[-1]
                ends = _binary(values, name_z(r, o, k))
                nexts = [
                    p for p in customers if p != o and _binary(values, name_w(r, k, o, p))
                ]
                if ends and nexts:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) both ends and continues at C{o}"
                    )
                if ends:
                    break
                if not nexts:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) dangles after C{o}"
                    )
                if len(nexts) > 1:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) branches after C{o}"
                    )
                if nexts[0] in chain:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) cycles at C{nexts[0]}"
                    )
                used_w.add((r, k, o, nexts[0]))
                chain.append(nexts[0])
            sorties.append(Sortie(robot=r, station=k, services=tuple(chain)))

    for r in robots:
        for k in stations:
            for o in customers:
                for p in customers:
                    name = name_w(r, k, o, p)
                    if o == p:
                        # both exports fix these to 0 in Bounds
                        v = values.get(name, 0.0)
                        if abs(v) > BINARY_TOLERANCE:
                            raise SolutionImportError(
                                f"diagonal succession {name} = {v}; a customer cannot succeed itself"
                            )
                    elif _binary(values, name) and (r, k, o, p) not in used_w:
                        raise SolutionImportError(
                            f"succession {name} is set but belongs to no chain"
                        )
    # the walk reads a return only at a chain's customers: check the rest
    ends = {(s.robot, s.station, s.services[-1]) for s in sorties}
    for r in robots:
        for k in stations:
            for o in customers:
                if _binary(values, name_z(r, o, k)) and (r, k, o) not in ends:
                    raise SolutionImportError(
                        f"return {name_z(r, o, k)} is set but ends no chain"
                    )

    order = {k: i for i, k in enumerate(tour)}
    sorties.sort(key=lambda s: (order[s.station], s.robot))
    plan = RoutePlan(tour=tuple(tour), sorties=tuple(sorties))
    violations = validate(instance, plan)
    if violations:
        raise SolutionImportError(
            "imported plan is infeasible: " + "; ".join(v.detail for v in violations)
        )

    schedule = _tight_schedule(instance, plan)  # validate checked the structure
    recomputed = {}
    for k in stations:
        recomputed[f"ta_{k}"] = schedule.arrive[k]
        recomputed[f"td_{k}"] = schedule.depart[k]
    for o in customers:
        recomputed[f"tc_{o}"] = schedule.complete[o]
        recomputed[f"tt_{o}"] = schedule.tardiness[o]
    for name, want in recomputed.items():
        if name in values and abs(values[name] - want) > TIME_MISMATCH_TOLERANCE:
            logger.warning(
                "solution reports %s = %s, propagation gives %s",
                name,
                values[name],
                want,
            )
    return plan, schedule
