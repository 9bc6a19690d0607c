"""
Geometry, feasibility validation, and schedule propagation.

Everything here is a pure function over immutable inputs.  `validate`
covers the structural constraints (1)-(11) of docs/MODEL.md, range (9)
included, and returns violations instead of raising, so deliberately
broken plans can be audited.  `propagate` evaluates the time
constraints (12)-(17) taken tight (earliest feasible departures) and is
the single source of truth for objective values: every solver in this
package reports objectives computed by this function, which keeps
comparisons bit-exact.  It checks plan structure only; range is
`validate`'s job.  Its recurrence, `_times`, is written once: the
`PlanEvaluator` that the oracle and `lower_bound` score with runs it
on partial plans too.

Floating-point note: the propagation recurrence divides summed distances
once per hop, e.g. (L_ok + L_kp) / robot_speed, rather than adding two
pre-divided legs.  Tests freeze exact binary values of the reference
schedules, so the operation order is part of the contract.  Each
station-customer distance is computed once per sortie and reused for
the out and the back leg: `distance` is sign-symmetric, so both legs
are the same double.
"""

from __future__ import annotations

import json
import math

from .model import (
    EPSILON,
    Instance,
    ModelError,
    Point,
    RoutePlan,
    Schedule,
    Sortie,
    Violation,
)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def sortie_length(instance: Instance, sortie: Sortie) -> float:
    """Total distance of one sortie, the length range constraint (9) checks.

    The robot rides station -> o1, back, station -> o2, ... , back, so
    every customer contributes its station leg twice.  The two legs are
    bit-equal (`distance` is sign-symmetric) and `math.fsum` is
    correctly rounded, so summing `2 * L(k,o)` per customer gives
    exactly the value of the literal out-and-back leg chain.
    """
    station = instance.station(sortie.station).location
    return math.fsum(
        2.0 * distance(station, instance.customer(o).location) for o in sortie.services
    )


def validate(instance: Instance, plan: RoutePlan) -> list[Violation]:
    """Check a plan against the structural constraints, returning all
    violations found (empty list means feasible).

    Covered: tour permutes all stations (3)-(4); at most one sortie per
    robot and station (5)-(6), with balance (7) and continuity (8)
    holding by the sortie representation; robot range (9); every
    customer served exactly once (10)-(11).  Unknown ids and robot
    indices outside the fleet are reported as structural.
    """
    out, ids_known = _structure_violations(instance, plan)
    if ids_known:
        for s in plan.sorties:
            length = sortie_length(instance, s)
            if length > instance.robot_range + EPSILON:
                out.append(
                    Violation(
                        "range(9)",
                        f"sortie (r{s.robot}, S{s.station}, {list(s.services)}) has length "
                        f"{length:.4f} > TR={instance.robot_range:g}",
                    )
                )
    return out


def _structure_violations(instance: Instance, plan: RoutePlan) -> tuple[list[Violation], bool]:
    """Every violation of `validate` except range (9), in its order, and
    whether every station and customer id the plan names exists (the
    range check needs the locations)."""
    out: list[Violation] = []
    station_ids = {s.id for s in instance.stations}
    customer_ids = {c.id for c in instance.customers}

    ids_known = True
    for k in plan.tour:
        if k not in station_ids:
            out.append(Violation("structural", f"tour references unknown station {k}"))
            ids_known = False
    for s in plan.sorties:
        if s.station not in station_ids:
            out.append(
                Violation("structural", f"sortie (r{s.robot}, S{s.station}) references unknown station")
            )
            ids_known = False
        if s.robot >= instance.fleet_size:
            out.append(
                Violation(
                    "structural",
                    f"sortie (r{s.robot}, S{s.station}) robot index outside fleet of {instance.fleet_size}",
                )
            )
        for o in s.services:
            if o not in customer_ids:
                out.append(
                    Violation("structural", f"sortie (r{s.robot}, S{s.station}) references unknown customer {o}")
                )
                ids_known = False

    seen = set()
    dupes = sorted({k for k in plan.tour if k in seen or seen.add(k)})
    missing = sorted(station_ids - set(plan.tour))
    if dupes:
        out.append(Violation("station-degree(3,4)", f"tour visits stations {dupes} more than once"))
    if missing:
        out.append(Violation("station-degree(3,4)", f"tour never visits stations {missing}"))

    by_slot: dict[tuple[int, int], int] = {}
    for s in plan.sorties:
        by_slot[(s.robot, s.station)] = by_slot.get((s.robot, s.station), 0) + 1
    for (r, k), n in sorted(by_slot.items()):
        if n > 1:
            out.append(Violation("multiplicity(5,6)", f"robot {r} has {n} sorties at station {k}"))

    counts = {o: 0 for o in customer_ids}
    for s in plan.sorties:
        for o in s.services:
            if o in counts:
                counts[o] += 1
    unserved = sorted(o for o, n in counts.items() if n == 0)
    multi = sorted(o for o, n in counts.items() if n > 1)
    if unserved:
        out.append(Violation("coverage(10,11)", f"customers {unserved} are never served"))
    if multi:
        out.append(Violation("coverage(10,11)", f"customers {multi} are served more than once"))
    return out, ids_known


def propagate(instance: Instance, plan: RoutePlan) -> Schedule:
    """Compute the tight schedule of a plan (constraints (12)-(17)).

    The vehicle leaves the depot at time 0 (12) and rides station legs
    at vehicle speed (13).  At each station, every sortie starts at the
    vehicle's arrival; within a sortie, completion times chain with a
    station return between consecutive services (15).  The vehicle
    departs as soon as the arrival has happened and every robot is back
    (14), (16).  Tardiness is max(0, completion - deadline) (17).

    Only plan structure is checked: any violation `validate` reports
    other than range (9) raises ModelError.  Range is not checked (the
    schedule of an over-range plan is still well defined and needed for
    auditing); that is `validate`'s job.
    """
    problems, _ = _structure_violations(instance, plan)
    if problems:
        raise ModelError(
            "plan structure invalid: " + "; ".join(v.detail for v in problems)
        )
    return _tight_schedule(instance, plan)


def _tight_schedule(instance: Instance, plan: RoutePlan) -> Schedule:
    """`propagate` without its structure check, for callers that have
    just validated the plan."""
    chains_at: dict[int, list[tuple[int, ...]]] = {}
    for s in plan.sorties:
        chains_at.setdefault(s.station, []).append(s.services)
    complete, arrive, depart = _times(instance, plan.tour, chains_at)

    tardiness: dict[int, float] = {}
    total = 0.0
    for c in instance.customers:  # id order, part of the float contract
        late = complete[c.id] - c.deadline
        tardiness[c.id] = late if late > 0.0 else 0.0
        if late > 0.0:
            total += c.importance * late
    return Schedule(arrive, depart, complete, tardiness, total)


def _times(instance: Instance, tour, chains_at) -> tuple[dict[int, float], dict[int, float], dict[int, float]]:
    """Completion, arrival and departure times of recurrence (12)-(16)
    along `tour`, a full tour or a prefix; `chains_at[k]` lists the
    robot chains (customer id sequences) at station k.  Empty chains
    are skipped, and no id is checked."""
    vv = instance.vehicle_speed
    vr = instance.robot_speed
    customers = instance.customers  # indexed by id
    arrive: dict[int, float] = {}
    depart: dict[int, float] = {}
    complete: dict[int, float] = {}

    t = 0.0
    prev = instance.depot
    for k in tour:
        loc = instance.station(k).location
        t_arr = t + distance(prev, loc) / vv
        arrive[k] = t_arr
        t_dep = t_arr
        for services in chains_at.get(k, ()):
            if not services:
                continue
            # one leg per customer: out and back are the same double
            legs = [distance(loc, customers[o].location) for o in services]
            c = t_arr + legs[0] / vr
            complete[services[0]] = c
            for i in range(1, len(legs)):
                c = c + (legs[i - 1] + legs[i]) / vr
                complete[services[i]] = c
            ret = c + legs[-1] / vr
            if ret > t_dep:
                t_dep = ret
        depart[k] = t_dep
        t = t_dep
        prev = loc
    return complete, arrive, depart


def objective(instance: Instance, schedule: Schedule) -> float:
    """Importance-weighted tardiness total of a schedule.

    Accepts hand-built schedules too (e.g. published tables), as long as
    every customer has a tardiness entry.
    """
    total = 0.0
    for c in instance.customers:
        if c.id not in schedule.tardiness:
            raise ModelError(f"schedule has no tardiness entry for customer {c.id}")
        late = schedule.tardiness[c.id]
        if late > 0.0:
            total += c.importance * late
    return total


def schedule_to_json(schedule: Schedule) -> str:
    """Render a schedule as a JSON document (station/customer ids as keys)."""
    doc = {
        "arrive": {str(k): v for k, v in sorted(schedule.arrive.items())},
        "depart": {str(k): v for k, v in sorted(schedule.depart.items())},
        "complete": {str(o): v for o, v in sorted(schedule.complete.items())},
        "tardiness": {str(o): v for o, v in sorted(schedule.tardiness.items())},
        "objective": schedule.objective,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def violations_to_json(violations: list[Violation]) -> str:
    doc = [{"kind": v.kind, "detail": v.detail} for v in violations]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class PlanEvaluator:
    """Precomputed distances of one instance, and an evaluator over them.

    The tables are the package's one copy of the instance's distances:
    `depot_leg[k]`, `ss[(k, l)]` and `sc[k][o]`, which the solvers and
    the LP export read.  The evaluator works on a light-weight plan
    representation: a station tour plus a mapping from station id to
    service groups (one tuple of customer ids per robot, possibly
    empty).  `completions` runs `propagate`'s own recurrence, so
    objectives computed here are bit-equal to `propagate(...).objective`.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.vv = instance.vehicle_speed
        self.vr = instance.robot_speed
        self.range = instance.robot_range
        self.depot_leg = {s.id: distance(instance.depot, s.location) for s in instance.stations}
        self.ss = {
            (a.id, b.id): distance(a.location, b.location)
            for a in instance.stations
            for b in instance.stations
        }
        self.sc = {
            s.id: [distance(s.location, c.location) for c in instance.customers]
            for s in instance.stations
        }
        self.weight = [c.importance for c in instance.customers]
        self.deadline = [c.deadline for c in instance.customers]
        self.n = instance.n_customers

    def group_length(self, station: int, services) -> float:
        """Sortie length of one service group; bit-equal to sortie_length."""
        d = self.sc[station]
        return math.fsum(2.0 * d[o] for o in services)

    def completions(self, tour, groups) -> tuple[dict[int, float], dict[int, float], dict[int, float]]:
        """Per-customer completion plus per-station arrive/depart times."""
        return _times(self.instance, tour, groups)

    def bound_of(self, tour, groups, relax) -> float:
        """Assigned weighted tardiness plus relaxed contributions.

        `relax[o]` is the admissible stand-in for customers not present
        in any group.  With every customer assigned this is the plan's
        objective, bit-equal to `propagate(...).objective`.
        """
        comp, _, _ = self.completions(tour, groups)
        total = 0.0
        for o in range(self.n):
            if o in comp:
                late = comp[o] - self.deadline[o]
                if late > 0.0:
                    total += self.weight[o] * late
            else:
                total += relax[o]
        return total
