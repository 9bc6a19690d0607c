"""
Exact solvers: exhaustive oracle and branch-and-bound.

`solve_oracle` enumerates every feasible plan of a tiny instance and is
the ground truth the branch-and-bound is tested against.  `solve_bnb`
explores the same space in two phases, first the station tour, then one
customer at a time into a (station, robot, position) slot, pruning with
the admissible bound of `lower_bound`.  Both report objectives computed
with the arithmetic of `evaluation.propagate`, so their results compare
bit-exactly.

Ties between equal-objective plans go to the lexicographically smallest
plan serialization.  Robots at one station are interchangeable, so both
solvers assign robot indices in first-use order and never enumerate
relabelings.  The search is deterministic and single-threaded; repeated
runs return identical reports apart from wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations

from .evaluation import PlanEvaluator, propagate
from .model import EPSILON, Instance, ModelError, RoutePlan, Schedule, Sortie, serialize_plan

# Plans kept safely enumerable by the oracle (upper bound on leaves).
ORACLE_LEAF_LIMIT = 5_000_000


class EnumerationLimitError(ValueError):
    """The instance is too large for exhaustive enumeration."""


class InfeasibleInstanceError(ValueError):
    """No plan satisfies the range and multiplicity constraints."""


@dataclass(frozen=True)
class SolveBudget:
    """Node and wall-time caps for the branch-and-bound."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ModelError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ModelError("max_seconds must be positive")


@dataclass(frozen=True)
class SearchNode:
    """A branch-and-bound node.

    `tour_prefix` is the partial station tour; `assigned` maps customer
    id to its (station, robot, position) slot, as a tuple of pairs
    sorted by customer id; `bound` is the admissible lower bound of the
    node as computed by `lower_bound`.
    """

    tour_prefix: tuple[int, ...]
    assigned: tuple[tuple[int, tuple[int, int, int]], ...]
    bound: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    `status` is "optimal" when the search space was exhausted (or the
    incumbent met the proven bound), "budget-exhausted" when a cap
    stopped the search (then `bound_gap` is incumbent minus the best
    open bound), and "heuristic" for local-search results, which prove
    nothing.  The plan always passes `validate` and `objective` always
    equals `propagate(plan).objective`.
    """

    plan: RoutePlan
    schedule: Schedule
    objective: float
    status: str
    bound_gap: float | None
    nodes: int
    wall_time: float


def _relaxed_completions(instance: Instance, ev: PlanEvaluator) -> list[float]:
    """Earliest conceivable completion per customer: a direct depot ride
    to the best station plus the single service leg."""
    out = []
    for c in instance.customers:
        best = math.inf
        for s in instance.stations:
            t = ev.depot_leg[s.id] / ev.vv + ev.sc[s.id][c.id] / ev.vr
            if t < best:
                best = t
        out.append(best)
    return out


def _relaxed_contributions(instance: Instance, ev: PlanEvaluator) -> list[float]:
    cbar = _relaxed_completions(instance, ev)
    out = []
    for c in instance.customers:
        late = cbar[c.id] - c.deadline
        out.append(c.importance * late if late > 0.0 else 0.0)
    return out


def lower_bound(instance: Instance, node: SearchNode) -> float:
    """Admissible lower bound of a search node.

    Assigned customers contribute their weighted tardiness under the
    partial schedule of the node (inserting further customers can only
    delay completions and departures, never advance them).  Unassigned
    customers contribute their relaxed bound: the weighted tardiness of
    the earliest conceivable completion, a direct depot ride to the
    nearest-in-time station plus one service leg.  Never exceeds the
    objective of any completion of the node.
    """
    ev = PlanEvaluator(instance)
    relax = _relaxed_contributions(instance, ev)
    groups: dict[int, dict[int, dict[int, int]]] = {}
    for o, (k, r, pos) in node.assigned:
        if k not in node.tour_prefix:
            raise ModelError(f"node assigns customer {o} to station {k} outside the tour prefix")
        positions = groups.setdefault(k, {}).setdefault(r, {})
        if pos in positions:
            raise ModelError(f"node assigns position {pos} of robot {r} at station {k} twice")
        positions[pos] = o
    by_station: dict[int, list[tuple[int, ...]]] = {}
    for k, robots in groups.items():
        lists = []
        for r in sorted(robots):
            positions = robots[r]
            if sorted(positions) != list(range(len(positions))):
                raise ModelError(f"node has gapped positions for robot {r} at station {k}")
            lists.append(tuple(positions[p] for p in range(len(positions))))
        by_station[k] = lists
    return ev.bound_of(node.tour_prefix, by_station, relax)


def horizon(instance: Instance) -> float:
    """A time no feasible schedule can exceed.

    The longest possible depot tour ride time plus, for every customer,
    a full out-and-back service from its farthest station.  Exact over
    tours for up to 8 stations, a safe overestimate beyond that.  Used
    for trivial-optimality checks and as the big-M scale of the MILP
    export.
    """
    ev = PlanEvaluator(instance)
    ids = [s.id for s in instance.stations]
    if len(ids) <= 8:
        ride = 0.0
        for perm in permutations(ids):
            legs = [ev.depot_leg[perm[0]]]
            legs.extend(ev.ss[(a, b)] for a, b in zip(perm, perm[1:]))
            legs.append(ev.depot_leg[perm[-1]])
            ride = max(ride, math.fsum(legs))
    else:
        pair_legs = sorted(
            [ev.depot_leg[k] for k in ids]
            + [ev.ss[(a, b)] for a, b in ev.ss if a < b],
            reverse=True,
        )
        ride = math.fsum(pair_legs[: len(ids) + 1])
    service = math.fsum(2.0 * max(ev.sc[k][c.id] for k in ids) for c in instance.customers)
    return ride / ev.vv + service / ev.vr


def _canonical_plan(tour, groups) -> RoutePlan:
    """Materialize the light-weight solver state as a RoutePlan, sorties
    listed in tour order with robots in first-use order."""
    sorties = []
    for k in tour:
        for r, g in enumerate(groups.get(k, ())):
            if g:
                sorties.append(Sortie(robot=r, station=k, services=tuple(g)))
    return RoutePlan(tour=tuple(tour), sorties=tuple(sorties))


class _Best:
    """Incumbent tracker with lexicographic tie-breaking."""

    def __init__(self):
        self.objective = math.inf
        self.plan: RoutePlan | None = None
        self.key: str | None = None

    def offer(self, objective: float, tour, groups) -> bool:
        if objective > self.objective:
            return False
        plan = _canonical_plan(tour, groups)
        key = serialize_plan(plan)
        if objective == self.objective and self.key is not None and key >= self.key:
            return False
        self.objective = objective
        self.plan = plan
        self.key = key
        return True


def solve_oracle(instance: Instance) -> SolveReport:
    """Exhaustively enumerate every feasible plan of a tiny instance.

    Every station permutation and every placement of every customer
    into an ordered per-robot sortie is visited; each complete plan is
    evaluated with the propagation arithmetic.  Raises
    EnumerationLimitError when the plan count estimate exceeds the
    documented limit and InfeasibleInstanceError when no feasible plan
    exists.
    """
    started = time.perf_counter()
    n_s, n_c, n_r = instance.n_stations, instance.n_customers, instance.fleet_size
    slots = n_s * min(n_r, n_c) if n_c else n_s * n_r
    estimate = math.factorial(n_s)
    for i in range(n_c):
        estimate *= max(slots, 1) + i
    if estimate > ORACLE_LEAF_LIMIT:
        raise EnumerationLimitError(
            f"estimated {estimate} plans exceeds the oracle limit of {ORACLE_LEAF_LIMIT}; "
            "intended sizes are about 3 stations, 6 customers, 2 robots"
        )

    ev = PlanEvaluator(instance)
    relax = [0.0] * n_c  # unused: leaves are fully assigned
    best = _Best()
    leaves = 0

    station_ids = sorted(s.id for s in instance.stations)
    customers = list(range(n_c))

    def place(tour, idx, groups):
        nonlocal leaves
        if idx == n_c:
            leaves += 1
            obj = ev.bound_of(tour, groups, relax)
            if obj <= best.objective:
                best.offer(obj, tour, groups)
            return
        o = customers[idx]
        for k in tour:
            lists = groups[k]
            used = sum(1 for g in lists if g)
            for r in range(min(used + 1, n_r)):
                g = lists[r]
                if ev.group_length(k, g + [o]) > instance.robot_range + 1e-9:
                    continue
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    place(tour, idx + 1, groups)
                    g.pop(pos)

    for tour in permutations(station_ids):
        groups = {k: [[] for _ in range(n_r)] for k in station_ids}
        place(tour, 0, groups)

    if best.plan is None:
        raise InfeasibleInstanceError(
            "no feasible plan: customers cannot be packed into per-robot sorties within range"
        )
    schedule = propagate(instance, best.plan)
    return SolveReport(
        plan=best.plan,
        schedule=schedule,
        objective=schedule.objective,
        status="optimal",
        bound_gap=None,
        nodes=leaves,
        wall_time=time.perf_counter() - started,
    )


def solve_bnb(
    instance: Instance,
    budget: SolveBudget | None = None,
    on_node=None,
) -> SolveReport:
    """Branch-and-bound over tours and customer slots.

    Branches first on the next tour station, then assigns customers in
    urgency order (deadline over importance) to (station, robot,
    position) slots, children ordered by their lower bound.  A node is
    pruned when its bound strictly exceeds the incumbent, so exact ties
    survive and the returned objective matches `solve_oracle` on any
    instance the oracle can enumerate.  `on_node`, when given, receives
    every expanded node as a SearchNode (used by admissibility tests).

    With no budget the report status is always "optimal"; with caps the
    search returns the incumbent and the gap to the best open bound.
    """
    started = time.perf_counter()
    budget = budget or SolveBudget()
    ev = PlanEvaluator(instance)
    n_c, n_r = instance.n_customers, instance.fleet_size
    relax = _relaxed_contributions(instance, ev)
    root_bound = math.fsum(relax)
    station_ids = sorted(s.id for s in instance.stations)
    urgency = sorted(
        range(n_c),
        key=lambda o: (instance.customers[o].deadline / instance.customers[o].importance, o),
    )

    best = _Best()
    state = {"nodes": 0, "aborted": False, "frontier": math.inf, "proved": False}

    def over_budget() -> bool:
        if state["aborted"]:
            return True
        if budget.max_nodes is not None and state["nodes"] >= budget.max_nodes:
            state["aborted"] = True
        elif budget.max_seconds is not None and state["nodes"] % 64 == 0:
            if time.perf_counter() - started > budget.max_seconds:
                state["aborted"] = True
        return state["aborted"]

    def emit(tour_prefix, groups, bound):
        if on_node is None:
            return
        assigned = []
        for k, lists in groups.items():
            for r, g in enumerate(lists):
                for pos, o in enumerate(g):
                    assigned.append((o, (k, r, pos)))
        assigned.sort()
        on_node(SearchNode(tuple(tour_prefix), tuple(assigned), bound))

    def assign(tour, idx, groups, node_bound):
        state["nodes"] += 1
        if over_budget():
            state["frontier"] = min(state["frontier"], node_bound)
            return
        emit(tour, groups, node_bound)
        if idx == n_c:
            # fully assigned: the node bound is the exact objective
            if node_bound <= best.objective and best.offer(node_bound, tour, groups):
                if best.objective <= root_bound:
                    state["proved"] = True
            return
        o = urgency[idx]
        candidates = []
        for ki, k in enumerate(tour):
            lists = groups[k]
            used = sum(1 for g in lists if g)
            for r in range(min(used + 1, n_r)):
                g = lists[r]
                if ev.group_length(k, g + [o]) > instance.robot_range + EPSILON:
                    continue
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    bound = ev.bound_of(tour, groups, relax)
                    g.pop(pos)
                    candidates.append((bound, ki, r, pos, k))
        candidates.sort()
        for bound, ki, r, pos, k in candidates:
            if state["proved"]:
                return
            if bound > best.objective:
                break  # sorted ascending: the rest are pruned too
            g = groups[k][r]
            g.insert(pos, o)
            assign(tour, idx + 1, groups, bound)
            g.pop(pos)

    def extend_tour(prefix, remaining):
        if not remaining:
            groups = {k: [[] for _ in range(n_r)] for k in station_ids}
            assign(tuple(prefix), 0, groups, root_bound)
            return
        state["nodes"] += 1
        if state["proved"]:
            return
        if over_budget():
            state["frontier"] = min(state["frontier"], root_bound)
            return
        emit(prefix, {}, root_bound)
        for k in sorted(remaining):
            prefix.append(k)
            extend_tour(prefix, remaining - {k})
            prefix.pop()

    extend_tour([], frozenset(station_ids))

    wall = time.perf_counter() - started
    if best.plan is None:
        if state["aborted"]:
            raise RuntimeError("budget exhausted before any feasible plan was found")
        raise InfeasibleInstanceError(
            "no feasible plan: customers cannot be packed into per-robot sorties within range"
        )
    schedule = propagate(instance, best.plan)
    if state["aborted"] and state["frontier"] < best.objective:
        status = "budget-exhausted"
        gap = best.objective - state["frontier"]
    else:
        status = "optimal"
        gap = None
    return SolveReport(
        plan=best.plan,
        schedule=schedule,
        objective=schedule.objective,
        status=status,
        bound_gap=gap,
        nodes=state["nodes"],
        wall_time=wall,
    )
