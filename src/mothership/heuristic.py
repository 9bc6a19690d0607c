"""
Construction and local-search solver for instances beyond exact reach.

`construct` builds a feasible plan greedily: a nearest-neighbor station
tour refined by 2-opt, then customers inserted in urgency order
(deadline over importance) at the cheapest feasible slot, with
backtracking over insertion choices if a later customer cannot be
placed.  `improve` runs a first-improvement descent over five
neighborhoods (relocate, swap, intra-sortie reorder, whole-sortie
reassignment, tour 2-opt) with optional multistart.

Restart r of a run seeded s constructs its starting plan with seed
s + r; that fixed splitting rule makes multistart runs reproducible.
Candidate schedules are recomputed from the first tour position a move
touches, reusing the unchanged prefix; tests check this incremental
evaluation against full propagation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .evaluation import PlanEvaluator, propagate, validate
from .exact import InfeasibleInstanceError, SolveReport, check_capacity
from .model import EPSILON, Instance, ModelError, RoutePlan, Sortie, serialize_plan

NEIGHBORHOODS = ("relocate", "swap", "reorder", "reassign", "two_opt")


@dataclass(frozen=True)
class SearchParams:
    """Knobs of one `improve` run; every cap must be positive."""

    seed: int = 0
    max_iterations: int = 200_000
    max_seconds: float = 10.0
    neighborhoods: tuple[str, ...] = NEIGHBORHOODS
    restarts: int = 4

    def __post_init__(self):
        object.__setattr__(self, "neighborhoods", tuple(self.neighborhoods))
        if self.max_iterations < 1:
            raise ModelError("max_iterations must be positive")
        if self.max_seconds <= 0:
            raise ModelError("max_seconds must be positive")
        if self.restarts < 1:
            raise ModelError("restarts must be positive")
        if not self.neighborhoods:
            raise ModelError("at least one neighborhood is required")
        unknown = set(self.neighborhoods) - set(NEIGHBORHOODS)
        if unknown:
            raise ModelError(f"unknown neighborhoods: {sorted(unknown)}")


class _Work:
    """Mutable plan state: a tour list plus per-station robot groups."""

    def __init__(self, tour, groups):
        self.tour = list(tour)
        self.groups = {k: [list(g) for g in lists] for k, lists in groups.items()}

    @classmethod
    def from_plan(cls, instance: Instance, plan: RoutePlan) -> "_Work":
        groups = {k: [[] for _ in range(instance.fleet_size)] for k in plan.tour}
        for s in plan.sorties:
            groups[s.station][s.robot] = list(s.services)
        return cls(plan.tour, groups)

    def clone(self) -> "_Work":
        return _Work(self.tour, self.groups)

    def plan(self) -> RoutePlan:
        """Materialize with robots relabeled to first-use order."""
        sorties = []
        for k in self.tour:
            r_out = 0
            for g in self.groups[k]:
                if g:
                    sorties.append(Sortie(robot=r_out, station=k, services=tuple(g)))
                    r_out += 1
        return RoutePlan(tour=tuple(self.tour), sorties=tuple(sorties))


class _Evaluator:
    """Schedule state with recomputation from the first affected station."""

    def __init__(self, ev: PlanEvaluator, work: _Work):
        self.ev = ev
        self.work = work
        self.departs: list[float] = []
        self.comp_by_pos: list[dict[int, float]] = []
        self.objective = self._refresh()

    def _station(self, j: int, t: float, tour, groups):
        ev = self.ev
        k = tour[j]
        leg = ev.depot_leg[k] if j == 0 else ev.ss[(tour[j - 1], k)]
        a = t + leg / ev.vv
        d = ev.sc[k]
        t_dep = a
        comp: dict[int, float] = {}
        for g in groups[k]:
            if not g:
                continue
            c = a + d[g[0]] / ev.vr
            comp[g[0]] = c
            for i in range(1, len(g)):
                c = c + (d[g[i - 1]] + d[g[i]]) / ev.vr
                comp[g[i]] = c
            ret = c + d[g[-1]] / ev.vr
            if ret > t_dep:
                t_dep = ret
        return comp, t_dep

    def _objective_of(self, comp_dicts) -> float:
        ev = self.ev
        merged: dict[int, float] = {}
        for d in comp_dicts:
            merged.update(d)
        total = 0.0
        for o in range(ev.n):
            late = merged[o] - ev.deadline[o]
            if late > 0.0:
                total += ev.weight[o] * late
        return total

    def _refresh(self) -> float:
        self.departs = []
        self.comp_by_pos = []
        t = 0.0
        for j in range(len(self.work.tour)):
            comp, t = self._station(j, t, self.work.tour, self.work.groups)
            self.comp_by_pos.append(comp)
            self.departs.append(t)
        self.objective = self._objective_of(self.comp_by_pos)
        return self.objective

    def probe(self, tour, groups, from_idx: int) -> float:
        """Objective of a candidate state, recomputed from `from_idx` on."""
        t = self.departs[from_idx - 1] if from_idx else 0.0
        comp_dicts = self.comp_by_pos[:from_idx]
        suffix = []
        for j in range(from_idx, len(tour)):
            comp, t = self._station(j, t, tour, groups)
            suffix.append(comp)
        return self._objective_of(comp_dicts + suffix)

    def commit(self, tour, groups) -> float:
        self.work.tour = list(tour)
        self.work.groups = {k: [list(g) for g in lists] for k, lists in groups.items()}
        return self._refresh()


def _tour_2opt(ev: PlanEvaluator, tour: list[int]) -> list[int]:
    """Classic 2-opt on the depot cycle ride distance."""

    def leg(a: int | None, b: int | None) -> float:
        if a is None:
            return ev.depot_leg[b]
        if b is None:
            return ev.depot_leg[a]
        return ev.ss[(a, b)]

    improved = True
    while improved:
        improved = False
        for i in range(len(tour) - 1):
            for j in range(i + 1, len(tour)):
                before = leg(tour[i - 1] if i else None, tour[i]) + leg(
                    tour[j], tour[j + 1] if j + 1 < len(tour) else None
                )
                after = leg(tour[i - 1] if i else None, tour[j]) + leg(
                    tour[i], tour[j + 1] if j + 1 < len(tour) else None
                )
                if after < before - EPSILON:
                    tour[i : j + 1] = reversed(tour[i : j + 1])
                    improved = True
    return tour


def construct(instance: Instance, seed: int = 0) -> RoutePlan:
    """Greedy construction of a feasible plan.

    The station tour is nearest-neighbor, refined by 2-opt.  Customers
    are inserted one by one, most urgent first, each at the feasible
    (station, robot, position) slot that increases the objective
    least; if some later customer cannot be placed, earlier choices
    are backtracked in cost order.

    The seed ladders the multistart diversification.  Seed 0 is the
    pure recipe with the nearest-neighbor tour grown from the depot.
    Seeds 1 through n_stations keep the pure insertion but start the
    tour at the seed-th station, so a small restart fan covers every
    start.  Larger seeds draw, in a fixed order, a random start
    station, one urgency jitter per customer, and one semi-greedy slot
    pick per insertion.

    An instance that fails `check_capacity` raises
    InfeasibleInstanceError before any backtracking starts.
    """
    ev = PlanEvaluator(instance)
    check_capacity(ev)
    ids = sorted(s.id for s in instance.stations)
    rnd = random.Random(seed)

    tour: list[int] = []
    at = None
    noisy = False
    if 1 <= seed <= len(ids):
        at = ids[seed - 1]
    elif seed != 0:
        at = ids[rnd.randrange(len(ids))]
        noisy = True
    left = set(ids)
    if at is not None:
        tour.append(at)
        left.discard(at)
    while left:
        nxt = min(left, key=lambda k: (ev.depot_leg[k] if at is None else ev.ss[(at, k)], k))
        tour.append(nxt)
        left.discard(nxt)
        at = nxt
    tour = _tour_2opt(ev, tour)

    jitter = {
        c.id: (1.0 + 0.25 * rnd.random() if noisy else 1.0) for c in instance.customers
    }
    order = sorted(
        (c.id for c in instance.customers),
        key=lambda o: (
            instance.customers[o].deadline / instance.customers[o].importance * jitter[o],
            o,
        ),
    )

    groups = {k: [[] for _ in range(instance.fleet_size)] for k in ids}

    def placed_objective() -> float:
        # partial objective over placed customers only
        comp, _, _ = ev.completions(tour, groups)
        total = 0.0
        for o, c in sorted(comp.items()):
            late = c - ev.deadline[o]
            if late > 0.0:
                total += ev.weight[o] * late
        return total

    def place(idx: int) -> bool:
        if idx == len(order):
            return True
        o = order[idx]
        candidates = []
        for ki, k in enumerate(tour):
            lists = groups[k]
            used = sum(1 for g in lists if g)
            for r in range(min(used + 1, instance.fleet_size)):
                g = lists[r]
                if ev.group_length(k, g + [o]) > instance.robot_range + EPSILON:
                    continue
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    cost = placed_objective()
                    g.pop(pos)
                    candidates.append((cost, ki, r, pos, k))
        candidates.sort()
        if noisy and len(candidates) > 1:
            # semi-greedy: lead with one of the cheapest few slots
            i = rnd.randrange(min(3, len(candidates)))
            candidates.insert(0, candidates.pop(i))
        for cost, ki, r, pos, k in candidates:
            groups[k][r].insert(pos, o)
            if place(idx + 1):
                return True
            groups[k][r].pop(pos)
        return False

    if not place(0):
        raise InfeasibleInstanceError(
            "no feasible plan: customers cannot be packed into per-robot sorties within range"
        )
    return _Work(tour, groups).plan()


def _scan_moves(ev: PlanEvaluator, state: _Evaluator, name: str):
    """Yield candidate states (first_affected_idx, tour, groups) of one
    neighborhood, in a fixed deterministic order."""
    work = state.work
    tour = work.tour
    n_r = len(next(iter(work.groups.values()))) if work.groups else 0
    pos_of = {k: i for i, k in enumerate(tour)}

    def located():
        for k in tour:
            for r, g in enumerate(work.groups[k]):
                for pos, o in enumerate(g):
                    yield o, k, r, pos

    if name == "relocate":
        for o, k, r, pos in sorted(located()):
            for k2 in tour:
                for r2 in range(n_r):
                    if (k2, r2) == (k, r):
                        continue
                    target = work.groups[k2][r2]
                    if ev.group_length(k2, target + [o]) > ev.range + EPSILON:
                        continue
                    for pos2 in range(len(target) + 1):
                        groups = {kk: [list(g) for g in ls] for kk, ls in work.groups.items()}
                        groups[k][r].pop(pos)
                        groups[k2][r2].insert(pos2, o)
                        yield min(pos_of[k], pos_of[k2]), tour, groups
    elif name == "swap":
        spots = sorted(located())
        for i, (o, k, r, pos) in enumerate(spots):
            for p, k2, r2, pos2 in spots[i + 1 :]:
                if (k, r) == (k2, r2):
                    continue
                a = [x for x in work.groups[k][r]]
                b = [x for x in work.groups[k2][r2]]
                a[pos], b[pos2] = p, o
                if ev.group_length(k, a) > ev.range + EPSILON:
                    continue
                if ev.group_length(k2, b) > ev.range + EPSILON:
                    continue
                groups = {kk: [list(g) for g in ls] for kk, ls in work.groups.items()}
                groups[k][r] = a
                groups[k2][r2] = b
                yield min(pos_of[k], pos_of[k2]), tour, groups
    elif name == "reorder":
        for o, k, r, pos in sorted(located()):
            g = work.groups[k][r]
            if len(g) < 2:
                continue
            for pos2 in range(len(g)):
                if pos2 == pos:
                    continue
                groups = {kk: [list(g) for g in ls] for kk, ls in work.groups.items()}
                moved = groups[k][r].pop(pos)
                groups[k][r].insert(pos2, moved)
                yield pos_of[k], tour, groups
    elif name == "reassign":
        for k in tour:
            for r, g in enumerate(work.groups[k]):
                if not g:
                    continue
                for k2 in tour:
                    if k2 == k:
                        continue
                    free = [r2 for r2, g2 in enumerate(work.groups[k2]) if not g2]
                    if not free:
                        continue
                    if ev.group_length(k2, g) > ev.range + EPSILON:
                        continue
                    groups = {kk: [list(g) for g in ls] for kk, ls in work.groups.items()}
                    groups[k][r] = []
                    groups[k2][free[0]] = list(g)
                    yield min(pos_of[k], pos_of[k2]), tour, groups
    elif name == "two_opt":
        for i in range(len(tour) - 1):
            for j in range(i + 1, len(tour)):
                t2 = list(tour)
                t2[i : j + 1] = reversed(t2[i : j + 1])
                yield i, t2, work.groups
    else:  # pragma: no cover - params validation rejects unknown names
        raise ModelError(f"unknown neighborhood {name!r}")


def _descend(ev, state: _Evaluator, params: SearchParams, started: float, counters: dict):
    """First-improvement descent to a local optimum, in place."""
    improved = True
    while improved:
        improved = False
        for name in params.neighborhoods:
            for from_idx, tour, groups in _scan_moves(ev, state, name):
                counters["evals"] += 1
                if counters["evals"] >= params.max_iterations:
                    return
                if counters["evals"] % 64 == 0:
                    if time.perf_counter() - started > params.max_seconds:
                        return
                cand = state.probe(tour, groups, from_idx)
                if cand < state.objective:
                    state.commit(tour, groups)
                    improved = True
                    break
            if improved:
                break


def improve(instance: Instance, plan: RoutePlan, params: SearchParams = SearchParams()) -> SolveReport:
    """Local-search improvement of a feasible plan.

    Runs the descent on the given plan, then on `params.restarts - 1`
    fresh constructions (seeds `params.seed + r`), and returns the best
    plan found; never worse than the input, always feasible.  The
    report status is "heuristic": no optimality proof is implied.
    """
    started = time.perf_counter()
    violations = validate(instance, plan)
    if violations:
        raise ModelError(
            "improve requires a feasible plan: " + "; ".join(v.detail for v in violations)
        )
    ev = PlanEvaluator(instance)
    counters = {"evals": 0}

    best_plan: RoutePlan | None = None
    best_obj = float("inf")
    best_key = ""

    def offer(work: _Work, objective: float):
        nonlocal best_plan, best_obj, best_key
        built = work.plan()
        key = serialize_plan(built)
        if objective < best_obj or (objective == best_obj and key < best_key):
            best_plan, best_obj, best_key = built, objective, key

    state = _Evaluator(ev, _Work.from_plan(instance, plan))
    _descend(ev, state, params, started, counters)
    offer(state.work, state.objective)

    for r in range(1, params.restarts):
        if counters["evals"] >= params.max_iterations:
            break
        if time.perf_counter() - started > params.max_seconds:
            break
        try:
            seeded = construct(instance, params.seed + r)
        except InfeasibleInstanceError:  # pragma: no cover - input plan proves feasibility
            break
        state = _Evaluator(ev, _Work.from_plan(instance, seeded))
        _descend(ev, state, params, started, counters)
        offer(state.work, state.objective)

    schedule = propagate(instance, best_plan)
    return SolveReport(
        plan=best_plan,
        schedule=schedule,
        objective=schedule.objective,
        status="heuristic",
        bound_gap=None,
        nodes=counters["evals"],
        wall_time=time.perf_counter() - started,
    )
