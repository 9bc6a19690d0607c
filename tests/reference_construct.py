"""
The greedy construction of `heuristic.construct`, written plainly.

Every insertion slot is scored by inserting the customer, recomputing
the whole schedule with `PlanEvaluator.completions` and summing the
weighted tardiness of the customers placed so far in id order; there
is no memo of failed states.  `construct` probes slots with the
branch-and-bound's incremental kernel instead; tests assert that both
build the same plan.
"""

from __future__ import annotations

import random

from mothership import InfeasibleInstanceError, Instance, PlanEvaluator, RoutePlan
from mothership.exact import _canonical_plan, check_capacity
from mothership.heuristic import _tour_2opt
from mothership.model import EPSILON


def reference_construct(instance: Instance, seed: int = 0) -> RoutePlan:
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
    # one semi-greedy pick per urgency position, drawn after the jitter
    picks = [rnd.random() for _ in instance.customers] if noisy else None
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
            i = int(picks[idx] * min(3, len(candidates)))
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
    return _canonical_plan(tour, groups)
