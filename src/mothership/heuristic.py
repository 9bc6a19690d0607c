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

Both score with the branch-and-bound's schedule kernel
(`exact._IncrementalBound`), reach its step tables' `fits` verdict on
range, and write plans with `exact._canonical_plan`.  `construct` runs
the package's one greedy search, `exact._insert_all`, which
`solve_bnb`'s dives run too: slots come from the kernel's `branch` and
are entered with `child`, so no slot costs a whole-schedule
recomputation; tests check its plans against a plain construction
that rescores the whole schedule per slot.

`improve` scores moves over the plan under improvement, which moves
change in place and undo.  A relocate takes its customer out of
the plan once and probes every insertion slot from the insertion point
on; a slot whose partial sum already exceeds the current objective is
dropped unfinished (docs/MODEL.md, monotone float sums).  The other
neighborhoods rescore from the first tour position a move touches.
Every score is bit-equal to `propagate(...).objective`, and the
candidate order, range checks and evaluation count are fixed, so tests
check the search against a plain dict-based descent that copies every
candidate.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import count

from .evaluation import PlanEvaluator, validate
from .exact import (
    CONSTRUCT_UNDOS,
    BudgetExhaustedError,
    SolveReport,
    _Best,
    _canonical_plan,
    _IncrementalBound,
    _insert_all,
    _NodeSchedule,
    _report,
    _Stop,
    _StepTables,
    _urgency,
    check_capacity,
)
from .model import EPSILON, Instance, ModelError, RoutePlan

NEIGHBORHOODS = ("relocate", "swap", "reorder", "reassign", "two_opt")


@dataclass(frozen=True)
class SearchParams:
    """Knobs of one `improve` run; every cap must be positive, and the
    two counts integers."""

    seed: int = 0
    max_iterations: int = 200_000
    max_seconds: float = 10.0
    restarts: int = 4

    def __post_init__(self):
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ModelError(f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        if not self.max_seconds > 0:  # NaN too
            raise ModelError("max_seconds must be positive")
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise ModelError(f"restarts must be a positive integer, got {self.restarts!r}")


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


class _Evaluator:
    """The plan under improvement, its schedule and its objective.

    Moves change `work` in place; `kernel` reads the same tour and
    groups.  `sched` is the kernel's schedule of the plan as last kept,
    with every customer served, so `objective` is its full sum,
    bit-equal to `propagate(...).objective`.
    """

    def __init__(self, ev: PlanEvaluator, tables: _StepTables, work: _Work):
        self.ev = ev
        self.tables = tables
        self.work = work
        self.unserved = [0.0] * ev.n  # the term of a customer taken out
        self.refresh()

    def refresh(self) -> None:
        """Re-read the plan after a move was kept."""
        self.kernel = _IncrementalBound(self.ev, self.tables, self.work.tour, self.work.groups)
        self.sched = self.schedule()
        self.objective = self.sched.prefix[-1]
        self.at = {k: i for i, k in enumerate(self.work.tour)}

    def schedule(self) -> _NodeSchedule:
        """The kernel's schedule of the plan as it stands."""
        return self.kernel.schedule(self.unserved)

    def score(self, k: int, k2: int) -> float:
        """Objective of the plan as it stands, when a move changed the
        chains of stations `k` and `k2` only."""
        lo, hi = sorted((self.at[k], self.at[k2]))
        return self.kernel.rescore(self.sched, lo, hi)


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

    A slot's cost is the objective over the customers placed so far,
    probed with the branch-and-bound's kernel (`exact._IncrementalBound`)
    from the slot on, with 0.0 standing for every customer not yet
    placed; adding 0.0 leaves a sum unchanged, so the cost is bit-equal
    to that partial objective (docs/MODEL.md).

    The seed ladders the multistart diversification.  Seed 0 is the
    pure recipe with the nearest-neighbor tour grown from the depot.
    Seeds 1 through n_stations keep the pure insertion but start the
    tour at the seed-th station, so a small restart fan covers every
    start.  Larger seeds draw, in a fixed order, a random start
    station, one urgency jitter per customer, and one semi-greedy slot
    pick per urgency position, which every insertion at that depth
    uses.

    The search is `exact._insert_all`, the one `solve_bnb`'s dives
    run.  It skips a state whose chains, as sets, already failed once
    (its memo of failed bins).  An instance that fails
    `check_capacity` raises InfeasibleInstanceError at once, one whose
    search exhausts every placement after it.  The search makes at
    most one placement per customer plus `CONSTRUCT_UNDOS` more, and
    raises BudgetExhaustedError when that cap stops it.
    """
    ev = PlanEvaluator(instance)
    check_capacity(ev)
    plan = _construct(ev, _StepTables(ev), seed)
    if plan is None:
        raise BudgetExhaustedError(
            f"construct gave up after {instance.n_customers + CONSTRUCT_UNDOS} placements "
            "without a feasible plan"
        )
    return plan


def _construct(ev: PlanEvaluator, tables: _StepTables, seed: int, stop=None) -> RoutePlan | None:
    """`construct` on the caller's evaluator and step tables, with no
    capacity check: `improve`'s restarts start from a feasible plan.
    None when the placement cap stops the search, or `stop()`, read
    before each placement, turns true."""
    instance = ev.instance
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

    jitter = picks = None
    if noisy:
        jitter = [1.0 + 0.25 * rnd.random() for _ in instance.customers]
        picks = [rnd.random() for _ in instance.customers]
    groups = {k: [[] for _ in range(instance.fleet_size)] for k in ids}
    kernel = _IncrementalBound(ev, tables, tour, groups)
    order = _urgency(instance, jitter)
    placed = count(1)
    cap = len(order) + CONSTRUCT_UNDOS

    def halt() -> bool:
        return next(placed) > cap or (stop is not None and stop())

    if _insert_all(kernel, kernel.root([0.0] * ev.n), order, set(), picks, halt) is None:
        return None
    return _canonical_plan(tour, groups)


def _located(work: _Work):
    """(customer, station, robot, position) of every served customer,
    by customer id."""
    return sorted(
        (o, k, r, pos)
        for k in work.tour
        for r, g in enumerate(work.groups[k])
        for pos, o in enumerate(g)
    )


def _apply(work: _Work, name: str, move) -> None:
    """Apply one move of neighborhood `name` to `work` in place.  Swap,
    reassign and two_opt moves are their own inverses."""
    groups = work.groups
    if name == "relocate":
        k, r, pos, k2, r2, pos2 = move
        groups[k2][r2].insert(pos2, groups[k][r].pop(pos))
    elif name == "swap":
        k, r, pos, k2, r2, pos2 = move
        a, b = groups[k][r], groups[k2][r2]
        a[pos], b[pos2] = b[pos2], a[pos]
    elif name == "reorder":
        k, r, pos, pos2 = move
        g = groups[k][r]
        g.insert(pos2, g.pop(pos))
    elif name == "reassign":
        k, r, k2, r2 = move
        groups[k][r], groups[k2][r2] = groups[k2][r2], groups[k][r]
    else:  # two_opt
        i, j = move
        work.tour[i : j + 1] = reversed(work.tour[i : j + 1])


def _relocate(state: _Evaluator, limit: float):
    """Yield (score, move) for every relocate move: each customer by id
    to every other (station, robot) chain whose range allows it, at
    every position.  Robots at one station are interchangeable, so of
    the robots idle once the customer is out only the first is tried,
    as `branch` and `_reassign` do.

    The customer is taken out of its chain once, and every slot is one
    `_IncrementalBound.probe` of the schedule without it.  The score is
    None when the probe dropped the slot, which it does only once a
    partial sum exceeds `limit` (then the objective is above `limit`
    too).  The plan is missing the customer while a yield is pending;
    closing the generator puts it back.

    A target chain never changes during the scan (only the moving
    customer's own chain does, and it is no target), so its doubled
    legs are listed once; fsum is correctly rounded, so the range
    check against the tables' `cap` gives `_StepTables.fits`'s verdict.
    """
    work = state.work
    tour, groups = work.tour, work.groups
    probe = state.kernel.probe
    cap = state.tables.cap
    doubled = state.tables.doubled
    legs = {k: [[doubled[k][x] for x in g] for g in groups[k]] for k in tour}
    for o, k, r, pos in _located(work):
        chain = groups[k][r]
        chain.pop(pos)
        try:
            sched = state.schedule()
            for ki2, k2 in enumerate(tour):
                extra = [doubled[k2][o]]
                idle = False
                for r2, target in enumerate(groups[k2]):
                    if not target:
                        if idle:
                            continue
                        idle = True
                    if r2 == r and k2 == k:
                        continue
                    if math.fsum(legs[k2][r2] + extra) > cap:
                        continue
                    for pos2 in range(len(target) + 1):
                        found = probe(sched, ki2, r2, pos2, o, limit)
                        yield (None if found is None else found[0]), (k, r, pos, k2, r2, pos2)
        finally:
            chain.insert(pos, o)


def _swap(state: _Evaluator, limit: float):
    """Yield (score, move) for every exchange of two customers on
    different chains, both chains within range."""
    groups, fits = state.work.groups, state.tables.fits
    spots = _located(state.work)
    for i, (o, k, r, pos) in enumerate(spots):
        for p, k2, r2, pos2 in spots[i + 1 :]:
            if (k, r) == (k2, r2):
                continue
            move = (k, r, pos, k2, r2, pos2)
            _apply(state.work, "swap", move)
            within = fits(k, groups[k][r]) and fits(k2, groups[k2][r2])
            score = state.score(k, k2) if within else None
            _apply(state.work, "swap", move)
            if within:
                yield score, move


def _reorder(state: _Evaluator, limit: float):
    """Yield (score, move) for every move of a customer to another
    position of its own chain."""
    for _, k, r, pos in _located(state.work):
        g = state.work.groups[k][r]
        for pos2 in range(len(g)):
            if pos2 == pos:
                continue
            _apply(state.work, "reorder", (k, r, pos, pos2))
            score = state.score(k, k)
            _apply(state.work, "reorder", (k, r, pos2, pos))
            yield score, (k, r, pos, pos2)


def _reassign(state: _Evaluator, limit: float):
    """Yield (score, move) for every move of a whole chain to the first
    idle robot of another station, within range there."""
    work, fits = state.work, state.tables.fits
    for k in work.tour:
        for r, g in enumerate(work.groups[k]):
            if not g:
                continue
            for k2 in work.tour:
                if k2 == k:
                    continue
                free = [r2 for r2, g2 in enumerate(work.groups[k2]) if not g2]
                if not free or not fits(k2, g):
                    continue
                move = (k, r, k2, free[0])
                _apply(work, "reassign", move)
                score = state.score(k, k2)
                _apply(work, "reassign", move)
                yield score, move


def _two_opt(state: _Evaluator, limit: float):
    """Yield (score, move) for every reversal of a tour segment."""
    work = state.work
    n = len(work.tour)
    for i in range(n - 1):
        for j in range(i + 1, n):
            _apply(work, "two_opt", (i, j))
            kernel = _IncrementalBound(state.ev, state.tables, work.tour, work.groups)
            score = kernel.rescore(state.sched, i, j)
            _apply(work, "two_opt", (i, j))
            yield score, (i, j)


# Each yields (score, move) in a fixed deterministic order, with the
# plan restored at every yield except relocate's (see `_relocate`);
# only relocate drops candidates past the limit, the others score exactly.
_MOVES = {
    "relocate": _relocate,
    "swap": _swap,
    "reorder": _reorder,
    "reassign": _reassign,
    "two_opt": _two_opt,
}


def _first_improvement(state: _Evaluator, name: str, params: SearchParams, late, stats: dict):
    """The first move of neighborhood `name` that lowers the objective,
    or None.  Every candidate counts one evaluation, and the caps are
    checked before it is judged; raises _Stop when one is reached, with
    the plan whole."""
    moves = _MOVES[name](state, state.objective)
    evals = stats["evals"]
    try:
        for score, move in moves:
            evals += 1
            if evals >= params.max_iterations:
                raise _Stop
            if evals % 64 == 0 and late():
                raise _Stop
            if score is not None and score < state.objective:
                return move
        return None
    finally:
        moves.close()
        stats["evals_" + name] += evals - stats["evals"]
        stats["evals"] = evals


def _descend(state: _Evaluator, params: SearchParams, late, stats: dict) -> None:
    """First-improvement descent to a local optimum, in place; raises
    _Stop when a cap ends it."""
    stats["descents"] += 1
    while True:
        for name in NEIGHBORHOODS:
            move = _first_improvement(state, name, params, late, stats)
            if move is not None:
                _apply(state.work, name, move)
                state.refresh()
                stats["moves_" + name] += 1
                break
        else:
            return


def improve(instance: Instance, plan: RoutePlan, params: SearchParams = SearchParams()) -> SolveReport:
    """Local-search improvement of a feasible plan.

    Runs the descent on the given plan, then on `params.restarts - 1`
    fresh constructions (seeds `params.seed + r`), and returns the best
    plan found; never worse than the input, always feasible.  The time
    cap is read inside a construction too: a construction that it, or
    the construction's own placement cap, stops offers nothing and ends
    the run.  The report status is "heuristic": no optimality proof is
    implied.  `nodes` counts move evaluations; `stats` splits
    them by neighborhood (`evals_<name>`), counts the moves kept
    (`moves_<name>`) and the descents run (`descents`).
    """
    started = time.perf_counter()
    violations = validate(instance, plan)
    if violations:
        raise ModelError(
            "improve requires a feasible plan: " + "; ".join(v.detail for v in violations)
        )
    ev = PlanEvaluator(instance)
    tables = _StepTables(ev)
    stats = {"evals": 0, "descents": 0}
    for prefix in ("evals_", "moves_"):
        stats.update((prefix + name, 0) for name in NEIGHBORHOODS)

    best = _Best()

    def late() -> bool:
        return time.perf_counter() - started > params.max_seconds

    def run(start: RoutePlan) -> bool:
        """Descend from `start` and offer the result; False when a cap
        ended the descent."""
        state = _Evaluator(ev, tables, _Work.from_plan(instance, start))
        try:
            _descend(state, params, late, stats)
            finished = True
        except _Stop:
            finished = False
        best.offer(state.objective, state.work.tour, state.work.groups)
        return finished

    if run(plan):
        for r in range(1, params.restarts):
            start = _construct(ev, tables, params.seed + r, late)
            if start is None or not run(start):
                break

    nodes = stats.pop("evals")
    return _report(instance, best.plan, "heuristic", nodes, started, stats=stats)
