"""
Construction and local-search solver for instances beyond exact reach.

`construct` builds a feasible plan greedily: a nearest-neighbor station
tour refined by 2-opt, then customers inserted in urgency order
(deadline over importance) at the cheapest feasible slot, with
backtracking over insertion choices if a later customer cannot be
placed.  `improve` runs a first-improvement descent over five
neighborhoods (relocate, swap, intra-sortie reorder, whole-sortie
reassignment, tour 2-opt), then a ruin-and-recreate loop around that
descent until its budget is spent: each iteration takes a few customers
out of the current plan (and sometimes moves a station in the tour),
puts them back cheapest-first, descends, and keeps the result by a
simulated-annealing rule seeded by `SearchParams.seed`.

Both score with the branch-and-bound's schedule kernel
(`exact._IncrementalBound`), reach its step tables' `fits` verdict on
range, and write plans with `exact._canonical_plan`.  `construct` and
every recreate run the package's one greedy search, `exact._insert_all`,
which `solve_bnb`'s dives run too: from the kernel's `schedule` of the
plan so far, slots come from its `branch` and are entered with
`child`, so no slot costs a whole-schedule recomputation; tests check
its plans against a plain construction that rescores the whole
schedule per slot.

`improve` scores moves over the plan under improvement, which moves
change in place and undo.  A relocate takes its customer out of the
plan once, builds that schedule from the plan's (`without`), and probes
an insertion slot from the insertion point on; the other neighborhoods
rescore the stations a move changed and the later ones whose arrival
moves.  A candidate whose partial sum already exceeds the current
objective is dropped unfinished (docs/MODEL.md, monotone float sums).
Every score is bit-equal to `propagate(...).objective`.

Floors come before scores: a relocate slot or a swap whose objective,
in real arithmetic, is above the current objective by more than a
margin for rounding is ruled out without a score (the kernel's `slots`
for relocate, its `exchange_floor` for swap), and yields None, which
is what its score would be.  On (6,4,40) that spares the score of over
99% of relocate slots and 98% of swaps (docs/MODEL.md, "Floors before
scores").

The descent keeps don't-look bits (Bentley 1992) for every
neighborhood but 2-opt: a scan passes over the customers whose bit is
clear, clears a customer's bit once none of its moves improved, and a
kept move sets the bits of the customers on the chains it changed.
The first descent starts with every bit set, the descent of a loop
iteration with those of the customers the ruin and recreate touched.
The candidate order, range checks, bits and evaluation count are
fixed, so tests check the descent against a plain dict-based descent
that copies every candidate.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import count
from numbers import Real

from .evaluation import PlanEvaluator, validate
from .exact import (
    CONSTRUCT_UNDOS,
    FLOOR_MARGIN,
    BudgetExhaustedError,
    SolveReport,
    _Best,
    _canonical_plan,
    _IncrementalBound,
    _insert_all,
    _relaxed_contributions,
    _report,
    _Stop,
    _StepTables,
    _urgency,
    check_capacity,
)
from .model import EPSILON, Instance, ModelError, RoutePlan

NEIGHBORHOODS = ("relocate", "swap", "reorder", "reassign", "two_opt")
FLOORED = ("relocate", "swap")  # the neighborhoods that rule candidates out by a floor

# `improve`'s ruin-and-recreate loop.  A ruin removes RUIN_SIZE
# customers (at most all of them) by one of REMOVALS, and in
# STATION_MOVE of the iterations also moves one station in the tour.
# The annealing temperature starts at START_TEMPERATURE times the first
# descent's objective and is multiplied by COOLING every iteration; the
# loop ends after STALL iterations per customer without a new best.
REMOVALS = ("random", "related", "worst")
RUIN_SIZE = (2, 6)
STATION_MOVE = 0.3
START_TEMPERATURE = 0.02
COOLING = 0.998
STALL = 50
WORST_BIAS = 3  # worst removal takes rank int(u**WORST_BIAS * left), u uniform


@dataclass(frozen=True)
class SearchParams:
    """Knobs of one `improve` run; the seed must be a nonnegative
    integer, both caps positive, and the evaluation cap an integer."""

    seed: int = 0
    max_iterations: int = 200_000
    max_seconds: float = 10.0

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ModelError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ModelError(f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        if not (isinstance(self.max_seconds, Real) and self.max_seconds > 0):  # NaN too
            raise ModelError(f"max_seconds must be positive, got {self.max_seconds!r}")


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

    def __init__(self, ev: PlanEvaluator, tables: _StepTables, work: _Work, reached: int = 0):
        self.ev = ev
        self.tables = tables
        self.work = work
        self.unserved = [0.0] * ev.n  # the term of a customer taken out
        self.reached = reached  # the evaluation count the objective was reached at
        self.refresh()

    def refresh(self) -> None:
        """Re-read the plan after a move was kept."""
        self.kernel = _IncrementalBound(self.ev, self.tables, self.work.tour, self.work.groups)
        self.sched = self.kernel.schedule(self.unserved)
        self.objective = self.sched.prefix[-1]
        self.at = {k: i for i, k in enumerate(self.work.tour)}

    def score(self, k: int, k2: int, limit: float) -> float | None:
        """Objective of the plan as it stands, when a move changed the
        chains of stations `k` and `k2` only; None once a partial sum
        exceeds `limit`."""
        return self.kernel.rescore(self.sched, {self.at[k], self.at[k2]}, limit)


class _Look:
    """Don't-look bits of one neighborhood (Bentley 1992): `flagged`
    holds the customers whose moves a scan still looks at, and `skips`
    counts the customers (chains, for reassign) scans passed over
    because none was flagged; swap pairs such a customer with the
    flagged ones only.  A scan clears a customer's bit once it has
    scanned all of that customer's moves without an improving one.
    `scored` counts the candidates relocate and swap yielded with an
    exact score, not ruled out by a floor."""

    __slots__ = ("flagged", "skips", "scored")

    def __init__(self, flagged):
        self.flagged = set(flagged)
        self.skips = 0
        self.scored = 0


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

    The seed ladders the diversification.  Seed 0 is the
    pure recipe with the nearest-neighbor tour grown from the depot.
    Seeds 1 through n_stations keep the pure insertion but start the
    tour at the seed-th station, so a small fan of seeds covers every
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
    if not isinstance(seed, int) or seed < 0:
        raise ModelError(f"seed must be a nonnegative integer, got {seed!r}")
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

    jitter = picks = None
    if noisy:
        jitter = [1.0 + 0.25 * rnd.random() for _ in instance.customers]
        picks = [rnd.random() for _ in instance.customers]
    groups = {k: [[] for _ in range(instance.fleet_size)] for k in ids}
    kernel = _IncrementalBound(ev, _StepTables(ev), tour, groups)
    order = _urgency(instance, jitter)
    placed = count(1)
    cap = len(order) + CONSTRUCT_UNDOS

    def halt() -> bool:
        return next(placed) > cap

    if _insert_all(kernel, kernel.schedule([0.0] * ev.n), order, set(), picks, halt) is None:
        raise BudgetExhaustedError(
            f"construct gave up after {cap} placements without a feasible plan"
        )
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


def _relocate(state: _Evaluator, limit: float, look: _Look):
    """Yield (score, move) for every relocate move: each customer by id
    to every other (station, robot) chain whose range allows it, at
    every position.  Robots at one station are interchangeable, so of
    the robots idle once the customer is out only the first is tried,
    as `branch` and `_reassign` do.

    Only the customers flagged in `look` are moved.  The customer is
    taken out of its chain once, and the schedule without it is built
    from the plan's with `_IncrementalBound.without`.  Its `slots` under
    `limit` rule out nearly every slot from a floor; the score of such a
    slot is None, as is the score of a slot whose `probe` dropped it,
    which it does only once a partial sum exceeds `limit` (then the
    objective is above `limit` too).  Every other slot gets its exact
    score.  The range verdict is `fits`'s, from the chain lengths the
    schedule carries, as in `slots`.  The plan is missing the customer
    while a yield is pending; closing the generator puts it back.
    """
    work = state.work
    tour, groups = work.tour, work.groups
    kernel, fits, doubled = state.kernel, state.tables.fits, state.tables.doubled
    clear_below, clear_above = kernel.clear
    kernel.lateness(state.sched)  # each `without` schedule carries most of it down
    for o, k, r, pos in _located(work):
        if o not in look.flagged:
            look.skips += 1
            continue
        chain = groups[k][r]
        chain.pop(pos)
        try:
            sched = kernel.without(state.sched, state.at[k], o)
            kept = {found[1:4]: found for found in kernel.slots(sched, o, limit, math.inf)[0]}
            for ki2, k2 in enumerate(tour):
                used, d = sched.used[ki2], doubled[k2][o]
                idle = False
                for r2, target in enumerate(groups[k2]):
                    if not target:
                        if idle:
                            continue
                        idle = True
                    if r2 == r and k2 == k:
                        continue
                    length = used[r2] + d
                    if length > clear_below and (
                        length > clear_above or not fits(k2, target + [o])
                    ):
                        continue
                    for pos2 in range(len(target) + 1):
                        found = kept.get((ki2, r2, pos2))
                        if found is not None:
                            look.scored += 1
                            if found[0] is None:  # kept on a certificate: probed for its score
                                found = kernel.probe(sched, ki2, r2, pos2, o, limit)
                        yield (None if found is None else found[0]), (k, r, pos, k2, r2, pos2)
        finally:
            chain.insert(pos, o)
        look.flagged.discard(o)


def _swap(state: _Evaluator, limit: float, look: _Look):
    """Yield (score, move) for every exchange of two customers on
    different chains, both chains within range, of which at least one
    is flagged in `look`.

    The range verdict is `fits`'s, from each chain's carried length
    less the addend of the customer leaving it plus that of the one
    joining, as `branch` decides, with `fits` asked only near the cap.
    The score is None for an exchange whose floor
    (`_IncrementalBound.exchange_floor`) exceeds `limit` by more than a
    margin for rounding, and `rescore`'s, None only above `limit` too,
    for the others."""
    work, kernel, fits, doubled = state.work, state.kernel, state.tables.fits, state.tables.doubled
    groups, used, at = work.groups, state.sched.used, state.at
    clear_below, clear_above = kernel.clear
    floor = kernel.exchange_floor(state.sched)
    bar = limit + FLOOR_MARGIN * (1.0 + limit)

    def fits_with(k, r, pos, b):
        """Whether chain (k, r) is within range with b at `pos`."""
        g = groups[k][r]
        length = used[at[k]][r] - doubled[k][g[pos]] + doubled[k][b]
        return length <= clear_below or length <= clear_above and fits(
            k, g[:pos] + [b] + g[pos + 1 :])

    spots = _located(work)
    flagged = look.flagged
    for i, (o, k, r, pos) in enumerate(spots):
        later = spots[i + 1 :]
        if o not in flagged:
            look.skips += 1
            later = [spot for spot in later if spot[0] in flagged]
        for p, k2, r2, pos2 in later:
            if (k, r) == (k2, r2) or not (fits_with(k, r, pos, p) and fits_with(k2, r2, pos2, o)):
                continue
            move = (k, r, pos, k2, r2, pos2)
            if floor(o, p) > bar:
                yield None, move
                continue
            look.scored += 1
            _apply(work, "swap", move)
            score = state.score(k, k2, limit)
            _apply(work, "swap", move)
            yield score, move
        flagged.discard(o)


def _reorder(state: _Evaluator, limit: float, look: _Look):
    """Yield (score, move) for every move of a customer flagged in
    `look` to another position of its own chain."""
    for o, k, r, pos in _located(state.work):
        if o not in look.flagged:
            look.skips += 1
            continue
        g = state.work.groups[k][r]
        for pos2 in range(len(g)):
            if pos2 == pos:
                continue
            _apply(state.work, "reorder", (k, r, pos, pos2))
            score = state.score(k, k, limit)
            _apply(state.work, "reorder", (k, r, pos2, pos))
            yield score, (k, r, pos, pos2)
        look.flagged.discard(o)


def _reassign(state: _Evaluator, limit: float, look: _Look):
    """Yield (score, move) for every move of a whole chain with a
    customer flagged in `look` to the first idle robot of another
    station, within range there."""
    work, fits = state.work, state.tables.fits
    for k in work.tour:
        for r, g in enumerate(work.groups[k]):
            if not g:
                continue
            if look.flagged.isdisjoint(g):
                look.skips += 1
                continue
            for k2 in work.tour:
                if k2 == k:
                    continue
                free = [r2 for r2, g2 in enumerate(work.groups[k2]) if not g2]
                if not free or not fits(k2, g):
                    continue
                move = (k, r, k2, free[0])
                _apply(work, "reassign", move)
                score = state.score(k, k2, limit)
                _apply(work, "reassign", move)
                yield score, move
            look.flagged.difference_update(g)


def _two_opt(state: _Evaluator, limit: float, look):
    """Yield (score, move) for every reversal of a tour segment; it has
    no don't-look bits, so `look` is ignored."""
    work = state.work
    n = len(work.tour)
    for i in range(n - 1):
        for j in range(i + 1, n):
            _apply(work, "two_opt", (i, j))
            kernel = _IncrementalBound(state.ev, state.tables, work.tour, work.groups)
            score = kernel.rescore(state.sched, range(i, j + 1), limit)
            _apply(work, "two_opt", (i, j))
            yield score, (i, j)


# Each yields (score, move) in a fixed deterministic order, with the
# plan restored at every yield except relocate's (see `_relocate`).  A
# score is None once a term or a partial sum exceeds the limit (then so
# does the objective); every other score is exact.
_MOVES = {
    "relocate": _relocate,
    "swap": _swap,
    "reorder": _reorder,
    "reassign": _reassign,
    "two_opt": _two_opt,
}


def _first_improvement(state: _Evaluator, name: str, params: SearchParams, late, stats: dict,
                       look: _Look | None):
    """The first move of neighborhood `name` that lowers the objective,
    or None, scanning the customers flagged in `look`.  Every candidate
    counts one evaluation, and the caps are checked before it is judged;
    raises _Stop when one is reached, with the plan whole."""
    moves = _MOVES[name](state, state.objective, look)
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


def _touched(work: _Work, name: str, move) -> list[int]:
    """The customers on the chains a move of neighborhood `name`, once
    applied, changed; for two_opt, every customer at the reversed
    stations."""
    groups = work.groups
    if name == "two_opt":
        i, j = move
        return [o for k in work.tour[i : j + 1] for g in groups[k] for o in g]
    if name == "reorder":
        return groups[move[0]][move[1]]
    if name == "reassign":
        return groups[move[2]][move[3]]
    k, r, _, k2, r2, _ = move
    return groups[k][r] + groups[k2][r2]


def _descend(state: _Evaluator, params: SearchParams, late, stats: dict, flagged) -> None:
    """First-improvement descent, in place, with don't-look bits in
    every neighborhood but two_opt; raises _Stop when a cap ends it.

    Each bit starts set for the customers in `flagged`, and a kept
    move sets them for the customers `_touched`.
    The descent ends when no scan finds an improving move: at a local
    optimum over the moves of flagged customers, which need not be one
    over every move."""
    stats["descents"] += 1
    looks = {name: _Look(flagged) for name in NEIGHBORHOODS if name != "two_opt"}
    try:
        while True:
            for name in NEIGHBORHOODS:
                move = _first_improvement(state, name, params, late, stats, looks.get(name))
                if move is not None:
                    _apply(state.work, name, move)
                    state.refresh()
                    state.reached = stats["evals"]
                    stats["moves_" + name] += 1
                    touched = _touched(state.work, name, move)
                    for look in looks.values():
                        look.flagged.update(touched)
                    break
            else:
                return
    finally:
        for name, look in looks.items():
            stats["skips_" + name] += look.skips
            if name in FLOORED:
                stats["scored_" + name] += look.scored


def _ruin(state: _Evaluator, removal: str, size: int, rnd: random.Random) -> list[int]:
    """The customers removal `removal` takes out of the plan: `size` of
    them drawn at random ("random"); up to `size` drawn from one station
    that serves customers ("related"); or drawn by weighted tardiness,
    the largest most likely ("worst")."""
    spots = _located(state.work)
    if removal == "random":
        return rnd.sample([o for o, _, _, _ in spots], size)
    if removal == "related":
        k = rnd.choice([k for k in state.work.tour if any(state.work.groups[k])])
        here = [o for o, k2, _, _ in spots if k2 == k]
        return rnd.sample(here, min(size, len(here)))
    terms = state.sched.terms
    left = sorted((o for o, _, _, _ in spots), key=lambda o: (-terms[o], o))
    return [left.pop(int(rnd.random() ** WORST_BIAS * len(left))) for _ in range(size)]


def _ruined(work: _Work, removed, tour) -> _Work:
    """A copy of `work` on `tour` without the customers `removed`, each
    station's busy chains first: `exact._insert_all` recreates from it,
    and `branch` tries only the first idle robot of a station."""
    gone = set(removed)
    groups = {}
    for k, lists in work.groups.items():
        busy = [kept for kept in ([o for o in g if o not in gone] for g in lists) if kept]
        groups[k] = busy + [[] for _ in range(len(lists) - len(busy))]
    return _Work(tour, groups)


def improve(instance: Instance, plan: RoutePlan, params: SearchParams = SearchParams()) -> SolveReport:
    """Local-search improvement of a feasible plan.

    Descends from the given plan, then runs a ruin-and-recreate loop
    (Schrimpf et al. 2000) from the plan the descent ends on.  Each
    iteration copies the current plan; in `STATION_MOVE` of them moves
    one station to another tour position; removes `RUIN_SIZE` customers
    by one of `REMOVALS`; puts them back in urgency order, each at its
    cheapest slot, with `exact._insert_all`; descends, looking only at
    the removed customers, the others on their chains and the moved
    station's customers (see `_descend`); and accepts the result as the
    current plan when it is no worse, or by simulated annealing with
    probability exp(-increase / temperature).  The random draws come
    from `params.seed` alone, and the rule reads neither the clock nor
    the caps, so a run under a lower cap makes the same first
    iterations as one under a higher cap.

    The loop stops at the first of: the time cap (read inside a
    recreate too), the evaluation cap, a best objective at or below the
    root bound (the sum of the relaxed contributions, which no plan
    beats), and `STALL` iterations per customer without a new best.
    Returns the best plan met, never worse than the input, always
    feasible.  The report status is "heuristic": no optimality proof is
    implied.  `nodes` counts move evaluations; `stats` splits them by
    neighborhood (`evals_<name>`), counts the moves kept
    (`moves_<name>`), the customers (chains, for reassign) a scan
    passed over because their don't-look bits were clear
    (`skips_<name>`, every neighborhood but two_opt), the relocate and
    swap candidates that got an exact score rather than being ruled out
    by a floor (`scored_<name>`), the descents run (`descents`) and the
    loop's `iterations`; for each removal and the
    station move, the iterations that tried it (`tries_<name>`), whose
    result became the current plan (`accepted_<name>`) and a new best
    (`bests_<name>`); and `best_eval`, the evaluation count at which
    the returned objective was first reached.
    """
    started = time.perf_counter()
    violations = validate(instance, plan)
    if violations:
        raise ModelError(
            "improve requires a feasible plan: " + "; ".join(v.detail for v in violations)
        )
    ev = PlanEvaluator(instance)
    tables = _StepTables(ev)
    stats = {"evals": 0, "descents": 0, "iterations": 0, "best_eval": 0}
    for prefix in ("evals_", "moves_"):
        stats.update((prefix + name, 0) for name in NEIGHBORHOODS)
    stats.update(("skips_" + name, 0) for name in NEIGHBORHOODS if name != "two_opt")
    stats.update(("scored_" + name, 0) for name in FLOORED)
    for prefix in ("tries_", "accepted_", "bests_"):
        stats.update((prefix + name, 0) for name in (*REMOVALS, "station"))

    best = _Best()
    rnd = random.Random(params.seed)
    root_bound = math.fsum(_relaxed_contributions(instance, ev))
    rank = {o: i for i, o in enumerate(_urgency(instance))}

    def late() -> bool:
        return time.perf_counter() - started > params.max_seconds

    def descend(state: _Evaluator, flagged) -> bool:
        """Descend from `state` in place, with the don't-look bits of
        the customers in `flagged` set; False when a cap ended the
        descent."""
        try:
            _descend(state, params, late, stats, flagged)
        except _Stop:
            return False
        return True

    def offer(state: _Evaluator) -> bool:
        """Offer `state` to the incumbent; True for a new best objective."""
        lower = state.objective < best.objective
        if lower:
            stats["best_eval"] = state.reached
        best.offer(state.objective, state.work.tour, state.work.groups)
        return lower

    current = _Evaluator(ev, tables, _Work.from_plan(instance, plan))
    going = descend(current, range(instance.n_customers))
    offer(current)
    temperature = START_TEMPERATURE * current.objective
    stall = 0
    while going and best.objective > root_bound and stall < STALL * instance.n_customers:
        stats["iterations"] += 1
        removal = rnd.choice(REMOVALS)
        tried = [removal]
        tour = list(current.work.tour)
        moved = None
        if len(tour) > 1 and rnd.random() < STATION_MOVE:
            i = rnd.randrange(len(tour))
            j = rnd.randrange(len(tour) - 1)
            moved = tour.pop(i)
            tour.insert(j + (j >= i), moved)
            tried.append("station")
        size = min(rnd.randint(*RUIN_SIZE), instance.n_customers)
        removed = _ruin(current, removal, size, rnd)
        work = _ruined(current.work, removed, tour)
        kernel = _IncrementalBound(ev, tables, work.tour, work.groups)
        order = sorted(removed, key=rank.__getitem__)
        if _insert_all(kernel, kernel.schedule([0.0] * ev.n), order, set(), None, late) is None:
            break
        # the descent looks at the customers the recreate touched: the
        # removed ones, the others on their chains, and the moved
        # station's customers
        gone = set(removed)
        flagged = {
            o for k in work.tour for g in work.groups[k]
            if k == moved or not gone.isdisjoint(g) for o in g
        }
        state = _Evaluator(ev, tables, work, stats["evals"])
        going = descend(state, flagged)
        accepted = state.objective <= current.objective or temperature > 0.0 and (
            rnd.random() < math.exp((current.objective - state.objective) / temperature)
        )
        new_best = offer(state)
        for name in tried:
            stats["tries_" + name] += 1
            stats["accepted_" + name] += accepted
            stats["bests_" + name] += new_best
        if accepted:
            current = state
        stall = 0 if new_best else stall + 1
        temperature *= COOLING

    nodes = stats.pop("evals")
    return _report(instance, best.plan, "heuristic", nodes, started, stats=stats)
