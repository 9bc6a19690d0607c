"""
Exact solvers: exhaustive oracle and branch-and-bound.

`solve_oracle` enumerates every feasible plan of a tiny instance and is
the ground truth the branch-and-bound is tested against; it scores
plans with `PlanEvaluator.bound_of` (`propagate`'s recurrence, not the
search kernel), so it stays an independent check.
`solve_bnb` explores the same space as one search per station tour,
each placing one customer at a time, the one with the fewest slots
under the incumbent first, into a (station, robot, position) slot and
pruning with the admissible bound of `lower_bound`; a greedy dive per
tour ranks the tours, and their searches run one after another in rank
order.  Both report objectives computed with the arithmetic of
`evaluation.propagate`, so their results compare bit-exactly.

`lower_bound` and `PlanEvaluator.bound_of` define the bound.
`solve_bnb` does not call them per candidate: each node carries its
partial schedule (`_NodeSchedule`), and a candidate's bound is
recomputed from its insertion point with per-station step tables
(`_IncrementalBound`), bit-equal to `bound_of` (docs/MODEL.md,
arithmetic contract).  A candidate whose partial sum already exceeds
the incumbent is dropped unfinished, and so is a slot where the
inserted customer's own term does.  The slots each unplaced customer
has under the incumbent are counted at every node
(`_IncrementalBound.slots`, which decides nearly every slot without a
`probe`), and a node where some customer has none is dropped (the
look-ahead).  The range verdict is
`_StepTables.fits`'s: the node schedule carries each chain's length,
and `branch` and `slots` decide from that length plus the newcomer's
leg when the sum is clear of the cap, with `fits` otherwise.
`_insert_all`, cheapest slot first with backtracking and a memo of
failed bins, is the one greedy search: `solve_bnb`'s dives,
`heuristic.construct` and `heuristic.improve`'s recreates run it.  It
takes its slots from `_IncrementalBound.cheapest`, which reads the
slots' bound estimates from `slots` with no limit, floored against a
running window of the least estimates so far, and probes only the
slots that can be the cheapest.  The step tables are built once per
instance (`_step_tables`).  One robot rule serves `slots`,
`branch` and the local search's relocate: every busy robot of a
station and its first idle one.  `heuristic.improve` scores its
moves with the same kernel, and its relocates and swaps are ruled out
from the same kind of floor first: `slots`, and `exchange_floor`.
Both solvers, and `construct`, first run `check_capacity`, so an
instance whose
customers need more range, or more places in a sortie, than the fleet
has fails at once; one whose bins cannot be packed fails when the
first dive, or `construct`, exhausts its search.

Ties between equal-objective plans go to the lexicographically smallest
plan serialization, with one exception in `solve_bnb`: when the optimum
equals the root bound, the search stops at the first plan that meets
it, in its own order of dives and tours (docs/MODEL.md, "Search order
and ties").  `solve_bnb` prunes against the incumbent plus a relative
margin of 1e-12, so no tie is lost to the rounding of zero-length legs.
Robots at one station are interchangeable, so both solvers fill robots
in first-use order and never enumerate relabelings.  In the plans they
write, the oracle numbers a station's busy robots in that order, and
`solve_bnb` by each robot's most urgent customer (`_urgency`), so its
plan does not depend on the order it places customers in.  The search
is deterministic and single-threaded; repeated runs return identical
reports apart from wall time.
"""

from __future__ import annotations

import heapq
import math
import time
import weakref
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, count, islice, permutations
from numbers import Real
from operator import add, itemgetter

from .evaluation import PlanEvaluator, propagate
from .model import EPSILON, Instance, ModelError, RoutePlan, Schedule, Sortie, serialize_plan

# Plans kept safely enumerable by the oracle (upper bound on leaves).
ORACLE_LEAF_LIMIT = 5_000_000

# Placements one greedy search (`_insert_all`, in `heuristic.construct`
# and in a `solve_bnb` dive with no node cap) may make beyond one per
# customer (each follows an undo): the bin states its backtracking walks
# can be exponential in number, and the memo of failed bins does not
# bound them.
CONSTRUCT_UNDOS = 10_000

# A floor (`_IncrementalBound.slots`, `heuristic._swap`'s use of
# `exchange_floor`) rules a candidate out only when it exceeds the limit
# by more than FLOOR_MARGIN * (1 + limit), a margin for the rounding the
# floor's real-arithmetic terms may carry; `_IncrementalBound.cheapest`
# leaves a slot unprobed only when its estimate (from `slots` with no
# limit) exceeds the least ones by more than three such margins.
FLOOR_MARGIN = 1e-9

_UNPACKABLE = "no feasible plan: customers cannot be packed into per-robot sorties within range"


class EnumerationLimitError(ValueError):
    """The instance is too large for exhaustive enumeration."""


class InfeasibleInstanceError(ValueError):
    """No plan satisfies the range and multiplicity constraints."""


class BudgetExhaustedError(RuntimeError):
    """A cap stopped `solve_bnb` or `heuristic.construct` before it had
    any feasible plan."""


@dataclass(frozen=True)
class SolveBudget:
    """Node and wall-time caps for the branch-and-bound."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and not (isinstance(self.max_nodes, int)
                                               and self.max_nodes >= 1):
            raise ModelError(f"max_nodes must be positive and an integer, got {self.max_nodes!r}")
        if self.max_seconds is not None and not (isinstance(self.max_seconds, Real)
                                                 and self.max_seconds > 0):  # NaN too
            raise ModelError(f"max_seconds must be positive, got {self.max_seconds!r}")


@dataclass(frozen=True)
class SearchNode:
    """A branch-and-bound node.

    `tour_prefix` is the partial station tour (`solve_bnb` emits whole
    tours only); `assigned` maps customer id to its (station, robot,
    position) slot, as a tuple of pairs sorted by customer id; `bound`
    is the admissible lower bound of the node as computed by
    `lower_bound`.
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
    equals `propagate(plan).objective`.  `stats` holds the solver's
    own counters: for `solve_bnb` its nodes, prunes and incumbents,
    with `optimum_node`; for `heuristic.improve` its move evaluations
    and kept moves per neighborhood, its ruin-and-recreate iterations,
    each operator's tries, acceptances and new bests, and `best_eval`
    (see both).  `solve_oracle` leaves it empty.
    """

    plan: RoutePlan
    schedule: Schedule
    objective: float
    status: str
    bound_gap: float | None
    nodes: int
    wall_time: float
    stats: dict[str, int] = field(default_factory=dict)


def check_capacity(ev: PlanEvaluator) -> None:
    """Raise InfeasibleInstanceError when the fleet surely cannot serve
    every customer within range.

    Customer o adds at least min over k of 2*L(k,o) to whichever sortie
    serves it, and there are at most n_stations * fleet_size sorties,
    each at most TR + EPSILON long, so a total need beyond that leaves
    no feasible plan.  The check is necessary, not sufficient: an
    instance that passes may still be infeasible (the range can be
    fragmented across sorties), and then the search decides.  The
    relative 1e-12 covers the rounding of the per-sortie fsum and of
    the product.

    It also counts customers: no sortie holds more than `most` of
    them, the largest j for which the fsum of the j smallest least
    doubled legs is at most TR + EPSILON, since any j customers need
    at least those j legs and a correctly rounded sum is monotone.
    More customers than sorties times `most` leave one over.
    """
    instance = ev.instance
    # zip gives each customer's legs from every station; doubling is
    # exact, so 2 * min is the least doubled leg
    least = sorted(2.0 * min(legs) for legs in zip(*ev.sc.values()))
    need = math.fsum(least)
    sorties = instance.n_stations * instance.fleet_size
    cap = instance.robot_range + EPSILON
    if need > sorties * cap * (1.0 + 1e-12):
        raise InfeasibleInstanceError(
            f"no feasible plan: the customers need {need:.6g} of robot range in total, "
            f"more than the {sorties} sortie(s) of range {instance.robot_range:g} offer"
        )
    most = 0
    while most < len(least) and math.fsum(least[: most + 1]) <= cap:
        most += 1
    if len(least) > sorties * most:
        raise InfeasibleInstanceError(
            f"no feasible plan: customers cannot be packed into per-robot sorties within range: "
            f"the {sorties} sortie(s) hold at most {most} each, not {len(least)} in all"
        )


def _earliest(instance: Instance, ev: PlanEvaluator) -> list[float]:
    """Each customer's earliest conceivable completion: a direct depot
    ride to the best station plus the single service leg."""
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
    """Weighted tardiness per customer of its earliest conceivable
    completion (`_earliest`)."""
    out = []
    for c, best in zip(instance.customers, _earliest(instance, ev)):
        late = best - c.deadline
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
    objective of any completion of the node.  A malformed node (a
    repeated station, an unknown customer or robot, a customer assigned
    twice, a slot outside the prefix, a position taken twice or a gap)
    raises ModelError.
    """
    if len(set(node.tour_prefix)) != len(node.tour_prefix):
        raise ModelError(f"node's tour prefix {node.tour_prefix} repeats a station")
    ev = PlanEvaluator(instance)
    relax = _relaxed_contributions(instance, ev)
    customers, robots = range(instance.n_customers), range(instance.fleet_size)
    seen = set()
    groups: dict[int, dict[int, dict[int, int]]] = {}
    for o, (k, r, pos) in node.assigned:
        if not isinstance(o, int) or o not in customers:
            raise ModelError(f"node assigns customer {o}, which the instance does not have")
        if o in seen:
            raise ModelError(f"node assigns customer {o} twice")
        seen.add(o)
        if not isinstance(r, int) or r not in robots:
            raise ModelError(f"node assigns customer {o} to robot {r} outside the fleet")
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


def _canonical_plan(tour, groups, rank=None) -> RoutePlan:
    """Materialize the light-weight solver state as a RoutePlan, sorties
    listed in tour order with the busy robots of each station numbered
    0, 1, ... in their order in `groups`, so plans that differ only in
    which idle robot a chain went to are one plan.  With `rank` (a
    position per customer id), a station's busy robots are numbered by
    the least rank they serve instead.  The searches fill robots in
    first-use order; the local search can leave an idle robot before a
    busy one."""
    sorties = []
    for k in tour:
        busy = [g for g in groups.get(k, ()) if g]
        if rank is not None:
            busy.sort(key=lambda g: min(rank[o] for o in g))
        sorties.extend(Sortie(robot=r, station=k, services=tuple(g)) for r, g in enumerate(busy))
    return RoutePlan(tour=tuple(tour), sorties=tuple(sorties))


class _Best:
    """Incumbent tracker with lexicographic tie-breaking, shared by every
    solver; `rank` is `_canonical_plan`'s robot numbering."""

    def __init__(self, rank=None):
        self.objective = math.inf
        self.plan: RoutePlan | None = None
        self.key: str | None = None
        self.rank = rank

    def offer(self, objective: float, tour, groups) -> bool:
        if objective > self.objective:
            return False
        plan = _canonical_plan(tour, groups, self.rank)
        key = serialize_plan(plan)
        if objective == self.objective and self.key is not None and key >= self.key:
            return False
        self.objective, self.plan, self.key = objective, plan, key
        return True


def _report(instance, plan, status, nodes, started, gap=None, stats=None) -> SolveReport:
    """The report of a solver run that started at `started` and ends now
    with `plan`, scored by `propagate`."""
    schedule = propagate(instance, plan)
    return SolveReport(plan, schedule, schedule.objective, status, gap, nodes,
                       time.perf_counter() - started, {} if stats is None else stats)


def _urgency(instance: Instance, jitter=None) -> list[int]:
    """Customer ids by deadline over importance (times `jitter[o]` when
    given), then by id: the order `construct` places customers in, and
    the one `solve_bnb` numbers robots by."""
    c = instance.customers
    jitter = jitter or [1.0] * len(c)  # times 1.0 is exact
    return sorted(range(len(c)), key=lambda o: (c[o].deadline / c[o].importance * jitter[o], o))


def _slack(instance: Instance, ev: PlanEvaluator) -> list[int]:
    """Customer ids by slack over importance, then by id: the order
    `solve_bnb` places customers in.  The slack is the deadline less the
    earliest conceivable completion (`_earliest`), so a customer far
    from every station comes before one with the same deadline nearby."""
    c = instance.customers
    early = _earliest(instance, ev)
    return sorted(range(len(c)), key=lambda o: ((c[o].deadline - early[o]) / c[o].importance, o))


def solve_oracle(instance: Instance) -> SolveReport:
    """Exhaustively enumerate every feasible plan of a tiny instance.

    Every station permutation and every placement of every customer
    into an ordered per-robot sortie is visited; each complete plan is
    evaluated with the propagation arithmetic.  Raises
    EnumerationLimitError when the plan count estimate exceeds the
    documented limit and InfeasibleInstanceError when no feasible plan
    exists (at once when the capacity check of `check_capacity` fails).
    """
    started = time.perf_counter()
    ev = PlanEvaluator(instance)
    check_capacity(ev)
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
                if ev.group_length(k, g + [o]) > instance.robot_range + EPSILON:
                    continue
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    place(tour, idx + 1, groups)
                    g.pop(pos)

    try:
        for tour in permutations(station_ids):
            groups = {k: [[] for _ in range(n_r)] for k in station_ids}
            place(tour, 0, groups)
    finally:
        del place  # a recursive closure is a reference cycle; empty its cell

    if best.plan is None:
        raise InfeasibleInstanceError(_UNPACKABLE)
    return _report(instance, best.plan, "optimal", leaves, started)


def _chain_tail(first, step, g, j, before, arrive):
    """Completions of chain `g` from position `j` on, and its return time.

    `before` is the completion of `g[j - 1]`; at `j == 0` the chain
    starts from `arrive` instead.  `first[o]` is L(k,o)/VR and
    `step[a][b]` is (L(k,a)+L(k,b))/VR for the chain's station, the
    quotients `propagate`'s recurrence divides per hop, so every value
    is bit-equal to its counterpart there.
    """
    o = g[j]
    c = before + step[g[j - 1]][o] if j else arrive + first[o]
    out = [c]
    for i in range(j + 1, len(g)):
        b = g[i]
        c = c + step[o][b]
        out.append(c)
        o = b
    return out, c + first[o]


def _delayed(after, delay):
    """What moving the times of the customers a `_lateness` entry covers
    `delay` later adds to their terms, in real arithmetic: exactly that
    for a delay of 0 or more, and a floor for a negative one, since a
    term past its deadline then falls by at most its weight times the
    advance and a term at 0 stays there."""
    tardy, slack = after
    extra = delay * tardy
    if delay > 0.0:
        for s, w in slack:
            if s >= delay:
                break
            extra += w * (delay - s)
    return extra


class _StepTables:
    """Per-station quotients of the chain recurrence, keyed by station id:
    `first[k][o]` = L(k,o)/VR, `step[k][a][b]` = (L(k,a)+L(k,b))/VR, and
    `doubled[k][o]` = 2*L(k,o), the addend of `group_length`, for the
    range check against `cap` = TR + EPSILON.  Built once per instance,
    on first use, by `_step_tables`, which `solve_bnb`,
    `heuristic.construct` and `heuristic.improve` read them from; they
    hold no reference back to the instance.

    `fits` is the range verdict.  `branch`, `slots` and `improve`'s
    relocate and swap reach the same verdict from a chain's carried
    length plus the newcomer's addend (less the leaver's, for a swap)
    when that sum is below `clear_below` or above `clear_above`: it is
    within a few units in the last place of the exact length, far
    inside the relative 1e-12 margin, so the exactly rounded `fsum`
    of `fits` falls on the same side of `cap`.  Between the two it
    asks `fits`.
    """

    def __init__(self, ev: PlanEvaluator):
        vr = ev.vr
        self.first = {k: [x / vr for x in d] for k, d in ev.sc.items()}
        self.step = {k: [[(a + b) / vr for b in d] for a in d] for k, d in ev.sc.items()}
        self.doubled = {k: [2.0 * x for x in d] for k, d in ev.sc.items()}
        self.cap = ev.range + EPSILON  # finite and positive: `Instance` checks the range
        self.clear_below = self.cap * (1.0 - 1e-12)
        self.clear_above = self.cap * (1.0 + 1e-12)

    def fits(self, k: int, chain) -> bool:
        """Whether `chain` at station `k` is within range: its length,
        bit-equal to `PlanEvaluator.group_length`, is at most `cap`."""
        doubled = self.doubled[k]
        return math.fsum([doubled[o] for o in chain]) <= self.cap


# id(instance) -> its `_StepTables`, while the instance lives
_TABLES: dict[int, _StepTables] = {}


def _step_tables(ev: PlanEvaluator) -> _StepTables:
    """The step tables of `ev.instance`, built from `ev` on first use
    and kept until the instance is collected: keyed by its id, so
    neither the instance nor its equality, hash or pickle changes, and
    the tables hold no reference back to it."""
    key = id(ev.instance)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _TABLES[key] = _StepTables(ev)
        weakref.finalize(ev.instance, _TABLES.pop, key, None)
    return tables


class _NodeSchedule:
    """Partial schedule of one search node, by tour position.

    `chains[i][r]` lists the completions along robot r's chain at tour
    position i and `returns[i][r]` its return time (-inf while empty);
    `low[i]` is the smallest customer id served at position i (n while
    none is).
    `terms[o]` is customer o's addend of the bound: its weighted
    tardiness once assigned, its relaxed contribution before.
    `prefix[o]` is the float sum of `terms[:o]` added in id order, as
    `bound_of` adds them, so `prefix[n]` is the bound `bound_of` gives
    the node.
    `used[i][r]` is the length of robot r's chain at tour position i,
    bit-equal to `group_length`, for the range verdict of `branch` and
    `slots`; `_IncrementalBound.schedule`, `child` and `rebuilt` carry
    it.
    `lateness` is `_IncrementalBound._lateness` of the schedule, filled
    in by its first use, None before.  `carried` is what that first use
    starts from: for a schedule `child` or `rebuilt` built from one
    whose table was filled in, that table and the first tour position
    whose times did not change; None otherwise.
    Apart from those two, a schedule is never changed once built;
    children copy what differs.
    """

    __slots__ = ("arrive", "depart", "chains", "returns", "low", "terms", "prefix", "used",
                 "lateness", "carried")

    def __init__(self, arrive, depart, chains, returns, low, terms, prefix, used, carried=None):
        self.arrive = arrive
        self.depart = depart
        self.chains = chains
        self.returns = returns
        self.low = low
        self.terms = terms
        self.prefix = prefix
        self.used = used
        self.lateness = None
        self.carried = carried


class _IncrementalBound:
    """`PlanEvaluator.bound_of` of a child node, from its parent's schedule.

    Inserting a customer into robot r's chain at tour position i leaves
    the chain before the insertion point and every earlier station
    unchanged.  The chain is recomputed from the insertion point; the
    stations after i only when the departure from i moved, and only
    until an arrival comes out unchanged.  The sum restarts at the
    parent's prefix sum below the smallest changed customer id.  Same
    operations on the same doubles in the same order as `bound_of`, so
    the bound is bit-equal.

    The kernel reads `groups` as they stand, so a caller may change
    them in place and score the result.  `improve` does that: a
    relocate takes its customer out, builds that plan's schedule from
    the whole plan's with `rebuilt`, and probes only the insertion
    slots its `slots` keep; a swap is scored with `rescore` unless
    `exchange_floor` rules it out, and the other moves are scored with
    `rescore`.  A kept move's schedule is `rebuilt` from the plan's
    too, unless it changed the tour.
    `_insert_all` walks down like the search: from the empty plan's
    `schedule` it asks `cheapest`, which reads its estimates from
    `slots` with no limit and a window, for the slots to enter and
    enters each with `child`.  `branch`, which probes every slot with
    the same robot rule, is the tests' reference for that walk and for
    `slots`.
    """

    def __init__(self, ev: PlanEvaluator, tables: _StepTables, tour, groups):
        self.tour = tour
        self.groups = groups
        self.first = tables.first
        self.step = tables.step
        self.doubled = tables.doubled
        self.fits = tables.fits
        self.clear = (tables.clear_below, tables.clear_above)
        self.deadline = ev.deadline
        self.weight = ev.weight
        self.probes = 0  # spent by `slots`
        rides = []
        prev = None
        for k in tour:
            leg = ev.depot_leg[k] if prev is None else ev.ss[(prev, k)]
            rides.append(leg / ev.vv)
            prev = k
        self.rides = rides

    def schedule(self, terms) -> _NodeSchedule:
        """Schedule of the tour with the groups as they stand.

        `terms[o]` is the addend of a customer no chain serves: its
        relaxed contribution at the B&B root, 0.0 for a customer the
        local search has taken out.  Served customers get their
        weighted tardiness, so with every customer served `prefix[n]`
        is the plan's objective, bit-equal to `propagate`'s.  Every
        chain's length is carried for `branch`, `slots` and `child`.
        """
        terms = list(terms)
        n = len(terms)
        deadline, weight = self.deadline, self.weight
        arrive, depart, chains, returns, low = [], [], [], [], []
        t = 0.0
        for i, ride in enumerate(self.rides):
            a = t + ride
            cs, rs, t = self._station(i, a)
            m = n
            for g, comp in zip(self.groups[self.tour[i]], cs):
                for o, c in zip(g, comp):
                    late = c - deadline[o]
                    terms[o] = weight[o] * late if late > 0.0 else 0.0
                    if o < m:
                        m = o
            arrive.append(a)
            depart.append(t)
            chains.append(cs)
            returns.append(rs)
            low.append(m)
        used = [[math.fsum([self.doubled[k][o] for o in g]) for g in self.groups[k]]
                for k in self.tour]
        return _NodeSchedule(arrive, depart, chains, returns, low, terms,
                             list(accumulate(terms, add, initial=0.0)), used)

    def probe(self, st: _NodeSchedule, ki: int, r: int, pos: int, o: int, limit: float):
        """Bound of the child that inserts customer `o` at `pos` of robot
        `r`'s chain at tour position `ki`, as the candidate tuple
        `(bound, ki, r, pos, change)`, where `change` is what `child`
        needs to build the child's schedule.  None as soon as a partial
        sum exceeds `limit`: the bound adds non-negative terms in a
        fixed order, and a float sum of non-negative terms never
        decreases, so it is at least any one of its terms and any of
        its prefix sums.

        The two inner loops are `_chain_tail` with each completion's
        term computed on the spot.
        """
        k = self.tour[ki]
        g = self.groups[k][r]
        first, step = self.first[k], self.step[k]
        deadline, weight = self.deadline, self.weight
        terms = st.terms[:]
        if pos:
            prev, c = g[pos - 1], st.chains[ki][r][pos - 1]
        else:
            prev, c = None, st.arrive[ki]
        seg = g[pos:]
        seg.insert(0, o)
        for b in seg:
            c = c + first[b] if prev is None else c + step[prev][b]
            late = c - deadline[b]
            if late > 0.0:
                x = weight[b] * late
                if x > limit:
                    return None
                terms[b] = x
            else:
                terms[b] = 0.0
            prev = b
        ret = c + first[prev]
        m = min(seg)

        rets = st.returns[ki]
        dep = st.depart[ki]
        if ret >= rets[r]:
            new_dep = ret if ret > dep else dep
        else:  # rounding can shorten a chain that gained a customer
            new_dep = max(st.arrive[ki], ret, *rets[:r], *rets[r + 1 :])

        later = ki + 1  # tour positions before this one keep their times
        if new_dep != dep:
            tour, rides, arrive, low = self.tour, self.rides, st.arrive, st.low
            t = new_dep
            for i in range(ki + 1, len(tour)):
                a = t + rides[i]
                if a == arrive[i]:
                    break  # this station and all after it keep their times
                kk = tour[i]
                first, step = self.first[kk], self.step[kk]
                t = a
                for g2 in self.groups[kk]:
                    if not g2:
                        continue
                    prev, c = None, a
                    for b in g2:
                        c = c + first[b] if prev is None else c + step[prev][b]
                        late = c - deadline[b]
                        if late > 0.0:
                            x = weight[b] * late
                            if x > limit:
                                return None
                            terms[b] = x
                        else:
                            terms[b] = 0.0
                        prev = b
                    back = c + first[prev]
                    if back > t:
                        t = back
                if low[i] < m:
                    m = low[i]
                later = i + 1

        start = st.prefix[m]
        if start > limit:
            return None
        total = reduce(add, islice(terms, m, None), start)
        if total > limit:
            return None
        return total, ki, r, pos, (ret, new_dep, later, m, terms)

    def branch(self, st: _NodeSchedule, o: int):
        """The candidates `(bound, ki, r, pos, change)` of customer `o`,
        one `probe` with no limit per slot, unsorted: the reference the
        tests hold `slots` and `cheapest` to.

        The slots are every position of every chain within range after
        `o` joins it, in (tour position, robot, position) order, with
        `slots`' robot rule: every busy robot and the first idle one,
        in robot order.  Robots at one station are interchangeable, so
        one idle robot stands for them all.  The range verdict is
        `fits`'s: the carried length `st.used` plus o's addend decides
        when it is clear of `cap` (see `_StepTables`), `fits`
        otherwise.
        """
        probe, fits = self.probe, self.fits
        clear_below, clear_above = self.clear
        candidates = []
        for ki, k in enumerate(self.tour):
            used, d = st.used[ki], self.doubled[k][o]
            idle = False
            for r, g in enumerate(self.groups[k]):
                if not g:
                    if idle:
                        continue
                    idle = True
                length = used[r] + d
                if length > clear_below and (length > clear_above or not fits(k, g + [o])):
                    continue
                candidates.extend(probe(st, ki, r, pos, o, math.inf)
                                  for pos in range(len(g) + 1))
        return candidates

    def slots(self, st: _NodeSchedule, o: int, limit: float, cap, want=None):
        """The slots of customer `o` that `probe` keeps under `limit`,
        of `branch`'s slots and range verdict, with the counts of slots
        tried, slots dropped and chains rejected by range at the
        stations the station floor leaves.  A kept slot is `probe`'s
        candidate tuple, or `(None, ki, r, pos, estimate)` when kept on
        a certificate, without a `probe`.  The walk, the stations last
        in the tour first and each chain from its end slot in, stops
        once more than `cap` slots are kept, the counts then partial.
        `self.probes` counts the `probe` calls it spends.  With no
        limit and no cap (both `math.inf`) nothing is floored or
        probed, and every slot comes back with its estimate.

        With no limit and a `want` (`cap` then unused), the walk keeps
        only the slots `cheapest` may probe: those whose estimate is at
        most `e + 3 * FLOOR_MARGIN * (1 + |e|)`, where e is the `want`-th
        least estimate.  It holds the `want` least estimates seen so
        far, and their largest in place of e gives a running cut, which
        the station, chain and slot floors test instead of the limit.
        The running e is at least the final one and the cut grows with
        it, so a slot floored on the way is outside the final window
        too, and the slots at or under the final cut are those the walk
        keeps.

        In real arithmetic (docs/MODEL.md, "Search order and ties"), a
        slot's bound, its estimate, is the node's bound with o's
        relaxed term replaced by o's term at the slot, plus what the
        customers after the slot in its chain add, each completing
        2*L(k,o)/VR later, plus what the later stations add, all moving
        by the delay of the departure.  Beyond a margin of
        `FLOOR_MARGIN * (1 + limit)` for rounding the estimate decides
        the slot, and within it a `probe` does.  The estimate with o's
        term at the station's head, where o completes earliest, is a
        floor for every slot at the station (the station floor), and
        with what the later stations add, for every slot of the chain
        (the chain floor).
        """
        probe, fits, tour, groups = self.probe, self.fits, self.tour, self.groups
        clear_below, clear_above = self.clear
        weight, deadline, terms = self.weight, self.deadline, st.terms
        w, due = weight[o], deadline[o]
        margin = FLOOR_MARGIN * (1.0 + limit)
        bar = limit + margin
        rest = st.prefix[-1] - terms[o]  # the node's bound less o's term
        lateness = self.lateness(st)
        least = None  # the `want` least estimates so far, negated, once there are `want`
        if want is not None:
            cap = want - 1
        kept = []
        tried = dropped = rejected = 0
        for ki in range(len(tour) - 1, -1, -1):
            k = tour[ki]
            first = self.first[k][o]
            twice = 2.0 * first
            arrive, dep = st.arrive[ki], st.depart[ki]
            late = arrive + first - due
            head = rest + (w * late if late > 0.0 else 0.0)
            if head > bar:  # the station floor
                continue
            after = lateness[ki + 1]
            step, used, comps, rets = self.step[k], st.used[ki], st.chains[ki], st.returns[ki]
            d = self.doubled[k][o]
            idle = False
            for r, g in enumerate(groups[k]):
                if not g:
                    if idle:
                        continue
                    idle = True
                length = used[r] + d
                if length > clear_below and (length > clear_above or not fits(k, g + [o])):
                    rejected += 1
                    continue
                tried += len(g) + 1
                # the chain returns `twice` later: what that delays the
                # departure adds at the later stations
                delay = (rets[r] if g else arrive) + twice - dep
                extra = 0.0
                if delay > 0.0:
                    extra = _delayed(after, delay)
                    if head + extra > bar:  # the chain floor
                        dropped += len(g) + 1
                        continue
                comp = comps[r]
                for pos in range(len(g), -1, -1):
                    if pos:  # o's completion after g[pos - 1], as `probe` computes it
                        b = g[pos - 1]
                        late = comp[pos - 1] + step[b][o] - due
                        low = rest + (w * late if late > 0.0 else 0.0) + extra
                    else:
                        low = head + extra
                    if low > bar:  # a floor
                        dropped += 1
                    elif low + margin <= limit:  # a certificate
                        kept.append((None, ki, r, pos, low))
                        if len(kept) > cap:
                            if want is None:
                                return kept, tried, dropped, rejected
                            if least is None:
                                least = [-s[4] for s in kept]
                                heapq.heapify(least)
                            else:
                                heapq.heappushpop(least, -low)
                            e = -least[0]  # the running cut
                            bar = e + 3.0 * FLOOR_MARGIN * (1.0 + abs(e))
                    else:
                        self.probes += 1
                        found = probe(st, ki, r, pos, o, limit)
                        if found is None:
                            dropped += 1
                        else:
                            kept.append(found)
                            if len(kept) > cap:
                                return kept, tried, dropped, rejected
                    if pos:  # b completes `twice` later in the slots before it
                        late = comp[pos - 1] + twice - deadline[b]
                        if late > 0.0:
                            extra += weight[b] * late - terms[b]
        if least is not None:  # the final cut
            kept = [s for s in kept if s[4] <= bar]
        return kept, tried, dropped, rejected

    def cheapest(self, st: _NodeSchedule, o: int, want=None):
        """The `want` least of the candidate tuples `(bound, ki, r, pos,
        change)` of `branch`'s slots of customer `o`, in that order (all
        of them when they are fewer, or with no `want`), from `probe`
        with no limit, as `branch` gives them; a slot the estimates
        alone rank comes as `(None, ki, r, pos, estimate)`, unprobed.

        Only the slots `slots` keeps with no limit and this `want` are
        looked at: those whose estimate is at most `e + 3 * FLOOR_MARGIN
        * (1 + |e|)`, where e is the `want`-th least estimate.  With
        every bound within `FLOOR_MARGIN * (1 + bound)` of its estimate,
        the margin `slots` rests on, each slot left out has a bound
        above that of each of the `want` slots with the least estimates,
        so it is not among the `want` least (docs/MODEL.md, "Floors
        before scores").  By the same argument, when each kept estimate
        exceeds the one below it by more than that window, the bounds
        are in the estimates' order, and none is probed; otherwise every
        kept slot is.
        """
        kept = self.slots(st, o, math.inf, math.inf, want)[0]
        kept.sort(key=itemgetter(4))
        if all(b[4] > a[4] + 3.0 * FLOOR_MARGIN * (1.0 + a[4]) for a, b in zip(kept, kept[1:])):
            return kept  # the estimates alone rank them, and no more than `want`
        probe = self.probe
        found = sorted(probe(st, ki, r, pos, o, math.inf) for _, ki, r, pos, _ in kept)
        return found if want is None else found[:want]

    def exchange_floor(self, st: _NodeSchedule):
        """A function of two customers on different chains, `o` and `p`,
        giving a floor of the objective, in real arithmetic, once they
        trade places; `st` is the plan's schedule, every customer served.

        Say o is at the earlier tour position i (or at the same one) and
        p at j.  p completes at o's slot after o's predecessor, as
        `probe` computes it, and each customer after the slot completes
        exactly `shift = 2 (L(k,p) - L(k,o)) / VR` later, which may be
        negative, and so does the chain's return; the departure from i
        moves by the latest of the arrival, the station's other returns
        and that return, less the departure.  Every time at the positions
        between i and j moves by that much, which adds at least it
        times their late weight; at j everything moves by it too, o's
        own shift added after o's slot, and every time after j moves by
        the departure's move from j, which `_delayed` gives, a floor
        when negative.  When i is j, both chains change there and only
        the later positions move.  docs/MODEL.md, "Floors before
        scores", has the argument and the margin the caller adds.
        """
        deadline, weight, terms = self.deadline, self.weight, st.terms
        first_at, step_at, depart = self.first, self.step, st.depart
        lateness = self.lateness(st)
        objective = st.prefix[-1]
        spots = {}  # customer -> what the floor reads of its slot
        for i, k in enumerate(self.tour):
            chains, rets, a = st.chains[i], st.returns[i], st.arrive[i]
            for r, (g, comp) in enumerate(zip(self.groups[k], chains)):
                others = max([a, *rets[:r], *rets[r + 1 :]])
                for pos, o in enumerate(g):
                    tail = [(comp[q] - deadline[b], weight[b], terms[b])
                            for q, b in enumerate(g[pos + 1 :], pos + 1)]
                    mine = sum(w for gap, w, _ in tail if gap > 0.0)  # late weight of o and after
                    if comp[pos] > deadline[o]:
                        mine += weight[o]
                    prev, before = (g[pos - 1], comp[pos - 1]) if pos else (None, a)
                    spots[o] = (i, k, r, prev, before, tail, rets[r], others, mine)

        def arrive(b, at, prev, before, k, shift, tail):
            """b's term once it takes the slot after `prev`, done at
            `before`, at station k with every time there `at` later, plus
            what the terms of the customers after it gain, moved `shift`
            more."""
            c = before + at + (first_at[k][b] if prev is None else step_at[k][prev][b])
            late = c - deadline[b]
            total = weight[b] * late if late > 0.0 else 0.0
            for gap, w, t in tail:
                late = gap + at + shift
                total += (w * late if late > 0.0 else 0.0) - t
            return total

        def floor(o, p):
            one, two = spots[o], spots[p]
            if one[0] > two[0]:
                o, p, one, two = p, o, two, one
            i, k, r, prev, before, tail, ret, others, _ = one
            j, k2, r2, prev2, before2, tail2, ret2, others2, mine = two
            shift = 2.0 * (first_at[k][p] - first_at[k][o])
            shift2 = 2.0 * (first_at[k2][o] - first_at[k2][p])
            total = objective - terms[o] - terms[p] + arrive(p, 0.0, prev, before, k, shift, tail)
            if i == j:
                rets = st.returns[i]
                others = max([st.arrive[i], *(x for q, x in enumerate(rets) if q != r and q != r2)])
                move = max(others, ret + shift, ret2 + shift2) - depart[i]
                total += arrive(o, 0.0, prev2, before2, k2, shift2, tail2)
                return total + _delayed(lateness[i + 1], move)
            move = max(others, ret + shift) - depart[i]
            # the positions between i and j, and at j all but p and the
            # customers after it
            total += move * (lateness[i + 1][0] - lateness[j + 1][0] - mine)
            total += arrive(o, move, prev2, before2, k2, shift2, tail2)
            move += max(others2, ret2 + shift2) - depart[j]
            return total + _delayed(lateness[j + 1], move)

        return floor

    def lateness(self, st: _NodeSchedule):
        """`st.lateness`, filled in with `_lateness` on first use."""
        if st.lateness is None:
            st.lateness = self._lateness(st)
        return st.lateness

    def _lateness(self, st: _NodeSchedule):
        """Per tour position i, of the customers served at positions i
        and after: the weight of those past their deadline, and the
        (slack, weight) pairs of the others by slack, so all their terms
        grow by `delay * tardy` plus `w * (delay - s)` for each pair with
        `s < delay` when their times move `delay` later (`_delayed`).
        Entry 0, which nothing reads, is None.  The entries of the tour
        positions from `st.carried`'s on are its table's, since those
        positions' times did not change; only the others are built."""
        deadline, weight, tour, groups = self.deadline, self.weight, self.tour, self.groups
        if st.carried is None:
            later = len(tour)
            out = [None] * later + [(0.0, [])]
        else:
            base, later = st.carried
            out = base[:]
        tardy, slack = out[later]
        for i in range(later - 1, 0, -1):
            slack = slack[:]
            for g, comp in zip(groups[tour[i]], st.chains[i]):
                for b, c in zip(g, comp):
                    s = deadline[b] - c
                    if s < 0.0:
                        tardy += weight[b]
                    else:
                        slack.append((s, weight[b]))
            slack.sort()
            out[i] = (tardy, slack)
        return out

    def rescore(self, st: _NodeSchedule, changed, limit: float) -> float | None:
        """Bound with the groups (and tour) as they stand, where they
        differ from `st`'s only at the tour positions in `changed`, and
        no customer has left those positions.  Those stations are
        recomputed, the others only while their arrival moves, and the
        sum restarts below the smallest recomputed customer id, as in
        `probe`; None as soon as a term or a partial sum exceeds
        `limit`, as there."""
        tour, rides = self.tour, self.rides
        deadline, weight = self.deadline, self.weight
        terms = st.terms[:]
        m = len(terms)
        lo, hi = min(changed), max(changed)
        t = st.depart[lo - 1] if lo else 0.0
        for i in range(lo, len(tour)):
            a = t + rides[i]
            if a == st.arrive[i] and i not in changed:
                if i > hi:
                    break  # this station and all after it keep their times
                t = st.depart[i]
                continue
            k = tour[i]
            first, step = self.first[k], self.step[k]
            t = a
            for g in self.groups[k]:
                if not g:
                    continue
                prev, c = None, a
                for b in g:
                    c = c + first[b] if prev is None else c + step[prev][b]
                    late = c - deadline[b]
                    if late > 0.0:
                        x = weight[b] * late
                        if x > limit:
                            return None
                        terms[b] = x
                    else:
                        terms[b] = 0.0
                    if b < m:
                        m = b
                    prev = b
                back = c + first[prev]
                if back > t:
                    t = back
        start = st.prefix[m]
        if start > limit:
            return None
        total = reduce(add, islice(terms, m, None), start)
        return None if total > limit else total

    def child(self, st: _NodeSchedule, ki: int, r: int, pos: int, change) -> _NodeSchedule:
        """The schedule of a candidate `probe` returned, built from the
        parent's once the customer is in the groups; only the chain
        that gained the customer gets a new length."""
        ret, new_dep, later, m, terms = change
        k = self.tour[ki]
        g = self.groups[k][r]
        head = st.chains[ki][r]
        before = head[pos - 1] if pos else 0.0
        tail, _ = _chain_tail(self.first[k], self.step[k], g, pos, before, st.arrive[ki])
        chains = st.chains[:]
        returns = st.returns[:]
        chains[ki] = chains[ki][:]
        chains[ki][r] = head[:pos] + tail
        returns[ki] = returns[ki][:]
        returns[ki][r] = ret
        used = st.used[:]
        used[ki] = used[ki][:]
        doubled = self.doubled[k]
        used[ki][r] = math.fsum([doubled[b] for b in g])
        depart = st.depart[:]
        depart[ki] = new_dep
        low = st.low
        o = g[pos]
        if o < low[ki]:
            low = low[:]
            low[ki] = o
        arrive = st.arrive
        if later > ki + 1:
            arrive = arrive[:]
            t = new_dep
            for i in range(ki + 1, later):
                a = arrive[i] = t + self.rides[i]
                chains[i], returns[i], t = self._station(i, a)
                depart[i] = t
        prefix = st.prefix[:m]
        prefix.extend(accumulate(islice(terms, m, None), add, initial=st.prefix[m]))
        carried = None if st.lateness is None else (st.lateness, later)
        return _NodeSchedule(arrive, depart, chains, returns, low, terms, prefix, used, carried)

    def rebuilt(self, st: _NodeSchedule, changed, gone=None) -> _NodeSchedule:
        """The schedule of the groups as they stand, built from `st`,
        where they differ from `st`'s only at the tour positions in
        `changed` (the tour the same), and `gone`, when given, is a
        customer that has left them: its term becomes 0.0, the term
        `improve` gives a customer taken out.  Those stations are
        recomputed, the others only while their arrival moves, and the
        sum restarts below the smallest recomputed customer id, as in
        `rescore`.  Same operations as `schedule`, so the schedule is
        bit-equal to it, chain lengths included; it carries `st`'s
        lateness table from the first unchanged position after the last
        recomputed one."""
        deadline, weight, tour, rides = self.deadline, self.weight, self.tour, self.rides
        terms = st.terms[:]
        m = len(terms)
        if gone is not None:
            terms[gone] = 0.0
            m = gone
        arrive, depart = st.arrive[:], st.depart[:]
        chains, returns, low = st.chains[:], st.returns[:], st.low[:]
        used = st.used[:]
        for i in changed:
            doubled = self.doubled[tour[i]]
            used[i] = [math.fsum([doubled[b] for b in g]) for g in self.groups[tour[i]]]
        hi = max(changed)
        later = len(tour)
        for i in range(min(changed), later):
            a = (depart[i - 1] if i else 0.0) + rides[i]
            if a == arrive[i] and i not in changed:
                if i > hi:
                    later = i
                    break  # this station and all after it keep their times
                continue
            arrive[i] = a
            chains[i], returns[i], depart[i] = self._station(i, a)
            low[i] = len(terms)
            for g, comp in zip(self.groups[tour[i]], chains[i]):
                for b, c in zip(g, comp):
                    late = c - deadline[b]
                    terms[b] = weight[b] * late if late > 0.0 else 0.0
                    if b < low[i]:
                        low[i] = b
            if low[i] < m:
                m = low[i]
        prefix = st.prefix[:m]
        prefix.extend(accumulate(islice(terms, m, None), add, initial=st.prefix[m]))
        carried = None if st.lateness is None else (st.lateness, later)
        return _NodeSchedule(arrive, depart, chains, returns, low, terms, prefix, used, carried)

    def _station(self, i: int, a: float):
        """Chains, returns and departure at tour position `i` for arrival `a`."""
        k = self.tour[i]
        first, step = self.first[k], self.step[k]
        chains, returns = [], []
        t = a
        for g in self.groups[k]:
            if g:
                cs, back = _chain_tail(first, step, g, 0, 0.0, a)
                if back > t:
                    t = back
            else:
                cs, back = [], -math.inf
            chains.append(cs)
            returns.append(back)
        return chains, returns, t


class _Stop(Exception):
    """A cap ended a search."""


def _insert_all(kernel: _IncrementalBound, sched: _NodeSchedule, order, failed,
                picks, stop) -> _NodeSchedule | None:
    """Greedy insertion with backtracking, run by `heuristic.construct`,
    by each of `heuristic.improve`'s recreates and by each of
    `solve_bnb`'s dives.

    From `sched`, the kernel's `schedule` of the groups as they stand,
    each customer of `order` in turn tries its slots (every busy robot
    of a station and its first idle one, `branch`'s set) in (bound,
    tour position, robot, position) order; with `picks` (the
    noisy seeds', None for the others), the customer at depth `idx`
    first tries slot `int(picks[idx] * min(3, n))` of its `n`, one of
    the three cheapest (`cheapest` gives min(3, n) of them).  The slot
    tried first comes from `cheapest`, which reads the estimates of
    `slots` with no limit, walked against a running window of the one
    (or three, for a pick) least so far, and probes only the slots that
    can be among the cheapest one (or three), none when the estimates
    alone rank them; it is entered with the `change` of its probe,
    probed then if `cheapest` did not.
    Only when its subtree fails does `cheapest` rank every slot, and
    the others follow in that order, each probed again on entry.  A
    customer with no slot left undoes the last choice.
    Returns the schedule of the first complete placement, whose plan
    the groups then hold, or None when `stop()`, read before each
    placement, turns true (the groups left part-filled).  Every slot of
    every chain is tried, so when all fail no plan exists: that raises
    InfeasibleInstanceError.

    Whether the customers left fit depends only on which of them share
    each (station, robot) chain (robots at a station are
    interchangeable), not on the tour or the order.  So the chains, as
    sets, of each state the search exhausts go into `failed`, and no
    search sharing the set enters such a state again; a cut subtree
    holds no plan, and the picks depend on the depth alone, so the
    plan is the full search's.  A stopped search adds nothing.
    """
    groups, tour = kernel.groups, kernel.tour

    def bins():
        return frozenset(
            (k, frozenset(frozenset(g) for g in lists if g)) for k, lists in groups.items()
        )

    def place(idx: int, sched: _NodeSchedule):
        if idx == len(order):
            return sched
        if stop():
            raise _Stop
        if failed and bins() in failed:
            return None
        o = order[idx]
        for _, ki, r, pos, change in tries(idx, sched, o):
            g = groups[tour[ki]][r]
            g.insert(pos, o)
            leaf = place(idx + 1, kernel.child(sched, ki, r, pos, change))
            if leaf is not None:
                return leaf
            g.pop(pos)
        failed.add(bins())
        return None

    def tries(idx: int, sched: _NodeSchedule, o: int):
        """o's candidates in the order the search enters them; each is
        asked for once the one before has failed."""
        cheap = kernel.cheapest(sched, o, 1 if picks is None else 3)
        if not cheap:
            return
        # with n slots, cheap holds min(3, n) for a pick
        chosen = 0 if picks is None else int(picks[idx] * len(cheap))
        found = cheap[chosen]
        if found[0] is None:  # ranked by its estimate alone
            found = kernel.probe(sched, *found[1:4], o, math.inf)
        yield found
        rest = [found[:4] for found in kernel.cheapest(sched, o)]
        del rest[chosen]
        for _, ki, r, pos in rest:
            # probed again on entry: kept for every slot of every
            # level, the changes would hold a copy of the terms each
            yield kernel.probe(sched, ki, r, pos, o, math.inf)

    try:
        leaf = place(0, sched)
    except _Stop:
        return None
    finally:
        del place  # a recursive closure is a reference cycle; empty its cell
    if leaf is None:
        raise InfeasibleInstanceError(_UNPACKABLE)
    return leaf


def solve_bnb(
    instance: Instance,
    budget: SolveBudget | None = None,
    on_node=None,
) -> SolveReport:
    """Branch-and-bound over tours and customer slots.

    Every station tour is the root of its own search, which at each
    node assigns the unplaced customer with the fewest slots under the
    incumbent, ties to the earlier in slack order (`_slack`: deadline
    less the earliest conceivable completion, over importance), to
    (station, robot, position) slots, children ordered by their lower
    bound: fail-first (Golomb & Baumert 1965; Haralick & Elliott 1980).
    A node is pruned when its bound exceeds the incumbent plus a margin
    of 1e-12 * (1 + incumbent), so ties survive the rounding of
    zero-length legs and the returned objective matches `solve_oracle`
    on any instance the oracle can enumerate.  `on_node`, when given,
    receives every expanded node as a SearchNode (used by
    admissibility tests), robots numbered as the search filled them.

    Search order: first one greedy dive per tour (`_insert_all` from
    the tour's root, each customer at its lowest-bound slot that still
    lets the rest fit) offers its plan to the incumbent; then each
    tour's search runs to its end, one tour after another in order of
    (dive objective, tour), so a good incumbent comes early.  The dives
    share one memo of failed bins, and the first dive that exhausts its
    search raises InfeasibleInstanceError before any search node.  The
    plan returned is the one with the smallest (objective,
    serialization) among the optimal plans, which every order visits;
    its busy robots at each station are numbered by their most urgent
    customer (`_urgency`), the label the urgency order's search gave
    them in first-use order.  Only when the incumbent meets the root
    bound does the search stop early, and then it returns that plan:
    the first that meets the bound in this order, dives first
    (docs/MODEL.md, "Search order and ties").

    Candidate bounds are computed incrementally from the parent's
    schedule (`_IncrementalBound`), bit-equal to `lower_bound`.  A
    candidate whose partial bound already exceeds the incumbent is
    dropped before its bound is finished: it would be pruned on entry,
    and the incumbent only decreases.  The counting
    (`_IncrementalBound.slots`) is a look-ahead: it drops the node when
    some unplaced customer has no slot that `probe` keeps under the
    incumbent, since every slot of a descendant has a bound at least
    that of a slot of the node, so no completion of it is at or under
    the incumbent (docs/MODEL.md, "Search order and ties").  The
    customers are counted in slack order, each only until it has as
    many slots as the fewest so far, and a slot is decided without a `probe` wherever its bound
    in real arithmetic is clear of the incumbent by a margin for
    rounding.

    A dive makes at most one placement per customer plus `max_nodes`
    more (one follows each undo), or `CONSTRUCT_UNDOS` more with no
    node cap.  That cap and the time cap are read between a dive's
    placements; one that stops the first dive raises
    BudgetExhaustedError naming it.  With no node cap, the undo cap
    stopping a later dive only leaves its tour unranked, so with no
    budget the report status is always "optimal".  A node cap counts
    search nodes, the one it stops at included, so a capped solve
    reports at most `max_nodes`; it or the time cap (read every 64
    nodes) stopping a later dive or a search ends the solve at once.
    The search then returns the incumbent and the gap to the best open
    bound: the least bound left at each open level of the stopped
    search, and the root bound when a tour was not started.  `stats`
    counts expanded nodes (one root per tour); of the customers
    branched on, the bounded candidates (at stations their floor does
    not rule out), those pruned by the bound (dropped early or cut off
    after sorting) and the (station, robot) chains rejected by range;
    expanded nodes dropped by the look-ahead
    (`pruned_by_lookahead`), the `probe` calls the counting spent
    (`counting_probes`), nodes whose branching customer had a single
    slot (`forced`), `dives` (tours dived), `incumbents` (offers
    accepted, dives included) and `optimum_node`, the node count at
    which the returned objective was first reached (0 when a dive
    reached it).
    """
    started = time.perf_counter()
    budget = budget or SolveBudget()
    ev = PlanEvaluator(instance)
    check_capacity(ev)
    tables = _step_tables(ev)
    n_c, n_r = instance.n_customers, instance.fleet_size
    relax = _relaxed_contributions(instance, ev)
    root_bound = math.fsum(relax)
    station_ids = sorted(s.id for s in instance.stations)
    order = _slack(instance, ev)

    best = _Best({o: i for i, o in enumerate(_urgency(instance))})
    failed = set()  # bins no placement completes: the same for every tour
    node_cap = math.inf if budget.max_nodes is None else budget.max_nodes
    undos = CONSTRUCT_UNDOS if budget.max_nodes is None else budget.max_nodes
    dive_cap = n_c + undos  # placements in one dive
    # `limit` is the incumbent plus a margin for the rounding of
    # zero-length legs, which can put a bound a few units in the last
    # place above an optimal leaf below it
    state = {"nodes": 0, "aborted": False, "frontier": math.inf, "proved": False,
             "limit": math.inf}
    stats = {
        "nodes": 0, "candidates": 0, "pruned_by_bound": 0, "pruned_by_lookahead": 0,
        "counting_probes": 0, "forced": 0, "rejected_by_range": 0, "dives": 0,
        "incumbents": 0, "optimum_node": 0,
    }

    def out_of_time() -> bool:
        return budget.max_seconds is not None and time.perf_counter() - started > budget.max_seconds

    def emit(tour, groups, bound):
        if on_node is None:
            return
        assigned = []
        for k, lists in groups.items():
            for r, g in enumerate(lists):
                for pos, o in enumerate(g):
                    assigned.append((o, (k, r, pos)))
        assigned.sort()
        on_node(SearchNode(tuple(tour), tuple(assigned), bound))

    def offer(objective, tour, groups):
        before = best.objective
        if best.offer(objective, tour, groups):
            stats["incumbents"] += 1
            if objective < before:
                stats["optimum_node"] = state["nodes"]
                state["limit"] = objective + 1e-12 * (1.0 + objective)
            if objective <= root_bound:
                state["proved"] = True

    def root(tour):
        groups = {k: [[] for _ in range(n_r)] for k in station_ids}
        kernel = _IncrementalBound(ev, tables, tour, groups)
        return groups, kernel, kernel.schedule(relax)

    def pick(rest, kernel, sched):
        """The customer of `rest`, which is in slack order, with the
        fewest slots under the limit, ties to the earlier, with what
        `slots` gave for it; None when some customer has none.  Each is
        counted only until it has as many slots as the fewest so far."""
        limit = state["limit"]
        chosen, found, fewest = None, None, math.inf
        for o in rest:
            counted = kernel.slots(sched, o, limit, fewest - 1)
            if not counted[0]:
                return None
            if len(counted[0]) < fewest:
                chosen, found, fewest = o, counted, len(counted[0])
        return chosen, found

    def assign(tour, rest, groups, node_bound, kernel, sched):
        state["nodes"] += 1
        nodes = state["nodes"]
        if nodes >= node_cap or nodes % 64 == 0 and out_of_time():
            state["aborted"] = True
            state["frontier"] = min(state["frontier"], node_bound)
            return
        emit(tour, groups, node_bound)
        if not rest:
            # fully assigned: the node bound is the exact objective
            if node_bound <= best.objective:
                offer(node_bound, tour, groups)
            return
        picked = pick(rest, kernel, sched)
        if picked is None:
            stats["pruned_by_lookahead"] += 1
            return
        o, (kept, tried, dropped, rejected) = picked
        candidates = []
        for found in kept:
            if found[0] is None:  # kept without a probe: probed for its bound and child
                found = kernel.probe(sched, *found[1:4], o, state["limit"])
                if found is None:
                    dropped += 1
                    continue
            candidates.append(found)
        stats["candidates"] += tried
        stats["rejected_by_range"] += rejected
        stats["pruned_by_bound"] += dropped
        stats["forced"] += len(kept) == 1
        candidates.sort()
        rest = [b for b in rest if b != o]
        for i, (bound, ki, r, pos, change) in enumerate(candidates):
            if state["proved"]:
                return
            if bound > state["limit"]:
                # sorted ascending: the rest are pruned too
                stats["pruned_by_bound"] += len(candidates) - i
                break
            if state["aborted"]:
                # sorted ascending: the least bound left open at this level
                state["frontier"] = min(state["frontier"], bound)
                return
            g = groups[tour[ki]][r]
            g.insert(pos, o)
            assign(tour, rest, groups, bound, kernel, kernel.child(sched, ki, r, pos, change))
            g.pop(pos)

    tours = list(permutations(station_ids))
    try:
        rank = {}
        for tour in tours:  # the dives
            if state["proved"]:
                break
            groups, kernel, sched = root(tour)
            placed = count(1)
            leaf = _insert_all(kernel, sched, order, failed, None,
                               stop=lambda: out_of_time() or next(placed) > dive_cap)
            if leaf is None:
                if best.plan is None:  # the first dive: no plan to return
                    cap = (f"the time cap of {budget.max_seconds:g} s" if out_of_time() else
                           f"the cap of {dive_cap} placements ({n_c} customers plus {undos} undos)")
                    raise BudgetExhaustedError(
                        f"budget exhausted before any feasible plan was found: {cap} "
                        "stopped the first dive")
                if budget.max_nodes is None and not out_of_time():
                    continue  # the undo cap costs this tour its rank, not the proof
                state["aborted"] = True
                break
            stats["dives"] += 1
            rank[tour] = leaf.prefix[-1]
            offer(rank[tour], tour, groups)
        # each tour's search runs to its end, in rank order, until the
        # incumbent meets the root bound or a cap stops the solve
        for tour in sorted(tours, key=lambda t: (rank.get(t, math.inf), t)):
            if state["proved"]:
                break
            if state["aborted"]:  # the tours not started are open at the root bound
                state["frontier"] = min(state["frontier"], root_bound)
                break
            groups, kernel, sched = root(tour)
            assign(tour, order, groups, root_bound, kernel, sched)
            stats["counting_probes"] += kernel.probes
    finally:
        # a recursive closure is a reference cycle; emptying its cell
        # frees the search state without waiting for the cycle collector
        del assign
    stats["nodes"] = state["nodes"]

    if state["aborted"] and state["frontier"] < best.objective:
        status, gap = "budget-exhausted", best.objective - state["frontier"]
    else:
        status, gap = "optimal", None
    return _report(instance, best.plan, status, state["nodes"], started, gap, stats)
