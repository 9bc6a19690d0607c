"""
Construction and local search: feasibility, determinism, quality.
"""

import collections
import gc
import hashlib
import inspect
import math
import pickle
import random
import sys
import time

import numpy as np
import pytest
from reference_construct import reference_construct
from reference_improve import reference_descent
from test_exact import SEARCH_CASES, search_case

from mothership import (
    EPSILON,
    NEIGHBORHOODS,
    BudgetExhaustedError,
    Customer,
    InfeasibleInstanceError,
    Instance,
    ModelError,
    PlanEvaluator,
    Point,
    RoutePlan,
    SearchParams,
    Sortie,
    Station,
    builtin_fixture,
    construct,
    generate,
    improve,
    propagate,
    serialize_plan,
    solve_bnb,
    solve_oracle,
    validate,
)
from mothership import exact, heuristic
from mothership.exact import (
    FLOOR_MARGIN,
    _canonical_plan,
    _IncrementalBound,
    _insert_all,
    _relaxed_contributions,
    _StepTables,
    _Stop,
    check_capacity,
)
from mothership.heuristic import (
    _MOVES,
    _apply,
    _descend,
    _Evaluator,
    _first_improvement,
    _Look,
    _relocate,
    _ruined,
    _chains,
    _swap,
    _touched,
    _Work,
)

SMALL_OPTIMUM = 36.37122987569251


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.seed == 0
        assert p.max_iterations == sys.maxsize and p.max_seconds > 0

    def test_default_has_no_evaluation_cap(self, clock):
        # each clock reading moves it 1 ms, so the 5 s cap passes after
        # about 5,000 readings, one per 64 evaluations in a descent: the
        # run goes past the old default cap of 200,000 evaluations and
        # the clock ends it, as neither the stall rule nor the root
        # bound can have
        inst = generate(1, 6, 4, 40)
        clock.step = 1e-3
        report = improve(inst, construct(inst), SearchParams(max_seconds=5.0))
        assert report.nodes > 200_000
        assert clock.now > 5.0
        assert report.stats["iterations"] < heuristic.STALL * inst.n_customers
        assert report.objective > math.fsum(_relaxed_contributions(inst, PlanEvaluator(inst)))
        assert validate(inst, report.plan) == []
        assert report.objective == propagate(inst, report.plan).objective

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": math.nan},
            {"max_seconds": 0.0},
            {"max_seconds": math.nan},
            {"max_iterations": -1},
            {"max_seconds": -1.0},
            {"max_seconds": -math.inf},
            {"max_iterations": 2.5},
            {"max_iterations": "4"},
            {"max_iterations": 1e5},
            {"max_seconds": "2"},
            {"max_seconds": None},
            {"seed": "a"},
            {"seed": 1.5},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ModelError):
            SearchParams(**kwargs)


class TestConstruct:
    def test_small_fixture_feasible(self):
        inst, _ = builtin_fixture("small")
        plan = construct(inst)
        assert validate(inst, plan) == []

    def test_each_seed_feasible_and_deterministic(self):
        inst, _ = builtin_fixture("small")
        for seed in range(12):
            a = construct(inst, seed)
            b = construct(inst, seed)
            assert serialize_plan(a) == serialize_plan(b)
            assert validate(inst, a) == []

    def test_seeds_reach_distinct_plans(self):
        inst, _ = builtin_fixture("small")
        plans = {serialize_plan(construct(inst, s)) for s in range(12)}
        assert len(plans) > 1

    def test_zero_customers(self):
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(5.0, 0.0)), Station(2, Point(0.0, 5.0))),
            customers=(),
            fleet_size=1,
            robot_range=10.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        plan = construct(inst)
        assert sorted(plan.tour) == [1, 2]
        assert plan.sorties == ()

    @pytest.mark.parametrize("seed", [1.5, "2", np.int64(2), -1])
    def test_rejects_seeds_that_are_not_nonnegative_integers(self, seed):
        inst, _ = builtin_fixture("small")
        with pytest.raises(ModelError, match="seed"):
            construct(inst, seed)

    def test_unpackable_instance_raises(self):
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(10.0, 0.0)),),
            customers=(
                Customer(0, Point(13.0, 0.0), 0.5, 5.0),
                Customer(1, Point(10.0, 4.0), 0.5, 5.0),
            ),
            fleet_size=1,
            robot_range=9.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        with pytest.raises(InfeasibleInstanceError):
            construct(inst)

    def test_corpus_always_feasible(self, tiny_corpus):
        for inst, _ in tiny_corpus[::10]:
            assert validate(inst, construct(inst)) == []

    def test_placement_cap_ends_a_search_with_no_end_in_sight(self):
        # the bin states of this instance's search are too many to walk
        # (without the cap it ran on past 30 s)
        inst = generate(6, 5, 2, 30)
        started = time.perf_counter()
        with pytest.raises(BudgetExhaustedError, match="10030 placements"):
            construct(inst)
        assert time.perf_counter() - started < 2.0


def backtracking_instance():
    """One station within reach of every customer (and one 100 away),
    two robots whose ranges the customers fill exactly: the greedy
    choices that are cheapest first leave a later customer without a
    chain, so construction backtracks, and the memo of failed states
    cuts part of that search."""
    legs = (2.5, 1.0, 2.0, 2.5, 2.0, 2.5, 2.5)
    deadlines = (4.0, 2.0, 2.0, 2.0, 8.0, 4.0, 8.0)
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(0.0, 0.0)), Station(2, Point(100.0, 0.0))),
        customers=tuple(
            Customer(o, Point(0.0, leg), 1.0, due)
            for o, (leg, due) in enumerate(zip(legs, deadlines))
        ),
        fleet_size=2,
        robot_range=15.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


def ruin_instance():
    """One station, three robots of range 10; customers 0 and 1 are 4.5
    away (one to a sortie), 2 and 3 are 1 away (they can share one)."""
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(0.0, 0.0)),),
        customers=(
            Customer(0, Point(4.5, 0.0), 1.0, 5.0),
            Customer(1, Point(0.0, 4.5), 1.0, 5.0),
            Customer(2, Point(1.0, 0.0), 1.0, 5.0),
            Customer(3, Point(0.0, 1.0), 1.0, 1.0),
        ),
        fleet_size=3,
        robot_range=10.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


def construct_case(name):
    """(instance, construct seeds) of a named case: a fixture at seeds
    0-12; "<stations>-<robots>-<customers>-s<seed>" for a generated
    instance, or "on-stations-s<seed>", at seed 0, every start-station
    seed and three noisy seeds; "backtracking" at its pure seeds and
    two noisy ones, 3 and 7, at which it backtracks too."""
    if name in ("small", "medium"):
        return builtin_fixture(name)[0], range(13)
    if name == "backtracking":
        return backtracking_instance(), [0, 1, 2, 3, 7]
    head, seed = name.rsplit("-s", 1)
    if head == "on-stations":
        inst = on_stations(int(seed))
    else:
        inst = generate(int(seed), *(int(n) for n in head.split("-")))
    return inst, [*range(inst.n_stations + 1), 7, 999, 123456]


# on-stations seeds 65, 363 and 391 build a plan through a slot where
# rounding shortened the chain that gained the customer, and the
# departure had to be recomputed from every chain
CONSTRUCT_CASES = (
    ["small", "medium", "backtracking"]
    + [f"{shape}-s{seed}" for shape in ("3-2-9", "4-3-20", "6-4-40") for seed in range(2)]
    + [f"on-stations-s{seed}" for seed in (65, 363, 391)]
)


class TestReferenceConstruct:
    """`construct` probes slots with the B&B's incremental kernel; the
    plans must be the ones `reference_construct` builds by recomputing
    the whole schedule for every slot."""

    @pytest.mark.parametrize("name", CONSTRUCT_CASES)
    def test_same_plan_as_reference(self, name):
        inst, seeds = construct_case(name)
        for seed in seeds:
            got = serialize_plan(construct(inst, seed))
            assert got == serialize_plan(reference_construct(inst, seed)), seed

    def test_no_whole_schedule_recomputation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("construct recomputed a whole schedule")

        monkeypatch.setattr(PlanEvaluator, "completions", refuse)
        for inst in (builtin_fixture("medium")[0], generate(0, 6, 4, 40), backtracking_instance()):
            for seed in (0, 1, 999):
                assert validate(inst, construct(inst, seed)) == []

    def test_failed_bins_are_not_searched_again(self):
        # 1 station, 2 robots, range 15; 7 customers 1 away and 4 at 2:
        # every sortie length is even, so each sortie is at most 14 and
        # the total need 30 is never met, yet it fits the two sorties'
        # 30 and 7 customers fit one sortie, so check_capacity passes.
        # Retrying every order of the same bins takes tens of seconds;
        # the memo of failed bin states, which the noisy seeds read too
        # since their picks depend on the depth alone, settles it in a
        # few hundredths of a second
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(0.0, 0.0)),),
            customers=tuple(
                Customer(o, Point(1.0 if o < 7 else 2.0, 0.0), 1.0, 1.0) for o in range(11)
            ),
            fleet_size=2,
            robot_range=15.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        check_capacity(PlanEvaluator(inst))
        for seed in (0, 7, 999):
            started = time.perf_counter()
            with pytest.raises(InfeasibleInstanceError, match="cannot be packed"):
                construct(inst, seed)
            assert time.perf_counter() - started < 1.0, seed


def assert_cheapest(kernel, st, o, ranked):
    """`cheapest` gives the head of `ranked`, `branch`'s candidates
    sorted, for one, three and every slot: each entry is `probe`'s
    candidate, or the slot unprobed where the estimates alone rank it."""
    for want in (1, 3, None):
        got = kernel.cheapest(st, o, want)
        head = ranked if want is None else ranked[:want]
        assert [f[1:4] for f in got] == [f[1:4] for f in head], want
        assert all(f[0] is None or f == h for f, h in zip(got, head)), want


class WalkWatch:
    """Replaces `_insert_all` with one that checks, at every level the
    search enters, each slot it enters against `branch`, the reference
    enumerator: the first is the head of the sorted candidates, or the
    one its pick names, and after a failed subtree the others follow in
    sorted order, each with the `change` a fresh `probe` gives.  At each
    level's first entry the estimates of the kernel's `slots` with no
    limit must cover `branch`'s slots, each within the margin of its
    probed bound, and `cheapest` must give the head of the sorted
    candidates (`assert_cheapest`)."""

    def __init__(self, monkeypatch):
        self.levels = []  # per level: [schedule, customer, expected slots, slots entered]
        self.worst = 0.0  # largest |bound - estimate| / (FLOOR_MARGIN * (1 + bound))
        insert_all = exact._insert_all

        def watched(kernel, sched, order, failed, picks, stop):
            at = {}  # id of a parent schedule -> its level, the schedule kept alive
            child = kernel.child

            def entered(st, ki, r, pos, change):
                g = kernel.groups[kernel.tour[ki]][r]
                o = g.pop(pos)
                try:
                    level = at.get(id(st))
                    if level is None:
                        level = at[id(st)] = self.level(kernel, st, o, order, picks)
                    assert level[1] == o
                    assert (ki, r, pos) == level[2][level[3]][1:], level[3]
                    assert change == kernel.probe(st, ki, r, pos, o, math.inf)[4]
                    level[3] += 1
                finally:
                    g.insert(pos, o)
                return child(st, ki, r, pos, change)

            kernel.child = entered
            return insert_all(kernel, sched, order, failed, picks, stop)

        monkeypatch.setattr(exact, "_insert_all", watched)
        monkeypatch.setattr(heuristic, "_insert_all", watched)

    def level(self, kernel, st, o, order, picks):
        found = kernel.branch(st, o)
        bounds = {f[1:4]: f[0] for f in found}
        estimates = {s[1:4]: s[4] for s in kernel.slots(st, o, math.inf, math.inf)[0]}
        assert estimates.keys() == bounds.keys()
        for slot, bound in bounds.items():
            self.worst = max(self.worst, abs(bound - estimates[slot]) / (FLOOR_MARGIN * (1.0 + bound)))
        assert_cheapest(kernel, st, o, sorted(found))
        expected = sorted(f[:4] for f in found)
        if picks is not None and len(expected) > 1:
            pick = int(picks[order.index(o)] * min(3, len(expected)))
            expected.insert(0, expected.pop(pick))
        self.levels.append([st, o, expected, 0])
        return self.levels[-1]

    def backtracked(self):
        """The levels where a subtree failed and another slot was entered."""
        return sum(level[3] > 1 for level in self.levels)


class TestCheapestWalk:
    """`_insert_all` probes only the slots whose estimate can be among
    the cheapest (`_IncrementalBound.cheapest`), and must enter exactly
    the slots, in exactly the order, that sorting `branch` gives."""

    @pytest.mark.parametrize("name", [*CONSTRUCT_CASES, "on-stations-s254"])
    def test_construct_enters_branch_order(self, name, monkeypatch):
        watch = WalkWatch(monkeypatch)
        inst, seeds = construct_case(name)
        for seed in seeds:
            before = watch.backtracked()
            construct(inst, seed)
            if name == "backtracking" and seed in (3, 7):  # a pick, then a failed subtree
                assert watch.backtracked() > before, seed
        assert watch.levels and watch.worst <= 1.0

    def test_recreates_enter_branch_order(self, monkeypatch):
        watch = WalkWatch(monkeypatch)
        inst = generate(0, 6, 4, 40)
        start = construct(inst)
        watch.levels.clear()
        report = improve(inst, start, SearchParams(max_iterations=40_000, max_seconds=1e6))
        assert report.stats["iterations"] >= 5
        assert len(watch.levels) >= 5 * 2 and watch.worst <= 1.0

    @pytest.mark.parametrize("name", SEARCH_CASES)
    def test_dives_enter_branch_order(self, name, monkeypatch):
        watch = WalkWatch(monkeypatch)
        solve_bnb(search_case(name))
        assert watch.levels and watch.worst <= 1.0

    @pytest.mark.parametrize("case", ["ruined", "medium-station-2"])
    def test_idle_first_layouts(self, case):
        # an idle robot before a busy one, as a ruin can leave a
        # station: `slots` with no limit keeps `branch`'s slots, the
        # busy robot behind the idle ones among them, and spends no
        # probe, and `cheapest` ranks them as sorting `branch` does
        if case == "ruined":
            inst, tour, groups, o, k, busy = ruin_instance(), [1], {1: [[], [], [2]]}, 3, 1, 2
        else:  # station 2 holds [[10], [3], [], [11]]; take 3 out
            inst, plan = builtin_fixture("medium")
            work = _Work.from_plan(inst, plan)
            tour, groups, o, k, busy = work.tour, work.groups, 3, 2, 3
            groups[k][1].remove(o)
        ev = PlanEvaluator(inst)
        kernel = _IncrementalBound(ev, _StepTables(ev), tour, groups)
        st = kernel.schedule([0.0] * ev.n)
        every = kernel.branch(st, o)
        kept = kernel.slots(st, o, math.inf, math.inf)[0]
        assert kernel.probes == 0
        assert all(found[0] is None for found in kept)
        assert sorted(found[1:4] for found in kept) == sorted(found[1:4] for found in every)
        assert (tour.index(k), busy) in {found[1:3] for found in kept}
        assert_cheapest(kernel, st, o, sorted(every))

    def test_probes_fewer_than_half_the_slots(self, monkeypatch):
        # one probe per slot would be `branch`'s cost; the estimates
        # leave most slots unprobed, and where they rank a pick's three
        # slots alone only the slot entered is probed
        counts = collections.Counter()
        probe, cheapest = _IncrementalBound.probe, _IncrementalBound.cheapest

        def probed(self, *args):
            counts["probes"] += 1
            return probe(self, *args)

        def counted(self, st, o, want=None):
            counts["slots"] += len(self.slots(st, o, math.inf, math.inf)[0])  # probes none
            counts["levels"] += want is not None
            return cheapest(self, st, o, want)

        monkeypatch.setattr(_IncrementalBound, "probe", probed)
        monkeypatch.setattr(_IncrementalBound, "cheapest", counted)
        construct(generate(0, 6, 4, 40), 123456)
        assert 0 < counts["probes"] < counts["slots"] / 2, counts
        assert counts["probes"] < 2 * counts["levels"], counts

    def test_window_estimates_fewer_than_half_the_slots(self, monkeypatch):
        # `cheapest`'s walk floors stations and chains against the
        # running window: it reaches the slot floor, where each slot's
        # estimate is tested, for fewer than half of the slots
        lines, start = inspect.getsourcelines(_IncrementalBound.slots)
        (tested,) = [start + i for i, line in enumerate(lines) if "if low > bar:" in line]
        walk = _IncrementalBound.slots.__code__
        counts = collections.Counter()
        cheapest = _IncrementalBound.cheapest

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == tested:
                counts["estimated"] += 1
            return line

        def counted(self, st, o, want=None):
            counts["slots"] += len(self.slots(st, o, math.inf, math.inf)[0])
            tracer = sys.gettrace()
            sys.settrace(lambda frame, event, arg: line if frame.f_code is walk else None)
            try:
                return cheapest(self, st, o, want)
            finally:
                sys.settrace(tracer)

        monkeypatch.setattr(_IncrementalBound, "cheapest", counted)
        construct(generate(0, 6, 4, 40), 123456)
        assert 0 < counts["estimated"] < counts["slots"] / 2, counts


def _medium_improve(**caps):
    inst = builtin_fixture("medium")[0]
    return improve(inst, construct(inst), SearchParams(max_seconds=1e6, **caps))


# one call of each solver; improve through some loop iterations, and
# with a cap that stops it inside the first descent's relocate scan;
# construct on an instance where it backtracks
SOLVER_CALLS = {
    "solve_bnb": lambda: solve_bnb(generate(1, 3, 2, 10)),
    "solve_oracle": lambda: solve_oracle(generate(0, 2, 2, 4)),
    "construct": lambda: construct(generate(0, 6, 4, 40), 999),
    "construct-backtracking": lambda: construct(backtracking_instance()),
    "improve": lambda: _medium_improve(max_iterations=3_000),
    "improve-capped": lambda: _medium_improve(max_iterations=150),
}


@pytest.mark.parametrize("name", SOLVER_CALLS)
def test_solvers_leave_no_cyclic_garbage(name):
    # the recursive searches were closures that referenced themselves,
    # so every call left its whole search state (step tables included)
    # to the cycle collector
    gc.collect()
    gc.disable()
    try:
        SOLVER_CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_step_tables_built_once_per_instance(monkeypatch):
    # `construct`, `improve` and `solve_bnb` share the instance's step
    # tables, which go with the instance
    inits = collections.Counter()
    init = _StepTables.__init__

    def counted(self, ev):
        inits[id(ev.instance)] += 1
        init(self, ev)

    monkeypatch.setattr(_StepTables, "__init__", counted)
    inst = generate(0, 3, 2, 8)
    before = (hash(inst), repr(inst), pickle.dumps(inst))
    plans = [construct(inst, seed) for seed in (0, 1, 2, 7, 999)]
    improve(inst, plans[0], SearchParams(max_iterations=2_000, max_seconds=1e6))
    solve_bnb(inst)
    assert inits == {id(inst): 1}
    # the tables live outside the instance: equality, hash, repr and
    # pickle are what they were, and a round trip gives an equal one
    assert (hash(inst), repr(inst), pickle.dumps(inst)) == before
    assert inst == generate(0, 3, 2, 8) == pickle.loads(before[2])
    key = id(inst)
    assert key in exact._TABLES
    del inst, before
    assert key not in exact._TABLES


# sha256 of the plan texts, one a line, of `construct` on every
# (shape, instance seed, construct seed) below, in that order
CONSTRUCT_SHAPES = ((4, 3, 14), (5, 3, 25), (6, 4, 40))
CONSTRUCT_SEEDS = (0, 1, 2, 7, 999, 123456)
CONSTRUCT_PLANS_SHA256 = "3fe247574ff9c6ecaba8a1f6bba62b9a44bf26ecb97b498a6db54e733a0fc47e"


def test_construct_plans_pinned():
    # a change that keeps the greedy keeps every plan it builds
    texts = [serialize_plan(construct(generate(s, *shape), seed))
             for shape in CONSTRUCT_SHAPES for s in range(10) for seed in CONSTRUCT_SEEDS]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == CONSTRUCT_PLANS_SHA256


def first_descent(inst, start, params):
    """(objective, plan text, evaluations) of the descent `improve`
    runs first, made by calling `heuristic._descend` directly."""
    ev = PlanEvaluator(inst)
    state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, start))
    stats = {"evals": 0, "descents": 0}
    for prefix in ("evals_", "moves_", "skips_", "scored_"):
        stats.update((prefix + name, 0) for name in NEIGHBORHOODS)
    try:
        _descend(state, params, lambda: False, stats, range(ev.n))
    except _Stop:
        pass
    text = serialize_plan(_canonical_plan(state.work.tour, state.work.groups))
    return state.objective, text, stats["evals"]


class TestImprove:
    def test_reaches_small_fixture_optimum(self):
        inst, _ = builtin_fixture("small")
        report = improve(inst, construct(inst))
        assert report.objective == SMALL_OPTIMUM
        assert report.status == "heuristic"
        assert report.bound_gap is None
        assert validate(inst, report.plan) == []

    def test_never_worse_than_input(self):
        inst, plan = builtin_fixture("small")
        start = propagate(inst, plan).objective
        report = improve(inst, plan)
        assert report.objective <= start

    def test_keeps_optimal_input(self):
        inst, _ = builtin_fixture("small")
        optimal = solve_bnb(inst).plan
        report = improve(inst, optimal)
        assert report.objective == SMALL_OPTIMUM

    def test_deterministic(self):
        inst, _ = builtin_fixture("small")
        a = improve(inst, construct(inst))
        b = improve(inst, construct(inst))
        assert a.objective == b.objective
        assert serialize_plan(a.plan) == serialize_plan(b.plan)

    def test_seed_changes_are_contained(self):
        # different seeds may walk elsewhere but stay feasible
        inst, _ = builtin_fixture("small")
        for seed in (0, 7):
            report = improve(inst, construct(inst), SearchParams(seed=seed))
            assert validate(inst, report.plan) == []

    def test_rejects_broken_input_plan(self):
        inst, plan = builtin_fixture("small")
        broken = RoutePlan(tour=(1,), sorties=plan.sorties)
        with pytest.raises(ModelError):
            improve(inst, broken)

    def test_schedule_matches_plan(self):
        inst, _ = builtin_fixture("small")
        report = improve(inst, construct(inst))
        full = propagate(inst, report.plan)
        assert report.schedule.complete == full.complete
        assert report.objective == full.objective

    def test_time_budget_respected(self):
        inst, _ = builtin_fixture("medium")
        started = time.perf_counter()
        improve(inst, construct(inst), SearchParams(max_seconds=0.5))
        assert time.perf_counter() - started < 5.0

    def test_time_cap_inside_a_descent(self, clock):
        # each reading moves the clock 1 s, past the 0.5 s cap; it is
        # read every 64 evaluations, so the run stops where a 64
        # evaluation cap does
        inst, _ = builtin_fixture("medium")
        clock.step = 1.0
        timed = improve(inst, construct(inst), SearchParams(max_seconds=0.5))
        capped = improve(inst, construct(inst), SearchParams(max_iterations=64))
        assert timed.nodes == capped.nodes == 64
        assert timed.stats["descents"] == 1
        assert serialize_plan(timed.plan) == serialize_plan(capped.plan)
        assert validate(inst, timed.plan) == []

    def test_time_cap_between_iterations(self, clock, monkeypatch):
        # the clock passes the cap as the third descent ends: the loop
        # stops before its third recreate, which reads the clock first,
        # and the run is the one an evaluation cap at the same count
        # ends, whose last evaluation judged no move
        inst, _ = builtin_fixture("medium")
        descend, descents = heuristic._descend, []

        def then_late(*args):
            descend(*args)
            descents.append(None)
            if len(descents) == 3:
                clock.now += 10.0

        monkeypatch.setattr(heuristic, "_descend", then_late)
        timed = improve(inst, construct(inst), SearchParams(max_seconds=1.0))
        monkeypatch.setattr(heuristic, "_descend", descend)
        capped = improve(inst, construct(inst), SearchParams(max_iterations=timed.nodes))
        assert timed.stats["descents"] == 3
        assert timed.stats["iterations"] == 3  # the third recreate stopped
        assert capped.stats["iterations"] == 2
        assert timed.objective == capped.objective
        assert serialize_plan(timed.plan) == serialize_plan(capped.plan)

    def test_time_cap_inside_a_recreate(self, clock, monkeypatch):
        # in the first recreate that puts back three customers or more,
        # the clock passes the cap after two placements, so the read
        # before the third is past it: the recreate stops with its plan
        # part-filled, and the run returns the best whole plan met
        # before, no worse than the first descent's
        inst, _ = builtin_fixture("medium")
        start = construct(inst)
        recreate, sizes, reads = heuristic._insert_all, [], []

        def recorded(kernel, sched, order, failed, picks, stop):
            sizes.append(len(order))
            if len(order) < 3:
                return recreate(kernel, sched, order, failed, picks, stop)

            def read():
                reads.append(stop())
                if len(reads) == 2:
                    clock.now += 10.0
                return reads[-1]

            return recreate(kernel, sched, order, failed, picks, read)

        monkeypatch.setattr(heuristic, "_insert_all", recorded)
        timed = improve(inst, start, SearchParams(max_seconds=1.0))
        assert reads == [False, False, True]
        assert timed.stats["iterations"] == timed.stats["descents"] == len(sizes)
        assert validate(inst, timed.plan) == []
        assert timed.objective == propagate(inst, timed.plan).objective
        assert timed.objective <= first_descent(inst, start, SearchParams(max_seconds=1e6))[0]
        monkeypatch.setattr(heuristic, "_insert_all", recreate)
        capped = improve(inst, start, SearchParams(max_iterations=timed.nodes))
        assert serialize_plan(timed.plan) == serialize_plan(capped.plan)

    def test_corpus_feasible_and_not_worse_than_construct(self, tiny_corpus):
        for inst, _ in tiny_corpus[::25]:
            seeded = construct(inst)
            report = improve(inst, seeded)
            assert validate(inst, report.plan) == []
            assert report.objective <= propagate(inst, seeded).objective


class TestIncrementalEvaluator:
    def test_probe_matches_full_propagate(self):
        # walk a few descents and recreates and re-check the incremental
        # objective against a full propagation of the emitted plan
        inst, _ = builtin_fixture("small")
        for seed in range(6):
            params = SearchParams(seed=seed, max_iterations=3_000)
            report = improve(inst, construct(inst, seed), params)
            assert report.objective == propagate(inst, report.plan).objective

    def test_probe_equals_propagate_for_every_move(self):
        # every candidate of every neighborhood, scored without a limit,
        # equals propagate of the candidate plan; with the objective as
        # the limit, a candidate is dropped only when it is no better
        moves = dict.fromkeys(NEIGHBORHOODS, 0)
        dropped = dict.fromkeys(NEIGHBORHOODS, 0)
        # on_stations(254) has relocate slots where rounding shortens
        # the chain that gains the customer
        cases = [builtin_fixture("small"), builtin_fixture("medium")]
        cases.append((on_stations(254), construct(on_stations(254))))
        for inst, plan in cases:
            ev = PlanEvaluator(inst)
            state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, plan))
            assert state.objective == propagate(inst, plan).objective
            before = serialize_plan(_canonical_plan(state.work.tour, state.work.groups))
            for name in NEIGHBORHOODS:
                scored = list(_MOVES[name](state, math.inf, _Look(range(ev.n))))
                limited = list(_MOVES[name](state, state.objective, _Look(range(ev.n))))
                assert [move for _, move in limited] == [move for _, move in scored]
                for (score, move), (bounded, _) in zip(scored, limited):
                    candidate = _Work(state.work.tour, state.work.groups)
                    _apply(candidate, name, move)
                    built = _canonical_plan(candidate.tour, candidate.groups)
                    exact = propagate(inst, built).objective
                    assert score == exact
                    if bounded is None:
                        assert exact >= state.objective
                        dropped[name] += 1
                    else:
                        assert bounded == exact
                    moves[name] += 1
                assert serialize_plan(_canonical_plan(state.work.tour, state.work.groups)) == before
        assert all(moves.values()), moves
        assert all(dropped.values()), dropped

    def test_without_equals_the_whole_schedule(self):
        # the schedule with one customer taken out, built from the
        # plan's, is the one built from scratch, field by field; the
        # on-stations instances have chains that rounding shortens
        for inst in rebuilt_cases():
            ev = PlanEvaluator(inst)
            state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, construct(inst)))
            state.kernel.lateness(state.sched)  # carried into each schedule built from it
            for o, k, r, pos in heuristic._located(state.work):
                chain = state.work.groups[k][r]
                chain.pop(pos)
                built = state.kernel.rebuilt(state.sched, (state.at[k],), o)
                whole = state.kernel.schedule(state.unserved)
                chain.insert(pos, o)
                assert_same_schedule(state.kernel, built, whole, o)

    @pytest.mark.parametrize("name", [name for name in NEIGHBORHOODS if name != "two_opt"])
    def test_rebuilt_after_every_kept_move(self, name):
        # every candidate move of the neighborhood, applied as a kept
        # move is: the schedule `refresh` builds from the plan's, at the
        # stations the move changed, is the one built from scratch,
        # lateness table included
        inverse = {
            "relocate": lambda k, r, pos, k2, r2, pos2: (k2, r2, pos2, k, r, pos),
            "reorder": lambda k, r, pos, pos2: (k, r, pos2, pos),
        }
        moves = 0
        for inst in rebuilt_cases():
            ev = PlanEvaluator(inst)
            state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, construct(inst)))
            kernel, plan = state.kernel, state.sched
            kernel.lateness(plan)
            for _, move in list(_MOVES[name](state, math.inf, _Look(range(ev.n)))):
                _apply(state.work, name, move)
                state.refresh({k for k, _ in _chains(name, move)})
                assert state.kernel is kernel
                assert_same_schedule(kernel, state.sched, kernel.schedule(state.unserved), move)
                _apply(state.work, name, inverse.get(name, lambda *m: m)(*move))
                state.sched = plan
                moves += 1
        assert moves > 0

    def test_swap_range_check_at_the_boundary(self):
        # ten customers on a line from station 1, their legs 2e-12
        # apart around a quarter of the cap, so two-customer chains end
        # within 1e-11 of the cap: exchanges land below `clear_below`,
        # between it and the cap, and between the cap and `clear_above`.
        # The exchanges swap yields are those `fits` admits on both
        # chains
        cap = 10.0 + EPSILON
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(0.0, 0.0)), Station(2, Point(0.0, 3.0))),
            customers=tuple(
                Customer(o, Point(cap / 4 + (o - 5) * 2e-12, 0.0), 1.0, 1.0 + o)
                for o in range(10)
            ),
            fleet_size=5,
            robot_range=10.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        ev = PlanEvaluator(inst)
        tables = _StepTables(ev)
        state = _Evaluator(ev, tables, _Work.from_plan(inst, construct(inst)))
        groups = state.work.groups
        yielded = {move for _, move in _swap(state, math.inf, _Look(range(ev.n)))}
        spots = heuristic._located(state.work)
        admitted, lengths = set(), collections.Counter()
        for i, (o, k, r, pos) in enumerate(spots):
            for p, k2, r2, pos2 in spots[i + 1 :]:
                if (k, r) == (k2, r2):
                    continue
                a, b = groups[k][r][:], groups[k2][r2][:]
                a[pos], b[pos2] = p, o
                for station, chain in ((k, a), (k2, b)):
                    length = math.fsum(tables.doubled[station][x] for x in chain)
                    lengths[(length > tables.clear_below, length > tables.cap,
                             length > tables.clear_above)] += 1
                if tables.fits(k, a) and tables.fits(k2, b):
                    admitted.add((k, r, pos, k2, r2, pos2))
        assert yielded == admitted
        assert lengths[(True, False, False)] and lengths[(True, True, False)]
        assert lengths[(False, False, False)] and len(admitted) < len(spots) * (len(spots) - 1) / 2

    def test_medium_fixture_improves(self):
        inst, plan = builtin_fixture("medium")
        base = propagate(inst, plan).objective
        report = improve(inst, construct(inst), SearchParams(max_iterations=20_000))
        assert report.objective <= base
        assert validate(inst, report.plan) == []


def rebuilt_cases():
    """Instances for the incremental schedule builder: the on-stations
    ones have chains that rounding shortens."""
    return [builtin_fixture("medium")[0], generate(0, 6, 4, 40)] + [
        on_stations(seed) for seed in (44, 90, 254)
    ]


def assert_same_schedule(kernel, built, whole, label):
    """`built`, a schedule built from another, equals `whole`, one
    built from scratch, field by field, lateness table included."""
    for name in ("arrive", "depart", "chains", "returns", "low", "terms", "prefix", "used"):
        assert getattr(built, name) == getattr(whole, name), (label, name)
    assert kernel.lateness(built) == kernel.lateness(whole), label


def descent_states(inst, start, at):
    """The evaluator of the plan a first descent from `start` has after
    each count of kept moves in `at` (0 is `start` itself), every bit
    set in each scan."""
    ev = PlanEvaluator(inst)
    state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, start))
    stats = collections.defaultdict(int)
    params = SearchParams(max_seconds=1e6)
    for kept in range(max(at) + 1):
        if kept in at:
            yield state
        for name in NEIGHBORHOODS:
            move = _first_improvement(state, name, params, lambda: False, stats, _Look(range(ev.n)))
            if move is not None:
                break
        else:
            return
        _apply(state.work, name, move)
        state.refresh()


def floored_candidates(inst, state, counts):
    """Check every relocate and swap candidate of `state` under its
    objective against `propagate` of the candidate plan, counting into
    `counts`: a None score (ruled out by a floor, or by a partial sum)
    has an exact score above the limit, so no improving candidate is
    ruled out, and every other score is exact.  Each swap's floor
    (`exchange_floor`) is at most its exact score, up to the margin."""
    limit = state.objective
    margin = FLOOR_MARGIN * (1.0 + limit)
    groups = state.work.groups
    floor = state.kernel.exchange_floor(state.sched)
    for name in heuristic.FLOORED:
        look = _Look(range(state.ev.n))
        yielded = list(_MOVES[name](state, limit, look))  # the plan is whole again
        for score, move in yielded:
            candidate = _Work(state.work.tour, groups)
            _apply(candidate, name, move)
            exact = propagate(inst, _canonical_plan(candidate.tour, candidate.groups)).objective
            if score is None:
                assert exact > limit, (name, move)
                counts["none_" + name] += 1
            else:
                assert score == exact, (name, move)
            counts["improving_" + name] += exact < limit
            if name == "swap":
                k, r, pos, k2, r2, pos2 = move
                assert floor(groups[k][r][pos], groups[k2][r2][pos2]) <= exact + margin, move
                counts["same_station"] += k == k2
        counts[name] += len(yielded)
        counts["scored_" + name] += look.scored


class TestFloors:
    """Relocate and swap rule nearly every candidate out from a floor in
    real arithmetic plus a margin for rounding, without a score: a
    candidate a floor rules out must be one whose exact score is above
    the limit, so that the scan yields what scoring it would."""

    @pytest.mark.parametrize("make,at", [
        pytest.param(lambda: generate(1, 6, 4, 40), (0, 12, 40), id="large-s1"),
        pytest.param(lambda: builtin_fixture("medium"), range(12), id="medium"),
        pytest.param(lambda: generate(2, 3, 1, 8), range(8), id="one-robot-s2"),
        pytest.param(lambda: generate(0, 3, 2, 10), range(8), id="3-2-10-s0"),
    ])
    def test_floored_candidates_score_above_the_limit(self, make, at):
        # the medium fixture's own plan has idle robots before busy ones
        # (station 1 serves only with robot 3); the others start from
        # construct's plan.  A one-robot fleet has no second return at a
        # station, and two robots none once both exchanged chains are
        # set aside
        made = make()
        inst, start = made if isinstance(made, tuple) else (made, construct(made))
        counts = collections.Counter()
        states = 0
        for state in descent_states(inst, start, set(at)):
            floored_candidates(inst, state, counts)
            states += 1
        assert states > 2
        for move in heuristic.FLOORED:
            # a floor ruled candidates out, and the improving ones were scored
            assert counts["improving_" + move] <= counts["scored_" + move] < counts[move]
        assert counts["same_station"] > 0 or inst.fleet_size == 1

    def test_slots_walk_every_busy_robot_and_the_first_idle_one(self):
        # in robot order, as relocate does, where an idle robot comes
        # before a busy one: with no limit, the slots `slots` keeps are
        # the slots relocate yields, besides the customer's own chain
        inst, plan = builtin_fixture("medium")
        ev = PlanEvaluator(inst)
        state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, plan))
        assert state.work.groups[2] == [[10], [3], [], [11]]
        kernel, at = state.kernel, state.at
        walked = set()
        for o, k, r, pos in heuristic._located(state.work):
            chain = state.work.groups[k][r]
            chain.pop(pos)
            try:
                sched = kernel.rebuilt(state.sched, (at[k],), o)
                kept = {found[1:4] for found in kernel.slots(sched, o, math.inf, math.inf)[0]
                        if found[1:3] != (at[k], r)}
            finally:
                chain.insert(pos, o)
            moves = {(at[m[3]], m[4], m[5]) for _, m in _relocate(state, math.inf, _Look([o]))}
            assert kept == moves, o
            walked |= {(ki, r2) for ki, r2, _ in kept}
        assert {(at[2], 2), (at[2], 3), (at[1], 0)} <= walked and (at[1], 1) not in walked


def on_stations(seed):
    """A (3,2,9) instance with about half its customers moved onto a
    station, where zero-length legs let rounding shorten a chain that
    gained a customer."""
    rnd = random.Random(seed)
    inst = generate(seed, 3, 2, 9, robot_speed=rnd.choice([0.3, 1.1, 3.0, 7.0]))
    customers = tuple(
        Customer(c.id, rnd.choice(inst.stations).location, c.importance, c.deadline)
        if rnd.random() < 0.5
        else c
        for c in inst.customers
    )
    return Instance(
        inst.depot, inst.stations, customers, inst.fleet_size,
        inst.robot_range, inst.vehicle_speed, inst.robot_speed,
    )


def descent_case(name):
    """(instance, start plan, params) of a named reference case: a
    fixture or (3,2,9) instance with seed s, "on-stations-s<s>", or
    "large-s<s>-r<r>" for (6,4,40) seed s from the plan `construct`
    builds with seed r, at 52,000 evaluations.  No case may reach its
    time cap."""
    head, seed = name.rsplit("-s", 1)
    if head == "large":
        seed, start = (int(x) for x in seed.split("-r"))
        inst = generate(seed, 6, 4, 40)
        return inst, construct(inst, start), SearchParams(max_iterations=52_000, max_seconds=1e6)
    seed = int(seed)
    if head in ("small", "medium"):
        inst = builtin_fixture(head)[0]
    elif head == "on-stations":
        inst = on_stations(seed)
    else:
        inst = generate(seed, 3, 2, 9)
    return inst, construct(inst, seed), SearchParams(seed=seed, max_seconds=1e6)


# on-stations seeds 44 and 90 are ones whose search meets a chain that
# rounding shortened when it gained a customer
DESCENT_CASES = (
    [f"{head}-s{seed}" for head in ("small", "medium", "3-2-9", "on-stations") for seed in range(4)]
    + ["on-stations-s44", "on-stations-s90"]
    + [f"large-s{seed}-r{start}" for seed in range(4) for start in (1, 4)]
)

# improve on (6,4,40) seeds 0-3 from construct at 52,000 evaluations;
# the first descents end after 13,322, 22,151, 8,439 and 15,881
# evaluations
LARGE_OBJECTIVES = (423.0947064514268, 290.1382497222017, 261.44919167605167, 202.99959520236854)

# sha256 of repr(sorted(report.stats.items())) of the same four runs:
# every counter, the scored_* and skips_* ones too
LARGE_STATS_SHA256 = (
    "037ba3d1a9943262258546201d6e35a17e8de42015cf72f1c461f231ccde0907",
    "0b97fab3fd69eb0a1220498e78d7836f3802c071b5853378fa0a20e4bfe1f142",
    "58913d1a47a0a8b53da8e8b8ca0d4b308d2af63fc4aa7a0e699ec14f1cc1a089",
    "17cfa2decad5fb9d1ca1c40be52bbd07d9f660dd6bb1d8d75c20570c038e1061",
)


class TestReferenceDescent:
    """`improve` scores moves with the B&B's incremental kernel; the
    descent it runs first must be the one `reference_descent` makes,
    which deep-copies every candidate and recomputes its schedule in
    dicts: the same objective, plan text and evaluation count."""

    @pytest.mark.parametrize("name", DESCENT_CASES)
    def test_same_search_as_reference(self, name):
        inst, start, params = descent_case(name)
        assert first_descent(inst, start, params) == reference_descent(inst, start, params)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_objectives_pinned(self, seed):
        inst = generate(seed, 6, 4, 40)
        params = SearchParams(max_iterations=52_000, max_seconds=1e6)
        report = improve(inst, construct(inst), params)
        assert report.objective == LARGE_OBJECTIVES[seed]
        assert report.nodes == 52_000

    @pytest.mark.parametrize("seed", range(4))
    def test_large_stats_pinned(self, seed):
        inst = generate(seed, 6, 4, 40)
        params = SearchParams(max_iterations=52_000, max_seconds=1e6)
        stats = sorted(improve(inst, construct(inst), params).stats.items())
        assert hashlib.sha256(repr(stats).encode()).hexdigest() == LARGE_STATS_SHA256[seed], stats

    @pytest.mark.parametrize(
        "which,cap",
        [("medium", 1), ("medium", 64), ("medium", 500), ("medium", 700)]
        + [("large-s1", cap) for cap in (1, 64, 5_000)],
    )
    def test_cap_stops_leave_a_whole_plan(self, which, cap, monkeypatch):
        # medium's caps 64 and 500 land inside a swap scan, the others
        # inside a relocate scan, while the customer is out of the plan.
        # The plan returned still serves everyone.  Medium's first
        # descent ends after 155 evaluations, so the caps 500 and 700
        # land in the descent of a loop iteration, and the plan is no
        # worse than the first descent's; the other caps stop the first
        # descent, which is then the reference's
        if which == "medium":
            inst = builtin_fixture("medium")[0]
        else:
            inst = generate(1, 6, 4, 40)
        start = construct(inst)
        params = SearchParams(max_iterations=cap, max_seconds=1e6)
        scans = []
        for name, scan in list(_MOVES.items()):
            def watched(*args, name=name, scan=scan):
                scans.append(name)
                return scan(*args)

            monkeypatch.setitem(_MOVES, name, watched)
        report = improve(inst, start, params)
        in_swap = which == "medium" and cap in (64, 500)
        assert scans[-1] == ("swap" if in_swap else "relocate")
        assert validate(inst, report.plan) == []
        assert report.nodes == cap
        objective, text, nodes = reference_descent(inst, start, params)
        if nodes < cap:  # the first descent ended before the cap
            assert report.stats["iterations"] > 0
            assert report.objective <= objective
        else:
            assert (report.objective, serialize_plan(report.plan), report.nodes) == (
                objective, text, nodes
            )


def one_late_customer():
    """One customer, at (0,-4), due at 0.5, and two stations: 1 at (2,0),
    2 at (0,-3).  Construct's nearest-neighbor tour visits station 1
    first and serves the customer there (done at 2 + 20**0.5, about
    6.47); moving it to station 2 or reversing the tour is worse, but
    station 2 first, serving it, is done at 4, the earliest possible."""
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(2.0, 0.0)), Station(2, Point(0.0, -3.0))),
        customers=(Customer(0, Point(0.0, -4.0), 1.0, 0.5),),
        fleet_size=1,
        robot_range=20.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


class TestRuinAndRecreate:
    def test_deterministic(self):
        inst, _ = builtin_fixture("medium")
        params = SearchParams(max_iterations=20_000, max_seconds=1e6)
        a = improve(inst, construct(inst), params)
        b = improve(inst, construct(inst), params)
        assert a.stats["iterations"] > 0
        assert a.objective == b.objective
        assert serialize_plan(a.plan) == serialize_plan(b.plan)
        assert a.stats == b.stats

    def test_lower_cap_makes_the_same_first_iterations(self, monkeypatch):
        # the plans the descents start from: the run under the lower cap
        # is a prefix of the run under the higher one.  On this instance
        # the first iterations already draw for worse results
        inst = generate(0, 3, 2, 10)
        descend, starts = heuristic._descend, []

        def recorded(state, *args):
            plan = _canonical_plan(state.work.tour, state.work.groups)
            starts[-1].append((state.objective, serialize_plan(plan)))
            descend(state, *args)

        monkeypatch.setattr(heuristic, "_descend", recorded)
        reports = []
        for cap in (5_000, 20_000):
            starts.append([])
            reports.append(improve(inst, construct(inst), SearchParams(max_iterations=cap)))
        low, high = starts
        assert 1 < len(low) < len(high)
        assert high[: len(low)] == low
        assert reports[1].objective <= reports[0].objective

    def test_stops_at_once_without_customers(self):
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(5.0, 0.0)), Station(2, Point(0.0, 5.0))),
            customers=(),
            fleet_size=1,
            robot_range=10.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        report = improve(inst, construct(inst))
        assert report.objective == 0.0
        assert report.stats["iterations"] == 0
        assert report.stats["descents"] == 1

    def test_stops_at_once_at_the_root_bound(self):
        # a single customer who is never late: the first descent ends
        # at the root bound, 0.0, and no iteration runs
        inst = generate(0, 3, 2, 1)
        report = improve(inst, construct(inst))
        assert report.objective == math.fsum(_relaxed_contributions(inst, PlanEvaluator(inst)))
        assert report.objective == 0.0
        assert report.stats["iterations"] == 0

    def test_one_customer_reaches_the_root_bound_and_stops(self):
        # one customer, served by the root bound's station first: the
        # descent cannot get there, a station move and its recreate can
        inst = one_late_customer()
        bound = math.fsum(_relaxed_contributions(inst, PlanEvaluator(inst)))
        start = construct(inst)
        assert start.tour == (1, 2)
        assert first_descent(inst, start, SearchParams())[0] > bound
        report = improve(inst, start)
        assert report.objective == bound == 4.0 - 0.5
        assert report.plan.tour == (2, 1)
        assert 0 < report.stats["iterations"] < heuristic.STALL
        assert report.stats["bests_station"] == 1

    def test_a_ruin_that_empties_the_first_robots_still_recreates(self):
        # from the chains [0], [1], [2, 3] of `ruin_instance`, a ruin of
        # 0, 1 and 3 leaves the third robot busy.  A station's slots are on
        # every busy robot and the first idle one, so customer 3 (the
        # most urgent) can join 2 with the two idle robots in front or
        # behind, and 0 and 1 each find a sortie either way
        inst = ruin_instance()
        ev = PlanEvaluator(inst)
        tables = _StepTables(ev)
        order = [3, 0, 1]  # urgency order

        def recreate(work):
            kernel = _IncrementalBound(ev, tables, work.tour, work.groups)
            return _insert_all(kernel, kernel.schedule([0.0] * ev.n), order, set(), None,
                               lambda: False)

        ruined = _ruined(_Work([1], {1: [[0], [1], [2, 3]]}), [0, 1, 3], [1])
        assert ruined.groups == {1: [[2], [], []]}
        assert recreate(ruined) is not None
        assert validate(inst, _canonical_plan(ruined.tour, ruined.groups)) == []
        # the same ruin with the emptied chains left in front
        front = _Work([1], {1: [[], [], [2]]})
        assert recreate(front) is not None
        assert sorted(map(sorted, front.groups[1])) == [[0], [1], [2, 3]]
        assert validate(inst, _canonical_plan(front.tour, front.groups)) == []


class TestDontLookBits:
    def test_a_kept_move_flags_only_the_chains_it_touched(self):
        # a relocate scan clears the bits of the customers before the
        # first improving one; once that move is kept, the customers on
        # the two chains it changed are moved in the next scan, and a
        # customer cleared before and on neither chain is not.  On
        # (3,2,10) seed 0 the first improving relocate moves customer 3
        inst = generate(0, 3, 2, 10)
        ev = PlanEvaluator(inst)
        state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, construct(inst)))
        stats = {"evals": 0, "evals_relocate": 0}
        look = _Look(range(ev.n))
        move = _first_improvement(state, "relocate", SearchParams(), lambda: False, stats, look)
        assert move is not None
        cleared = set(range(ev.n)) - look.flagged
        _apply(state.work, "relocate", move)
        state.refresh()
        touched = set(_touched(state.work, "relocate", move))
        k, r, _, k2, r2, _ = move
        assert touched == {*state.work.groups[k][r], *state.work.groups[k2][r2]}
        look.flagged.update(touched)
        untouched = cleared - touched
        assert untouched
        groups = {k: [list(g) for g in lists] for k, lists in state.work.groups.items()}
        moved = {groups[k][r][pos] for _, (k, r, pos, *_) in _relocate(state, math.inf, look)}
        assert touched <= moved
        assert not moved & untouched
        assert look.skips == len(cleared - touched)
        assert not look.flagged  # the whole scan cleared every bit


# (6,4,40) seeds 0-3 from construct, at a fixed evaluation cap.  With
# don't-look bits the mean objective at 100,000 evaluations is 288.98,
# against 402.26 when every descent scans every customer; the threshold
# leaves about 10% for changes that move the search.
LARGE_GATE_EVALUATIONS = 100_000
LARGE_GATE_MEAN = 320.0


def test_gate_large_instances():
    objectives = []
    for seed in range(4):
        inst = generate(seed, 6, 4, 40)
        params = SearchParams(max_iterations=LARGE_GATE_EVALUATIONS, max_seconds=1e6)
        objectives.append(improve(inst, construct(inst), params).objective)
    assert sum(objectives) / len(objectives) <= LARGE_GATE_MEAN, objectives


# The gate on the proven corpus: improve at a fixed evaluation cap, so
# the figures are the same on every machine.  Measured at 60,000
# evaluations: mean gap 0.90%, 7 of 8 optima ((3,2,10) seed 0 ends
# 7.18% above).  The thresholds leave a margin of about 3 points and
# one optimum for changes that move the search without making it worse.
GATE_CASES = tuple(((3, 2, 10), s) for s in range(4)) + tuple(((4, 3, 12), s) for s in range(4))
GATE_EVALUATIONS = 60_000
GATE_MEAN_GAP = 0.04
GATE_OPTIMA = 6


def test_gate_gap_to_proven_optima():
    gaps = []
    for shape, seed in GATE_CASES:
        inst = generate(seed, *shape)
        optimum = solve_bnb(inst).objective
        params = SearchParams(max_iterations=GATE_EVALUATIONS, max_seconds=1e6)
        report = improve(inst, construct(inst), params)
        assert report.objective >= optimum
        gaps.append((report.objective - optimum) / optimum)
    assert sum(gaps) / len(gaps) <= GATE_MEAN_GAP, gaps
    assert sum(gap == 0.0 for gap in gaps) >= GATE_OPTIMA, gaps


class TestSearchStats:
    def test_counters_add_up(self):
        # a run the stall rule ends
        inst, _ = builtin_fixture("medium")
        start = construct(inst)
        report = improve(inst, start, SearchParams(max_seconds=1e6))
        stats = report.stats
        operators = (*heuristic.REMOVALS, "station")
        looked = [name for name in NEIGHBORHOODS if name != "two_opt"]
        assert set(stats) == {"descents", "iterations", "best_eval"} | {
            f"{kind}_{name}" for kind in ("evals", "moves") for name in NEIGHBORHOODS
        } | {f"{kind}_{name}" for kind in ("tries", "accepted", "bests") for name in operators} | {
            f"skips_{name}" for name in looked
        } | {f"scored_{name}" for name in heuristic.FLOORED}
        assert report.nodes < SearchParams().max_iterations
        assert sum(stats[f"evals_{name}"] for name in NEIGHBORHOODS) == report.nodes
        assert sum(stats[f"moves_{name}"] for name in NEIGHBORHOODS) > 0
        assert all(stats[f"skips_{name}"] > 0 for name in looked)
        for name in NEIGHBORHOODS:
            assert stats[f"moves_{name}"] <= stats[f"evals_{name}"]
        # a kept move got an exact score
        for name in heuristic.FLOORED:
            assert stats[f"moves_{name}"] <= stats[f"scored_{name}"] <= stats[f"evals_{name}"]
        assert stats["descents"] == stats["iterations"] + 1
        assert sum(stats[f"tries_{name}"] for name in heuristic.REMOVALS) == stats["iterations"]
        assert 0 < stats["tries_station"] < stats["iterations"]
        for name in operators:
            tries, accepted = stats[f"tries_{name}"], stats[f"accepted_{name}"]
            assert 0 <= stats[f"bests_{name}"] <= accepted <= tries
        assert sum(stats[f"bests_{name}"] for name in heuristic.REMOVALS) > 0
        # the returned objective is first reached at evaluation best_eval:
        # a run capped one evaluation later returns it, one capped there not
        reached = stats["best_eval"]
        assert 0 < reached < report.nodes
        again = improve(inst, start, SearchParams(max_iterations=reached + 1, max_seconds=1e6))
        assert again.objective == report.objective
        short = improve(inst, start, SearchParams(max_iterations=reached, max_seconds=1e6))
        assert short.objective > report.objective

    def test_no_skips_before_a_scan_clears_a_bit(self):
        # the first scan of each neighborhood starts with every bit set:
        # a run stopped by its first evaluation has skipped nothing
        inst, _ = builtin_fixture("medium")
        report = improve(inst, construct(inst), SearchParams(max_iterations=1, max_seconds=1e6))
        assert report.nodes == 1
        assert [report.stats[f"skips_{name}"] for name in NEIGHBORHOODS if name != "two_opt"] == [
            0, 0, 0, 0
        ]
