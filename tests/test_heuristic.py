"""
Construction and local search: feasibility, determinism, quality.
"""

import collections
import gc
import math
import random
import time

import numpy as np
import pytest
from reference_construct import reference_construct
from reference_improve import reference_descent

from mothership import (
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
from mothership import heuristic
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
    _touched,
    _Work,
)

SMALL_OPTIMUM = 36.37122987569251


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.seed == 0
        assert p.max_iterations >= 1 and p.max_seconds > 0

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
        cases = [builtin_fixture("medium")[0], generate(0, 6, 4, 40)]
        cases += [on_stations(seed) for seed in (44, 90, 254)]
        for inst in cases:
            ev = PlanEvaluator(inst)
            state = _Evaluator(ev, _StepTables(ev), _Work.from_plan(inst, construct(inst)))
            fields = ("arrive", "depart", "chains", "returns", "low", "terms", "prefix")
            for o, k, r, pos in heuristic._located(state.work):
                chain = state.work.groups[k][r]
                chain.pop(pos)
                built = state.kernel.without(state.sched, state.at[k], o)
                whole = state.kernel.schedule(state.unserved)
                chain.insert(pos, o)
                for name in fields:
                    assert getattr(built, name) == getattr(whole, name), (o, name)

    def test_medium_fixture_improves(self):
        inst, plan = builtin_fixture("medium")
        base = propagate(inst, plan).objective
        report = improve(inst, construct(inst), SearchParams(max_iterations=20_000))
        assert report.objective <= base
        assert validate(inst, report.plan) == []


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
                sched = kernel.without(state.sched, at[k], o)
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
        # one station, three robots of range 10; customers 0 and 1 are
        # 4.5 away (one to a sortie), 2 and 3 are 1 away (they can
        # share one).  From the chains [0], [1], [2, 3], a ruin of 0, 1
        # and 3 leaves the third robot busy.  `branch` tries a station's
        # first (busy + 1) robots, so with the two idle robots in front,
        # customer 3 (the most urgent) cannot join 2, and then 0 and 1
        # find no sortie: `_ruined` puts the busy chains first
        inst = Instance(
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
        # teeth: the same ruin with the emptied chains left in front
        with pytest.raises(InfeasibleInstanceError):
            recreate(_Work([1], {1: [[], [], [2]]}))


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
