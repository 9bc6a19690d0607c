"""
Construction and local search: feasibility, determinism, quality.
"""

import gc
import math
import random
import time

import pytest
from reference_construct import reference_construct
from reference_improve import reference_improve

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
from mothership.exact import _canonical_plan, _StepTables, check_capacity
from mothership.heuristic import _MOVES, _Evaluator, _Work, _apply

SMALL_OPTIMUM = 36.37122987569251


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.seed == 0
        assert p.restarts >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": math.nan},
            {"max_seconds": 0.0},
            {"max_seconds": math.nan},
            {"restarts": 0},
            {"restarts": math.nan},
            {"restarts": 2.5},
            {"max_iterations": 2.5},
            {"restarts": "4"},
            {"max_iterations": 1e5},
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
    return improve(inst, construct(inst), SearchParams(max_seconds=1e6, restarts=2, **caps))


# one call of each solver; improve also with a cap that stops it inside
# a relocate scan, and construct on an instance where it backtracks
SOLVER_CALLS = {
    "solve_bnb": lambda: solve_bnb(generate(1, 3, 2, 10)),
    "solve_oracle": lambda: solve_oracle(generate(0, 2, 2, 4)),
    "construct": lambda: construct(generate(0, 6, 4, 40), 999),
    "construct-backtracking": lambda: construct(backtracking_instance()),
    "improve": _medium_improve,
    "improve-capped": lambda: _medium_improve(max_iterations=500),
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
        report = improve(inst, plan, SearchParams(restarts=1))
        assert report.objective <= start

    def test_keeps_optimal_input(self):
        inst, _ = builtin_fixture("small")
        optimal = solve_bnb(inst).plan
        report = improve(inst, optimal, SearchParams(restarts=1))
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
        improve(inst, construct(inst), SearchParams(max_seconds=0.5, restarts=2))
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

    def test_time_cap_between_restarts(self, clock, monkeypatch):
        # the clock passes the cap as the first descent ends: no
        # restart runs, and the run is the one without restarts
        inst, _ = builtin_fixture("medium")
        descend = heuristic._descend

        def then_late(*args):
            descend(*args)
            clock.now += 10.0

        monkeypatch.setattr(heuristic, "_descend", then_late)
        timed = improve(inst, construct(inst), SearchParams(max_seconds=1.0))
        single = improve(inst, construct(inst), SearchParams(max_seconds=1.0, restarts=1))
        assert timed.stats["descents"] == 1
        assert timed.nodes == single.nodes
        assert serialize_plan(timed.plan) == serialize_plan(single.plan)

    def test_time_cap_inside_a_restart_construction(self, clock, monkeypatch):
        # once the first descent ends, each reading moves the clock
        # 0.4 s: the first restart's construction reads 0.4, 0.8, then
        # 1.2 s before its third placement and stops there; it offers
        # nothing and no second descent runs
        inst, _ = builtin_fixture("medium")
        start = construct(inst)
        descend, build = heuristic._descend, heuristic._construct
        built, reads = [], []

        def then_slow(*args):
            descend(*args)
            clock.step = 0.4

        def recorded(ev, tables, seed, stop):
            def read():
                reads.append(stop())
                return reads[-1]

            built.append(build(ev, tables, seed, read))
            return built[-1]

        monkeypatch.setattr(heuristic, "_descend", then_slow)
        monkeypatch.setattr(heuristic, "_construct", recorded)
        timed = improve(inst, start, SearchParams(max_seconds=1.0))
        assert built == [None]
        assert reads == [False, False, True]
        clock.now = clock.step = 0.0
        single = improve(inst, start, SearchParams(max_seconds=1.0, restarts=1))
        assert timed.stats["descents"] == 1
        assert timed.nodes == single.nodes
        assert serialize_plan(timed.plan) == serialize_plan(single.plan)

    def test_corpus_feasible_and_not_worse_than_construct(self, tiny_corpus):
        for inst, _ in tiny_corpus[::25]:
            seeded = construct(inst)
            report = improve(inst, seeded)
            assert validate(inst, report.plan) == []
            assert report.objective <= propagate(inst, seeded).objective


class TestIncrementalEvaluator:
    def test_probe_matches_full_propagate(self):
        # walk a few descent steps and re-check the incremental
        # objective against a full propagation of the emitted plan
        inst, _ = builtin_fixture("small")
        for seed in range(6):
            report = improve(inst, construct(inst, seed), SearchParams(seed=seed, restarts=1))
            assert report.objective == propagate(inst, report.plan).objective

    def test_probe_equals_propagate_for_every_move(self):
        # every candidate of every neighborhood, scored without a limit,
        # equals propagate of the candidate plan; with the objective as
        # the limit, a relocate slot is dropped only when it is no better
        moves = dict.fromkeys(NEIGHBORHOODS, 0)
        dropped = 0
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
                scored = list(_MOVES[name](state, math.inf))
                limited = list(_MOVES[name](state, state.objective))
                assert [move for _, move in limited] == [move for _, move in scored]
                for (score, move), (bounded, _) in zip(scored, limited):
                    candidate = _Work(state.work.tour, state.work.groups)
                    _apply(candidate, name, move)
                    built = _canonical_plan(candidate.tour, candidate.groups)
                    exact = propagate(inst, built).objective
                    assert score == exact
                    if bounded is None:
                        assert name == "relocate"
                        assert exact >= state.objective
                        dropped += 1
                    else:
                        assert bounded == exact
                    moves[name] += 1
                assert serialize_plan(_canonical_plan(state.work.tour, state.work.groups)) == before
        assert all(moves.values()), moves
        assert dropped

    def test_medium_fixture_improves(self):
        inst, plan = builtin_fixture("medium")
        base = propagate(inst, plan).objective
        report = improve(inst, construct(inst), SearchParams(restarts=2))
        assert report.objective <= base
        assert validate(inst, report.plan) == []


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
    "large-s<s>-r<restarts>" for (6,4,40) at 52,000 evaluations.  No
    case may reach its time cap."""
    head, seed = name.rsplit("-s", 1)
    if head == "large":
        seed, restarts = (int(x) for x in seed.split("-r"))
        inst = generate(seed, 6, 4, 40)
        return inst, construct(inst), SearchParams(
            max_iterations=52_000, max_seconds=1e6, restarts=restarts
        )
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
    + [f"large-s{seed}-r{restarts}" for seed in range(4) for restarts in (1, 4)]
)

# improve on (6,4,40) seeds 0-3 from construct at 52,000 evaluations
# with the default restarts, as the plain dict-based descent gave them
LARGE_OBJECTIVES = (647.0300426571624, 437.48001435445855, 412.54705848638116, 394.2891390799275)


class TestReferenceDescent:
    """`improve` scores moves with the B&B's incremental kernel; the
    search it makes must be the one `reference_improve` makes, which
    deep-copies every candidate and recomputes its schedule in dicts."""

    @pytest.mark.parametrize("name", DESCENT_CASES)
    def test_same_search_as_reference(self, name):
        inst, start, params = descent_case(name)
        report = improve(inst, start, params)
        objective, text, nodes = reference_improve(inst, start, params)
        assert report.objective == objective
        assert serialize_plan(report.plan) == text
        assert report.nodes == nodes

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
    def test_cap_stops_leave_a_whole_plan(self, which, cap):
        # each cap lands inside a relocate scan (in the first, third
        # and fourth descent on medium), while the customer is out of
        # the plan: the plan returned still serves everyone
        if which == "medium":
            inst = builtin_fixture("medium")[0]
        else:
            inst = generate(1, 6, 4, 40)
        start = construct(inst)
        params = SearchParams(max_iterations=cap, max_seconds=1e6)
        report = improve(inst, start, params)
        assert validate(inst, report.plan) == []
        assert report.nodes == cap
        assert report.stats["evals_relocate"] > 0
        objective, text, nodes = reference_improve(inst, start, params)
        assert report.objective == objective
        assert serialize_plan(report.plan) == text
        assert report.nodes == nodes


class TestSearchStats:
    def test_counters_add_up(self):
        inst, _ = builtin_fixture("medium")
        report = improve(inst, construct(inst), SearchParams(restarts=3, max_seconds=1e6))
        stats = report.stats
        assert set(stats) == {"descents"} | {
            f"{kind}_{name}" for kind in ("evals", "moves") for name in NEIGHBORHOODS
        }
        assert sum(stats[f"evals_{name}"] for name in NEIGHBORHOODS) == report.nodes
        assert stats["descents"] == 3
        assert sum(stats[f"moves_{name}"] for name in NEIGHBORHOODS) > 0
        for name in NEIGHBORHOODS:
            assert stats[f"moves_{name}"] <= stats[f"evals_{name}"]
