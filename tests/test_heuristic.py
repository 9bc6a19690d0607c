"""
Construction and local search: feasibility, determinism, quality.
"""

import time

import pytest

from mothership import (
    NEIGHBORHOODS,
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
    validate,
)
from mothership.heuristic import _Evaluator, _scan_moves, _Work

SMALL_OPTIMUM = 36.37122987569251


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.seed == 0
        assert p.neighborhoods == NEIGHBORHOODS
        assert p.restarts >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_seconds": 0.0},
            {"restarts": 0},
            {"neighborhoods": ()},
            {"neighborhoods": ("relocate", "tunnel")},
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

    def test_single_neighborhood_runs(self):
        inst, _ = builtin_fixture("small")
        for name in NEIGHBORHOODS:
            report = improve(
                inst, construct(inst), SearchParams(neighborhoods=(name,), restarts=1)
            )
            assert validate(inst, report.plan) == []

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
        moves = dict.fromkeys(NEIGHBORHOODS, 0)
        for fixture in ("small", "medium"):
            inst, plan = builtin_fixture(fixture)
            ev = PlanEvaluator(inst)
            state = _Evaluator(ev, _Work.from_plan(inst, plan))
            assert state.objective == propagate(inst, plan).objective
            for name in NEIGHBORHOODS:
                for from_idx, tour, groups in _scan_moves(ev, state, name):
                    candidate = _Work(tour, groups).plan()
                    assert state.probe(tour, groups, from_idx) == propagate(inst, candidate).objective
                    moves[name] += 1
        assert all(moves.values()), moves

    def test_medium_fixture_improves(self):
        inst, plan = builtin_fixture("medium")
        base = propagate(inst, plan).objective
        report = improve(inst, construct(inst), SearchParams(restarts=2))
        assert report.objective <= base
        assert validate(inst, report.plan) == []
