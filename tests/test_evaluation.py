"""
Evaluation pipeline: distances, validation, propagation, objective.

The golden numbers here were computed once by an independent
straight-line reimplementation of the timing recurrence and frozen;
the suite asserts bit-exact equality so any arithmetic reordering in
the package shows up as a failure, not as quiet drift.
"""

import math
import random

import pytest

from mothership import (
    Customer,
    Instance,
    ModelError,
    PlanEvaluator,
    Point,
    RoutePlan,
    Schedule,
    Sortie,
    Station,
    builtin_fixture,
    construct,
    distance,
    generate,
    objective,
    propagate,
    schedule_to_json,
    sortie_length,
    validate,
    violations_to_json,
)

SMALL_OPTIMUM = 36.37122987569251

# frozen independently recomputed small-fixture schedule
SMALL_TIMES = {
    "arrive": {2: 1.5811388300841898, 1: 32.105508740200264},
    "depart": {2: 31.105508740200268, 1: 65.71684812539839},
    "complete": {
        0: 35.15181798254583,
        1: 28.385214638453178,
        2: 20.29835739070659,
        3: 38.63543982712607,
        4: 8.256466537395644,
        5: 53.965370914051874,
        6: 14.619543640489486,
        7: 51.95748767514489,
    },
    "tardy": {
        0: 17.15181798254583,
        3: 15.63543982712607,
        5: 31.965370914051874,
        7: 2.9574876751448897,
    },
}

SMALL_SORTIE_LENGTHS = (
    147.62184955058038,
    130.38404810405297,
    153.29931086925802,
    168.05669692599056,
)

# frozen honest medium-fixture values (the bundled plan has one sortie
# past the robot range; propagation tolerates it and waits for it)
MEDIUM_TIMES = {
    "depart_2": 9.621039326980902,
    "arrive_4": 11.035252889353998,
    "depart_4": 43.17685541527976,
    "arrive_1": 44.17685541527976,
    "objective": 27.8505500646032,
    "complete_10": 5.601089078532546,
    "complete_3": 5.186690105548179,
    "complete_11": 5.566110599118445,
    "over_range_length": 160.7080126296288,
}


def tiny_instance():
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(10.0, 0.0)), Station(2, Point(0.0, 10.0))),
        customers=(
            Customer(0, Point(12.0, 0.0), 0.5, 20.0),
            Customer(1, Point(0.0, 14.0), 1.0, 30.0),
        ),
        fleet_size=2,
        robot_range=50.0,
        vehicle_speed=50.0,
        robot_speed=5.0,
    )


class TestDistance:
    def test_known_values(self):
        assert distance(Point(0.0, 0.0), Point(75.0, 25.0)) == 79.05694150420949
        assert distance(Point(75.0, 25.0), Point(25.0, 25.0)) == 50.0

    def test_symmetry_and_identity(self):
        rnd = random.Random(5)
        for _ in range(200):
            a = Point(rnd.uniform(-50, 50), rnd.uniform(-50, 50))
            b = Point(rnd.uniform(-50, 50), rnd.uniform(-50, 50))
            assert distance(a, b) == distance(b, a)
            assert distance(a, a) == 0.0


class TestSortieLength:
    def test_small_fixture_lengths_frozen(self):
        inst, plan = builtin_fixture("small")
        got = tuple(sortie_length(inst, s) for s in plan.sorties)
        assert got == SMALL_SORTIE_LENGTHS

    def test_chain_equals_twice_leg_sum(self):
        inst, plan = builtin_fixture("small")
        for s in plan.sorties:
            station = inst.station(s.station)
            legs = [distance(station.location, inst.customer(o).location) for o in s.services]
            assert sortie_length(inst, s) == math.fsum(2.0 * d for d in legs)


class TestValidate:
    def test_small_fixture_clean(self):
        inst, plan = builtin_fixture("small")
        assert validate(inst, plan) == []

    def test_medium_fixture_range_violation_only(self):
        inst, plan = builtin_fixture("medium")
        violations = validate(inst, plan)
        assert [v.kind for v in violations] == ["range(9)"]

    def test_missing_station_in_tour(self):
        inst, plan = builtin_fixture("small")
        broken = RoutePlan(tour=(1,), sorties=plan.sorties)
        kinds = {v.kind for v in validate(inst, broken)}
        assert "station-degree(3,4)" in kinds

    def test_duplicate_station_in_tour(self):
        inst, plan = builtin_fixture("small")
        broken = RoutePlan(tour=(1, 2, 1), sorties=plan.sorties)
        kinds = {v.kind for v in validate(inst, broken)}
        assert "station-degree(3,4)" in kinds

    def test_unserved_customer(self):
        inst, plan = builtin_fixture("small")
        broken = RoutePlan(tour=plan.tour, sorties=plan.sorties[:-1])
        kinds = {v.kind for v in validate(inst, broken)}
        assert "coverage(10,11)" in kinds

    def test_double_served_customer(self):
        inst, plan = builtin_fixture("small")
        extra = Sortie(robot=1, station=2, services=(0,))
        broken = RoutePlan(tour=plan.tour, sorties=plan.sorties[:-1] + (extra,))
        kinds = {v.kind for v in validate(inst, broken)}
        assert "coverage(10,11)" in kinds

    def test_two_sorties_same_robot_station(self):
        inst = tiny_instance()
        plan = RoutePlan(
            tour=(1, 2),
            sorties=(Sortie(0, 1, (0,)), Sortie(0, 1, (1,))),
        )
        kinds = {v.kind for v in validate(inst, plan)}
        assert "multiplicity(5,6)" in kinds

    def test_unknown_ids_are_structural(self):
        inst = tiny_instance()
        plan = RoutePlan(tour=(1, 2, 7), sorties=(Sortie(0, 1, (0, 1)),))
        kinds = {v.kind for v in validate(inst, plan)}
        assert "structural" in kinds
        plan2 = RoutePlan(tour=(1, 2), sorties=(Sortie(0, 1, (0, 99)),))
        kinds2 = {v.kind for v in validate(inst, plan2)}
        assert "structural" in kinds2

    def test_sortie_at_unknown_station_is_structural(self):
        # the range check needs the station's location, so it is skipped
        inst = tiny_instance()
        plan = RoutePlan(tour=(1, 2), sorties=(Sortie(0, 7, (0, 1)),))
        assert [(v.kind, v.detail) for v in validate(inst, plan)] == [
            ("structural", "sortie (r0, S7) references unknown station")
        ]

    def test_robot_index_beyond_fleet_is_structural(self):
        inst = tiny_instance()
        plan = RoutePlan(tour=(1, 2), sorties=(Sortie(5, 1, (0, 1)),))
        kinds = {v.kind for v in validate(inst, plan)}
        assert "structural" in kinds

    def test_range_violation_detail_mentions_sortie(self):
        inst, plan = builtin_fixture("medium")
        v = validate(inst, plan)[0]
        assert "S4" in v.detail and "TR=80" in v.detail

    def test_violations_to_json_parses_back(self):
        import json

        inst, plan = builtin_fixture("medium")
        doc = json.loads(violations_to_json(validate(inst, plan)))
        assert doc[0]["kind"] == "range(9)"


class TestPropagate:
    def test_small_fixture_schedule_bit_exact(self):
        inst, plan = builtin_fixture("small")
        s = propagate(inst, plan)
        assert s.arrive == SMALL_TIMES["arrive"]
        assert s.depart == SMALL_TIMES["depart"]
        assert s.complete == SMALL_TIMES["complete"]
        for o, c in s.tardiness.items():
            assert c == SMALL_TIMES["tardy"].get(o, 0.0)
        assert s.objective == SMALL_OPTIMUM

    def test_medium_fixture_waits_for_over_range_sortie(self):
        inst, plan = builtin_fixture("medium")
        s = propagate(inst, plan)
        assert s.depart[2] == MEDIUM_TIMES["depart_2"]
        assert s.arrive[4] == MEDIUM_TIMES["arrive_4"]
        assert s.depart[4] == MEDIUM_TIMES["depart_4"]
        assert s.arrive[1] == MEDIUM_TIMES["arrive_1"]
        assert s.complete[10] == MEDIUM_TIMES["complete_10"]
        assert s.complete[3] == MEDIUM_TIMES["complete_3"]
        assert s.complete[11] == MEDIUM_TIMES["complete_11"]
        assert s.objective == MEDIUM_TIMES["objective"]

    def test_structural_breakage_rejected(self):
        inst, plan = builtin_fixture("small")
        with pytest.raises(ModelError) as info:
            propagate(inst, RoutePlan(tour=(1,), sorties=plan.sorties))
        assert str(info.value) == "plan structure invalid: tour never visits stations [2]"
        # every structural detail, in validate's order
        broken = RoutePlan(tour=(1, 3, 1), sorties=plan.sorties + (Sortie(7, 2, (0, 99)),))
        with pytest.raises(ModelError) as info:
            propagate(inst, broken)
        assert str(info.value) == (
            "plan structure invalid: tour references unknown station 3; "
            "sortie (r7, S2) robot index outside fleet of 2; "
            "sortie (r7, S2) references unknown customer 99; "
            "tour visits stations [1] more than once; "
            "tour never visits stations [2]; "
            "customers [0] are served more than once"
        )

    def test_range_violation_tolerated(self):
        inst, plan = builtin_fixture("medium")
        s = propagate(inst, plan)
        assert s.objective > 0.0

    def test_departure_tightness_on_fixture(self):
        inst, plan = builtin_fixture("small")
        s = propagate(inst, plan)
        for k in plan.tour:
            returns = [s.arrive[k]]
            for sortie in plan.sorties:
                if sortie.station != k:
                    continue
                last = sortie.services[-1]
                d = distance(inst.station(k).location, inst.customer(last).location)
                returns.append(s.complete[last] + d / inst.robot_speed)
            assert s.depart[k] == max(returns)

    def test_zero_customers(self):
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(3.0, 4.0)),),
            customers=(),
            fleet_size=1,
            robot_range=10.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        s = propagate(inst, RoutePlan(tour=(1,), sorties=()))
        assert s.arrive[1] == 5.0
        assert s.depart[1] == 5.0
        assert s.objective == 0.0

    def test_schedule_json_has_all_blocks(self):
        import json

        inst, plan = builtin_fixture("small")
        doc = json.loads(schedule_to_json(propagate(inst, plan)))
        assert set(doc) == {"arrive", "depart", "complete", "tardiness", "objective"}


class TestObjective:
    def test_hand_built_schedule(self):
        inst, _ = builtin_fixture("small")
        sched = Schedule(
            arrive={},
            depart={},
            complete={},
            tardiness={c.id: 0.0 for c in inst.customers},
            objective=0.0,
        )
        assert objective(inst, sched) == 0.0

    def test_matches_propagate(self):
        inst, plan = builtin_fixture("small")
        s = propagate(inst, plan)
        assert objective(inst, s) == s.objective

    def test_requires_every_customer(self):
        inst, _ = builtin_fixture("small")
        sched = Schedule(arrive={}, depart={}, complete={}, tardiness={0: 1.0}, objective=0.0)
        with pytest.raises(ModelError):
            objective(inst, sched)


class TestPlanEvaluator:
    def test_objective_bit_equal_to_propagate_on_corpus(self):
        for inst, plan in _cross_check_cases():
            ev = PlanEvaluator(inst)
            groups = _groups_of(inst, plan)
            full = propagate(inst, plan)
            assert ev.bound_of(list(plan.tour), groups, [0.0] * ev.n) == full.objective
            comp, arrive, depart = ev.completions(list(plan.tour), groups)
            assert comp == full.complete
            assert arrive == full.arrive
            assert depart == full.depart

    def test_group_length_matches_sortie_length(self):
        inst, plan = builtin_fixture("small")
        ev = PlanEvaluator(inst)
        for s in plan.sorties:
            assert ev.group_length(s.station, list(s.services)) == sortie_length(inst, s)


def _cross_check_cases():
    for seed in range(40):
        inst = generate(seed, 2, 2, 4, robot_range=200.0)
        yield inst, _random_plan(inst, seed)
    for shape in ((4, 3, 12), (6, 4, 40)):
        for seed in range(3):
            inst = generate(seed, *shape)
            plan = construct(inst, seed)
            yield inst, plan
            yield inst, RoutePlan(plan.tour, plan.sorties[::-1])  # against tour order
    # customer 0 sits on station 1 (a zero-length leg), station 3 flies
    # no sorties, and station 2's sortie is listed before station 1's
    inst = Instance(
        depot=Point(0.0, 0.0),
        stations=(
            Station(1, Point(10.0, 0.0)),
            Station(2, Point(0.0, 10.0)),
            Station(3, Point(5.0, 5.0)),
        ),
        customers=(
            Customer(0, Point(10.0, 0.0), 2.0, 0.5),
            Customer(1, Point(13.0, 4.0), 1.0, 1.0),
            Customer(2, Point(0.0, 14.0), 0.5, 2.0),
        ),
        fleet_size=2,
        robot_range=50.0,
        vehicle_speed=7.0,
        robot_speed=3.0,
    )
    yield inst, RoutePlan(tour=(3, 1, 2), sorties=(Sortie(0, 2, (2,)), Sortie(0, 1, (1, 0))))


def _random_plan(instance, seed):
    rnd = random.Random(seed)
    tour = [s.id for s in instance.stations]
    rnd.shuffle(tour)
    slots = {}
    for c in instance.customers:
        key = (rnd.choice(tour), rnd.randrange(instance.fleet_size))
        slots.setdefault(key, []).append(c.id)
    sorties = tuple(
        Sortie(robot=r, station=k, services=tuple(v)) for (k, r), v in sorted(slots.items())
    )
    return RoutePlan(tour=tuple(tour), sorties=sorties)


def _groups_of(instance, plan):
    groups = {k: [] for k in plan.tour}
    by_station = {}
    for s in plan.sorties:
        by_station.setdefault(s.station, []).append(s)
    for k in plan.tour:
        groups[k] = [list(s.services) for s in by_station.get(k, [])]
    return groups
