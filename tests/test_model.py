"""Domain types, their invariants, and JSON round-trips."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mothership import (
    Customer,
    Instance,
    ModelError,
    ParseError,
    Point,
    RoutePlan,
    Schedule,
    Sortie,
    Station,
    VIOLATION_KINDS,
    Violation,
    builtin_fixture,
    construct,
    export_bigm,
    generate,
    parse_instance,
    parse_plan,
    propagate,
    serialize_instance,
    serialize_plan,
    solve_bnb,
)


def tiny_instance(**overrides):
    base = dict(
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
    base.update(overrides)
    return Instance(**base)


class TestInstance:
    def test_accessors(self):
        inst = tiny_instance()
        assert inst.n_stations == 2
        assert inst.n_customers == 2
        assert inst.station(2).location == Point(0.0, 10.0)
        assert inst.customer(1).deadline == 30.0

    def test_unknown_ids_raise(self):
        inst = tiny_instance()
        with pytest.raises(ModelError):
            inst.station(3)
        with pytest.raises(ModelError):
            inst.customer(9)

    @pytest.mark.parametrize("bad", [1.5, "2", None])
    def test_non_integer_ids_raise_model_error(self, bad):
        # each raised TypeError from the range comparison or the index
        inst = tiny_instance()
        with pytest.raises(ModelError, match="unknown station id"):
            inst.station(bad)
        with pytest.raises(ModelError, match="unknown customer id"):
            inst.customer(bad)

    def test_sorts_members_by_id(self):
        inst = tiny_instance(
            stations=(Station(2, Point(0.0, 10.0)), Station(1, Point(10.0, 0.0))),
            customers=(
                Customer(1, Point(0.0, 14.0), 1.0, 30.0),
                Customer(0, Point(12.0, 0.0), 0.5, 20.0),
            ),
        )
        assert [s.id for s in inst.stations] == [1, 2]
        assert [c.id for c in inst.customers] == [0, 1]

    def test_station_ids_must_start_at_one(self):
        with pytest.raises(ModelError):
            tiny_instance(stations=(Station(0, Point(1.0, 1.0)),))

    def test_station_ids_must_be_contiguous(self):
        with pytest.raises(ModelError):
            tiny_instance(
                stations=(Station(1, Point(1.0, 1.0)), Station(3, Point(2.0, 2.0)))
            )

    def test_customer_ids_must_be_contiguous_from_zero(self):
        with pytest.raises(ModelError):
            tiny_instance(customers=(Customer(1, Point(1.0, 1.0), 1.0, 5.0),))

    def test_duplicate_station_id_rejected(self):
        with pytest.raises(ModelError):
            tiny_instance(
                stations=(Station(1, Point(1.0, 1.0)), Station(1, Point(2.0, 2.0)))
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("fleet_size", 0),
            ("robot_range", 0.0),
            ("robot_range", -1.0),
            ("vehicle_speed", 0.0),
            ("robot_speed", -2.0),
            ("robot_range", "200"),
        ],
    )
    def test_positive_scalars_enforced(self, field, value):
        with pytest.raises(ModelError):
            tiny_instance(**{field: value})

    def test_unreachable_customer_rejected(self):
        # nearest station is 40 away; the round trip 80 exceeds TR=50
        with pytest.raises(ModelError, match="unreachable"):
            tiny_instance(customers=(Customer(0, Point(50.0, 0.0), 1.0, 5.0),))

    def test_importance_must_be_positive(self):
        with pytest.raises(ModelError):
            tiny_instance(customers=(Customer(0, Point(12.0, 0.0), 0.0, 5.0),))

    def test_deadline_must_not_be_negative(self):
        with pytest.raises(ModelError):
            tiny_instance(customers=(Customer(0, Point(12.0, 0.0), 1.0, -0.5),))

    def test_colocated_stations_rejected(self):
        # the big-M export of this instance admitted the vehicle subtour
        # 2 -> 3 -> 2: the zero-length leg between the two stations lets
        # their arrival times coincide
        with pytest.raises(ModelError, match="stations 2 and 3 share the location"):
            Instance(
                depot=Point(0.0, 0.0),
                stations=(
                    Station(1, Point(10.0, 0.0)),
                    Station(2, Point(0.0, 50.0)),
                    Station(3, Point(0.0, 50.0)),
                ),
                customers=(Customer(0, Point(11.0, 0.0), 1.0, 0.0),),
                fleet_size=1,
                robot_range=100.0,
                vehicle_speed=50.0,
                robot_speed=5.0,
            )
        # -0.0 == 0.0: the same place
        with pytest.raises(ModelError, match="share the location"):
            tiny_instance(stations=(Station(1, Point(0.0, 10.0)), Station(2, Point(-0.0, 10.0))))

    def test_at_least_one_station(self):
        with pytest.raises(ModelError):
            tiny_instance(stations=(), customers=())

    @pytest.mark.parametrize("speed", ["vehicle_speed", "robot_speed"])
    def test_overflowing_times_rejected(self, speed):
        # at 1e-320 the ride or service times overflow to inf: construct
        # and solve_bnb raised TypeError, export_bigm OverflowError, and
        # propagate returned an objective of inf
        inst = generate(0, 3, 2, 6)
        with pytest.raises(ModelError, match="the schedule overflows"):
            dataclasses.replace(inst, **{speed: 1e-320})
        with pytest.raises(ModelError, match="the schedule overflows"):
            parse_instance(json.dumps({**json.loads(serialize_instance(inst)), speed: 1e-320}))
        slow = dataclasses.replace(inst, **{speed: 1e-300})  # slow, but every time finite
        optimum = solve_bnb(slow).objective
        assert math.isfinite(optimum)
        assert optimum <= propagate(slow, construct(slow)).objective < math.inf
        assert export_bigm(slow)

    def test_overflowing_objective_rejected(self):
        # finite times, but a total importance of inf: the terms overflow
        with pytest.raises(ModelError, match="total importance inf"):
            tiny_instance(customers=(Customer(0, Point(12.0, 0.0), 1e308, 20.0),
                                     Customer(1, Point(0.0, 14.0), 1e308, 30.0)))


class TestPlanTypes:
    def test_sortie_shape_checks(self):
        with pytest.raises(ModelError):
            Sortie(robot=-1, station=1, services=(0,))
        with pytest.raises(ModelError):
            Sortie(robot=0, station=0, services=(0,))
        with pytest.raises(ModelError):
            Sortie(robot=0, station=1, services=())
        with pytest.raises(ModelError):
            Sortie(robot=0, station=1, services=(0, 0))

    @pytest.mark.parametrize("services", [(0.0,), (-1,), ("0",), ([0],), (1, [0], [0])])
    def test_service_ids_are_nonnegative_integers(self, services):
        # an unhashable id must fail this check, not the duplicate check
        with pytest.raises(ModelError, match="service ids"):
            Sortie(robot=0, station=1, services=services)

    def test_plan_normalizes_to_tuples(self):
        plan = RoutePlan(tour=[2, 1], sorties=[Sortie(0, 1, [1, 0])])
        assert plan.tour == (2, 1)
        assert plan.sorties[0].services == (1, 0)

    def test_duplicate_tour_station_is_constructible(self):
        # degree bookkeeping is the validator's job, so a tour that
        # revisits a station must still construct for auditing
        plan = RoutePlan(tour=(1, 1), sorties=())
        assert plan.tour == (1, 1)

    def test_instance_dependent_breakage_is_constructible(self):
        # plans referencing stations or customers the instance lacks must
        # construct fine; the validator reports them instead
        plan = RoutePlan(tour=(9,), sorties=(Sortie(5, 9, (42,)),))
        assert plan.tour == (9,)

    def test_violation_kind_checked(self):
        with pytest.raises(ModelError):
            Violation(kind="nonsense", detail="x")
        v = Violation(kind=VIOLATION_KINDS[0], detail="d")
        assert v.detail == "d"

    def test_schedule_holds_mappings(self):
        s = Schedule(
            arrive={1: 1.0},
            depart={1: 2.0},
            complete={0: 1.5},
            tardiness={0: 0.0},
            objective=0.0,
        )
        assert s.complete[0] == 1.5


class TestSerialization:
    def test_format_doc_examples_parse(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "FORMAT.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", text, re.S)
        assert len(blocks) == 2
        for block in blocks:
            if "tour" in json.loads(block):
                plan = parse_plan(block)
                assert plan.tour == (2, 1) and len(plan.sorties) == 2
            else:
                inst = parse_instance(block)
                assert inst.n_stations == 2 and inst.n_customers == 1
                assert parse_instance(serialize_instance(inst)) == inst

    def test_unknown_instance_keys_are_ignored(self):
        inst, _ = builtin_fixture("small")
        doc = json.loads(serialize_instance(inst))
        doc["bogus"] = 1
        doc["stations"][0]["name"] = "S"
        doc["customers"][0]["note"] = None
        assert parse_instance(json.dumps(doc)) == inst

    def test_instance_round_trip_fixture(self):
        for name in ("small", "medium"):
            inst, plan = builtin_fixture(name)
            assert parse_instance(serialize_instance(inst)) == inst
            assert parse_plan(serialize_plan(plan)) == plan

    def test_serialized_instance_is_stable(self):
        inst = tiny_instance()
        assert serialize_instance(inst) == serialize_instance(inst)

    def test_parse_instance_reports_bad_json_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_instance("{\n  broken")

    def test_parse_instance_requires_keys(self):
        with pytest.raises(ParseError, match="missing"):
            parse_instance("{}")

    def test_parse_plan_requires_keys(self):
        with pytest.raises(ParseError, match="keys"):
            parse_plan("{\"tour\": [1]}")

    def test_parse_rejects_non_object(self):
        with pytest.raises(ParseError):
            parse_instance("[1, 2]")

    @pytest.mark.parametrize(
        "doc, message",
        [({"tour": [1], "sorties": 5}, "sorties must be a list"),
         ({"tour": 1, "sorties": []}, "tour must be a list"),
         ({"tour": [1], "sorties": [{"robot": 0, "station": 1, "services": 5}]},
          r"sorties\[0\].services must be a list")],
    )
    def test_parse_plan_rejects_non_lists(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize("services", [[[0]], [0.0]])
    def test_parse_plan_rejects_bad_service_ids(self, services):
        doc = {"tour": [1], "sorties": [{"robot": 0, "station": 1, "services": services}]}
        with pytest.raises(ModelError, match="service ids"):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [("stations", 5), ("customers", None)])
    def test_parse_instance_rejects_non_lists(self, key, value):
        doc = json.loads(serialize_instance(tiny_instance()))
        doc[key] = value
        with pytest.raises(ParseError, match=f"{key} must be a list"):
            parse_instance(json.dumps(doc))


coordinate = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


@st.composite
def instances(draw):
    n_s = draw(st.integers(min_value=1, max_value=4))
    n_c = draw(st.integers(min_value=0, max_value=6))
    # stations may not share a location
    places = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=n_s, max_size=n_s, unique=True)
    )
    stations = tuple(Station(i + 1, Point(x, y)) for i, (x, y) in enumerate(places))
    customers = []
    for cid in range(n_c):
        # keep every customer on top of some station so reachability holds
        anchor = stations[draw(st.integers(min_value=0, max_value=n_s - 1))]
        customers.append(
            Customer(
                cid,
                Point(anchor.location.x, anchor.location.y),
                draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False)),
                draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
            )
        )
    return Instance(
        depot=Point(draw(coordinate), draw(coordinate)),
        stations=stations,
        customers=tuple(customers),
        fleet_size=draw(st.integers(min_value=1, max_value=3)),
        robot_range=draw(st.floats(min_value=1.0, max_value=1e4, allow_nan=False)),
        vehicle_speed=draw(st.floats(min_value=0.1, max_value=100.0, allow_nan=False)),
        robot_speed=draw(st.floats(min_value=0.1, max_value=100.0, allow_nan=False)),
    )


@settings(max_examples=200, deadline=None)
@given(instances())
def test_instance_serialization_round_trip(inst):
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    # floats survive exactly, not approximately
    for a, b in zip(inst.customers, again.customers):
        assert math.copysign(1.0, a.location.x) == math.copysign(1.0, b.location.x)
        assert a.location.x == b.location.x


def json_plan_text(plan):
    """The canonical plan text as the json module writes it."""
    doc = {
        "tour": list(plan.tour),
        "sorties": [
            {"robot": s.robot, "station": s.station, "services": list(s.services)}
            for s in plan.sorties
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


ids = st.integers(min_value=1, max_value=10**20)
sorties = st.builds(
    Sortie,
    robot=st.integers(min_value=0, max_value=10**6),
    station=ids,
    services=st.lists(st.integers(min_value=0, max_value=10**20), min_size=1, max_size=6, unique=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ids, max_size=6), st.lists(sorties, max_size=5))
def test_plan_text_is_json_dumps(tour, sorties):
    # serialize_plan writes the text itself; it must be the json
    # module's bytes, since solvers break ties on it
    plan = RoutePlan(tuple(tour), tuple(sorties))
    assert serialize_plan(plan) == json_plan_text(plan)
    assert parse_plan(serialize_plan(plan)) == plan


def test_plan_text_of_other_id_types_is_json_dumps():
    # bool passes the int checks, service ids' too
    plan = RoutePlan((1, True), (Sortie(True, 2, (False, 7)),))
    assert serialize_plan(plan) == json_plan_text(plan)
    plan = RoutePlan((1,), (Sortie(0, 1, (True, 10**30)),))
    assert serialize_plan(plan) == json_plan_text(plan)
    for name in ("small", "medium"):
        plan = builtin_fixture(name)[1]
        assert serialize_plan(plan) == json_plan_text(plan)
