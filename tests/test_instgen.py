"""
Seeded instance generation: determinism, layouts, draw ranges.
"""

import math
import statistics

import pytest

from mothership import (
    ModelError,
    Point,
    distance,
    generate,
    parse_instance,
    serialize_instance,
    station_layout,
)


class TestStationLayout:
    def test_two_stations_quarter_height(self):
        assert station_layout(2, 100.0, 100.0) == (Point(25.0, 25.0), Point(75.0, 25.0))

    def test_four_stations_counterclockwise_box(self):
        assert station_layout(4, 100.0, 100.0) == (
            Point(25.0, 25.0),
            Point(75.0, 25.0),
            Point(75.0, 75.0),
            Point(25.0, 75.0),
        )

    def test_single_station_centered(self):
        assert station_layout(1, 100.0, 100.0) == (Point(50.0, 50.0),)

    def test_three_stations_grid(self):
        # cols = ceil(sqrt(3)) = 2, rows = 2, row-major
        assert station_layout(3, 90.0, 90.0) == (
            Point(30.0, 30.0),
            Point(60.0, 30.0),
            Point(30.0, 60.0),
        )

    def test_nine_stations_grid(self):
        pts = station_layout(9, 100.0, 100.0)
        assert len(pts) == 9
        assert pts[0] == Point(25.0, 25.0)
        assert pts[4] == Point(50.0, 50.0)
        assert pts[8] == Point(75.0, 75.0)

    def test_scales_with_field(self):
        assert station_layout(2, 40.0, 8.0) == (Point(10.0, 2.0), Point(30.0, 2.0))

    @pytest.mark.parametrize("n_s", [0, -2, 2.5, "2"])
    def test_bad_counts_rejected(self, n_s):
        with pytest.raises(ModelError, match="n_stations"):
            station_layout(n_s, 100.0, 100.0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(7, 2, 2, 5)
        b = generate(7, 2, 2, 5)
        assert serialize_instance(a) == serialize_instance(b)

    def test_seed_changes_instance(self):
        a = generate(1, 2, 2, 5)
        b = generate(2, 2, 2, 5)
        assert serialize_instance(a) != serialize_instance(b)

    def test_shape_and_scalars(self):
        inst = generate(0, 3, 2, 6, width=80.0, height=60.0, robot_range=150.0)
        assert inst.n_stations == 3
        assert inst.fleet_size == 2
        assert inst.n_customers == 6
        assert inst.robot_range == 150.0
        assert inst.depot == Point(0.0, 0.0)
        assert [s.id for s in inst.stations] == [1, 2, 3]
        assert [c.id for c in inst.customers] == list(range(6))

    def test_round_trips_through_json(self):
        inst = generate(3, 2, 1, 4)
        assert serialize_instance(parse_instance(serialize_instance(inst))) == (
            serialize_instance(inst)
        )

    def test_customers_inside_field(self):
        inst = generate(11, 2, 2, 30, width=50.0, height=20.0)
        for c in inst.customers:
            assert 0.0 <= c.location.x <= 50.0
            assert 0.0 <= c.location.y <= 20.0

    def test_every_customer_reachable(self):
        for seed in range(10):
            inst = generate(seed, 2, 1, 8, robot_range=170.0)
            for c in inst.customers:
                nearest = min(distance(s.location, c.location) for s in inst.stations)
                assert 2.0 * nearest <= inst.robot_range

    def test_draw_ranges(self):
        inst = generate(5, 2, 2, 50)
        for c in inst.customers:
            assert 0.0 < c.importance <= 1.0
            assert 10.0 <= c.deadline < 50.0

    def test_distribution_means(self):
        # uniform(0,1) mean 1/2, uniform(10,50) mean 30; allow 3 sigma
        inst = generate(13, 2, 2, 10_000)
        imp = [c.importance for c in inst.customers]
        dl = [c.deadline for c in inst.customers]
        n = len(imp)
        assert abs(statistics.fmean(imp) - 0.5) < 3.0 / math.sqrt(12.0 * n)
        assert abs(statistics.fmean(dl) - 30.0) < 3.0 * 40.0 / math.sqrt(12.0 * n)

    def test_tight_range_resampling_keeps_customers_close(self):
        inst = generate(2, 2, 1, 10, robot_range=30.0)
        for c in inst.customers:
            nearest = min(distance(s.location, c.location) for s in inst.stations)
            assert 2.0 * nearest <= 30.0

    def test_impossible_range_raises(self):
        with pytest.raises(ModelError, match="no reachable location"):
            generate(0, 2, 1, 1, robot_range=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_stations": 0},
            {"n_robots": 0},
            {"n_customers": -1},
            {"width": 0.0},
            {"height": -5.0},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": "x"},
            {"n_stations": 2.5},
            {"n_customers": 2.5},
            {"n_robots": 1.5},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        base = dict(seed=0, n_stations=2, n_robots=1, n_customers=2)
        base.update(kwargs)
        with pytest.raises(ModelError):
            generate(
                base["seed"],
                base["n_stations"],
                base["n_robots"],
                base["n_customers"],
                width=base.get("width", 100.0),
                height=base.get("height", 100.0),
            )

    def test_zero_customers(self):
        inst = generate(0, 2, 1, 0)
        assert inst.customers == ()
