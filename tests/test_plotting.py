"""
SVG plan rendering: element counts and labels.
"""

import pytest

from mothership import ModelError, RoutePlan, Sortie, builtin_fixture, plan_svg
from mothership.plotting import ROBOT_COLORS, ROBOT_DASHES


def counts(text, token):
    return text.count(token)


class TestPlanSvg:
    def test_is_standalone_svg(self):
        inst, plan = builtin_fixture("small")
        svg = plan_svg(inst, plan)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg

    def test_leg_polyline_count(self):
        for name in ("small", "medium"):
            inst, plan = builtin_fixture(name)
            svg = plan_svg(inst, plan)
            tour_legs = len(plan.tour) + 1
            robot_legs = 2 * sum(len(s.services) for s in plan.sorties)
            assert counts(svg, "<polyline ") == tour_legs + robot_legs

    def test_marker_counts(self):
        inst, plan = builtin_fixture("small")
        svg = plan_svg(inst, plan)
        assert counts(svg, "<circle ") == inst.n_stations
        assert counts(svg, "<polygon ") == inst.n_customers
        # one background rect plus the depot square
        assert counts(svg, "<rect ") == 2

    def test_labels(self):
        inst, plan = builtin_fixture("small")
        svg = plan_svg(inst, plan)
        assert ">depot</text>" in svg
        for s in inst.stations:
            assert f">S{s.id}</text>" in svg
        for c in inst.customers:
            assert f">C{c.id}</text>" in svg

    def test_robot_styling_applied(self):
        inst, plan = builtin_fixture("small")
        svg = plan_svg(inst, plan)
        robots = {s.robot for s in plan.sorties}
        for r in robots:
            assert ROBOT_COLORS[r % len(ROBOT_COLORS)] in svg
            assert f'stroke-dasharray="{ROBOT_DASHES[r % len(ROBOT_DASHES)]}"' in svg

    def test_vehicle_legs_solid(self):
        inst, plan = builtin_fixture("small")
        svg = plan_svg(inst, plan)
        solid = [
            line
            for line in svg.splitlines()
            if line.startswith("<polyline ") and "dasharray" not in line
        ]
        assert len(solid) == len(plan.tour) + 1
        assert all('stroke="#333333"' in line for line in solid)

    def test_deterministic(self):
        inst, plan = builtin_fixture("small")
        assert plan_svg(inst, plan) == plan_svg(inst, plan)

    @pytest.mark.parametrize(
        "plan, message",
        [(RoutePlan((2, 9), ()), "unknown station id 9"),
         (RoutePlan((2, 1), (Sortie(0, 9, (0,)),)), "unknown station id 9"),
         (RoutePlan((2, 1), (Sortie(0, 1, (8,)),)), "unknown customer id 8")],
    )
    def test_unknown_id_is_a_model_error(self, plan, message):
        inst, _ = builtin_fixture("small")
        with pytest.raises(ModelError, match=message):
            plan_svg(inst, plan)
