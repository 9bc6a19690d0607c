"""
LP exports and solution import.

Both export forms are checked mechanically with the parser in
tests/lp_eval.py: substitute a known-good assignment, evaluate every
row, and demand zero violations at 1e-6.
"""

import hashlib
import logging
import math

import pytest

from lp_eval import check_assignment, parse_lp, solve_milp
from reference_import import reference_import

from mothership import (
    Customer,
    Instance,
    ModelError,
    Point,
    RoutePlan,
    SolutionImportError,
    Sortie,
    Station,
    builtin_fixture,
    construct,
    export_bigm,
    export_miqcp,
    generate,
    import_solution,
    name_w,
    name_x,
    name_y,
    name_z,
    parse_variable,
    plan_assignment,
    propagate,
    serialize_plan,
    solve_bnb,
    solve_oracle,
    validate,
)
from mothership.mipexport import _Model, _Names, _wrap

SMALL_OPTIMUM = 36.37122987569251

# SHA-256 of the export text per (instance, form, arrival speed).  Any
# change to these bytes is a format change: update the digests in the
# same change and say so in docs/FORMAT.md.
EXPORT_SHA256 = {
    ("small", "miqcp", "vehicle"): "fd7f5aae6efdedee0d6eb3ce7528013fdd14fb4cec33b971cb7259691fa64977",
    ("small", "miqcp", "robot"): "80489356b78d7ad25e323e1e12cf9e1afe46066aa4295645a71fde0bf5d294a3",
    ("small", "bigm", "vehicle"): "9f6d671069991ec3eca7892320fda65692ba46435b3d6f162405d2d013283c78",
    ("small", "bigm", "robot"): "beb126154c5e887f481395ae711df6f4f48816f0880f50b6b5e911f1e64e9f2f",
    ("medium", "miqcp", "vehicle"): "8b2254a257f5e5b13f451d6bf9debf43a2fc17b7321c4418167c08edf67a3a8c",
    ("medium", "miqcp", "robot"): "abe24de5387e9ef2dc0eacaf685d89c7fae1acf2f10dd61df092e0b93702119f",
    ("medium", "bigm", "vehicle"): "64fd906b8dd6dbc1b8d11c3c78abc289bb5a860fc0749b6ee48dd9d52152e005",
    ("medium", "bigm", "robot"): "41fc44a8167a4b9db79373c683125a69bae9f87a858354d34479df048e62f80e",
    ("1-1-2", "miqcp", "vehicle"): "cd108eb101f17ddcacc36672dd5c540a320e3c5d145c8abbcd31a627b357949b",
    ("1-1-2", "miqcp", "robot"): "0c972c199a1fb84f144a94be3418b6e3938784198baf706049319861bb5c3dca",
    ("1-1-2", "bigm", "vehicle"): "e412418a27fe4ffbaa68f4fec7718400e46891e680cea9fc1e0271570f31b3de",
    ("1-1-2", "bigm", "robot"): "3120d8c0d0441f7f4c790e07ee938d5c36242fcf6f30b26c0256177f95ffddf9",
    ("2-2-4", "miqcp", "vehicle"): "b49d2bb9b48149145d89bcb9f1c7d7afc0c18206b0558fab39346014577ca49b",
    ("2-2-4", "miqcp", "robot"): "29b9a48e5ad514c24a325b1081e6c83928d187eae77bdc55bef136add0641682",
    ("2-2-4", "bigm", "vehicle"): "d366cff37ffb523945f00d991a80f0bd4bea3396d5cd9a8058156f8b00034032",
    ("2-2-4", "bigm", "robot"): "6e35efee9168081a43dc12d42be06c8c8a20adeca4c8870db3f2fc353b66a545",
    ("4-3-20", "miqcp", "vehicle"): "73574b59deeecdb9dff404010b195790852377dc732bd9acf8ea678d3a3761b8",
    ("4-3-20", "miqcp", "robot"): "a650f96622b85a7eb4da34cdf4f5ef5f4a50a1aa33ec2bbaa0c04c661851be5d",
    ("4-3-20", "bigm", "vehicle"): "ca3f948cd3a665382456a43034531569c529f1c98d02119d469c70da003eadab",
    ("4-3-20", "bigm", "robot"): "4b9c32b2895ea6f563d2298ad90b3cac840e41a11e4cc903992523fe301f344f",
    ("colocated", "miqcp", "vehicle"): "8aca93ce75994cc8415a0d98b8b399ebf6c39ed0511cdc9e89ea8a2284e7fd08",
    ("colocated", "miqcp", "robot"): "dead90ff5ff17621522df205c5126530956c14663681f68bf7b1c83a46b35a1b",
    ("colocated", "bigm", "vehicle"): "002b6997d709af4c8d3ee2ce3b6073b2db4d07f3571fc8b22b0875442435e4c5",
    ("colocated", "bigm", "robot"): "3a82255dc542a0b32cda83f25114f7c6f7d59f0d83474f70dcb9ab8484ec5595",
}


def colocated_instance(customers):
    """Station 1 on the depot and each customer on a station, so some
    coefficients are 0 and left out."""
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(0.0, 0.0)), Station(2, Point(3.0, 4.0))),
        customers=customers,
        fleet_size=2,
        robot_range=20.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


def two_station_instance(customers):
    """Two stations off the depot and one robot of range 10."""
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(3.0, 4.0)), Station(2, Point(0.0, 5.0))),
        customers=customers,
        fleet_size=1,
        robot_range=10.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


def pinned_instance(case):
    if case in ("small", "medium"):
        return builtin_fixture(case)[0]
    if case == "colocated":
        return colocated_instance(
            (Customer(0, Point(0.0, 0.0), 1.0, 0.0), Customer(1, Point(3.0, 4.0), 2.5, 1.0))
        )
    shape = tuple(int(n) for n in case.split("-"))
    return generate(0 if shape == (4, 3, 20) else 1, *shape)


def bigm_rows(n_s, n_r, n_c):
    """Rows of the big-M form: the shared rows (1)-(11), (14), (17),
    two per vehicle arc for (13), two per first service and per
    succession for (15), and one per (station, robot, customer) for (16)."""
    shared = 2 + 3 * n_s + 4 * n_r * n_s + n_s * n_r * n_c + 3 * n_c
    return shared + 2 * n_s * n_s + 2 * n_r * n_s * n_c * n_c + n_s * n_r * n_c


def model_sizes(n_s, n_r, n_c):
    rows = 2 + 4 * n_s + 4 * n_r * n_s + 2 * n_s * n_r * n_c + 4 * n_c
    binaries = (n_s + 1) * n_s + 2 * n_r * n_s * n_c + n_r * n_s * n_c * n_c
    return rows, binaries


def solution_text(values):
    return "\n".join(f"{k} {v}" for k, v in values.items() if v != 0.0)


def dense_text(values):
    """Every variable on its own line, zeros included."""
    return "".join(f"{k} {v!r}\n" for k, v in values.items())


def binaries_text(values):
    """Only the set binaries: no zeros and no time lines."""
    return "".join(f"{k} {v!r}\n" for k, v in values.items() if v != 0.0 and k[0] != "t")


def import_outcome(importer, inst, text):
    """The plan and schedule an importer returns, or its error text."""
    try:
        plan, sched = importer(inst, text)
    except SolutionImportError as err:
        return "error", str(err)
    return serialize_plan(plan), sched


def corruptions(inst, values):
    """Single-defect copies of a plan's assignment: each set binary
    cleared, one set and one unset binary at 0.5, one diagonal
    succession at 1 and one unknown name.  Then three with many
    leftovers, which fix the order they are reported in: every first
    service cleared; every first service and succession cleared; and
    every first service cleared with one customer succeeded by all."""
    set_binaries = [n for n, v in values.items() if v == 1.0 and n[0] != "t"]
    for name in set_binaries:
        yield {**values, name: 0.0}
    unset = next(n for n, v in values.items() if v == 0.0 and n[0] != "t")
    for name in (set_binaries[0], unset):
        yield {**values, name: 0.5}
    yield {**values, name_w(0, inst.stations[0].id, 0, 0): 1.0}
    yield {**values, "y_0_0": 1.0}
    no_starts = {**values, **dict.fromkeys([n for n in set_binaries if n[0] == "x"], 0.0)}
    yield no_starts
    yield {**no_starts, **dict.fromkeys([n for n in set_binaries if n[0] == "w"], 0.0)}
    succession = next((n for n in set_binaries if n[0] == "w"), None)
    if succession:
        _, (r, k, o, _) = parse_variable(succession)
        fan = [name_w(r, k, o, p) for p in range(inst.n_customers) if p != o]
        yield {**no_starts, **dict.fromkeys(fan, 1.0)}


class TestExportStructure:
    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    def test_sections_present(self, form):
        inst, _ = builtin_fixture("small")
        text = form(inst)
        assert text.startswith("\\")
        for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text
        assert all(len(line) <= 220 for line in text.splitlines())

    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    def test_deterministic(self, form):
        inst, _ = builtin_fixture("small")
        assert form(inst) == form(inst)

    def test_small_model_sizes(self):
        inst, _ = builtin_fixture("small")
        rows, binaries = model_sizes(2, 2, 8)
        m = parse_lp(export_miqcp(inst))
        assert (len(m.rows), len(m.binaries)) == (rows, binaries) == (122, 326)
        b = parse_lp(export_bigm(inst))
        assert len(b.binaries) == 326
        assert len(b.rows) == 632

    def test_medium_model_sizes(self):
        inst, _ = builtin_fixture("medium")
        rows, binaries = model_sizes(4, 4, 12)
        m = parse_lp(export_miqcp(inst))
        assert (len(m.rows), len(m.binaries)) == (rows, binaries) == (514, 2708)

    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 1, 3), (2, 2, 4)])
    def test_row_count_formula_on_generated(self, shape):
        n_s, n_r, n_c = shape
        inst = generate(1, n_s, n_r, n_c, robot_range=200.0)
        rows, binaries = model_sizes(n_s, n_r, n_c)
        m = parse_lp(export_miqcp(inst))
        assert len(m.rows) == rows
        assert len(m.binaries) == binaries

    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 1, 3), (2, 2, 4)])
    def test_bigm_row_count_formula_on_generated(self, shape):
        n_s, n_r, n_c = shape
        inst = generate(1, n_s, n_r, n_c, robot_range=200.0)
        _, binaries = model_sizes(n_s, n_r, n_c)
        b = parse_lp(export_bigm(inst))
        assert len(b.rows) == bigm_rows(n_s, n_r, n_c)
        assert len(b.binaries) == binaries

    def test_bigm_row_count_formula_on_fixtures(self):
        assert bigm_rows(2, 2, 8) == 632
        b = parse_lp(export_bigm(builtin_fixture("medium")[0]))
        assert len(b.rows) == bigm_rows(4, 4, 12)

    def test_diagonal_succession_pinned_to_zero(self):
        inst, _ = builtin_fixture("small")
        m = parse_lp(export_miqcp(inst))
        assert m.bounds[name_w(0, 1, 0, 0)] == (0.0, 0.0)
        assert m.bounds[name_w(1, 2, 7, 7)] == (0.0, 0.0)

    def test_bigm_caps_time_variables(self):
        inst, _ = builtin_fixture("small")
        b = parse_lp(export_bigm(inst))
        assert b.bounds["ta_1"][1] > 0.0
        assert b.bounds["tc_0"][1] > 0.0
        m = parse_lp(export_miqcp(inst))
        assert "ta_1" not in m.bounds

    def test_bad_arrival_speed_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(ModelError):
            export_miqcp(inst, arrival_speed="warp")

    def test_arrival_speed_variant_changes_travel_rows(self):
        inst, _ = builtin_fixture("small")
        base = parse_lp(export_miqcp(inst))
        variant = parse_lp(export_miqcp(inst, arrival_speed="robot"))
        assert len(variant.rows) == len(base.rows)
        assert export_miqcp(inst) != export_miqcp(inst, arrival_speed="robot")
        # a schedule timed at vehicle speed no longer satisfies the
        # travel rows once legs are divided by the slower robot speed
        values = plan_assignment(inst, *[builtin_fixture("small")[1]])
        assert check_assignment(base, values) == []
        assert check_assignment(variant, values) != []


class TestExportBytes:
    @pytest.mark.parametrize("case,form,speed", sorted(EXPORT_SHA256))
    def test_digest_pinned(self, case, form, speed):
        exporter = export_miqcp if form == "miqcp" else export_bigm
        text = exporter(pinned_instance(case), arrival_speed=speed)
        assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[(case, form, speed)]

    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    @pytest.mark.parametrize("far", [False, True], ids=["colocated", "far"])
    def test_customers_on_stations_exported(self, form, far):
        # every customer sits on a station, so that station's range rows
        # (9) have only zero coefficients and read 0 <= TR: they are left
        # out.  With `far`, station 2 lies away from the depot and the
        # plan is late; without it the one station is on the depot, and
        # every place and time coincides (stations may not share a place).
        at = Point(3.0, 4.0) if far else Point(0.0, 0.0)
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(0.0, 0.0)), Station(2, at)) if far else (Station(1, at),),
            customers=(Customer(0, at, 1.0, 0.0), Customer(1, at, 2.5, 1.0)),
            fleet_size=2,
            robot_range=20.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        k = inst.n_stations
        plan = RoutePlan(
            tour=tuple(range(1, k + 1)), sorties=(Sortie(robot=0, station=k, services=(0, 1)),)
        )
        model = parse_lp(form(inst))
        names = {row.name for row in model.rows}
        assert not {f"c9_r0_k{k}", f"c9_r1_k{k}"} & names
        if far:
            assert {"c9_r0_k1", "c9_r1_k1"} <= names
        else:
            assert not any(n.startswith("c9_") for n in names)
        values = plan_assignment(inst, plan)
        assert check_assignment(model, values) == []
        objective = propagate(inst, plan).objective
        assert objective == (5.0 + 2.5 * 4.0 if far else 0.0)
        assert model.objective_value(values) == objective

    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    def test_zero_customers_exported(self, form):
        # only the tour rows; the objective keeps one zero-weighted arc,
        # as an LP objective needs a term.  No header speaks of w
        # variables or customer pairs, since there are none
        inst = two_station_instance(())
        text = form(inst)
        model = parse_lp(text)
        assert {row.name.split("_")[0].rstrip("ab") for row in model.rows} == {
            "c1", "c2", "c3", "c4", "c13", "c14"
        }
        assert "w_r_k_o_o" not in text
        assert "customer-customer" not in text
        plan = RoutePlan(tour=(2, 1), sorties=())
        values = plan_assignment(inst, plan)
        assert check_assignment(model, values) == []
        assert model.objective_value(values) == 0.0
        back, _ = import_solution(inst, solution_text(values))
        assert back == plan

    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    def test_one_customer_exported(self, form):
        # its w_r_k_o_o variables are fixed to 0 in Bounds, so the
        # header says so; one customer makes no customer pair
        inst = two_station_instance((Customer(0, Point(1.0, 1.0), 1.0, 5.0),))
        text = form(inst)
        notes = [line for line in text.splitlines() if line.startswith("\\")]
        assert sum("w_r_k_o_o" in line for line in notes) == 1
        assert " w_0_1_0_0 = 0" in text.splitlines()
        assert "customer-customer" not in text
        plan = RoutePlan(tour=(1, 2), sorties=(Sortie(0, 1, (0,)),))
        values = plan_assignment(inst, plan)
        assert check_assignment(parse_lp(text), values) == []
        back, _ = import_solution(inst, solution_text(values))
        assert back == plan

    def test_row_without_terms_rejected(self):
        with pytest.raises(ModelError, match="row c1 has no terms"):
            _Model().row("c1", [(0.0, "x"), (0.0, "y")], [], "<=", 1.0)

    def test_pinned_set_has_wrapped_rows(self):
        text = export_miqcp(pinned_instance("4-3-20"))
        assert any(line.startswith("   ") for line in text.splitlines())


class TestWrap:
    def test_exact_width_is_not_wrapped(self):
        line = " c1: " + "y" * 215
        assert len(line) == 220
        assert _wrap(line) == [line]

    def test_one_past_width_is_wrapped(self):
        # wrapping drops the leading space, after which this row fits
        line = " c1: " + "y " * 107 + "yy"
        assert len(line) == 221
        assert _wrap(line) == [line[1:]]
        assert _wrap(line + "y") == [line[1:-3], "   yyy"]

    def test_continuation_indent_and_greedy_fill(self):
        line = " r: " + " ".join(["abcd"] * 12)
        assert _wrap(line, width=20) == [
            "r: abcd abcd abcd",
            "   abcd abcd abcd",
            "   abcd abcd abcd",
            "   abcd abcd abcd",
        ]

    def test_first_line_drops_leading_space(self):
        out = _wrap(" r: " + "a " * 20, width=12)
        assert out[0] == "r: a a a a a"
        assert all(ln.startswith("   ") for ln in out[1:])

    def test_overlong_token_sits_alone(self):
        long = "t" * 30
        assert _wrap(f" r: a {long} b c", width=10) == ["r: a", f"   {long}", "   b c"]
        assert _wrap(f" {long} b", width=10) == [long, "   b"]

    def test_rejoins_to_the_row(self):
        line = " c9: " + " ".join(f"+ {i}.5 w_{i}" for i in range(200))
        out = _wrap(line)
        assert all(len(ln) <= 220 for ln in out)
        assert " " + " ".join(ln.strip() for ln in out) == line


class TestMechanicalSatisfaction:
    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    def test_small_plan_satisfies_every_row(self, form):
        inst, plan = builtin_fixture("small")
        model = parse_lp(form(inst))
        values = plan_assignment(inst, plan)
        assert check_assignment(model, values) == []
        assert model.objective_value(values) == SMALL_OPTIMUM

    @pytest.mark.parametrize("form", [export_miqcp, export_bigm])
    def test_medium_plan_violates_exactly_the_long_sortie(self, form):
        inst, plan = builtin_fixture("medium")
        model = parse_lp(form(inst))
        values = plan_assignment(inst, plan)
        violated = {v.split(":")[0] for v in check_assignment(model, values)}
        assert violated == {"c9_r0_k4"}

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_optimum_satisfies_models(self, seed):
        inst = generate(seed, 2, 1, 3, robot_range=200.0)
        try:
            report = solve_oracle(inst)
        except Exception:
            pytest.skip("no feasible plan for this seed")
        values = plan_assignment(inst, report.plan)
        for form in (export_miqcp, export_bigm):
            model = parse_lp(form(inst))
            assert check_assignment(model, values) == []
            assert model.objective_value(values) == report.objective


class TestVariableNames:
    def test_parse_inverts_every_model_name(self):
        inst, plan = builtin_fixture("small")
        builders = {"y": name_y, "x": name_x, "z": name_z, "w": name_w}
        for name in plan_assignment(inst, plan):
            kind, idx = parse_variable(name)
            if kind in builders:
                assert builders[kind](*idx) == name
            else:
                assert f"{kind}_{idx[0]}" == name

    @pytest.mark.parametrize("bad", ["y_1", "x_1_2", "q_1_2_3", "tc_x", "w_1_2_3", ""])
    def test_rejects_malformed_names(self, bad):
        with pytest.raises(ModelError):
            parse_variable(bad)


class TestPlanAssignment:
    def test_structural_mismatch_rejected(self):
        inst, _ = builtin_fixture("small")
        plan = RoutePlan(tour=(1, 2), sorties=(Sortie(robot=9, station=1, services=(0,)),))
        with pytest.raises(ModelError):
            plan_assignment(inst, plan)

    def test_times_are_propagated(self):
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        sched = propagate(inst, plan)
        for k in plan.tour:
            assert values[f"ta_{k}"] == sched.arrive[k]
            assert values[f"td_{k}"] == sched.depart[k]
        for c in inst.customers:
            assert values[f"tc_{c.id}"] == sched.complete[c.id]
            assert values[f"tt_{c.id}"] == sched.tardiness[c.id]

    def test_tour_arcs_form_cycle_through_depot(self):
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        arcs = [name for name in values if name.startswith("y_") and values[name] == 1.0]
        assert len(arcs) == len(plan.tour) + 1


class TestImportSolution:
    def test_round_trip(self):
        inst, plan = builtin_fixture("small")
        text = solution_text(plan_assignment(inst, plan))
        back, sched = import_solution(inst, text)
        assert serialize_plan(back) == serialize_plan(plan)
        assert sched.objective == SMALL_OPTIMUM

    def test_comments_and_blanks_ignored(self):
        inst, plan = builtin_fixture("small")
        body = solution_text(plan_assignment(inst, plan))
        text = "# solver log\n\\ more noise\n\n" + body + "\n"
        back, _ = import_solution(inst, text)
        assert serialize_plan(back) == serialize_plan(plan)

    def test_binary_noise_tolerated(self):
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        noisy = {
            k: (v + 5e-5 if not k[0] == "t" and v == 1.0 else v) for k, v in values.items()
        }
        back, _ = import_solution(inst, solution_text(noisy))
        assert serialize_plan(back) == serialize_plan(plan)

    @pytest.mark.parametrize("reported", [lambda t: t + 1.0, lambda t: math.nan],
                             ids=["off-by-one", "nan"])
    def test_time_mismatch_warns_but_imports(self, caplog, reported):
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        name = f"ta_{plan.tour[0]}"
        values[name] = reported(values[name])
        with caplog.at_level(logging.WARNING):
            back, sched = import_solution(inst, solution_text(values))
        assert serialize_plan(back) == serialize_plan(plan)
        assert sched.objective == SMALL_OPTIMUM
        assert any("propagation gives" in r.getMessage() for r in caplog.records)

    def _base_tour_lines(self):
        return ["y_0_1 1", "y_1_2 1", "y_2_0 1"]

    def _served_rest(self, inst, skip):
        # park every other customer on robot 1 at station 2 so coverage
        # holds while the case under test sits on robot 0 at station 1
        lines = []
        chain = [c.id for c in inst.customers if c.id not in skip]
        lines.append(f"x_1_2_{chain[0]} 1")
        for o, p in zip(chain, chain[1:]):
            lines.append(f"w_1_2_{o}_{p} 1")
        lines.append(f"z_1_{chain[-1]}_2 1")
        return lines

    def test_fractional_binary_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="fractional"):
            import_solution(inst, "y_0_1 0.5")

    def test_duplicate_variable_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="duplicate"):
            import_solution(inst, "y_0_1 1\ny_0_1 1")

    def test_unknown_variable_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="unknown variable"):
            import_solution(inst, "y_9_9 1")

    def test_bad_line_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="expected 'name value'"):
            import_solution(inst, "y_0_1")

    def test_bad_value_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="bad value"):
            import_solution(inst, "y_0_1 one")

    def test_two_outgoing_arcs_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="two outgoing"):
            import_solution(inst, "y_0_1 1\ny_0_2 1\ny_1_0 1")

    def test_wrong_arc_count_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="vehicle arcs"):
            import_solution(inst, "y_0_1 1")

    def test_revisit_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="revisits"):
            import_solution(inst, "y_0_1 1\ny_1_2 1\ny_2_1 1")

    def test_subtour_rejected(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(SolutionImportError, match="subtour"):
            import_solution(inst, "y_0_1 1\ny_1_0 1\ny_2_1 1")

    def test_two_first_services_rejected(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + ["x_0_1_0 1", "x_0_1_1 1"]
        with pytest.raises(SolutionImportError, match="first services"):
            import_solution(inst, "\n".join(lines))

    def test_dangling_chain_rejected(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + ["x_0_1_0 1"]
        with pytest.raises(SolutionImportError, match="dangles"):
            import_solution(inst, "\n".join(lines))

    def test_end_and_continue_rejected(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + ["x_0_1_0 1", "z_0_0_1 1", "w_0_1_0_1 1"]
        with pytest.raises(SolutionImportError, match="ends and continues"):
            import_solution(inst, "\n".join(lines))

    def test_branching_chain_rejected(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + ["x_0_1_0 1", "w_0_1_0_1 1", "w_0_1_0_2 1"]
        with pytest.raises(SolutionImportError, match="branches"):
            import_solution(inst, "\n".join(lines))

    def test_cyclic_chain_rejected(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + ["x_0_1_0 1", "w_0_1_0_1 1", "w_0_1_1_0 1"]
        with pytest.raises(SolutionImportError, match="cycles"):
            import_solution(inst, "\n".join(lines))

    def test_orphan_succession_rejected(self):
        # a succession whose head customer is not on the slot's chain
        # can never be walked, so it must be flagged
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        s0 = plan.sorties[0]
        outside = next(c.id for c in inst.customers if c.id not in s0.services)
        values[name_w(s0.robot, s0.station, outside, s0.services[0])] = 1.0
        with pytest.raises(SolutionImportError, match="belongs to no chain"):
            import_solution(inst, solution_text(values))

    @pytest.mark.parametrize(
        "value,message",
        [
            (1.0, "return z_0_6_2 is set but ends no chain"),
            (0.5, "z_0_6_2 = 0.5 is fractional; expected 0 or 1"),
        ],
    )
    def test_stray_return_rejected(self, value, message):
        # customer 6 is on robot 1's chain at station 2, and robot 0's
        # chain there ends at customer 1: no walked chain reads z_0_6_2
        inst, plan = builtin_fixture("small")
        assert Sortie(robot=1, station=2, services=(6,)) in plan.sorties
        assert Sortie(robot=0, station=2, services=(4, 2, 1)) in plan.sorties
        values = plan_assignment(inst, plan)
        values[name_z(0, 6, 2)] = value
        with pytest.raises(SolutionImportError) as err:
            import_solution(inst, solution_text(values))
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [1.0, 0.5, math.nan])
    def test_diagonal_succession_rejected(self, value):
        # both exports fix w_r_k_o_o to 0 in Bounds; the chain walk
        # never reads it, so it must be checked on its own
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        values[name_w(0, 2, 4, 4)] = value
        with pytest.raises(SolutionImportError) as err:
            import_solution(inst, solution_text(values))
        assert str(err.value) == (
            f"diagonal succession w_0_2_4_4 = {value}; a customer cannot succeed itself"
        )
        values[name_w(0, 2, 4, 4)] = 5e-5  # solver noise within BINARY_TOLERANCE
        back, _ = import_solution(inst, solution_text(values))
        assert serialize_plan(back) == serialize_plan(plan)

    def test_infeasible_plan_rejected(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + [
            "x_0_1_0 1",
            "z_0_0_1 1",
        ] + self._served_rest(inst, skip={0, 7})
        with pytest.raises(SolutionImportError, match="infeasible"):
            import_solution(inst, "\n".join(lines))

    def test_infeasible_plan_message_lists_every_violation(self):
        inst, _ = builtin_fixture("small")
        lines = self._base_tour_lines() + [
            "x_0_1_0 1",
            "z_0_0_1 1",
        ] + self._served_rest(inst, skip={0, 7})
        with pytest.raises(SolutionImportError) as err:
            import_solution(inst, "\n".join(lines))
        assert str(err.value) == (
            "imported plan is infeasible: customers [7] are never served; "
            "sortie (r1, S2, [1, 2, 3, 4, 5, 6]) has length 566.9816 > TR=200"
        )

    def test_over_range_plan_rejected_with_validate_text(self):
        inst, plan = builtin_fixture("medium")
        with pytest.raises(SolutionImportError) as err:
            import_solution(inst, solution_text(plan_assignment(inst, plan)))
        assert str(err.value) == (
            "imported plan is infeasible: sortie (r0, S4, [6, 0]) has length 160.7080 > TR=80"
        )
        assert [v.detail for v in validate(inst, plan)] == [
            "sortie (r0, S4, [6, 0]) has length 160.7080 > TR=80"
        ]

    @pytest.mark.parametrize("shape,seed", [((2, 2, 4), 1), ((4, 3, 20), 0)])
    def test_imported_schedule_equals_propagation(self, shape, seed):
        inst = generate(seed, *shape)
        plan = construct(inst, seed=seed)
        assert validate(inst, plan) == []
        back, sched = import_solution(inst, solution_text(plan_assignment(inst, plan)))
        want = propagate(inst, back)
        assert sched == want
        assert sched.objective == propagate(inst, plan).objective


class TestImportAgainstReference:
    """`import_solution` reads only the set binaries; the enumeration in
    tests/reference_import.py looks every binary up by name.  Both must
    give the same plan and schedule or the same error."""

    def assert_agree(self, inst, plan):
        values = plan_assignment(inst, plan)
        cases = [values, *corruptions(inst, values)]
        for case in cases:
            for text in (dense_text(case), binaries_text(case)):
                want = import_outcome(reference_import, inst, text)
                assert import_outcome(import_solution, inst, text) == want, text

    def test_tiny_corpus(self, tiny_corpus):
        for inst, report in tiny_corpus:
            self.assert_agree(inst, report.plan)

    @pytest.mark.parametrize("name", ["small", "medium"])
    def test_fixtures(self, name):
        self.assert_agree(*builtin_fixture(name))

    def test_fixture_errors_cover_every_check(self):
        # the corruptions reach the per-value, tour, chain and leftover checks
        inst, plan = builtin_fixture("small")
        values = plan_assignment(inst, plan)
        messages = {
            import_outcome(import_solution, inst, binaries_text(case))[1]
            for case in corruptions(inst, values)
        }
        for fragment in (
            "vehicle arcs",
            "dangles after",
            "belongs to no chain",
            "ends no chain",
            "fractional",
            "diagonal succession",
            "unknown variable",
        ):
            assert any(fragment in m for m in messages), fragment

    @pytest.mark.parametrize("shape", [(4, 3, 20), (6, 4, 40)])
    def test_binaries_only_file_matches_dense(self, shape, caplog):
        inst = generate(0, *shape)
        plan = construct(inst, seed=0)
        values = plan_assignment(inst, plan)
        dense = import_solution(inst, dense_text(values))
        with caplog.at_level(logging.WARNING):
            sparse = import_solution(inst, binaries_text(values))
        assert serialize_plan(sparse[0]) == serialize_plan(dense[0]) == serialize_plan(plan)
        assert sparse[1] == dense[1] == propagate(inst, plan)
        assert not any("propagation gives" in r.getMessage() for r in caplog.records)

    def test_name_check_one_by_one_matches_the_model_names(self):
        # each name, checked alone, is known exactly when the model
        # writes it
        inst = generate(0, 3, 2, 4)
        names = _Names(inst)
        model = names.every()
        odd = [
            "y_0_0", "y_2_2", "y_0_4", "y_4_0", "y_01_2", "y_+1_2", "y_-0_1", "y_1", "y_1_2_3",
            "x_2_1_0", "x_0_0_0", "x_0_1_4", "x_0_1_-1", "x_0_1_00", "z_0_1_0", "z_0_4_1",
            "w_0_1_4_0", "w_0_1_0_4", "w_1_3_3_3", "w_0_1_0_0_", "ta_0", "ta_4", "td_3",
            "tc_4", "tt_3", "tt_03", "tt", "t_1", "v_1_2", "y__1", "x_0_1_ 0", "Y_0_1",
        ]
        assert names.first_unknown(model) is None
        for name in odd:
            assert names.first_unknown([name]) == (None if name in model else name), name
        assert names.first_unknown([model[0], "y_0_0", model[1], "tt_9"]) == "y_0_0"


@pytest.mark.parametrize("shape, seed", [((2, 2, 4), 0), ((2, 2, 4), 2), ((2, 2, 4), 5), ((3, 2, 5), 2)])
def test_highs_optimum_of_bigm_export_is_the_bnb_optimum(shape, seed):
    """A real MILP solve of the export: HiGHS, through scipy, to a zero gap.

    Only objectives are compared: where a customer is on time, the big-M
    rows leave its times free above the tight schedule."""
    pytest.importorskip("scipy")
    inst = generate(seed, *shape)
    want = solve_bnb(inst).objective
    assert want > 0.0  # the relative comparison needs a nonzero optimum
    objective, values = solve_milp(parse_lp(export_bigm(inst)))
    assert math.isclose(objective, want, rel_tol=1e-9)
    text = "".join(f"{name} {value!r}\n" for name, value in values.items())
    _, schedule = import_solution(inst, text)
    assert math.isclose(schedule.objective, want, rel_tol=1e-9)


@pytest.mark.parametrize("form", [export_miqcp, export_bigm])
def test_external_milp_solver_agrees_with_oracle(form, tmp_path):
    """Optional integration: hand the export to a real MILP solver."""
    mip = pytest.importorskip("mip")
    inst = Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(1.0, 0.0)),),
        customers=(
            Customer(0, Point(1.5, 0.5), 1.0, 1.0),
            Customer(1, Point(1.0, 1.0), 0.5, 1.5),
        ),
        fleet_size=1,
        robot_range=10.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )
    if form is export_miqcp:
        pytest.skip("linear solver cannot take the quadratic form")
    path = tmp_path / "model.lp"
    path.write_text(form(inst))
    model = mip.Model()
    model.read(str(path))
    model.verbose = 0
    status = model.optimize()
    assert status == mip.OptimizationStatus.OPTIMAL
    assert math.isclose(model.objective_value, solve_oracle(inst).objective, abs_tol=1e-6)
