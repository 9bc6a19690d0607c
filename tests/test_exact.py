"""
Exact solvers: exhaustive oracle, branch and bound, bounds, budgets.

The oracle is cross-checked against a second enumerator written here
with a deliberately different strategy (assignment maps and sortie
permutations instead of recursive insertion), so a shared blind spot
would need the same bug in two independent code paths.
"""

import itertools
import math
import random
import time

import pytest

from mothership import (
    EPSILON,
    BudgetExhaustedError,
    Customer,
    EnumerationLimitError,
    InfeasibleInstanceError,
    Instance,
    ModelError,
    PlanEvaluator,
    Point,
    RoutePlan,
    SearchNode,
    SolveBudget,
    Sortie,
    Station,
    builtin_fixture,
    construct,
    generate,
    horizon,
    lower_bound,
    propagate,
    serialize_plan,
    solve_bnb,
    solve_oracle,
    sortie_length,
    validate,
)
from mothership import exact
from mothership.exact import (
    _canonical_plan,
    _chain_tail,
    _relaxed_contributions,
    _StepTables,
)

SMALL_OPTIMUM = 36.37122987569251


def single_customer_instance():
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(1.0, 0.0)),),
        customers=(Customer(0, Point(1.5, 0.5), 1.0, 1.0),),
        fleet_size=1,
        robot_range=10.0,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


def unpackable_instance():
    # each customer fits a sortie alone (6 and 8 against TR=9) but any
    # chain through both is at least 14, and one station with one robot
    # allows only a single sortie
    return Instance(
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


def one_station(points, fleet_size, robot_range):
    """One station on the depot, `fleet_size` robots, and customer o at
    `points[o]`, importance and deadline 1; unit speeds."""
    return Instance(
        depot=Point(0.0, 0.0),
        stations=(Station(1, Point(0.0, 0.0)),),
        customers=tuple(Customer(o, Point(*p), 1.0, 1.0) for o, p in enumerate(points)),
        fleet_size=fleet_size,
        robot_range=robot_range,
        vehicle_speed=1.0,
        robot_speed=1.0,
    )


def brute_force_optimum(instance):
    """Independent enumerator: tours x assignment maps x sortie orders."""
    ids = sorted(s.id for s in instance.stations)
    custs = [c.id for c in instance.customers]
    slots = [(k, r) for k in ids for r in range(instance.fleet_size)]
    best = math.inf
    for tour in itertools.permutations(ids):
        for assign in itertools.product(slots, repeat=len(custs)):
            members = {}
            for o, slot in zip(custs, assign):
                members.setdefault(slot, []).append(o)
            order_choices = [
                [(slot, perm) for perm in itertools.permutations(group)]
                for slot, group in members.items()
            ]
            for chosen in itertools.product(*order_choices):
                sorties = tuple(
                    Sortie(robot=r, station=k, services=perm) for (k, r), perm in chosen
                )
                plan = RoutePlan(tour=tour, sorties=sorties)
                if validate(instance, plan):
                    continue
                obj = propagate(instance, plan).objective
                if obj < best:
                    best = obj
    return best


class TestOracle:
    def test_single_customer_exact_value(self):
        report = solve_oracle(single_customer_instance())
        assert report.objective == 0.7071067811865475
        assert report.objective == 1.0 + math.hypot(0.5, 0.5) - 1.0
        assert report.plan.tour == (1,)
        assert report.plan.sorties == (Sortie(robot=0, station=1, services=(0,)),)
        assert report.status == "optimal"
        assert report.bound_gap is None

    def test_zero_customers_lex_smallest_tour(self):
        inst = Instance(
            depot=Point(0.0, 0.0),
            stations=(Station(1, Point(5.0, 0.0)), Station(2, Point(0.0, 5.0))),
            customers=(),
            fleet_size=1,
            robot_range=10.0,
            vehicle_speed=1.0,
            robot_speed=1.0,
        )
        report = solve_oracle(inst)
        assert report.objective == 0.0
        assert report.plan.tour == (1, 2)
        assert report.plan.sorties == ()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(2, 1, 2), (1, 2, 2), (2, 2, 3)])
    def test_matches_independent_enumerator(self, seed, shape):
        n_s, n_r, n_c = shape
        try:
            inst = generate(seed, n_s, n_r, n_c, robot_range=200.0)
        except InfeasibleInstanceError:
            pytest.skip("generator could not place customers for this seed")
        assert solve_oracle(inst).objective == brute_force_optimum(inst)

    def test_rejects_oversized_instance(self):
        inst, _ = builtin_fixture("small")
        with pytest.raises(EnumerationLimitError):
            solve_oracle(inst)

    def test_infeasible_instance(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_oracle(unpackable_instance())

    def test_deterministic(self):
        inst = generate(3, 2, 1, 3, robot_range=200.0)
        a = solve_oracle(inst)
        b = solve_oracle(inst)
        assert serialize_plan(a.plan) == serialize_plan(b.plan)
        assert a.objective == b.objective
        assert a.nodes == b.nodes


class TestBranchAndBound:
    def test_small_fixture_optimum_bit_exact(self):
        inst, plan = builtin_fixture("small")
        report = solve_bnb(inst)
        assert report.objective == SMALL_OPTIMUM
        assert report.status == "optimal"
        assert report.bound_gap is None
        assert serialize_plan(report.plan) == serialize_plan(plan)
        assert report.schedule.objective == report.objective

    def test_matches_oracle_on_corpus_sample(self, tiny_corpus):
        for inst, oracle_report in tiny_corpus[::10]:
            assert solve_bnb(inst).objective == oracle_report.objective

    def test_infeasible_instance(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_bnb(unpackable_instance())

    def test_budget_before_any_leaf_returns_the_best_dive(self):
        # 5 nodes reach no leaf of the 8 customers; the dives, which the
        # cap does not count, have already offered their plans
        inst = generate(0, 3, 2, 8)
        report = solve_bnb(inst, SolveBudget(max_nodes=5))
        assert report.status == "budget-exhausted"
        assert report.stats["dives"] == 6
        objective, key = min(reference_dives(inst))
        assert report.objective == objective > solve_bnb(inst).objective
        assert serialize_plan(report.plan) == key
        assert validate(inst, report.plan) == []
        # the tours not started yet are open at the root bound
        root_bound = math.fsum(_relaxed_contributions(inst, PlanEvaluator(inst)))
        assert report.bound_gap == report.objective - root_bound > 0.0

    def test_small_fixture_dives_return_plans(self):
        # the range is tight: placing each customer at its cheapest slot
        # strands one in both tours, and the dives backtrack to a plan;
        # the first undoes 11 placements, which an 11-node cap allows
        inst, _ = builtin_fixture("small")
        dives = reference_dives(inst)
        assert len(dives) == 2 and all(objective is not None for objective, _ in dives)
        report = solve_bnb(inst, SolveBudget(max_nodes=11))
        assert report.status == "budget-exhausted"
        assert (report.objective, serialize_plan(report.plan)) == min(dives)
        assert report.stats["dives"] == 2

    def test_node_cap_bounds_a_dive(self, monkeypatch):
        # the small fixture's first dive places its 8 customers in 19
        # placements (11 undos): a 10-node cap stops it before any plan
        inst, _ = builtin_fixture("small")
        nodes = []
        with pytest.raises(RuntimeError, match="before any feasible plan.* 18 placements"):
            solve_bnb(inst, SolveBudget(max_nodes=10), on_node=nodes.append)
        assert nodes == []
        # the first dive on (6,5,2,30) backtracks through bin states that
        # fail, exponential in number; a node cap alone stops it after a
        # placement per customer plus the cap
        inst = generate(6, 5, 2, 30)
        insert_all = exact._insert_all
        stops = []

        def counted(*args, stop, **kwargs):
            def read():
                stops.append(stop())
                return stops[-1]

            return insert_all(*args, stop=read, **kwargs)

        monkeypatch.setattr(exact, "_insert_all", counted)
        with pytest.raises(RuntimeError, match="before any feasible plan"):
            solve_bnb(inst, SolveBudget(max_nodes=1000), on_node=nodes.append)
        assert len(stops) == 30 + 1000 + 1 and stops[-1] and not any(stops[:-1])
        assert nodes == []

    def test_undo_cap_stops_a_dive_with_no_node_cap(self):
        # with no budget a dive may undo as many placements as
        # `construct` may; this first dive ran on past 15 s without that
        inst = generate(6, 5, 2, 30)
        started = time.perf_counter()
        with pytest.raises(BudgetExhaustedError, match="cap of 10030 placements"):
            solve_bnb(inst)
        assert time.perf_counter() - started < 5.0

    def test_undo_cap_on_a_later_dive_costs_only_its_rank(self, monkeypatch):
        # the first tour's dive of (2,2,8) seed 2 undoes nothing, the
        # second's undoes 2: with no undos allowed the second stops, its
        # tour is searched unranked, and the proof is the same
        inst = generate(2, 2, 2, 8)
        want = solve_bnb(inst)
        monkeypatch.setattr(exact, "CONSTRUCT_UNDOS", 0)
        report = solve_bnb(inst)
        assert report.status == "optimal" and report.stats["dives"] == 1
        assert (report.objective, serialize_plan(report.plan)) == (
            want.objective, serialize_plan(want.plan))

    def test_budget_before_any_plan(self, clock):
        # the clock passes the cap before the first dive has placed
        # three customers (one reading starts the run, one precedes
        # each placement): no plan is known, and no search node runs
        inst, _ = builtin_fixture("small")
        clock.step = 1.0
        nodes = []
        with pytest.raises(RuntimeError, match="before any feasible plan"):
            solve_bnb(inst, SolveBudget(max_seconds=2.5), on_node=nodes.append)
        assert nodes == []

    def test_time_cap_between_dives(self, clock, monkeypatch):
        # the clock passes the cap once the first dive is done: the
        # second stops before its first placement, and the first dive's
        # plan comes back with both tours open at the root bound
        inst, _ = builtin_fixture("small")
        insert_all = exact._insert_all
        built = []

        def then_late(*args, **kwargs):
            leaf = insert_all(*args, **kwargs)
            clock.now = 10.0
            return leaf

        class Counted(exact._IncrementalBound):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(exact, "_insert_all", then_late)
        monkeypatch.setattr(exact, "_IncrementalBound", Counted)
        nodes = []
        report = solve_bnb(inst, SolveBudget(max_seconds=1.0), on_node=nodes.append)
        assert report.status == "budget-exhausted"
        assert report.stats["dives"] == 1
        assert (report.objective, serialize_plan(report.plan)) == reference_dives(inst)[0]
        root_bound = math.fsum(_relaxed_contributions(inst, PlanEvaluator(inst)))
        assert report.bound_gap == report.objective - root_bound
        # the solve ends at the cap: no search node is counted, and the
        # only kernels built are the two dives'
        assert nodes == [] and report.nodes == 0 and len(built) == 2

    def test_time_cap_mid_search(self, clock):
        # the clock passes the cap at the first search node; it is read
        # every 64 nodes, so the search stops where a 64-node cap does
        inst, _ = builtin_fixture("small")

        def late(node):
            clock.now = 10.0

        timed = solve_bnb(inst, SolveBudget(max_seconds=1.0), on_node=late)
        capped = solve_bnb(inst, SolveBudget(max_nodes=64))
        assert timed.status == capped.status == "budget-exhausted"
        assert timed.nodes == capped.nodes
        assert timed.bound_gap == capped.bound_gap > 0.0
        assert serialize_plan(timed.plan) == serialize_plan(capped.plan)

    def test_budget_mid_search_returns_feasible_incumbent(self):
        # the proof takes 73 nodes; the cap stops the second tour's
        # search, so the gap is to a candidate left at an open level,
        # above the root bound of 0
        inst, _ = builtin_fixture("small")
        report = solve_bnb(inst, SolveBudget(max_nodes=60))
        assert report.status == "budget-exhausted"
        assert report.nodes == 60
        assert report.bound_gap == 34.7215613859352 < report.objective
        assert report.objective >= SMALL_OPTIMUM
        assert validate(inst, report.plan) == []

    @pytest.mark.parametrize(
        "name,cap,gap",
        [("4-3-12-s0", 1, 23.20512500951844), ("4-3-12-s0", 5, 23.20512500951844),
         ("4-3-12-s0", 100, 22.036948240620074), ("4-3-12-s0", 500, 14.064814864508032),
         ("6-3-12-s1", 50, 13.574304202714584), ("6-3-12-s1", 500, 11.255937968375942)],
    )
    def test_node_cap_ends_the_solve(self, name, cap, gap):
        # the node that reaches the cap is the last counted: no pending
        # candidate and no tour left is entered after it, and the gap is
        # to the least bound they leave open
        report = solve_bnb(search_case(name), SolveBudget(max_nodes=cap))
        assert report.status == "budget-exhausted"
        assert report.nodes == cap
        assert report.bound_gap == gap

    def test_budget_validation(self):
        with pytest.raises(ModelError):
            SolveBudget(max_nodes=0)
        with pytest.raises(ModelError):
            SolveBudget(max_seconds=0.0)
        with pytest.raises(ModelError):
            SolveBudget(max_seconds=math.nan)

    @pytest.mark.parametrize("kwargs", [{"max_seconds": "1"}, {"max_nodes": "5"},
                                        {"max_seconds": None, "max_nodes": [5]},
                                        {"max_nodes": 1.5}, {"max_nodes": math.inf}])
    def test_budget_rejects_caps_that_are_not_numbers(self, kwargs):
        # a string compared with a number raised TypeError; a node cap
        # that is no integer was let through (1.5 stopped at 2 nodes)
        with pytest.raises(ModelError, match="must be positive"):
            SolveBudget(**kwargs)

    def test_budget_rejects_nan_node_cap(self):
        # nan < 1 is false: a plain comparison let the cap through unfired
        with pytest.raises(ModelError, match="max_nodes"):
            SolveBudget(max_nodes=math.nan)

    def test_deterministic(self):
        inst, _ = builtin_fixture("small")
        a = solve_bnb(inst)
        b = solve_bnb(inst)
        assert serialize_plan(a.plan) == serialize_plan(b.plan)
        assert a.nodes == b.nodes

    def test_emitted_node_bounds_match_lower_bound(self):
        # the bound carried by an expanded node must agree with the
        # public recomputation; expanded nodes may exceed the global
        # optimum (those subtrees simply contain no optimal plan)
        inst, _ = builtin_fixture("small")
        nodes = []
        solve_bnb(inst, on_node=nodes.append)
        assert nodes
        for node in nodes[::7]:
            assert lower_bound(inst, node) == node.bound


def margin(best):
    """The incumbent plus the margin `solve_bnb` prunes against."""
    return best + 1e-12 * (1.0 + best)


def urgency_rank(instance):
    """Each customer's position in deadline-over-importance order."""
    c = instance.customers
    order = sorted(range(len(c)), key=lambda o: (c[o].deadline / c[o].importance, o))
    return {o: i for i, o in enumerate(order)}


class _Plain:
    """What the plain searches below share: the instance's tables, the
    slack order (deadline less the earliest conceivable completion, over
    importance), plan texts with each station's busy robots numbered by
    their most urgent customer, and candidates bounded from scratch with
    `PlanEvaluator.bound_of`."""

    def __init__(self, instance):
        ev = self.ev = PlanEvaluator(instance)
        self.n_c, self.n_r = instance.n_customers, instance.fleet_size
        self.range = instance.robot_range
        self.relax = _relaxed_contributions(instance, ev)
        self.root_bound = math.fsum(self.relax)
        self.station_ids = sorted(s.id for s in instance.stations)
        c = instance.customers
        early = [
            min(ev.depot_leg[k] / ev.vv + ev.sc[k][o] / ev.vr for k in self.station_ids)
            for o in range(self.n_c)
        ]
        self.order = sorted(
            range(self.n_c), key=lambda o: ((c[o].deadline - early[o]) / c[o].importance, o)
        )
        self.rank = urgency_rank(instance)

    def empty(self):
        return {k: [[] for _ in range(self.n_r)] for k in self.station_ids}

    def key(self, tour, groups):
        return serialize_plan(_canonical_plan(tour, groups, self.rank))

    def candidates(self, tour, groups, o):
        """(bound, ki, r, pos, station) of every slot for `o`, sorted."""
        out = []
        for ki, k in enumerate(tour):
            lists = groups[k]
            used = sum(1 for g in lists if g)
            for r in range(min(used + 1, self.n_r)):
                g = lists[r]
                if self.ev.group_length(k, g + [o]) > self.range + 1e-9:
                    continue
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    out.append((self.ev.bound_of(tour, groups, self.relax), ki, r, pos, k))
                    g.pop(pos)
        return sorted(out)


def sorted_order_search(instance):
    """The branch-and-bound search as it was before tours were ranked by
    a dive: tours in sorted order, each searched to the end, and a stop
    at the first plan that meets the root bound.  Returns (objective,
    serialize_plan text) of the plan it finds."""
    p = _Plain(instance)
    state = {"proved": False, "best": math.inf, "key": None}

    def assign(tour, idx, groups, node_bound):
        if idx == p.n_c:
            key = p.key(tour, groups)
            if node_bound < state["best"] or (node_bound == state["best"] and key < state["key"]):
                state["best"], state["key"] = node_bound, key
                if node_bound <= p.root_bound:
                    state["proved"] = True
            return
        o = p.order[idx]
        for bound, ki, r, pos, k in p.candidates(tour, groups, o):
            if state["proved"]:
                return
            if bound > margin(state["best"]):
                break
            groups[k][r].insert(pos, o)
            assign(tour, idx + 1, groups, bound)
            groups[k][r].pop(pos)

    for tour in itertools.permutations(p.station_ids):
        if state["proved"]:
            break
        assign(tour, 0, p.empty(), p.root_bound)
    return state["best"], state["key"]


def reference_dives(instance):
    """(objective, serialize_plan text) of each tour's dive, in sorted
    tour order: every customer, by slack, at its lowest-bound slot,
    and when a customer finds no slot, the last choice undone and the
    next slot tried.  The instance must be feasible."""
    p = _Plain(instance)
    out = []
    for tour in itertools.permutations(p.station_ids):
        groups = p.empty()

        def place(idx, objective):
            if idx == p.n_c:
                return objective
            o = p.order[idx]
            for bound, _, r, pos, k in p.candidates(tour, groups, o):
                groups[k][r].insert(pos, o)
                leaf = place(idx + 1, bound)
                if leaf is not None:
                    return leaf
                groups[k][r].pop(pos)
            return None

        objective = place(0, p.root_bound)
        out.append((objective, p.key(tour, groups)))
    return out


def reference_search(instance):
    """The branch-and-bound search of `solve_bnb`, written plainly: every
    candidate slot is inserted into the groups and bounded from scratch
    with `PlanEvaluator.bound_of`.  The dives are offered first; then
    each tour is searched to its end, one after another in order of
    (dive objective, tour); a plan at the root bound ends the search.
    At each node every unplaced customer's slots with a bound under the
    incumbent plus the margin are counted: a customer with none drops
    the node (the look-ahead), and the search branches on the customer
    with the fewest, ties to the earlier in slack order.
    Returns the expanded nodes in order, the node count, the best
    objective, the node count at which it was first reached, the
    serialize_plan text of the plan returned, the nodes the look-ahead
    dropped and the count of nodes whose branching customer had one
    slot."""
    p = _Plain(instance)
    emitted = []
    dropped = []
    state = {"nodes": 0, "proved": False, "best": math.inf, "key": None, "at": 0, "forced": 0}

    def offer(objective, key):
        if objective < state["best"]:
            state["at"] = state["nodes"]
        elif objective > state["best"] or (state["key"] is not None and key >= state["key"]):
            return
        state["best"], state["key"] = objective, key
        if objective <= p.root_bound:
            state["proved"] = True

    def assign(tour, rest, groups, node_bound):
        state["nodes"] += 1
        emitted.append(
            SearchNode(
                tour,
                tuple(
                    sorted(
                        (o, (k, r, pos))
                        for k, lists in groups.items()
                        for r, g in enumerate(lists)
                        for pos, o in enumerate(g)
                    )
                ),
                node_bound,
            )
        )
        if not rest:
            offer(node_bound, p.key(tour, groups))
            return
        limit = margin(state["best"])
        counted = []
        for rank, o in enumerate(rest):  # `rest` is in slack order
            slots = [c for c in p.candidates(tour, groups, o) if c[0] <= limit]
            if not slots:
                dropped.append(emitted[-1])
                return
            counted.append((len(slots), rank, o, slots))
        count, _, o, slots = min(counted)
        state["forced"] += count == 1
        for bound, ki, r, pos, k in slots:
            if state["proved"]:
                return
            if bound > margin(state["best"]):
                break
            groups[k][r].insert(pos, o)
            assign(tour, [b for b in rest if b != o], groups, bound)
            groups[k][r].pop(pos)

    tours = list(itertools.permutations(p.station_ids))
    dives = reference_dives(instance)
    for objective, key in dives:
        offer(objective, key)
        if state["proved"]:
            break
    rank = {tour: objective for tour, (objective, _) in zip(tours, dives)}
    for tour in sorted(tours, key=lambda t: (rank[t], t)):
        if state["proved"]:
            break
        assign(tour, p.order, p.empty(), p.root_bound)
    return (emitted, state["nodes"], state["best"], state["at"], state["key"], dropped,
            state["forced"])


def customers_on_stations(seed):
    """A (2,2,6) instance with about half its customers moved onto a
    station.  Zero-length legs let rounding shorten a chain that gained
    a customer: (d_a + d_b)/VR can round above d_a/VR + d_b/VR."""
    rnd = random.Random(seed)
    inst = generate(seed, 2, 2, 6, robot_speed=rnd.choice([0.3, 1.1, 3.0, 7.0]))
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


def search_case(name):
    """"small", "<stations>-<robots>-<customers>-s<seed>" for a generated
    instance, or "on-stations-s<seed>" for `customers_on_stations`."""
    if name == "small":
        return builtin_fixture("small")[0]
    head, seed = name.rsplit("-s", 1)
    if head == "on-stations":
        return customers_on_stations(int(seed))
    return generate(int(seed), *(int(n) for n in head.split("-")))


# (2,2,5) and (3,2,8), seeds 0-3, and customers on stations: the
# searches of seeds 0, 111 and 631 meet a chain that rounding shortened
# (the `ret < rets[r]` fallback of `probe`), and on each some such chain
# was the last back, so the departure drops (`shortened_chains` counts
# them); seed 2's robots are slow enough that the relaxed terms are far
# from 0; the searches of seeds 33 and 532 meet no shortened chain
SEARCH_CASES = (
    ["small"]
    + [f"{shape}-s{seed}" for shape in ("2-2-5", "3-2-8") for seed in range(4)]
    + [f"on-stations-s{seed}" for seed in (0, 2, 33, 111, 532, 631)]
)
SHORTENED_CASES = ("on-stations-s0", "on-stations-s111", "on-stations-s631")


def shortened_chains(instance, monkeypatch):
    """Solve `instance` and count the `probe` calls whose chain, with the
    customer inserted, returns before it did without (rounding on
    zero-length legs), and those of them where that chain was the last
    back, so the station's departure drops."""
    probe = exact._IncrementalBound.probe
    counts = [0, 0]

    def watched(kernel, st, ki, r, pos, o, limit):
        k = kernel.tour[ki]
        g = kernel.groups[k][r]
        before = st.chains[ki][r][pos - 1] if pos else 0.0
        _, ret = _chain_tail(kernel.first[k], kernel.step[k], g[:pos] + [o] + g[pos:], pos,
                             before, st.arrive[ki])
        if ret < st.returns[ki][r]:
            counts[0] += 1
            counts[1] += st.returns[ki][r] == st.depart[ki] > ret
        return probe(kernel, st, ki, r, pos, o, limit)

    with monkeypatch.context() as m:
        m.setattr(exact._IncrementalBound, "probe", watched)
        solve_bnb(instance)
    return tuple(counts)


def checked_slots(instance, monkeypatch, tamper=None):
    """Solve `instance` with `_IncrementalBound.slots` watched: each call
    is redone with no cap, and the slots it keeps are compared with the
    slots of `branch` whose bound is within the same limit.
    Returns the slots kept without a `probe` that `probe` drops, the
    slots the floors dropped that `probe` keeps, how many slots were
    kept without a `probe` and dropped without one, and the solve's node
    count.  With `tamper`, `slots` reads the lateness table `tamper`
    makes of the true one."""
    K = exact._IncrementalBound
    slots = K.slots
    wrongly_kept, wrongly_dropped = [], []
    unprobed = [0, 0]

    def watched(kernel, st, o, limit, cap, want=None):
        if want is not None:  # the greedy's window, which `TestCheapestWalk` checks
            return slots(kernel, st, o, limit, cap, want)
        if tamper is not None:
            st.carried = None  # built from scratch, not from a parent's tampered table
            st.lateness = tamper(kernel._lateness(st))
        probes = kernel.probes
        kept = slots(kernel, st, o, limit, math.inf)[0]
        probes = kernel.probes - probes
        certified = sum(found[0] is None for found in kept)
        every = kernel.branch(st, o)
        tried = len(every)
        candidates = [c for c in every if c[0] <= limit]
        unprobed[0] += certified
        # the slots in range, less those kept, less those a probe dropped
        unprobed[1] += tried - len(kept) - (probes - (len(kept) - certified))
        mine = {found[1:4] for found in kept}
        theirs = {found[1:4] for found in candidates}
        wrongly_kept.extend(mine - theirs)
        wrongly_dropped.extend(theirs - mine)
        return slots(kernel, st, o, limit, cap)

    with monkeypatch.context() as m:
        m.setattr(K, "slots", watched)
        nodes = solve_bnb(instance).nodes
    return wrongly_kept, wrongly_dropped, unprobed, nodes


SLOT_CASES = (*SEARCH_CASES, *(f"3-2-10-s{seed}" for seed in range(4)), "tiny-corpus")


def checked_case(name, monkeypatch, request):
    """`checked_slots` of a search case, or summed over the tiny corpus."""
    if name != "tiny-corpus":
        return checked_slots(search_case(name), monkeypatch)
    runs = [checked_slots(inst, monkeypatch) for inst, _ in request.getfixturevalue("tiny_corpus")]
    kept, dropped, unprobed, nodes = zip(*runs)
    return sum(kept, []), sum(dropped, []), [sum(n) for n in zip(*unprobed)], sum(nodes)


def assert_same_search(instance):
    """`solve_bnb` expands the nodes `reference_search` does, in the same
    order and with the same bounds, and reports its counts."""
    expected, nodes, best, at, _, dropped, forced = reference_search(instance)
    seen = []
    report = solve_bnb(instance, on_node=seen.append)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert got.tour_prefix == want.tour_prefix
        assert got.assigned == want.assigned
        assert got.bound == want.bound
    assert report.nodes == nodes
    assert report.objective == best
    assert report.stats["optimum_node"] == at
    assert report.stats["pruned_by_lookahead"] == len(dropped)
    assert report.stats["forced"] == forced


class TestIncrementalBound:
    """`solve_bnb` bounds candidates incrementally; the search it makes
    must be the one `bound_of` defines, bound for bound."""

    @pytest.mark.parametrize("name", SEARCH_CASES)
    def test_same_nodes_as_reference_search(self, name):
        assert_same_search(search_case(name))

    @pytest.mark.parametrize("name", SHORTENED_CASES)
    def test_search_meets_a_shortened_chain(self, name, monkeypatch):
        # what the comment on SEARCH_CASES says of these cases
        shortened, last_back = shortened_chains(search_case(name), monkeypatch)
        assert shortened >= last_back > 0

    @pytest.mark.parametrize("name", SLOT_CASES)
    def test_certified_slots_are_kept_by_probe(self, name, monkeypatch, request):
        # every slot `slots` keeps without a probe is one `probe` keeps
        wrongly_kept, _, (certified, _), nodes = checked_case(name, monkeypatch, request)
        assert wrongly_kept == []
        # only a solve that a dive ends at the root bound counts no slot
        assert certified > 0 or nodes == 0

    @pytest.mark.parametrize("name", SLOT_CASES)
    def test_floored_slots_are_dropped_by_probe(self, name, monkeypatch, request):
        # every slot a floor of `slots` rules out is one `probe` drops
        _, wrongly_dropped, (_, floored), nodes = checked_case(name, monkeypatch, request)
        assert wrongly_dropped == []
        assert floored > 0 or nodes == 0

    def test_a_certificate_without_the_later_stations_fails(self, monkeypatch):
        # the checks above have teeth for the certificate: leave out what
        # the later stations add, and slots `probe` drops are kept
        wrongly_kept, _, _, _ = checked_slots(
            search_case("3-2-8-s3"), monkeypatch,
            lambda table: [(0.0, [])] * len(table),
        )
        assert wrongly_kept

    def test_a_floor_counting_the_later_stations_twice_fails(self, monkeypatch):
        # and for the floors: count what the later stations add twice,
        # and slots `probe` keeps are dropped
        wrongly_kept, wrongly_dropped, _, _ = checked_slots(
            search_case("3-2-8-s3"), monkeypatch,
            lambda table: [table[0]] + [(2.0 * tardy, [(s, 2.0 * w) for s, w in slack])
                                        for tardy, slack in table[1:]],
        )
        assert wrongly_dropped and not wrongly_kept

    @pytest.mark.parametrize("seed,nodes", [(0, 1792), (1, 956), (2, 773), (3, 896)])
    def test_node_counts_pinned(self, seed, nodes):
        # the whole search record: a change that keeps the search keeps
        # every counter, so no decision moved; `counting_probes` is the
        # counting's cost, which moves with how it decides a slot, not
        # with which nodes go
        candidates, pruned, lookahead, probes, forced, rejected, incumbents, optimum_node = {
            0: (4216, 2430, 895, 9, 375, 1461, 19, 1033),
            1: (2606, 1656, 443, 1, 250, 556, 5, 121),
            2: (2193, 1426, 372, 4, 183, 307, 12, 399),
            3: (2155, 1265, 389, 19, 245, 621, 8, 762),
        }[seed]
        report = solve_bnb(generate(seed, 3, 2, 10))
        assert report.nodes == nodes
        assert report.stats == {
            "nodes": nodes, "candidates": candidates, "pruned_by_bound": pruned,
            "pruned_by_lookahead": lookahead, "counting_probes": probes, "forced": forced,
            "rejected_by_range": rejected, "dives": 6, "incumbents": incumbents,
            "optimum_node": optimum_node,
        }

    def test_node_counts_pinned_on_a_long_tour(self):
        # (3,3,14) seed 2: the best-ranked tour's search takes 8,930 of
        # the 18,434 nodes, and the other five tours are searched after
        # it, under its incumbent
        report = solve_bnb(generate(2, 3, 3, 14))
        assert report.objective == 22.720861773196773
        assert report.stats == {
            "nodes": 18434, "candidates": 62143, "pruned_by_bound": 43715,
            "pruned_by_lookahead": 9546, "counting_probes": 36, "forced": 3976,
            "rejected_by_range": 15999, "dives": 6, "incumbents": 30, "optimum_node": 14453,
        }

    def test_chain_tail_matches_completions(self):
        rnd = random.Random(5)
        for seed in range(6):
            inst = generate(seed, 3, 2, 9)
            ev = PlanEvaluator(inst)
            tables = _StepTables(ev)
            tour = [s.id for s in inst.stations]
            for _ in range(10):
                rnd.shuffle(tour)
                k = rnd.choice(tour)
                g = rnd.sample(range(inst.n_customers), rnd.randint(1, inst.n_customers))
                comp, arrive, depart = ev.completions(tour, {k: [g]})
                whole = [comp[o] for o in g]
                for j in range(len(g)):
                    before = whole[j - 1] if j else 0.0
                    tail, back = _chain_tail(
                        tables.first[k], tables.step[k], g, j, before, arrive[k]
                    )
                    assert whole[:j] + tail == whole
                    assert max(arrive[k], back) == depart[k]

    def test_stats_count_the_search(self):
        inst, _ = builtin_fixture("small")
        report = solve_bnb(inst)
        stats = report.stats
        assert set(stats) == {
            "nodes", "candidates", "pruned_by_bound", "pruned_by_lookahead", "counting_probes",
            "forced", "rejected_by_range", "dives", "incumbents", "optimum_node",
        }
        assert stats["nodes"] == report.nodes
        # two stations: 2 full tours as roots; every other node is a
        # candidate of the customer its parent branched on that was
        # entered, and every such candidate not entered was pruned by
        # the bound
        entered = report.nodes - 2
        assert stats["candidates"] == stats["pruned_by_bound"] + entered
        # the look-ahead drops 25 of the 73 nodes; counting the slots
        # spends 1 probe, and 21 nodes branch on a customer with 1 slot
        assert stats["pruned_by_lookahead"] == 25
        assert stats["counting_probes"] == 1
        assert stats["forced"] == 21
        assert stats["rejected_by_range"] > 0
        assert stats["dives"] == 2
        assert stats["incumbents"] == 5
        # the dives miss the optimum; the search reaches it at node 45
        assert stats["optimum_node"] == 45

    @pytest.mark.parametrize(
        "name", [f"2-2-5-s{seed}" for seed in (0, 2, 4, 5, 7, 8)]
        + [f"on-stations-s{seed}" for seed in (2, 33, 532, 111)],
    )
    def test_lookahead_drops_only_nodes_with_no_completion_under_the_incumbent(
        self, name, monkeypatch
    ):
        instance = search_case(name)
        seen, drops = [], []
        slots = exact._IncrementalBound.slots

        def watched(kernel, st, o, limit, cap, want=None):
            counted = slots(kernel, st, o, limit, cap, want)
            if not counted[0]:  # no slot: the node just expanded is dropped
                drops.append((seen[-1], limit))
            return counted

        monkeypatch.setattr(exact._IncrementalBound, "slots", watched)
        report = solve_bnb(instance, on_node=seen.append)
        assert drops and len(drops) == report.stats["pruned_by_lookahead"]
        for node, limit in drops:
            assert limit >= report.objective
            assert best_extension(instance, node) > limit

    def test_oracle_leaves_stats_empty(self):
        # improve fills its own counters (tests/test_heuristic.py)
        inst = generate(3, 2, 1, 3, robot_range=200.0)
        assert solve_oracle(inst).stats == {}


def range_verdict(instance, k, chain):
    """Whether `validate` finds `chain` at station `k` within range."""
    plan = RoutePlan(tuple(s.id for s in instance.stations), (Sortie(0, k, tuple(chain)),))
    return not any(v.kind == "range(9)" for v in validate(instance, plan))


class TestRangeCheck:
    def test_fits_agrees_with_validate_on_tiny_corpus(self, tiny_corpus):
        rnd = random.Random(11)
        verdicts = {True: 0, False: 0}
        for inst, _ in tiny_corpus:
            tables = _StepTables(PlanEvaluator(inst))
            for _ in range(5):
                k = rnd.choice(inst.stations).id
                chain = rnd.sample(range(inst.n_customers), rnd.randint(1, inst.n_customers))
                fits = tables.fits(k, chain)
                assert fits == range_verdict(inst, k, chain), (inst, k, chain)
                verdicts[fits] += 1
        assert verdicts[True] and verdicts[False], verdicts

    @pytest.mark.parametrize(
        "robot_range,fits", [(20.0, True), (20.0 - 5e-10, True), (20.0 - 2e-9, False)]
    )
    def test_chain_on_the_range_limit(self, robot_range, fits):
        # two customers 5 away: the sortie is 20 long, exactly on TR,
        # past TR but within TR + EPSILON, and past TR + EPSILON
        inst = one_station([(3.0, 4.0), (-4.0, 3.0)], 1, robot_range)
        assert sortie_length(inst, Sortie(0, 1, (0, 1))) == 20.0
        tables = _StepTables(PlanEvaluator(inst))
        assert tables.fits(1, [0, 1]) is fits
        assert range_verdict(inst, 1, [0, 1]) is fits


def chains_in_branch(kernel, st, o):
    """The (tour position, robot) chains `branch` offers `o` a slot in."""
    return {(ki, r) for _, ki, r, _, _ in kernel.branch(st, o)}


class TestCarriedRange:
    """`branch` decides range from each chain's carried length; its
    verdict must be `fits`'s, chain for chain."""

    @pytest.mark.parametrize(
        "instance",
        [generate(seed, 3, 2, 8, robot_range=60.0) for seed in range(3)]
        + [customers_on_stations(seed) for seed in (33, 532, 631)],
    )
    def test_carried_verdict_is_fits(self, instance):
        # chains grown in random insertion order; at every step every
        # unplaced customer is offered to every chain
        ev = PlanEvaluator(instance)
        tables = _StepTables(ev)
        rnd = random.Random(3)
        verdicts = {True: 0, False: 0}
        tour = [s.id for s in instance.stations]
        for _ in range(4):
            rnd.shuffle(tour)
            groups = {k: [[] for _ in range(instance.fleet_size)] for k in tour}
            kernel = exact._IncrementalBound(ev, tables, tour, groups)
            st = kernel.schedule([0.0] * instance.n_customers)
            todo = list(range(instance.n_customers))
            rnd.shuffle(todo)
            while todo:
                for ki, k in enumerate(tour):
                    for r, g in enumerate(groups[k]):
                        assert st.used[ki][r] == ev.group_length(k, g)
                for o in todo:
                    expected = set()
                    for ki, k in enumerate(tour):
                        lists = groups[k]
                        for r in range(min(sum(1 for g in lists if g) + 1, len(lists))):
                            fits = tables.fits(k, lists[r] + [o])
                            verdicts[fits] += 1
                            if fits:
                                expected.add((ki, r))
                    assert chains_in_branch(kernel, st, o) == expected
                o = todo.pop()
                candidates = kernel.branch(st, o)
                if not candidates:
                    break
                _, ki, r, pos, change = rnd.choice(candidates)
                groups[tour[ki]][r].insert(pos, o)
                st = kernel.child(st, ki, r, pos, change)
        assert verdicts[True] and verdicts[False], verdicts

    def test_schedule_carries_every_chain_length(self):
        # `improve` can leave an idle robot before a busy one: numbered
        # backwards, station 3 of (3,2,10) seed 3, with one busy robot,
        # gets that shape, and every chain's length, the idle one's
        # included, is carried
        inst = generate(3, 3, 2, 10)
        plan = construct(inst)
        n_r = inst.fleet_size
        groups = {k: [[] for _ in range(n_r)] for k in plan.tour}
        for s in plan.sorties:
            groups[s.station][n_r - 1 - s.robot] = list(s.services)
        assert any(not lists[0] and lists[1] for lists in groups.values())
        ev = PlanEvaluator(inst)
        kernel = exact._IncrementalBound(ev, _StepTables(ev), list(plan.tour), groups)
        st = kernel.schedule([0.0] * inst.n_customers)
        for ki, k in enumerate(plan.tour):
            for r, g in enumerate(groups[k]):
                assert st.used[ki][r] == ev.group_length(k, g)

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_length_on_the_cap_asks_fits(self, ulps, monkeypatch):
        # the `test_chain_on_the_range_limit` shape with TR + EPSILON
        # moved to within a few units in the last place of the chain's
        # length 20: the carried sum is not conclusive, so `fits` decides
        target = 20.0
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
        robot_range = 20.0 - EPSILON
        while robot_range + EPSILON != target:
            up = robot_range + EPSILON < target
            robot_range = math.nextafter(robot_range, math.inf if up else -math.inf)
        inst = one_station([(3.0, 4.0), (-4.0, 3.0)], 1, robot_range)
        tables = _StepTables(PlanEvaluator(inst))
        assert tables.cap == target
        asked = []
        fits = tables.fits
        monkeypatch.setattr(tables, "fits", lambda k, chain: asked.append(chain) or fits(k, chain))
        groups = {1: [[]]}
        kernel = exact._IncrementalBound(PlanEvaluator(inst), tables, [1], groups)
        st = kernel.schedule([0.0, 0.0])
        assert asked == []  # a lone customer's 10 is clear of the cap
        ((_, ki, r, pos, change),) = kernel.branch(st, 0)
        groups[1][0].insert(pos, 0)
        st = kernel.child(st, ki, r, pos, change)
        offered = chains_in_branch(kernel, st, 1)
        assert asked == [[0, 1]]
        assert offered == ({(0, 0)} if ulps >= 0 else set())
        assert range_verdict(inst, 1, [0, 1]) is (ulps >= 0)


def partial_states(instance, rnd, count):
    """`count` (kernel, schedule, unplaced customers) search states of
    `instance`: a shuffled tour and a random part of the customers
    placed one by one in random slots `branch` offers, the unplaced
    ones at their relaxed contribution, as in the B&B, or at 0.0, as
    in `construct`."""
    ev = PlanEvaluator(instance)
    tables = _StepTables(ev)
    relax = _relaxed_contributions(instance, ev)
    for i in range(count):
        tour = [s.id for s in instance.stations]
        rnd.shuffle(tour)
        groups = {k: [[] for _ in range(instance.fleet_size)] for k in tour}
        kernel = exact._IncrementalBound(ev, tables, tour, groups)
        st = kernel.schedule(relax if i % 2 else [0.0] * instance.n_customers)
        todo = list(range(instance.n_customers))
        rnd.shuffle(todo)
        for _ in range(rnd.randrange(len(todo))):
            candidates = kernel.branch(st, todo[-1])
            if not candidates:
                break
            _, ki, r, pos, change = rnd.choice(candidates)
            groups[tour[ki]][r].insert(pos, todo.pop())
            st = kernel.child(st, ki, r, pos, change)
        yield kernel, st, todo


def limits_near(bound, rnd):
    """The bound itself, the double just below it and two random limits
    around it."""
    return [bound, math.nextafter(bound, -math.inf),
            bound * rnd.uniform(0.5, 1.5), rnd.uniform(0.0, 2.0 * bound)]


class TestDropRule:
    """`probe` drops a slot as soon as its partial bound passes the
    limit; what it keeps and drops must be what the finished bound with
    no limit says."""

    @pytest.mark.parametrize("robot_range", [60.0, 200.0])
    def test_probe_is_none_exactly_past_the_limit(self, robot_range):
        rnd = random.Random(17)
        seen = {True: 0, False: 0}
        for seed in range(12):
            inst = generate(seed, 3, 2, 8, robot_range=robot_range)
            for kernel, st, todo in partial_states(inst, rnd, 2):
                for o in todo:
                    for full in kernel.branch(st, o):
                        bound, ki, r, pos, _ = full
                        for limit in limits_near(bound, rnd):
                            dropped = bound > limit
                            found = kernel.probe(st, ki, r, pos, o, limit)
                            assert found == (None if dropped else full)
                            seen[dropped] += 1
        assert seen[True] and seen[False], seen


class TestSearchOrder:
    """Ranking the tours by their dives and searching them one after
    another in that order changes which nodes the search visits, not
    the plan it returns: that is the plan of the search in
    sorted tour order, unless the optimum is the root bound; then it is
    the first plan met that reaches the bound, dives first."""

    @pytest.mark.parametrize("name", SEARCH_CASES)
    def test_same_plan_as_sorted_order_search(self, name):
        instance = search_case(name)
        report = solve_bnb(instance)
        assert (report.objective, serialize_plan(report.plan)) == sorted_order_search(instance)

    def test_same_plans_on_tiny_corpus(self, tiny_corpus):
        for inst, _ in tiny_corpus:
            report = solve_bnb(inst)
            want = sorted_order_search(inst)
            if want[0] == math.fsum(_relaxed_contributions(inst, PlanEvaluator(inst))):
                # the search stops at the first plan that meets the bound
                _, _, best, _, key, _, _ = reference_search(inst)
                want = best, key
            assert (report.objective, serialize_plan(report.plan)) == want

    @pytest.mark.parametrize("name", SEARCH_CASES)
    def test_urgency_order_returns_the_same_plan(self, name, monkeypatch):
        # the order in which the search places customers moves node
        # counts, not the plan: robots are numbered by urgency either way
        instance = search_case(name)
        want = solve_bnb(instance)
        monkeypatch.setattr(exact, "_slack", lambda instance, ev: exact._urgency(instance))
        report = solve_bnb(instance)
        assert (report.objective, serialize_plan(report.plan)) == (
            want.objective, serialize_plan(want.plan))

    @pytest.mark.parametrize(
        "name", [f"2-2-5-s{seed}" for seed in range(4)]
        + [f"on-stations-s{seed}" for seed in (2, 33, 532, 631)],
    )
    def test_least_plan_of_every_plan(self, name):
        # on-stations-s631 has two optimal plans whose objectives are
        # bit-equal, and an ancestor of the one with the smaller text
        # has a bound a few units in the last place above them: only the
        # margin keeps that ancestor once the other plan is the incumbent
        instance = search_case(name)
        report = solve_bnb(instance)
        objective, text = least_plan(instance)
        assert report.objective == objective
        if objective > math.fsum(_relaxed_contributions(instance, PlanEvaluator(instance))):
            assert serialize_plan(report.plan) == text
        else:  # (2,2,5) seeds 1 and 3: a plan at the root bound ends the search as found
            assert validate(instance, report.plan) == []

    @pytest.mark.parametrize("shape,seed", [((2, 2, 5), 26), ((3, 2, 5), 6), ((3, 2, 8), 26)])
    def test_a_dive_at_the_root_bound_ends_the_solve(self, shape, seed):
        # the optimum 0 equals the root bound and a dive reaches it: no
        # search node runs, and the plan is that dive's, not the one a
        # search over sorted tours stops at
        instance = generate(seed, *shape)
        report = solve_bnb(instance)
        root_bound = math.fsum(_relaxed_contributions(instance, PlanEvaluator(instance)))
        assert report.objective == 0.0 == root_bound
        assert report.nodes == 0 and report.stats["optimum_node"] == 0
        dive = next(key for objective, key in reference_dives(instance) if objective == 0.0)
        assert serialize_plan(report.plan) == dive != sorted_order_search(instance)[1]


def least_plan(instance):
    """Brute force: the least (objective, serialize_plan text) over every
    plan, each customer inserted in id order at every position of every
    chain within range (of the idle robots at a station, the first),
    with each station's busy robots numbered by their most urgent
    customer."""
    ev = PlanEvaluator(instance)
    rank = urgency_rank(instance)
    ids = sorted(s.id for s in instance.stations)
    n_c, n_r = instance.n_customers, instance.fleet_size
    zero = [0.0] * n_c
    best = (math.inf, None)

    def text(tour, groups):
        sorties = []
        for k in tour:
            busy = sorted((g for g in groups[k] if g), key=lambda g: min(rank[o] for o in g))
            sorties.extend(Sortie(r, k, tuple(g)) for r, g in enumerate(busy))
        return serialize_plan(RoutePlan(tuple(tour), tuple(sorties)))

    def place(tour, groups, o):
        nonlocal best
        if o == n_c:
            objective = ev.bound_of(tour, groups, zero)
            if objective <= best[0]:
                best = min(best, (objective, text(tour, groups)))
            return
        for k in tour:
            lists = groups[k]
            for r in range(min(sum(1 for g in lists if g) + 1, n_r)):
                g = lists[r]
                if ev.group_length(k, g + [o]) > instance.robot_range + EPSILON:
                    continue
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    place(tour, groups, o + 1)
                    g.pop(pos)

    for tour in itertools.permutations(ids):
        place(tour, {k: [[] for _ in range(n_r)] for k in ids}, 0)
    return best


def identical_customers(n, fits):
    """One station and one robot; `n` customers 1.5 away, with a range
    that fits `fits` of them in the one sortie."""
    return one_station([(1.5, 0.0)] * n, 1, 3.0 * fits + 1.0)


def sorties_of_legs(legs, robot_range):
    """One station and two robots; customer o is `legs[o]` away."""
    return one_station([(leg, 0.0) for leg in legs], 2, robot_range)


class TestCapacityCheck:
    @pytest.mark.parametrize("solver", [construct, solve_bnb, solve_oracle])
    def test_infeasible_by_capacity_fails_fast(self, solver):
        # without the check this shape takes factorial time (about 9x
        # per extra customer): every insertion order is retried
        inst = identical_customers(12, fits=11)
        started = time.perf_counter()
        with pytest.raises(InfeasibleInstanceError, match="more than the 1 sortie"):
            solver(inst)
        assert time.perf_counter() - started < 1.0

    def test_necessary_not_sufficient(self):
        # full capacity passes the check and is solved
        inst = identical_customers(4, fits=4)
        assert validate(inst, construct(inst)) == []
        assert solve_bnb(inst).status == "optimal"
        # ten customers 1 away fill two sorties of range 10 to the
        # limit: the count cut lets them through
        inst = sorties_of_legs([1.0] * 10, 10.0)
        assert validate(inst, construct(inst)) == []
        # doubled legs 6, 6, 6, 4, 4, 4 in two sorties of range 15: the
        # total need 30 fits the two sorties' 30 and three customers fit
        # one sortie, but no sortie's even length can be 15, so neither
        # reaches it; the search finds that out
        inst = sorties_of_legs([3.0] * 3 + [2.0] * 3, 15.0)
        exact.check_capacity(PlanEvaluator(inst))
        for solver in (construct, solve_bnb, solve_oracle):
            with pytest.raises(InfeasibleInstanceError, match="cannot be packed"):
                solver(inst)

    def test_bin_packing_fails_in_the_first_dive(self):
        # 7 customers 1 away and 4 at 2, range 15: every sortie length
        # is even, so no sortie reaches 15 and the need of 30 is never
        # met, yet both check_capacity cuts pass.  The first dive's
        # memo of failed bins settles it, before any search node; a
        # search that retries every order of the same bins takes tens
        # of seconds
        inst = sorties_of_legs([1.0] * 7 + [2.0] * 4, 15.0)
        exact.check_capacity(PlanEvaluator(inst))
        nodes = []
        started = time.perf_counter()
        with pytest.raises(InfeasibleInstanceError, match="cannot be packed"):
            solve_bnb(inst, on_node=nodes.append)
        assert nodes == []
        with pytest.raises(InfeasibleInstanceError, match="cannot be packed"):
            construct(inst)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("solver", ["construct-0", "construct-7", "solve_bnb", "solve_oracle"])
    def test_infeasible_by_count_fails_fast(self, solver):
        # 11 customers 1 away, range 11: the total need 22 fits the two
        # sorties' 22, but each sortie holds 5, so one is left over.
        # The count cut says so at once; without it the memo of failed
        # bins settles it in a few hundredths of a second, every seed
        inst = sorties_of_legs([1.0] * 11, 11.0)
        run = {
            "construct-0": lambda: construct(inst, 0),
            "construct-7": lambda: construct(inst, 7),
            "solve_bnb": lambda: solve_bnb(inst),
            "solve_oracle": lambda: solve_oracle(inst),
        }[solver]
        started = time.perf_counter()
        with pytest.raises(InfeasibleInstanceError, match="cannot be packed.* at most 5 each"):
            run()
        assert time.perf_counter() - started < 1.0


def optimal_path_nodes(plan):
    """Nodes whose subtree contains `plan`: truncate each sortie to a
    prefix, so positions stay gapless and relative order is preserved."""
    nodes = [SearchNode(tour_prefix=plan.tour, assigned=(), bound=0.0)]
    for cut in range(1, max((len(s.services) for s in plan.sorties), default=0) + 1):
        assigned = []
        for s in plan.sorties:
            for pos, o in enumerate(s.services[:cut]):
                assigned.append((o, (s.station, s.robot, pos)))
        nodes.append(SearchNode(plan.tour, tuple(sorted(assigned)), 0.0))
    return nodes


def best_extension(instance, node):
    """Exhaustive best completion of a node: insert every unassigned
    customer at every (station, robot, position) of every completion of
    the tour prefix, preserving the node's relative service order."""
    ids = sorted(s.id for s in instance.stations)
    rest = [k for k in ids if k not in node.tour_prefix]
    placed = {o for o, _ in node.assigned}
    todo = [c.id for c in instance.customers if c.id not in placed]
    best = math.inf

    def complete(tour, groups, idx):
        nonlocal best
        if idx == len(todo):
            sorties = tuple(
                Sortie(robot=r, station=k, services=tuple(g))
                for k in tour
                for r, g in enumerate(groups[k])
                if g
            )
            plan = RoutePlan(tour=tuple(tour), sorties=sorties)
            if not validate(instance, plan):
                best = min(best, propagate(instance, plan).objective)
            return
        o = todo[idx]
        for k in tour:
            for r in range(instance.fleet_size):
                g = groups[k][r]
                for pos in range(len(g) + 1):
                    g.insert(pos, o)
                    complete(tour, groups, idx + 1)
                    g.pop(pos)

    for tail in itertools.permutations(rest):
        tour = list(node.tour_prefix) + list(tail)
        groups = {k: [[] for _ in range(instance.fleet_size)] for k in ids}
        for o, (k, r, pos) in sorted(node.assigned, key=lambda item: item[1][2]):
            groups[k][r].insert(pos, o)
        complete(tour, groups, 0)
    return best


class TestLowerBound:
    def test_root_bound_is_relaxation(self):
        inst, _ = builtin_fixture("small")
        node = SearchNode(tour_prefix=(1, 2), assigned=(), bound=0.0)
        assert lower_bound(inst, node) <= SMALL_OPTIMUM

    def test_optimal_path_nodes_bounded_by_optimum(self):
        checked = 0
        for seed in (0, 1, 2, 5, 9):
            try:
                inst = generate(seed, 2, 1, 3, robot_range=200.0)
                report = solve_oracle(inst)
            except InfeasibleInstanceError:
                continue
            for node in optimal_path_nodes(report.plan):
                assert lower_bound(inst, node) <= report.objective
                checked += 1
        assert checked >= 8

    def test_admissible_against_enumerated_extensions(self):
        # line of defence for optimality: a node bound must never
        # exceed the best objective among the node's own completions
        rnd = random.Random(23)
        checked = 0
        for seed in range(6):
            try:
                inst = generate(seed, 2, 1, 3, robot_range=200.0)
            except InfeasibleInstanceError:
                continue
            ids = sorted(s.id for s in inst.stations)
            for _ in range(4):
                tour = ids[:]
                rnd.shuffle(tour)
                o = rnd.randrange(inst.n_customers)
                k = rnd.choice(tour)
                node = SearchNode(tuple(tour), ((o, (k, 0, 0)),), 0.0)
                value = best_extension(inst, node)
                if math.isinf(value):
                    continue
                assert lower_bound(inst, node) <= value
                checked += 1
        assert checked >= 10

    def test_full_assignment_equals_objective(self):
        inst, plan = builtin_fixture("small")
        assigned = []
        for s in plan.sorties:
            for pos, o in enumerate(s.services):
                assigned.append((o, (s.station, s.robot, pos)))
        node = SearchNode(tour_prefix=plan.tour, assigned=tuple(sorted(assigned)), bound=0.0)
        assert lower_bound(inst, node) == SMALL_OPTIMUM

    def test_station_outside_prefix_rejected(self):
        inst, _ = builtin_fixture("small")
        node = SearchNode(tour_prefix=(2,), assigned=((0, (1, 0, 0)),), bound=0.0)
        with pytest.raises(ModelError):
            lower_bound(inst, node)

    def test_duplicate_position_rejected(self):
        inst, _ = builtin_fixture("small")
        node = SearchNode(
            tour_prefix=(1, 2),
            assigned=((0, (1, 0, 0)), (1, (1, 0, 0))),
            bound=0.0,
        )
        with pytest.raises(ModelError):
            lower_bound(inst, node)

    def test_gapped_positions_rejected(self):
        inst, _ = builtin_fixture("small")
        node = SearchNode(
            tour_prefix=(1, 2),
            assigned=((0, (1, 0, 0)), (1, (1, 0, 2))),
            bound=0.0,
        )
        with pytest.raises(ModelError):
            lower_bound(inst, node)

    @pytest.mark.parametrize(
        "prefix, assigned, message",
        [
            ((1,), ((4, (1, 0, 0)),), "customer 4, which the instance does not have"),
            ((1,), ((-1, (1, 0, 0)),), "customer -1, which the instance does not have"),
            ((1,), ((0.0, (1, 0, 0)),), "customer 0.0, which the instance does not have"),
            ((1,), ((0, (1, 0, 0)), (0, (1, 0, 1))), "customer 0 twice"),
            ((1,), ((0, (1, 2, 0)),), "robot 2 outside the fleet"),
            ((1,), ((0, (1, -1, 0)),), "robot -1 outside the fleet"),
            ((1, 1), (), "repeats a station"),
            ((1, 2, 1), ((0, (2, 0, 0)),), "repeats a station"),
            ((1.5,), (), "unknown station id 1.5"),
            (("2",), (), "unknown station id '2'"),
        ],
    )
    def test_malformed_nodes_rejected(self, prefix, assigned, message):
        # each got past the checks: an IndexError or a number
        inst = generate(0, 2, 2, 4)
        with pytest.raises(ModelError, match=message):
            lower_bound(inst, SearchNode(prefix, assigned, 0.0))


class TestHorizon:
    def test_positive_on_fixtures(self):
        for name in ("small", "medium"):
            inst, _ = builtin_fixture(name)
            assert horizon(inst) > 0.0

    def test_dominates_fixture_schedules(self):
        for name in ("small", "medium"):
            inst, plan = builtin_fixture(name)
            sched = propagate(inst, plan)
            cap = horizon(inst) + 1e-9
            assert max(sched.depart.values()) <= cap
            assert max(sched.complete.values() or [0.0]) <= cap

    def test_dominates_random_plans(self):
        inst, _ = builtin_fixture("small")
        for plan in random_plans(inst, random.Random(11), 50):
            sched = propagate(inst, plan)
            assert max(sched.depart.values()) <= horizon(inst) + 1e-9

    def test_beyond_eight_stations_dominates_random_plans(self):
        # past 8 stations the ride is not the longest tour's but the
        # fsum of the n + 1 longest depot and station legs
        inst = generate(0, 9, 2, 6)
        cap = horizon(inst) + 1e-9
        for plan in random_plans(inst, random.Random(5), 200):
            sched = propagate(inst, plan)
            assert max(sched.depart.values()) <= cap


def random_plans(inst, rnd, count):
    """`count` plans of random tours with each customer on a random
    (station, robot) chain, range ignored."""
    ids = [s.id for s in inst.stations]
    for _ in range(count):
        tour = ids[:]
        rnd.shuffle(tour)
        slots = {}
        for c in inst.customers:
            slots.setdefault((rnd.choice(tour), rnd.randrange(inst.fleet_size)), []).append(c.id)
        yield RoutePlan(
            tour=tuple(tour),
            sorties=tuple(
                Sortie(robot=r, station=k, services=tuple(v)) for (k, r), v in sorted(slots.items())
            ),
        )
