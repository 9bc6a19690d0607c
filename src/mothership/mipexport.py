"""
Exact-model export (LP text) and solution import.

`export_miqcp` writes the mixed-integer model with its quadratic time
couplings intact; `export_bigm` writes the linearized variant in which
each quadratic row is replaced by big-M implications.  Both emit
CPLEX/Gurobi LP format.  Row names carry the constraint numbers used
throughout this package, which are defined in docs/MODEL.md.

`import_solution` reads a solver solution file ("name value" lines,
"#"-comments ignored), rebuilds the plan from the set binaries and
cross-checks the reported times against recomputed ones.
"""

from __future__ import annotations

import logging

from .evaluation import PlanEvaluator, _tight_schedule, distance, propagate, validate
from .exact import horizon
from .model import Instance, ModelError, RoutePlan, Schedule, Sortie

logger = logging.getLogger(__name__)

ARRIVAL_SPEEDS = ("vehicle", "robot")

TIME_MISMATCH_TOLERANCE = 1e-4
BINARY_TOLERANCE = 1e-4


class SolutionImportError(ValueError):
    """A solution file could not be turned into a feasible plan."""


# ---------------------------------------------------------------------------
# variable naming


def name_y(k: int, l: int) -> str:
    """Vehicle arc variable: travel from node k to node l (0 = depot)."""
    return f"y_{k}_{l}"


def name_x(r: int, k: int, o: int) -> str:
    """First-service variable: robot r starts its sortie at station k
    with customer o."""
    return f"x_{r}_{k}_{o}"


def name_z(r: int, o: int, k: int) -> str:
    """Last-service variable: robot r ends its sortie at station k
    with customer o."""
    return f"z_{r}_{o}_{k}"


def name_w(r: int, k: int, o: int, p: int) -> str:
    """Succession variable: robot r at station k serves p directly
    after o."""
    return f"w_{r}_{k}_{o}_{p}"


def parse_variable(name: str) -> tuple[str, tuple[int, ...]]:
    """Inverse of the name_* helpers; also covers the time variables.

    Returns (kind, indices) where kind is one of "y", "x", "z", "w",
    "ta", "td", "tc", "tt".
    """
    parts = name.split("_")
    kind = parts[0]
    arity = {"y": 2, "x": 3, "z": 3, "w": 4, "ta": 1, "td": 1, "tc": 1, "tt": 1}
    if kind not in arity or len(parts) != arity[kind] + 1:
        raise ModelError(f"unknown variable name {name!r}")
    try:
        idx = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ModelError(f"unknown variable name {name!r}") from None
    return kind, idx


class _Names:
    """Every model variable name of one instance, formatted once.

    Built per export, assignment or import call and dropped when it
    returns.  Stations are keyed by id, customers indexed by id (the
    ids are 0..n-1): `y[k][l]`, `x[r][k][o]`, `z[r][k][o]` (which is
    `name_z(r, o, k)`), `w[r][k][o][p]` (diagonal included), `ta[k]`,
    `td[k]`, `tc[o]`, `tt[o]`.
    """

    def __init__(self, instance: Instance):
        nodes = [0] + [s.id for s in instance.stations]
        stations = nodes[1:]
        customers = range(instance.n_customers)
        robots = range(instance.fleet_size)
        self.y = {k: {l: name_y(k, l) for l in nodes if l != k} for k in nodes}
        self.x = [{k: [name_x(r, k, o) for o in customers] for k in stations} for r in robots]
        self.z = [{k: [name_z(r, o, k) for o in customers] for k in stations} for r in robots]
        # name_w(r, k, o, "") is the head all of o's successions share
        ids = [str(p) for p in customers]
        self.w = [
            {
                k: [[head + p for p in ids] for head in [name_w(r, k, o, "") for o in customers]]
                for k in stations
            }
            for r in robots
        ]
        self.ta = {k: f"ta_{k}" for k in stations}
        self.td = {k: f"td_{k}" for k in stations}
        self.tc = [f"tc_{o}" for o in customers]
        self.tt = [f"tt_{o}" for o in customers]

    def binaries(self) -> list[str]:
        """The y, x, z and w names in emission order."""
        out = [n for row in self.y.values() for n in row.values()]
        out += [n for xr in self.x for xk in xr.values() for n in xk]
        for zr in self.z:  # name_z order: robot, customer, station
            out += [n for by_o in zip(*zr.values()) for n in by_o]
        out += [n for wr in self.w for wk in wr.values() for wo in wk for n in wo]
        return out

    def every(self) -> list[str]:
        """Every model variable in emission order: binaries, then times."""
        return [
            *self.binaries(),
            *self.ta.values(),
            *self.td.values(),
            *self.tc,
            *self.tt,
        ]

    def first_unknown(self, names) -> str | None:
        """The first of `names`, in order, that is no model variable,
        or None when all are; a name must be the text the model writes
        (`y_01_2` is not `y_1_2`)."""
        known = self.every()
        # the model's names are distinct: all of `names` are known iff
        # they hold as many of them as they have names
        if sum(map(names.__contains__, known)) == len(names):
            return None
        known = set(known)
        return next(name for name in names if name not in known)


# ---------------------------------------------------------------------------
# LP text assembly

_LINE_WIDTH = 220


def _num(v: float) -> str:
    """Full-precision literal; integers without a trailing .0."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _pack(text: str, width: int, indent: int) -> list[str]:
    """Greedy split of `text` at its spaces into pieces.

    Each piece takes as many whole space-separated tokens as fit: the
    first piece in `width` characters, later ones in `width - indent`
    (room for the caller's indent).  A token wider than its room is a
    piece of its own.
    """
    pieces = []
    start, room, n = 0, width, len(text)
    while n - start > room:
        end = text.rfind(" ", start, start + room + 1)
        if end < 0:  # the first token alone is too wide
            end = text.find(" ", start)
            if end < 0:
                break
        pieces.append(text[start:end])
        start = end + 1
        room = width - indent
    pieces.append(text[start:])
    return pieces


def _wrap(line: str, width: int = _LINE_WIDTH) -> list[str]:
    """Split one logical row onto continuation lines between tokens.

    A wrapped row's first line drops the row's leading space;
    continuation lines are indented 3 spaces.
    """
    if len(line) <= width:
        return [line]
    first, *rest = _pack(line.lstrip(" "), width, 3)
    return [first, *["   " + piece for piece in rest]]


class _Model:
    """Accumulates LP sections before rendering.

    Every coefficient's text comes from `leads`, rendered once per
    distinct value and model; every row goes through `add`, which wraps
    it.
    """

    def __init__(self):
        self.header: list[str] = []
        self.objective: list[tuple[float, str]] = []
        self.rows: list[str] = []  # already-rendered constraint lines
        self.bounds: list[str] = []
        self.binaries: list[str] = []
        self._leads: dict[float, tuple[str, str]] = {}

    def comment(self, text: str = ""):
        self.rows.append(rf"\ {text}" if text else "\\")

    def note(self, text: str = ""):
        """Header comment, rendered before the objective."""
        self.header.append(rf"\ {text}" if text else "\\")

    def leads(self, coef: float) -> tuple[str, str]:
        """The text before a variable with coefficient `coef`, as the
        first term of a row and after another term: ('', '+ ') for 1,
        ('- 2.5 ', '- 2.5 ') for -2.5."""
        pair = self._leads.get(coef)
        if pair is None:
            mag = "" if abs(coef) == 1.0 else _num(abs(coef)) + " "
            pair = ("- " + mag,) * 2 if coef < 0 else (mag, "+ " + mag)
            self._leads[coef] = pair
        return pair

    def terms(self, linear) -> str:
        """Terms of [(coef, var)], zero coefficients left out."""
        kept = [(coef, var) for coef, var in linear if coef != 0.0]
        if not kept:
            return ""
        known, leads = self._leads, self.leads
        pieces = [(known.get(coef) or leads(coef))[1] + var for coef, var in kept]
        coef, var = kept[0]
        pieces[0] = leads(coef)[0] + var
        return " ".join(pieces)

    def group(self, coef: float, names, first: bool = False) -> str:
        """Terms of `names`, each with coefficient `coef` (not zero)."""
        head, later = self.leads(coef)
        return (head if first else later) + (" " + later).join(names)

    def add(self, line: str):
        """One rendered row, wrapped when too wide."""
        if len(line) <= _LINE_WIDTH:
            self.rows.append(line)
        else:
            self.rows.extend(_wrap(line))

    def row(self, rname: str, linear, quad, sense: str, rhs: float):
        """One constraint; `linear` is [(coef, var)], `quad` is
        [(coef, var_a, var_b)] rendered inside a single bracket."""
        body = self.terms(linear)
        if quad:
            inner = self.terms([(coef, f"{a} * {b}") for coef, a, b in quad])
            body = f"{body} + [ {inner} ]" if body else f"[ {inner} ]"
        if not body:
            raise ModelError(f"row {rname} has no terms")
        self.add(f" {rname}: {body} {sense} {_num(rhs)}")

    def render(self) -> str:
        out = list(self.header)
        out.append("Minimize")
        leads = self.leads
        obj = [leads(coef)[1 if i else 0] + var for i, (coef, var) in enumerate(self.objective)]
        out.extend(_wrap(" obj: " + " ".join(obj)))
        out.append("Subject To")
        out.extend(self.rows)
        if self.bounds:
            out.append("Bounds")
            out.extend(self.bounds)
        out.append("Binaries")
        out.extend(" " + piece for piece in _pack(" ".join(self.binaries), _LINE_WIDTH, 0))
        out.append("End")
        out.append("")  # the text ends with a newline
        return "\n".join(out)


def _distance_comments(model: _Model, instance: Instance, ev: PlanEvaluator):
    model.note("distances (Euclidean):")
    parts = [f"L_0,{k}={_num(v)}" for k, v in sorted(ev.depot_leg.items())]
    for chunk in _chunks(parts, 6):
        model.note("  depot-station: " + "  ".join(chunk))
    parts = [f"L_{k},{l}={_num(v)}" for (k, l), v in sorted(ev.ss.items()) if k < l]
    for chunk in _chunks(parts, 6):
        model.note("  station-station: " + "  ".join(chunk))
    parts = [f"L_{k},C{o}={_num(v)}" for k in sorted(ev.sc) for o, v in enumerate(ev.sc[k])]
    for chunk in _chunks(parts, 4):
        model.note("  station-customer: " + "  ".join(chunk))
    # the solvers never need these, so no table holds them
    customers = instance.customers  # indexed by id
    parts = [
        f"L_C{a.id},C{b.id}={_num(distance(a.location, b.location))}"
        for i, a in enumerate(customers)
        for b in customers[i + 1 :]
    ]
    if parts:
        model.note("  customer-customer (no constraint uses these; for reference):")
    for chunk in _chunks(parts, 4):
        model.note("    " + "  ".join(chunk))


def _chunks(seq, n):
    for i in range(0, len(seq), n):
        yield seq[i : i + n]


def _common_header(model: _Model, instance: Instance, form: str, arrival_speed: str):
    ns, nr, nc = instance.n_stations, instance.fleet_size, instance.n_customers
    n_bin = (ns + 1) * ns + 2 * nr * ns * nc + nr * ns * nc * nc
    model.note(f"{form} export of the routing model")
    model.note(
        f"instance: {ns} stations, {nr} robots, {nc} customers, "
        f"range={_num(instance.robot_range)}, vehicle_speed={_num(instance.vehicle_speed)}, "
        f"robot_speed={_num(instance.robot_speed)}"
    )
    model.note(
        f"binaries: {n_bin} (y {(ns + 1) * ns}, x {nr * ns * nc}, "
        f"z {nr * ns * nc}, w {nr * ns * nc * nc}); continuous times: {2 * ns + 2 * nc}"
    )
    model.note("row names follow the constraint numbering in docs/MODEL.md")
    model.note("depot departure time is 0 and substituted out of rows (12), (13)")
    if arrival_speed == "robot":
        model.note(
            "arrival rows (13) divide vehicle legs by the robot speed"
            " (arrival_speed='robot'); the default divides by the vehicle speed"
        )
    if nc:
        model.note(
            "w_r_k_o_o variables are declared for completeness and fixed to 0 in Bounds"
        )


def _check_arrival_speed(arrival_speed: str) -> None:
    if arrival_speed not in ARRIVAL_SPEEDS:
        raise ModelError(
            f"arrival_speed must be one of {ARRIVAL_SPEEDS}, got {arrival_speed!r}"
        )


def _emit_linear_core(model: _Model, instance: Instance, ev: PlanEvaluator, names: _Names):
    """Rows (1)-(11): pure-binary structure shared by both forms."""
    stations = [s.id for s in instance.stations]
    customers = range(instance.n_customers)
    robots = range(instance.fleet_size)
    nodes = [0] + stations
    y, x, z, w = names.y, names.x, names.z, names.w
    add, group = model.add, model.group

    model.comment("(1),(2) the vehicle leaves and re-enters the depot once")
    add(f" c1: {group(1.0, [y[0][k] for k in stations], True)} = 1")
    add(f" c2: {group(1.0, [y[k][0] for k in stations], True)} = 1")

    model.comment("(3),(4) every station is entered once and left once")
    for k in stations:
        add(f" c3_k{k}: {group(1.0, [y[l][k] for l in nodes if l != k], True)} = 1")
    for k in stations:
        add(f" c4_k{k}: {group(1.0, [y[k][l] for l in nodes if l != k], True)} = 1")

    if not customers:
        return

    model.comment("(5),(6) per robot and station: at most one first / last service")
    for r in robots:
        for k in stations:
            add(f" c5_r{r}_k{k}: {group(1.0, x[r][k], True)} <= 1")
    for r in robots:
        for k in stations:
            add(f" c6_r{r}_k{k}: {group(1.0, z[r][k], True)} <= 1")

    model.comment("(7) a sortie that starts must end (per robot and station)")
    for r in robots:
        for k in stations:
            add(f" c7_r{r}_k{k}: {group(1.0, x[r][k], True)} {group(-1.0, z[r][k])} = 0")

    model.comment("(8) service chain continuity at each (station, robot, customer)")
    for k in stations:
        for r in robots:
            wk = w[r][k]
            preds = list(zip(*wk))  # preds[o][p] is wk[p][o]
            for o in customers:
                into = [x[r][k][o], *preds[o][:o], *preds[o][o + 1 :]]
                out = [*wk[o][:o], *wk[o][o + 1 :], z[r][k][o]]
                add(f" c8_k{k}_r{r}_o{o}: {group(1.0, into, True)} {group(-1.0, out)} = 0")

    model.comment("(9) sortie length within robot range (per robot and station)")
    # the coefficients depend on the station only
    lengths = {}
    for k in stations:
        d = ev.sc[k]
        coefs = [v for o in customers for v in (d[o], d[o])]
        coefs += [d[o] + d[p] for o in customers for p in customers if p != o]
        lengths[k] = coefs
    for r in robots:
        for k in stations:
            if not any(lengths[k]):
                # every customer sits on station k: the row reads 0 <= TR
                continue
            terms = [v for o in customers for v in (x[r][k][o], z[r][k][o])]
            terms += [wp for o in customers for p, wp in enumerate(w[r][k][o]) if p != o]
            model.row(f"c9_r{r}_k{k}", zip(lengths[k], terms), [], "<=", instance.robot_range)

    model.comment("(10),(11) every customer enters and leaves exactly one chain")
    for o in customers:
        into = [x[r][k][o] for r in robots for k in stations]
        into += [
            w[r][k][p][o] for r in robots for k in stations for p in customers if p != o
        ]
        add(f" c10_o{o}: {group(1.0, into, True)} = 1")
    for o in customers:
        out = [z[r][k][o] for r in robots for k in stations]
        out += [
            wp for r in robots for k in stations for p, wp in enumerate(w[r][k][o]) if p != o
        ]
        add(f" c11_o{o}: {group(1.0, out, True)} = 1")


def _emit_objective(model: _Model, instance: Instance, names: _Names):
    model.objective = [(c.importance, names.tt[c.id]) for c in instance.customers]
    if not model.objective:
        model.objective = [(0.0, names.y[0][instance.stations[0].id])]


def _emit_departure_order(model: _Model, instance: Instance, names: _Names):
    model.comment("(14) the vehicle cannot leave before it arrives")
    for s in instance.stations:
        k = s.id
        model.row(f"c14_k{k}", [(1.0, names.td[k]), (-1.0, names.ta[k])], [], ">=", 0.0)


def _emit_tardiness(model: _Model, instance: Instance, names: _Names):
    model.comment("(17) tardiness is completion past the deadline, floored at 0")
    for c in instance.customers:
        o = c.id
        model.row(f"c17_o{o}", [(1.0, names.tt[o]), (-1.0, names.tc[o])], [], ">=", -c.deadline)


def _emit_tail(model: _Model, instance: Instance, names: _Names, bound: float | None):
    """Bounds (w diagonal, optional time caps) and the Binaries list."""
    stations = [s.id for s in instance.stations]
    customers = range(instance.n_customers)
    for wr in names.w:
        for k in stations:
            model.bounds.extend([f" {wr[k][o][o]} = 0" for o in customers])
    if bound is not None:
        cap = _num(bound)
        for block in (names.ta.values(), names.td.values(), names.tc, names.tt):
            model.bounds.extend([f" {n} <= {cap}" for n in block])
    model.binaries = names.binaries()


def _pair_rhs(ride: float, big_m: float) -> tuple[str, str]:
    """Right-hand sides of a big-M implication pair: ride + M, ride - M."""
    return _num(ride + big_m), _num(ride - big_m)


def _vehicle_leg_speed(instance: Instance, arrival_speed: str) -> float:
    return instance.vehicle_speed if arrival_speed == "vehicle" else instance.robot_speed


def export_miqcp(instance: Instance, arrival_speed: str = "vehicle") -> str:
    """Render the model with quadratic time-coupling rows.

    Rows (13), (15) and (16) multiply binaries with time variables and
    are emitted as single rows with one quadratic bracket each; (13)
    and (15) are quadratic equalities, which some solvers only accept
    split into a <= and a >= row, and nonconvex handling must be
    enabled where required (for example Gurobi's NonConvex parameter).
    """
    _check_arrival_speed(arrival_speed)
    ev = PlanEvaluator(instance)
    names = _Names(instance)
    stations = [s.id for s in instance.stations]
    customers = range(instance.n_customers)
    robots = range(instance.fleet_size)
    vv = _vehicle_leg_speed(instance, arrival_speed)
    vr = instance.robot_speed
    y, x, z, w = names.y, names.x, names.z, names.w
    ta, td, tc = names.ta, names.td, names.tc

    model = _Model()
    _common_header(model, instance, "MIQCP", arrival_speed)
    model.note(
        "quadratic equalities below are single rows; split each into <= and >="
        " for solvers that reject '=' on quadratic constraints"
    )
    _distance_comments(model, instance, ev)
    _emit_objective(model, instance, names)
    _emit_linear_core(model, instance, ev, names)

    model.comment("(13) arrival time = departure of the predecessor + ride time")
    for k in stations:
        lin = [(1.0, ta[k])]
        lin.append((-ev.depot_leg[k] / vv, y[0][k]))
        quad = []
        for l in stations:
            if l == k:
                continue
            lin.append((-ev.ss[(l, k)] / vv, y[l][k]))
            quad.append((-1.0, y[l][k], td[l]))
        model.row(f"c13_k{k}", lin, quad, "=", 0.0)

    _emit_departure_order(model, instance, names)

    model.comment("(15) completion time: first service from arrival, later")
    model.comment("     services from the predecessor's completion")
    for p in customers:
        lin = [(1.0, tc[p])]
        quad = []
        for r in robots:
            for k in stations:
                xp = x[r][k][p]
                lin.append((-ev.sc[k][p] / vr, xp))
                quad.append((-1.0, xp, ta[k]))
                for o in customers:
                    if o == p:
                        continue
                    ride = (ev.sc[k][o] + ev.sc[k][p]) / vr
                    wp = w[r][k][o][p]
                    lin.append((-ride, wp))
                    quad.append((-1.0, wp, tc[o]))
        model.row(f"c15_o{p}", lin, quad, "=", 0.0)

    model.comment("(16) departure waits for every robot's last return")
    for k in stations:
        for r in robots:
            for o in customers:
                lin = [(1.0, td[k]), (-ev.sc[k][o] / vr, z[r][k][o])]
                quad = [(-1.0, z[r][k][o], tc[o])]
                model.row(f"c16_k{k}_r{r}_o{o}", lin, quad, ">=", 0.0)

    _emit_tardiness(model, instance, names)
    _emit_tail(model, instance, names, bound=None)
    return model.render()


def export_bigm(instance: Instance, arrival_speed: str = "vehicle") -> str:
    """Render the linearized model: quadratic rows become big-M pairs.

    M is the schedule horizon plus the largest possible single jump of
    the right-hand sides (one vehicle leg time plus one out-and-back
    robot pair time), which keeps every deactivated implication slack
    for any schedule within the horizon.  Time variables are capped at
    the horizon in Bounds; that removes only schedules with avoidable
    waiting, never the tight optimum.
    """
    _check_arrival_speed(arrival_speed)
    ev = PlanEvaluator(instance)
    names = _Names(instance)
    stations = [s.id for s in instance.stations]
    customers = range(instance.n_customers)
    robots = range(instance.fleet_size)
    vv = _vehicle_leg_speed(instance, arrival_speed)
    vr = instance.robot_speed
    y, x, z, w = names.y, names.x, names.z, names.w
    ta, td, tc = names.ta, names.td, names.tc

    h = horizon(instance)
    max_vehicle_leg = max(
        [ev.depot_leg[k] / vv for k in stations]
        + [
            ev.ss[(k, l)] / vv
            for k in stations
            for l in stations
            if k != l
        ]
    )
    max_robot_leg = max(map(max, ev.sc.values())) / vr if customers else 0.0
    big_m = h + max_vehicle_leg + 2.0 * max_robot_leg
    parts = (
        f"horizon {_num(h)}",
        f"max vehicle leg time {_num(max_vehicle_leg)}",
        f"2 * max robot leg time {_num(max_robot_leg)}",
    )
    if big_m > 0.0:
        m_note = f"M = {_num(big_m)} = " + " + ".join(parts)
    else:
        # every place coincides, so every time is 0 and any positive M
        # leaves a deactivated implication slack
        big_m = 1.0
        m_note = "M = 1, since " + ", ".join(parts) + " are all 0"

    model = _Model()
    _common_header(model, instance, "big-M MILP", arrival_speed)
    model.note(m_note)
    model.note("time variables are capped at the horizon in Bounds")
    _distance_comments(model, instance, ev)
    _emit_objective(model, instance, names)
    _emit_linear_core(model, instance, ev, names)

    model.comment("(13) arrival time propagation, as two implications per arc")
    for k in stations:
        ride = ev.depot_leg[k] / vv
        model.row(f"c13a_l0_k{k}", [(1.0, ta[k]), (big_m, y[0][k])], [], "<=", ride + big_m)
        model.row(f"c13b_l0_k{k}", [(1.0, ta[k]), (-big_m, y[0][k])], [], ">=", ride - big_m)
        for l in stations:
            if l == k:
                continue
            ride = ev.ss[(l, k)] / vv
            model.row(
                f"c13a_l{l}_k{k}",
                [(1.0, ta[k]), (-1.0, td[l]), (big_m, y[l][k])],
                [],
                "<=",
                ride + big_m,
            )
            model.row(
                f"c13b_l{l}_k{k}",
                [(1.0, ta[k]), (-1.0, td[l]), (-big_m, y[l][k])],
                [],
                ">=",
                ride - big_m,
            )

    _emit_departure_order(model, instance, names)

    # M > 0, so every (15) and (16) row has all three terms, and their
    # text is put together here from `leads`.
    one = model.leads(1.0)[0]
    minus = model.leads(-1.0)[1]
    plus_m = model.leads(big_m)[1]
    minus_m = model.leads(-big_m)[1]
    add = model.add

    model.comment("(15) completion time propagation, two implications per")
    model.comment("     first-service and per succession variable")
    d = ev.sc
    for p in customers:
        tcp = tc[p]
        # right-hand sides per (station, predecessor), shared by the robots
        first_rhs = {k: _pair_rhs(d[k][p] / vr, big_m) for k in stations}
        pair_rhs = {
            k: [_pair_rhs((d[k][o] + d[k][p]) / vr, big_m) for o in customers] for k in stations
        }
        for r in robots:
            for k in stations:
                base = f"_o{p}_r{r}_k{k}"
                xp, tak = x[r][k][p], ta[k]
                upper, lower = first_rhs[k]
                add(f" c15a_x{base}: {one}{tcp} {minus}{tak} {plus_m}{xp} <= {upper}")
                add(f" c15b_x{base}: {one}{tcp} {minus}{tak} {minus_m}{xp} >= {lower}")
                wk, rhs = w[r][k], pair_rhs[k]
                for o in customers:
                    if o == p:
                        continue
                    pair = f"{base}_p{o}"
                    wp, tco = wk[o][p], tc[o]
                    upper, lower = rhs[o]
                    add(f" c15a_w{pair}: {one}{tcp} {minus}{tco} {plus_m}{wp} <= {upper}")
                    add(f" c15b_w{pair}: {one}{tcp} {minus}{tco} {minus_m}{wp} >= {lower}")

    model.comment("(16) departure waits for every robot's last return")
    for k in stations:
        for r in robots:
            for o in customers:
                ride = ev.sc[k][o] / vr
                add(
                    f" c16_k{k}_r{r}_o{o}: {one}{td[k]} {minus}{tc[o]} {minus_m}{z[r][k][o]}"
                    f" >= {_num(ride - big_m)}"
                )

    _emit_tardiness(model, instance, names)
    _emit_tail(model, instance, names, bound=h)
    return model.render()


# ---------------------------------------------------------------------------
# assignments and solution import


def plan_assignment(instance: Instance, plan: RoutePlan) -> dict[str, float]:
    """Variable assignment encoding a plan, times from propagation.

    Covers every model variable (unused binaries are 0).  The plan must
    be structurally sound; range violations are tolerated, matching
    `propagate`.
    """
    values = dict.fromkeys(_Names(instance).every(), 0.0)

    def set_one(name: str):
        if name not in values:
            raise ModelError(f"plan does not fit this instance: no variable {name}")
        values[name] = 1.0

    prev = 0
    for k in plan.tour:
        set_one(name_y(prev, k))
        prev = k
    set_one(name_y(prev, 0))
    for s in plan.sorties:
        set_one(name_x(s.robot, s.station, s.services[0]))
        for o, p in zip(s.services, s.services[1:]):
            set_one(name_w(s.robot, s.station, o, p))
        set_one(name_z(s.robot, s.services[-1], s.station))

    schedule = propagate(instance, plan)
    for k, t in schedule.arrive.items():
        values[f"ta_{k}"] = t
    for k, t in schedule.depart.items():
        values[f"td_{k}"] = t
    for o, t in schedule.complete.items():
        values[f"tc_{o}"] = t
    for o, t in schedule.tardiness.items():
        values[f"tt_{o}"] = t
    return values


def _parse_solution_values(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] in "#\\":
            continue
        if len(parts) != 2:
            raise SolutionImportError(f"line {ln}: expected 'name value', got {raw!r}")
        name, val = parts
        try:
            v = float(val)
        except ValueError:
            raise SolutionImportError(f"line {ln}: bad value {val!r}") from None
        if name in values:
            raise SolutionImportError(f"line {ln}: duplicate variable {name}")
        values[name] = v
    return values


def import_solution(instance: Instance, text: str) -> tuple[RoutePlan, Schedule]:
    """Rebuild a plan and schedule from a solver solution file.

    Binaries may be absent (treated as 0) and may carry solver noise up
    to 1e-4, so a file may list only its nonzero values.  A diagonal
    succession `w_r_k_o_o`, which both exports fix to 0, must read 0 too.
    The file's names are checked in one pass over the model's names;
    past that, only the set binaries are dispatched, so the cost is
    linear in the file.  The schedule is recomputed by propagation;
    reported time values that disagree by more than 1e-4 are logged as
    warnings, not errors, since solvers may return non-tight schedules.
    """
    values = _parse_solution_values(text)
    names = _Names(instance)
    unknown = names.first_unknown(values)
    if unknown is not None:
        raise SolutionImportError(f"unknown variable {unknown}")

    stations = [s.id for s in instance.stations]
    customers = [c.id for c in instance.customers]
    robots = range(instance.fleet_size)

    arcs: dict[int, list[int]] = {}  # node -> heads of its set arcs
    firsts: dict[tuple[int, int], list[int]] = {}  # (r, k) -> first services
    nexts: dict[tuple[int, int, int], list[int]] = {}  # (r, k, o) -> successors
    returns: set[tuple[int, int, int]] = set()  # (r, k, o) of each set z_r_o_k
    for name, v in values.items():
        if abs(v) <= BINARY_TOLERANCE:
            continue
        kind, idx = parse_variable(name)
        if kind[0] == "t":  # a time; checked against propagation below
            continue
        if kind == "w" and idx[2] == idx[3]:
            # both exports fix these to 0 in Bounds
            raise SolutionImportError(
                f"diagonal succession {name} = {v}; a customer cannot succeed itself"
            )
        if not abs(v - 1.0) <= BINARY_TOLERANCE:  # NaN too
            raise SolutionImportError(f"{name} = {v} is fractional; expected 0 or 1")
        if kind == "y":
            arcs.setdefault(idx[0], []).append(idx[1])
        elif kind == "x":
            firsts.setdefault(idx[:2], []).append(idx[2])
        elif kind == "z":
            returns.add((idx[0], idx[2], idx[1]))
        else:
            nexts.setdefault(idx[:3], []).append(idx[3])

    forks = [k for k, heads in arcs.items() if len(heads) > 1]
    if forks:
        raise SolutionImportError(f"node {min(forks)} has two outgoing vehicle arcs")
    if len(arcs) != len(stations) + 1:
        raise SolutionImportError(
            f"expected {len(stations) + 1} vehicle arcs, found {len(arcs)}"
        )
    # known names leave the depot and stations only, so every node now
    # has one outgoing arc: the walk cannot dangle
    tour = []
    at = 0
    while True:
        at = arcs[at][0]
        if at == 0:
            break
        if at in tour:
            raise SolutionImportError(f"vehicle route revisits station {at}")
        tour.append(at)
    if len(tour) != len(stations):
        raise SolutionImportError(
            "vehicle arcs form a subtour that skips some stations"
        )

    # the walk takes each succession and return it reads out of
    # `nexts` and `returns`; whatever is left belongs to no chain
    sorties = []
    for k in stations:
        for r in robots:
            starts = firsts.get((r, k), ())
            if len(starts) > 1:
                raise SolutionImportError(
                    f"robot {r} at station {k} has {len(starts)} first services"
                )
            if not starts:
                continue
            chain = [starts[0]]
            while True:
                o = chain[-1]
                ends = (r, k, o) in returns
                after = nexts.pop((r, k, o), ())
                if ends and after:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) both ends and continues at C{o}"
                    )
                if ends:
                    returns.remove((r, k, o))
                    break
                if not after:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) dangles after C{o}"
                    )
                if len(after) > 1:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) branches after C{o}"
                    )
                if after[0] in chain:
                    raise SolutionImportError(
                        f"service chain at (r{r}, S{k}) cycles at C{after[0]}"
                    )
                chain.append(after[0])
            sorties.append(Sortie(robot=r, station=k, services=tuple(chain)))

    # ids are sorted: the smallest leftover is the first in (robot,
    # station, customer) order
    if nexts:
        r, k, o = min(nexts)
        raise SolutionImportError(
            f"succession {name_w(r, k, o, min(nexts[r, k, o]))} is set but belongs to no chain"
        )
    if returns:
        r, k, o = min(returns)
        raise SolutionImportError(f"return {name_z(r, o, k)} is set but ends no chain")

    order = {k: i for i, k in enumerate(tour)}
    sorties.sort(key=lambda s: (order[s.station], s.robot))
    plan = RoutePlan(tour=tuple(tour), sorties=tuple(sorties))
    violations = validate(instance, plan)
    if violations:
        raise SolutionImportError(
            "imported plan is infeasible: " + "; ".join(v.detail for v in violations)
        )

    schedule = _tight_schedule(instance, plan)  # validate checked the structure
    recomputed = {}
    for k in stations:
        recomputed[names.ta[k]] = schedule.arrive[k]
        recomputed[names.td[k]] = schedule.depart[k]
    for o in customers:
        recomputed[names.tc[o]] = schedule.complete[o]
        recomputed[names.tt[o]] = schedule.tardiness[o]
    for name, want in recomputed.items():
        if name in values and not abs(values[name] - want) <= TIME_MISMATCH_TOLERANCE:  # NaN too
            logger.warning(
                "solution reports %s = %s, propagation gives %s",
                name,
                values[name],
                want,
            )
    return plan, schedule
