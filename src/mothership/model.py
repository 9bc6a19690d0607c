"""
Domain types for the mothership routing problem.

A carrier vehicle tours a set of stations starting and ending at a depot.
At each station it may dispatch robots; every robot serves its customers
in out-and-back trips from the dispatching station and is collected at
that same station before the vehicle moves on.  Customers carry a service
deadline and an importance weight; solution quality is the total
importance-weighted tardiness.

This module holds the data model (instances, plans, schedules, violation
reports) plus canonical JSON parsing and serialization.  All values are
immutable after construction and safe to share across workers.  The
constraint numbers (1)-(17) quoted in docstrings refer to docs/MODEL.md.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass


class ModelError(ValueError):
    """A value violates a documented model invariant."""


class ParseError(ModelError):
    """A document is not syntactically valid for the expected format."""


def _as_float(value, name: str) -> float:
    if not isinstance(value, numbers.Real):  # strings too; numpy scalars and bools pass
        raise ModelError(f"{name} must be a real number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ModelError(f"{name} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class Point:
    """A planar location; coordinates share one length unit."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float(self.x, "x"))
        object.__setattr__(self, "y", _as_float(self.y, "y"))


@dataclass(frozen=True)
class Station:
    """A stop of the vehicle tour where robots are dispatched and collected."""

    id: int
    location: Point

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id < 1:
            raise ModelError(f"station id must be a positive integer, got {self.id!r}")


@dataclass(frozen=True)
class Customer:
    """A service request with an importance weight and a deadline."""

    id: int
    location: Point
    importance: float
    deadline: float

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id < 0:
            raise ModelError(f"customer id must be a nonnegative integer, got {self.id!r}")
        object.__setattr__(self, "importance", _as_float(self.importance, "importance"))
        object.__setattr__(self, "deadline", _as_float(self.deadline, "deadline"))
        if self.importance <= 0:
            raise ModelError(f"customer {self.id}: importance must be > 0")
        if self.deadline < 0:
            raise ModelError(f"customer {self.id}: deadline must be >= 0")


# Validator tolerance on lengths and times.
EPSILON = 1e-9


@dataclass(frozen=True)
class Instance:
    """One full problem datum.

    The depot is a distinguished point (index 0 in the model document),
    not a station, so the tour representation cannot violate the depot
    degree constraints (1)-(2).  Stations are numbered 1..n_s and
    customers 0..n_c-1, both contiguous; stations and customers are
    stored sorted by id.  No two stations share a location.  Every
    customer must be reachable out-and-back from at least one station
    within the robot range, otherwise no feasible plan exists and the
    instance is rejected here.
    """

    depot: Point
    stations: tuple[Station, ...]
    customers: tuple[Customer, ...]
    fleet_size: int
    robot_range: float
    vehicle_speed: float
    robot_speed: float

    def __post_init__(self):
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "customers", tuple(self.customers))
        object.__setattr__(self, "robot_range", _as_float(self.robot_range, "robot_range"))
        object.__setattr__(self, "vehicle_speed", _as_float(self.vehicle_speed, "vehicle_speed"))
        object.__setattr__(self, "robot_speed", _as_float(self.robot_speed, "robot_speed"))
        if not isinstance(self.fleet_size, int) or self.fleet_size < 1:
            raise ModelError(f"fleet_size must be a positive integer, got {self.fleet_size!r}")
        if self.robot_range <= 0:
            raise ModelError("robot_range must be > 0")
        if self.vehicle_speed <= 0 or self.robot_speed <= 0:
            raise ModelError("speeds must be > 0")
        if not self.stations:
            raise ModelError("at least one station is required")
        sids = sorted(s.id for s in self.stations)
        if sids != list(range(1, len(self.stations) + 1)):
            raise ModelError(f"station ids must be 1..{len(self.stations)} without gaps, got {sids}")
        cids = sorted(c.id for c in self.customers)
        if cids != list(range(len(self.customers))):
            raise ModelError(f"customer ids must be 0..{len(self.customers) - 1} without gaps, got {cids}")
        object.__setattr__(self, "stations", tuple(sorted(self.stations, key=lambda s: s.id)))
        object.__setattr__(self, "customers", tuple(sorted(self.customers, key=lambda c: c.id)))
        # a zero-length leg between two stations lets the LP time rows
        # pass a vehicle cycle through them (a subtour)
        seen: dict[tuple[float, float], int] = {}
        for s in self.stations:
            other = seen.setdefault((s.location.x, s.location.y), s.id)
            if other != s.id:
                raise ModelError(
                    f"stations {other} and {s.id} share the location "
                    f"({s.location.x:g}, {s.location.y:g})"
                )
        service = 0.0  # every customer's farthest out-and-back, summed
        for c in self.customers:
            legs = [math.hypot(s.location.x - c.location.x, s.location.y - c.location.y)
                    for s in self.stations]
            best = min(legs)
            if 2.0 * best > self.robot_range + EPSILON:
                raise ModelError(
                    f"unreachable customer {c.id}: nearest station round trip "
                    f"{2.0 * best:.4f} exceeds robot_range {self.robot_range}"
                )
            service += 2.0 * max(legs)
        # An overestimate of the schedule horizon: the tour's legs, each
        # at most the longest, at the slower speed (the LP export can
        # time arrivals at the robot's), plus `service` at the robot's.
        # Every time is below it, the big-M export's rows below four
        # times it and the objective below it times the total
        # importance; once that overflows, times can turn inf and NaN.
        places = [self.depot, *(s.location for s in self.stations)]
        longest = max(math.hypot(a.x - b.x, a.y - b.y) for a in places for b in places)
        slower = min(self.vehicle_speed, self.robot_speed)
        horizon = len(places) * longest / slower + service / self.robot_speed
        weights = sum(c.importance for c in self.customers)  # inf, not an error, on overflow
        if not math.isfinite(horizon * max(4.0, weights)):
            raise ModelError(
                f"the schedule overflows: an overestimate of its horizon, {horizon:.4g} from "
                f"the distances over the speeds, times 4 or the total importance "
                f"{weights:.4g}, is not finite"
            )

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_customers(self) -> int:
        return len(self.customers)

    def station(self, sid: int) -> Station:
        if not (isinstance(sid, int) and 1 <= sid <= len(self.stations)):
            raise ModelError(f"unknown station id {sid!r}")
        return self.stations[sid - 1]

    def customer(self, cid: int) -> Customer:
        if not (isinstance(cid, int) and 0 <= cid < len(self.customers)):
            raise ModelError(f"unknown customer id {cid!r}")
        return self.customers[cid]


@dataclass(frozen=True)
class Sortie:
    """One robot's chained service trip at a single station.

    The robot is dispatched at `station`, serves `services` in order with
    a return to the station between consecutive customers, and is
    collected at the same station.  The first element plays the dispatch
    role, consecutive pairs the chaining role, and the last element the
    collection role in the arc model (variables x, w, z).
    """

    robot: int
    station: int
    services: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        if not isinstance(self.robot, int) or self.robot < 0:
            raise ModelError(f"robot index must be a nonnegative integer, got {self.robot!r}")
        if not isinstance(self.station, int) or self.station < 1:
            raise ModelError(f"sortie station must be a positive station id, got {self.station!r}")
        if not self.services:
            raise ModelError("sortie services must be nonempty")
        for o in self.services:  # before the duplicate check hashes them
            if not isinstance(o, int) or o < 0:
                raise ModelError(f"service ids must be nonnegative integers, got {o!r}")
        if len(set(self.services)) != len(self.services):
            raise ModelError(f"sortie services contain a duplicate: {list(self.services)}")


@dataclass(frozen=True)
class RoutePlan:
    """A vehicle tour plus the sorties flown at its stations.

    `tour` lists station ids in visiting order; the depot endpoints are
    implicit.  Only local shape is enforced here: instance-dependent
    checks (tour permutes all stations, one sortie per robot and station,
    exact customer coverage, robot range) are the validator's job, which
    keeps deliberately broken plans constructible for auditing.
    """

    tour: tuple[int, ...]
    sorties: tuple[Sortie, ...]

    def __post_init__(self):
        object.__setattr__(self, "tour", tuple(self.tour))
        object.__setattr__(self, "sorties", tuple(self.sorties))
        for k in self.tour:
            if not isinstance(k, int) or k < 1:
                raise ModelError(f"tour entries must be positive station ids, got {k!r}")
        for s in self.sorties:
            if not isinstance(s, Sortie):
                raise ModelError(f"sorties must be Sortie values, got {type(s).__name__}")


@dataclass(frozen=True)
class Schedule:
    """Propagated times for one plan.

    `arrive`/`depart` map station id to the vehicle's arrival and
    departure time, `complete`/`tardiness` map customer id to service
    completion and tardiness, and `objective` is the importance-weighted
    tardiness total.  Mappings are plain dicts; treat them as read-only.
    """

    arrive: dict[int, float]
    depart: dict[int, float]
    complete: dict[int, float]
    tardiness: dict[int, float]
    objective: float


VIOLATION_KINDS = (
    "station-degree(3,4)",
    "multiplicity(5,6)",
    "range(9)",
    "coverage(10,11)",
    "structural",
)


@dataclass(frozen=True)
class Violation:
    """A typed report of one broken constraint group, with offender ids."""

    kind: str
    detail: str

    def __post_init__(self):
        if self.kind not in VIOLATION_KINDS:
            raise ModelError(f"unknown violation kind {self.kind!r}")


# ---------------------------------------------------------------------------
# JSON serialization.  The formats are documented in docs/FORMAT.md.


def _point_to_obj(p: Point) -> dict:
    return {"x": p.x, "y": p.y}


def _point_from_obj(obj, name: str) -> Point:
    if not isinstance(obj, dict) or set(obj) - {"x", "y"}:
        raise ParseError(f"{name} must be an object with keys x and y")
    try:
        return Point(obj["x"], obj["y"])
    except KeyError as exc:
        raise ParseError(f"{name} is missing key {exc.args[0]}") from None


def serialize_instance(instance: Instance) -> str:
    """Render an Instance as a canonical JSON document (round-trip safe)."""
    doc = {
        "depot": _point_to_obj(instance.depot),
        "stations": [
            {"id": s.id, "x": s.location.x, "y": s.location.y} for s in instance.stations
        ],
        "customers": [
            {
                "id": c.id,
                "x": c.location.x,
                "y": c.location.y,
                "importance": c.importance,
                "deadline": c.deadline,
            }
            for c in instance.customers
        ],
        "fleet_size": instance.fleet_size,
        "robot_range": instance.robot_range,
        "vehicle_speed": instance.vehicle_speed,
        "robot_speed": instance.robot_speed,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _list(value, name: str) -> list:
    """`value`, which must be a JSON list."""
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list, got {value!r}")
    return value


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be a JSON object")
    return doc


def parse_instance(text: str) -> Instance:
    """Parse an instance document; reports position on syntax errors and
    the offending field on invariant violations."""
    doc = _load_json(text)
    required = {
        "depot",
        "stations",
        "customers",
        "fleet_size",
        "robot_range",
        "vehicle_speed",
        "robot_speed",
    }
    missing = required - set(doc)
    if missing:
        raise ParseError(f"instance document is missing keys: {sorted(missing)}")
    stations = []
    for i, obj in enumerate(_list(doc["stations"], "stations")):
        if not isinstance(obj, dict) or "id" not in obj:
            raise ParseError(f"stations[{i}] must be an object with an id")
        stations.append(Station(obj["id"], Point(obj.get("x"), obj.get("y"))))
    customers = []
    for i, obj in enumerate(_list(doc["customers"], "customers")):
        if not isinstance(obj, dict) or "id" not in obj:
            raise ParseError(f"customers[{i}] must be an object with an id")
        customers.append(
            Customer(
                obj["id"],
                Point(obj.get("x"), obj.get("y")),
                obj.get("importance"),
                obj.get("deadline"),
            )
        )
    fleet = doc["fleet_size"]
    if not isinstance(fleet, int):
        raise ModelError(f"fleet_size must be an integer, got {fleet!r}")
    return Instance(
        depot=_point_from_obj(doc["depot"], "depot"),
        stations=tuple(stations),
        customers=tuple(customers),
        fleet_size=fleet,
        robot_range=doc["robot_range"],
        vehicle_speed=doc["vehicle_speed"],
        robot_speed=doc["robot_speed"],
    )


def serialize_plan(plan: RoutePlan) -> str:
    """Render a RoutePlan as a canonical JSON document.

    Sortie order is preserved, so parse(serialize(p)) equals p.  This is
    also the string used for lexicographic tie-breaking among
    equal-objective plans in the solvers.

    The text is `json.dumps(doc, indent=2, sort_keys=True)` plus a
    newline, written out directly, byte for byte the same: the standard
    library's indenting encoder is built from mutually recursive
    closures, so every call through it leaves cyclic garbage, and the
    solvers serialize every incumbent.
    """
    pad = "      "
    sorties = ",\n".join(
        f'    {{\n{pad}"robot": {_json(s.robot, pad)},\n'
        f'{pad}"services": {_json(s.services, pad)},\n'
        f'{pad}"station": {_json(s.station, pad)}\n    }}'
        for s in plan.sorties
    )
    sorties = f"[\n{sorties}\n  ]" if sorties else "[]"
    return f'{{\n  "sorties": {sorties},\n  "tour": {_json(plan.tour, "  ")}\n}}\n'


def _json(value, pad: str) -> str:
    """`value` as `json.dumps(indent=2)` lays it out when its key or list
    item sits at indentation `pad`.  Ids and service ids are ints (bool
    passes the int checks), so each is a scalar or a tuple of scalars.
    `json.dumps` of a lone scalar runs the acyclic C encoder and writes
    the indenting encoder's bytes; a plain int is written as `str`, as
    both do."""
    if type(value) is int:
        return str(value)
    if isinstance(value, (tuple, list)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = (",\n" + inner).join([_json(v, inner) for v in value])
        return f"[\n{inner}{items}\n{pad}]"
    return json.dumps(value)


def parse_plan(text: str) -> RoutePlan:
    """Parse a plan document."""
    doc = _load_json(text)
    if set(doc) - {"tour", "sorties"} or "tour" not in doc or "sorties" not in doc:
        raise ParseError("plan document must have exactly the keys tour and sorties")
    tour = _list(doc["tour"], "tour")
    sorties = []
    for i, obj in enumerate(_list(doc["sorties"], "sorties")):
        if not isinstance(obj, dict):
            raise ParseError(f"sorties[{i}] must be an object")
        if "robot" not in obj or "station" not in obj or "services" not in obj:
            missing = {"robot", "station", "services"} - set(obj)
            raise ParseError(f"sorties[{i}] is missing keys: {sorted(missing)}")
        services = obj["services"]
        if not isinstance(services, list):
            raise ParseError(f"sorties[{i}].services must be a list, got {services!r}")
        sorties.append(Sortie(obj["robot"], obj["station"], tuple(services)))
    return RoutePlan(tour=tuple(tour), sorties=tuple(sorties))
