"""
Seeded random instance generation.

The draw protocol is part of the package contract so that a (seed,
shape) pair names the same instance everywhere: one PCG64 stream,
customers drawn in id order, and for each customer first its location
(x then y, redrawn until some station is within half the robot range,
at most 1000 attempts), then its importance (uniform on (0, 1], zeros
redrawn), then its deadline (uniform on [10, 50)).  Stations are
placed deterministically and consume no randomness.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Customer, Instance, ModelError, Point, Station

LOCATION_ATTEMPTS = 1000
DEADLINE_LOW = 10.0
DEADLINE_HIGH = 50.0


def station_layout(n_s: int, width: float, height: float) -> tuple[Point, ...]:
    """Deterministic station positions.

    Two stations sit at quarter height, four at the corners of the
    centered half-size box (counterclockwise from the lower left);
    other counts fill a centered grid in row-major id order.
    """
    if not isinstance(n_s, int) or n_s < 1:
        raise ModelError(f"n_stations must be a positive integer, got {n_s!r}")
    if n_s == 2:
        return (
            Point(width / 4.0, height / 4.0),
            Point(3.0 * width / 4.0, height / 4.0),
        )
    if n_s == 4:
        return (
            Point(width / 4.0, height / 4.0),
            Point(3.0 * width / 4.0, height / 4.0),
            Point(3.0 * width / 4.0, 3.0 * height / 4.0),
            Point(width / 4.0, 3.0 * height / 4.0),
        )
    cols = math.ceil(math.sqrt(n_s))
    rows = math.ceil(n_s / cols)
    points = []
    for i in range(n_s):
        row, col = divmod(i, cols)
        points.append(
            Point(
                width * (col + 1) / (cols + 1),
                height * (row + 1) / (rows + 1),
            )
        )
    return tuple(points)


def generate(
    seed: int,
    n_stations: int,
    n_robots: int,
    n_customers: int,
    width: float = 100.0,
    height: float = 100.0,
    robot_range: float = 200.0,
    vehicle_speed: float = 50.0,
    robot_speed: float = 5.0,
) -> Instance:
    """Generate a random instance; equal arguments give equal instances."""
    if not isinstance(seed, int) or seed < 0:
        raise ModelError(f"seed must be a nonnegative integer, got {seed!r}")
    if not isinstance(n_robots, int) or n_robots < 1:
        raise ModelError(f"n_robots must be a positive integer, got {n_robots!r}")
    if not isinstance(n_customers, int) or n_customers < 0:
        raise ModelError(f"n_customers must be a nonnegative integer, got {n_customers!r}")
    if width <= 0 or height <= 0:
        raise ModelError("width and height must be positive")

    rng = np.random.Generator(np.random.PCG64(seed))
    stations = tuple(
        Station(id=i + 1, location=p)
        for i, p in enumerate(station_layout(n_stations, width, height))
    )

    customers = []
    for cid in range(n_customers):
        for _ in range(LOCATION_ATTEMPTS):
            x = float(rng.uniform(0.0, width))
            y = float(rng.uniform(0.0, height))
            nearest = min(math.hypot(s.location.x - x, s.location.y - y) for s in stations)
            if 2.0 * nearest <= robot_range:
                break
        else:
            raise ModelError(
                f"customer {cid}: no reachable location found in "
                f"{LOCATION_ATTEMPTS} attempts; widen robot_range"
            )
        importance = float(rng.uniform(0.0, 1.0))
        while importance == 0.0:
            importance = float(rng.uniform(0.0, 1.0))
        deadline = float(rng.uniform(DEADLINE_LOW, DEADLINE_HIGH))
        customers.append(
            Customer(
                id=cid,
                location=Point(x, y),
                importance=importance,
                deadline=deadline,
            )
        )

    return Instance(
        depot=Point(0.0, 0.0),
        stations=stations,
        customers=tuple(customers),
        fleet_size=n_robots,
        robot_range=robot_range,
        vehicle_speed=vehicle_speed,
        robot_speed=robot_speed,
    )
