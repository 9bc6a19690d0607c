#!/usr/bin/env python3
"""
Recompute the bundled reference schedules from their published plans.

For each fixture the script prints the vehicle timeline, every sortie
with its length against the robot range, and the per-customer
completion and tardiness table, all produced by the timing recurrence
from the published plan.  It ends with the validation verdict and the
bundled notes, which record where the published numbers disagree with
their own plan and data.

    python3 scripts/audit_reference_tables.py
    python3 scripts/audit_reference_tables.py --only medium
"""

import argparse
import sys
from pathlib import Path

try:
    import mothership  # installed, or on PYTHONPATH
except ModuleNotFoundError as exc:
    if exc.name != "mothership":
        raise
    # run from a checkout: the package is in the repository's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mothership import (
    builtin_fixture,
    fixture_names,
    fixture_notes,
    propagate,
    sortie_length,
    validate,
)


def audit(name):
    inst, plan = builtin_fixture(name)
    sched = propagate(inst, plan)

    print(f"=== {name} ===")
    print(f"tour: depot -> {' -> '.join(f'S{k}' for k in plan.tour)} -> depot")
    print()

    print(f"{'station':>8}  {'arrive':>12}  {'depart':>12}")
    for k in plan.tour:
        print(f"{'S' + str(k):>8}  {sched.arrive[k]:>12.6f}  {sched.depart[k]:>12.6f}")
    print()

    print(f"{'sortie':>22}  {'services':>14}  {'length':>10}  range {inst.robot_range:g}")
    for s in plan.sorties:
        length = sortie_length(inst, s)
        over = "  <-- over range" if length > inst.robot_range else ""
        services = " ".join(f"C{o}" for o in s.services)
        print(f"{f'robot {s.robot} @ S{s.station}':>22}  {services:>14}  {length:>10.4f}{over}")
    print()

    print(f"{'customer':>8}  {'complete':>12}  {'deadline':>10}  {'tardy':>12}  {'weight':>8}")
    for c in inst.customers:
        print(f"{'C' + str(c.id):>8}  {sched.complete[c.id]:>12.6f}  {c.deadline:>10.2f}  "
              f"{sched.tardiness[c.id]:>12.6f}  {c.importance:>8.2f}")
    print()

    print(f"objective (recomputed): {sched.objective!r}")

    violations = validate(inst, plan)
    if violations:
        print(f"validate: {len(violations)} violation(s)")
        for v in violations:
            print(f"  [{v.kind}] {v.detail}")
    else:
        print("validate: feasible")

    print("notes:")
    for line in fixture_notes(name):
        print(f"  - {line}")
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--only", choices=tuple(fixture_names()), help="audit one fixture")
    args = ap.parse_args(argv)
    for name in [args.only] if args.only else fixture_names():
        audit(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
