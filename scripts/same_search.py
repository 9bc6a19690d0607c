#!/usr/bin/env python3
"""
Print one sha256 per solver over fixed inputs, so two checkouts can be
compared for the same search.

A change that claims to keep the search (a speedup, a refactor) must
leave all three digests as they were:

- construct: `serialize_plan` of `construct` on shapes (4,3,14),
  (5,3,25) and (6,4,40), instance seeds 0-9, construct seeds 0, 1, 2,
  7, 999 and 123456;
- solve_bnb: the objective, plan text, status, node count and every
  `stats` counter of `solve_bnb` on the benchmark's corpus ((3,2,10)
  and (4,3,12), seeds 0-3) and the 94 held-out instances of
  docs/MODEL.md ((3,2,10) seeds 4-11, (4,3,12) seeds 4-9, (2,2,6) and
  (3,2,8) seeds 0-39);
- improve: the objective, plan text, evaluation count and `stats` of
  `improve` from `construct`'s plan, on (6,4,40) seeds 0-3 at 60,000
  evaluations and on the corpus at 20,000.

Every run is capped by evaluations or exhausts its search, never by
the clock, so the digests do not depend on the machine.  Run it from
a checkout, with no PYTHONPATH needed:

    python3 scripts/same_search.py
    python3 scripts/same_search.py --only construct
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

try:
    import mothership  # installed, or on PYTHONPATH
except ModuleNotFoundError as exc:
    if exc.name != "mothership":
        raise
    # run from a checkout: the package is in the repository's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mothership import SearchParams, construct, generate, improve, serialize_plan, solve_bnb

CONSTRUCT_SHAPES = ((4, 3, 14), (5, 3, 25), (6, 4, 40))
CONSTRUCT_SEEDS = (0, 1, 2, 7, 999, 123456)
CORPUS = [((3, 2, 10), s) for s in range(4)] + [((4, 3, 12), s) for s in range(4)]
HELD_OUT = ([((3, 2, 10), s) for s in range(4, 12)] + [((4, 3, 12), s) for s in range(4, 10)]
            + [((2, 2, 6), s) for s in range(40)] + [((3, 2, 8), s) for s in range(40)])
IMPROVE_RUNS = [(((6, 4, 40), s), 60_000) for s in range(4)] + [(key, 20_000) for key in CORPUS]


def construct_lines():
    for shape in CONSTRUCT_SHAPES:
        for s in range(10):
            inst = generate(s, *shape)
            for seed in CONSTRUCT_SEEDS:
                yield f"{shape} {s} {seed} {serialize_plan(construct(inst, seed))}"


def bnb_lines():
    for shape, s in CORPUS + HELD_OUT:
        r = solve_bnb(generate(s, *shape))
        yield (f"{shape} {s} {r.objective!r} {r.status} {r.nodes} "
               f"{sorted(r.stats.items())} {serialize_plan(r.plan)}")


def improve_lines():
    for (shape, s), evaluations in IMPROVE_RUNS:
        inst = generate(s, *shape)
        params = SearchParams(max_iterations=evaluations, max_seconds=1e9)
        r = improve(inst, construct(inst), params)
        yield (f"{shape} {s} {r.objective!r} {r.nodes} "
               f"{sorted(r.stats.items())} {serialize_plan(r.plan)}")


DIGESTS = {"construct": construct_lines, "solve_bnb": bnb_lines, "improve": improve_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--only", choices=sorted(DIGESTS), help="print one digest")
    args = parser.parse_args(argv)
    for name, lines in DIGESTS.items():
        if args.only not in (None, name):
            continue
        started = time.perf_counter()
        digest = hashlib.sha256()
        for line in lines():
            digest.update(line.encode() + b"\n")
        print(f"{name:<10} {digest.hexdigest()}  ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
