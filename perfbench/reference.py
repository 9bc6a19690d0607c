#!/usr/bin/env python3
"""
Frozen reference optima of the benchmark's proof corpus.

`reference.json` holds, for every corpus instance and for a tiny shape
whose optima the exhaustive oracle confirms, the proven optimum as an
exact float repr, the canonical `serialize_plan` text of the optimal
plan, and a digest of the generated instance, so that a changed
generator shows up as a stale reference instead of a wrong gap.

    python3 perfbench/reference.py --check   # re-prove the (3,2,10) part; oracle on the tiny shape
    python3 perfbench/reference.py --write   # prove everything again, rewrite reference.json

The benchmark's `bnb_prove` workload re-proves the whole corpus on every
run and compares objective and plan bit-exactly; `heur_anytime` uses the
frozen optima as the denominator of its gap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PATH = HERE / "reference.json"

# (shape, seed) with shape = (stations, robots, customers)
CORPUS = tuple(((3, 2, 10), s) for s in range(4)) + tuple(((4, 3, 12), s) for s in range(4))
TINY = tuple(((2, 2, 5), s) for s in range(4))
RECHECK_SHAPE = (3, 2, 10)


class StaleReference(RuntimeError):
    """The generator no longer produces the instance the reference was proven on."""


def import_package():
    """Import mothership from the repository's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mothership
    except ImportError as exc:
        stop(f"cannot import mothership from {src}: {exc}")
    if Path(mothership.__file__).resolve().parent != src / "mothership":
        stop(f"mothership was imported from {mothership.__file__}, not from {src}")
    return mothership


def stop(why: str):
    """Exit with status 2, printing nothing on stdout: the benchmark cannot run."""
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(2)


def digest(ms, instance) -> str:
    return hashlib.sha256(ms.serialize_instance(instance).encode()).hexdigest()


def load() -> dict:
    """Map (shape, seed) to {"objective": float, "plan": str, "instance_sha256": str}."""
    doc = json.loads(PATH.read_text())
    out = {}
    for e in doc["corpus"] + doc["tiny"]:
        out[(tuple(e["shape"]), e["seed"])] = {
            "objective": float(e["objective"]),
            "plan": e["plan"],
            "instance_sha256": e["instance_sha256"],
        }
    return out


def verify_instance(ms, entry: dict, key, instance):
    if digest(ms, instance) != entry["instance_sha256"]:
        raise StaleReference(
            f"instance {key} differs from the one the reference was proven on; "
            "rerun perfbench/reference.py --write"
        )


def _prove(ms, key):
    shape, seed = key
    instance = ms.generate(seed, *shape)
    report = ms.solve_bnb(instance)
    if report.status != "optimal":
        raise RuntimeError(f"{key}: solve_bnb returned status {report.status}")
    return instance, report


def _mismatch(ms, key, entry, report) -> list[str]:
    out = []
    if report.objective != entry["objective"]:
        out.append(f"{key}: objective {report.objective!r} != reference {entry['objective']!r}")
    if ms.serialize_plan(report.plan) != entry["plan"]:
        out.append(f"{key}: plan differs from the reference plan")
    return out


def check(ms) -> list[str]:
    """Re-prove the RECHECK_SHAPE part of the corpus and cross-check the
    tiny shape against the exhaustive oracle; return the mismatches."""
    ref = load()
    problems = []
    for key in [k for k in CORPUS if k[0] == RECHECK_SHAPE] + list(TINY):
        instance, report = _prove(ms, key)
        verify_instance(ms, ref[key], key, instance)
        problems += _mismatch(ms, key, ref[key], report)
        if key in TINY:
            oracle = ms.solve_oracle(instance)
            if oracle.objective != ref[key]["objective"]:
                problems.append(f"{key}: oracle objective {oracle.objective!r} != reference")
        print(f"{key}: {report.objective!r} ({report.nodes} nodes, {report.wall_time:.2f} s)")
    return problems


def write(ms):
    doc = {"corpus": [], "tiny": []}
    for part, keys in (("corpus", CORPUS), ("tiny", TINY)):
        for key in keys:
            instance, report = _prove(ms, key)
            if part == "tiny":
                oracle = ms.solve_oracle(instance)
                # ties may resolve to different plans; the objectives must agree bit-exactly
                if oracle.objective != report.objective:
                    raise RuntimeError(f"{key}: oracle and solve_bnb disagree")
            elif report.objective <= 0.0:
                raise RuntimeError(f"{key}: optimum is 0, so no gap can be taken against it")
            doc[part].append({
                "shape": list(key[0]),
                "seed": key[1],
                "instance_sha256": digest(ms, instance),
                "objective": repr(report.objective),
                "plan": ms.serialize_plan(report.plan),
            })
            print(f"{key}: {report.objective!r} ({report.nodes} nodes, {report.wall_time:.2f} s)")
    PATH.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="re-prove part of the reference")
    mode.add_argument("--write", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)
    ms = import_package()
    if args.write:
        write(ms)
        return 0
    problems = check(ms)
    for p in problems:
        print("MISMATCH", p, file=sys.stderr)
    print("reference ok" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
