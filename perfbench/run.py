#!/usr/bin/env python3
"""
Benchmark of the mothership solver stack, through its public API only.

    python3 perfbench/run.py --workload bnb_prove --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

    bnb_prove     solve_bnb to proven optimality on the frozen corpus
    heur_anytime  construct + improve at a fixed wall budget per instance
    export_check  LP export, solution import, and plan checking

Every workload runs all three kinds of operation, so that every
end-to-end metric is defined on every workload: its own kind on the
full input set, the other two on one small fixed slice.  The instance
sets are frozen so that figures compare across commits; the seed draws
the construct seeds of the plans that are round-tripped and checked,
and the order in which one pass interleaves all operations.

A run sets up its inputs SETUP_REPS times, makes one untimed warm-up
pass over the slice, then starts passes until --seconds have passed.
Times are reported in reference seconds (see `Speed`), which cancels
the slow spells that other tenants of a shared machine cause; a timing
metric sums, over its operations, each operation's median over its
repetitions in the run.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
wraps the package's public functions from outside (tracer.py) and
prints the per-layer metrics and the tracing overhead.  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  The exit status is 1 when any operation raised or gave a
wrong output, 2 when the package cannot be imported or the frozen
reference is stale.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

MID = ((4, 3, 20), 0)
LARGE = tuple(((6, 4, 40), s) for s in range(4))
PROVE_CAP_S = 60.0
HEUR_BUDGET_S = 1.0  # reference seconds per construct + improve
HEUR_WALL_CAP_S = 30.0
CHECK_PLANS = 48  # serialized construct plans per "lp" instance
CHECK_ROUNDS = 10  # checks of the whole batch per pass
IMPORT_ROUNDS = 10  # imports of each solution per pass
EXPORT_ROUNDS = 4  # exports of each instance and form per pass
SETUP_REPS = 7
PLAN_SEEDS = 10**6
# calibrate() takes this long on an uncontended core of the 2-vCPU Intel
# Xeon VM (Python 3.11) the benchmark was tuned on; it sets the scale of
# reference seconds.
CAL_NOMINAL_S = 0.00053
CAL_SAMPLE_S = 0.05  # period of the loop samples taken during an operation

# Operation kind -> (shape, seed) inputs.  "lp" instances are exported in
# both forms, round-tripped through import_solution, and their plan
# batch is checked.
FULL = {
    "prove": reference.CORPUS,
    "heur_a": reference.CORPUS,
    "heur_b": LARGE,
    "lp": (MID, LARGE[0]),
}
# The slice proves its instance three times per pass (three operations)
# so that its sum of medians is as steady as the other figures.
SLICE = {
    "prove": (((3, 2, 10), 1),) * 3,
    "heur_a": (((3, 2, 10), 1),),
    "heur_b": (LARGE[0],),
    "lp": (MID,),
}
WORKLOADS = {
    "bnb_prove": ("prove",),
    "heur_anytime": ("heur_a", "heur_b"),
    "export_check": ("lp",),
}

# Every time is in reference seconds (see `Speed`); setup_s keeps the
# unit "s" that the benchmark format requires of it.
END_TO_END = {
    "setup_s": "s",
    "bnb_corpus_s": "ref_s",
    "heur_gap_pct": "%",
    "heur_large_obj": "obj",
    "export_s": "ref_s",
    "import_s": "ref_s",
    "check_plans_per_s": "1/ref_s",
    "peak_rss_mib": "MiB",
}
# Groups whose wall time is the heuristic's budget, not work done.
BUDGETED = ("heur_a", "heur_b")


def calibrate(n: int = 2000) -> float:
    """A fixed mix of float arithmetic and dict traffic, like the solvers'."""
    d: dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        x = (i * 7919) % 1009
        d[x] = d.get(x, 0.0) + math.hypot(x, i)
        acc += d[x] / (1 + x)
    return acc


class Speed:
    """How fast the core the run is on is right now.

    On a shared machine, other tenants slow a core by up to about 2x for
    seconds to minutes at a time (the same loop measured 0.5 to 1.1 ms),
    which no repetition inside one run averages out.  Each operation is
    therefore timed together with `calibrate`: right before the operation
    starts, every CAL_SAMPLE_S while it runs (from a SIGALRM handler,
    about 1% of the time, which is subtracted), and right after it ends.
    The operation's wall time times the mean of CAL_NOMINAL_S over those
    loop times is its time in reference seconds: the time on a core that
    runs the loop in CAL_NOMINAL_S.
    """

    def __init__(self):
        self._during: list[float] = []

    def _sample(self, signum, frame):
        # With the collector off, a collection that the program's own
        # allocations trigger cannot land in the loop and read as a slow core.
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        calibrate()
        self._during.append(time.perf_counter() - started)
        if collecting:
            gc.enable()

    def loop_s(self) -> float:
        """Seconds `calibrate` takes now (best of two)."""
        best = math.inf
        for _ in range(2):
            started = time.perf_counter()
            calibrate()
            best = min(best, time.perf_counter() - started)
        return best

    def timed(self, call):
        """(result, reference seconds, wall seconds) of `call()`."""
        before = self.loop_s()
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_SAMPLE_S, CAL_SAMPLE_S)
        started = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= sum(self._during)
        loops = [before, *self._during, self.loop_s()]
        scale = statistics.fmean(CAL_NOMINAL_S / x for x in loops)
        return result, elapsed * scale, elapsed


def import_lp_eval():
    """The test suite's LP-text evaluator, tests/lp_eval.py, which parses
    the exported text without trusting the exporter."""
    sys.path.append(str(ROOT / "tests"))
    try:
        import lp_eval
    except ImportError as exc:
        reference.stop(f"cannot import lp_eval from {ROOT / 'tests'}: {exc}")
    return lp_eval


def inputs_of(workload: str) -> dict:
    return {k: (FULL if k in WORKLOADS[workload] else SLICE)[k] for k in FULL}


class Task(NamedTuple):
    """One operation; repetitions of the same operation share `id`."""

    id: tuple
    group: str
    label: str
    call: Callable  # () -> result; the timed part
    problem: Callable  # result -> why it is wrong, or None
    keep: Callable  # (result, reference seconds) -> the figure kept per repetition


class Recorder:
    """Counts operations, times them, and runs their correctness checks
    (untraced) outside the timed region."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, task: Task, samples: dict) -> float:
        """Run one task, add (reference seconds, kept figure, wall
        seconds) to `samples[task.id]` when it succeeds, and return the
        wall seconds it took."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result, scaled, elapsed = self.speed.timed(task.call)
        except Exception as exc:  # a failed operation is counted, never dropped
            self.fail(task.label, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - started
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            problem = task.problem(result)
        if problem:
            self.fail(task.label, problem)
        else:
            samples.setdefault(task.id, []).append((scaled, task.keep(result, scaled), elapsed))
        return elapsed

    def fail(self, label: str, why: str):
        self.failures.append(f"{label}: {why}")
        print(f"FAILED {label}: {why}", file=sys.stderr)


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def setup(ms, spec: dict, seed: int, ref: dict, memo: dict, speed: Speed) -> list[Task]:
    """Generate every input named by `spec` and return one pass of tasks
    in a seeded interleaved order; the same seed gives the same tasks.
    `memo` carries, across the set-ups of one run, each export's digest,
    each "lp" instance with the assignment of a feasible plan (for
    `check_exports`), and each heuristic instance's measured evaluation
    rates."""
    rng = random.Random(seed)
    made: dict = {}
    tasks: list[Task] = []

    def instance(key):
        if key not in made:
            shape, s = key
            made[key] = ms.generate(s, *shape)
            if key in ref:
                reference.verify_instance(ms, ref[key], key, made[key])
        return made[key]

    for i, key in enumerate(spec["prove"]):
        inst, entry = instance(key), ref[key]

        def proof_problem(r, inst=inst, entry=entry):
            if r.status != "optimal":
                return f"status {r.status} within the {PROVE_CAP_S:g} s cap"
            if r.objective != ms.propagate(inst, r.plan).objective:
                return "objective differs from propagate(plan).objective"
            if r.objective != entry["objective"]:
                return f"objective {r.objective!r} != reference {entry['objective']!r}"
            if ms.serialize_plan(r.plan) != entry["plan"]:
                return "plan differs from the reference plan"
            return None

        tasks.append(Task(
            ("prove", i), "prove", f"solve_bnb {key}",
            lambda inst=inst: ms.solve_bnb(inst, ms.SolveBudget(max_seconds=PROVE_CAP_S)),
            proof_problem, lambda r, _: r.nodes))

    for group in BUDGETED:
        for i, key in enumerate(spec[group]):
            inst = instance(key)
            optimum = ref[key]["objective"] if group == "heur_a" else None

            def heur_problem(r, inst=inst, optimum=optimum):
                if ms.validate(inst, r.plan):
                    return "heuristic plan is infeasible"
                if r.objective != ms.propagate(inst, r.plan).objective:
                    return "objective differs from propagate(plan).objective"
                if optimum is not None and r.objective < optimum:
                    return f"objective {r.objective!r} beats the proven optimum {optimum!r}"
                return None

            # The budget is HEUR_BUDGET_S reference seconds.  A wall budget
            # scaled by the loop time measured before the run misses spells
            # that start during it, so only an instance's first run in a
            # process (often in the warm-up) is on the clock; every run
            # measures the program's evaluations per reference second, and
            # later runs stop at that rate times the budget.
            rates = memo.setdefault(("rates", key), [])

            def heur_call(inst=inst, rates=rates):
                if rates:
                    cap = round(statistics.median(rates) * HEUR_BUDGET_S)
                    params = ms.SearchParams(max_seconds=HEUR_WALL_CAP_S, max_iterations=max(
                        1, min(cap, ms.SearchParams().max_iterations)))
                else:
                    params = ms.SearchParams(max_seconds=HEUR_BUDGET_S * speed.loop_s() / CAL_NOMINAL_S)
                return ms.improve(inst, ms.construct(inst), params)

            def heur_keep(r, seconds, optimum=optimum, rates=rates):
                on_clock = not rates
                rates.append(r.nodes / seconds)
                figure = r.objective if optimum is None else 100.0 * (r.objective - optimum) / optimum
                return figure, r.nodes, on_clock

            tasks.append(Task((group, i), group, f"construct+improve {key}",
                              heur_call, heur_problem, heur_keep))

    for i, key in enumerate(spec["lp"]):
        inst = instance(key)
        plan = ms.construct(inst, rng.randrange(1, PLAN_SEEDS))
        objective = ms.propagate(inst, plan).objective
        values = ms.plan_assignment(inst, plan)
        solution = "".join(f"{name} {v!r}\n" for name, v in values.items())
        memo.setdefault(("lp", key), (inst, values, objective))

        for form in ("bigm", "miqcp"):
            def export_problem(text, seen=("digest", key, form)):
                digest = hashlib.sha256(text.encode()).digest()
                if memo.setdefault(seen, digest) != digest:
                    return "export is not deterministic"
                return None

            tasks += [Task(
                (form, i), form, f"export_{form} {key}",
                lambda inst=inst, form=form: getattr(ms, f"export_{form}")(inst),
                export_problem, lambda text, _: len(text))] * EXPORT_ROUNDS

        def import_problem(res, plan=plan, objective=objective):
            got, schedule = res
            if got != plan:
                return "import round trip returned a different plan"
            if schedule.objective != objective:
                return "imported schedule has a different objective"
            return None

        tasks += [Task(
            ("import", i), "import", f"import_solution {key}",
            lambda inst=inst, solution=solution: ms.import_solution(inst, solution),
            import_problem, lambda res, _: None)] * IMPORT_ROUNDS

        text = ms.serialize_instance(inst)
        batch = []
        for _ in range(CHECK_PLANS):
            p = ms.construct(inst, rng.randrange(1, PLAN_SEEDS))
            batch.append((ms.serialize_plan(p), p, ms.propagate(inst, p).objective))

        def check_batch(text=text, batch=batch):
            parsed = ms.parse_instance(text)
            out = [parsed]
            for p_text, _, _ in batch:
                q = ms.parse_plan(p_text)
                out.append((q, ms.validate(parsed, q), ms.propagate(parsed, q)))
            return out

        def batch_problem(res, inst=inst, batch=batch):
            if res[0] != inst:
                return "instance round trip differs"
            for j, ((q, violations, schedule), (_, p, objective)) in enumerate(zip(res[1:], batch)):
                if q != p:
                    return f"plan #{j}: round trip differs"
                if violations:
                    return f"plan #{j}: feasible plan reported infeasible: {violations[0].detail}"
                if schedule.objective != objective:
                    return f"plan #{j}: objective differs between two propagations"
            return None

        tasks += [Task(("check", i), "check", f"check {CHECK_PLANS} plans {key}",
                       check_batch, batch_problem, lambda res, _: len(res) - 1)] * CHECK_ROUNDS

    rng.shuffle(tasks)
    return tasks


def check_exports(ms, lp_eval, memo: dict, rec: Recorder):
    """Export every "lp" instance of the run once more, after the
    measurement so that the evaluator's memory is not in peak_rss_mib,
    and check the text: the same as every export in the run, every row,
    bound and binary held by the assignment of a feasible plan, and the
    LP objective equal to the plan's propagated objective."""
    for kind, key, *_ in list(memo):
        if kind != "lp":
            continue
        inst, values, objective = memo[kind, key]
        for form in ("bigm", "miqcp"):
            label = f"export_{form} {key}"
            try:
                text = getattr(ms, f"export_{form}")(inst)
                model = lp_eval.parse_lp(text)
            except Exception as exc:
                rec.fail(label, f"raised {type(exc).__name__}: {exc}")
                continue
            seen = memo.get(("digest", key, form))
            if seen is not None and seen != hashlib.sha256(text.encode()).digest():
                rec.fail(label, "export is not deterministic")
            bad = lp_eval.check_assignment(model, values)
            if bad:
                rec.fail(label, f"{len(bad)} rows violated by a feasible plan, first {bad[0]}")
            lp_objective = model.objective_value(values)
            if not _same(lp_objective, objective):
                rec.fail(label, f"LP objective {lp_objective!r} != propagated objective {objective!r}")


def run_pass(tasks: list[Task], rec: Recorder, samples: dict) -> float:
    """One pass over the tasks; returns the timed seconds of its
    operations, heuristic budgets excluded."""
    timed = 0.0
    for task in tasks:
        elapsed = rec.run(task, samples)
        if task.group not in BUDGETED:
            timed += elapsed
    return timed


def run_passes(tasks, rec, seconds: float, samples: dict) -> list[float]:
    """Start passes until `seconds` have passed; at least one."""
    timed = []
    started = time.perf_counter()
    while not timed or time.perf_counter() - started < seconds:
        timed.append(run_pass(tasks, rec, samples))
    return timed


def figures(tasks: list[Task], samples: dict) -> dict:
    """End-to-end figures from each operation's median repetition (NaN
    where every repetition of a group failed)."""
    ids: dict[str, set] = {}
    for t in tasks:
        ids.setdefault(t.group, set()).add(t.id)

    def done(group):
        return [samples[i] for i in sorted(ids.get(group, ())) if i in samples]

    def time_of(group):
        medians = [statistics.median(dt for dt, _, _ in s) for s in done(group)]
        return sum(medians) if medians else math.nan

    def mean_figure(group):
        # heuristic figures of the repetitions stopped by the rate, if any
        medians = []
        for s in done(group):
            capped = [kept[0] for _, kept, _ in s if not kept[2]]
            medians.append(statistics.median(capped or [kept[0] for _, kept, _ in s]))
        return statistics.fmean(medians) if medians else math.nan

    plans = sum(s[0][1] for s in done("check"))
    check_s = time_of("check")
    return {
        "bnb_corpus_s": time_of("prove"),
        "heur_gap_pct": mean_figure("heur_a"),
        "heur_large_obj": mean_figure("heur_b"),
        "export_s": time_of("bigm") + time_of("miqcp"),
        "import_s": time_of("import"),
        "check_plans_per_s": plans / check_s if check_s > 0 else math.nan,
    }


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(samples)
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{q:g}", cuts[round(q * 10) - 1]
    return "max", max(samples)


def environment(load_at_start) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mothership").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
    }


def end_to_end(ms, lp_eval, args, rec: Recorder) -> tuple[dict, dict]:
    ref = reference.load()
    memo: dict = {}
    setup_times = []
    for _ in range(SETUP_REPS):
        tasks, scaled, _ = rec.speed.timed(
            lambda: setup(ms, inputs_of(args.workload), args.seed, ref, memo, rec.speed))
        setup_times.append(scaled)
    run_pass(setup(ms, SLICE, args.seed, ref, memo, rec.speed), rec, {})  # warm-up
    samples: dict = {}
    passes = run_passes(tasks, rec, args.seconds, samples)

    metrics = {"setup_s": statistics.median(setup_times), **figures(tasks, samples),
               "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    check_exports(ms, lp_eval, memo, rec)
    groups = {"bnb_corpus_s": ("prove",), "export_s": ("bigm", "miqcp"),
              "import_s": ("import",), "check_plans_per_s": ("check",)}
    for name, unit in END_TO_END.items():
        line = f"  {name:<18} {metrics[name]:>14.6g} {unit:<7}"
        if name == "setup_s":
            line += f"  median of {SETUP_REPS} set-ups, max {max(setup_times):.4g} s"
        elif name in groups:
            reps = [(dt, wall) for t in {t.id: t for t in tasks}.values() if t.group in groups[name]
                    for dt, _, wall in samples.get(t.id, ())]
            if reps:
                label, value = tail([dt for dt, _ in reps])
                line += (f"  per repetition p50 {statistics.median(dt for dt, _ in reps):.4g} s, "
                         f"{label} {value:.4g} s, n={len(reps)}; wall p50 "
                         f"{statistics.median(wall for _, wall in reps):.4g} s")
        print(line)
    print(f"  {len(passes)} pass(es), timed operations {sum(passes):.4g} wall s; "
          f"calibration loop {rec.speed.loop_s() * 1e3:.3g} ms at the end")
    ops = {t.label: {"median_ref_s": statistics.median(dt for dt, _, _ in samples[t.id]),
                     "wall_s": [wall for _, _, wall in samples[t.id]],
                     "kept": [k for _, k, _ in samples[t.id]]}
           for t in tasks if t.id in samples}
    detail = {"passes": len(passes), "setup_times": setup_times, "pass_timed_s": passes, "ops": ops}
    return {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, detail


def per_layer(ms, lp_eval, args, rec: Recorder) -> tuple[dict, dict]:
    """Per-layer metrics.  Every pass runs each timed operation twice in
    a row, untraced (wrappers removed) then traced, so the overhead
    compares the same operations at the same moment; heuristic runs are
    only traced."""
    ref = reference.load()
    memo: dict = {}
    tasks = setup(ms, inputs_of(args.workload), args.seed, ref, memo, rec.speed)
    run_pass(setup(ms, SLICE, args.seed, ref, memo, rec.speed), rec, {})  # warm-up

    tracer = Tracer()
    rec.tracer = tracer
    tracer.install()
    try:
        setup(ms, inputs_of(args.workload), args.seed, ref, memo, rec.speed)
        setup_stats = tracer.take_stats()
        plain: dict = {}
        samples: dict = {}
        passes = 0
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            for task in tasks:
                if task.group not in BUDGETED:
                    tracer.uninstall()
                    try:
                        rec.run(task, plain)
                    finally:
                        tracer.install()
                rec.run(task, samples)
            passes += 1
        stats = tracer.take_stats()
    finally:
        tracer.uninstall()
        rec.tracer = None
    check_exports(ms, lp_eval, memo, rec)

    n = passes
    both = setup_stats.merged(stats)

    timed_ids = {t.id for t in tasks if t.group not in BUDGETED}

    def best_timed(runs):
        return sum(min(wall for _, _, wall in runs[i]) for i in timed_ids if i in runs)

    def kept(group):
        return [k for t in {t.id: t for t in tasks if t.group == group}.values()
                for _, k, _ in samples.get(t.id, ())]

    def per_pass(name):
        return stats.calls(name) / n

    def self_us(name):
        return both.self_per_call_s(name) * 1e6

    def self_s(name):
        return both.self_per_call_s(name)

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    nodes = sum(kept("prove")) / n
    candidates = stats.edge("exact.solve_bnb", "evaluation.bound_of") / n
    evals = sum(k[1] for g in BUDGETED for k in kept(g)) / n
    improve_s = stats.total_s("heuristic.improve") / n
    baseline, traced = best_timed(plain), best_timed(samples)
    m = {
        "exact.nodes": (nodes, "count"),
        "exact.candidates": (candidates, "count"),
        "exact.nodes_per_candidate": (nodes / candidates if candidates else 0.0, "ratio"),
        "exact.solve_bnb.self_s": (self_s("exact.solve_bnb"), "s"),
        "exact.offers": (stats.edge("exact.solve_bnb", "model.serialize_plan") / n, "count"),
        "exact.horizon_us": (self_us("exact.horizon"), "us"),
        "evaluation.bound_of.calls": (per_pass("evaluation.bound_of"), "count"),
        "evaluation.bound_of.self_us": (self_us("evaluation.bound_of"), "us"),
        "evaluation.completions.calls": (per_pass("evaluation.completions"), "count"),
        "evaluation.completions.us": (self_us("evaluation.completions"), "us"),
        "evaluation.group_length.calls": (per_pass("evaluation.group_length"), "count"),
        "evaluation.group_length.us": (self_us("evaluation.group_length"), "us"),
        "evaluation.propagate.us": (self_us("evaluation.propagate"), "us"),
        "evaluation.validate.us": (self_us("evaluation.validate"), "us"),
        "heuristic.evals": (evals, "count"),
        "heuristic.evals_per_s": (evals / improve_s if improve_s else 0.0, "1/s"),
        "heuristic.improve.self_s": (self_s("heuristic.improve"), "s"),
        "heuristic.construct.calls": (per_pass("heuristic.construct"), "count"),
        "heuristic.construct.s": (self_s("heuristic.construct"), "s"),
        "mipexport.export_bigm.s": (self_s("mipexport.export_bigm"), "s"),
        "mipexport.bigm_bytes": (mean(kept("bigm")), "B"),
        "mipexport.export_miqcp.s": (self_s("mipexport.export_miqcp"), "s"),
        "mipexport.miqcp_bytes": (mean(kept("miqcp")), "B"),
        "mipexport.plan_assignment.s": (self_s("mipexport.plan_assignment"), "s"),
        "mipexport.import_solution.s": (self_s("mipexport.import_solution"), "s"),
        "model.parse_plan.us": (self_us("model.parse_plan"), "us"),
        "model.parse_instance.us": (self_us("model.parse_instance"), "us"),
        "model.serialize_plan.us": (self_us("model.serialize_plan"), "us"),
        "instgen.generate.s": (self_s("instgen.generate"), "s"),
        "trace.overhead_pct": (100.0 * (traced - baseline) / baseline, "%"),
        "trace.spans": (sum(c for c, _, _ in stats.by_name.values()) / n, "count"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "passes": n})
    for name, (value, unit) in m.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {n} pass(es); best repetitions of the timed operations {traced:.4g} s traced vs "
          f"{baseline:.4g} s untraced; spans in {trace_path.relative_to(ROOT)}")
    detail = {"passes": n, "untraced_best_s": baseline, "traced_best_s": traced,
              "spans": dict(both.by_name)}
    return m, detail


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ms = reference.import_package()
    lp_eval = import_lp_eval()

    rec = Recorder(Speed())
    started = time.perf_counter()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    try:
        metrics, detail = (per_layer if args.trace else end_to_end)(ms, lp_eval, args, rec)
    except reference.StaleReference as exc:
        reference.stop(str(exc))
    env = environment(load_at_start)
    failed = len(rec.failures)
    print(f"  failed_frac {failed / rec.attempted:.6g} ({failed} of {rec.attempted} operations); "
          f"run took {time.perf_counter() - started:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "failures": rec.failures, "attempted": rec.attempted,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "detail": detail}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
