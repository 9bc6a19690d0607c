"""
The descent of `heuristic.improve`, written plainly.

Every candidate is built as a deep copy of the plan's groups (and tour)
and scored by recomputing the schedule in dicts from the first tour
position the move touches, with the recurrence of `propagate` written
out once more; the don't-look bits are plain sets of customers.
`improve` scores its moves with the branch-and-bound's
incremental kernel instead; tests assert that both make the same descent:
the same objective, plan and evaluation count under every cap.
"""

from __future__ import annotations

import time

from mothership import (
    NEIGHBORHOODS,
    PlanEvaluator,
    SearchParams,
    serialize_plan,
)
from mothership.exact import _canonical_plan
from mothership.heuristic import _Work
from mothership.model import EPSILON


class Evaluator:
    """Schedule state with recomputation from the first affected station."""

    def __init__(self, ev: PlanEvaluator, work: _Work):
        self.ev = ev
        self.work = work
        self.departs: list[float] = []
        self.comp_by_pos: list[dict[int, float]] = []
        self.objective = self._refresh()

    def _station(self, j: int, t: float, tour, groups):
        ev = self.ev
        k = tour[j]
        leg = ev.depot_leg[k] if j == 0 else ev.ss[(tour[j - 1], k)]
        a = t + leg / ev.vv
        d = ev.sc[k]
        t_dep = a
        comp: dict[int, float] = {}
        for g in groups[k]:
            if not g:
                continue
            c = a + d[g[0]] / ev.vr
            comp[g[0]] = c
            for i in range(1, len(g)):
                c = c + (d[g[i - 1]] + d[g[i]]) / ev.vr
                comp[g[i]] = c
            ret = c + d[g[-1]] / ev.vr
            if ret > t_dep:
                t_dep = ret
        return comp, t_dep

    def _objective_of(self, comp_dicts) -> float:
        ev = self.ev
        merged: dict[int, float] = {}
        for d in comp_dicts:
            merged.update(d)
        total = 0.0
        for o in range(ev.n):
            late = merged[o] - ev.deadline[o]
            if late > 0.0:
                total += ev.weight[o] * late
        return total

    def _refresh(self) -> float:
        self.departs = []
        self.comp_by_pos = []
        t = 0.0
        for j in range(len(self.work.tour)):
            comp, t = self._station(j, t, self.work.tour, self.work.groups)
            self.comp_by_pos.append(comp)
            self.departs.append(t)
        self.objective = self._objective_of(self.comp_by_pos)
        return self.objective

    def probe(self, tour, groups, from_idx: int) -> float:
        """Objective of a candidate state, recomputed from `from_idx` on."""
        t = self.departs[from_idx - 1] if from_idx else 0.0
        comp_dicts = self.comp_by_pos[:from_idx]
        suffix = []
        for j in range(from_idx, len(tour)):
            comp, t = self._station(j, t, tour, groups)
            suffix.append(comp)
        return self._objective_of(comp_dicts + suffix)

    def commit(self, tour, groups) -> float:
        self.work.tour = list(tour)
        self.work.groups = {k: [list(g) for g in lists] for k, lists in groups.items()}
        return self._refresh()


def scan_moves(ev: PlanEvaluator, state: Evaluator, name: str):
    """Yield (owners, candidates) of one neighborhood in a fixed
    deterministic order: the customers whose don't-look bits decide
    whether the candidates are scanned (one customer, or one chain for
    reassign), and a generator of their candidates
    (partner, first_affected_idx, tour, groups, touched).  `partner` is
    the other customer of a swap, None otherwise; `touched` lists the
    customers on the chains the candidate changes, or at the stations
    it reverses."""
    work = state.work
    tour = work.tour
    n_r = len(next(iter(work.groups.values()))) if work.groups else 0
    pos_of = {k: i for i, k in enumerate(tour)}

    def located():
        for k in tour:
            for r, g in enumerate(work.groups[k]):
                for pos, o in enumerate(g):
                    yield o, k, r, pos

    def copied():
        return {kk: [list(g) for g in ls] for kk, ls in work.groups.items()}

    def changed(groups):
        return [
            o for k in tour for r, g in enumerate(groups[k]) if g != work.groups[k][r] for o in g
        ]

    if name == "relocate":

        def relocates(o, k, r, pos):
            for k2 in tour:
                # robots idle once o is out; only the first is a target
                idle = [
                    r2 for r2, g in enumerate(work.groups[k2])
                    if not g or (k2, r2) == (k, r) and len(g) == 1
                ]
                for r2 in range(n_r):
                    if (k2, r2) == (k, r) or r2 in idle[1:]:
                        continue
                    target = work.groups[k2][r2]
                    if ev.group_length(k2, target + [o]) > ev.range + EPSILON:
                        continue
                    for pos2 in range(len(target) + 1):
                        groups = copied()
                        groups[k][r].pop(pos)
                        groups[k2][r2].insert(pos2, o)
                        yield None, min(pos_of[k], pos_of[k2]), tour, groups, changed(groups)

        for o, k, r, pos in sorted(located()):
            yield [o], relocates(o, k, r, pos)
    elif name == "swap":
        spots = sorted(located())

        def swaps(i, o, k, r, pos):
            for p, k2, r2, pos2 in spots[i + 1 :]:
                if (k, r) == (k2, r2):
                    continue
                a = [x for x in work.groups[k][r]]
                b = [x for x in work.groups[k2][r2]]
                a[pos], b[pos2] = p, o
                if ev.group_length(k, a) > ev.range + EPSILON:
                    continue
                if ev.group_length(k2, b) > ev.range + EPSILON:
                    continue
                groups = copied()
                groups[k][r] = a
                groups[k2][r2] = b
                yield p, min(pos_of[k], pos_of[k2]), tour, groups, changed(groups)

        for i, (o, k, r, pos) in enumerate(spots):
            yield [o], swaps(i, o, k, r, pos)
    elif name == "reorder":

        def reorders(k, r, pos):
            for pos2 in range(len(work.groups[k][r])):
                if pos2 == pos:
                    continue
                groups = copied()
                moved = groups[k][r].pop(pos)
                groups[k][r].insert(pos2, moved)
                yield None, pos_of[k], tour, groups, changed(groups)

        for o, k, r, pos in sorted(located()):
            yield [o], reorders(k, r, pos)
    elif name == "reassign":

        def reassigns(k, r, g):
            for k2 in tour:
                if k2 == k:
                    continue
                free = [r2 for r2, g2 in enumerate(work.groups[k2]) if not g2]
                if not free:
                    continue
                if ev.group_length(k2, g) > ev.range + EPSILON:
                    continue
                groups = copied()
                groups[k][r] = []
                groups[k2][free[0]] = list(g)
                yield None, min(pos_of[k], pos_of[k2]), tour, groups, changed(groups)

        for k in tour:
            for r, g in enumerate(work.groups[k]):
                if g:
                    yield list(g), reassigns(k, r, g)
    elif name == "two_opt":

        def reversals():
            for i in range(len(tour) - 1):
                for j in range(i + 1, len(tour)):
                    t2 = list(tour)
                    t2[i : j + 1] = reversed(t2[i : j + 1])
                    touched = [o for k in tour[i : j + 1] for g in work.groups[k] for o in g]
                    yield None, i, t2, work.groups, touched

        yield [], reversals()
    else:
        raise ValueError(f"unknown neighborhood {name!r}")


def descend(ev, state: Evaluator, params: SearchParams, started: float, counters: dict):
    """First-improvement descent, in place, with don't-look bits.

    Every neighborhood but two_opt keeps the set of flagged customers,
    at first all of them.  Owners none of whose customers is flagged
    are passed over, and a swap of two unflagged customers too.  Once
    all of an owner's candidates were scanned and none improved, its
    customers are unflagged; a kept move flags the customers it
    touched in every set."""
    look = {name: set(range(ev.n)) for name in NEIGHBORHOODS if name != "two_opt"}
    improved = True
    while improved:
        improved = False
        for name in NEIGHBORHOODS:
            flags = look.get(name)
            for owners, candidates in scan_moves(ev, state, name):
                if flags is not None and flags.isdisjoint(owners) and name != "swap":
                    continue
                for partner, from_idx, tour, groups, touched in candidates:
                    if name == "swap" and owners[0] not in flags and partner not in flags:
                        continue
                    counters["evals"] += 1
                    if counters["evals"] >= params.max_iterations:
                        return
                    if counters["evals"] % 64 == 0:
                        if time.perf_counter() - started > params.max_seconds:
                            return
                    cand = state.probe(tour, groups, from_idx)
                    if cand < state.objective:
                        state.commit(tour, groups)
                        for flagged in look.values():
                            flagged.update(touched)
                        improved = True
                        break
                if improved:
                    break
                if flags is not None:
                    flags.difference_update(owners)
            if improved:
                break


def reference_descent(instance, plan, params: SearchParams = SearchParams()):
    """(objective, plan text, evaluations) of the descent `improve` runs
    first from `plan` under `params`; give `params` a `max_seconds` no
    run reaches, or the time check makes the result depend on the
    machine."""
    started = time.perf_counter()
    ev = PlanEvaluator(instance)
    counters = {"evals": 0}
    state = Evaluator(ev, _Work.from_plan(instance, plan))
    descend(ev, state, params, started, counters)
    text = serialize_plan(_canonical_plan(state.work.tour, state.work.groups))
    return state.objective, text, counters["evals"]
