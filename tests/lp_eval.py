"""
Tiny independent LP-text evaluator used by the export tests.

Parses the LP dialect the package emits (linear terms, one optional
quadratic bracket per row, <=/>=/= senses, Bounds, Binaries) straight
from the text and substitutes variable values, so the export is
checked mechanically without trusting any exporter internals.
`solve_milp` hands a parsed linear model to HiGHS through scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Row:
    name: str
    linear: list = field(default_factory=list)  # [(coef, var)]
    quad: list = field(default_factory=list)  # [(coef, var_a, var_b)]
    sense: str = "="
    rhs: float = 0.0

    def lhs(self, values: dict) -> float:
        total = 0.0
        for coef, var in self.linear:
            total += coef * values.get(var, 0.0)
        for coef, a, b in self.quad:
            total += coef * values.get(a, 0.0) * values.get(b, 0.0)
        return total


@dataclass
class LPModel:
    objective: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)  # name -> (lo, hi); None = free side
    binaries: set = field(default_factory=set)

    def objective_value(self, values: dict) -> float:
        return sum(c * values.get(v, 0.0) for c, v in self.objective)

    def row(self, name: str) -> Row:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _parse_terms(tokens: list) -> tuple[list, list]:
    """Parse signed terms until exhausted; returns (linear, quad).

    A sign may precede the bracket itself ("+ [ ... ]"); it then
    multiplies every term inside.
    """
    linear = []
    quad = []
    i = 0
    in_bracket = False
    bracket_sign = 1.0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "]":
            assert in_bracket, "stray ]"
            in_bracket = False
            bracket_sign = 1.0
            i += 1
            continue
        sign = 1.0
        if tok == "+":
            i += 1
        elif tok == "-":
            sign = -1.0
            i += 1
        tok = tokens[i]
        if tok == "[":
            assert not in_bracket, "nested bracket"
            in_bracket = True
            bracket_sign = sign
            i += 1
            continue
        coef = 1.0
        if _is_number(tok):
            coef = float(tok)
            i += 1
            tok = tokens[i]
        assert not _is_number(tok), f"two numbers in a row near {tok}"
        assert "^" not in tok, "squares are not expected in this dialect"
        var = tok
        i += 1
        if in_bracket:
            sign *= bracket_sign
        if i < len(tokens) and tokens[i] == "*":
            assert in_bracket, "product outside bracket"
            other = tokens[i + 1]
            i += 2
            quad.append((sign * coef, var, other))
        else:
            linear.append((sign * coef, var))
    assert not in_bracket, "unclosed bracket"
    return linear, quad


def parse_lp(text: str) -> LPModel:
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        tokens.extend(line.split())

    def find(word: str, start: int = 0) -> int:
        for i in range(start, len(tokens)):
            if tokens[i] == word:
                return i
        return -1

    i_min = find("Minimize")
    i_st = find("Subject")
    assert i_min >= 0 and i_st >= 0 and tokens[i_st + 1] == "To"
    i_bounds = find("Bounds", i_st)
    i_bin = find("Binaries", i_st)
    i_end = find("End", i_st)
    assert i_bin >= 0 and i_end >= 0

    model = LPModel()

    obj_tokens = tokens[i_min + 1 : i_st]
    assert obj_tokens and obj_tokens[0].endswith(":")
    model.objective, oq = _parse_terms(obj_tokens[1:])
    assert not oq, "quadratic objective not expected"

    row_end = i_bounds if i_bounds >= 0 else i_bin
    body = tokens[i_st + 2 : row_end]
    # split on name: tokens
    starts = [j for j, t in enumerate(body) if t.endswith(":")]
    assert starts and starts[0] == 0
    starts.append(len(body))
    for a, b in zip(starts, starts[1:]):
        name = body[a][:-1]
        chunk = body[a + 1 : b]
        assert chunk[-2] in ("<=", ">=", "="), f"row {name} has no sense"
        sense = chunk[-2]
        rhs = float(chunk[-1])
        linear, quad = _parse_terms(chunk[:-2])
        model.rows.append(Row(name=name, linear=linear, quad=quad, sense=sense, rhs=rhs))

    if i_bounds >= 0:
        j = i_bounds + 1
        while j < i_bin:
            name, op, val = tokens[j], tokens[j + 1], float(tokens[j + 2])
            lo, hi = model.bounds.get(name, (0.0, None))
            if op == "=":
                lo = hi = val
            elif op == "<=":
                hi = val
            elif op == ">=":
                lo = val
            else:
                raise AssertionError(f"unexpected bound operator {op}")
            model.bounds[name] = (lo, hi)
            j += 3

    model.binaries = set(tokens[i_bin + 1 : i_end])
    return model


def check_assignment(model: LPModel, values: dict, tol: float = 1e-6) -> list:
    """All violations of rows, bounds, and binary domains at `values`."""
    bad = []
    for row in model.rows:
        lhs = row.lhs(values)
        if row.sense == "=" and abs(lhs - row.rhs) > tol:
            bad.append(f"{row.name}: {lhs} != {row.rhs}")
        elif row.sense == "<=" and lhs > row.rhs + tol:
            bad.append(f"{row.name}: {lhs} > {row.rhs}")
        elif row.sense == ">=" and lhs < row.rhs - tol:
            bad.append(f"{row.name}: {lhs} < {row.rhs}")
    for name, (lo, hi) in model.bounds.items():
        v = values.get(name, 0.0)
        if lo is not None and v < lo - tol:
            bad.append(f"bound {name}: {v} < {lo}")
        if hi is not None and v > hi + tol:
            bad.append(f"bound {name}: {v} > {hi}")
    for name in model.binaries:
        v = values.get(name, 0.0)
        if min(abs(v), abs(v - 1.0)) > tol:
            bad.append(f"binary {name}: {v} not in {{0, 1}}")
    return bad


def solve_milp(model: LPModel) -> tuple[float, dict]:
    """Optimal objective and variable values of a linear `model`, solved
    to a zero relative gap with `scipy.optimize.milp` (HiGHS)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    names = list(dict.fromkeys(
        [var for _, var in model.objective]
        + [var for row in model.rows for _, var in row.linear]
        + list(model.bounds)
        + sorted(model.binaries)
    ))
    col = {name: j for j, name in enumerate(names)}
    cost = np.zeros(len(names))
    for coef, var in model.objective:
        cost[col[var]] += coef
    entries, lhs_lo, lhs_hi = [], [], []
    for i, row in enumerate(model.rows):
        assert not row.quad, f"row {row.name} is not linear"
        entries += [(i, col[var], coef) for coef, var in row.linear]
        lhs_lo.append(-np.inf if row.sense == "<=" else row.rhs)
        lhs_hi.append(np.inf if row.sense == ">=" else row.rhs)
    i, j, coefs = zip(*entries)
    matrix = coo_array((coefs, (i, j)), shape=(len(model.rows), len(names))).tocsr()
    lo, hi = np.zeros(len(names)), np.full(len(names), np.inf)
    integrality = np.zeros(len(names))
    for name in model.binaries:
        hi[col[name]] = 1.0
        integrality[col[name]] = 1
    for name, (a, b) in model.bounds.items():
        lo[col[name]] = -np.inf if a is None else a
        hi[col[name]] = hi[col[name]] if b is None else min(hi[col[name]], b)
    result = milp(cost, constraints=LinearConstraint(matrix, lhs_lo, lhs_hi),
                  integrality=integrality, bounds=Bounds(lo, hi), options={"mip_rel_gap": 0})
    assert result.success, result.message
    return float(result.fun), dict(zip(names, result.x.tolist()))
