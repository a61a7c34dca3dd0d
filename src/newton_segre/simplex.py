"""Exact rational simplex solver.

Dense two-phase tableau simplex over fractions.Fraction with Bland's rule.
With exact arithmetic degeneracy cannot cause numerical trouble, and Bland's
rule rules out cycling, so the solver is deterministic and always terminates.
All variables are implicitly non-negative; constraints take relations
"<=", ">=" or "=".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalInconsistency, InvalidInput

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = ("<=", ">=", "=")
_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise InvalidInput(f"unknown relation {self.relation!r}")


@dataclass
class LpProblem:
    """minimize (or maximize) objective . x subject to constraints, x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: list[Constraint] = field(default_factory=list)
    maximize: bool = False

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def add(self, coeffs: Iterable[Fraction | int], relation: str, rhs: Fraction | int) -> None:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.num_vars:
            raise InvalidInput("constraint width does not match variable count")
        self.constraints.append(Constraint(coeffs, relation, Fraction(rhs)))


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(problem: LpProblem) -> LpOutcome:
    """Solve an LpProblem exactly; Infeasible/Unbounded are outcomes, not errors."""
    n = problem.num_vars
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for con in problem.constraints:
        coeffs, rel, rhs = list(con.coeffs), con.relation, con.rhs
        if rhs < 0:
            coeffs, rel, rhs = [-c for c in coeffs], _FLIP[rel], -rhs
        rows.append((coeffs, rel, rhs))

    m = len(rows)
    slack_of_row: dict[int, int] = {}
    j = n
    for i, (_, rel, _) in enumerate(rows):
        if rel != "=":
            slack_of_row[i] = j
            j += 1
    first_art = j
    art_of_row: dict[int, int] = {}
    for i, (_, rel, _) in enumerate(rows):
        if rel != "<=":
            art_of_row[i] = j
            j += 1
    ncols = j

    # tableau rows: [vars | slacks | artificials | rhs]
    T: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = [Fraction(0)] * (ncols + 1)
        row[:n] = coeffs
        if i in slack_of_row:
            row[slack_of_row[i]] = Fraction(1) if rel == "<=" else Fraction(-1)
        if i in art_of_row:
            row[art_of_row[i]] = Fraction(1)
            basis.append(art_of_row[i])
        else:
            basis.append(slack_of_row[i])
        row[ncols] = rhs
        T.append(row)

    def pivot(r: int, c: int) -> None:
        inv = T[r][c]
        T[r] = [x / inv for x in T[r]]
        for i in range(m):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [a - f * b for a, b in zip(T[i], T[r])]
        basis[r] = c

    def run(cost: list[Fraction]) -> str:
        """Bland's-rule minimization; mutates T/basis until optimal or unbounded."""
        z = list(cost) + [Fraction(0)]
        for r, b in enumerate(basis):
            if z[b] != 0:
                f = z[b]
                z = [a - f * t for a, t in zip(z, T[r])]
        while True:
            entering = next((c for c in range(ncols) if z[c] < 0), None)
            if entering is None:
                return OPTIMAL
            ratios = [
                (T[r][ncols] / T[r][entering], basis[r], r)
                for r in range(m)
                if T[r][entering] > 0
            ]
            if not ratios:
                return UNBOUNDED
            _, _, leaving = min(ratios)
            f = z[entering]
            pivot(leaving, entering)
            z = [a - f * t for a, t in zip(z, T[leaving])]

    if art_of_row:
        cost1 = [Fraction(0)] * ncols
        for c in art_of_row.values():
            cost1[c] = Fraction(1)
        if run(cost1) != OPTIMAL:
            raise InternalInconsistency("phase 1 is bounded below by zero, yet unbounded")
        if any(basis[r] >= first_art and T[r][ncols] != 0 for r in range(m)):
            return LpOutcome(INFEASIBLE)
        # drive zero-valued artificials out of the basis where possible;
        # rows that stay artificial-basic are redundant with rhs 0.
        for r in range(m):
            if basis[r] >= first_art:
                c = next((c for c in range(first_art) if T[r][c] != 0), None)
                if c is not None:
                    pivot(r, c)
        for r in range(m):
            for c in range(first_art, ncols):
                T[r][c] = Fraction(0)

    sign = Fraction(-1) if problem.maximize else Fraction(1)
    cost2 = [sign * c for c in problem.objective] + [Fraction(0)] * (ncols - n)
    if run(cost2) == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        x[b] = T[r][ncols]
    witness = tuple(x[:n])
    value = sum((c * v for c, v in zip(problem.objective, witness)), Fraction(0))
    return LpOutcome(OPTIMAL, value, witness)


def feasible(constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
             num_vars: int) -> bool:
    """Phase-1 feasibility of a constraint system over non-negative variables."""
    prob = LpProblem(objective=tuple(Fraction(0) for _ in range(num_vars)))
    for coeffs, rel, rhs in constraints:
        prob.add(coeffs, rel, rhs)
    return solve_lp(prob).status == OPTIMAL
