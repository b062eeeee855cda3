"""The MILP model container and big-M helper constructions.

:class:`MilpModel` collects variables, linear constraints, and an
objective, then delegates solving to a backend (HiGHS through
:mod:`scipy.optimize`, or the pure-Python branch-and-bound fallback).
It also provides the standard linearization gadgets used by the paper's
formulation: conjunction of binaries, max-equality selection, and
indicator (big-M) constraints.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence

from repro.milp.expr import Constraint, LinExpr, Sense, Var, VarType, lin_sum
from repro.milp.result import Solution, SolveStatus

__all__ = ["MilpModel", "ObjectiveSense"]


class ObjectiveSense:
    """Direction of optimization (string constants, not an Enum, so
    backends can compare cheaply)."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class MilpModel:
    """A mixed-integer linear program under construction.

    Example::

        model = MilpModel("toy")
        x = model.add_var("x", VarType.INTEGER, lower=0, upper=10)
        y = model.add_var("y", VarType.INTEGER, lower=0, upper=10)
        model.add(x + y <= 7, name="budget")
        model.minimize(-x - 2 * y)
        solution = model.solve()
    """

    def __init__(self, name: str = "milp"):
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.objective_sense: str = ObjectiveSense.MINIMIZE
        self._names: set[str] = set()
        self._gadget_counter = 0
        #: ``w -> operands`` for every AND gadget, in creation order.
        #: Warm-start builders (:mod:`repro.incremental.warm`) use this
        #: to derive auxiliary values from the primary assignment.
        self.conjunctions: dict[Var, tuple[Var, ...]] = {}
        #: ``(epigraph var, expressions)`` of the last minimize_max call.
        self.minimax: tuple[Var, tuple] | None = None

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def add_var(
        self,
        name: str,
        var_type: VarType = VarType.CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> Var:
        """Create a decision variable; names must be unique."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if var_type is VarType.BINARY:
            lower, upper = 0.0, 1.0
        var = Var(name, var_type, lower, upper, index=len(self.variables))
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Var:
        return self.add_var(name, VarType.BINARY)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = math.inf) -> Var:
        return self.add_var(name, VarType.INTEGER, lower, upper)

    def add_continuous(
        self, name: str, lower: float = 0.0, upper: float = math.inf
    ) -> Var:
        return self.add_var(name, VarType.CONTINUOUS, lower, upper)

    def _fresh_name(self, prefix: str) -> str:
        self._gadget_counter += 1
        return f"_{prefix}_{self._gadget_counter}"

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=``, or ``==``."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add() expects a Constraint; build one with <=, >= or == "
                f"(got {type(constraint).__name__})"
            )
        if name:
            constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def add_all(self, constraints: Iterable[Constraint], prefix: str = "") -> None:
        for i, constraint in enumerate(constraints):
            self.add(constraint, name=f"{prefix}[{i}]" if prefix else "")

    # ------------------------------------------------------------------
    # Linearization gadgets
    # ------------------------------------------------------------------

    def add_conjunction(self, binaries: Sequence[Var], name: str = "") -> Var:
        """An auxiliary binary equal to the AND of ``binaries``.

        Standard linearization: ``w <= b_i`` for each conjunct and
        ``w >= sum(b_i) - (n - 1)``.
        """
        if not binaries:
            raise ValueError("conjunction of no variables is undefined")
        for var in binaries:
            if var.var_type is not VarType.BINARY:
                raise ValueError(f"conjunction operand {var.name} is not binary")
        w = self.add_binary(name or self._fresh_name("and"))
        for var in binaries:
            self.add(w <= var, name=f"{w.name}_le_{var.name}")
        self.add(
            w >= lin_sum(binaries) - (len(binaries) - 1), name=f"{w.name}_ge_sum"
        )
        self.conjunctions[w] = tuple(binaries)
        return w

    def add_max_equality(
        self,
        target: Var,
        exprs: Sequence[LinExpr | Var],
        big_m: float,
        selectors: Sequence[Var] | None = None,
        name: str = "",
    ) -> list[Var]:
        """Constrain ``target == max(exprs)``.

        ``target >= e`` for every expression, plus a one-hot selector
        pinning ``target <= e_chosen + M * (1 - selector)``.  Existing
        one-hot binaries can be supplied via ``selectors`` (e.g. the
        paper reuses RG_{i,g} for the max in Constraint 3); otherwise
        fresh selector binaries are created.  Returns the selectors.
        """
        if not exprs:
            raise ValueError("max of no expressions is undefined")
        label = name or self._fresh_name("max")
        if selectors is None:
            selectors = [
                self.add_binary(f"{label}_sel{j}") for j in range(len(exprs))
            ]
            self.add(lin_sum(selectors) == 1, name=f"{label}_onehot")
        elif len(selectors) != len(exprs):
            raise ValueError("selectors must match expressions one-to-one")
        for j, expr in enumerate(exprs):
            self.add(target >= expr, name=f"{label}_ge[{j}]")
            self.add(
                target <= LinExpr._coerce(expr) + big_m * (1 - selectors[j]),
                name=f"{label}_le[{j}]",
            )
        return list(selectors)

    def add_indicator_le(
        self,
        condition: Var,
        lhs: LinExpr | Var,
        rhs: LinExpr | Var | float,
        big_m: float,
        name: str = "",
    ) -> Constraint:
        """``condition = 1  =>  lhs <= rhs`` via big-M relaxation."""
        if condition.var_type is not VarType.BINARY:
            raise ValueError("indicator condition must be binary")
        lhs_expr = LinExpr._coerce(lhs)
        rhs_expr = LinExpr._coerce(rhs)
        return self.add(
            lhs_expr <= rhs_expr + big_m * (1 - condition),
            name=name or self._fresh_name("ind_le"),
        )

    def add_indicator_ge(
        self,
        condition: Var,
        lhs: LinExpr | Var,
        rhs: LinExpr | Var | float,
        big_m: float,
        name: str = "",
    ) -> Constraint:
        """``condition = 1  =>  lhs >= rhs`` via big-M relaxation."""
        if condition.var_type is not VarType.BINARY:
            raise ValueError("indicator condition must be binary")
        lhs_expr = LinExpr._coerce(lhs)
        rhs_expr = LinExpr._coerce(rhs)
        return self.add(
            lhs_expr >= rhs_expr - big_m * (1 - condition),
            name=name or self._fresh_name("ind_ge"),
        )

    # ------------------------------------------------------------------
    # Objective and solving
    # ------------------------------------------------------------------

    def minimize(self, expr: LinExpr | Var) -> None:
        self.objective = LinExpr._coerce(expr)
        self.objective_sense = ObjectiveSense.MINIMIZE

    def maximize(self, expr: LinExpr | Var) -> None:
        self.objective = LinExpr._coerce(expr)
        self.objective_sense = ObjectiveSense.MAXIMIZE

    def minimize_max(
        self, exprs: Sequence[LinExpr | Var], upper_bound: float, name: str = "minimax"
    ) -> Var:
        """Minimize the maximum of several expressions (epigraph form).

        Used for the paper's objectives Eq. (4) and Eq. (5).  Returns
        the epigraph variable.
        """
        z = self.add_continuous(name, lower=-upper_bound, upper=upper_bound)
        for j, expr in enumerate(exprs):
            self.add(z >= expr, name=f"{name}_ge[{j}]")
        self.minimize(z)
        self.minimax = (z, tuple(LinExpr._coerce(e) for e in exprs))
        return z

    def solve(
        self,
        backend: str = "highs",
        time_limit_seconds: float | None = None,
        mip_gap: float | None = None,
        presolve: bool = True,
        start: dict | None = None,
        cuts: bool | None = None,
        _cut_source=None,
    ) -> Solution:
        """Solve the model.

        Args:
            backend: ``"highs"`` (scipy/HiGHS, default) or ``"bnb"``
                (pure-Python branch and bound; small models only).
            time_limit_seconds: Optional wall-clock limit.  Both
                backends return their incumbent as ``FEASIBLE`` when
                they hit it, or ``TIMEOUT`` when none was found.
            mip_gap: Optional relative MIP gap at which to stop.
            presolve: Run the answer-preserving presolve pass
                (:mod:`repro.milp.presolve`) and solve the reduced
                model; the returned solution is always expressed over
                this model's variables.
            start: Optional warm start — a complete ``{Var: value}``
                assignment over this model's variables.  A feasible
                start seeds the branch-and-bound incumbent (and is
                translated through presolve); an infeasible or stale
                one is ignored, so ``start`` can affect speed but never
                the answer.  The HiGHS backend accepts and ignores it
                (scipy exposes no MIP-start channel).
            cuts: Enable the structure-aware cut layer
                (:mod:`repro.milp.cuts`): the exact transfer ladder for
                MIN_TRANSFERS formulations, plus cutting planes inside
                the branch-and-bound.  Answer-preserving — every cut
                holds for every feasible integer point, and the ladder
                proves its optimum — so this defaults to
                :data:`repro.defaults.DEFAULT_CUTS` and is excluded
                from result cache keys.  Models without structure hints
                solve exactly as before.
            _cut_source: Internal — a pre-built separation adapter for
                the recursive post-presolve call.
        """
        if backend not in ("highs", "bnb"):
            raise ValueError(f"unknown backend {backend!r}")
        from repro.defaults import DEFAULT_CUTS

        use_cuts = DEFAULT_CUTS if cuts is None else cuts
        if use_cuts and _cut_source is None:
            from repro.milp.cuts import solve_with_cut_layer

            layered = solve_with_cut_layer(
                self,
                backend=backend,
                time_limit_seconds=time_limit_seconds,
                mip_gap=mip_gap,
                presolve=presolve,
                start=start,
            )
            if layered is not None:
                return layered
        if presolve:
            from repro.milp.presolve import presolve_model

            presolved = presolve_model(self)
            logging.getLogger("repro.milp.presolve").info(
                "%s | %s", self.stats(), presolved.stats.summary()
            )
            if presolved.infeasible:
                return Solution(
                    status=SolveStatus.INFEASIBLE,
                    runtime_seconds=presolved.stats.seconds,
                    message="presolve: proven infeasible",
                )
            if presolved.reduced.num_variables == 0:
                return presolved.trivial_solution()
            cut_source = None
            if use_cuts and backend == "bnb":
                cut_source = self._build_cut_source(presolved)
            inner = presolved.reduced.solve(
                backend=backend,
                time_limit_seconds=time_limit_seconds,
                mip_gap=mip_gap,
                presolve=False,
                start=presolved.translate_start(start) if start else None,
                cuts=False,
                _cut_source=cut_source,
            )
            return presolved.restore(inner)
        if backend == "highs":
            from repro.milp.scipy_backend import solve_with_highs

            return solve_with_highs(self, time_limit_seconds, mip_gap, start=start)
        cut_source = _cut_source
        if cut_source is None and use_cuts:
            cut_source = self._build_cut_source(None)
        from repro.milp.branch_and_bound import solve_with_branch_and_bound

        return solve_with_branch_and_bound(
            self, time_limit_seconds, mip_gap, start=start, cut_source=cut_source
        )

    def _build_cut_source(self, presolved):
        """A :class:`repro.milp.cuts.ReducedCutSource` for this model's
        structure hints, or None for plain models."""
        from repro.milp.cuts import (
            CutEngine,
            ReducedCutSource,
            structure_hints,
            transfer_lower_bound,
            _is_min_transfers,
        )

        hints = structure_hints(self)
        if hints is None:
            return None
        bound = transfer_lower_bound(hints) if _is_min_transfers(hints) else None
        return ReducedCutSource(CutEngine(hints, bound), presolved)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_binary(self) -> int:
        return sum(1 for v in self.variables if v.var_type is VarType.BINARY)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def check_assignment(
        self, assignment: dict[Var, float], tol: float = 1e-6
    ) -> list[Constraint]:
        """All constraints violated by ``assignment`` (empty if feasible)."""
        return [c for c in self.constraints if not c.is_satisfied(assignment, tol)]

    def stats(self) -> str:
        return (
            f"{self.name}: {self.num_variables} vars "
            f"({self.num_binary} binary), {self.num_constraints} constraints"
        )

    def __repr__(self) -> str:
        return f"MilpModel({self.stats()})"
