"""Export a :class:`~repro.milp.MilpModel` to CPLEX LP file format.

The paper solved its formulation with IBM CPLEX; this writer emits the
exact model built by :mod:`repro.core.formulation` as an ``.lp`` file,
so anyone with a commercial solver can reproduce (or beat) the HiGHS
results on the very same instance:

    formulation = LetDmaFormulation(app, config)
    write_lp(formulation.model, "waters.lp")
    # then:  cplex -c "read waters.lp" "optimize"

The LP format implemented is the common core understood by CPLEX,
Gurobi, SCIP, and HiGHS: objective, ``Subject To``, ``Bounds``,
``General``/``Binary`` sections.  Variable names are sanitized to the
LP identifier character set (a reverse mapping is returned for tools
that post-process solutions).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.milp.expr import LinExpr, Sense, VarType
from repro.milp.model import MilpModel, ObjectiveSense

__all__ = ["lp_string", "write_lp"]

_VALID = re.compile(r"[A-Za-z!\"#$%&()/,;?@_`'{}|~][A-Za-z0-9!\"#$%&()/.,;?@_`'{}|~]*")


def _sanitize_names(model: MilpModel) -> dict:
    """LP-safe unique names per variable (brackets become underscores)."""
    mapping = {}
    used = set()
    for var in model.variables:
        name = re.sub(r"[^A-Za-z0-9_]", "_", var.name)
        if not name or name[0].isdigit() or name[0] == "_":
            name = "v_" + name.lstrip("_")
        base = name
        counter = 1
        while name in used:
            counter += 1
            name = f"{base}_{counter}"
        used.add(name)
        mapping[var] = name
    return mapping


def _format_expr(expr: LinExpr, names: dict) -> str:
    """``+ 2 x - 3 y`` style rendering (constant excluded)."""
    parts = []
    for var, coef in expr.terms.items():
        if coef == 0:
            continue
        sign = "+" if coef >= 0 else "-"
        magnitude = abs(coef)
        if magnitude == 1.0:
            parts.append(f"{sign} {names[var]}")
        else:
            parts.append(f"{sign} {magnitude:.12g} {names[var]}")
    if not parts:
        return "0 " + names[next(iter(names))]  # LP needs at least one term
    return " ".join(parts)


def lp_string(model: MilpModel) -> str:
    """Render the model as an LP-format string."""
    names = _sanitize_names(model)
    lines = [f"\\ Model {model.name} exported by repro.milp.lp_writer"]
    sense = (
        "Minimize" if model.objective_sense == ObjectiveSense.MINIMIZE else "Maximize"
    )
    lines.append(sense)
    lines.append(" obj: " + _format_expr(model.objective, names))

    lines.append("Subject To")
    for index, constraint in enumerate(model.constraints):
        label = constraint.name or f"c{index}"
        label = re.sub(r"[^A-Za-z0-9_]", "_", label)
        rhs = -constraint.expr.constant
        op = {Sense.LE: "<=", Sense.GE: ">=", Sense.EQ: "="}[constraint.sense]
        body = _format_expr(constraint.expr, names)
        lines.append(f" {label}_{index}: {body} {op} {rhs:.12g}")

    lines.append("Bounds")
    for var in model.variables:
        name = names[var]
        if var.var_type is VarType.BINARY:
            continue  # declared in the Binary section
        lower = var.lower
        upper = var.upper
        if upper == float("inf") and lower == 0.0:
            continue  # LP default
        upper_text = "+inf" if upper == float("inf") else f"{upper:.12g}"
        lines.append(f" {lower:.12g} <= {name} <= {upper_text}")

    integers = [
        names[var] for var in model.variables if var.var_type is VarType.INTEGER
    ]
    if integers:
        lines.append("General")
        lines.append(" " + " ".join(integers))
    binaries = [
        names[var] for var in model.variables if var.var_type is VarType.BINARY
    ]
    if binaries:
        lines.append("Binary")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(model: MilpModel, path: str | Path) -> None:
    """Write the model to ``path`` in LP format."""
    Path(path).write_text(lp_string(model))
