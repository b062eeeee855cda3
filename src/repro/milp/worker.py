"""Subprocess entry points for sandboxed solver execution.

The resilience sandbox (:mod:`repro.resilience.sandbox`) runs one
portfolio rung per supervised child process.  The child cannot inherit
live model objects across a process boundary (``Var`` instances are
identity-keyed), so the entry point here rebuilds the formulation from
the picklable application + config payload, re-binds any warm-start
values by *variable name*, and runs exactly one rung.

These functions are module-level and payload-driven so they work under
every ``multiprocessing`` start method (fork, forkserver, spawn).
"""

from __future__ import annotations

__all__ = ["rung_solve_args", "solve_rung_entry"]


def rung_solve_args(rung: str, config) -> dict:
    """The :meth:`~repro.core.formulation.LetDmaFormulation.solve`
    keyword arguments of a MILP rung named ``"<backend>[-<variant>]"``.

    ``-nopresolve`` skips presolve and ``-nocuts`` disables the cut
    layer; an unknown variant raises ``ValueError``.  The in-process
    portfolio and the sandbox child both parse rungs here, so the two
    paths accept and reject exactly the same names.
    """
    backend, _, variant = rung.partition("-")
    if variant not in ("", "nopresolve", "nocuts"):
        raise ValueError(f"unknown portfolio rung {rung!r}")
    return {
        "backend": backend,
        "presolve": config.presolve and variant != "nopresolve",
        "cuts": False if variant == "nocuts" else None,
    }


def solve_rung_entry(payload: dict):
    """Solve one portfolio rung inside a sandbox child.

    ``payload`` keys:

    * ``app`` — the :class:`repro.model.application.Application`;
    * ``config`` — the resolved ``FormulationConfig``;
    * ``rung`` — a portfolio rung name (``"highs"``, ``"bnb"``,
      ``"highs-nopresolve"``, ...);
    * ``start_values`` — optional ``{variable name: value}`` warm start
      (name-keyed so it survives pickling; re-bound to the freshly
      built model's variables here);
    * ``fault`` — optional fault-shim mode (chaos harness only; see
      :mod:`repro.resilience.shim`).

    Returns the rung's :class:`~repro.core.solution.AllocationResult`.
    Imports stay inside the function so this module loads without
    touching the solver stack (and without import cycles).
    """
    fault = payload.get("fault")
    if fault:
        from repro.resilience.shim import trigger_fault

        trigger_fault(fault)

    from dataclasses import replace

    from repro.core.formulation import LetDmaFormulation

    app = payload["app"]
    config = payload["config"]
    args = rung_solve_args(payload["rung"], config)
    formulation = LetDmaFormulation(app, replace(config, backend=args["backend"]))
    start = None
    start_values = payload.get("start_values")
    if start_values:
        by_name = {var.name: var for var in formulation.model.variables}
        start = {
            by_name[name]: value
            for name, value in start_values.items()
            if name in by_name
        }
        if len(start) != len(start_values):
            start = None  # structure drifted; a partial start is not a start
    return formulation.solve(start=start, **args)
