"""A pure-Python branch-and-bound MILP solver.

This fallback exists for two reasons: (i) it removes the dependency on
any particular MILP backend for *small* models, and (ii) it provides an
independent oracle for testing the HiGHS backend — both must agree on
optimal objective values.

The solver is LP-based branch and bound with the standard machinery of
a serious (if small) MIP code:

* **best-first search** — open nodes live in a priority heap ordered by
  their parent LP bound, so the minimum over the heap is a true global
  dual bound at every moment.  That is what lets the solver report
  ``Solution.best_bound``/``mip_gap`` and return ``FEASIBLE`` with a
  proven gap on timeout instead of an unusable ``ERROR``.
* **LP-guided diving** — before branching starts (and until a first
  incumbent exists), a rounding heuristic walks down from the node
  relaxation, bounding every near-integral variable to its rounded
  value and the most fractional one to its nearest integer, re-solving
  as it goes.  On models like the paper's formulation this finds a
  feasible packing in a handful of LPs.
* **pseudo-cost branching** — per-variable average objective
  degradation per unit of fractionality, seeded by observation and
  falling back to most-fractional until history exists.
* **persistent bound chains** — a node stores only its chain of bound
  changes (parent chain + one ``(index, lower, upper)`` triple);
  materialization copies the base bound arrays once per node pop
  instead of copying override dicts on every push.

The LP relaxations are solved by :func:`scipy.optimize.linprog` (HiGHS
simplex) over a :class:`_StandardForm` built once per model and cached
on the model instance, so portfolio fallbacks that re-solve the same
formulation skip the conversion.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.milp.expr import Sense, VarType, bounds_signature
from repro.milp.model import MilpModel, ObjectiveSense
from repro.milp.result import Solution, SolveStatus

__all__ = ["solve_with_branch_and_bound"]

_INTEGRALITY_TOL = 1e-6
#: Gap below which a bound-limited stop still counts as proven optimal.
_PROOF_GAP = 1e-9
#: LP budget for one diving descent.
_DIVE_MAX_LPS = 60
#: Total row-propagation budget for one fix-and-propagate run.
_PROPAGATE_MAX_ROWS = 400_000
#: Minimum violation for a separated cut to enter the pool.
_CUT_VIOLATION_TOL = 1e-6
#: Separation rounds at the root LP.
_CUT_ROOT_ROUNDS = 8
#: Cuts accepted per separation round (violation-ranked).
_CUT_MAX_PER_ROUND = 40
#: Bounded cut pool: active rows stacked onto every node LP.
_CUT_POOL_MAX = 400
#: Node interval between separation/aging rounds once branching runs.
_CUT_NODE_INTERVAL = 48
#: Consecutive slack checks after which an inactive cut is dropped.
_CUT_AGE_DROP = 20


def solve_with_branch_and_bound(
    model: MilpModel,
    time_limit_seconds: float | None = None,
    mip_gap: float | None = None,
    start: "dict | None" = None,
    cut_source=None,
) -> Solution:
    """Solve a :class:`MilpModel` by LP-based branch and bound.

    Exact on completion; on timeout returns the incumbent as
    ``FEASIBLE`` with the proven ``best_bound``/``mip_gap``, or
    ``TIMEOUT`` when no incumbent was found.

    ``start`` is an optional warm start: a complete ``{Var: value}``
    assignment.  If it satisfies bounds, integrality, and every
    constraint it is installed as the initial incumbent (reported with
    ``incumbent_seconds = 0.0`` and ``seeded=True`` — the solver did not
    *discover* it) and its objective prunes the tree from node one; an
    infeasible start is silently ignored, so a stale warm start can
    never change the answer, only the speed.

    ``cut_source`` is an optional separation oracle (duck-typed, see
    :mod:`repro.milp.cuts`): ``separate_rows(x)`` returns globally
    valid ``<=`` rows in this model's column space.  Rows are pooled,
    violation-ranked, stacked onto the root and node LPs, and aged out
    when inactive.  Because every row must hold for every feasible
    integer point, adding one never changes the answer, only the LP
    bounds.
    """
    begin = time.perf_counter()
    deadline = begin + time_limit_seconds if time_limit_seconds is not None else None

    problem = _standard_form(model)
    integral = np.array(
        [
            var.var_type in (VarType.INTEGER, VarType.BINARY)
            for var in model.variables
        ],
        dtype=bool,
    )
    sign = 1.0 if model.objective_sense == ObjectiveSense.MINIMIZE else -1.0
    counters = _Counters()
    search = _Search(problem, integral, counters, deadline, mip_gap, cut_source)
    if start is not None:
        search.seed_incumbent(_start_vector(model, problem, integral, start))
    search.run()
    elapsed = time.perf_counter() - begin
    return _assemble_solution(model, search, counters, sign, elapsed)


def _assemble_solution(
    model: MilpModel,
    search: "_Search",
    counters: "_Counters",
    sign: float,
    elapsed: float,
) -> Solution:
    """Translate final search state into a :class:`Solution`."""
    dual = search.dual_bound()
    if search.incumbent_x is None:
        if search.hit_limit:
            status = SolveStatus.TIMEOUT
        else:
            status = SolveStatus.INFEASIBLE
        return Solution(
            status=status,
            runtime_seconds=elapsed,
            message=_message(counters, search, elapsed),
            best_bound=sign * dual if math.isfinite(dual) else None,
            node_count=counters.nodes,
            lp_calls=counters.lp_calls,
            cuts_added=counters.cuts_added,
            cut_rounds=counters.cut_rounds,
        )

    gap = search.current_gap()
    proven = (not search.hit_limit and not search.open_nodes()) or gap <= _PROOF_GAP
    status = SolveStatus.OPTIMAL if proven else SolveStatus.FEASIBLE
    values = {
        var: _snap(float(search.incumbent_x[var.index]), var.var_type)
        for var in model.variables
    }
    return Solution(
        status=status,
        objective=sign * search.incumbent_obj,
        values=values,
        runtime_seconds=elapsed,
        message=_message(counters, search, elapsed),
        best_bound=sign * dual,
        mip_gap=gap,
        node_count=counters.nodes,
        lp_calls=counters.lp_calls,
        incumbent_seconds=counters.incumbent_seconds,
        seeded=search.seeded,
        cuts_added=counters.cuts_added,
        cut_rounds=counters.cut_rounds,
    )


def _message(counters: "_Counters", search: "_Search", elapsed: float) -> str:
    parts = [
        "branch-and-bound:",
        f"{counters.nodes} nodes,",
        f"{counters.lp_calls} LPs",
    ]
    if counters.cuts_added:
        parts.append(
            f"{counters.cuts_added} cuts in {counters.cut_rounds} rounds,"
        )
    if search.seeded:
        parts.append("seeded incumbent")
    elif counters.incumbent_seconds is not None:
        parts.append(f"first incumbent after {counters.incumbent_seconds:.2f}s")
    if search.hit_limit:
        parts.append("(time limit)")
    return " ".join(parts)


def _start_vector(model, problem, integral, start) -> "np.ndarray | None":
    """Validate a ``{Var: value}`` warm start against the standard form.

    Returns the value vector when it is a complete, feasible, integral
    assignment; None otherwise (the caller then proceeds cold).
    """
    tol = 1e-6
    x = np.empty(model.num_variables)
    for var in model.variables:
        value = start.get(var)
        if value is None:
            return None
        x[var.index] = value
    x[integral] = np.round(x[integral])
    if np.any(x < problem.base_lower - tol) or np.any(x > problem.base_upper + tol):
        return None
    if problem.a_ub is not None and np.any(problem.a_ub @ x > problem.b_ub + 1e-5):
        return None
    if problem.a_eq is not None and np.any(
        np.abs(problem.a_eq @ x - problem.b_eq) > 1e-5
    ):
        return None
    return x


class _Counters:
    __slots__ = (
        "nodes",
        "lp_calls",
        "incumbent_seconds",
        "started",
        "cuts_added",
        "cut_rounds",
    )

    def __init__(self):
        self.nodes = 0
        self.lp_calls = 0
        self.incumbent_seconds: float | None = None
        self.started = time.perf_counter()
        self.cuts_added = 0
        self.cut_rounds = 0

    def found_incumbent(self) -> None:
        if self.incumbent_seconds is None:
            self.incumbent_seconds = time.perf_counter() - self.started


class _Search:
    """Best-first search state: heap, incumbent, pseudo-costs."""

    def __init__(self, problem, integral, counters, deadline, mip_gap,
                 cut_source=None):
        self.problem = problem
        self.integral = integral
        self.integral_indices = np.nonzero(integral)[0]
        self.counters = counters
        self.deadline = deadline
        self.mip_gap = mip_gap
        self.hit_limit = False
        self.seeded = False
        self.incumbent_obj = math.inf
        self.incumbent_x: np.ndarray | None = None
        #: (bound, -seq, chain, branch_info); chain is a parent-linked
        #: tuple (parent_chain, idx, lower, upper) or None at the root.
        self.heap: list = []
        self.seq = 0
        self.root_bound = -math.inf
        self.popped_bound = -math.inf
        n = len(integral)
        self.pc_down_sum = np.zeros(n)
        self.pc_down_cnt = np.zeros(n, dtype=np.int64)
        self.pc_up_sum = np.zeros(n)
        self.pc_up_cnt = np.zeros(n, dtype=np.int64)
        #: Separation oracle + bounded pool of active cut rows, each
        #: entry ``[cols, coefs, rhs, name, idle]``.
        self.cut_source = cut_source
        self.cut_pool: list = []
        self.cut_names: set[str] = set()
        self._cut_stack = None  # (a_cut, b_cut) rebuilt on pool change

    # -- time/gap accounting -------------------------------------------

    def _out_of_time(self) -> bool:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.hit_limit = True
            return True
        return False

    def open_nodes(self) -> bool:
        return bool(self.heap)

    def dual_bound(self) -> float:
        """Global lower bound (internal minimize sense)."""
        if self.heap:
            return max(self.heap[0][0], self.popped_bound, self.root_bound)
        if self.incumbent_x is not None and not self.hit_limit:
            return self.incumbent_obj
        return max(self.popped_bound, self.root_bound)

    def current_gap(self) -> float:
        if self.incumbent_x is None:
            return math.inf
        dual = self.dual_bound()
        if not math.isfinite(dual):
            return math.inf
        return max(0.0, self.incumbent_obj - dual) / max(1.0, abs(self.incumbent_obj))

    def _gap_reached(self) -> bool:
        return self.mip_gap is not None and self.current_gap() <= self.mip_gap

    def _cutoff(self) -> float:
        """Nodes with bound above this cannot improve the incumbent."""
        best = self.incumbent_obj
        slack = 1e-9
        if self.mip_gap is not None and math.isfinite(best):
            slack = max(slack, self.mip_gap * max(1.0, abs(best)))
        return best - slack

    # -- bound chains ---------------------------------------------------

    def _materialize(self, chain):
        lower = self.problem.base_lower.copy()
        upper = self.problem.base_upper.copy()
        changes = []
        while chain is not None:
            chain, idx, lo, hi = chain
            changes.append((idx, lo, hi))
        for idx, lo, hi in reversed(changes):
            if lo is not None and lo > lower[idx]:
                lower[idx] = lo
            if hi is not None and hi < upper[idx]:
                upper[idx] = hi
        return lower, upper

    def _push(self, bound, chain, branch_info):
        self.seq += 1
        heapq.heappush(self.heap, (bound, -self.seq, chain, branch_info))

    # -- LP and heuristics ---------------------------------------------

    def _solve_lp(self, lower, upper):
        self.counters.lp_calls += 1
        return self.problem.solve_relaxation_bounds(
            lower, upper, extra=self._cut_matrices()
        )

    def _fractional(self, x):
        """(index, fractional part) pairs of non-integral variables."""
        xi = x[self.integral_indices]
        frac = xi - np.round(xi)
        mask = np.abs(frac) > _INTEGRALITY_TOL
        return self.integral_indices[mask], xi[mask] - np.floor(xi[mask])

    def _accept(self, objective, x):
        if objective < self.incumbent_obj - 1e-12:
            self.incumbent_obj = objective
            self.incumbent_x = x
            self.counters.found_incumbent()

    def seed_incumbent(self, x: "np.ndarray | None") -> None:
        """Install a pre-validated warm start as the initial incumbent.

        The discovery time is reported as 0.0 — the incumbent was
        handed in, not found — and ``seeded`` is flagged so telemetry
        can distinguish warm solves from genuinely fast cold ones.
        """
        if x is None:
            return
        self.incumbent_obj = float(self.problem.cost @ x)
        self.incumbent_x = x
        self.seeded = True
        self.counters.incumbent_seconds = 0.0

    def _dive(self, lower, upper, x):
        """LP-guided rounding descent from a node relaxation.

        Pinning variables whose LP value is already integral keeps the
        current LP point feasible, so only the fix of the fractional
        target can fail; when it does, the opposite rounding is tried
        once before the dive is abandoned.
        """
        lower = lower.copy()
        upper = upper.copy()
        lps = 0
        while lps < _DIVE_MAX_LPS:
            if self._out_of_time():
                return
            indices, fracs = self._fractional(x)
            if len(indices) == 0:
                objective = float(self.problem.cost @ x)
                self._accept(objective, x)
                return
            # Pin every integral variable already at an integer value.
            near = self.integral_indices[
                np.abs(
                    x[self.integral_indices] - np.round(x[self.integral_indices])
                )
                <= _INTEGRALITY_TOL
            ]
            rounded = np.round(x[near])
            lower[near] = np.maximum(lower[near], rounded)
            upper[near] = np.minimum(upper[near], rounded)
            if np.any(lower > upper):
                return
            # Fix the most fractional variable: nearest integer first,
            # the other side as a one-level backtrack.
            pick = int(np.argmax(np.minimum(fracs, 1.0 - fracs)))
            target = int(indices[pick])
            nearest = float(np.round(x[target]))
            other = nearest + 1.0 if nearest < x[target] else nearest - 1.0
            solved = None
            for value in (nearest, other):
                if value < lower[target] or value > upper[target]:
                    continue
                saved = (lower[target], upper[target])
                lower[target] = upper[target] = value
                solved = self._solve_lp(lower, upper)
                lps += 1
                if solved is not None and solved[0] < self._cutoff():
                    break
                lower[target], upper[target] = saved
                solved = None
            if solved is None:
                return
            _, x = solved

    def _fix_and_propagate(self, x):
        """Primal heuristic: fix integral variables one by one in LP
        confidence order, propagating bound implications through the
        rows after each fix (no LPs), with a one-level backtrack to the
        opposite value on conflict.  One final LP assigns the
        continuous variables.  The one-hot equality rows of the paper's
        formulation propagate strongly, which is what makes this land
        feasible packings where pure LP rounding dives stall.
        """
        prop = self.problem.propagator(self.integral)
        prop.visits = 0
        lower = self.problem.base_lower.copy()
        upper = self.problem.base_upper.copy()
        xi = x[self.integral_indices]
        frac = np.abs(xi - np.round(xi))
        order = self.integral_indices[np.argsort(frac, kind="stable")]
        for j in order:
            j = int(j)
            if self._out_of_time() or prop.visits > _PROPAGATE_MAX_ROWS:
                return
            if lower[j] >= upper[j] - _INTEGRALITY_TOL:
                continue  # already decided by propagation
            value = float(np.round(x[j]))
            value = min(max(value, math.ceil(lower[j] - _INTEGRALITY_TOL)),
                        math.floor(upper[j] + _INTEGRALITY_TOL))
            snap_lower = lower.copy()
            snap_upper = upper.copy()
            lower[j] = upper[j] = value
            if prop.propagate(lower, upper, (j,)):
                continue
            lower[:] = snap_lower
            upper[:] = snap_upper
            other = value + 1.0 if x[j] > value else value - 1.0
            if other < lower[j] or other > upper[j]:
                return
            lower[j] = upper[j] = other
            if not prop.propagate(lower, upper, (j,)):
                return
        solved = self._solve_lp(lower, upper)
        if solved is None:
            return
        objective, xf = solved
        indices, _ = self._fractional(xf)
        if len(indices) == 0:
            self._accept(objective, xf)

    # -- cutting planes -------------------------------------------------

    def _cut_matrices(self):
        """Active pool rows as one (A, b) pair, rebuilt on pool change."""
        if not self.cut_pool:
            return None
        if self._cut_stack is None:
            data, rows, cols, rhs = [], [], [], []
            for r, (c_idx, c_coef, c_rhs, _, _) in enumerate(self.cut_pool):
                rows.extend([r] * len(c_idx))
                cols.extend(int(j) for j in c_idx)
                data.extend(float(a) for a in c_coef)
                rhs.append(c_rhs)
            self._cut_stack = (
                sparse.csr_matrix(
                    (data, (rows, cols)),
                    shape=(len(self.cut_pool), len(self.integral)),
                ),
                np.array(rhs),
            )
        return self._cut_stack

    def _separate(self, x) -> int:
        """One separation round at the LP point ``x``.

        Asks the oracle for valid rows, keeps the most violated ones
        (bounded per round and by the pool cap), and invalidates the
        stacked matrix.  Returns the number of cuts added.
        """
        if self.cut_source is None:
            return 0
        self.counters.cut_rounds += 1
        candidates = []
        for cols, coefs, rhs, name in self.cut_source.separate_rows(x):
            if name in self.cut_names:
                continue
            violation = float(coefs @ x[cols]) - rhs
            if violation > _CUT_VIOLATION_TOL:
                candidates.append((violation, cols, coefs, rhs, name))
        candidates.sort(key=lambda c: -c[0])
        room = min(_CUT_MAX_PER_ROUND, _CUT_POOL_MAX - len(self.cut_pool))
        added = 0
        for violation, cols, coefs, rhs, name in candidates[: max(0, room)]:
            self.cut_pool.append([cols, coefs, rhs, name, 0])
            self.cut_names.add(name)
            added += 1
        if added:
            self._cut_stack = None
            self.counters.cuts_added += added
        return added

    def _age_cuts(self, x) -> None:
        """Drop pool rows slack at ``x`` for many consecutive checks.

        A dropped cut stays in ``cut_names`` so the oracle's row is not
        re-added the next round only to idle out again.
        """
        survivors = []
        dropped = False
        for entry in self.cut_pool:
            cols, coefs, rhs, _, idle = entry
            slack = rhs - float(coefs @ x[cols])
            entry[4] = 0 if slack <= _CUT_VIOLATION_TOL else idle + 1
            if entry[4] >= _CUT_AGE_DROP:
                dropped = True
            else:
                survivors.append(entry)
        if dropped:
            self.cut_pool = survivors
            self._cut_stack = None

    def _root_cut_loop(self, objective, x):
        """Separate-and-resolve rounds at the root LP.

        Every pool row holds for every feasible integer point, so a
        root LP made infeasible by cuts proves the MILP infeasible, and
        each resolved objective is a valid global dual bound.  Returns
        the final (objective, x), or None on infeasibility/timeout.
        """
        for _ in range(_CUT_ROOT_ROUNDS):
            if self._out_of_time():
                return objective, x
            if self._separate(x) == 0:
                break
            solved = self._solve_lp(self.problem.base_lower, self.problem.base_upper)
            if solved is None:
                return None
            previous = objective
            objective, x = solved
            self.root_bound = max(self.root_bound, objective)
            if objective < previous + 1e-9:
                break
        return objective, x

    # -- pseudo-cost branching -----------------------------------------

    def _seed_pseudo_costs(self, root_objective, x) -> None:
        """Prime pseudo-costs from a seeded incumbent.

        One warm-start point carries no per-variable degradation
        history, but the primal-dual spread it proves at the root —
        ``incumbent - root LP`` — is a consistent uniform prior: each
        root-fractional variable gets it as a per-unit estimate in both
        directions, so branching starts from the spread the repair
        already established instead of most-fractional guessing.
        """
        indices, fracs = self._fractional(x)
        if len(indices) == 0 or not math.isfinite(self.incumbent_obj):
            return
        spread = max(0.0, self.incumbent_obj - root_objective)
        per_unit = spread / max(1, len(indices))
        for idx in indices:
            idx = int(idx)
            self.pc_down_sum[idx] += per_unit
            self.pc_down_cnt[idx] += 1
            self.pc_up_sum[idx] += per_unit
            self.pc_up_cnt[idx] += 1

    def _record_pseudo_cost(self, branch_info, objective):
        if branch_info is None:
            return
        idx, direction, parent_obj, frac = branch_info
        unit = frac if direction == 0 else 1.0 - frac
        if unit <= 1e-9:
            return
        per_unit = max(0.0, objective - parent_obj) / unit
        if direction == 0:
            self.pc_down_sum[idx] += per_unit
            self.pc_down_cnt[idx] += 1
        else:
            self.pc_up_sum[idx] += per_unit
            self.pc_up_cnt[idx] += 1

    def _select_branch(self, indices, fracs):
        total_cnt = int(self.pc_down_cnt.sum() + self.pc_up_cnt.sum())
        if total_cnt == 0:
            pick = int(np.argmax(np.minimum(fracs, 1.0 - fracs)))
            return indices[pick], pick
        total_sum = float(self.pc_down_sum.sum() + self.pc_up_sum.sum())
        default = total_sum / total_cnt if total_cnt else 1.0
        down_cnt = self.pc_down_cnt[indices]
        up_cnt = self.pc_up_cnt[indices]
        down = np.where(
            down_cnt > 0,
            self.pc_down_sum[indices] / np.maximum(down_cnt, 1),
            default,
        )
        up = np.where(
            up_cnt > 0, self.pc_up_sum[indices] / np.maximum(up_cnt, 1), default
        )
        score = np.maximum(down * fracs, 1e-6) * np.maximum(
            up * (1.0 - fracs), 1e-6
        )
        pick = int(np.argmax(score))
        return indices[pick], pick

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        """Run the search to completion or a limit."""
        if self._out_of_time():
            return
        root = self._solve_lp(self.problem.base_lower, self.problem.base_upper)
        if root is None:
            return  # LP infeasible => MILP infeasible
        objective, x = root
        self.root_bound = objective
        if self.cut_source is not None:
            root = self._root_cut_loop(objective, x)
            if root is None:
                return
            objective, x = root
        if self.seeded:
            self._seed_pseudo_costs(objective, x)
        self._process(objective, x, None, dive=self.incumbent_x is None)
        while self.heap:
            if self._out_of_time() or self._gap_reached():
                return
            bound, _, chain, branch_info = heapq.heappop(self.heap)
            self.popped_bound = max(self.popped_bound, bound)
            if bound >= self._cutoff():
                continue
            lower, upper = self._materialize(chain)
            if np.any(lower > upper):
                continue
            solved = self._solve_lp(lower, upper)
            self.counters.nodes += 1
            if solved is None:
                continue
            objective, x = solved
            self._record_pseudo_cost(branch_info, objective)
            if objective >= self._cutoff():
                continue
            if (
                self.cut_source is not None
                and self.counters.nodes % _CUT_NODE_INTERVAL == 0
            ):
                self._separate(x)
                self._age_cuts(x)
            self._process(objective, x, chain, dive=self.incumbent_x is None)

    def _process(self, objective, x, chain, dive: bool) -> None:
        """Branch on a solved relaxation (or accept it as incumbent)."""
        indices, fracs = self._fractional(x)
        if len(indices) == 0:
            self._accept(objective, x)
            return
        if dive:
            if chain is None and self.incumbent_x is None:
                self._fix_and_propagate(x)
            lower, upper = self._materialize(chain)
            self._dive(lower, upper, x)
        idx, pick = self._select_branch(indices, fracs)
        frac = float(fracs[pick])
        floor_val = math.floor(x[idx] + _INTEGRALITY_TOL)
        down = (chain, int(idx), None, float(floor_val))
        up = (chain, int(idx), float(floor_val + 1), None)
        self._push(objective, down, (int(idx), 0, objective, frac))
        self._push(objective, up, (int(idx), 1, objective, frac))


def _snap(value: float, var_type: VarType) -> float:
    if var_type is VarType.CONTINUOUS:
        return value
    return float(round(value))


#: Standard forms kept per model instance (see ``_PRESOLVE_CACHE_MAX``
#: in :mod:`repro.milp.presolve` for the sizing rationale).
_FORM_CACHE_MAX = 6


def _standard_form(model: MilpModel) -> "_StandardForm":
    """The model's scipy arrays, cached on the model instance so
    portfolio rungs re-solving one formulation convert it only once.

    Keyed by shape *and* a bounds fingerprint: the cut layer's transfer
    ladder mutates variable bounds in place without changing the
    model's shape, and a stale ``base_lower``/``base_upper`` snapshot
    would silently solve the wrong relaxation.
    """
    key = (
        model.num_variables,
        model.num_constraints,
        bounds_signature(model.variables),
    )
    cache = model.__dict__.setdefault("_standard_form_cache", {})
    cached = cache.get(key)
    if cached is not None:
        return cached
    form = _StandardForm(model)
    while len(cache) >= _FORM_CACHE_MAX:
        cache.pop(next(iter(cache)))
    cache[key] = form
    return form


class _StandardForm:
    """The model converted once into scipy ``linprog`` arrays."""

    def __init__(self, model: MilpModel):
        num_vars = model.num_variables
        sign = 1.0 if model.objective_sense == ObjectiveSense.MINIMIZE else -1.0
        self.cost = np.zeros(num_vars)
        for var, coef in model.objective.terms.items():
            self.cost[var.index] += sign * coef
        self.base_lower = np.array([var.lower for var in model.variables])
        self.base_upper = np.array([var.upper for var in model.variables])

        ub_rows: list[tuple[int, dict[int, float], float]] = []
        eq_rows: list[tuple[int, dict[int, float], float]] = []
        for constraint in model.constraints:
            coeffs = {var.index: coef for var, coef in constraint.expr.terms.items()}
            rhs = -constraint.expr.constant
            if constraint.sense is Sense.LE:
                ub_rows.append((len(ub_rows), coeffs, rhs))
            elif constraint.sense is Sense.GE:
                negated = {index: -coef for index, coef in coeffs.items()}
                ub_rows.append((len(ub_rows), negated, -rhs))
            else:
                eq_rows.append((len(eq_rows), coeffs, rhs))
        self.a_ub, self.b_ub = _to_sparse(ub_rows, num_vars)
        self.a_eq, self.b_eq = _to_sparse(eq_rows, num_vars)

    def solve_relaxation_bounds(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        extra: "tuple | None" = None,
    ) -> tuple[float, np.ndarray] | None:
        """LP relaxation under explicit bound arrays.

        ``extra`` optionally stacks additional ``(A, b)`` inequality
        rows (the active cut pool) under the model's own.  Returns
        (objective, values) or None when infeasible.
        """
        a_ub, b_ub = self.a_ub, self.b_ub
        if extra is not None:
            a_cut, b_cut = extra
            if a_ub is None:
                a_ub, b_ub = a_cut, b_cut
            else:
                a_ub = sparse.vstack([a_ub, a_cut], format="csr")
                b_ub = np.concatenate([b_ub, b_cut])
        result = linprog(
            c=self.cost,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if not result.success:
            return None
        return float(result.fun), result.x

    def propagator(self, integral: np.ndarray) -> "_Propagator":
        """Row-propagation helper, built once per standard form."""
        cached = getattr(self, "_propagator", None)
        if cached is None:
            cached = _Propagator(self, integral)
            self._propagator = cached
        return cached

    def solve_relaxation(
        self, lower_over: dict[int, float], upper_over: dict[int, float]
    ) -> tuple[float, np.ndarray] | None:
        """LP relaxation under branching bound overrides (dict form,
        kept for tests and external callers)."""
        lower = self.base_lower.copy()
        upper = self.base_upper.copy()
        for index, bound in lower_over.items():
            lower[index] = max(lower[index], bound)
        for index, bound in upper_over.items():
            upper[index] = min(upper[index], bound)
        if np.any(lower > upper):
            return None
        return self.solve_relaxation_bounds(lower, upper)


class _Propagator:
    """Activity-based bound propagation over the standard-form rows.

    Used by the fix-and-propagate primal heuristic: after a variable is
    fixed, the rows it appears in may imply bounds on its neighbours,
    which cascade through their rows in turn.  All tightening happens
    in place on the caller's bound arrays; a return of ``False`` means
    a row became unsatisfiable (proven conflict under the fixes).
    """

    def __init__(self, form: _StandardForm, integral: np.ndarray):
        self.is_int = integral
        #: (indices, coefficients, rhs, is_equality) per non-empty row.
        self.rows: list[tuple[np.ndarray, np.ndarray, float, bool]] = []
        for matrix, rhs_vec, eq in (
            (form.a_ub, form.b_ub, False),
            (form.a_eq, form.b_eq, True),
        ):
            if matrix is None:
                continue
            csr = matrix.tocsr()
            for row in range(csr.shape[0]):
                start, end = csr.indptr[row], csr.indptr[row + 1]
                if start == end:
                    continue
                self.rows.append(
                    (
                        csr.indices[start:end].astype(np.int64),
                        csr.data[start:end].copy(),
                        float(rhs_vec[row]),
                        eq,
                    )
                )
        self.var_rows: dict[int, list[int]] = {}
        for row_id, (idx, _, _, _) in enumerate(self.rows):
            for j in idx:
                self.var_rows.setdefault(int(j), []).append(row_id)
        #: Row visits consumed; reset by the caller per heuristic run.
        self.visits = 0

    def propagate(self, lower, upper, seeds) -> bool:
        """Fixpoint propagation from the changed variables ``seeds``.

        Returns False on a proven conflict, True otherwise (including
        when the visit budget runs out — propagation only prunes, so
        stopping early is always safe).
        """
        pending: deque[int] = deque()
        queued: set[int] = set()

        def enqueue(var: int) -> None:
            for row_id in self.var_rows.get(var, ()):
                if row_id not in queued:
                    queued.add(row_id)
                    pending.append(row_id)

        for seed in seeds:
            enqueue(int(seed))
        while pending:
            if self.visits > _PROPAGATE_MAX_ROWS:
                return True
            self.visits += 1
            row_id = pending.popleft()
            queued.discard(row_id)
            idx, coefs, rhs, eq = self.rows[row_id]
            changed = self._le_pass(idx, coefs, rhs, lower, upper)
            if changed is None:
                return False
            if eq:
                more = self._le_pass(idx, -coefs, -rhs, lower, upper)
                if more is None:
                    return False
                changed = np.concatenate([changed, more])
            for j in changed:
                enqueue(int(j))
        return True

    def _le_pass(self, idx, a, rhs, lower, upper):
        """One ``a @ x <= rhs`` propagation pass; None means conflict."""
        lo = lower[idx]
        hi = upper[idx]
        contrib = np.where(a > 0, a * lo, a * hi)
        min_sum = contrib.sum()
        if not np.isfinite(min_sum):
            return idx[:0]  # unbounded activity: nothing to conclude
        if min_sum > rhs + 1e-7:
            return None
        candidate = (rhs - (min_sum - contrib)) / a
        ints = self.is_int[idx]
        positive = a > 0
        ub_cand = np.where(ints, np.floor(candidate + _INTEGRALITY_TOL), candidate)
        ub_mask = positive & (ub_cand < hi - 1e-7)
        lb_cand = np.where(ints, np.ceil(candidate - _INTEGRALITY_TOL), candidate)
        lb_mask = (~positive) & (lb_cand > lo + 1e-7)
        if not ub_mask.any() and not lb_mask.any():
            return idx[:0]
        upper[idx[ub_mask]] = ub_cand[ub_mask]
        lower[idx[lb_mask]] = lb_cand[lb_mask]
        if np.any(lower[idx] > upper[idx] + 1e-7):
            return None
        return idx[ub_mask | lb_mask]


def _to_sparse(rows, num_vars):
    if not rows:
        return None, None
    data = []
    row_indices = []
    col_indices = []
    rhs = []
    for row_index, coeffs, bound in rows:
        for col, coef in coeffs.items():
            row_indices.append(row_index)
            col_indices.append(col)
            data.append(coef)
        rhs.append(bound)
    matrix = sparse.csr_matrix(
        (data, (row_indices, col_indices)), shape=(len(rows), num_vars)
    )
    return matrix, np.array(rhs)
