"""Structure-aware cutting planes and combinatorial bounds.

The paper's MIN_TRANSFERS MILP has a weak LP relaxation: the root LP of
the WATERS instance proves a bound of 2 while the optimum is 5, so both
backends grind through thousands of nodes.  This module closes that gap
with three cooperating pieces, all driven by the *formulation structure*
that :class:`repro.core.formulation.LetDmaFormulation` attaches to its
model as ``model.structure_hints``:

**Combinatorial transfer bound** (:func:`transfer_lower_bound`) — every
used transfer serves exactly one ``(direction, memory)`` group (its
route), and within a group the communications sharing one transfer must
carry distinct labels and admit a memory order keeping every Constraint
6 variant subset consecutive.  The minimum number of transfers for a
group is therefore a minimum partition into "consecutive-ones feasible"
subsets, computed exactly by a bitmask DP for small groups; the sum over
groups, ``L``, is a valid lower bound on used transfers (and ``L - 1``
on the MIN_TRANSFERS objective).  Oversized subsets are *presumed*
feasible — that can only shrink ``L``, so the bound stays sound — and
oversized groups fall back to the largest same-label multiplicity.

**Constructive incumbent** (:func:`construct_incumbent`) — the DP's
witness orders are stitched into a full assignment: partitions are
merged into consistent memory chains, transfers are ordered under the
write-before-read precedences, Property-3 caps, and deadlines, and every
variable is emitted.  The candidate is canonicalized against the orbit
symmetry rows and *verified against every model constraint*; any
violation discards it.  When a verified incumbent uses exactly ``L``
transfers, bound and incumbent meet: the instance is solved to proven
optimality with no LP at all (a combinatorial certificate).

**Cutting planes** (:class:`CutEngine`) — families valid for every
feasible integer point: per-transfer cliques over same-label/different-
route conflicts, per-group route lower bounds, epigraph links
``t >= sum(used) - 1``, precedence disaggregation of the big-M ordering
(Constraints 7/8), RLT-style latency projections of the Constraint 9
big-M rows, and conditional knapsack covers from the deadline rows.
They are separated at the branch-and-bound root/node LPs (via
:class:`ReducedCutSource`, which translates through presolve's column
map) and appended to the LP handed to HiGHS by the transfer ladder.

**Transfer ladder** (:func:`solve_with_cut_layer`) — when no
certificate exists, probe ``k = L, L+1, ...``: cap the transfer-indexed
binaries to the first ``k`` slots (a pure bound fixing, undone after
each probe), clear the objective, and ask the backend for feasibility.
Stage feasible sets are nested in ``k``, so the first feasible stage
proves the optimum ``k - 1`` — each stage is a far smaller and tighter
problem than the full MILP (this is what takes a HiGHS solve of
WATERS from ~14 s to seconds).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.milp.expr import Constraint, LinExpr, Sense, Var
from repro.milp.result import Solution, SolveStatus

__all__ = [
    "structure_hints",
    "TransferBound",
    "transfer_lower_bound",
    "construct_incumbent",
    "Cut",
    "CutEngine",
    "ReducedCutSource",
    "apply_cuts",
    "solve_with_cut_layer",
]

#: Group size ceiling for the exact partition DP; larger groups use the
#: same-label multiplicity bound (valid, weaker, O(n)).
_GROUP_DP_MAX = 10
#: Subset size ceiling for the exact witness-permutation search; larger
#: subsets are presumed feasible (sound for the bound — it only
#: shrinks — but they carry no witness order for the constructor).
_WITNESS_EXACT_MAX = 7
#: Witness orders kept per feasible subset.
_WITNESS_LIMIT = 12
#: Minimum partitions enumerated per group.
_PARTITION_LIMIT = 24
#: Combined work budget (witness backtracking steps) per construction.
_CONSTRUCT_TRIES = 200_000
#: Wall-clock ceiling for one construction attempt.
_CONSTRUCT_SECONDS = 5.0
#: Transfer-permutation brute force ceiling (P! orderings).
_ORDER_BRUTE_MAX = 8

_FEAS_TOL = 1e-6


# ----------------------------------------------------------------------
# Structure hints
# ----------------------------------------------------------------------

_HINT_ATTRS = (
    "app",
    "config",
    "model",
    "comms",
    "groups",
    "task_comms",
    "global_slot",
    "local_slot",
    "local_memory",
    "routes",
    "sizes",
    "used",
    "route_on",
    "cg",
    "cgi",
    "rg",
    "rgi",
    "pl",
    "ad",
    "num_transfers",
    "slots",
)


def structure_hints(model):
    """The formulation behind ``model``, if it published one.

    :class:`~repro.core.formulation.LetDmaFormulation` attaches itself
    as ``model.structure_hints`` (duck-typed, like ``pin_free_slots``).
    Returns None for plain models — every entry point in this module
    degrades to a no-op without hints.
    """
    hints = getattr(model, "structure_hints", None)
    if hints is None:
        return None
    if any(not hasattr(hints, attr) for attr in _HINT_ATTRS):
        return None
    if hints.model is not model:
        return None
    return hints


def _is_min_transfers(hints) -> bool:
    objective = getattr(getattr(hints, "config", None), "objective", None)
    return getattr(objective, "name", "") == "MIN_TRANSFERS"


# ----------------------------------------------------------------------
# Combinatorial transfer lower bound
# ----------------------------------------------------------------------


class _GroupPlan:
    """One group's partition bound and (optional) constructive data."""

    __slots__ = ("key", "members", "bound", "partitions", "orders")

    def __init__(self, key, members, bound, partitions, orders):
        self.key = key
        self.members = members  # sorted communication indices
        self.bound = bound
        #: Minimum partitions, each a list of member bitmasks; empty
        #: when only the bound (not the construction) is available.
        self.partitions = partitions
        #: mask -> witness member orders (communication indices); a
        #: mask missing here was presumed feasible without a witness.
        self.orders = orders


class TransferBound:
    """Proven lower bound on used DMA transfers, with per-group plans."""

    __slots__ = ("total", "plans", "seconds")

    def __init__(self, total, plans, seconds):
        self.total = total
        self.plans = plans
        self.seconds = seconds


def _group_plan(key, members, variant_masks, labels) -> _GroupPlan:
    n = len(members)
    if n > _GROUP_DP_MAX:
        # Same-label clique bound: one transfer never carries two
        # copies of a label (the samelabel rows), so the largest label
        # multiplicity is a valid per-group floor.
        mult: dict[str, int] = {}
        for lab in labels:
            mult[lab] = mult.get(lab, 0) + 1
        return _GroupPlan(key, members, max(mult.values()), [], {})

    witness_cache: dict[int, "list | None"] = {}

    def witnesses(mask):
        """Member orders of ``mask`` keeping each variant subset
        consecutive; ``None`` means presumed feasible (too large for
        the exact search), ``[]`` means proven infeasible."""
        if mask in witness_cache:
            return witness_cache[mask]
        picked = [i for i in range(n) if mask >> i & 1]
        labs = [labels[i] for i in picked]
        out: "list | None" = []
        if len(set(labs)) == len(labs):
            if len(picked) > _WITNESS_EXACT_MAX:
                out = None
            else:
                relevant = {vm & mask for vm in variant_masks}
                relevant = [r for r in relevant if r.bit_count() >= 2]
                out = []
                for perm in itertools.permutations(picked):
                    pos = {m: p for p, m in enumerate(perm)}
                    ok = True
                    for r in relevant:
                        ps = sorted(pos[i] for i in picked if r >> i & 1)
                        if ps[-1] - ps[0] != len(ps) - 1:
                            ok = False
                            break
                    if ok:
                        out.append(tuple(members[i] for i in perm))
                        if len(out) >= _WITNESS_LIMIT:
                            break
        witness_cache[mask] = out
        return out

    def feasible(mask):
        w = witnesses(mask)
        return w is None or bool(w)

    full = (1 << n) - 1
    memo = {0: 0}

    def minparts(mask):
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        best = n + 1
        sub = mask
        while sub:
            if sub & low and feasible(sub):
                best = min(best, 1 + minparts(mask ^ sub))
            sub = (sub - 1) & mask
        memo[mask] = best
        return best

    bound = minparts(full)

    partitions: list[list[int]] = []

    def enumerate_partitions(mask, acc):
        if len(partitions) >= _PARTITION_LIMIT:
            return
        if mask == 0:
            partitions.append(list(acc))
            return
        if len(acc) + minparts(mask) > bound:
            return
        low = mask & -mask
        sub = mask
        while sub:
            if (
                sub & low
                and feasible(sub)
                and minparts(mask ^ sub) + len(acc) + 1 <= bound
            ):
                acc.append(sub)
                enumerate_partitions(mask ^ sub, acc)
                acc.pop()
                if len(partitions) >= _PARTITION_LIMIT:
                    return
            sub = (sub - 1) & mask

    enumerate_partitions(full, [])
    orders = {}
    for partition in partitions:
        for mask in partition:
            if mask not in orders:
                w = witnesses(mask)
                orders[mask] = list(w) if w else []
    return _GroupPlan(key, members, bound, partitions, orders)


def transfer_lower_bound(hints) -> TransferBound:
    """Per-group consecutive-ones partition bound, summed over groups.

    Exact reasoning: Constraint 2/3 route selection makes every used
    transfer serve exactly one group, samelabel rows forbid duplicate
    labels per transfer, and Constraint 6 requires each variant subset
    sharing a transfer to be consecutive in both memories — so a group
    needs at least its minimum partition into subsets admitting such an
    order.  Feasibility of a subset is closed under restriction
    (splitting a part keeps its variants consecutive), which is what
    makes the bitmask DP exact.  Cached on the formulation.
    """
    cached = getattr(hints, "_transfer_bound", None)
    if cached is not None:
        return cached
    t0 = time.perf_counter()
    subsets = hints._distinct_group_subsets()
    plans = []
    total = 0
    for key, zs in sorted(hints.groups.items()):
        members = sorted(zs)
        index = {z: i for i, z in enumerate(members)}
        variant_masks = set()
        for variant in subsets.get(key, []):
            mask = 0
            for z in variant:
                mask |= 1 << index[z]
            if mask.bit_count() >= 2:
                variant_masks.add(mask)
        labels = [hints.global_slot[z] for z in members]
        plan = _group_plan(key, members, variant_masks, labels)
        plans.append(plan)
        total += plan.bound
    bound = TransferBound(total, plans, time.perf_counter() - t0)
    hints._transfer_bound = bound
    return bound


# ----------------------------------------------------------------------
# Constructive incumbent
# ----------------------------------------------------------------------


def _precedence_pairs(hints) -> set[tuple[int, int]]:
    """(write, read) communication pairs ordered by Constraints 7/8."""
    pairs: set[tuple[int, int]] = set()
    for zs in hints.task_comms.values():
        writes = [z for z in zs if hints.comms[z].is_write]
        reads = [z for z in zs if hints.comms[z].is_read]
        for w in writes:
            for r in reads:
                pairs.add((w, r))
    writer_of = {
        hints.comms[z].label: z
        for z in range(len(hints.comms))
        if hints.comms[z].is_write
    }
    for r, comm in enumerate(hints.comms):
        if comm.is_read and comm.label in writer_of:
            pairs.add((writer_of[comm.label], r))
    return pairs


def _constrained_slots(hints):
    """Slots referenced by any Constraint 6 variant subset (the same
    notion :func:`repro.milp.presolve.pin_free_slots` pins around)."""
    global_id = hints.app.platform.global_memory.memory_id
    constrained: set[tuple[str, str]] = set()
    for variants in hints._distinct_group_subsets().values():
        for zs in variants:
            if len(zs) < 2:
                continue
            for z in zs:
                constrained.add((global_id, hints.global_slot[z]))
                constrained.add((hints.local_memory[z], hints.local_slot[z]))
    return constrained


def _arrange_memory(slots, adjacency, constrained, memory_id):
    """Full slot order: witness chains first, then the remaining
    constrained slots, then the free slots — both in declaration order.

    Free slots must land at the exact tail positions ``pin_free_slots``
    fixed for them, which this arrangement reproduces.  Returns None
    when a chain would drag a free slot forward (the verification gate
    would reject it anyway; failing early is just cheaper).
    """
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    for a, b in adjacency:
        if succ.get(a, b) != b or pred.get(b, a) != a:
            return None
        succ[a] = b
        pred[b] = a
    chained = set(succ) | set(pred)
    for slot in chained:
        if (memory_id, slot) not in constrained:
            return None
    order = []
    seen: set[str] = set()
    for slot in slots:  # chain heads in declaration order
        if slot in chained and slot not in pred:
            cur = slot
            while cur is not None:
                if cur in seen:
                    return None  # cycle
                order.append(cur)
                seen.add(cur)
                cur = succ.get(cur)
    if len(order) != len(chained):
        return None  # cycle with no head
    for slot in slots:
        if slot not in chained and (memory_id, slot) in constrained:
            order.append(slot)
    for slot in slots:
        if (memory_id, slot) not in constrained:
            order.append(slot)
    return order


def _transfer_order(parts, edges, caps, deadlines, hints):
    """A transfer permutation satisfying precedences, Property-3 caps,
    and acquisition deadlines — brute force for small part counts, a
    few deterministic topological orders otherwise."""
    P = len(parts)
    bytes_of_part = [sum(hints.sizes[z] for z in order) for _, order in parts]

    def order_ok(perm):
        pos = {p: i for i, p in enumerate(perm)}
        for a, b in edges:
            if pos[a] >= pos[b]:
                return False
        for z, part in _part_of(parts).items():
            cap = caps.get(z)
            if cap is not None and pos[part] > cap:
                return False
        prefix = []
        running = 0.0
        for p in perm:
            running += bytes_of_part[p]
            prefix.append(running)
        for task, (gamma, zs) in deadlines.items():
            rgi = max(pos[_part_of(parts)[z]] for z in zs)
            lam = (rgi + 1) * hints.lambda_overhead + hints.copy_cost * prefix[rgi]
            if lam > gamma + 1e-9:
                return False
        return True

    if P <= _ORDER_BRUTE_MAX:
        for perm in itertools.permutations(range(P)):
            if order_ok(perm):
                return perm
        return None
    # Deterministic topological candidates: Kahn's algorithm with the
    # ready set sorted by (tightest cap, byte weight) variants.
    part_of = _part_of(parts)
    part_cap = {}
    for z, part in part_of.items():
        cap = caps.get(z)
        if cap is not None:
            part_cap[part] = min(part_cap.get(part, cap), cap)
    for tiebreak in (
        lambda p: (part_cap.get(p, P), p),
        lambda p: (bytes_of_part[p], p),
        lambda p: p,
    ):
        out_edges: dict[int, list[int]] = {}
        indeg = {p: 0 for p in range(P)}
        for a, b in edges:
            out_edges.setdefault(a, []).append(b)
            indeg[b] += 1
        ready = sorted((p for p in range(P) if indeg[p] == 0), key=tiebreak)
        perm = []
        while ready:
            p = ready.pop(0)
            perm.append(p)
            for q in out_edges.get(p, ()):
                indeg[q] -= 1
                if indeg[q] == 0:
                    ready.append(q)
            ready.sort(key=tiebreak)
        if len(perm) == P and order_ok(tuple(perm)):
            return tuple(perm)
    return None


def _part_of(parts):
    mapping = {}
    for index, (_, order) in enumerate(parts):
        for z in order:
            mapping[z] = index
    return mapping


def _canonicalize_orbits(hints, values) -> None:
    """Reorder each label orbit into name order (values-level swap).

    The orbit lex rows (``SYM_orbit``) admit only the assignment whose
    orbit members sit in name order along the global-memory chain.  A
    constructed assignment is mapped onto that representative by
    permuting, within each orbit, the labels' positions and their
    communications' transfer memberships — a symmetry of the instance
    (equal sizes and identical ``(task, direction, memory)`` comm
    multisets), so feasibility and objective are untouched.  The ``ad``
    adjacencies are recomputed from positions afterwards.
    """
    orbits = getattr(hints, "_label_orbits", None)
    if not orbits:
        return
    global_id = hints.app.platform.global_memory.memory_id
    comms_by_label: dict[str, list[int]] = {}
    for z, comm in enumerate(hints.comms):
        comms_by_label.setdefault(comm.label, []).append(z)

    def comm_key(z):
        comm = hints.comms[z]
        return (comm.task, comm.direction.value, hints.local_memory[z], z)

    G = hints.num_transfers
    for members in orbits:
        position = {m: values[hints.pl[(global_id, m)]] for m in members}
        occupants = sorted(members, key=lambda m: position[m])
        targets = sorted(members)
        if occupants == targets:
            continue
        snapshot: dict[Var, float] = {}
        for label in members:
            snapshot[hints.pl[(global_id, label)]] = values[
                hints.pl[(global_id, label)]
            ]
            for z in comms_by_label.get(label, ()):
                snapshot[hints.cgi[z]] = values[hints.cgi[z]]
                local = hints.pl[(hints.local_memory[z], hints.local_slot[z])]
                snapshot[local] = values[local]
                for g in range(G):
                    snapshot[hints.cg[(z, g)]] = values[hints.cg[(z, g)]]
        for new_label, old_label in zip(targets, occupants):
            values[hints.pl[(global_id, new_label)]] = snapshot[
                hints.pl[(global_id, old_label)]
            ]
            new_comms = sorted(comms_by_label.get(new_label, ()), key=comm_key)
            old_comms = sorted(comms_by_label.get(old_label, ()), key=comm_key)
            if len(new_comms) != len(old_comms):
                return  # structure drifted; the verification gate decides
            for z_new, z_old in zip(new_comms, old_comms):
                values[hints.cgi[z_new]] = snapshot[hints.cgi[z_old]]
                values[
                    hints.pl[(hints.local_memory[z_new], hints.local_slot[z_new])]
                ] = snapshot[
                    hints.pl[(hints.local_memory[z_old], hints.local_slot[z_old])]
                ]
                for g in range(G):
                    values[hints.cg[(z_new, g)]] = snapshot[hints.cg[(z_old, g)]]


def _emit_adjacency(hints, values) -> None:
    """Recompute every ``AD`` binary from the ``PL`` positions."""
    head = getattr(hints, "slot_head", "__head__")
    tail = getattr(hints, "slot_tail", "__tail__")
    consecutive: set[tuple[str, str, str]] = set()
    for memory_id, slots in hints.slots.items():
        order = sorted(slots, key=lambda s: values[hints.pl[(memory_id, s)]])
        chain = [head] + order + [tail]
        for a, b in zip(chain, chain[1:]):
            consecutive.add((memory_id, a, b))
    for key, var in hints.ad.items():
        values[var] = 1.0 if key in consecutive else 0.0


def construct_incumbent(
    hints, bound: TransferBound, budget: "float | None" = None
) -> "dict[Var, float] | None":
    """A verified feasible assignment using exactly ``bound.total``
    transfers, or None.

    Stitches the partition witnesses into memory chains
    (backtracking over partition and witness choices until the implied
    global-memory adjacencies are mutually consistent), orders the
    transfers under precedence/cap/deadline constraints, emits every
    model variable, canonicalizes against the orbit symmetry rows, and
    finally checks the assignment against *every* model constraint —
    construction bugs degrade to "no certificate", never to a wrong
    answer.
    """
    t0 = time.perf_counter()
    wall_budget = _CONSTRUCT_SECONDS
    if budget is not None:
        wall_budget = min(wall_budget, budget)
    if wall_budget <= 0:
        return None
    head = getattr(hints, "slot_head", "__head__")
    if (hints.app.platform.global_memory.memory_id, head) not in hints.pl:
        # Not the chain encoding (e.g. the positional formulation's
        # one-hot layout): emission would need its auxiliary variables.
        # The transfer ladder still applies; only the constructed
        # certificate is skipped.
        return None
    for plan in bound.plans:
        if not plan.partitions:
            return None
    candidates = []
    for plan in bound.plans:
        usable = [
            partition
            for partition in plan.partitions
            if all(plan.orders.get(mask) for mask in partition)
        ]
        if not usable:
            return None
        candidates.append((plan, usable))

    config = hints.config
    constrained = _constrained_slots(hints)
    global_id = hints.app.platform.global_memory.memory_id
    all_labels = [label.name for label in hints.app.shared_labels]
    prec = _precedence_pairs(hints)
    caps = dict(getattr(hints, "cgi_caps", {}) or {})
    deadlines: dict[str, tuple[float, list[int]]] = {}
    if config.enforce_deadlines:
        for task, zs in hints.task_comms.items():
            gamma = hints.app.tasks[task].acquisition_deadline_us
            if gamma is not None:
                deadlines[task] = (gamma, list(zs))

    tries = 0

    def mg_chains(parts):
        """Global-label adjacency pairs implied by the witness orders
        (free labels excised — their positions are pinned)."""
        adjacency = []
        for _, order in parts:
            labs = [
                hints.global_slot[z]
                for z in order
                if (global_id, hints.global_slot[z]) in constrained
            ]
            adjacency.extend(zip(labs, labs[1:]))
        return adjacency

    def backtrack(index, flat_parts, chosen):
        nonlocal tries
        if tries > _CONSTRUCT_TRIES:
            return None
        if time.perf_counter() - t0 > wall_budget:
            return None
        if index == len(flat_parts):
            return list(chosen)
        key, mask, orders = flat_parts[index]
        for order in orders:
            tries += 1
            chosen.append((key, order))
            consistent = (
                _arrange_memory(
                    all_labels, mg_chains(chosen), constrained, global_id
                )
                is not None
            )
            if consistent:
                result = backtrack(index + 1, flat_parts, chosen)
                if result is not None:
                    return result
            chosen.pop()
        return None

    for combo in itertools.product(*(range(len(u)) for _, u in candidates)):
        if time.perf_counter() - t0 > wall_budget:
            return None
        flat_parts = []
        for (plan, usable), pick in zip(candidates, combo):
            for mask in usable[pick]:
                flat_parts.append((plan.key, mask, plan.orders[mask]))
        chosen = backtrack(0, flat_parts, [])
        if chosen is None:
            continue
        values = _emit_assignment(
            hints, chosen, constrained, global_id, prec, caps, deadlines
        )
        if values is not None:
            return values
        if tries > _CONSTRUCT_TRIES:
            return None
    return None


def _emit_assignment(hints, parts, constrained, global_id, prec, caps, deadlines):
    """Emit, canonicalize, and verify one chosen set of parts."""
    part_of = _part_of(parts)
    edges = set()
    for w, r in prec:
        pw, pr = part_of[w], part_of[r]
        if pw == pr:
            return None  # write and read in one transfer: invalid parts
        edges.add((pw, pr))
    perm = _transfer_order(parts, edges, caps, deadlines, hints)
    if perm is None:
        return None
    pos_of_part = {p: i for i, p in enumerate(perm)}

    mg_adjacency = []
    for _, order in parts:
        labs = [
            hints.global_slot[z]
            for z in order
            if (global_id, hints.global_slot[z]) in constrained
        ]
        mg_adjacency.extend(zip(labs, labs[1:]))
    mg_order = _arrange_memory(
        [label.name for label in hints.app.shared_labels],
        mg_adjacency,
        constrained,
        global_id,
    )
    if mg_order is None:
        return None

    values: dict[Var, float] = {v: 0.0 for v in hints.model.variables}
    head = getattr(hints, "slot_head", "__head__")
    tail = getattr(hints, "slot_tail", "__tail__")

    def assign_chain(memory_id, order):
        chain = [head] + list(order) + [tail]
        for i, slot in enumerate(chain):
            values[hints.pl[(memory_id, slot)]] = float(i)

    assign_chain(global_id, mg_order)
    for memory_id, slots in hints.slots.items():
        if memory_id == global_id or not slots:
            continue
        adjacency = []
        for key, order in parts:
            if key[1] != memory_id:
                continue
            locals_ = [
                hints.local_slot[z]
                for z in order
                if (memory_id, hints.local_slot[z]) in constrained
            ]
            adjacency.extend(zip(locals_, locals_[1:]))
        order = _arrange_memory(slots, adjacency, constrained, memory_id)
        if order is None:
            return None
        assign_chain(memory_id, order)

    for index, (key, order) in enumerate(parts):
        g = pos_of_part[index]
        values[hints.used[g]] = 1.0
        values[hints.route_on[(hints.routes[order[0]], g)]] = 1.0
        for z in order:
            values[hints.cg[(z, g)]] = 1.0
            values[hints.cgi[z]] = float(g)

    bytes_of_part = [sum(hints.sizes[z] for z in order) for _, order in parts]
    prefix_bytes = []
    running = 0.0
    for i in range(len(parts)):
        part_at = perm[i]
        running += bytes_of_part[part_at]
        prefix_bytes.append(running)
    for task, zs in hints.task_comms.items():
        rgi = max(pos_of_part[part_of[z]] for z in zs)
        values[hints.rg[(task, rgi)]] = 1.0
        values[hints.rgi[task]] = float(rgi)
        lam = (rgi + 1) * hints.lambda_overhead + hints.copy_cost * prefix_bytes[rgi]
        values[hints.latency[task]] = lam

    _canonicalize_orbits(hints, values)
    _emit_adjacency(hints, values)
    for (i, z), var in hints._pairadj_cache.items():
        memory_id = hints.local_memory[i]
        adg = values[
            hints.ad[(global_id, hints.global_slot[i], hints.global_slot[z])]
        ]
        adl = values[
            hints.ad[(memory_id, hints.local_slot[i], hints.local_slot[z])]
        ]
        values[var] = min(adg, adl)
    for (i, z, g), var in hints._lg_cache.items():
        values[var] = min(
            values[hints._pairadj_cache[(i, z)]], values[hints.cg[(z, g)]]
        )
    if hints.model.minimax is not None:
        t_var = hints.model.minimax[0]
        values[t_var] = max(values[hints.rgi[task]] for task in hints.task_comms)

    for var, value in values.items():
        if value < var.lower - _FEAS_TOL or value > var.upper + _FEAS_TOL:
            return None
    if hints.model.check_assignment(values):
        return None
    return values


# ----------------------------------------------------------------------
# Cutting planes
# ----------------------------------------------------------------------


class Cut:
    """One valid inequality in original-variable space."""

    __slots__ = ("name", "terms", "sense", "rhs")

    def __init__(self, name, terms, sense, rhs):
        self.name = name
        self.terms = terms  # dict[Var, float]
        self.sense = sense  # Sense.LE or Sense.GE
        self.rhs = float(rhs)

    def violation(self, value_of) -> float:
        lhs = sum(coef * value_of(var) for var, coef in self.terms.items())
        if self.sense is Sense.LE:
            return lhs - self.rhs
        return self.rhs - lhs


class CutEngine:
    """Separation oracle over the formulation's structure.

    Every row it emits holds for **every** feasible integer point of
    the model (the cut property test fuzzes exactly this), so cuts can
    be added at any node, under any objective, without changing the
    answer.  Symmetry rows (``SYM_*``) are *not* cuts and never pass
    through here.
    """

    def __init__(self, hints, bound: "TransferBound | None" = None):
        self.hints = hints
        self.bound = bound
        self.Z = len(hints.comms)
        self.G = hints.num_transfers
        self.prec = sorted(_precedence_pairs(hints))
        self._minimax_var = None
        if _is_min_transfers(hints) and hints.model.minimax is not None:
            self._minimax_var = hints.model.minimax[0]
        self._static = self._build_static()

    # -- static families ----------------------------------------------

    def _build_static(self) -> list[Cut]:
        hints = self.hints
        cuts: list[Cut] = []
        G = self.G
        if self.bound is not None and self.bound.total > 0:
            terms = {hints.used[g]: 1.0 for g in range(G)}
            cuts.append(
                Cut("static_used_lb", terms, Sense.GE, float(self.bound.total))
            )
            for plan in self.bound.plans:
                if plan.bound <= 0 or not plan.members:
                    continue
                route = hints.routes[plan.members[0]]
                terms = {hints.route_on[(route, g)]: 1.0 for g in range(G)}
                cuts.append(
                    Cut(
                        f"static_route_lb[{plan.key[0]}][{plan.key[1]}]",
                        terms,
                        Sense.GE,
                        float(plan.bound),
                    )
                )
        if self._minimax_var is not None:
            # t = max RGI >= (#used transfers) - 1 by compactness: GE
            # only — t may float above in non-vertex solutions, so the
            # equality version would cut feasible points.
            terms = {hints.used[g]: -1.0 for g in range(G)}
            terms[self._minimax_var] = 1.0
            cuts.append(Cut("static_epigraph_used", terms, Sense.GE, -1.0))
            if self.bound is not None and self.bound.total > 0:
                cuts.append(
                    Cut(
                        "static_epigraph_lb",
                        {self._minimax_var: 1.0},
                        Sense.GE,
                        float(self.bound.total - 1),
                    )
                )
        # Precedence depth: a read with a preceding write cannot ride
        # transfer 0; the write cannot ride the read's last admissible
        # transfer.
        caps = dict(getattr(hints, "cgi_caps", {}) or {})
        for w, r in self.prec:
            cuts.append(
                Cut(f"static_depth[{r}]", {hints.cgi[r]: 1.0}, Sense.GE, 1.0)
            )
            cap = caps.get(r, G - 1)
            cuts.append(
                Cut(
                    f"static_height[{w}][{r}]",
                    {hints.cgi[w]: 1.0},
                    Sense.LE,
                    float(cap - 1),
                )
            )
        # RLT latency projection of the Constraint 9 big-M rows: all of
        # a task's bytes ride transfers up to RGI, so
        # lambda >= lambda_O * (RGI + 1) + omega * task_bytes.
        for task, zs in hints.task_comms.items():
            task_bytes = sum(hints.sizes[z] for z in zs)
            terms = {
                hints.latency[task]: 1.0,
                hints.rgi[task]: -hints.lambda_overhead,
            }
            rhs = hints.lambda_overhead + hints.copy_cost * task_bytes
            cuts.append(Cut(f"static_rlt_lambda[{task}]", terms, Sense.GE, rhs))
        return cuts

    def static_cuts(self) -> list[Cut]:
        return list(self._static)

    # -- separation ----------------------------------------------------

    def separate(self, value_of, max_cuts: int = 80) -> list[Cut]:
        """Violated valid inequalities at the LP point ``value_of``."""
        out = []
        for cut in self._static:
            if cut.violation(value_of) > _FEAS_TOL:
                out.append(cut)
        out.extend(self._separate_cliques(value_of))
        out.extend(self._separate_precedence(value_of))
        out.extend(self._separate_covers(value_of))
        out.sort(key=lambda cut: -cut.violation(value_of))
        return out[:max_cuts]

    def _separate_cliques(self, value_of) -> list[Cut]:
        """Per-transfer conflict cliques: comms with equal labels or
        different routes cannot share a transfer, so any pairwise-
        conflicting set K gives ``sum(cg[z, g] for z in K) <= used[g]``."""
        hints = self.hints
        cuts = []
        for g in range(self.G):
            used_value = value_of(hints.used[g])
            fractional = [
                (value_of(hints.cg[(z, g)]), z)
                for z in range(self.Z)
                if value_of(hints.cg[(z, g)]) > 1e-9
            ]
            if not fractional:
                continue
            fractional.sort(key=lambda item: -item[0])
            clique: list[int] = []
            total = 0.0
            for value, z in fractional:
                conflicts_all = all(
                    hints.global_slot[z] == hints.global_slot[other]
                    or hints.routes[z] != hints.routes[other]
                    for other in clique
                )
                if conflicts_all:
                    clique.append(z)
                    total += value
            if len(clique) >= 2 and total > used_value + _FEAS_TOL:
                clique.sort()
                terms = {hints.cg[(z, g)]: 1.0 for z in clique}
                terms[hints.used[g]] = terms.get(hints.used[g], 0.0) - 1.0
                name = f"clique[{g}][{'-'.join(map(str, clique))}]"
                cuts.append(Cut(name, terms, Sense.LE, 0.0))
        return cuts

    def _separate_precedence(self, value_of) -> list[Cut]:
        """Disaggregated write-before-read: the read in transfers
        ``0..g`` forces the write into ``0..g-1`` (Constraints 7/8 only
        say this through big-M rows on CGI, which the LP relaxes)."""
        hints = self.hints
        cuts = []
        for w, r in self.prec:
            read_prefix = 0.0
            write_prefix = 0.0
            for g in range(self.G):
                read_prefix += value_of(hints.cg[(r, g)])
                if g > 0:
                    write_prefix += value_of(hints.cg[(w, g - 1)])
                if read_prefix > write_prefix + _FEAS_TOL:
                    terms: dict[Var, float] = {}
                    for gp in range(g + 1):
                        terms[hints.cg[(r, gp)]] = (
                            terms.get(hints.cg[(r, gp)], 0.0) + 1.0
                        )
                    for gp in range(g):
                        terms[hints.cg[(w, gp)]] = (
                            terms.get(hints.cg[(w, gp)], 0.0) - 1.0
                        )
                    cuts.append(
                        Cut(f"precdis[{w}][{r}][{g}]", terms, Sense.LE, 0.0)
                    )
                    break  # one row per pair per round
        return cuts

    def _separate_covers(self, value_of) -> list[Cut]:
        """Conditional knapsack covers from the deadline rows: if task
        ``i`` acquires by transfer ``g`` (``rg[i, g] = 1``), the bytes
        riding transfers ``0..g`` fit the deadline budget
        ``B_g = (gamma - (g+1) * lambda_O) / omega``; a set C with
        ``sum(sizes) > B_g`` cannot ride 0..g completely."""
        hints = self.hints
        if not hints.config.enforce_deadlines or hints.copy_cost <= 0:
            return []
        cuts = []
        for task in sorted(hints.task_comms):
            gamma = hints.app.tasks[task].acquisition_deadline_us
            if gamma is None:
                continue
            for g in range(self.G):
                rg_value = value_of(hints.rg[(task, g)])
                if rg_value < 0.5:
                    continue
                budget = (
                    gamma - (g + 1) * hints.lambda_overhead
                ) / hints.copy_cost
                prefix = {
                    z: sum(value_of(hints.cg[(z, gp)]) for gp in range(g + 1))
                    for z in range(self.Z)
                }
                # Greedy minimal cover: heaviest LP-prefix comms first.
                order = sorted(
                    (z for z in range(self.Z) if prefix[z] > 1e-9),
                    key=lambda z: (-prefix[z], -hints.sizes[z]),
                )
                cover: list[int] = []
                size_sum = 0.0
                for z in order:
                    cover.append(z)
                    size_sum += hints.sizes[z]
                    if size_sum > budget + 1e-9:
                        break
                if size_sum <= budget + 1e-9 or len(cover) < 2:
                    continue
                lhs = sum(prefix[z] for z in cover)
                n_cover = len(cover)
                rhs_now = (n_cover - 1) + n_cover * (1.0 - rg_value)
                if lhs <= rhs_now + _FEAS_TOL:
                    continue
                terms: dict[Var, float] = {}
                for z in cover:
                    for gp in range(g + 1):
                        terms[hints.cg[(z, gp)]] = (
                            terms.get(hints.cg[(z, gp)], 0.0) + 1.0
                        )
                terms[hints.rg[(task, g)]] = (
                    terms.get(hints.rg[(task, g)], 0.0) + float(n_cover)
                )
                cover.sort()
                name = f"cover[{task}][{g}][{'-'.join(map(str, cover))}]"
                cuts.append(
                    Cut(name, terms, Sense.LE, float(2 * n_cover - 1))
                )
        return cuts


class ReducedCutSource:
    """Adapts a :class:`CutEngine` to one model's column space.

    The engine reasons in original-formulation variables; the branch
    and bound may be solving the presolve-reduced model.  This adapter
    resolves LP values through the presolve maps on the way in and
    translates cut rows (folding presolve-fixed variables into the
    right-hand side) on the way out.
    """

    def __init__(self, engine: CutEngine, presolved=None):
        self.engine = engine
        self.presolved = presolved

    def _value_of(self, x):
        if self.presolved is None:
            def value_of(var):
                return float(x[var.index])
        else:
            fixed = self.presolved.fixed
            var_map = self.presolved.var_map
            def value_of(var):
                fixed_value = fixed.get(var.index)
                if fixed_value is not None:
                    return fixed_value
                return float(x[var_map[var.index].index])
        return value_of

    def _translate(self, cut: Cut):
        sign = 1.0 if cut.sense is Sense.LE else -1.0
        rhs = sign * cut.rhs
        cols: list[int] = []
        coefs: list[float] = []
        fixed = self.presolved.fixed if self.presolved is not None else None
        var_map = self.presolved.var_map if self.presolved is not None else None
        for var, coef in cut.terms.items():
            a = sign * coef
            if fixed is not None:
                fixed_value = fixed.get(var.index)
                if fixed_value is not None:
                    rhs -= a * fixed_value
                    continue
                var = var_map[var.index]
            cols.append(var.index)
            coefs.append(a)
        if not cols:
            return None
        return (
            np.array(cols, dtype=np.int64),
            np.array(coefs, dtype=float),
            rhs,
            cut.name,
        )

    def separate_rows(self, x):
        """Valid ``<=`` rows at LP point ``x`` (reduced column space)."""
        value_of = self._value_of(x)
        rows = []
        for cut in self.engine.separate(value_of):
            row = self._translate(cut)
            if row is not None:
                rows.append(row)
        return rows


def apply_cuts(model, cuts) -> int:
    """Append cuts to ``model`` as named ``CUT_*`` constraint rows.

    The caller owns removal (``del model.constraints[n:]``) — the
    transfer ladder adds stage cuts and strips them after each probe.
    """
    added = 0
    for cut in cuts:
        expr = LinExpr(dict(cut.terms), -cut.rhs)
        model.add(Constraint(expr, cut.sense), name=f"CUT_{cut.name}")
        added += 1
    return added


# ----------------------------------------------------------------------
# Transfer ladder
# ----------------------------------------------------------------------


def _remaining(deadline) -> "float | None":
    if deadline is None:
        return None
    return max(0.1, deadline - time.perf_counter())


def _cap_stage(model, hints, k, saved) -> None:
    """Zero the transfer-indexed binaries for slots ``>= k`` and cap
    the index variables at ``k - 1`` (pure bound fixing; ``saved``
    records originals for the caller's ``finally`` restore)."""
    G = hints.num_transfers

    def cap(var, upper):
        saved.append((var, var.lower, var.upper))
        if upper < var.upper:
            var.upper = upper

    for g in range(k, G):
        cap(hints.used[g], 0.0)
        for task in hints.task_comms:
            cap(hints.rg[(task, g)], 0.0)
        for z in range(len(hints.comms)):
            cap(hints.cg[(z, g)], 0.0)
    for (route, g), var in hints.route_on.items():
        if g >= k:
            cap(var, 0.0)
    for z in range(len(hints.comms)):
        cap(hints.cgi[z], float(k - 1))
    for task in hints.task_comms:
        cap(hints.rgi[task], float(k - 1))
    if model.minimax is not None:
        cap(model.minimax[0], float(k - 1))


def _solve_stage(
    model,
    hints,
    engine,
    k,
    backend,
    deadline,
    mip_gap,
    presolve,
    start,
) -> Solution:
    """Feasibility probe: is there a solution using at most ``k``
    transfers?  Bounds, objective, and appended cut rows are restored
    before returning, whatever happens."""
    from repro.milp.branch_and_bound import solve_with_branch_and_bound
    from repro.milp.presolve import presolve_model
    from repro.milp.scipy_backend import solve_with_highs

    saved_bounds: list = []
    saved_objective = model.objective
    n_constraints = len(model.constraints)
    try:
        _cap_stage(model, hints, k, saved_bounds)
        model.objective = LinExpr()
        apply_cuts(model, engine.static_cuts())
        budget = _remaining(deadline)
        if presolve:
            presolved = presolve_model(model)
            if presolved.infeasible:
                return Solution(
                    status=SolveStatus.INFEASIBLE,
                    runtime_seconds=presolved.stats.seconds,
                    message=f"stage k={k}: presolve proven infeasible",
                )
            if presolved.reduced.num_variables == 0:
                return presolved.trivial_solution()
            inner_start = presolved.translate_start(start) if start else None
            if backend == "highs":
                inner = solve_with_highs(
                    presolved.reduced, budget, mip_gap, start=inner_start
                )
            else:
                inner = solve_with_branch_and_bound(
                    presolved.reduced,
                    budget,
                    mip_gap,
                    start=inner_start,
                    cut_source=ReducedCutSource(engine, presolved),
                )
            return presolved.restore(inner)
        if backend == "highs":
            return solve_with_highs(model, budget, mip_gap, start=start)
        return solve_with_branch_and_bound(
            model, budget, mip_gap, start=start,
            cut_source=ReducedCutSource(engine),
        )
    finally:
        del model.constraints[n_constraints:]
        model.objective = saved_objective
        for var, lower, upper in saved_bounds:
            var.lower = lower
            var.upper = upper


def _count_transfers(hints, values) -> int:
    return int(
        round(sum(values[hints.used[g]] for g in range(hints.num_transfers)))
    )


def solve_with_cut_layer(
    model,
    backend: str = "highs",
    time_limit_seconds: "float | None" = None,
    mip_gap: "float | None" = None,
    presolve: bool = True,
    start: "dict | None" = None,
) -> "Solution | None":
    """The exact transfer ladder for MIN_TRANSFERS formulations.

    Returns None when it does not apply (no structure hints, different
    objective) — the caller then runs the plain solve path.  Otherwise
    returns a complete :class:`Solution`:

    1. combinatorial certificate when the constructive incumbent meets
       the partition bound ``L`` (optimal, no LP);
    2. otherwise bound-fixing stages ``k = L, L+1, ...`` until the
       first feasible one proves the optimum ``k - 1``;
    3. honest ``FEASIBLE``/``TIMEOUT`` with the proven dual bound when
       the budget runs out mid-ladder.

    Ladder progress (proven-infeasible stages, the certificate) is
    cached on the model instance, so portfolio rungs sharing one
    formulation never re-prove a stage.
    """
    hints = structure_hints(model)
    if hints is None or not _is_min_transfers(hints):
        return None
    if model.minimax is None:
        return None
    begin = time.perf_counter()
    deadline = (
        begin + time_limit_seconds if time_limit_seconds is not None else None
    )
    state = model.__dict__.setdefault(
        "_cut_layer_state", {"infeasible": set(), "certificate": None}
    )
    cached = state["certificate"]
    if cached is not None:
        return cached

    bound = transfer_lower_bound(hints)
    L = bound.total
    G = hints.num_transfers
    if L > G:
        return Solution(
            status=SolveStatus.INFEASIBLE,
            runtime_seconds=time.perf_counter() - begin,
            message=(
                f"cut layer: partition bound needs {L} transfers, "
                f"only {G} slots exist"
            ),
        )

    # A caller-supplied start that is feasible and already meets the
    # bound is itself a certificate (the warm path hits this).
    start_transfers = None
    start_values = None
    if start is not None and not model.check_assignment(start):
        start_values = dict(start)
        start_transfers = _count_transfers(hints, start_values)
        if start_transfers == L:
            solution = _certificate(
                model, start_values, L, begin,
                "cut layer: warm start meets the partition bound", seeded=True,
            )
            state["certificate"] = solution
            return solution

    if deadline is not None and time.perf_counter() > deadline:
        # The budget expired during bound computation / start checks.
        # Respect it: the portfolio's degradation contract (exact rung
        # times out -> greedy rung answers) must hold under cuts too.
        return _inconclusive(
            model, hints, start_values, start_transfers, L, begin
        )

    construct_budget = (
        None if deadline is None else deadline - time.perf_counter()
    )
    values = construct_incumbent(hints, bound, budget=construct_budget)
    if values is not None:
        solution = _certificate(
            model, values, L, begin,
            f"cut layer: combinatorial certificate "
            f"(partition bound {L} == constructed transfers)",
        )
        state["certificate"] = solution
        if deadline is not None and time.perf_counter() > deadline:
            # The certificate completed past the budget.  Honor the
            # budget contract (the portfolio's degradation semantics
            # depend on it) but keep the proof cached: the next solve
            # of this model returns it instantly.
            return Solution(
                status=SolveStatus.TIMEOUT,
                runtime_seconds=time.perf_counter() - begin,
                message=(
                    "cut layer: certificate completed past the budget; "
                    "cached for the next call"
                ),
                best_bound=float(L - 1),
            )
        return solution

    engine = CutEngine(hints, bound)
    upper_k = G if start_transfers is None else start_transfers - 1
    proven_below = L  # every k' < proven_below is proven infeasible
    for k in range(L, upper_k + 1):
        if k in state["infeasible"]:
            proven_below = k + 1
            continue
        if deadline is not None and time.perf_counter() > deadline - 0.5:
            return _inconclusive(
                model, hints, start_values, start_transfers, proven_below, begin
            )
        stage = _solve_stage(
            model, hints, engine, k, backend, deadline, mip_gap, presolve, start
        )
        if stage.status.has_solution:
            objective = float(k - 1)
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=objective,
                values=stage.values,
                runtime_seconds=time.perf_counter() - begin,
                message=(
                    f"cut layer: ladder proved optimum at k={k} "
                    f"(stages {L}..{k - 1} infeasible) | {stage.message}"
                ),
                best_bound=objective,
                mip_gap=0.0,
                node_count=stage.node_count,
                lp_calls=stage.lp_calls,
                incumbent_seconds=stage.incumbent_seconds,
                seeded=stage.seeded,
                cuts_added=stage.cuts_added,
                cut_rounds=stage.cut_rounds,
            )
        if stage.status is SolveStatus.INFEASIBLE:
            state["infeasible"].add(k)
            proven_below = k + 1
            continue
        return _inconclusive(
            model, hints, start_values, start_transfers, proven_below, begin,
            stage,
        )
    if start_values is not None:
        # Stages L..start-1 all infeasible: the start is optimal.
        return _certificate(
            model, start_values, start_transfers, begin,
            f"cut layer: ladder proved the {start_transfers}-transfer "
            "start optimal", seeded=True,
        )
    return Solution(
        status=SolveStatus.INFEASIBLE,
        runtime_seconds=time.perf_counter() - begin,
        message=f"cut layer: all stages {L}..{G} proven infeasible",
    )


def _certificate(model, values, transfers, begin, message, seeded=False):
    """An OPTIMAL solution with objective ``transfers - 1``.

    The stage probes run with a cleared objective, so the epigraph
    variable may sit anywhere above max RGI; snap it to the objective
    value (its epigraph rows are all ``>=``, so lowering it to the
    exact max keeps the assignment feasible).
    """
    objective = float(transfers - 1)
    values = dict(values)
    if model.minimax is not None:
        t_var = model.minimax[0]
        exprs = model.minimax[1]
        values[t_var] = max(
            (expr.value(values) for expr in exprs), default=objective
        )
        objective = float(values[t_var])
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        runtime_seconds=time.perf_counter() - begin,
        message=message,
        best_bound=objective,
        mip_gap=0.0,
        seeded=seeded,
    )


def _inconclusive(
    model, hints, start_values, start_transfers, proven_below, begin, stage=None
):
    """Budget ran out mid-ladder: report the proven dual bound."""
    best_bound = float(proven_below - 1)
    elapsed = time.perf_counter() - begin
    suffix = f" | {stage.message}" if stage is not None else ""
    if start_values is not None:
        objective = float(start_transfers - 1)
        gap = abs(objective - best_bound) / max(1.0, abs(objective))
        return Solution(
            status=SolveStatus.FEASIBLE,
            objective=objective,
            values=dict(start_values),
            runtime_seconds=elapsed,
            message=(
                f"cut layer: budget exhausted at stage k={proven_below}; "
                f"start incumbent kept{suffix}"
            ),
            best_bound=best_bound,
            mip_gap=gap,
            seeded=True,
            cuts_added=stage.cuts_added if stage else 0,
            cut_rounds=stage.cut_rounds if stage else 0,
        )
    return Solution(
        status=SolveStatus.TIMEOUT,
        runtime_seconds=elapsed,
        message=(
            f"cut layer: budget exhausted at stage k={proven_below}, "
            f"no incumbent{suffix}"
        ),
        best_bound=best_bound,
        cuts_added=stage.cuts_added if stage else 0,
        cut_rounds=stage.cut_rounds if stage else 0,
    )
