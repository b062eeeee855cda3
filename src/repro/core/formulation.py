"""The paper's MILP formulation (Section VI).

Given an application (task set, labels, platform, and per-task data
acquisition deadlines gamma_i), the formulation jointly decides:

* the memory layout of every shared label in global memory and of every
  local copy in the scratchpads (adjacency variables ``AD`` and
  position variables ``PL``, Constraints 4-5);
* the grouping of the LET communications at the synchronous release
  s_0 into DMA transfers (``CG``, Constraints 1 and 6);
* the execution order of the transfers, respecting the LET properties
  (Constraints 7, 8, 10) and the data acquisition deadlines
  (Constraints 2, 3, 9).

Variable and constraint names follow the paper.  Deviations (all
documented in DESIGN.md §6):

* *same-route* and *compactness* constraints are added: communications
  sharing a transfer must share the (source, destination) memory pair,
  and transfer index g+1 can be used only when index g is (so transfer
  indices count transfers without gaps, which Constraint 9's accounting
  implicitly assumes);
* ``RG``/``RGI`` track the last *communication* of a task at s_0 rather
  than the last read: for every task with at least one read they
  coincide (Constraint 7 orders each task's writes before its reads),
  and for write-only tasks the generalization supplies the readiness
  accounting that rule R1 of the protocol requires;
* Constraint 10 is algebraically reduced: with constant per-instant
  byte totals it is equivalent to a per-communication upper bound on
  the transfer index, ``CGI_z <= (gap - omega_c * bytes(t1)) / lambda_O - 1``;
* two communications moving the *same* label in the same direction into
  the same memory (two same-core consumers of one label) can never form
  a contiguous source block, so they are forbidden from sharing a
  transfer explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.defaults import (
    DEFAULT_CUTS,
    DEFAULT_MILP_BACKEND,
    DEFAULT_MIP_GAP,
    DEFAULT_TIME_LIMIT_SECONDS,
)
from repro.let.communication import Communication
from repro.let.grouping import active_instants, communications_at
from repro.milp import LinExpr, MilpModel, Var, lin_sum
from repro.model.application import Application

__all__ = ["Objective", "FormulationConfig", "LetDmaFormulation"]

#: Sentinel slot ids delimiting each memory's allocation chain.
HEAD = "__head__"
TAIL = "__tail__"


class Objective(enum.Enum):
    """Objective mode for the MILP (Section VI, Eqs. (4)-(5))."""

    NONE = "NO-OBJ"  # pure feasibility
    MIN_TRANSFERS = "OBJ-DMAT"  # Eq. (4): minimize max_i RGI_i
    MIN_DELAY_RATIO = "OBJ-DEL"  # Eq. (5): minimize max_i lambda_i / T_i

    def __str__(self) -> str:
        return self.value


@dataclass
class FormulationConfig:
    """Tunables of the MILP formulation.

    Attributes:
        objective: One of the paper's three objective modes.
        max_transfers: The number G of transfer slots made available to
            the solver.  Defaults to one slot per communication at s_0
            (always sufficient: the per-label schedule is feasible
            whenever any schedule is).
        enforce_deadlines: Apply ``lambda_i <= gamma_i`` (Constraint 9)
            for tasks whose gamma_i is set.
        enforce_property3: Apply Constraint 10 between consecutive
            active instants (including the hyperperiod wrap-around).
        backend: MILP backend ("highs" or "bnb").
        time_limit_seconds: Solver wall-clock budget (the paper used a
            1-hour CPLEX timeout).  Defaults, like ``backend`` and
            ``mip_gap``, come from :mod:`repro.defaults` — the single
            source of solver defaults shared with the cache, the
            :func:`repro.solve` facade, and the CLI.
        mip_gap: Optional relative optimality gap at which to stop.
        presolve: Run the answer-preserving MILP presolve pass before
            the backend (:mod:`repro.milp.presolve`).  Affects solve
            time only, never the reported objective, so it is excluded
            from cache keys.
        symmetry_breaking: Pin interchangeable memory slots (those in
            no contiguity subset) to canonical tail positions, and add
            lex-ordering rows over label permutation orbits.  Also
            answer-preserving; see
            :func:`repro.milp.presolve.pin_free_slots` and
            :func:`repro.milp.presolve.add_label_orbit_rows`.
        cuts: Enable the structure-aware cut layer
            (:mod:`repro.milp.cuts`): transfer-ladder optimality proofs
            for MIN_TRANSFERS and cutting planes in the ``bnb``
            backend.  Answer-preserving, so excluded from cache keys.
    """

    objective: Objective = Objective.NONE
    max_transfers: int | None = None
    enforce_deadlines: bool = True
    enforce_property3: bool = True
    backend: str = DEFAULT_MILP_BACKEND
    time_limit_seconds: float | None = DEFAULT_TIME_LIMIT_SECONDS
    mip_gap: float | None = DEFAULT_MIP_GAP
    presolve: bool = True
    symmetry_breaking: bool = True
    cuts: bool = DEFAULT_CUTS


class LetDmaFormulation:
    """Builds (and solves) the paper's MILP for one application."""

    #: Position of the first memory slot in the ``PL`` variables: the
    #: chain encoding reserves 0 for the HEAD sentinel.  Subclasses
    #: with a different layout encoding override this so symmetry
    #: breaking (:func:`repro.milp.presolve.pin_free_slots`) pins free
    #: slots into the right range.
    slot_position_base = 1
    #: Sentinel slot names bounding each memory's position chain; the
    #: cut layer's constructive incumbent emits them explicitly.
    slot_head = HEAD
    slot_tail = TAIL

    def __init__(self, app: Application, config: FormulationConfig | None = None):
        self.app = app
        self.config = config or FormulationConfig()
        self.comms: list[Communication] = communications_at(app, 0)
        if not self.comms:
            raise ValueError(
                "application has no inter-core LET communications; "
                "nothing to allocate"
            )
        self.num_transfers = (
            self.config.max_transfers
            if self.config.max_transfers is not None
            else len(self.comms)
        )
        if self.num_transfers < 1:
            raise ValueError("max_transfers must be at least 1")
        self.model = MilpModel(f"let-dma[{self.config.objective}]")
        self._build()

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------

    def _prepare_data(self) -> None:
        app = self.app
        self.dma = app.platform.dma
        self.lambda_overhead = self.dma.per_transfer_overhead_us
        self.copy_cost = self.dma.copy_cost_us_per_byte

        # Slot inventory per memory: shared labels in MG, copies locally.
        self.slots: dict[str, list[str]] = {
            app.platform.global_memory.memory_id: [
                label.name for label in app.shared_labels
            ]
        }
        self.slot_sizes: dict[tuple[str, str], int] = {}
        global_id = app.platform.global_memory.memory_id
        for label in app.shared_labels:
            self.slot_sizes[(global_id, label.name)] = label.size_bytes
        for memory in app.platform.local_memories:
            self.slots[memory.memory_id] = []
        for copy in app.local_copies:
            self.slots[copy.memory_id].append(copy.copy_id)
            self.slot_sizes[(copy.memory_id, copy.copy_id)] = app.label(
                copy.label_name
            ).size_bytes

        # Per-communication slot and route lookups.
        self.global_slot: list[str] = []
        self.local_slot: list[str] = []
        self.local_memory: list[str] = []
        self.routes: list[tuple[str, str]] = []
        self.sizes: list[int] = []
        for comm in self.comms:
            memory_id = comm.local_memory_id(app)
            self.global_slot.append(comm.label)
            self.local_slot.append(f"{comm.label}@{memory_id}#{comm.task}")
            self.local_memory.append(memory_id)
            self.routes.append(comm.route(app))
            self.sizes.append(comm.size_bytes(app))

        # Direction/memory groups (the sets C^W(., M_k) and C^R(., M_k)).
        self.groups: dict[tuple[str, str], list[int]] = {}
        for z, comm in enumerate(self.comms):
            key = (comm.direction.value, self.local_memory[z])
            self.groups.setdefault(key, []).append(z)

        # Communications of each task at s_0, and its reads.
        self.task_comms: dict[str, list[int]] = {}
        for z, comm in enumerate(self.comms):
            self.task_comms.setdefault(comm.task, []).append(z)

        self.instants = active_instants(app)
        self.comm_index = {comm: z for z, comm in enumerate(self.comms)}
        self.total_bytes = sum(self.sizes)
        self.lambda_upper = (
            self.num_transfers * self.lambda_overhead
            + self.copy_cost * self.total_bytes
        )

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self._prepare_data()
        #: Tightest Property-3 transfer-index cap per communication
        #: (filled by Constraint 10; read by :mod:`repro.milp.cuts`).
        self.cgi_caps: dict[int, int] = {}
        self._add_allocation_variables()
        self._add_transfer_variables()
        self._constraint_1_one_transfer_per_comm()
        self._constraint_2_3_last_communication()
        self._constraint_4_5_memory_chains()
        self._constraint_6_contiguity()
        self._constraint_7_writes_before_reads_per_task()
        self._constraint_8_label_causality()
        self._constraint_9_latency()
        if self.config.enforce_property3:
            self._constraint_10_instant_separation()
        if self.config.symmetry_breaking:
            from repro.milp.presolve import add_label_orbit_rows, pin_free_slots

            pin_free_slots(self)
            add_label_orbit_rows(self)
        self._add_objective()
        # Publish the formulation as structure hints so the cut layer
        # (:mod:`repro.milp.cuts`) can reason about the model.
        self.model.structure_hints = self

    # -- variables ------------------------------------------------------

    def _add_allocation_variables(self) -> None:
        """AD adjacency binaries and PL position reals, per memory."""
        model = self.model
        self.ad: dict[tuple[str, str, str], Var] = {}
        self.pl: dict[tuple[str, str], Var] = {}
        for memory_id, slots in self.slots.items():
            if not slots:
                continue
            chain = [HEAD] + slots + [TAIL]
            for slot in chain:
                upper = len(slots) + 1
                var = model.add_continuous(f"PL[{memory_id}][{slot}]", 0.0, upper)
                self.pl[(memory_id, slot)] = var
            model.add(self.pl[(memory_id, HEAD)] == 0, name=f"head[{memory_id}]")
            # AD[k,a,b] = 1 when b sits immediately after a in memory k.
            for a in [HEAD] + slots:
                for b in slots + [TAIL]:
                    if a == b:
                        continue
                    self.ad[(memory_id, a, b)] = model.add_binary(
                        f"AD[{memory_id}][{a}][{b}]"
                    )

    def _add_transfer_variables(self) -> None:
        """CG, CGI, RT (route), and U (used) variables."""
        model = self.model
        G = self.num_transfers
        self.cg: dict[tuple[int, int], Var] = {}
        for z in range(len(self.comms)):
            for g in range(G):
                self.cg[(z, g)] = model.add_binary(f"CG[{z}][{g}]")
        self.cgi: list[Var] = []
        for z in range(len(self.comms)):
            var = model.add_continuous(f"CGI[{z}]", 0.0, G - 1)
            model.add(
                var == lin_sum(g * self.cg[(z, g)] for g in range(1, G)),
                name=f"CGI_def[{z}]",
            )
            self.cgi.append(var)

        route_ids = sorted(set(self.routes))
        self.used: list[Var] = [model.add_binary(f"U[{g}]") for g in range(G)]
        self.route_on: dict[tuple[tuple[str, str], int], Var] = {}
        for route in route_ids:
            for g in range(G):
                self.route_on[(route, g)] = model.add_binary(
                    f"RT[{route[0]}->{route[1]}][{g}]"
                )
        for g in range(G):
            # Exactly one route per used transfer; none when unused.
            model.add(
                lin_sum(self.route_on[(route, g)] for route in route_ids)
                == self.used[g],
                name=f"route_onehot[{g}]",
            )
            # A used transfer carries at least one communication.
            model.add(
                self.used[g]
                <= lin_sum(self.cg[(z, g)] for z in range(len(self.comms))),
                name=f"used_nonempty[{g}]",
            )
            if g > 0:
                model.add(
                    self.used[g] <= self.used[g - 1], name=f"compact[{g}]"
                )
        for z in range(len(self.comms)):
            for g in range(G):
                model.add(
                    self.cg[(z, g)] <= self.route_on[(self.routes[z], g)],
                    name=f"same_route[{z}][{g}]",
                )

    # -- constraints -----------------------------------------------------

    def _constraint_1_one_transfer_per_comm(self) -> None:
        for z in range(len(self.comms)):
            self.model.add(
                lin_sum(self.cg[(z, g)] for g in range(self.num_transfers)) == 1,
                name=f"C1[{z}]",
            )

    def _constraint_2_3_last_communication(self) -> None:
        """RG one-hot (Constraint 2) and RGI = max CGI (Constraint 3).

        RGI_i is pinned to the transfer index of the last communication
        of tau_i at s_0: it dominates every CGI of the task's
        communications, and the selected transfer must actually contain
        one of them.
        """
        model = self.model
        G = self.num_transfers
        self.rg: dict[tuple[str, int], Var] = {}
        self.rgi: dict[str, Var] = {}
        for task_name, zs in sorted(self.task_comms.items()):
            for g in range(G):
                self.rg[(task_name, g)] = model.add_binary(f"RG[{task_name}][{g}]")
            model.add(
                lin_sum(self.rg[(task_name, g)] for g in range(G)) == 1,
                name=f"C2[{task_name}]",
            )
            rgi = model.add_continuous(f"RGI[{task_name}]", 0.0, G - 1)
            model.add(
                rgi == lin_sum(g * self.rg[(task_name, g)] for g in range(1, G)),
                name=f"RGI_def[{task_name}]",
            )
            for z in zs:
                model.add(rgi >= self.cgi[z], name=f"C3_ge[{task_name}][{z}]")
            for g in range(G):
                # The selected transfer must contain a communication of
                # the task, pinning RGI to the maximum rather than above.
                model.add(
                    self.rg[(task_name, g)]
                    <= lin_sum(self.cg[(z, g)] for z in zs),
                    name=f"C3_sel[{task_name}][{g}]",
                )
            self.rgi[task_name] = rgi

    def _constraint_4_5_memory_chains(self) -> None:
        """Each memory's slots form one chain from HEAD to TAIL
        (Constraint 4) with consistent integer positions (Constraint 5)."""
        model = self.model
        for memory_id, slots in self.slots.items():
            if not slots:
                continue
            big_m = len(slots) + 2
            for a in slots + [HEAD]:
                successors = [
                    self.ad[(memory_id, a, b)] for b in slots + [TAIL] if b != a
                ]
                model.add(
                    lin_sum(successors) == 1, name=f"C4_out[{memory_id}][{a}]"
                )
            for b in slots + [TAIL]:
                predecessors = [
                    self.ad[(memory_id, a, b)] for a in slots + [HEAD] if a != b
                ]
                model.add(
                    lin_sum(predecessors) == 1, name=f"C4_in[{memory_id}][{b}]"
                )
            for (mem, a, b), ad in self.ad.items():
                if mem != memory_id:
                    continue
                pl_a = self.pl[(memory_id, a)]
                pl_b = self.pl[(memory_id, b)]
                model.add(
                    pl_b >= pl_a + 1 - (1 - ad) * big_m,
                    name=f"C5_lo[{memory_id}][{a}][{b}]",
                )
                model.add(
                    pl_b <= pl_a + 1 + (1 - ad) * big_m,
                    name=f"C5_hi[{memory_id}][{a}][{b}]",
                )

    # -- contiguity (Constraint 6) ---------------------------------------

    def _pair_adjacency(self, i: int, z: int) -> Var | None:
        """Binary implied-AND: label of comm z immediately follows the
        label of comm i in *both* the global memory and their shared
        local memory.  Upper-only linking (the variable appears only on
        the large side of Constraint 6), cached per (i, z)."""
        if self.global_slot[i] == self.global_slot[z]:
            return None  # a label cannot be adjacent to itself
        key = (i, z)
        cached = self._pairadj_cache.get(key)
        if cached is not None:
            return cached
        memory_id = self.local_memory[i]
        global_id = self.app.platform.global_memory.memory_id
        ad_global = self.ad[(global_id, self.global_slot[i], self.global_slot[z])]
        ad_local = self.ad[(memory_id, self.local_slot[i], self.local_slot[z])]
        var = self.model.add_binary(f"PADJ[{i}][{z}]")
        self.model.add(var <= ad_global, name=f"PADJ_g[{i}][{z}]")
        self.model.add(var <= ad_local, name=f"PADJ_l[{i}][{z}]")
        self._pairadj_cache[key] = var
        return var

    def _lg_term(self, i: int, z: int, g: int) -> Var | None:
        """LG^z_{label(i), label(z), g} of Constraint 6 (upper-linked)."""
        adjacency = self._pair_adjacency(i, z)
        if adjacency is None:
            return None
        key = (i, z, g)
        cached = self._lg_cache.get(key)
        if cached is not None:
            return cached
        var = self.model.add_binary(f"LG[{i}][{z}][{g}]")
        self.model.add(var <= adjacency, name=f"LG_adj[{i}][{z}][{g}]")
        self.model.add(var <= self.cg[(z, g)], name=f"LG_cg[{i}][{z}][{g}]")
        self._lg_cache[key] = var
        return var

    def _constraint_6_contiguity(self) -> None:
        """Labels sharing a DMA transfer are contiguous, in the same
        order, in both the source and the destination memory — for the
        full set at s_0 *and* for every reduced subset occurring at some
        t in T* (this is what makes Theorem 1 go through)."""
        self._pairadj_cache: dict[tuple[int, int], Var] = {}
        self._lg_cache: dict[tuple[int, int, int], Var] = {}
        subsets = self._distinct_group_subsets()
        for (direction, memory_id), variants in sorted(subsets.items()):
            for variant_idx, zs in enumerate(variants):
                zs = sorted(zs)
                if len(zs) < 2:
                    continue
                for idx_a, i in enumerate(zs):
                    for j in zs[idx_a + 1 :]:
                        self._add_pair_contiguity(
                            i, j, zs, f"C6[{direction}][{memory_id}][{variant_idx}]"
                        )

    def _add_pair_contiguity(
        self, i: int, j: int, zs: list[int], tag: str
    ) -> None:
        model = self.model
        if self.global_slot[i] == self.global_slot[j]:
            # Same label copied twice in one direction: the source block
            # can never be contiguous; the two must use distinct
            # transfers (DESIGN.md §6).
            for g in range(self.num_transfers):
                model.add(
                    self.cg[(i, g)] + self.cg[(j, g)] <= 1,
                    name=f"{tag}_samelabel[{i}][{j}][{g}]",
                )
            return
        for g in range(self.num_transfers):
            terms = []
            for z in zs:
                for anchor in (i, j):
                    if z == anchor:
                        continue
                    term = self._lg_term(anchor, z, g)
                    if term is not None:
                        terms.append(term)
            model.add(
                self.cg[(i, g)] + self.cg[(j, g)] - 1 <= lin_sum(terms),
                name=f"{tag}[{i}][{j}][{g}]",
            )

    def _distinct_group_subsets(self) -> dict[tuple[str, str], list[frozenset[int]]]:
        """For each (direction, local memory) group, the distinct
        subsets of its communications occurring at some t in T*
        (the full s_0 set is always among them)."""
        subsets: dict[tuple[str, str], set[frozenset[int]]] = {
            key: set() for key in self.groups
        }
        for t in self.instants:
            present = {
                self.comm_index[c]
                for c in communications_at(self.app, t)
                if c in self.comm_index
            }
            for key, zs in self.groups.items():
                subset = frozenset(z for z in zs if z in present)
                if len(subset) >= 2:
                    subsets[key].add(subset)
        return {key: sorted(values, key=sorted) for key, values in subsets.items()}

    # -- LET ordering and timing ------------------------------------------

    def _constraint_7_writes_before_reads_per_task(self) -> None:
        """Property 1: every write of a task precedes its reads."""
        for task_name, zs in sorted(self.task_comms.items()):
            writes = [z for z in zs if self.comms[z].is_write]
            reads = [z for z in zs if self.comms[z].is_read]
            for w in writes:
                for r in reads:
                    self.model.add(
                        self.cgi[w] + 1 <= self.cgi[r],
                        name=f"C7[{task_name}][{w}][{r}]",
                    )

    def _constraint_8_label_causality(self) -> None:
        """Property 2: a label's write precedes each of its reads."""
        writes_by_label = {
            self.comms[z].label: z
            for z in range(len(self.comms))
            if self.comms[z].is_write
        }
        for r, comm in enumerate(self.comms):
            if not comm.is_read:
                continue
            w = writes_by_label.get(comm.label)
            if w is None:
                continue
            self.model.add(
                self.cgi[w] + 1 <= self.cgi[r], name=f"C8[{comm.label}][{r}]"
            )

    def _constraint_9_latency(self) -> None:
        """Data acquisition latency accounting and deadlines.

        lambda_i >= (RGI_i + 1) * lambda_O
                    + omega_c * sum of bytes in transfers 0..g_bar
                    - (1 - RG[i, g_bar]) * M          for every g_bar,
        and lambda_i <= gamma_i where a deadline is set.
        """
        model = self.model
        G = self.num_transfers
        big_m = self.lambda_upper + 1.0
        prefix_bytes: list[LinExpr] = []
        running = LinExpr()
        for g in range(G):
            running = running + lin_sum(
                self.sizes[z] * self.cg[(z, g)] for z in range(len(self.comms))
            )
            prefix_bytes.append(running)

        self.latency: dict[str, Var] = {}
        for task_name in sorted(self.task_comms):
            lam = model.add_continuous(f"lambda[{task_name}]", 0.0, self.lambda_upper)
            rgi = self.rgi[task_name]
            for g_bar in range(G):
                model.add(
                    lam
                    >= (rgi + 1) * self.lambda_overhead
                    + self.copy_cost * prefix_bytes[g_bar]
                    - (1 - self.rg[(task_name, g_bar)]) * big_m,
                    name=f"C9_lo[{task_name}][{g_bar}]",
                )
            gamma = self.app.tasks[task_name].acquisition_deadline_us
            if self.config.enforce_deadlines and gamma is not None:
                model.add(lam <= gamma, name=f"C9_deadline[{task_name}]")
            self.latency[task_name] = lam

    def _constraint_10_instant_separation(self) -> None:
        """Property 3: all communications at t1 complete before the next
        active instant t2 (hyperperiod wrap-around included).

        Reduced form: every communication present at t1 must sit in a
        transfer of index at most
        ``(t2 - t1 - omega_c * bytes(t1)) / lambda_O - 1``.
        """
        if len(self.instants) == 0:
            return
        hyperperiod = self.app.tasks.hyperperiod_us()
        pairs = list(zip(self.instants, self.instants[1:]))
        pairs.append((self.instants[-1], hyperperiod + self.instants[0]))
        for t1, t2 in pairs:
            present = [
                self.comm_index[c]
                for c in communications_at(self.app, t1)
                if c in self.comm_index
            ]
            if not present:
                continue
            gap = t2 - t1
            bytes_at_t1 = sum(self.sizes[z] for z in present)
            budget = gap - self.copy_cost * bytes_at_t1
            max_index = math.floor(budget / self.lambda_overhead + 1e-9) - 1
            cap = min(max_index, self.num_transfers - 1)
            for z in present:
                self.cgi_caps[z] = min(self.cgi_caps.get(z, cap), cap)
                self.model.add(
                    self.cgi[z] <= cap, name=f"C10[{t1}][{z}]"
                )

    # -- objective ---------------------------------------------------------

    def _add_objective(self) -> None:
        objective = self.config.objective
        if objective is Objective.NONE:
            return
        if objective is Objective.MIN_TRANSFERS:
            # Eq. (4): minimize max_i RGI_i.  With the compactness
            # constraints and RGI generalized to the last communication
            # of each task, this equals minimizing the number of used
            # DMA transfers.
            self.model.minimize_max(
                list(self.rgi.values()),
                upper_bound=self.num_transfers,
                name="max_rgi",
            )
        elif objective is Objective.MIN_DELAY_RATIO:
            # Eq. (5): minimize max_i lambda_i / T_i.
            ratios = [
                self.latency[task_name] * (1.0 / self.app.tasks[task_name].period_us)
                for task_name in sorted(self.task_comms)
            ]
            self.model.minimize_max(ratios, upper_bound=self.lambda_upper, name="max_ratio")
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown objective {objective!r}")

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(
        self,
        backend: str | None = None,
        presolve: bool | None = None,
        start: dict | None = None,
        cuts: bool | None = None,
    ):
        """Solve the MILP and extract an :class:`AllocationResult`.

        ``backend``, ``presolve``, and ``cuts`` override their ``config`` counterparts so one built formulation (and its
        cached presolve and standard form) can be solved by several
        portfolio rungs without rebuilding the model.  ``start`` is an
        optional warm start (a complete ``{Var: value}`` assignment,
        e.g. from :func:`repro.incremental.build_start`) forwarded to
        :meth:`repro.milp.MilpModel.solve`; it can affect solve speed
        but never the answer.
        """
        from repro.core.solution import extract_result

        solution = self.model.solve(
            backend=backend or self.config.backend,
            time_limit_seconds=self.config.time_limit_seconds,
            mip_gap=self.config.mip_gap,
            presolve=self.config.presolve if presolve is None else presolve,
            start=start,
            cuts=self.config.cuts if cuts is None else cuts,
        )
        return extract_result(self, solution)
