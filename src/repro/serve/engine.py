"""The discrete-event kernel shared by every serving simulation.

One :class:`Engine` runs under both :func:`repro.serve.simulate` and
:func:`repro.control.simulate_controlled`: requests arrive in time
order, a scheduling policy places each one on an instance, per-instance
batching queues launch when full or timed out, and an optional periodic
tick drives a control loop.  The simulators differ only in the
:class:`EngineHooks` they plug in:

* ``on_arrival`` — admission control: shed or preempt at the chosen
  instance (the control plane's shedding policies).
* ``on_tick`` — a governor evaluated at a fixed interval (autoscaling,
  DVFS re-pointing).  Only scheduled when ``tick_s`` is set.
* ``on_complete`` — per-instance accounting after its queue was
  re-examined (the control plane closes drained power intervals).

Routing is a policy, not a hook: policies receive the *active* slice of
the fleet as a plain indexed sequence and return a position in it, so
the same policy objects serve both planes without adapter shims.

Four execution paths share one physics
--------------------------------------

Requests live in a columnar :class:`~repro.serve.arena.RequestArena`
(see that module).  Every run has one lifecycle — :meth:`Engine.begin`
arms an :class:`EngineState`, :meth:`Engine.run_until` advances it,
and :meth:`Engine.run` is exactly the two — and a pristine
``run_until(inf)`` is the one place that picks the fastest path that
preserves the event loop's observable behaviour *bit-for-bit*:

1. **General path** — the ``(time, seq)`` event loop below, processing
   one arrival/completion/wake/tick at a time.  Runs whenever hooks,
   ticks, priority queues, or a stateful fleet are in play; iterates
   arena views, so hook clients still see ``Request`` objects.
2. **Round-robin fast path** — round-robin striping makes each
   instance's request stream a predetermined slice ``arena[j::K]``, so
   the per-instance timeline is computed with vectorized batch
   partitioning plus a lean Python fold over *batches* (not events),
   with an exact scalar repair pass for batches that launch before
   they fill.  ~10-30x the PR-4 events/sec.
3. **Least-loaded fast path** — routing feedback prevents
   vectorization, but the event loop is specialized to plain Python
   lists and a single event slot per instance (no heap, no objects).
4. **Controlled round-robin fast path** (``"rr-ctl"``) — the control
   plane's common configuration (shedding, priority queues, DVFS
   scales, energy accounting — but *no* governor ticks) over
   round-robin routing.  Striping again decouples the instances, so
   admission (deadline-feasibility or queue-depth shedding) fuses
   straight into a per-instance scalar fold; the hook set opts in
   through :meth:`EngineHooks.fast_admission` rather than the engine
   importing the control plane.

The fast paths are *exact*: they reproduce the general loop's floats
bit-for-bit (same operations in the same order), which
``tests/serve/test_engine_parity.py`` and the benchmark's equality
assertions pin.  The vectorized round-robin path assumes no arrival
timestamp coincides bit-exactly with a batching-timeout instant
(``a_head + max_wait_s``) — guaranteed for continuous arrival
processes, and degenerate cases (``max_wait_s == 0`` with tied trace
timestamps, sub-nanosecond waits; see :func:`rr_wait_fallback`) fall
back to the general path.  The event-driven ``"ll"``/``"rr-ctl"``
folds have no such restriction.  Bounded ``run_until`` slices and
resumed runs always step the general loop.

Event ordering is bit-for-bit the legacy ``(time, seq)`` heap order:
at equal timestamps arrivals precede every scheduled event (their
sequence numbers were seeded first) and scheduled events pop in push
order.

Statistics modes
----------------

:func:`summarize_requests` aggregates a drained arena either exactly
(numpy reductions over the columns — identical floats to the
object-era loop) or as ``stats="sketch"``: t-digest percentiles from
:mod:`repro.serve.sketch` with exact mean/max/count.  For round-robin
scenarios :func:`run_streaming_round_robin` goes further and streams
arrival chunks through the fast-path kernel, keeping memory flat in
request count (the million-request mode); it hands back the same
sketch-mode :class:`RequestSummary`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import islice
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..errors import ConfigError
from .arena import Request, RequestArena
from .arena import _class_pools  # noqa: F401  (re-export for clients)
from .fleet import BucketQueue, Fleet, Instance
from .policies import (
    LeastLoadedPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from .profile import ScenarioMix
from .sketch import StreamingLatencyStats

__all__ = [
    "EngineHooks",
    "Engine",
    "EngineRun",
    "EngineState",
    "RequestSummary",
    "build_requests",
    "summarize_requests",
    "run_streaming_round_robin",
    "rr_wait_fallback",
]

_COMPLETE, _WAKE, _TICK = 1, 2, 3
_EPS = 1e-12
_INF = float("inf")

#: Arrival chunk size of the streaming round-robin runner: large
#: enough to amortize numpy call overhead, small enough that resident
#: memory stays a few MB regardless of total request count.
_STREAM_CHUNK = 65_536


class EngineHooks:
    """Pluggable decision points of the kernel (default: no-ops).

    Subclass and override what the scenario needs; the engine skips the
    dispatch for hooks left at their base implementation, so unused
    hooks cost nothing on the per-event path.  Hooks receive
    :class:`~repro.serve.arena.Request` *views*: mutating one (e.g.
    ``request.shed = True``) writes through to the arena column every
    other reader sees.
    """

    def on_arrival(
        self,
        request: Request,
        instance: Instance,
        now: float,
        engine: "Engine",
    ) -> bool:
        """Admission decision at the instance the policy chose.

        Return ``False`` to shed ``request`` (the engine marks it);
        preempting a queued victim is the hook's own business.
        """
        return True

    def fast_admission(self) -> tuple[str, int] | None:
        """Declare this hook set vectorizable for the ``"rr-ctl"`` path.

        Return ``None`` (the default) to keep the general loop, or a
        ``(shedding_kind, queue_threshold)`` pair with
        ``shedding_kind`` in ``{"none", "deadline", "queue-depth"}``
        to let :meth:`Engine._fast_mode` fuse admission into the
        columnar controlled round-robin fold.  A hook set may only opt
        in when, under a static always-active fleet, (a) its
        ``on_arrival`` is exactly the declared shedding rule against
        the chosen instance, (b) its ``on_complete`` is a no-op, and
        (c) it observes nothing else per event (``on_tick`` never runs
        because ``tick_s is None`` is a path precondition, and an
        overridden ``on_launch`` disqualifies the path regardless).
        """
        return None

    def on_tick(self, now: float, engine: "Engine") -> int:
        """Periodic control-loop evaluation; returns actions taken."""
        return 0

    def on_complete(
        self, instance: Instance, now: float, engine: "Engine"
    ) -> None:
        """Accounting after ``instance``'s queue was re-examined."""

    def on_launch(
        self,
        instance: Instance,
        requests: tuple,
        now: float,
        finish: float,
        engine: "Engine",
    ) -> None:
        """Observation point right after ``instance`` launched a batch.

        ``requests`` are the batch members (their ``start``/``finish``
        columns already written), ``finish`` the batch's completion
        time.  Purely observational: implementations must not mutate
        engine, fleet, or request state.
        """

    def state_dict(self) -> dict:
        """Serializable hook state for checkpointing.

        The base hooks are stateless; subclasses that accumulate
        per-run state (shedding counters, governor windows, forecaster
        levels) return it here as plain picklable values, mirrored by
        :meth:`load_state_dict`.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""


@dataclass(slots=True)
class EngineRun:
    """Outcome counters of one kernel run.

    Attributes:
        events: Events processed — the numerator of the events/sec
            kernel benchmark.  The general path counts arrivals +
            completions + wakes + ticks; the fast paths count the
            logically equivalent arrivals + batch launches (they
            process the same work without materializing wake events).
        tick_actions: Sum of the ``on_tick`` hook's action counts.
        peak_heap: Largest pending-event heap observed at an event
            boundary (general loop only; the fast paths never build a
            heap and report 0).
        dispatch: Which execution path served the run — ``"general"``,
            ``"rr"``, ``"ll"``, ``"rr-ctl"``, or ``"streaming"``.
        fallback: When ``dispatch == "general"``, the *first failing*
            fast-path precondition (empty when a fast path ran, or
            when nothing recorded a reason) — what makes a fallback
            to the general loop diagnosable from ``--json``.
    """

    events: int
    tick_actions: int
    peak_heap: int = 0
    dispatch: str = "general"
    fallback: str = ""


@dataclass(slots=True)
class EngineState:
    """Explicit execution state of one run.

    Everything :meth:`Engine.run_until` needs to continue a paused run
    lives here rather than in loop locals: the pending ``(time, seq,
    kind, payload)`` event heap, the next sequence number, the arena
    cursor (arrivals consumed so far), the cumulative event counters,
    and the static-fleet flag computed at :meth:`Engine.begin`.  A
    columnar kernel drains a pristine state in one call and backfills
    the cursor, event count and clock.
    Per-instance queues and in-flight batches live on the
    :class:`~repro.serve.fleet.Instance` objects themselves and are
    captured alongside this state by :meth:`Engine.snapshot`.

    ``rng_states`` is a carry slot for the exact
    ``np.random.Generator`` bit-generator states of the run's arrival
    and sampling streams: the engine never draws randomness itself
    (streams are consumed while building the request arena), so the
    simulators deposit the post-build states here and
    :meth:`Engine.snapshot` persists them for exact resumption.
    """

    heap: list
    seq: int
    clock: float
    cursor: int
    events: int
    tick_actions: int
    peak_heap: int
    static_fleet: bool
    rng_states: dict


class Engine:
    """One discrete-event loop over a fleet.

    Args:
        fleet: The instances (mutated in place during the run).
        policy: Scheduling policy; sees the active instances as an
            indexed sequence and returns a position in it.
        max_batch: Largest same-model batch an instance launches.
        max_wait_s: Longest a queue head waits for its batch to fill.
        hooks: Decision points (admission, ticks, accounting).
        tick_s: ``on_tick`` interval; ``None`` schedules no ticks.
        priority_queues: Keep instance queues in ``(priority,
            index)`` order: the engine gives every instance a
            :class:`~repro.serve.fleet.BucketQueue` (a plain FIFO
            ``deque`` otherwise).
    """

    __slots__ = (
        "fleet",
        "policy",
        "max_batch",
        "max_wait_s",
        "hooks",
        "tick_s",
        "priority_queues",
        "_admit",
        "_on_complete",
        "_on_launch",
        "_on_tick_overridden",
        "_ctl_spec",
        "_fast_reason",
        "state",
        "last_run",
        "_requests",
    )

    def __init__(
        self,
        fleet: Fleet,
        policy: SchedulingPolicy,
        max_batch: int,
        max_wait_s: float,
        hooks: EngineHooks | None = None,
        tick_s: float | None = None,
        priority_queues: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1 ({max_batch})")
        if max_wait_s < 0:
            raise ConfigError(
                f"max_wait_s must be >= 0 ({max_wait_s})"
            )
        if tick_s is not None and tick_s <= 0:
            raise ConfigError(f"tick_s must be positive ({tick_s})")
        self.fleet = fleet
        self.policy = policy
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.hooks = hooks if hooks is not None else EngineHooks()
        self.tick_s = tick_s
        self.priority_queues = priority_queues
        queue_type = BucketQueue if priority_queues else deque
        for instance in fleet.instances:
            if type(instance.queue) is not queue_type:
                instance.queue = queue_type(instance.queue)
        cls = type(self.hooks)
        # Bind overridden hooks only: the serve plane runs with all
        # of them at their base no-ops and pays zero dispatch for
        # them.  These bindings double as the hook-override probes,
        # computed once here instead of per _fast_mode call.
        self._admit = (
            self.hooks.on_arrival
            if cls.on_arrival is not EngineHooks.on_arrival
            else None
        )
        self._on_complete = (
            self.hooks.on_complete
            if cls.on_complete is not EngineHooks.on_complete
            else None
        )
        self._on_launch = (
            self.hooks.on_launch
            if cls.on_launch is not EngineHooks.on_launch
            else None
        )
        self._on_tick_overridden = (
            cls.on_tick is not EngineHooks.on_tick
        )
        # A hook set that declares a vectorizable admission rule (see
        # EngineHooks.fast_admission) unlocks the rr-ctl path; unknown
        # kinds are ignored rather than trusted.
        spec = self.hooks.fast_admission()
        if spec is not None and spec[0] not in (
            "none",
            "deadline",
            "queue-depth",
        ):
            spec = None
        self._ctl_spec = spec
        self._fast_reason = ""
        self.state: EngineState | None = None
        self.last_run: EngineRun | None = None
        self._requests: RequestArena | None = None

    # ------------------------------------------------------------------
    # Fast-path dispatch
    # ------------------------------------------------------------------

    def _fall_back(self, reason: str) -> None:
        """Record the first failing fast-path precondition; the
        general loop surfaces it as :attr:`EngineRun.fallback`."""
        self._fast_reason = reason
        return None

    def _fast_mode(self, arena: RequestArena) -> str | None:
        """Which columnar fast path (if any) reproduces this run
        bit-for-bit: ``"rr"``, ``"ll"``, ``"rr-ctl"``, or ``None``
        (general loop).

        ``"rr"``/``"ll"`` require the hook-free serve-plane
        configuration over a pristine fleet; ``"rr-ctl"`` relaxes
        that for hook sets whose :meth:`EngineHooks.fast_admission`
        declares a vectorizable shedding rule (the governor-less
        control plane): priority queues, DVFS latency scales, and
        busy-power accounting are folded into the kernel, but ticks,
        launch observers, per-instance profiles, and any pre-existing
        instance state still fall back to the general loop, which
        handles everything.

        As a side effect the *first failing precondition* is recorded
        and surfaced as :attr:`EngineRun.fallback`, so a fallback to
        the general loop is diagnosable from ``--json``.
        """
        self._fast_reason = ""
        if self.tick_s is not None:
            return self._fall_back("periodic tick scheduled (tick_s)")
        if self._on_launch is not None:
            return self._fall_back("on_launch hook overridden")
        ctl = self._ctl_spec
        if ctl is None:
            if self._admit is not None:
                return self._fall_back("on_arrival hook overridden")
            if self._on_complete is not None:
                return self._fall_back("on_complete hook overridden")
            if self.priority_queues:
                return self._fall_back("priority queues enabled")
            if self._on_tick_overridden:
                return self._fall_back("on_tick hook overridden")
        for inst in self.fleet.instances:
            if not inst.active:
                return self._fall_back(
                    f"instance {inst.index} inactive"
                )
            if (
                inst.busy_until != 0.0
                or inst.queue
                or inst.loaded_model is not None
                or inst.queued_seconds != 0.0
            ):
                return self._fall_back(
                    f"instance {inst.index} carries pre-run state"
                )
            if inst.profiles is not None:
                return self._fall_back(
                    f"instance {inst.index} has per-instance profiles"
                )
            if ctl is None:
                if inst.latency_scale != 1.0:
                    return self._fall_back(
                        f"instance {inst.index} has a DVFS "
                        "latency scale"
                    )
                if inst.busy_power_w != 0.0:
                    return self._fall_back(
                        f"instance {inst.index} integrates busy power"
                    )
            elif (
                inst.busy_seconds != 0.0
                or inst.busy_seconds_window != 0.0
                or inst.energy_joules != 0.0
            ):
                return self._fall_back(
                    f"instance {inst.index} carries accumulated "
                    "counters"
                )
        policy = self.policy
        if type(policy) is RoundRobinPolicy and policy._next == 0:
            if ctl is not None:
                # The controlled fold is event-driven and scalar, so
                # (unlike the vectorized "rr" kernel) it is exact for
                # any max_wait, including zero-wait tied arrivals.
                return "rr-ctl"
            reason = rr_wait_fallback(self.max_wait_s, arena.arrival)
            if reason:
                return self._fall_back(reason)
            return "rr"
        if ctl is not None:
            return self._fall_back(
                "controlled fast path requires round-robin routing"
            )
        if type(policy) is LeastLoadedPolicy:
            return "ll"
        return self._fall_back(
            f"policy {type(policy).__name__} has no columnar path"
        )

    def _run_round_robin(self, arena: RequestArena) -> EngineRun:
        """Decoupled per-instance kernel: round-robin striping fixes
        instance ``j``'s stream to ``arena[j::K]``, so each timeline is
        computed independently by :func:`_rr_feed`."""
        instances = self.fleet.instances
        K = len(instances)
        mb = self.max_batch
        mw = self.max_wait_s
        per_tab = arena.per_image
        setup_tab = arena.setup
        n = len(arena)
        arr = arena.arrival
        midx = arena.model_idx
        events = n
        for j, inst in enumerate(instances):
            a = np.ascontiguousarray(arr[j::K])
            m = np.ascontiguousarray(midx[j::K])
            (
                consumed,
                starts_m,
                fins_m,
                L_arr,
                svc_f,
                k_f,
                setups_count,
                nb,
                F_j,
                loaded_j,
            ) = _rr_feed(
                a, m, per_tab, setup_tab, mb, mw, 0.0, -1, True
            )
            arena.start[j::K] = starts_m
            arena.finish[j::K] = fins_m
            # builtins.sum over a float list is the same sequential
            # left fold as the general loop's per-batch ``+=`` chain,
            # bit-for-bit (np.sum is pairwise: close but not
            # identical); window contributions are never negative, and
            # adding 0.0 is a bitwise no-op, so the unfiltered sum
            # matches the loop that skipped empty contributions.
            busy = sum(svc_f.tolist())
            wend = inst.window_end
            if wend is not None and nb:
                fin_b = L_arr + svc_f
                contrib = np.minimum(fin_b, wend) - np.minimum(
                    L_arr, wend
                )
                inst.busy_seconds_window += sum(contrib.tolist())
            inst.busy_seconds += busy
            inst.busy_until = F_j
            inst.loaded_model = (
                arena.model_names[loaded_j] if loaded_j >= 0 else None
            )
            inst.served += consumed
            inst.batches += nb
            inst.setups += setups_count
            inst.queued_seconds = 0.0
            events += nb
        self.policy._next += n
        return EngineRun(events=events, tick_actions=0, dispatch="rr")

    def _run_least_loaded(self, arena: RequestArena) -> EngineRun:
        """Event-driven exact kernel for least-loaded routing.

        The routing feedback loop (each placement depends on every
        earlier completion) rules out vectorization, so this path wins
        by specializing: per-instance state in flat Python lists, an
        inlined ``pending_seconds`` scan, and a single event slot per
        instance instead of a heap (a launch overwrites the slot, so
        the stale-wake pops of the general loop — provably no-ops —
        never exist).
        """
        instances = self.fleet.instances
        K = len(instances)
        mb = self.max_batch
        mw = self.max_wait_s
        n = len(arena)
        a_l = arena.arrival.tolist()
        m_l = arena.model_idx.tolist()
        per_tab = arena.per_image.tolist()
        setup_tab = arena.setup.tolist()
        start_l = [-1.0] * n
        fin_l = [-1.0] * n
        bu = [0.0] * K
        qs = [0.0] * K
        loaded = [-1] * K
        queues = [deque() for _ in range(K)]
        busy = [0.0] * K
        busyw = [0.0] * K
        served = [0] * K
        nbatches = [0] * K
        setups = [0] * K
        ev = [_INF] * K
        wend_l = [inst.window_end for inst in instances]
        events = 0
        # Wake deadlines precomputed elementwise: ``arrival + mw`` and
        # ``(arrival + mw) - _EPS`` vectorized are bit-identical to the
        # general loop's scalar adds, and save two float allocations
        # per queue examination.
        dl_l = (arena.arrival + mw).tolist()
        dle_l = (arena.arrival + mw - _EPS).tolist()
        # Each request's queue-load contribution, pre-gathered so the
        # arrival hot path does one list index instead of two.
        per_req = arena.per_image[arena.model_idx].tolist()

        i = 0
        ev_index = ev.index
        # ``tmin`` caches ``min(ev)`` and is refreshed only when an
        # ``ev`` slot changes (a launch or wake reschedule): arrivals
        # that land on a busy instance leave the event slots untouched.
        # ``min``/``list.index`` run at C speed, and the index (first
        # minimum, matching the old strict-< scan) is only needed for
        # non-arrival events.
        tmin = _INF
        nexta = a_l[0] if n else _INF
        while True:
            if nexta <= tmin:
                # Arrivals exhausted and no event pending: done.  (When
                # requests remain, ``nexta`` is finite, and a finite
                # ``nexta <= tmin`` is a real arrival.)
                if i >= n:
                    break
                now = nexta
                rid = i
                i += 1
                nexta = a_l[i] if i < n else _INF
                events += 1
                # Inlined LeastLoadedPolicy._least_loaded +
                # Instance.pending_seconds (latency_scale == 1.0).
                d0 = bu[0] - now
                load = d0 if d0 > 0.0 else 0.0
                q0 = qs[0]
                if q0 > 0.0:
                    load += q0
                j = 0
                best_load = load
                for jj in range(1, K):
                    dj = bu[jj] - now
                    load = dj if dj > 0.0 else 0.0
                    qj = qs[jj]
                    if qj > 0.0:
                        load += qj
                    if load < best_load:
                        best_load = load
                        j = jj
                queues[j].append(rid)
                qs[j] += per_req[rid]
                if bu[j] > now:
                    continue
            else:
                now = tmin
                j = ev_index(tmin)
                events += 1
                if bu[j] > now:
                    continue
            # Inlined ``examine``: launch if the head batch is due
            # (wake deadline passed, or a full same-model batch), else
            # schedule the head's wake.
            q = queues[j]
            if not q:
                ev[j] = _INF
                tmin = min(ev)
                continue
            head = q[0]
            if now < dle_l[head]:
                if len(q) >= mb:
                    model = m_l[head]
                    count = 0
                    for rid2 in q:
                        if m_l[rid2] != model:
                            break
                        count += 1
                        if count == mb:
                            break
                    if count != mb:
                        ev[j] = dl_l[head]
                        tmin = min(ev)
                        continue
                else:
                    ev[j] = dl_l[head]
                    tmin = min(ev)
                    continue
            # Inlined ``launch``: drain the head's same-model batch and
            # advance the instance timeline (all float ops in the same
            # order as Instance.launch, so completions stay bit-equal).
            model = m_l[head]
            cold = loaded[j] != model
            if cold:
                setup = setup_tab[model]
                setups[j] += 1
            else:
                setup = 0.0
            per = per_tab[model]
            base = now + setup
            count = 0
            qsj = qs[j]
            popleft = q.popleft
            while True:
                rid2 = popleft()
                count += 1
                start_l[rid2] = now
                fin_l[rid2] = base + count * per
                qsj -= per
                if count == mb or not q or m_l[q[0]] != model:
                    break
            qs[j] = qsj if q else 0.0
            service = setup + count * per
            fin = now + service
            bu[j] = fin
            busy[j] += service
            w = wend_l[j]
            if w is not None:
                s0 = now if now < w else w
                e0 = fin if fin < w else w
                d0 = e0 - s0
                if d0 > 0.0:
                    busyw[j] += d0
            served[j] += count
            nbatches[j] += 1
            loaded[j] = model
            ev[j] = fin
            tmin = min(ev)

        arena.start[:] = start_l
        arena.finish[:] = fin_l
        for j, inst in enumerate(instances):
            inst.busy_until = bu[j]
            inst.loaded_model = (
                arena.model_names[loaded[j]]
                if loaded[j] >= 0
                else None
            )
            inst.busy_seconds += busy[j]
            inst.busy_seconds_window += busyw[j]
            inst.served += served[j]
            inst.batches += nbatches[j]
            inst.setups += setups[j]
            inst.queued_seconds = 0.0
        return EngineRun(events=events, tick_actions=0, dispatch="ll")

    def _run_round_robin_controlled(
        self, arena: RequestArena
    ) -> EngineRun:
        """Controlled round-robin kernel: admission fused into a
        per-instance scalar event fold.

        Round-robin striping fixes instance ``j``'s candidate stream
        to ``arena[j::K]`` *even under shedding* (the policy cursor
        advances before admission), and the declared shedding rules
        read only the chosen instance's state — so each instance's
        timeline folds independently, with no heap and no cross-
        instance event interleave.  The fold body is the ``"ll"``
        kernel's (single event slot, inlined examine/launch) plus the
        control plane's physics in the same float order as the
        general loop: priority-ordered enqueue, deadline-feasibility
        or queue-depth admission, DVFS-scaled service times, and
        busy-energy accrual.  Shed rows are masked in the arena and
        never enter a queue, exactly as when ``on_arrival`` declined
        them.

        """
        kind, threshold = self._ctl_spec
        instances = self.fleet.instances
        K = len(instances)
        mb = self.max_batch
        mw = self.max_wait_s
        prio_aware = self.priority_queues
        n = len(arena)
        # Float columns are read and written through memoryviews
        # (C doubles, no per-row float objects to build up front),
        # and arrivals carry K trailing +inf sentinels so each
        # instance's stride ends without a bounds check.  Wake
        # deadlines are summed at the head: the same IEEE adds as a
        # vectorized `arrival + mw (- _EPS)`.
        a_l = memoryview(np.concatenate([arena.arrival, np.full(K, _INF)]))
        m_l = arena.model_idx.tolist()
        per_arr = arena.per_image
        per_tab = per_arr.tolist()
        setup_tab = arena.setup.tolist()
        start_a = np.full(n, -1.0)
        fin_a = np.full(n, -1.0)
        start_l = memoryview(start_a)
        fin_l = memoryview(fin_a)
        prio_l = arena.priority.tolist()
        prio_of = prio_l.__getitem__
        deadline_shed = kind == "deadline"
        depth_shed = kind == "queue-depth"
        # SLO deadlines are absolute; the vectorized + _EPS is
        # bit-identical to the shedder's scalar `deadline + _EPS`.
        dl_eps_l = (
            memoryview(arena.deadline + _EPS) if deadline_shed else None
        )
        shed_ids: list[int] = []
        events = n
        for j, inst in enumerate(instances):
            scale = inst.latency_scale
            # Scaled per-image table per instance: x * scale
            # elementwise is the same IEEE product the general loop's
            # per-launch `per_image_seconds * latency_scale` computes.
            per_s = (
                (per_arr * scale).tolist() if scale != 1.0 else per_tab
            )
            bpw = inst.busy_power_w
            wend = inst.window_end
            bu = 0.0
            qs = 0.0
            loaded = -1
            q: deque = deque()
            busy = 0.0
            busyw = 0.0
            energy = 0.0
            served = 0
            nbatches = 0
            nsetups = 0
            ev = _INF
            pos = j
            nexta = a_l[pos]
            popleft = q.popleft
            while True:
                if nexta <= ev:
                    # Arrival first at ties, like the (time, seq)
                    # heap (arrival sequence numbers were seeded
                    # first).  Both infinite: instance drained.
                    if pos >= n:
                        break
                    now = nexta
                    rid = pos
                    pos += K
                    nexta = a_l[pos]
                    m = m_l[rid]
                    # -- fused admission --------------------------
                    if deadline_shed:
                        # Inlined DeadlineShedding.admit over
                        # estimated_completion / pending_seconds.
                        pending = bu - now
                        if pending < 0.0:
                            pending = 0.0
                        if qs > 0.0:
                            pending += qs * scale
                        if (now + pending) + per_s[m] > dl_eps_l[rid]:
                            shed_ids.append(rid)
                            continue
                    elif depth_shed and len(q) >= threshold:
                        shed_ids.append(rid)
                        continue
                    # -- priority-ordered enqueue -----------------
                    # The general loop's (priority, index) queue
                    # order: q stays sorted and stream indices
                    # strictly increase, so the request goes behind
                    # every queued one of equal or more urgent
                    # priority — a C-level bisect, which stays cheap
                    # when an urgent arrival overtakes a backlog.
                    if prio_aware and q:
                        p = prio_l[rid]
                        if prio_l[q[-1]] <= p:
                            q.append(rid)
                        else:
                            q.insert(bisect_right(q, p, key=prio_of), rid)
                    else:
                        q.append(rid)
                    qs += per_tab[m]
                    if bu > now:
                        continue
                else:
                    now = ev
                    events += 1
                # Inlined examine: launch if the head batch is due,
                # else schedule the head's wake in the event slot.
                if not q:
                    ev = _INF
                    continue
                head = q[0]
                if now < a_l[head] + mw - _EPS:
                    if len(q) >= mb:
                        model = m_l[head]
                        count = 0
                        for rid2 in q:
                            if m_l[rid2] != model:
                                break
                            count += 1
                            if count == mb:
                                break
                        if count != mb:
                            ev = a_l[head] + mw
                            continue
                    else:
                        ev = a_l[head] + mw
                        continue
                # Inlined launch (Instance._serve float order):
                # scaled per-image for timing, unscaled for the
                # queued-seconds ledger, unscaled setup.
                model = m_l[head]
                if loaded != model:
                    setup = setup_tab[model]
                    nsetups += 1
                else:
                    setup = 0.0
                per = per_s[model]
                peru = per_tab[model]
                base = now + setup
                count = 0
                while True:
                    rid2 = popleft()
                    count += 1
                    start_l[rid2] = now
                    fin_l[rid2] = base + count * per
                    qs -= peru
                    if count == mb or not q or m_l[q[0]] != model:
                        break
                if not q:
                    qs = 0.0
                service = setup + count * per
                fin = now + service
                bu = fin
                busy += service
                if wend is not None:
                    s0 = now if now < wend else wend
                    e0 = fin if fin < wend else wend
                    d0 = e0 - s0
                    if d0 > 0.0:
                        busyw += d0
                energy += bpw * service
                served += count
                nbatches += 1
                loaded = model
                ev = fin
            inst.busy_until = bu
            inst.loaded_model = (
                arena.model_names[loaded] if loaded >= 0 else None
            )
            inst.busy_seconds += busy
            inst.busy_seconds_window += busyw
            inst.energy_joules += energy
            inst.served += served
            inst.batches += nbatches
            inst.setups += nsetups
            inst.queued_seconds = 0.0
        arena.start[:] = start_a
        arena.finish[:] = fin_a
        if shed_ids:
            arena.shed[shed_ids] = True
        self.policy._next += n
        return EngineRun(
            events=events, tick_actions=0, dispatch="rr-ctl"
        )

    # ------------------------------------------------------------------
    # General event loop
    # ------------------------------------------------------------------

    def _maybe_launch(self, instance: Instance, now: float) -> None:
        """Launch the head batch if it is due, else schedule its
        timeout.  A batch is due when the head request has waited out
        the fill window or a full same-model run is queued behind it."""
        if instance.busy_until > now or not instance.queue:
            return
        queue = instance.queue
        head = queue[0]
        max_batch = self.max_batch
        deadline = head.arrival + self.max_wait_s
        if now >= deadline - _EPS:
            due = True
        elif len(queue) >= max_batch:
            model = head.model
            count = 0
            for queued in queue:
                if queued.model != model:
                    break
                count += 1
                if count == max_batch:
                    break
            due = count == max_batch
        else:
            due = False
        state = self.state
        state.seq += 1
        if due:
            # Peek the members before the destructive pop so the launch
            # observer can attribute the batch (identical selection:
            # launch_head is launch(next_batch(max_batch))).
            members = (
                instance.next_batch(max_batch).requests
                if self._on_launch is not None
                else None
            )
            finish = instance.launch_head(max_batch, now)
            heappush(
                state.heap,
                (finish, state.seq, _COMPLETE, instance.index),
            )
            if members is not None:
                self._on_launch(instance, members, now, finish, self)
        else:
            heappush(
                state.heap,
                (deadline, state.seq, _WAKE, instance.index),
            )

    def begin(self, requests: RequestArena) -> EngineState:
        """Arm the general loop over ``requests`` without running it.

        Seeds a fresh :class:`EngineState` (tick scheduled, sequence
        counter past the arrivals' implicit numbers, cursor at zero)
        and remembers the request stream so repeated
        :meth:`run_until` calls can step the run in bounded slices.

        Raises:
            TypeError: If ``requests`` is not a
                :class:`~repro.serve.arena.RequestArena`.
        """
        _require_arena(requests)
        n = len(requests)
        heap: list = []
        # Arrivals implicitly own sequence numbers 1..n, so at equal
        # timestamps they order before every scheduled event, exactly
        # as when the legacy loops seeded them into the heap first.
        seq = n
        tick_s = self.tick_s
        if tick_s is not None:
            seq += 1
            heappush(heap, (tick_s, seq, _TICK, None))
        # With no ticks and no custom hooks nothing can change instance
        # activity mid-run, so the active slice is the fleet itself
        # (skip per-arrival filtering).  Any hook — not just on_tick —
        # may power instances down, so their presence forces the
        # rebuild, exactly like the legacy control loop's per-arrival
        # active view.
        static_fleet = (
            tick_s is None
            and self._admit is None
            and self._on_complete is None
            and self._on_launch is None
            and all(
                instance.active for instance in self.fleet.instances
            )
        )
        self._requests = requests
        self.state = EngineState(
            heap=heap,
            seq=seq,
            clock=0.0,
            cursor=0,
            events=0,
            tick_actions=0,
            peak_heap=0,
            static_fleet=static_fleet,
            rng_states={},
        )
        return self.state

    @property
    def finished(self) -> bool:
        """True once a begun run has consumed every arrival and
        drained its event heap (nothing left for ``run_until``)."""
        state = self.state
        return (
            state is not None
            and state.cursor >= len(self._requests)
            and not state.heap
        )

    def run_until(self, t: float) -> EngineRun:
        """Advance the begun run through every event at time <= ``t``.

        The loop body is the legacy general event loop verbatim, with
        execution state loaded from :attr:`state` on entry and written
        back on exit; the only additions are the two horizon checks,
        which compare against ``t`` before consuming an arrival or
        popping a scheduled event and are no-ops at ``t = inf``.
        Returns the *cumulative* counters of the run so far.

        This is the engine's one dispatch point: a *pristine* begun
        state (no arrivals consumed, no events processed) draining to
        infinity runs the columnar kernel :meth:`_fast_mode` picks
        (``"rr"``, ``"ll"`` or ``"rr-ctl"``) when there is one, exact
        by the parity pins, and the state is backfilled (cursor,
        events, clock) so :attr:`finished`, counter reads and the
        report builders see a drained run whichever path served it.
        Bounded horizons and resumed runs always step the general
        loop.

        Raises:
            ConfigError: If ``t`` is NaN — every horizon check would
                pass, draining the run and leaving a NaN clock for
                :meth:`snapshot` to persist.
        """
        if t != t:
            raise ConfigError("run_until horizon must not be NaN")
        state = self.state
        requests = self._requests
        n = len(requests)
        if (
            t == _INF
            and n
            and state.cursor == 0
            and state.events == 0
            and state.clock == 0.0
        ):
            mode = self._fast_mode(requests)
            if mode is not None:
                if mode == "rr":
                    run = self._run_round_robin(requests)
                elif mode == "ll":
                    run = self._run_least_loaded(requests)
                else:
                    run = self._run_round_robin_controlled(requests)
                state.cursor = n
                state.events = run.events
                state.clock = max(
                    float(requests.arrival[-1]),
                    max(inst.busy_until for inst in self.fleet.instances),
                )
                self.last_run = run
                return run
        elif not self._fast_reason:
            # Diagnose at most once per run (the reason is sticky
            # until _fast_mode reassesses, and a snapshot carries it
            # into a resumed process): lead with the config-level
            # precondition when one fails, which is identical whether
            # the run drains in one call or in bounded checkpoint
            # slices — tick_s and hook checks precede fleet-state
            # checks — so checkpointed reruns report byte-identical
            # telemetry.  Run mechanics are the reason only when the
            # config itself qualifies.
            if n and self._fast_mode(requests) is not None:
                self._fast_reason = (
                    "bounded run_until horizon"
                    if t != _INF
                    else "run already in progress"
                )
        instances = self.fleet.instances
        policy = self.policy
        admit = self._admit
        on_complete = self._on_complete
        hooks = self.hooks
        tick_s = self.tick_s
        static_fleet = state.static_fleet
        heap = state.heap
        i = state.cursor
        events = state.events
        tick_actions = state.tick_actions
        peak_heap = state.peak_heap
        now = state.clock
        next_arrival = requests[i].arrival if i < n else _INF
        while True:
            # Peak sampled at event boundaries only, so it is invariant
            # under run_until slicing (a boundary re-sample is a max
            # no-op) — resumed runs report the identical peak.
            if len(heap) > peak_heap:
                peak_heap = len(heap)
            if i < n and (
                not heap or next_arrival <= heap[0][0]
            ):
                if next_arrival > t:
                    break
                request = requests[i]
                i += 1
                next_arrival = (
                    requests[i].arrival if i < n else _INF
                )
                events += 1
                now = request.arrival
                active = (
                    instances
                    if static_fleet
                    else [
                        instance
                        for instance in instances
                        if instance.active
                    ]
                )
                instance = active[policy.choose(request, active, now)]
                if admit is not None and not admit(
                    request, instance, now, self
                ):
                    request.shed = True
                    continue
                instance.enqueue(request)
                self._maybe_launch(instance, now)
                continue
            if not heap:
                break
            if heap[0][0] > t:
                break
            now, _, kind, payload = heappop(heap)
            events += 1
            if kind == _TICK:
                before = [
                    instance.busy_until for instance in instances
                ]
                tick_actions += hooks.on_tick(now, self)
                # A tick may extend busy_until (e.g. a power-up warm-up)
                # without launching a batch, which would swallow the
                # instance's pending completion; re-arm a wake at any
                # grown horizon so its queue is re-examined (the loop
                # invariant is "busy implies an event at busy_until").
                for instance in instances:
                    grown = instance.busy_until
                    if grown > before[instance.index] and grown > now:
                        state.seq += 1
                        heappush(
                            heap,
                            (grown, state.seq, _WAKE, instance.index),
                        )
                if i < n or any(
                    instance.queue or instance.busy_until > now + _EPS
                    for instance in instances
                ):
                    state.seq += 1
                    heappush(
                        heap, (now + tick_s, state.seq, _TICK, None)
                    )
            else:  # _COMPLETE and _WAKE both just re-examine the queue
                instance = instances[payload]
                self._maybe_launch(instance, now)
                if on_complete is not None:
                    on_complete(instance, now, self)
        state.cursor = i
        state.events = events
        state.tick_actions = tick_actions
        state.peak_heap = peak_heap
        state.clock = now if t == _INF else t
        run = EngineRun(
            events=events,
            tick_actions=tick_actions,
            peak_heap=peak_heap,
            dispatch="general",
            fallback=self._fast_reason,
        )
        self.last_run = run
        return run

    def run(self, requests: RequestArena) -> EngineRun:
        """Play ``requests`` (non-decreasing arrival order) to drain:
        :meth:`begin` + ``run_until(inf)``, so the one dispatch point
        in :meth:`run_until` picks the columnar kernel or the general
        loop.  Either way the run writes outcomes
        (``start``/``finish``/``shed``) into the arena's columns in
        place.

        Raises:
            TypeError: If ``requests`` is not a
                :class:`~repro.serve.arena.RequestArena`.
        """
        self.begin(requests)
        return self.run_until(_INF)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the begun run's complete execution state.

        Returns a plain picklable dict: the :class:`EngineState`
        fields, every instance's ``state_dict`` plus its queue as
        request stream positions, the policy state, the hook state,
        and the recorded fast-path fallback reason (so a resumed run
        reports the same :attr:`EngineRun.fallback` as an
        uninterrupted one).  Queues serialize as indices because every
        arena indexes its rows with ``arange`` (``request.index`` is
        the row — also for tenancy's merged receiver arenas), so
        :meth:`restore` can rebind the views against the
        caller-provided arena.
        """
        state = self.state
        instances = []
        for inst in self.fleet.instances:
            entry = inst.state_dict()
            entry["queue"] = [request.index for request in inst.queue]
            instances.append(entry)
        return {
            "state": {
                "heap": list(state.heap),
                "seq": state.seq,
                "clock": state.clock,
                "cursor": state.cursor,
                "events": state.events,
                "tick_actions": state.tick_actions,
                "peak_heap": state.peak_heap,
                "static_fleet": state.static_fleet,
                "rng_states": state.rng_states,
            },
            "instances": instances,
            "policy": self.policy.state_dict(),
            "hooks": self.hooks.state_dict(),
            "fallback": self._fast_reason,
        }

    def restore(
        self, snapshot: dict, requests: RequestArena
    ) -> EngineState:
        """Rebind a :meth:`snapshot` onto this engine and ``requests``.

        The fleet/policy/hooks objects must have been rebuilt exactly
        as for the original run (they carry no snapshot identity, only
        state); ``requests`` must be the same stream the snapshot was
        taken over, including any mid-run column mutations — restore
        rebinds queue views by stream position but never rewrites
        request columns.
        """
        _require_arena(requests)
        fields = snapshot["state"]
        self._requests = requests
        self.state = EngineState(
            heap=list(fields["heap"]),
            seq=fields["seq"],
            clock=fields["clock"],
            cursor=fields["cursor"],
            events=fields["events"],
            tick_actions=fields["tick_actions"],
            peak_heap=fields.get("peak_heap", 0),
            static_fleet=fields["static_fleet"],
            rng_states=dict(fields["rng_states"]),
        )
        for inst, entry in zip(
            self.fleet.instances, snapshot["instances"]
        ):
            inst.load_state_dict(entry)
            inst.queue.clear()
            inst.queue.extend(requests[idx] for idx in entry["queue"])
        self.policy.load_state_dict(snapshot["policy"])
        self.hooks.load_state_dict(snapshot["hooks"])
        self._fast_reason = snapshot.get("fallback", "")
        return self.state


def _require_arena(requests) -> None:
    """The engine's one entry check: every request stream is an arena."""
    if not isinstance(requests, RequestArena):
        raise TypeError(
            "the engine runs a RequestArena request stream, not "
            f"{type(requests).__name__} (build one with build_requests)"
        )


def rr_wait_fallback(max_wait_s: float, arrival: np.ndarray | None) -> str:
    """Why the vectorized round-robin kernel (:func:`_rr_feed`) cannot
    reproduce the general loop under this fill window, or ``""`` when
    it can.

    The kernel assumes no arrival coincides bit-exactly with a
    batching-timeout instant.  Zero-wait batching launches at the
    arrival event itself, which is only vectorizable over strictly
    increasing timestamps — unprovable when ``arrival`` is ``None``
    (a stream not generated yet, as in the streaming runner).
    Sub-nanosecond waits fall inside the general loop's ``_EPS``
    launch rule.  The exact fast path and the sketch-mode streaming
    gate both ask this one predicate.
    """
    if max_wait_s == 0.0:
        if arrival is None:
            return "zero-wait batching over an ungenerated stream"
        if len(arrival) > 1 and not bool(
            np.all(arrival[1:] > arrival[:-1])
        ):
            return "zero-wait batching with coincident arrivals"
    elif max_wait_s <= 1e-9:
        return "sub-nanosecond max_wait"
    return ""


# ----------------------------------------------------------------------
# Round-robin columnar kernel
# ----------------------------------------------------------------------

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


def _rr_feed(
    a: np.ndarray,
    m: np.ndarray,
    per_tab: np.ndarray,
    setup_tab: np.ndarray,
    mb: int,
    mw: float,
    F: float,
    loaded: int,
    final: bool,
):
    """Advance one instance's timeline over a buffered stream stretch.

    ``a``/``m`` are the instance's arrival times and model ids (its
    round-robin slice), ``F`` its ``busy_until`` and ``loaded`` the
    resident model id carried from the previous feed (``-1`` = cold).
    With ``final=False`` (streaming) the feed stops before any batch
    whose membership could still change with future arrivals (an open
    trailing run shorter than ``mb``), deferring at most ``mb - 1``
    positions to the next feed.

    The kernel has three stages:

    1. *Canonical partition* (vectorized): maximal same-model runs are
       cut into ``mb``-sized canonical batches; per batch the wake
       deadline, full-batch trigger, cold-start flag, and service time
       are computed as numpy arrays.
    2. *Launch fold* (Python, per batch): ``L = max(F, due)`` with the
       general loop's epsilon rule; a canonical batch is accepted when
       its last member arrived by its launch (``lasta <= L``).
    3. *Split repair* (scalar, only when 2 rejects): an idle instance
       launched a partial batch — replay exact batches with
       ``bisect_right`` member counts until the cursor realigns with a
       canonical boundary.

    Returns ``(consumed, starts, fins, L_arr, svc, k, setups,
    n_batches, F, loaded)``: per-member start/finish arrays covering
    positions ``[0, consumed)`` in stream order, per-batch launch and
    service arrays in launch order, and the carried state.
    """
    nj = len(a)
    if nj == 0:
        return (
            0, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_I,
            0, 0, F, loaded,
        )
    # -- stage 1: canonical partition --------------------------------
    if nj > 1:
        change = np.flatnonzero(m[1:] != m[:-1]) + 1
        run_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), change)
        )
        run_ends = np.concatenate(
            (change, np.full(1, nj, dtype=np.int64))
        )
    else:
        run_starts = np.zeros(1, dtype=np.int64)
        run_ends = np.full(1, nj, dtype=np.int64)
    run_len = run_ends - run_starts
    nb_run = -(-run_len // mb)
    total_b = int(nb_run.sum())
    first_of_run = np.cumsum(nb_run) - nb_run
    s = np.repeat(run_starts - mb * first_of_run, nb_run) + mb * np.arange(
        total_b, dtype=np.int64
    )
    rend = np.repeat(run_ends, nb_run)
    e = np.minimum(s + mb, rend)
    k = e - s
    M = m[s]
    prev = np.empty(total_b, dtype=np.int64)
    prev[0] = loaded
    prev[1:] = M[:-1]
    cold = M != prev
    per_b = per_tab[M]
    setup_eff = np.where(cold, setup_tab[M], 0.0)
    svc = setup_eff + k * per_b
    heada = a[s]
    wake = heada + mw
    lasta = a[e - 1]
    due = np.where(k == mb, np.minimum(wake, lasta), wake)
    if final:
        stop_t = total_b
    else:
        unsafe = (rend == nj) & (s + mb > nj)
        idx = np.flatnonzero(unsafe)
        stop_t = int(idx[0]) if idx.size else total_b

    # -- stage 2: launch fold ----------------------------------------
    due_l = due.tolist()
    svc_l = svc.tolist()
    lasta_l = lasta.tolist()
    heada_l = heada.tolist()
    # Repair-path lookups are materialized lazily: most feeds accept
    # every canonical batch, and these conversions would otherwise
    # rival the fold itself.
    s_l = rend_l = M_l = None
    a_list = m_list = per_tab_l = setup_tab_l = None
    L_list: list[float] = []
    append_L = L_list.append
    pieces: list[tuple] = []
    sc_k: list[int] = []
    sc_setup: list[float] = []
    sc_per: list[float] = []
    sc_svc: list[float] = []
    scalar_setups = 0
    t = 0
    canon_from = 0
    F_ = F
    consumed = None
    # One persistent iterator consumed strictly forward: repairs that
    # replay canonical batches discard the replayed span instead of
    # re-skimming from the start.
    fold = zip(
        islice(due_l, stop_t),
        islice(lasta_l, stop_t),
        islice(svc_l, stop_t),
    )
    pos = 0
    while t < stop_t:
        if t > pos:
            for _ in islice(fold, t - pos):
                pass
            pos = t
        rejected = False
        for i, (d, lasta_t, svc_t) in enumerate(fold, pos):
            if d <= F_:
                # Busy at the deadline: launch at the completion F.
                if lasta_t <= F_:
                    append_L(F_)
                    F_ += svc_t
                    continue
                L = F_
            else:
                # The general loop launches at a completion F when the
                # head's wake deadline (head arrival + max-wait) is
                # within _EPS at or below F and the head has arrived.
                hd = heada_l[i]
                if hd + mw - F_ <= _EPS and hd <= F_:
                    L = F_
                else:
                    L = d
                if lasta_t <= L:
                    append_L(L)
                    F_ = L + svc_t
                    continue
            t = i
            pos = i + 1
            rejected = True
            break
        if not rejected:
            t = stop_t
            break
        # -- stage 3: split repair -----------------------------------
        if a_list is None:
            s_l = s.tolist()
            rend_l = rend.tolist()
            M_l = M.tolist()
            a_list = a.tolist()
            m_list = m.tolist()
            per_tab_l = per_tab.tolist()
            setup_tab_l = setup_tab.tolist()
        if t > canon_from:
            pieces.append(("c", canon_from, t))
        c = s_l[t]
        run_end_c = rend_l[t]
        loaded_c = M_l[t - 1] if t > 0 else loaded
        tt = t + 1
        x0 = len(sc_k)
        while True:
            if not final and run_end_c == nj and c + mb > nj:
                consumed = c
                break
            cap = c + mb
            if cap > run_end_c:
                cap = run_end_c
            wake_c = a_list[c] + mw
            if cap - c == mb:
                t_full = a_list[cap - 1]
                d_c = t_full if t_full < wake_c else wake_c
            else:
                d_c = wake_c
            if d_c > F_:
                if wake_c - F_ <= _EPS and a_list[c] <= F_:
                    L = F_
                else:
                    L = d_c
            else:
                L = F_
            k_real = bisect_right(a_list, L, c, cap) - c
            model_c = m_list[c]
            cold_c = loaded_c != model_c
            setup_c = setup_tab_l[model_c] if cold_c else 0.0
            per_c = per_tab_l[model_c]
            svc_c = setup_c + k_real * per_c
            append_L(L)
            sc_k.append(k_real)
            sc_setup.append(setup_c)
            sc_per.append(per_c)
            sc_svc.append(svc_c)
            if cold_c:
                scalar_setups += 1
            F_ = L + svc_c
            loaded_c = model_c
            c += k_real
            while tt < total_b and s_l[tt] < c:
                tt += 1
            if tt < total_b:
                if s_l[tt] == c:
                    t = tt
                    break
                run_end_c = rend_l[tt - 1]
            else:
                if c >= nj:
                    t = total_b
                    break
                run_end_c = rend_l[total_b - 1]
        if len(sc_k) > x0:
            pieces.append(("x", x0, len(sc_k)))
        canon_from = t
        if consumed is not None:
            break
    if t > canon_from:
        pieces.append(("c", canon_from, t))
    if consumed is None:
        consumed = int(s[stop_t]) if stop_t < total_b else nj

    # -- assembly ----------------------------------------------------
    nb = len(L_list)
    if nb == 0:
        return (
            0, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_I,
            0, 0, F_, loaded,
        )
    L_arr = np.array(L_list, dtype=np.float64)
    if len(pieces) == 1 and pieces[0][0] == "c":
        t0, t1 = pieces[0][1], pieces[0][2]
        k_f = k[t0:t1]
        setup_f = setup_eff[t0:t1]
        per_f = per_b[t0:t1]
        svc_f = svc[t0:t1]
        setups_count = int(np.count_nonzero(cold[t0:t1]))
    else:
        sck = np.asarray(sc_k, dtype=np.int64)
        scsetup = np.asarray(sc_setup, dtype=np.float64)
        scper = np.asarray(sc_per, dtype=np.float64)
        scsvc = np.asarray(sc_svc, dtype=np.float64)
        parts_k, parts_setup, parts_per, parts_svc = [], [], [], []
        setups_count = scalar_setups
        for kind, x0, x1 in pieces:
            if kind == "c":
                parts_k.append(k[x0:x1])
                parts_setup.append(setup_eff[x0:x1])
                parts_per.append(per_b[x0:x1])
                parts_svc.append(svc[x0:x1])
                setups_count += int(np.count_nonzero(cold[x0:x1]))
            else:
                parts_k.append(sck[x0:x1])
                parts_setup.append(scsetup[x0:x1])
                parts_per.append(scper[x0:x1])
                parts_svc.append(scsvc[x0:x1])
        k_f = np.concatenate(parts_k)
        setup_f = np.concatenate(parts_setup)
        per_f = np.concatenate(parts_per)
        svc_f = np.concatenate(parts_svc)
    members = int(k_f.sum())
    base = L_arr + setup_f
    starts_m = np.repeat(L_arr, k_f)
    offsets = np.cumsum(k_f) - k_f - 1
    ranks = np.arange(members, dtype=np.int64) - np.repeat(offsets, k_f)
    fins_m = np.repeat(base, k_f) + ranks * np.repeat(per_f, k_f)
    loaded_out = int(m[consumed - 1]) if consumed else loaded
    return (
        consumed,
        starts_m,
        fins_m,
        L_arr,
        svc_f,
        k_f,
        setups_count,
        nb,
        F_,
        loaded_out,
    )


# ----------------------------------------------------------------------
# Request-stream construction and summarization
# ----------------------------------------------------------------------


def build_requests(
    mix: ScenarioMix,
    times: np.ndarray,
    rng: np.random.Generator,
    slo_classes: tuple | None = None,
) -> RequestArena:
    """Materialize the request stream for one run as a columnar arena.

    Draws each request's model from the mix's weights (and, when
    ``slo_classes`` is given, its SLO class from the class shares,
    interleaved model-then-class per request — the draw order the
    legacy per-request sampling loops used, so fixed seeds reproduce).
    The inverse-CDF draws are vectorized: one uniform block replaces
    2 x n Python-level generator calls on the same bit stream.

    A class bound to a model (``SLOClass.model``) applies only to that
    model's requests: each model draws its class from the classes bound
    to it, falling back to the unbound (tenant-default) classes when
    none are.  The uniform block is identical either way, so adding a
    binding never perturbs another model's draws.

    Returns a :class:`~repro.serve.arena.RequestArena`; iterate or
    index it for object-style :class:`~repro.serve.arena.Request`
    views.

    Raises:
        ConfigError: If bindings leave some mix model with no
            applicable class.
    """
    return RequestArena.build(mix, times, rng, slo_classes)


@dataclass(slots=True)
class RequestSummary:
    """Aggregate of a drained request stream.

    Attributes:
        completed: Requests that finished (offered minus shed).
        latencies: Arrival-to-completion seconds, arrival order
            (``stats="exact"`` only; ``None`` in sketch mode) —
            genuinely *empty* when nothing completed (an all-shed
            overload run); report builders must special-case
            ``completed == 0`` instead of feeding the array to
            ``mean``/``percentile`` (NaN + RuntimeWarning).
        waits: Arrival-to-launch seconds, same shape (exact only).
        model_counts: Sorted ``(model, completed)`` pairs.
        max_finish: Latest completion (``-inf`` when none).
        class_buckets: SLO-class name -> ``[offered, met, latencies]``
            (``None`` unless class tracking was requested); the
            latencies entry is a list/array in exact mode and a
            :class:`~repro.serve.sketch.StreamingLatencyStats` in
            sketch mode.
        model_buckets: Model name -> ``[offered, met, latencies]``
            over *all* of the model's requests including shed ones
            (``None`` unless model tracking was requested) — the
            per-tenant view behind per-model SLO reporting.
        stats: ``"exact"`` or ``"sketch"``.
        latency_sketch: Sketch-mode latency aggregates (mean/max exact,
            percentiles from the t-digest).
        wait_mean_value: Sketch-mode mean wait.

    Report builders should read latency statistics through
    :meth:`latency_mean` / :meth:`latency_percentile` /
    :meth:`latency_max` / :meth:`wait_mean`, which dispatch on the
    mode; in exact mode they reproduce the legacy
    ``float(np.percentile(...))`` calls bit-for-bit.
    """

    completed: int
    latencies: np.ndarray | None
    waits: np.ndarray | None
    model_counts: tuple
    max_finish: float
    class_buckets: dict | None
    model_buckets: dict | None = None
    stats: str = "exact"
    latency_sketch: StreamingLatencyStats | None = None
    wait_mean_value: float = 0.0

    def latency_mean(self) -> float:
        if self.stats == "sketch":
            return self.latency_sketch.mean
        return float(self.latencies.mean())

    def latency_percentile(self, pct: float) -> float:
        if self.stats == "sketch":
            return self.latency_sketch.quantile(pct / 100.0)
        return float(np.percentile(self.latencies, pct))

    def latency_max(self) -> float:
        if self.stats == "sketch":
            return self.latency_sketch.max
        return float(self.latencies.max())

    def wait_mean(self) -> float:
        if self.stats == "sketch":
            return self.wait_mean_value
        return float(self.waits.mean())


def _sketch_of(values) -> StreamingLatencyStats:
    stats = StreamingLatencyStats()
    stats.add(np.asarray(values, dtype=np.float64))
    return stats


def summarize_requests(
    arena: RequestArena,
    track_classes: bool = False,
    track_models: bool = False,
    stats: str = "exact",
) -> RequestSummary:
    """Aggregate a drained arena in one vectorized pass over its columns.

    Exact statistics are the same floats the object-era loop produced
    (the same subtractions and comparisons); ``stats="sketch"`` swaps
    latency retention for t-digest sketches (see
    :class:`RequestSummary`).

    Completed rows are gathered once by integer index (a boolean mask
    index costs ~10x more at half density) and class/model ids are
    small non-negative after the ``+ 1`` shift, so ``bincount`` stands
    in for ``np.unique`` plus per-id mask counts.

    Raises:
        ConfigError: If any admitted request never completed — the
            event loop's drain invariant was violated.
    """
    shed = arena.shed
    finish = arena.finish
    arrival = arena.arrival
    not_shed = ~shed
    done = not_shed & (finish >= 0.0)
    unserved = int(np.count_nonzero(not_shed & (finish < 0.0)))
    if unserved:
        raise ConfigError(
            f"simulation ended with {unserved} unserved requests"
        )
    rows = np.flatnonzero(done)
    arrival_d = arrival[rows]
    finish_d = finish[rows]
    latencies = finish_d - arrival_d
    waits = arena.start[rows] - arrival_d
    completed = int(latencies.size)
    if completed:
        counts = np.bincount(
            arena.model_idx[rows], minlength=len(arena.model_names)
        ).tolist()
        model_counts = tuple(
            sorted(
                (name, int(count))
                for name, count in zip(arena.model_names, counts)
                if count
            )
        )
        max_finish = float(finish_d.max())
    else:
        model_counts = ()
        max_finish = float("-inf")
    buckets = None
    model_buckets = None
    if track_classes or track_models:
        met_d = finish_d <= arena.deadline[rows]
        if track_classes:
            buckets = {}
            ci = arena.class_idx
            ci_d = ci[rows]
            offered = np.bincount(ci + 1).tolist()
            met = np.bincount(ci_d[met_d] + 1, minlength=len(offered))
            for shifted, count in enumerate(offered):
                if not count:
                    continue
                cid = shifted - 1
                name = "" if cid < 0 else arena.slo_names[cid]
                buckets[name] = [
                    count,
                    int(met[shifted]),
                    latencies[ci_d == cid],
                ]
        if track_models:
            model_buckets = {}
            mi = arena.model_idx
            mi_d = mi[rows]
            offered = np.bincount(mi).tolist()
            met = np.bincount(mi_d[met_d], minlength=len(offered))
            for mid, count in enumerate(offered):
                if not count:
                    continue
                model_buckets[arena.model_names[mid]] = [
                    count,
                    int(met[mid]),
                    latencies[mi_d == mid],
                ]
    if stats == "exact":
        return RequestSummary(
            completed=completed,
            latencies=latencies,
            waits=waits,
            model_counts=model_counts,
            max_finish=max_finish,
            class_buckets=buckets,
            model_buckets=model_buckets,
        )
    for bucket_map in (buckets, model_buckets):
        if bucket_map is not None:
            for bucket in bucket_map.values():
                bucket[2] = _sketch_of(bucket[2])
    return RequestSummary(
        completed=completed,
        latencies=None,
        waits=None,
        model_counts=model_counts,
        max_finish=max_finish,
        class_buckets=buckets,
        model_buckets=model_buckets,
        stats="sketch",
        latency_sketch=_sketch_of(latencies),
        wait_mean_value=float(waits.mean()) if completed else 0.0,
    )


# ----------------------------------------------------------------------
# Streaming round-robin runner (flat memory in request count)
# ----------------------------------------------------------------------


def run_streaming_round_robin(
    fleet: Fleet,
    mix: ScenarioMix,
    arrivals,
    n: int,
    rng: np.random.Generator,
    max_batch: int,
    max_wait_s: float,
    chunk: int = _STREAM_CHUNK,
) -> tuple[RequestSummary, EngineRun]:
    """Round-robin serve-plane run with O(chunk) resident memory.

    Pulls arrival timestamps chunk-at-a-time (see
    :func:`repro.serve.arrival.iter_arrival_times`), draws each
    chunk's model ids, and advances every instance's timeline with the
    same :func:`_rr_feed` kernel the exact fast path uses — only
    deferring the few trailing positions (< ``max_batch``) whose batch
    membership could still change.  Completed latencies are folded
    into a t-digest and discarded, so memory stays flat in ``n``: the
    million-request mode.

    Returns a sketch-mode :class:`RequestSummary` (mean wait over all
    ``n`` requests, which all complete) and the run's
    :class:`EngineRun` (``dispatch="streaming"``); fleet counters —
    busy seconds, served, batches, setups, window busy time and the
    window end (the last arrival) — are written to the instances in
    place, exactly like an engine run.

    The simulated *physics* per processed stream are the engine's
    exactly; the stream itself differs bit-wise from exact mode
    because times and model draws interleave chunk-by-chunk on the
    RNG (documented in ``ServingScenario.stats``), so sketch-mode
    scenarios carry a distinct cache key.
    """
    instances = fleet.instances
    K = len(instances)
    per_tab = np.array(
        [p.per_image_seconds for p in mix.profiles], dtype=np.float64
    )
    setup_tab = np.array(
        [p.setup_seconds for p in mix.profiles], dtype=np.float64
    )
    cum_weights = np.cumsum(
        np.asarray(mix.weights, dtype=np.float64)
    )
    nmodels = len(mix.profiles)
    latency = StreamingLatencyStats()
    wait_sum = 0.0
    counts = np.zeros(nmodels, dtype=np.int64)
    max_finish = float("-inf")
    F = [0.0] * K
    loaded = [-1] * K
    buf_a: list[list[np.ndarray]] = [[] for _ in range(K)]
    buf_m: list[list[np.ndarray]] = [[] for _ in range(K)]
    busy = [0.0] * K
    busyw = [0.0] * K
    served = [0] * K
    nbatches = [0] * K
    setups = [0] * K
    # Batches whose finish may straddle the (yet unknown) busy-window
    # end: flushed to busyw once the arrival horizon passes them.
    pend: list[list[tuple[float, float, float]]] = [
        [] for _ in range(K)
    ]
    offset = 0
    last_arrival = 0.0
    events = 0

    def absorb(j: int, final: bool) -> None:
        nonlocal wait_sum, max_finish, events
        chunks_a = buf_a[j]
        if not chunks_a:
            return
        a = (
            np.concatenate(chunks_a)
            if len(chunks_a) > 1
            else chunks_a[0]
        )
        m = (
            np.concatenate(buf_m[j])
            if len(buf_m[j]) > 1
            else buf_m[j][0]
        )
        (
            consumed,
            starts_m,
            fins_m,
            L_arr,
            svc_f,
            _k_f,
            setups_count,
            nb,
            F_j,
            loaded_j,
        ) = _rr_feed(
            a, m, per_tab, setup_tab, max_batch, max_wait_s,
            F[j], loaded[j], final,
        )
        F[j] = F_j
        loaded[j] = loaded_j
        if consumed < len(a):
            buf_a[j] = [a[consumed:]]
            buf_m[j] = [m[consumed:]]
        else:
            buf_a[j] = []
            buf_m[j] = []
        events += nb
        if not consumed:
            return
        a_done = a[:consumed]
        latency.add(fins_m - a_done)
        wait_sum += float((starts_m - a_done).sum())
        counts_j = np.bincount(m[:consumed], minlength=nmodels)
        np.add(counts, counts_j, out=counts)
        tail = float(fins_m[-1])
        if tail > max_finish:
            max_finish = tail
        served[j] += consumed
        nbatches[j] += nb
        setups[j] += setups_count
        busy[j] += float(svc_f.sum())
        fin_b = L_arr + svc_f
        inside = fin_b <= last_arrival
        busyw[j] += float(svc_f[inside].sum())
        for L_val, fin_val, svc_val in zip(
            L_arr[~inside].tolist(),
            fin_b[~inside].tolist(),
            svc_f[~inside].tolist(),
        ):
            pend[j].append((L_val, fin_val, svc_val))

    from .arrival import iter_arrival_times

    for times in iter_arrival_times(arrivals, n, rng, chunk):
        cn = len(times)
        u = rng.random(cn)
        midx = np.minimum(
            np.searchsorted(
                cum_weights, u * cum_weights[-1], side="right"
            ),
            nmodels - 1,
        ).astype(np.int64)
        last_arrival = float(times[cn - 1])
        events += cn
        for j in range(K):
            first = (j - offset) % K
            a_new = times[first::K]
            if len(a_new):
                buf_a[j].append(np.ascontiguousarray(a_new))
                buf_m[j].append(np.ascontiguousarray(midx[first::K]))
            absorb(j, final=False)
            # Flush window-pending batches the horizon has passed.
            if pend[j]:
                keep = []
                for L_val, fin_val, svc_val in pend[j]:
                    if fin_val <= last_arrival:
                        busyw[j] += svc_val
                    else:
                        keep.append((L_val, fin_val, svc_val))
                pend[j] = keep
        offset = (offset + cn) % K
    for j in range(K):
        absorb(j, final=True)
    window_end = last_arrival
    for j, inst in enumerate(instances):
        for L_val, fin_val, svc_val in pend[j]:
            s0 = L_val if L_val < window_end else window_end
            e0 = fin_val if fin_val < window_end else window_end
            d0 = e0 - s0
            if d0 > 0.0:
                busyw[j] += d0
        inst.busy_until = F[j]
        inst.loaded_model = (
            mix.profiles[loaded[j]].name if loaded[j] >= 0 else None
        )
        inst.busy_seconds += busy[j]
        inst.busy_seconds_window += busyw[j]
        inst.served += served[j]
        inst.batches += nbatches[j]
        inst.setups += setups[j]
        inst.window_end = window_end
    model_counts = tuple(
        sorted(
            (p.name, int(c))
            for p, c in zip(mix.profiles, counts.tolist())
            if c
        )
    )
    summary = RequestSummary(
        completed=int(sum(served)),
        latencies=None,
        waits=None,
        model_counts=model_counts,
        max_finish=max_finish,
        class_buckets=None,
        stats="sketch",
        latency_sketch=latency,
        wait_mean_value=wait_sum / n if n else 0.0,
    )
    return summary, EngineRun(
        events=events, tick_actions=0, dispatch="streaming"
    )
