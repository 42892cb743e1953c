"""Requests, accelerator instances, and the fleet they form.

Each instance models one EDEA accelerator behind its own batching
queue: requests wait until a batch launches (full, or the head request
has waited the configured maximum), then stream through the accelerator
back to back — the design has no inter-image parallelism, so a batch's
benefit is amortizing the model-switch weight load, not parallel
compute.  Queues are FIFO (a plain ``deque``) on the serve plane and
:class:`BucketQueue` — ``(priority, index)`` order — under SLO
priorities.  The fleet is just the indexed collection a scheduling
policy chooses from.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigError
from .arena import Request
from .profile import ServiceProfile

__all__ = ["Request", "Batch", "BucketQueue", "Instance", "Fleet"]


@dataclass(frozen=True, slots=True)
class Batch:
    """A same-model run of requests launched together."""

    requests: tuple[Request, ...]

    @property
    def model(self) -> str:
        return self.requests[0].model

    @property
    def profile(self) -> ServiceProfile:
        return self.requests[0].profile

    def __len__(self) -> int:
        return len(self.requests)


class BucketQueue:
    """An instance queue kept in exact ``(priority, index)`` order.

    One FIFO ``deque`` per priority level plus the sorted list of the
    levels that hold requests.  Iteration concatenates the buckets, so
    the queue reads exactly like a deque sorted by ``(priority,
    index)`` (lower priority value first): ``[0]`` is the most urgent,
    oldest request, ``[-1]`` the newest of the least urgent class, and
    head-of-line batching crosses bucket boundaries unchanged.

    ``append`` is O(1) whenever the request's index is at or above its
    bucket's tail index, which holds for every engine stream (arena
    ``arange`` indices, tenancy's reindexed merges, checkpoints
    restored in stored order); any other request is inserted in place
    inside its bucket, so the order never rests on arrival order.
    ``popleft``, ``remove``, ``clear``, ``extend``, ``len``, iteration
    and head/tail indexing follow the ``deque`` protocol the engine,
    the shedders and checkpoints use.
    """

    __slots__ = ("_buckets", "_levels", "_len")

    def __init__(self, requests=()) -> None:
        self._buckets: dict[int, deque] = {}
        self._levels: list[int] = []
        self._len = 0
        self.extend(requests)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        buckets = self._buckets
        for level in self._levels:
            yield from buckets[level]

    def __getitem__(self, position: int) -> Request:
        """The head (``[0]``) or the tail (``[-1]``); the queue has no
        other random access."""
        if position not in (0, -1):
            raise IndexError("only [0] and [-1] are indexable")
        if not self._len:
            raise IndexError("queue is empty")
        return self._buckets[self._levels[position]][position]

    def __repr__(self) -> str:
        return f"BucketQueue({list(self)!r})"

    def append(self, request: Request) -> None:
        level = request.priority
        bucket = self._buckets.get(level)
        if bucket is None:
            bucket = self._buckets[level] = deque()
        if not bucket:
            insort(self._levels, level)
            bucket.append(request)
        else:
            index = request.index
            if bucket[-1].index <= index:
                bucket.append(request)
            else:
                pos = len(bucket)
                for queued in reversed(bucket):
                    if queued.index <= index:
                        break
                    pos -= 1
                bucket.insert(pos, request)
        self._len += 1

    def extend(self, requests) -> None:
        for request in requests:
            self.append(request)

    def popleft(self) -> Request:
        if not self._len:
            raise IndexError("pop from an empty queue")
        levels = self._levels
        bucket = self._buckets[levels[0]]
        request = bucket.popleft()
        if not bucket:
            del levels[0]
        self._len -= 1
        return request

    def remove(self, request: Request) -> None:
        """Drop ``request``; O(1) for its bucket's tail (the
        priority-preemptive shedding victim)."""
        level = request.priority
        bucket = self._buckets.get(level)
        if not bucket:
            raise ValueError("request is not queued")
        if bucket[-1] is request:
            bucket.pop()
        else:
            bucket.remove(request)
        if not bucket:
            self._levels.remove(level)
        self._len -= 1

    def clear(self) -> None:
        self._buckets.clear()
        self._levels.clear()
        self._len = 0


@dataclass(slots=True)
class Instance:
    """One accelerator instance with its batching queue.

    Attributes:
        index: Position in the fleet.
        busy_until: Completion time of the in-flight batch (<= now when
            idle).
        loaded_model: Model whose weights are resident (None when cold).
        queue: Waiting requests: a ``deque`` in arrival order, or a
            :class:`BucketQueue` in ``(priority, index)`` order.
        busy_seconds: Accumulated service time (utilization numerator).
        served: Completed request count.
        batches: Launched batch count.
        setups: Model switches paid (weight reloads).
        queued_seconds: Running sum of the queued requests' per-image
            service times (kept incrementally so scheduling decisions
            stay O(1) even when a queue grows long under overload).
        active: Whether the control plane routes new requests here (an
            autoscaler powers instances up/down; drained instances keep
            serving their queue).
        latency_scale: Service-time multiplier from the instance's DVFS
            operating point (nominal clock / actual clock; 1.0 at the
            published operating point).
        busy_power_w / idle_power_w: Power draw while serving / while
            powered but idle (0.0 outside the control plane).
        energy_joules: Accumulated busy-time energy.
        powered_since: Start of the current powered interval (None when
            powered off).
        powered_seconds: Closed powered intervals, accumulated.
        window_end: End of the busy-window accounting interval (the last
            arrival); busy time inside it accrues separately so reports
            can exclude the drain tail.
        busy_seconds_window: Busy time accrued inside the window.
        profiles: Optional per-instance service profiles (heterogeneous
            ``ArchConfig`` fleets); None falls back to each request's
            own profile.
    """

    index: int
    busy_until: float = 0.0
    loaded_model: str | None = None
    queue: deque = field(default_factory=deque)
    busy_seconds: float = 0.0
    served: int = 0
    batches: int = 0
    setups: int = 0
    queued_seconds: float = 0.0
    active: bool = True
    latency_scale: float = 1.0
    busy_power_w: float = 0.0
    idle_power_w: float = 0.0
    energy_joules: float = 0.0
    powered_since: float | None = 0.0
    powered_seconds: float = 0.0
    window_end: float | None = None
    busy_seconds_window: float = 0.0
    profiles: dict[str, ServiceProfile] | None = None

    #: Scalar fields that round-trip through ``state_dict`` — the
    #: queue (engine-owned, serialized as stream positions by
    #: ``Engine.snapshot``) and the deterministically rebuilt ``index``
    #: and ``profiles`` are deliberately excluded.
    _STATE_FIELDS = (
        "busy_until",
        "loaded_model",
        "busy_seconds",
        "served",
        "batches",
        "setups",
        "queued_seconds",
        "active",
        "latency_scale",
        "busy_power_w",
        "idle_power_w",
        "energy_joules",
        "powered_since",
        "powered_seconds",
        "window_end",
        "busy_seconds_window",
    )

    def state_dict(self) -> dict:
        """Picklable mid-run state (see :data:`_STATE_FIELDS`)."""
        return {
            name: getattr(self, name) for name in self._STATE_FIELDS
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the fields captured by :meth:`state_dict`; extra
        keys (e.g. the engine's serialized queue) are ignored."""
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])

    def enqueue(self, request: Request) -> None:
        """Append a request to the queue.

        The queue's own type decides the order: a plain ``deque`` is
        FIFO, a :class:`BucketQueue` keeps ``(priority, index)`` order
        (the engine installs one per instance when ``priority_queues``
        is set).
        """
        self.queue.append(request)
        self.queued_seconds += request.profile.per_image_seconds

    def remove(self, request: Request) -> None:
        """Drop a queued request (priority-preemptive shedding)."""
        self.queue.remove(request)
        self.queued_seconds -= request.profile.per_image_seconds
        if not self.queue:
            self.queued_seconds = 0.0

    def is_idle(self, now: float) -> bool:
        return self.busy_until <= now

    def queue_depth(self) -> int:
        return len(self.queue)

    def profile_for(self, model: str) -> ServiceProfile | None:
        """This instance's own profile of ``model`` (None = use the
        request's profile, i.e. the fleet is architecturally uniform)."""
        if self.profiles is None:
            return None
        return self.profiles.get(model)

    def pending_seconds(self, now: float) -> float:
        """Work the instance still owes: in-flight remainder + queued
        service time (model-switch costs excluded — they depend on the
        batching outcome, and the estimate only ranks instances)."""
        pending = self.busy_until - now
        if pending < 0.0:
            pending = 0.0
        queued = self.queued_seconds
        if queued > 0.0:
            pending += queued * self.latency_scale
        return pending

    def estimated_completion(self, request: Request, now: float) -> float:
        """First-order completion estimate if ``request`` joined now
        (in-flight remainder + queued work + its own service time)."""
        profile = self.profile_for(request.model) or request.profile
        return (
            now
            + self.pending_seconds(now)
            + profile.per_image_seconds * self.latency_scale
        )

    def _accrue_busy(self, now: float, duration: float) -> None:
        self.busy_seconds += duration
        if self.window_end is not None:
            start = min(now, self.window_end)
            end = min(now + duration, self.window_end)
            self.busy_seconds_window += max(0.0, end - start)
        self.energy_joules += self.busy_power_w * duration

    def power_up(self, now: float, warmup_s: float) -> None:
        """Bring a powered-off instance online; the warm-up (weight
        reload) occupies it — and burns busy power — before it serves."""
        self.active = True
        if self.powered_since is None:
            self.powered_since = now
        self.loaded_model = None
        start = max(self.busy_until, now)
        self.busy_until = start + warmup_s
        if warmup_s > 0:
            self._accrue_busy(start, warmup_s)

    def close_power_interval(self, now: float) -> None:
        """Close the current powered interval (instance fully drained)."""
        if self.powered_since is not None:
            self.powered_seconds += now - self.powered_since
            self.powered_since = None

    def next_batch(self, max_batch: int) -> Batch:
        """The batch that would launch now: the longest same-model run
        at the queue head, capped at ``max_batch`` (queue order is never
        violated — a different model behind the head waits its turn)."""
        if not self.queue:
            raise ConfigError("no queued requests to batch")
        head_model = self.queue[0].model
        members = []
        for request in self.queue:
            if request.model != head_model or len(members) == max_batch:
                break
            members.append(request)
        return Batch(requests=tuple(members))

    def launch(self, batch: Batch, now: float) -> float:
        """Start serving ``batch``; returns its completion time.

        Images stream sequentially, so the i-th request of the batch
        finishes after ``setup + (i+1) * per_image`` — completion times
        inside a batch are staggered, not simultaneous.  Service times
        come from the instance's own profile (heterogeneous fleets) when
        one is set, stretched by its DVFS ``latency_scale``.
        """
        return self._serve(batch.requests, now)

    def launch_head(self, max_batch: int, now: float) -> float:
        """Launch the due head batch without materializing a
        :class:`Batch`: pops the longest same-model run at the queue
        head (capped at ``max_batch``) and serves it.  The engine's hot
        path — identical outcome to ``launch(next_batch(max_batch))``.
        """
        queue = self.queue
        if not queue:
            raise ConfigError("no queued requests to batch")
        model = queue[0].model
        members = [queue.popleft()]
        while (
            len(members) < max_batch
            and queue
            and queue[0].model == model
        ):
            members.append(queue.popleft())
        return self._serve(members, now)

    def _serve(self, requests, now: float) -> float:
        """Serve an already-selected same-model run (shared by
        :meth:`launch` and :meth:`launch_head`)."""
        queue = self.queue
        queued_seconds = self.queued_seconds
        for request in requests:
            if queue and queue[0] is request:
                queue.popleft()
            queued_seconds -= request.profile.per_image_seconds
        self.queued_seconds = queued_seconds if queue else 0.0
        head = requests[0]
        model = head.model
        cold = self.loaded_model != model
        profile = self.profile_for(model) or head.profile
        setup = profile.setup_seconds if cold else 0.0
        per_image = profile.per_image_seconds * self.latency_scale
        base = now + setup
        count = 0
        for request in requests:
            count += 1
            request.start = now
            request.finish = base + count * per_image
        service = setup + count * per_image
        self.busy_until = now + service
        self._accrue_busy(now, service)
        self.served += count
        self.batches += 1
        if cold:
            self.setups += 1
        self.loaded_model = model
        return self.busy_until


class Fleet:
    """An indexed collection of :class:`Instance` objects."""

    def __init__(self, instances: int) -> None:
        if instances < 1:
            raise ConfigError(
                f"fleet needs at least one instance ({instances})"
            )
        self.instances = [Instance(index=i) for i in range(instances)]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def __getitem__(self, index: int) -> Instance:
        return self.instances[index]

    def active_indices(self) -> list[int]:
        """Fleet indices the control plane currently routes to."""
        return [i.index for i in self.instances if i.active]
