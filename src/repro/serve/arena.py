"""Columnar request storage: one arena of numpy columns per run.

PR 4's engine allocated one Python ``Request`` object per request —
fine at 10^4 requests, ruinous at 10^6 (a day-long diurnal trace at
production QPS).  This module stores the whole request stream as a
:class:`RequestArena` of parallel numpy columns (arrival, start,
finish, deadline, priority, class/model ids, shed flags) plus small
interned side tables (model names, service profiles, SLO class names),
so per-request state is 8-byte column slots instead of ~400-byte
Python objects and the engine's fast paths can process it with
vectorized kernels.

The arena is the one request representation: the engine, the
summarizer and the control plane accept nothing else (multi-fleet
spillover merges forwarded rows into a new receiver arena rather than
copying requests).  The object API lives on as :class:`Request`, a
*view* — a two-slot proxy holding ``(arena, i)`` whose attribute reads
and writes go straight through to the columns:

* hooks (shedding, governors) and policies receive views and mutate
  ``request.shed`` / read ``request.deadline`` as before;
* the legacy keyword constructor ``Request(index=..., model=...,
  profile=..., arrival=...)`` builds a private single-row arena — for
  tests and ad-hoc callers only (e.g. enqueueing a request onto an
  instance by hand); no simulator path builds one.

Invariants:

* A view *writes through*: mutating a view mutates its arena, and
  every view of the same row observes the write — an admission hook
  that sheds through a view is what the summarizer reads back.
* :meth:`RequestArena.build` is RNG-draw-identical to the object-era
  ``build_requests`` loop: same uniform block, same inverse-CDF
  boundaries, same model-then-class interleave — fixed seeds reproduce
  the PR-4 streams bit-for-bit (pinned by
  ``tests/serve/test_engine_parity.py``).
* Getters return plain Python scalars (``float``/``int``/``bool``),
  never numpy scalars, so identity checks (``request.shed is False``)
  and JSON serialization behave exactly as the dataclass era did.
"""

from __future__ import annotations

import numpy as np

from .profile import ScenarioMix, ServiceProfile

__all__ = ["Request", "RequestArena"]

_INF = float("inf")


class RequestArena:
    """Column store for one request stream.

    Columns (length ``n``, one slot per request):

    ``arrival``/``start``/``finish``/``deadline``
        float64 timestamps; ``start``/``finish`` are ``-1.0`` until
        served, ``deadline`` is ``inf`` without an SLO class.
    ``index``/``priority``/``model_idx``/``class_idx``
        int64; ``model_idx`` indexes the side tables, ``class_idx`` is
        ``-1`` for requests outside the control plane (``slo == ""``).
    ``shed``
        bool; set by admission hooks through views.

    Side tables (length = distinct models / classes, shared by every
    row): ``model_names``, ``profiles``, ``per_image``, ``setup``,
    ``slo_names``.
    """

    __slots__ = (
        "arrival",
        "start",
        "finish",
        "deadline",
        "index",
        "priority",
        "model_idx",
        "class_idx",
        "shed",
        "model_names",
        "profiles",
        "per_image",
        "setup",
        "slo_names",
    )

    def __init__(
        self,
        n: int,
        model_names: tuple[str, ...],
        profiles: tuple[ServiceProfile, ...],
        slo_names: tuple[str, ...] = (),
    ) -> None:
        self.arrival = np.zeros(n, dtype=np.float64)
        self.start = np.full(n, -1.0, dtype=np.float64)
        self.finish = np.full(n, -1.0, dtype=np.float64)
        self.deadline = np.full(n, _INF, dtype=np.float64)
        self.index = np.arange(n, dtype=np.int64)
        self.priority = np.zeros(n, dtype=np.int64)
        self.model_idx = np.zeros(n, dtype=np.int64)
        self.class_idx = np.full(n, -1, dtype=np.int64)
        self.shed = np.zeros(n, dtype=bool)
        self.model_names = model_names
        self.profiles = profiles
        # A None profile is legal for summary-only request streams
        # (the dataclass era never enforced one either); such rows can
        # not reach the engine's fast paths, which read these tables.
        self.per_image = np.array(
            [0.0 if p is None else p.per_image_seconds for p in profiles],
            dtype=np.float64,
        )
        self.setup = np.array(
            [0.0 if p is None else p.setup_seconds for p in profiles],
            dtype=np.float64,
        )
        self.slo_names = slo_names

    @classmethod
    def build(
        cls,
        mix: ScenarioMix,
        times: np.ndarray,
        rng: np.random.Generator,
        slo_classes: tuple | None = None,
    ) -> "RequestArena":
        """Vectorized request-stream construction (columns, no loop).

        Consumes the RNG exactly like the object-era builder: one
        ``rng.random(n)`` block for model draws, or one
        ``rng.random(2 * n)`` block interleaving model-then-class
        draws when ``slo_classes`` is given.
        """
        n = len(times)
        weights = np.asarray(mix.weights, dtype=np.float64)
        cum_weights = np.cumsum(weights)
        if slo_classes is None:
            u_model = rng.random(n)
            u_class = None
        else:
            u = rng.random(2 * n)
            u_model = u[0::2]
            u_class = u[1::2]
        model_idx = np.minimum(
            np.searchsorted(
                cum_weights, u_model * cum_weights[-1], side="right"
            ),
            len(cum_weights) - 1,
        ).astype(np.int64)

        slo_names = (
            tuple(c.name for c in slo_classes) if slo_classes else ()
        )
        arena = cls(
            n,
            model_names=tuple(p.name for p in mix.profiles),
            profiles=tuple(mix.profiles),
            slo_names=slo_names,
        )
        arena.arrival[:] = times
        arena.model_idx[:] = model_idx

        if slo_classes is None:
            return arena

        if any(getattr(c, "model", None) for c in slo_classes):
            pools = _class_pools(mix, slo_classes)
            class_arr = np.empty(n, dtype=np.int64)
            for position, profile in enumerate(mix.profiles):
                members, cum = pools[profile.name]
                mask = model_idx == position
                if not mask.any():
                    continue
                drawn = np.minimum(
                    np.searchsorted(
                        cum, u_class[mask] * cum[-1], side="right"
                    ),
                    len(members) - 1,
                )
                class_arr[mask] = np.asarray(members)[drawn]
        else:
            shares = np.asarray(
                [c.share for c in slo_classes], dtype=np.float64
            )
            cum_shares = np.cumsum(shares)
            class_arr = np.minimum(
                np.searchsorted(
                    cum_shares, u_class * cum_shares[-1], side="right"
                ),
                len(cum_shares) - 1,
            ).astype(np.int64)
        arena.class_idx[:] = class_arr
        arena.priority[:] = np.asarray(
            [c.priority for c in slo_classes], dtype=np.int64
        )[class_arr]
        # Same float op as the scalar era: arrival + cls.deadline_s.
        arena.deadline[:] = arena.arrival + np.asarray(
            [c.deadline_s for c in slo_classes], dtype=np.float64
        )[class_arr]
        return arena

    def __len__(self) -> int:
        return len(self.arrival)

    def view(self, i: int) -> "Request":
        """A write-through view of row ``i`` (no bounds translation)."""
        request = Request.__new__(Request)
        request.arena = self
        request.i = i
        return request

    def __getitem__(self, i: int) -> "Request":
        n = len(self.arrival)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self.view(i)

    def __iter__(self):
        for i in range(len(self.arrival)):
            yield self.view(i)

    def shed_indices(self) -> list:
        """Row indices of shed requests, ascending — the rows a
        multi-fleet donor forwards at the spillover barrier, in stream
        order."""
        return np.flatnonzero(self.shed).tolist()


def _class_pools(mix: ScenarioMix, slo_classes: tuple) -> dict:
    """Per-model class-draw pools for model-bound SLO classes.

    Each mix model maps to ``(class positions, cumulative shares)``:
    the classes bound to it when any are, else the unbound defaults.
    """
    from ..errors import ConfigError

    unbound = [
        i
        for i, c in enumerate(slo_classes)
        if not getattr(c, "model", None)
    ]
    pools: dict[str, tuple[list[int], np.ndarray]] = {}
    for name in mix.model_names:
        members = [
            i
            for i, c in enumerate(slo_classes)
            if getattr(c, "model", None) == name
        ] or unbound
        if not members:
            raise ConfigError(
                f"model {name!r} has no applicable SLO class: every "
                "class is bound to another model — bind one with "
                "model= or add an unbound default class"
            )
        pools[name] = (
            members,
            np.cumsum(
                [slo_classes[i].share for i in members],
                dtype=np.float64,
            ),
        )
    return pools


class Request:
    """A write-through view of one arena row.

    Presents the object-era dataclass API — ``index``, ``model``,
    ``profile``, ``arrival``, ``start``, ``finish``, ``slo``,
    ``priority``, ``deadline``, ``shed`` plus the ``latency`` /
    ``queue_wait`` / ``met_deadline`` helpers — over ``(arena, i)``.
    The legacy constructor builds a private single-row arena, so
    ``Request(index=0, model=..., profile=..., arrival=...)`` keeps
    working for tests and ad-hoc callers; simulators only ever create
    views of their run's arena.

    Equality is identity (the dataclass era's value-``__eq__`` made
    requests unhashable and was never relied on: queue membership
    tests compare the very objects the engine enqueued).
    """

    __slots__ = ("arena", "i")

    def __init__(
        self,
        index: int,
        model: str,
        profile: ServiceProfile,
        arrival: float,
        start: float = -1.0,
        finish: float = -1.0,
        slo: str = "",
        priority: int = 0,
        deadline: float = _INF,
        shed: bool = False,
    ) -> None:
        arena = RequestArena(
            1,
            model_names=(model,),
            profiles=(profile,),
            slo_names=(slo,) if slo else (),
        )
        arena.arrival[0] = arrival
        arena.start[0] = start
        arena.finish[0] = finish
        arena.deadline[0] = deadline
        arena.index[0] = index
        arena.priority[0] = priority
        arena.class_idx[0] = 0 if slo else -1
        arena.shed[0] = shed
        self.arena = arena
        self.i = 0

    # -- identity ----------------------------------------------------
    @property
    def index(self) -> int:
        return int(self.arena.index[self.i])

    @index.setter
    def index(self, value: int) -> None:
        self.arena.index[self.i] = value

    @property
    def model(self) -> str:
        return self.arena.model_names[self.arena.model_idx[self.i]]

    @property
    def profile(self) -> ServiceProfile:
        return self.arena.profiles[self.arena.model_idx[self.i]]

    @property
    def slo(self) -> str:
        ci = self.arena.class_idx[self.i]
        return "" if ci < 0 else self.arena.slo_names[ci]

    # -- timestamps --------------------------------------------------
    @property
    def arrival(self) -> float:
        return float(self.arena.arrival[self.i])

    @arrival.setter
    def arrival(self, value: float) -> None:
        self.arena.arrival[self.i] = value

    @property
    def start(self) -> float:
        return float(self.arena.start[self.i])

    @start.setter
    def start(self, value: float) -> None:
        self.arena.start[self.i] = value

    @property
    def finish(self) -> float:
        return float(self.arena.finish[self.i])

    @finish.setter
    def finish(self, value: float) -> None:
        self.arena.finish[self.i] = value

    @property
    def deadline(self) -> float:
        return float(self.arena.deadline[self.i])

    @deadline.setter
    def deadline(self, value: float) -> None:
        self.arena.deadline[self.i] = value

    # -- control-plane state -----------------------------------------
    @property
    def priority(self) -> int:
        return int(self.arena.priority[self.i])

    @priority.setter
    def priority(self, value: int) -> None:
        self.arena.priority[self.i] = value

    @property
    def shed(self) -> bool:
        return bool(self.arena.shed[self.i])

    @shed.setter
    def shed(self, value: bool) -> None:
        self.arena.shed[self.i] = value

    # -- derived -----------------------------------------------------
    @property
    def latency(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        """Arrival-to-launch wait."""
        return self.start - self.arrival

    @property
    def met_deadline(self) -> bool:
        """Completed at or before the deadline (shed never counts)."""
        return not self.shed and 0 <= self.finish <= self.deadline

    def __repr__(self) -> str:
        return (
            f"Request(index={self.index}, model={self.model!r}, "
            f"arrival={self.arrival}, start={self.start}, "
            f"finish={self.finish}, slo={self.slo!r}, "
            f"priority={self.priority}, deadline={self.deadline}, "
            f"shed={self.shed})"
        )
