"""Differential test: every columnar fast path against the general loop.

McKeeman-style differential testing ("Differential Testing for
Software", 1998) instead of hand-picked A/B scenarios: Hypothesis draws
a scenario, and the same request stream is drained twice on freshly
built fleets.  The first drain is a pristine ``run_until(inf)``, which
dispatches whichever kernel (``"rr"``, ``"ll"``, ``"rr-ctl"``) the
configuration qualifies for; the second starts with a bounded
``run_until`` slice, which always steps the general event loop, and
then drains.  Schedules (``start``/``finish``/``shed`` columns) and
every per-instance counter must agree bit for bit.  A third drain
checkpoints at the cut — ``snapshot()``, a pickle round trip,
``restore()`` into a freshly built fleet and engine — and must also
match the uninterrupted sliced drain's run telemetry.

Draws cover arrival shape (Poisson, bursty, and tied timestamps),
``max_wait`` in {0, sub-nanosecond, normal}, mix, fleet size, DVFS
latency scales with busy power, shedding kind in {none, deadline,
queue-depth} and round-robin / least-loaded routing.  Sub-nanosecond
waits and ties are where an off-by-epsilon launch rule shows; overload
with mixed priorities is where queue ordering shows.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.simulator import ControlHooks
from repro.control.slo import DEFAULT_SLO_CLASSES, make_shedder
from repro.serve import Engine, Fleet, make_policy
from repro.serve.arrival import BurstyArrivals, PoissonArrivals
from repro.serve.engine import build_requests
from repro.serve.profile import build_mix

_INF = float("inf")

#: Per-instance state both drains must leave identical.
_COUNTERS = (
    "busy_until",
    "loaded_model",
    "busy_seconds",
    "busy_seconds_window",
    "energy_joules",
    "served",
    "batches",
    "setups",
)


@st.composite
def scenarios(draw):
    controlled = draw(st.booleans())
    instances = draw(st.integers(1, 4))
    return {
        "controlled": controlled,
        "mix": draw(st.sampled_from(["mixed", "edge", "v2-dsc"])),
        "arrival": draw(st.sampled_from(["poisson", "bursty", "tied"])),
        "n": draw(st.integers(2, 300)),
        "rho": draw(st.sampled_from([0.4, 1.0, 2.5])),
        "instances": instances,
        "policy": draw(st.sampled_from(["round-robin", "least-loaded"])),
        "max_batch": draw(st.integers(1, 8)),
        "max_wait_s": draw(st.sampled_from([0.0, 1e-12, 2e-3])),
        "shedding": draw(
            st.sampled_from(["none", "deadline", "queue-depth"])
        ),
        "threshold": draw(st.integers(1, 12)),
        # DVFS rides the control plane only (it disqualifies the
        # hook-free kernels, so a serve-shaped draw would just compare
        # the general loop with itself).
        "scales": (
            draw(
                st.lists(
                    st.sampled_from([1.0, 1.25, 1.6]),
                    min_size=instances,
                    max_size=instances,
                )
            )
            if controlled
            else [1.0] * instances
        ),
        "seed": draw(st.integers(0, 2**16)),
        "cut": draw(st.floats(0.05, 0.95)),
    }


def _arena(case):
    """The drawn request stream, rebuilt identically on every call."""
    mix = build_mix(case["mix"])
    rate = case["rho"] * case["instances"] / mix.mean_service_seconds()
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    if case["arrival"] == "bursty":
        times = BurstyArrivals(rate, burst_factor=4.0).times(n, rng)
    else:
        times = PoissonArrivals(rate).times(n, rng)
        if case["arrival"] == "tied":
            # Every timestamp shared by a pair of arrivals.
            times = np.repeat(times[: (n + 1) // 2], 2)[:n]
    slo = DEFAULT_SLO_CLASSES if case["controlled"] else None
    return build_requests(mix, times, rng, slo)


def _engine(case, arena):
    fleet = Fleet(case["instances"])
    window_end = float(arena.arrival[-1])
    for inst, scale in zip(fleet, case["scales"]):
        inst.window_end = window_end
        inst.latency_scale = scale
        inst.busy_power_w = 0.1 * scale if case["controlled"] else 0.0
    policy = make_policy(case["policy"])
    policy.reset()
    hooks = None
    if case["controlled"]:
        hooks = ControlHooks(
            make_shedder(case["shedding"], case["threshold"])
        )
    return Engine(
        fleet,
        policy,
        max_batch=case["max_batch"],
        max_wait_s=case["max_wait_s"],
        hooks=hooks,
        priority_queues=case["controlled"],
    )


def _sliced(case):
    """A fresh engine over the drawn stream, advanced through its
    bounded first slice (the general loop)."""
    arena = _arena(case)
    engine = _engine(case, arena)
    engine.begin(arena)
    engine.run_until(case["cut"] * float(arena.arrival[-1]))
    return engine, arena


def _assert_same_outcome(a, a_arena, b, b_arena, tag):
    """Equal schedules and per-instance counters, bit for bit."""
    assert a.finished and b.finished
    for column in ("start", "finish", "shed"):
        assert np.array_equal(
            getattr(a_arena, column), getattr(b_arena, column)
        ), (column, tag)
    for x, y in zip(a.fleet, b.fleet):
        for name in _COUNTERS:
            assert getattr(x, name) == getattr(y, name), (
                name,
                x.index,
                tag,
            )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_fast_path_matches_general_loop(case):
    fast_arena = _arena(case)
    fast = _engine(case, fast_arena)
    fast.begin(fast_arena)
    fast.run_until(_INF)

    general, general_arena = _sliced(case)
    assert general.run_until(_INF).dispatch == "general"

    _assert_same_outcome(
        fast, fast_arena, general, general_arena, fast.last_run.dispatch
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_restore_at_cut_matches_sliced_drain(case):
    sliced, sliced_arena = _sliced(case)
    reference = sliced.run_until(_INF)

    victim, cut_arena = _sliced(case)
    snapshot, arena = pickle.loads(
        pickle.dumps((victim.snapshot(), cut_arena))
    )
    resumed = _engine(case, arena)
    resumed.restore(snapshot, arena)
    run = resumed.run_until(_INF)

    _assert_same_outcome(sliced, sliced_arena, resumed, arena, "restored")
    for name in ("events", "peak_heap", "dispatch", "fallback"):
        assert getattr(run, name) == getattr(reference, name), name


def test_draws_reach_every_kernel():
    """The strategy is not vacuous: each fast path serves some draw."""
    seen = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(scenarios())
    def probe(case):
        arena = _arena(case)
        engine = _engine(case, arena)
        engine.begin(arena)
        seen.add(engine.run_until(_INF).dispatch)

    probe()
    assert {"rr", "ll", "rr-ctl"} <= seen
