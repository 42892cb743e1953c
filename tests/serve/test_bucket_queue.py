"""Queue-order properties of the per-priority :class:`BucketQueue`.

The bucket queue replaced a sorted ``deque`` kept in ``(priority,
index)`` order by a tail-scan insertion.  That insertion is preserved
here verbatim as the oracle: random interleavings of enqueues (random
priorities, indices sometimes out of order), head-of-line launches,
priority-preemptive shedding and arbitrary removals must leave the
bucket queue and the oracle deque in the identical order, with the
identical batches launched, victims chosen and queued work tracked.

A second property cuts a priority-queued control run at a random
time, pickles its snapshot, restores it on a rebuilt execution, and
requires the continuation to match the uninterrupted run exactly.
"""

from __future__ import annotations

import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import checkpoint as cp
from repro.control.simulator import ControlScenario, simulate_controlled
from repro.control.slo import PriorityShedding
from repro.eval.control import report_to_dict
from repro.serve import build_mix
from repro.serve.fleet import BucketQueue, Instance, Request

_MIX = build_mix("mixed")
_PROFILES = {profile.name: profile for profile in _MIX.profiles}
_MODELS = sorted(_PROFILES)[:2]


def _tail_scan_enqueue(instance: Instance, request: Request) -> None:
    """The pre-bucket ``Instance.enqueue(priority_aware=True)``: scan
    from the tail for the last queued key <= the arrival's key."""
    queue = instance.queue
    if queue:
        key = (request.priority, request.index)
        pos = len(queue)
        for queued in reversed(queue):
            if (queued.priority, queued.index) <= key:
                break
            pos -= 1
        if pos == len(queue):
            queue.append(request)
        else:
            queue.insert(pos, request)
    else:
        queue.append(request)
    instance.queued_seconds += request.profile.per_image_seconds


def _pair(serial, priority, index, model):
    """Twin requests for the two sides; ``arrival`` carries a unique
    serial number so order comparisons never confuse equal keys."""
    return tuple(
        Request(
            index=index,
            model=model,
            profile=_PROFILES[model],
            arrival=float(serial),
            priority=priority,
        )
        for _ in range(2)
    )


def _order(queue):
    return [request.arrival for request in queue]


def _serial(request):
    return None if request is None else request.arrival


_arrival = st.tuples(
    st.just("enqueue"),
    st.integers(0, 3),  # priority
    st.booleans(),  # out-of-order index
    st.integers(0, 60),  # index when out of order
    st.sampled_from(_MODELS),
)
_op = st.one_of(
    _arrival,
    st.tuples(st.just("launch"), st.integers(1, 5)),
    st.tuples(
        st.just("shed"),
        st.integers(1, 6),  # queue threshold
        st.integers(0, 3),  # arrival priority
        st.sampled_from(_MODELS),
    ),
    st.tuples(st.just("remove"), st.integers(0, 1_000)),
)


class TestOrderAgainstTailScan:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op, max_size=80))
    def test_interleavings_match_the_oracle(self, ops):
        bucket = Instance(index=0, queue=BucketQueue())
        oracle = Instance(index=0)
        serial = next_index = 0
        now = 0.0
        for op in ops:
            kind = op[0]
            if kind == "enqueue":
                _, priority, shuffled, index, model = op
                if not shuffled:
                    index = next_index
                next_index = max(next_index, index) + 1
                serial += 1
                mine, theirs = _pair(serial, priority, index, model)
                bucket.enqueue(mine)
                _tail_scan_enqueue(oracle, theirs)
            elif kind == "launch":
                if not oracle.queue:
                    continue
                batch = bucket.next_batch(op[1]).requests
                assert _order(batch) == _order(
                    oracle.next_batch(op[1]).requests
                )
                now += 1.0
                assert bucket.launch_head(op[1], now) == (
                    oracle.launch_head(op[1], now)
                )
            elif kind == "shed":
                _, threshold, priority, model = op
                serial += 1
                mine, theirs = _pair(serial, priority, next_index, model)
                next_index += 1
                shedder = PriorityShedding(threshold)
                admitted, victim = shedder.admit(mine, bucket, now)
                expected = shedder.admit(theirs, oracle, now)
                assert (admitted, _serial(victim)) == (
                    expected[0],
                    _serial(expected[1]),
                )
                if admitted:
                    bucket.enqueue(mine)
                    _tail_scan_enqueue(oracle, theirs)
            else:  # remove an arbitrary queued request
                if not oracle.queue:
                    continue
                pos = op[1] % len(oracle.queue)
                victim = list(bucket.queue)[pos]
                assert _serial(victim) == _serial(oracle.queue[pos])
                bucket.remove(victim)
                oracle.remove(oracle.queue[pos])
            assert _order(bucket.queue) == _order(oracle.queue)
            assert len(bucket.queue) == len(oracle.queue)
            assert bucket.queued_seconds == oracle.queued_seconds
            if oracle.queue:
                assert _serial(bucket.queue[0]) == _serial(oracle.queue[0])
                assert _serial(bucket.queue[-1]) == _serial(
                    oracle.queue[-1]
                )

    def test_deque_protocol_edges(self):
        queue = BucketQueue()
        with pytest.raises(IndexError):
            queue.popleft()
        with pytest.raises(IndexError):
            queue[0]
        stray = _pair(0, 1, 0, _MODELS[0])[0]
        with pytest.raises(ValueError):
            queue.remove(stray)
        queue.extend(_pair(s, p, s, _MODELS[0])[0] for s, p in
                     [(1, 2), (2, 0), (3, 1), (4, 0)])
        assert _order(queue) == [2.0, 4.0, 3.0, 1.0]
        assert (_serial(queue[0]), _serial(queue[-1])) == (2.0, 1.0)
        with pytest.raises(IndexError):
            queue[1]
        queue.clear()
        assert not queue and list(queue) == []

    def test_engine_installs_the_queue_type_its_discipline_needs(self):
        from repro.serve import Engine, Fleet, make_policy

        fleet = Fleet(2)
        Engine(fleet, make_policy("round-robin"), 4, 0.0,
               priority_queues=True)
        assert all(
            isinstance(inst.queue, BucketQueue) for inst in fleet
        )
        Engine(fleet, make_policy("round-robin"), 4, 0.0)
        assert all(type(inst.queue) is deque for inst in fleet)


#: Overloaded, governed, least-loaded, priority-preemptive: queues hold
#: several priority classes at once, so bucket boundaries are live.
_GOVERNED = ControlScenario(
    requests=3_000,
    qps=9_000.0,
    instances=3,
    policy="least-loaded",
    shedding="priority",
    queue_threshold=24,
    autoscale="utilization",
    arrival="diurnal",
    diurnal_period_s=0.2,
    seed=5,
)


@pytest.fixture(scope="module")
def governed_reference():
    return report_to_dict(simulate_controlled(_GOVERNED))


class TestSnapshotRestore:
    @settings(max_examples=6, deadline=None)
    @given(st.floats(0.05, 0.95))
    def test_restored_continuation_is_identical(
        self, governed_reference, fraction
    ):
        execution, engine, finalize = cp._begin_control(_GOVERNED)
        engine.run_until(fraction * float(execution.times[-1]))
        at_cut = [
            [request.index for request in inst.queue]
            for inst in execution.fleet
        ]
        blob = pickle.dumps(
            {
                "snapshot": engine.snapshot(),
                "requests": execution.requests,
                "times": execution.times,
            }
        )
        loaded = pickle.loads(blob)
        rebuilt, _, _ = cp._begin("control", _GOVERNED, loaded, None)
        rebuilt.engine.restore(loaded["snapshot"], rebuilt.requests)
        assert [
            [request.index for request in inst.queue]
            for inst in rebuilt.fleet
        ] == at_cut
        assert all(
            isinstance(inst.queue, BucketQueue) for inst in rebuilt.fleet
        )
        engine.run_until(float("inf"))
        rebuilt.engine.run_until(float("inf"))
        for column in ("start", "finish", "shed"):
            assert np.array_equal(
                getattr(execution.requests, column),
                getattr(rebuilt.requests, column),
            )
        assert report_to_dict(finalize(rebuilt)) == governed_reference
        assert report_to_dict(finalize(execution)) == governed_reference

    def test_cut_sees_several_priority_classes_queued(self):
        execution, engine, _ = cp._begin_control(_GOVERNED)
        times = execution.times
        mixed = False
        for fraction in (0.2, 0.4, 0.6, 0.8):
            engine.run_until(fraction * float(times[-1]))
            mixed = mixed or any(
                len({request.priority for request in inst.queue}) > 1
                for inst in execution.fleet
            )
        assert mixed
