"""Multi-fleet golden: spillover receivers pinned bit-for-bit.

Each scenario's :class:`~repro.control.MultiFleetReport` is reduced to
its ``make_key`` digest (every comparing field, floats by ``repr``), so
any change to what a receiver fleet processes — merge order, spill-in
arrival floats, foreign SLO classes, per-class or end-to-end
accounting — moves the digest.  Serial and sharded (``jobs=2``) runs
must both reproduce it: the sharded receiver phase ships each merged
request stream to a worker process.

Regenerate (only when the multi-fleet *semantics* intentionally
change)::

    PYTHONPATH=src python tests/control/test_multi_fleet_golden.py --regenerate

Performance and simplicity refactors must pass against the golden
file unregenerated.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.control import (
    ControlScenario,
    MultiFleetScenario,
    SLOClass,
    simulate_multi_fleet,
)
from repro.parallel.cache import make_key

GOLDEN_PATH = (
    Path(__file__).parent.parent / "data" / "multi_fleet_golden.json"
)


def _donor(qps, requests, classes, mix="v1-224") -> ControlScenario:
    """A single-instance fleet at rho >> 1 with deadline shedding."""
    return ControlScenario(
        mix=mix,
        qps=qps,
        requests=requests,
        instances=1,
        max_batch=1,
        max_wait_ms=0.0,
        shedding="deadline",
        slo_classes=classes,
    )


def _receiver(qps, requests, mix="mixed", **kwargs) -> ControlScenario:
    return ControlScenario(
        mix=mix,
        qps=qps,
        requests=requests,
        instances=4,
        shedding="deadline",
        **kwargs,
    )


def scenarios() -> dict[str, MultiFleetScenario]:
    only = (SLOClass("only", deadline_ms=40.0, target=0.9),)
    pair = dict(
        fleets=(_donor(2_500.0, 1_200, only), _receiver(800.0, 1_200)),
        period_s=5.0,
        amplitude=0.6,
        spillover="deadline",
        seed=11,
    )
    return {
        # Fleet 0 at rho >> 1 spills its "only" class into a receiver
        # that defines just the default tiers.
        "overloaded-pair": MultiFleetScenario(**pair),
        # Two donors with distinct foreign classes (one with two
        # priority tiers) and two receivers: both donors spill
        # mobilenet-v1-224 into the single-model receiver with the most
        # headroom, the mixed donor's other models reach the receiver
        # with model-bound classes, and both phases shard under jobs=2.
        "foreign-classes": MultiFleetScenario(
            fleets=(
                _donor(
                    2_400.0,
                    600,
                    (SLOClass("gold", deadline_ms=45.0, target=0.9),),
                ),
                _receiver(
                    700.0,
                    600,
                    slo_classes=(
                        SLOClass(
                            "llm", deadline_ms=25.0, target=0.9,
                            model="mobilenet-v1-224",
                        ),
                        SLOClass(
                            "default", deadline_ms=50.0, target=0.9,
                            priority=1,
                        ),
                    ),
                ),
                _donor(
                    6_000.0,
                    600,
                    (
                        SLOClass(
                            "silver", deadline_ms=30.0, target=0.9,
                            share=0.5,
                        ),
                        SLOClass(
                            "bronze", deadline_ms=45.0, target=0.8,
                            priority=1, share=0.5,
                        ),
                    ),
                    mix="mixed",
                ),
                _receiver(250.0, 600, mix="v1-224"),
            ),
            period_s=2.0,
            amplitude=0.5,
            spillover="deadline",
            spillover_hop_ms=1.5,
            seed=4,
        ),
        # A hop close to the donor's deadline, at the lowest priority,
        # into a busy receiver without admission control: spill-ins
        # queue behind its home traffic and fill the end-to-end latency
        # tail, so p99 reads their donor-arrival-based latencies.
        "long-hop-pair": MultiFleetScenario(
            fleets=(
                _donor(
                    2_500.0,
                    1_200,
                    (
                        SLOClass(
                            "only", deadline_ms=40.0, target=0.9,
                            priority=3,
                        ),
                    ),
                ),
                replace(_receiver(7_000.0, 1_200), shedding="none"),
            ),
            period_s=5.0,
            amplitude=0.6,
            spillover="deadline",
            spillover_hop_ms=38.0,
            seed=11,
        ),
        # The sampled MMPP-2 latent path instead of the sinusoid, into
        # a busier receiver whose own admission control sheds some of
        # the spill-ins.
        "burst-pair": MultiFleetScenario(
            **{
                **pair,
                "fleets": (pair["fleets"][0], _receiver(6_000.0, 1_200)),
                "modulator": "burst",
                "burst_factor": 3.0,
                "burst_share": 0.3,
                "mean_dwell_s": 0.05,
                "seed": 23,
            }
        ),
    }


def _digest(report) -> str:
    return make_key("multi_fleet_report", report=report)


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _golden()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", list(scenarios()))
def test_report_digest_unchanged(name, jobs, golden):
    report = simulate_multi_fleet(scenarios()[name], jobs=jobs)
    assert report.spilled_requests == golden[name]["spilled_requests"]
    assert report.spilled_requests > 0
    assert report.conserved
    assert _digest(report) == golden[name]["digest"]


def _regenerate() -> None:
    payload = {}
    for name, scenario in scenarios().items():
        report = simulate_multi_fleet(scenario)
        payload[name] = {
            "digest": _digest(report),
            "spilled_requests": report.spilled_requests,
        }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload)} scenarios)")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("run with --regenerate to rewrite the golden file")
    _regenerate()
