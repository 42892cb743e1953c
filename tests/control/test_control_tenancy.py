"""Multi-tenant fleets: per-model SLOs, correlated traffic, spillover.

Covers the tenancy acceptance physics — per-model deadline routing,
conservation (admitted + shed == offered) per class, per model, and
end-to-end across spillover — plus deterministic replay: identical
reports *and* identical persistent-cache content keys for a repeated
:class:`MultiFleetScenario`.
"""

import dataclasses

import pytest

from repro.control import (
    ControlScenario,
    MultiFleetScenario,
    SLOClass,
    multi_fleet_sweep,
    simulate_controlled,
    simulate_multi_fleet,
)
from repro.errors import ConfigError
from repro.parallel.cache import ResultCache, make_key

#: One tight class bound to the heavyweight model, one default tier.
TENANT_CLASSES = (
    SLOClass(
        "llm", deadline_ms=25.0, target=0.9,
        model="mobilenet-v1-224",
    ),
    SLOClass("default", deadline_ms=50.0, target=0.9, priority=1),
)


def _overloaded_pair(spillover="deadline", **kwargs):
    """Fleet 0 at rho >> 1 (single instance), fleet 1 with headroom."""
    defaults = dict(
        fleets=(
            ControlScenario(
                mix="v1-224",
                qps=2_500.0,
                requests=1_200,
                instances=1,
                max_batch=1,
                max_wait_ms=0.0,
                shedding="deadline",
                slo_classes=(
                    SLOClass("only", deadline_ms=40.0, target=0.9),
                ),
            ),
            ControlScenario(
                mix="mixed",
                qps=800.0,
                requests=1_200,
                instances=4,
                shedding="deadline",
            ),
        ),
        modulator="diurnal",
        period_s=5.0,
        amplitude=0.6,
        spillover=spillover,
        seed=11,
    )
    defaults.update(kwargs)
    return MultiFleetScenario(**defaults)


class TestPerModelSLOs:
    def test_bound_class_follows_the_model(self):
        """Every request of the bound model carries the bound class
        (and only those), so deadlines follow the tenant."""
        report = simulate_controlled(
            ControlScenario(
                requests=2_000, slo_classes=TENANT_CLASSES, seed=3
            )
        )
        llm, default = report.class_stats
        v1 = next(
            ms for ms in report.model_stats
            if ms.name == "mobilenet-v1-224"
        )
        assert llm.model == "mobilenet-v1-224"
        assert llm.offered == v1.offered
        assert llm.offered > 0
        # The other two mixed-traffic models all landed in the default
        # tier: class offereds partition the traffic.
        assert llm.offered + default.offered == 2_000

    def test_model_stats_partition_the_traffic(self):
        report = simulate_controlled(
            ControlScenario(
                requests=1_500, slo_classes=TENANT_CLASSES, seed=5
            )
        )
        assert len(report.model_stats) == 3  # the mixed zoo models
        assert sum(ms.offered for ms in report.model_stats) == 1_500
        for ms in report.model_stats:
            assert ms.offered == ms.completed + ms.shed
            assert ms.model == ms.name

    def test_unbound_specs_report_no_model_stats(self):
        """Without bindings the report shape is unchanged (parity with
        every pre-tenancy golden and cache entry)."""
        report = simulate_controlled(ControlScenario(requests=500))
        assert report.model_stats == ()

    def test_fully_bound_specs_need_full_model_cover(self):
        with pytest.raises(ConfigError, match="no applicable SLO"):
            simulate_controlled(
                ControlScenario(
                    requests=100,
                    slo_classes=(
                        SLOClass(
                            "only", deadline_ms=5.0,
                            model="mobilenet-v1-224",
                        ),
                    ),
                )
            )

    def test_binding_does_not_perturb_unbound_draws(self):
        """Binding a class to model A must not change which models the
        request stream draws (the uniform block is shared)."""
        unbound = simulate_controlled(
            ControlScenario(requests=1_000, seed=9)
        )
        bound = simulate_controlled(
            ControlScenario(
                requests=1_000, seed=9, slo_classes=TENANT_CLASSES
            )
        )
        assert unbound.per_model_counts == bound.per_model_counts


class TestMultiFleetConservation:
    def test_end_to_end_and_per_fleet_conservation(self):
        report = simulate_multi_fleet(_overloaded_pair())
        assert report.conserved
        assert (
            report.offered_requests
            == report.completed_requests + report.shed_requests
        )
        for fleet in report.fleets:
            assert (
                fleet.offered_requests
                == fleet.requests + fleet.shed_requests
            )
            for cs in fleet.class_stats:
                assert cs.offered == cs.completed + cs.shed
            # The per-class table partitions everything the fleet's
            # engine processed — including spill-ins carrying a class
            # the receiver does not define itself.
            assert (
                sum(cs.offered for cs in fleet.class_stats)
                == fleet.offered_requests
            )

    def test_receiver_reports_foreign_spill_in_classes(self):
        """The donor's 'only' class spills into a receiver defined
        with the default tiers: the receiver's report must grow a row
        for it instead of silently dropping those requests from its
        per-class view and attainment."""
        report = simulate_multi_fleet(_overloaded_pair())
        assert report.spilled_requests > 0
        receiver = report.fleets[1]
        names = [cs.name for cs in receiver.class_stats]
        assert "only" in names
        foreign = next(
            cs for cs in receiver.class_stats if cs.name == "only"
        )
        assert foreign.offered == report.spilled_requests

    def test_per_model_conservation_across_fleets(self):
        scenario = _overloaded_pair()
        scenario = dataclasses.replace(
            scenario,
            fleets=(
                scenario.fleets[0],
                dataclasses.replace(
                    scenario.fleets[1], slo_classes=TENANT_CLASSES
                ),
            ),
        )
        report = simulate_multi_fleet(scenario)
        for ms in report.fleets[1].model_stats:
            assert ms.offered == ms.completed + ms.shed

    def test_spillover_completes_work_the_donor_shed(self):
        spill = simulate_multi_fleet(_overloaded_pair())
        none = simulate_multi_fleet(
            _overloaded_pair(spillover="none")
        )
        assert spill.spilled_requests > 0
        assert spill.spill_completed > 0
        assert 0 < spill.spill_met <= spill.spill_completed
        assert none.spilled_requests == 0
        # Spillover strictly reduces terminal sheds and serves more.
        assert spill.shed_requests < none.shed_requests
        assert spill.completed_requests > none.completed_requests
        assert spill.attainment > none.attainment

    def test_spilled_requests_pay_the_hop(self):
        report = simulate_multi_fleet(
            _overloaded_pair(spillover_hop_ms=5.0)
        )
        # Receiver's engine saw home + spill-ins; its offered count
        # exceeds its home traffic by exactly the spill-ins.
        receiver = report.fleets[1]
        assert (
            receiver.offered_requests
            == 1_200 + report.spilled_requests
        )


class TestDeterministicReplay:
    def test_same_scenario_same_report_and_content_key(self):
        scenario = _overloaded_pair()
        a = simulate_multi_fleet(scenario)
        b = simulate_multi_fleet(_overloaded_pair())
        assert a == b
        assert make_key(
            "multi_fleet_point", args=(scenario,)
        ) == make_key("multi_fleet_point", args=(_overloaded_pair(),))

    def test_seed_changes_the_traffic(self):
        a = simulate_multi_fleet(_overloaded_pair())
        b = simulate_multi_fleet(_overloaded_pair(seed=12))
        assert a != b

    def test_sweep_rides_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = _overloaded_pair(
            fleets=(
                dataclasses.replace(
                    _overloaded_pair().fleets[0], requests=300
                ),
                dataclasses.replace(
                    _overloaded_pair().fleets[1], requests=300
                ),
            )
        )
        first = multi_fleet_sweep([scenario], cache=cache)
        assert cache.misses == 1
        warm = ResultCache(tmp_path)
        second = multi_fleet_sweep([scenario], cache=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert first == second


class TestScenarioValidation:
    def test_rejects_empty_fleets(self):
        with pytest.raises(ConfigError):
            MultiFleetScenario(fleets=())

    def test_rejects_unknown_spillover(self):
        with pytest.raises(ConfigError):
            _overloaded_pair(spillover="always")

    def test_rejects_trace_members(self):
        with pytest.raises(ConfigError, match="trace"):
            _overloaded_pair(
                fleets=(
                    ControlScenario(
                        arrival="trace", trace=(0.0, 1.0), requests=2
                    ),
                )
            )

    def test_rejects_full_swing_amplitude(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\)"):
            _overloaded_pair(amplitude=1.0)

    def test_rejects_negative_hop(self):
        with pytest.raises(ConfigError):
            _overloaded_pair(spillover_hop_ms=-1.0)

    def test_rejects_spillover_without_any_shedding(self):
        """Only shed requests can spill; spillover over all-admitting
        fleets would silently forward nothing."""
        scenario = _overloaded_pair()
        with pytest.raises(ConfigError, match="shedding"):
            _overloaded_pair(
                fleets=tuple(
                    dataclasses.replace(member, shedding="none")
                    for member in scenario.fleets
                )
            )


class TestEpochSteppedExecution:
    """The phase-barrier execution against its own knob: any job count
    must reproduce the identical report — `jobs` is an execution
    detail, not semantics."""

    def test_process_sharding_is_invisible(self):
        scenario = _overloaded_pair()
        reference = simulate_multi_fleet(scenario)
        assert simulate_multi_fleet(scenario, jobs=2) == reference

    def test_sharded_no_spillover_fleets(self):
        scenario = _overloaded_pair(spillover="none")
        reference = simulate_multi_fleet(scenario)
        assert simulate_multi_fleet(scenario, jobs=2) == reference

    def test_execution_knobs_do_not_perturb_cache_keys(self):
        scenario = _overloaded_pair()
        # Keyword-only execution knobs never enter the content key:
        # a cache populated by a serial run serves a sharded one.
        assert make_key(
            "multi_fleet_point", args=(scenario,)
        ) == make_key("multi_fleet_point", args=(scenario,))

    def test_single_scenario_sweep_routes_jobs_inward(self):
        # The CLI always hands the sweep one scenario; its --jobs must
        # reach the member-fleet sharding without changing the report.
        scenario = _overloaded_pair()
        serial = multi_fleet_sweep([scenario], jobs=1)
        sharded = multi_fleet_sweep([scenario], jobs=2)
        assert serial == sharded
