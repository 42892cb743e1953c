"""Non-finite floats are rejected at the boundary.

Range checks such as ``qps <= 0`` let NaN through, and a NaN rate or
fill window never advances the event clock: ``repro serve --qps nan``
used to hang with no output, ``ServingScenario(qps=inf)`` and
``ServingScenario(max_wait_ms=nan)`` were accepted silently.  Each hole
now raises :class:`~repro.errors.ConfigError` in the scenario's
``__post_init__`` and exits 2 with a flag-named error at the CLI.
``MultiFleetScenario`` had the same holes in its modulator and hop
knobs (``period_s=nan`` hung, a NaN hop forwarded nothing, NaN/inf
burst knobs crashed with ``IndexError``).  The last holes were the
nested specs and traces: NaN ``InstanceSpec`` operating points and NaN
trace timestamps hung, an ``inf`` trace warned its way into a report,
and NaN DVFS rungs and SLO deadlines completed nothing.  Below the
scenarios, a NaN ``Engine.run_until`` horizon drained the whole run and
left a NaN clock for a checkpoint to persist.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.control import ControlScenario
from repro.errors import ConfigError
from repro.parallel.cache import make_key
from repro.serve import ServingScenario

_SRC = str(Path(__file__).resolve().parents[2] / "src")
_NAN = float("nan")
_INF = float("inf")

#: (field, value) holes shared by both planes' scenarios.
_SHARED_HOLES = [
    ("qps", _NAN),
    ("qps", _INF),
    ("max_wait_ms", _NAN),
    ("max_wait_ms", _INF),
    ("diurnal_period_s", _NAN),
    ("diurnal_period_s", _INF),
    ("diurnal_amplitude", _NAN),
    ("diurnal_amplitude", -_INF),
    ("burst_factor", _NAN),
]

_CONTROL_HOLES = [
    ("tick_ms", _NAN),
    ("util_high", _NAN),
    ("target_delay_ms", _INF),
    ("forecast_alpha", _NAN),
]


@pytest.mark.parametrize("scenario_cls", [ServingScenario, ControlScenario])
@pytest.mark.parametrize("field, value", _SHARED_HOLES)
def test_scenario_rejects_non_finite(scenario_cls, field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        scenario_cls(**{field: value})


@pytest.mark.parametrize("field, value", _CONTROL_HOLES)
def test_control_scenario_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ControlScenario(**{field: value})


def test_unset_qps_and_cache_keys_unchanged():
    """``qps=None`` still means "70% of capacity", and the check adds
    no field, so default scenarios keep their content keys."""
    serving = ServingScenario()
    control = ControlScenario()
    assert serving.qps is None and control.qps is None
    assert make_key("serving_point", args=(serving,)) == make_key(
        "serving_point", args=(ServingScenario(qps=None),)
    )


def _cli(*argv):
    """Run the CLI in a fresh interpreter under a hard timeout, so a
    regression to the old hang fails instead of stalling the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("serve", "--qps", "nan", "--requests", "100"), "--qps"),
        (("serve", "--qps", "inf", "--requests", "100"), "--qps"),
        (("serve", "--max-wait-ms", "nan", "--requests", "100"),
         "--max-wait-ms"),
        (("serve", "--arrival", "diurnal", "--diurnal-period", "nan",
          "--requests", "100"), "--diurnal-period"),
        (("control", "--arrival", "diurnal", "--diurnal-amplitude",
          "nan", "--requests", "100"), "--diurnal-amplitude"),
        (("control", "--qps=-inf", "--requests", "100"), "--qps"),
    ],
)
def test_cli_flag_rejects_non_finite(argv, flag):
    proc = _cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert f"argument {flag}: must be a finite number" in proc.stderr


def test_cli_grid_value_rejected_by_scenario():
    """Grid flags parse their own lists; the scenario check catches a
    NaN point with a clean ``error:`` line and exit 1."""
    proc = _cli("serve", "--curve-qps", "100,nan", "--requests", "100")
    assert proc.returncode == 1, proc.stderr
    assert "qps must be finite" in proc.stderr


def _multi_fleet(**kwargs):
    """A small overloaded pair: fleet 0 at rho >> 1 spills into fleet 1."""
    from repro.control import MultiFleetScenario, SLOClass

    defaults = dict(
        fleets=(
            ControlScenario(
                mix="v1-224",
                qps=2_500.0,
                requests=300,
                instances=1,
                max_batch=1,
                max_wait_ms=0.0,
                shedding="deadline",
                slo_classes=(
                    SLOClass("only", deadline_ms=40.0, target=0.9),
                ),
            ),
            ControlScenario(
                mix="mixed", qps=800.0, requests=300, instances=4,
                shedding="deadline",
            ),
        ),
        period_s=5.0,
        amplitude=0.6,
        spillover="deadline",
        seed=11,
    )
    defaults.update(kwargs)
    return MultiFleetScenario(**defaults)


@pytest.mark.parametrize(
    "field, value, extra",
    [
        ("period_s", _INF, {}),
        ("amplitude", _NAN, {}),
        # NaN hop compared false against every deadline: the
        # scenario was accepted and silently forwarded nothing.
        ("spillover_hop_ms", _NAN, {}),
        ("spillover_hop_ms", _INF, {}),
        # Both used to crash the burst path build with IndexError.
        ("mean_dwell_s", _NAN, {"modulator": "burst"}),
        ("burst_factor", _INF, {"modulator": "burst"}),
        ("burst_share", _NAN, {"modulator": "burst"}),
    ],
)
def test_multi_fleet_scenario_rejects_non_finite(field, value, extra):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        _multi_fleet(**{field: value, **extra})


def test_multi_fleet_nan_period_rejected_not_hung():
    """``period_s=nan`` used to hang the run (a NaN epoch never
    advances); a fresh interpreter under a timeout turns a regression
    into a failure instead of a stalled suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys\n"
        "from repro.control import (\n"
        "    ControlScenario, MultiFleetScenario, simulate_multi_fleet,\n"
        ")\n"
        "from repro.errors import ConfigError\n"
        "try:\n"
        "    simulate_multi_fleet(MultiFleetScenario(\n"
        "        fleets=(ControlScenario(requests=50, qps=100.0),),\n"
        "        period_s=float('nan'),\n"
        "    ))\n"
        "except ConfigError as exc:\n"
        "    sys.exit(f'rejected: {exc}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert "rejected: period_s must be finite" in proc.stderr, proc.stderr


def test_multi_fleet_cache_key_unchanged_by_check():
    """The check adds no scenario field, so content keys stay put."""
    scenario = _multi_fleet()
    assert make_key("multi_fleet_point", args=(scenario,)) == make_key(
        "multi_fleet_point", args=(_multi_fleet(),)
    )


def _run_guarded(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter under a hard timeout: a hole
    that used to hang fails the test instead of stalling the suite.
    ``body`` exits with ``rejected: <message>`` on a ConfigError."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys\n"
        "from repro.errors import ConfigError\n"
        "nan = float('nan')\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + "except ConfigError as exc:\n"
        "    sys.exit(f'rejected: {exc}')\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("field", ["voltage_v", "frequency_hz"])
def test_instance_spec_nan_rejected_not_hung(field):
    proc = _run_guarded(
        "from repro.control import ControlScenario, InstanceSpec\n"
        "from repro.control import simulate_controlled\n"
        "simulate_controlled(ControlScenario(\n"
        f"    requests=50, fleet=(InstanceSpec({field}=nan),),\n"
        "))"
    )
    assert f"rejected: {field} must be finite" in proc.stderr, proc.stderr


def test_trace_nan_rejected_not_hung():
    proc = _run_guarded(
        "from repro.serve import ServingScenario, simulate\n"
        "simulate(ServingScenario(\n"
        "    arrival='trace', trace=(0.0, nan, 0.2), requests=3,\n"
        "))"
    )
    assert "rejected: trace timestamps must be finite" in proc.stderr, (
        proc.stderr
    )


def test_trace_inf_rejected():
    from repro.serve import simulate

    scenario = ServingScenario(
        arrival="trace", trace=(0.0, 0.1, _INF), requests=3
    )
    with pytest.raises(ConfigError, match="trace timestamps must be finite"):
        simulate(scenario)


def test_dvfs_ladder_nan_rejected():
    with pytest.raises(ConfigError, match="dvfs_ladder"):
        ControlScenario(autoscale="dvfs", dvfs_ladder=(0.6, _NAN))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"deadline_ms": _NAN}, "deadline_ms"),
        ({"deadline_ms": 5.0, "share": _NAN}, "share"),
        ({"deadline_ms": 5.0, "share": _INF}, "share"),
    ],
)
def test_slo_class_rejects_non_finite(kwargs, field):
    from repro.control import SLOClass

    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        SLOClass("a", **kwargs)


@pytest.mark.parametrize(
    "parse, text",
    [
        ("parse_slo_classes", "a:deadline=nan"),
        ("parse_fleet_spec", "nanx2"),
    ],
)
def test_cli_spec_parsers_reject_non_finite(parse, text):
    import repro.control as control

    with pytest.raises(ConfigError, match="must be finite"):
        getattr(control, parse)(text)


def test_run_until_rejects_nan_horizon():
    """NaN passes every horizon check, so ``run_until(nan)`` used to
    drain the run and leave ``state.clock = nan`` behind."""
    import numpy as np

    from repro.serve import Engine, Fleet, make_policy
    from repro.serve.engine import build_requests
    from repro.serve.profile import build_mix

    arena = build_requests(
        build_mix("mixed"), np.arange(20) * 1e-3, np.random.default_rng(0)
    )
    engine = Engine(
        Fleet(2), make_policy("least-loaded"), max_batch=4,
        max_wait_s=1e-3,
    )
    engine.begin(arena)
    with pytest.raises(ConfigError, match="horizon must not be NaN"):
        engine.run_until(_NAN)
    assert engine.state.cursor == 0 and engine.state.clock == 0.0
    engine.run_until(_INF)
    assert engine.finished


# A finite, positive cadence can still hang a run: governor ticks and
# metrics windows cost one step each, so run time scaled with horizon /
# interval instead of with requests.  Both commands below were still
# running when ``timeout 15`` killed them; the estimate now rejects them
# before the engine starts.
@pytest.mark.parametrize(
    "argv, knob",
    [
        (("control", "--requests", "200", "--autoscale", "utilization",
          "--tick-ms", "1e-9"), "tick_ms"),
        (("serve", "--requests", "200", "--metrics-every", "1e-12"),
         "metrics_every_s"),
    ],
)
def test_tick_cadence_bounded_not_hung(argv, knob):
    proc = _cli(*argv)
    assert proc.returncode == 1, proc.stderr
    assert f"error: {knob} is too fine for this run" in proc.stderr


def test_tick_budget_counts_ticks_per_request_over_the_horizon():
    """The bound is ``MAX_TICKS_PER_REQUEST`` ticks per request over the
    arrival horizon (here a 1 s trace of 2 requests: 2000 ticks)."""
    from repro.obs import Observability
    from repro.serve import simulate
    from repro.serve.simulator import MAX_TICKS_PER_REQUEST

    scenario = ServingScenario(
        arrival="trace", trace=(0.0, 1.0), requests=2, instances=1
    )
    limit_s = 1.0 / (2 * MAX_TICKS_PER_REQUEST)
    report = simulate(scenario, obs=Observability(metrics_every_s=limit_s))
    assert report.requests == 2
    with pytest.raises(ConfigError, match="metrics_every_s is too fine"):
        simulate(scenario, obs=Observability(metrics_every_s=0.8 * limit_s))
