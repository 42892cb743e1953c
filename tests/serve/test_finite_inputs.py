"""Non-finite floats are rejected at the boundary.

Range checks such as ``qps <= 0`` let NaN through, and a NaN rate or
fill window never advances the event clock: ``repro serve --qps nan``
used to hang with no output, ``ServingScenario(qps=inf)`` and
``ServingScenario(max_wait_ms=nan)`` were accepted silently.  Each hole
now raises :class:`~repro.errors.ConfigError` in the scenario's
``__post_init__`` and exits 2 with a flag-named error at the CLI.
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
