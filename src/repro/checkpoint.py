"""Checkpoint/restore for long-running simulations.

A checkpoint is one atomic pickle holding everything a fresh process
needs to continue a run and produce a report *byte-identical* to the
uninterrupted one:

* the frozen scenario (so the fleet, policy, governor, and shedder are
  rebuilt deterministically — they carry configuration, not identity);
* the request stream and arrival times as materialized *and mutated so
  far* (start/finish/shed columns change mid-run and cannot be
  regenerated);
* the engine :meth:`~repro.serve.engine.Engine.snapshot` — event heap,
  arena cursor, per-instance queues and in-flight batches, policy and
  hook ``state_dict`` s, and the exact ``np.random.Generator``
  bit-generator states captured after stream construction;
* the checkpoint cadence, so a resumed run keeps saving on schedule.

Checkpointed runs share the simulators' one lifecycle — build the
stream, build the execution (which calls ``engine.begin``), advance it
with :meth:`~repro.serve.engine.Engine.run_until`, finalize — and
differ only in the stream (a resume wraps the checkpointed arena
instead of generating one) and in the slicing: a checkpoint cadence
steps the general loop in bounded slices, which is bit-for-bit the
one-shot run, while a run without one drains in a single
``run_until(inf)`` that may dispatch a columnar fast path.  Both the
uninterrupted and the resumed path converge on the same ``finalize_*``
report builders.
Serve scenarios with ``stats="sketch"`` are the one caveat: plain
:func:`repro.serve.simulate` may take the chunk-interleaved streaming
mode whose RNG consumption differs by design, so the equality
reference for a sketch-mode resume is the uninterrupted *checkpointed*
run, not ``simulate``.

The payload is versioned (:data:`CHECKPOINT_SCHEMA` plus the ``repro``
release): loads from a different schema or release raise a clear
:class:`~repro.errors.ReproError` instead of surfacing a pickle
traceback or, worse, silently resuming with drifted semantics.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

from . import __version__
from .control.simulator import (
    ControlScenario,
    build_control_fleet,
    finalize_controlled,
    prepare_controlled,
)
from .errors import ConfigError, ReproError
from .serve.simulator import (
    RequestStream,
    ServingScenario,
    build_serving_fleet,
    build_stream,
    finalize_serving,
    offered_qps,
    prepare_serving,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "run_serve_checkpointed",
    "run_control_checkpointed",
    "resume_checkpointed",
]

#: Bump when the payload layout or the state-dict contracts change
#: incompatibly; loads from another schema are rejected outright.
CHECKPOINT_SCHEMA = 1

_INF = float("inf")


def save_checkpoint(path, payload: dict) -> None:
    """Atomically write ``payload`` to ``path``.

    Same idiom as the result cache: pickle into a temporary file in the
    target directory, then ``os.replace`` — a reader (or a resume after
    SIGKILL) sees either the previous complete checkpoint or the new
    one, never a torn file.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".ckpt"
        )
    except OSError as exc:
        raise ReproError(
            f"checkpoint path {path} is not writable: {exc}"
        ) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(
                payload, handle, protocol=pickle.HIGHEST_PROTOCOL
            )
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint payload.

    Raises:
        ReproError: If the file is missing, unreadable, not a repro
            checkpoint, or was written by a different checkpoint
            schema or package release.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise ReproError(f"checkpoint {path} does not exist") from None
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
        raise ReproError(
            f"checkpoint {path} is not readable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ReproError(
            f"{path} is not a repro checkpoint "
            "(no schema tag in payload)"
        )
    if payload["schema"] != CHECKPOINT_SCHEMA:
        raise ReproError(
            f"checkpoint {path} uses schema "
            f"{payload['schema']!r}, this build expects "
            f"{CHECKPOINT_SCHEMA!r}; re-run without --resume"
        )
    if payload.get("version") != __version__:
        raise ReproError(
            f"checkpoint {path} was written by repro "
            f"{payload.get('version')!r}, this is {__version__!r}; "
            "resuming across releases is not bit-stable, re-run "
            "without --resume"
        )
    return payload


# ----------------------------------------------------------------------
# Execution builders (fresh and resumed)
# ----------------------------------------------------------------------

#: Per plane: ``(build fleet, build execution, finalize)``.
_PLANES = {
    "serve": (build_serving_fleet, prepare_serving, finalize_serving),
    "control": (
        build_control_fleet, prepare_controlled, finalize_controlled,
    ),
}


def _begin(kind, scenario, loaded, obs):
    """Build and arm one checkpointable execution.

    The same lifecycle as the one-shot simulators: fleet, stream,
    execution (which calls ``engine.begin``).  ``loaded`` is ``None``
    for a fresh run, whose stream is generated; on resume it is the
    checkpoint payload, whose materialized (and possibly mid-run
    mutated) stream must never be regenerated.

    Returns ``(execution, engine, finalize)``.
    """
    build_fleet, prepare, finalize = _PLANES[kind]
    fleet, mix, capacity = build_fleet(scenario)
    if loaded is None:
        stream = build_stream(scenario, mix, capacity)
    else:
        stream = RequestStream(
            offered_qps(scenario, capacity),
            loaded["times"],
            loaded["requests"],
            None,
        )
    execution = prepare(scenario, fleet, mix, capacity, stream, obs=obs)
    return execution, execution.engine, finalize


def _begin_serve(scenario: ServingScenario, obs=None):
    """Build and arm a fresh checkpointable serve execution."""
    return _begin("serve", scenario, None, obs)


def _begin_control(scenario: ControlScenario, obs=None):
    """Build and arm a fresh checkpointable control execution."""
    return _begin("control", scenario, None, obs)


# ----------------------------------------------------------------------
# Checkpointed drivers
# ----------------------------------------------------------------------


def _payload(kind, scenario, execution, every_s, next_t, obs=None) -> dict:
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "kind": kind,
        "scenario": scenario,
        "every_s": every_s,
        "next_checkpoint_s": next_t,
        "snapshot": execution.engine.snapshot(),
        "requests": execution.requests,
        "times": execution.times,
    }
    # Telemetry configuration rides along (the recorded state itself
    # is inside the snapshot's hook state) so a resume can verify it
    # re-ran with matching flags.  Written only when active, keeping
    # pre-telemetry payload layouts byte-compatible.
    if obs is not None and obs.active:
        payload["obs"] = obs.spec()
    return payload


def _drive(
    kind, scenario, execution, engine, every_s, path, next_t, obs=None
):
    """Step the engine in checkpoint-cadence slices to drain.

    The slicing is bit-for-bit the one-shot ``run_until(inf)``; with
    no checkpoint path configured it degenerates to exactly that.
    """
    if every_s is None or path is None:
        engine.run_until(_INF)
        return
    while not engine.finished:
        engine.run_until(next_t)
        next_t += every_s
        if not engine.finished:
            save_checkpoint(
                path,
                _payload(
                    kind, scenario, execution, every_s, next_t, obs
                ),
            )


def _validate_cadence(every_s) -> None:
    if every_s is not None and every_s <= 0:
        raise ReproError(
            f"--checkpoint-every must be positive ({every_s})"
        )


def _run_checkpointed(kind, scenario, checkpoint_path, every_s, obs):
    _validate_cadence(every_s)
    execution, engine, finalize = _begin(kind, scenario, None, obs)
    _drive(
        kind, scenario, execution, engine, every_s,
        checkpoint_path, every_s if every_s is not None else _INF,
        obs,
    )
    return finalize(execution)


def run_serve_checkpointed(
    scenario: ServingScenario,
    checkpoint_path=None,
    every_s: float | None = None,
    *,
    obs=None,
):
    """One serve-plane run with periodic checkpoints.

    Steps the general loop in ``every_s``-simulated-second slices,
    saving an atomic checkpoint after each; without a cadence it is
    one ``run_until(inf)``, which may dispatch a columnar fast path.
    The report is identical to :func:`repro.serve.simulate` for
    ``stats="exact"`` scenarios (the general loop and the columnar
    fast paths agree bit-for-bit).
    """
    return _run_checkpointed(
        "serve", scenario, checkpoint_path, every_s, obs
    )


def run_control_checkpointed(
    scenario: ControlScenario,
    checkpoint_path=None,
    every_s: float | None = None,
    *,
    obs=None,
):
    """One control-plane run with periodic checkpoints (identical
    report to :func:`repro.control.simulate_controlled`)."""
    return _run_checkpointed(
        "control", scenario, checkpoint_path, every_s, obs
    )


def resume_checkpointed(path, checkpoint_path=None, *, obs=None):
    """Continue a checkpointed run in a fresh process.

    Rebuilds the scenario's fleet/policy/hooks deterministically,
    overlays the snapshot (queues rebound by stream position, RNG
    states reattached, governor/forecaster state restored), and drains
    on the same cadence — producing a report byte-identical to the
    uninterrupted run.  Keeps checkpointing to ``checkpoint_path``
    (default: ``path`` itself).

    If the checkpoint was taken with telemetry active, ``obs`` must be
    an :class:`~repro.obs.Observability` configured with the same
    flags (and vice versa) — the recorded spans live inside the hook
    state and need an identically shaped observer to land on, so a
    mismatch raises :class:`~repro.errors.ReproError` up front rather
    than producing a silently truncated trace.

    Returns:
        ``(kind, scenario, report)`` with ``kind`` one of ``"serve"``
        / ``"control"``.
    """
    from .obs import Observability

    payload = load_checkpoint(path)
    Observability.check_resume(
        payload.get("obs"),
        obs if obs is not None and obs.active else None,
    )
    kind = payload["kind"]
    scenario = payload["scenario"]
    if kind not in _PLANES:
        raise ReproError(
            f"checkpoint {path} has unknown kind {kind!r}"
        )
    execution, engine, finalize = _begin(kind, scenario, payload, obs)
    try:
        engine.restore(payload["snapshot"], execution.requests)
    except (KeyError, TypeError, ConfigError) as exc:
        raise ReproError(
            f"checkpoint {path} does not match this build's state "
            f"layout: {exc}"
        ) from exc
    _drive(
        kind, scenario, execution, engine,
        payload["every_s"],
        checkpoint_path if checkpoint_path is not None else path,
        payload["next_checkpoint_s"],
        obs,
    )
    return kind, scenario, finalize(execution)
