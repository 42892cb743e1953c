"""Per-layer spans timed from outside the library.

:class:`SpanRecorder` wraps public functions of ``repro`` at their
module and class attributes, so the library itself carries no timing
code.  A module-level function is replaced under every ``repro.*``
module attribute that holds it (``from .engine import build_requests``
copies the reference into the importing module, so patching the
defining module alone would miss those callers).  A method is replaced
on its class.

Each call records one :class:`Span`: name, start, end, parent span and
the benchmark operation it ran under.  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them out.  A target that does not
resolve (for example a function a later change removed) is recorded in
:attr:`SpanRecorder.missing` with the reason and never raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import types
from dataclasses import asdict, dataclass
from time import perf_counter

#: Layer -> the public functions whose calls are that layer's spans.
#: A span's name is ``"<layer>:<qualname>"``.
LAYERS: dict[str, tuple[str, ...]] = {
    "profile": (
        "repro.serve.profile:build_mix",
        "repro.serve.profile:service_profile",
    ),
    "arrival": (
        "repro.serve.arrival:make_arrivals",
        "repro.serve.arrival:PoissonArrivals.times",
        "repro.serve.arrival:DiurnalArrivals.times",
        "repro.serve.arrival:SharedModulator.build_path",
        "repro.serve.arrival:SharedModulator.fleet_times",
    ),
    "arena": ("repro.serve.engine:build_requests",),
    "engine": (
        "repro.serve.engine:Engine.run",
        "repro.serve.engine:Engine.begin",
        "repro.serve.engine:Engine.run_until",
    ),
    "summary": ("repro.serve.engine:summarize_requests",),
    "control.prepare": ("repro.control.simulator:prepare_controlled",),
    "control.finalize": ("repro.control.simulator:finalize_controlled",),
    "control.tenancy": ("repro.control.tenancy:simulate_multi_fleet",),
    "obs.write": ("repro.obs.session:Observability.write_trace",),
    "render": (
        "repro.eval.serving:render_serving_report",
        "repro.eval.control:render_control_report",
        "repro.eval.control:report_to_dict",
        "repro.eval.control:render_multi_fleet_report",
        "repro.eval.control:multi_fleet_to_dict",
    ),
    "quant": ("repro.quant.qmodel:quantize_mobilenet",),
    "accel": ("repro.parallel.tasks:simulate_design_point",),
    "accel.layer": ("repro.sim.runner:AcceleratorRunner.run_layer",),
    "cache.get": (
        "repro.parallel.cache:ResultCache.contains",
        "repro.parallel.cache:ResultCache.peek",
        "repro.parallel.cache:ResultCache.lookup",
    ),
    "cache.put": ("repro.parallel.cache:ResultCache.put",),
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a top-level span
    op: str

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans around wrapped calls (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.missing: dict[str, str] = {}
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own
        operation boundaries)."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = recorder._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(sid, parent, name, start)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        """Wrap every target; unresolvable ones land in :attr:`missing`."""
        for layer, targets in layers.items():
            for target in targets:
                reason = self._install_one(layer, target)
                if reason:
                    self.missing[target] = reason

    def _install_one(self, layer: str, target: str) -> str:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            return f"module not importable ({exc})"
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return f"{part} not found in {module_name}"
        original = vars(owner).get(attr)
        if not isinstance(original, types.FunctionType):
            return f"{qualname} is not a function of {module_name}"
        wrapper = self._wrap(f"{layer}:{qualname}", original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return ""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)
        return ""

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def closed(self) -> list[Span]:
        """Every finished span, by id."""
        return [span for span in self.spans if span is not None]

    def dump(self, path) -> None:
        """Write the spans (and missing targets) as JSON."""
        payload = {
            "spans": [asdict(span) for span in self.closed()],
            "missing": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def child_seconds(spans: list[Span]) -> dict[int, float]:
    """Summed duration of each span's direct children."""
    total: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            total[span.parent] = total.get(span.parent, 0.0) + span.seconds
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its direct children's (which nest
    and do not overlap in a single-threaded run)."""
    children = child_seconds(spans)
    return {span.id: span.seconds - children.get(span.id, 0.0) for span in spans}


def layer_seconds(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Wall time per ``(op, layer)``, counting only the outermost span
    of a layer (a nested same-layer call is already inside it)."""
    by_id = {span.id: span for span in spans}
    total: dict[tuple[str, str], float] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.layer == span.layer:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            key = (span.op, span.layer)
            total[key] = total.get(key, 0.0) + span.seconds
    return total


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that leave their parent, or whose children outlast it."""
    by_id = {span.id: span for span in spans}
    errors = []
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and not (
            parent.start <= span.start <= span.end <= parent.end
        ):
            errors.append(f"span {span.id} ({span.name}) leaves its parent")
    for sid, seconds in child_seconds(spans).items():
        if seconds > by_id[sid].seconds:
            errors.append(f"children of span {sid} outlast it")
    return errors


def self_time_table(spans: list[Span], ops: int) -> list[tuple]:
    """``(name, calls, total_s, self_s)`` per span name, per operation
    round (``ops`` rounds), sorted by self time."""
    selfs = self_seconds(spans)
    rows: dict[str, list[float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.seconds
        row[2] += selfs[span.id]
    ops = max(ops, 1)
    table = [
        (name, calls / ops, total / ops, own / ops)
        for name, (calls, total, own) in rows.items()
    ]
    return sorted(table, key=lambda row: -row[3])
