"""Infrastructure reporting: the visualization use case of paper §1.

"Access to low-level information and the ability of inspection ... is
needed to visualize the positioning infrastructure when authoring
location-aware applications" (citing Oppermann et al.).  This module
aggregates what the three layers expose into one structured report: the
component tree, the channel decomposition, attached features, and the
*seam indicators* components choose to surface -- dropped NMEA lines,
filter rejection rates, interpreter yield, channel feature failures.

Components advertise seam indicators by convention: any public
zero-argument method listed in ``SEAM_PROBES`` plus any plain numeric
attribute listed in ``SEAM_COUNTERS`` is collected if present.

Installed subsystems (``graph.subsystems``) each render their own
section: :data:`SECTIONS` fixes the order, the title and the line shown
while a subsystem is absent; the subsystem's ``describe()`` is its
snapshot entry and its ``report_lines(described)`` renders the section
from that entry.  This module reads no subsystem's keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.middleware import PerPos

#: Zero-argument methods whose return value is a seam indicator.
SEAM_PROBES = (
    "rejection_rate",
    "yield_rate",
    "forward_rate",
    "effective_sample_size",
    "pending_bytes",
    "pending_positions",
    "map_size",
)

#: Plain numeric attributes that count seam-relevant events.
SEAM_COUNTERS = (
    "dropped_lines",
    "passed",
    "rejected",
    "suppressed",
    "forwarded",
    "sentences_seen",
    "positions_produced",
    "segments_emitted",
    "windows_dropped",
    "wall_vetoes",
    "resamples",
    "updates",
    "classified",
    "smoothed",
    "alerts_raised",
)

#: Subsystem sections in report order: (key in ``graph.subsystems``,
#: section title, line shown while nothing is installed under the key).
SECTIONS = (
    ("supervision", "supervision:", "(supervision disabled)"),
    ("runtime", "ingestion:", "(no positioning engine)"),
    ("gateway", "gateway:", "(no ingestion gateway)"),
    ("sharding", "sharding:", "(sharding disabled)"),
    ("durability", "durability:", "(durability disabled)"),
    ("scenario", "scenario:", "(no scenario installed)"),
    ("control", "control:", "(no control loop installed)"),
    ("observability", "live metrics:", "(observability disabled)"),
)


def component_seams(component: Any) -> Dict[str, Any]:
    """Collect the seam indicators one component exposes."""
    seams: Dict[str, Any] = {}
    for probe in SEAM_PROBES:
        fn = getattr(component, probe, None)
        if callable(fn):
            try:
                seams[probe] = fn()
            except Exception as exc:  # noqa: BLE001 - a probe failing is itself a seam
                # The failed probe is itself inspectable: report what
                # went wrong instead of collapsing it to a marker.
                seams[probe] = {
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
    for counter in SEAM_COUNTERS:
        value = getattr(component, counter, None)
        if isinstance(value, (int, float)):
            seams[counter] = value
    return seams


def infrastructure_snapshot(middleware: "PerPos") -> Dict[str, Any]:
    """Structured snapshot of the whole positioning infrastructure.

    Besides the structural sections, one entry per :data:`SECTIONS`
    key: the installed subsystem's ``describe()``, or None while it is
    absent.
    """
    subsystems = middleware.graph.subsystems
    supervisor = middleware.graph.supervisor
    components = []
    for component in middleware.graph.components():
        info = component.describe()
        info["seams"] = component_seams(component)
        if supervisor is not None:
            info["health"] = supervisor.health(component.name)
        components.append(info)
    channels = []
    for channel in middleware.pcl.channels():
        info = channel.describe()
        info["feature_errors"] = [
            f"{name}: {exc!r}" for name, exc in channel.feature_errors
        ]
        latest = channel.latest_output()
        info["outputs_delivered"] = (
            latest.logical_time if latest is not None else 0
        )
        channels.append(info)
    snapshot: Dict[str, Any] = {
        "components": components,
        "connections": [
            f"{c.producer} -> {c.consumer}.{c.port}"
            for c in middleware.graph.connections()
        ],
        "channels": channels,
        "providers": [
            p.describe() for p in middleware.positioning.providers()
        ],
    }
    for key, _title, _absent in SECTIONS:
        subsystem = subsystems.get(key)
        snapshot[key] = subsystem.describe() if subsystem is not None else None
    return snapshot


def render_report(middleware: "PerPos") -> str:
    """Human-readable infrastructure report."""
    snapshot = infrastructure_snapshot(middleware)
    lines: List[str] = ["POSITIONING INFRASTRUCTURE", ""]
    lines.append("process structure:")
    lines.append(_indent(middleware.psl.structure()))
    lines.append("")
    lines.append("channels:")
    for channel in snapshot["channels"]:
        path = " -> ".join(channel["members"])
        features = ", ".join(channel["features"]) or "-"
        lines.append(
            f"  {path} ==> {channel['endpoint']}"
            f"  [features: {features};"
            f" outputs: {channel['outputs_delivered']}]"
        )
        for error in channel["feature_errors"]:
            lines.append(f"    ! feature error: {error}")
    lines.append("")
    lines.append("seam indicators:")
    for component in snapshot["components"]:
        if not component["seams"]:
            continue
        rendered = ", ".join(
            f"{key}={fmt(value)}"
            for key, value in sorted(component["seams"].items())
        )
        lines.append(f"  {component['name']}: {rendered}")
    lines.append("")
    lines.append("providers:")
    for provider in snapshot["providers"]:
        lines.append(
            f"  {provider['name']}: kinds={provider['kinds']}"
            f" features={provider['features']}"
        )
    for key, title, absent in SECTIONS:
        section = snapshot[key]
        lines += ["", title]
        if section is None:
            lines.append(f"  {absent}")
        else:
            subsystem = middleware.graph.subsystems[key]
            lines += subsystem.report_lines(section)
    return "\n".join(lines)


def fmt(value: Any) -> str:
    """A report figure: floats to three significant digits."""
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
