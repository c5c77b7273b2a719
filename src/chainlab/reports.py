"""Deterministic run reports: a config echo plus one result entry per task.

JSON serialisation is canonical (sorted keys, fixed separators) so reports
are byte-identical across runs; wall-clock timings are only recorded on
request.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

VERSION = "0.1.0"


class Report(SimpleNamespace):
    def __init__(self, config: dict, results: list | None = None, version: str = VERSION):
        super().__init__(config=config, results=[] if results is None else results,
                         version=version)

    def add(self, task: str, inputs: dict, timings_ms=None, **payload):
        entry = {"task": task, "inputs": inputs, "timings_ms": timings_ms}
        entry.update(payload)
        self.results.append(entry)

    def to_jsonable(self):
        return {"version": self.version, "config": self.config, "results": self.results}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"


def render_table(report: Report) -> str:
    """Human-readable rendering of a report."""
    lines = [f"chainlab {report.version}"]
    for entry in report.results:
        lines.append("")
        lines.append(f"== {entry['task']} {_inputs_str(entry['inputs'])}")
        for key, value in entry.items():
            if key in ("task", "inputs", "timings_ms"):
                continue
            lines.extend(_render_value(key, value, indent=2))
        if entry.get("timings_ms") is not None:
            lines.append(f"  timings_ms: {entry['timings_ms']}")
    return "\n".join(lines) + "\n"


def _inputs_str(inputs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(inputs.items()) if v is not None)


def _render_value(key, value, indent):
    pad = " " * indent
    if isinstance(value, dict):
        if all(not isinstance(v, (dict, list)) for v in value.values()):
            items = ", ".join(f"{k}: {v}" for k, v in value.items())
            return [f"{pad}{key}: {{{items}}}"]
        lines = [f"{pad}{key}:"]
        for k, v in value.items():
            lines.extend(_render_value(k, v, indent + 2))
        return lines
    if isinstance(value, list):
        if value and all(isinstance(x, dict) for x in value):
            lines = [f"{pad}{key}:"]
            for i, x in enumerate(value):
                lines.append(f"{pad}  - [{i}]")
                for k, v in x.items():
                    lines.extend(_render_value(k, v, indent + 4))
            return lines
        return [f"{pad}{key}: {value}"]
    return [f"{pad}{key}: {value}"]
