"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(id, name, start, end, parent, request_id)``; its layer is the
part of ``name`` before the first dot.  Spans are kept in memory while the
run measures and written out as JSON lines when it ends.  A layer's self
time is the summed duration of its spans minus the part of each span that
its child spans cover.

Tracing is off in the end-to-end run (callers pass ``tracer=None``); the
traced run measures the same phases with it on, and the difference is the
tracing overhead.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._requests = 0

    def new_request(self) -> int:
        self._requests += 1
        return self._requests

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> int:
        span_id = len(self.spans) + 1
        self.spans.append((span_id, name, start, end, parent, request_id))
        return span_id

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _span_id, _name, start, end, parent, _request in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: Dict[str, float] = {}
        for span_id, name, start, end, _parent, _request in self.spans:
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, reach), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request_id,
                        }
                    )
                    + "\n"
                )
