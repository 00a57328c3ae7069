"""Spans around the benchmark's calls into divkit.

One span per item and one per divkit call inside it, named
``<module>.<function>``; a call span's parent is its item's span, and all
spans of an item share the item's id.  Spans are kept in memory in flat
arrays; when the run ends, those of the leading items are written as CSV.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter_ns


def plain_call(name, fn, *args, **kwargs):
    """The untraced ``call``: no record, no clock."""
    return fn(*args, **kwargs)


class Tracer:
    """Records spans; ``call`` has the signature of ``plain_call``."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.item = array("q")
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.current = -1

    def _add(self, name: str, start: int, end: int, ok: bool) -> None:
        self.item.append(self.current)
        self.name.append(self.names.setdefault(name, len(self.names)))
        self.start.append(start)
        self.end.append(end)
        self.ok.append(ok)

    def call(self, name, fn, *args, **kwargs):
        ok = False
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self._add(name, start, perf_counter_ns(), ok)

    def begin_item(self, item_id: int) -> None:
        self.current = item_id

    def end_item(self, label: str, start: int, end: int, ok: bool) -> None:
        self._add("item." + label, start, end, ok)

    def spans(self):
        """(item id, name, start_ns, end_ns, ok) for every span."""
        names = {i: n for n, i in self.names.items()}
        for k in range(len(self.item)):
            yield self.item[k], names[self.name[k]], self.start[k], self.end[k], self.ok[k]

    def write_csv(self, path: str, items: int) -> None:
        """Write the spans of the first ``items`` items."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item,parent,name,start_ns,end_ns,ok\n")
            for item, name, start, end, ok in self.spans():
                if item >= items:
                    break
                parent = "" if name.startswith("item.") else item
                fh.write(f"{item},{parent},{name},{start},{end},{ok}\n")
