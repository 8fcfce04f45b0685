"""Spans around the calls between holefree's modules, recorded from outside.

Each public function is wrapped under the name its calling module uses
(``holefree.engine.enumerate_pmcs``, ``holefree.pmc.is_pmc``, ...), and
``Graph.components`` / ``Graph.induced`` on the class, so nothing in the
package changes.  A span has an op id, a name, a start, an end and a
parent; spans are kept in memory and written out once at the end.  Self
time (a span's duration minus the time its child spans cover) and the
layer counters are accumulated per op while the op runs.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    import holefree.cli as cli
    import holefree.engine as engine
    import holefree.pmc as pmc
    import holefree.solvers as solvers
    from holefree.graph import Graph

    return [
        (cli, "main", "cli.main"),
        (cli, "parse_graph", "graph.parse"),
        (cli, "solve", "solvers.solve"),
        (solvers, "solve_kprism_alg", "solvers.pipeline"),
        (solvers, "solve_mwis", "engine.solve_mwis"),
        (solvers, "solve_subexp1", "solvers.subexp1"),
        (solvers, "solve_subexp2", "solvers.subexp2"),
        (solvers, "brute_force_mwis", "engine.brute"),
        (solvers, "find_k_prism", "recognition.prism_search"),
        (solvers, "minimal_triangulation", "recognition.triangulation"),
        (solvers, "clique_tree", "recognition.clique_tree"),
        (solvers, "build_tree_decomposition", "solvers.tree_decomposition"),
        (solvers, "solve_treewidth_dp", "solvers.treewidth_dp"),
        (solvers, "balanced_separator", "solvers.balanced_separator"),
        (solvers, "is_pmc", "pmc.is_pmc"),
        (solvers, "dominate_pmc", "pmc.dominate"),
        (solvers, "check_independent_witness", "engine.witness_check"),
        (engine, "enumerate_minimal_separators", "separators.enumerate"),
        (engine, "enumerate_pmcs", "pmc.enumerate"),
        (engine, "block_family", "pmc.block_family"),
        (engine, "solve_bt", "engine.dp"),
        (engine, "index_caps", "engine.index_caps"),
        (engine, "check_independent_witness", "engine.witness_check"),
        (pmc, "is_pmc", "pmc.is_pmc"),
        (pmc, "enumerate_minimal_separators", "pmc.prefix_separators"),
        (Graph, "components", "graph.components"),
        (Graph, "induced", "graph.induced"),
    ]


def _is_cap_trip(exc) -> bool:
    from holefree.errors import CapacityExceededError

    return isinstance(exc, CapacityExceededError)


class Tracer:
    """Install with :meth:`install`, bracket each op with :meth:`begin_op`
    and :meth:`end_op`, and :meth:`uninstall` when done."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_op = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1
        self._pending_trip: float | None = None
        self.root_s = 0.0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_op.append(self._op)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, t0, perf_counter(), name, None, exc)
                raise
            close(frame, t0, perf_counter(), name, result, None)
            return result

        return traced

    # -- accounting -------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._pending_trip = None
        self.root_s = 0.0
        self.self_s = {}
        self.calls = {}
        self.counts = {}

    def end_op(self) -> dict:
        if self._stack:
            raise RuntimeError("op ended with open spans")
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "root_s": self.root_s,
        }

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, frame, t0: float, t1: float, name: str, result, exc) -> None:
        stack = self._stack
        stack.pop()
        idx, child = frame
        dur = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        if stack:
            stack[-1][1] += dur
        else:
            self.root_s = dur
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self.names[self.span_name[stack[-1][0]]] if stack else None
        self._note(name, parent, result, exc, dur)

    def _note(self, name: str, parent: str | None, result, exc, dur: float) -> None:
        """Layer counters read off a span's result or exception."""
        if exc is not None:
            if _is_cap_trip(exc):
                if name in ("separators.enumerate", "pmc.prefix_separators"):
                    self._count("separators.cap_trips")
                if name == "solvers.pipeline" and parent == "solvers.solve":
                    self._pending_trip = dur
            if name == "solvers.subexp1":
                self._note_fallback(parent)
            return
        if name == "pmc.is_pmc":
            if result is not None:
                self._count("pmc.accepted")
        elif name == "pmc.enumerate":
            self._count("pmc.count", len(result))
        elif name == "pmc.block_family":
            self._count("pmc.blocks", len(result))
        elif name == "separators.enumerate":
            self._count("separators.count", len(result))
        elif name == "engine.index_caps":
            self._count("engine.cap_pairs", sum(len(c) for c in result))
        elif name == "engine.dp":
            self._count("engine.table_entries", result.stats.table_entries)
        elif name == "recognition.triangulation":
            self._count("recognition.fill_edges", len(result))
        elif name == "recognition.prism_search":
            if result is not None:
                self._count("recognition.prisms_found")
        elif name == "solvers.tree_decomposition":
            width = result.width
            if width > self.counts.get("solvers.td_width_max", 0):
                self.counts["solvers.td_width_max"] = width
        elif name in ("solvers.subexp1", "solvers.subexp2"):
            self._count("solvers.branches", result.stats.branches)
            if name == "solvers.subexp1":
                self._note_fallback(parent)

    def _note_fallback(self, parent: str | None) -> None:
        # auto caught a cap trip of its first pipeline attempt and ran subexp1
        if parent == "solvers.solve" and self._pending_trip is not None:
            self._count("solvers.fallbacks")
            self._count("solvers.wasted_s", self._pending_trip)
            self._pending_trip = None

    # -- output -----------------------------------------------------------------

    def write(self, directory: Path) -> int:
        """Write every span: columns to spans.bin, their layout to spans.json.

        Returns the span count.  See :func:`read_spans` for the layout.
        """
        with open(directory / "spans.bin", "wb") as fh:
            for _, column in self._columns():
                column.tofile(fh)
        layout = {
            "count": len(self.span_start),
            "columns": [[name, col.typecode] for name, col in self._columns()],
            "byteorder": sys.byteorder,
            "names": self.names,
        }
        (directory / "spans.json").write_text(json.dumps(layout))
        return len(self.span_start)

    def _columns(self):
        return [
            ("op", self.span_op),
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("start", self.span_start),
            ("end", self.span_end),
        ]


def read_spans(directory: Path) -> dict:
    """The spans written by :meth:`Tracer.write`, as one array per column."""
    layout = json.loads((directory / "spans.json").read_text())
    if layout["byteorder"] != sys.byteorder:
        raise ValueError("spans were written with another byte order")
    out = {"names": layout["names"]}
    with open(directory / "spans.bin", "rb") as fh:
        for name, typecode in layout["columns"]:
            column = array(typecode)
            column.fromfile(fh, layout["count"])
            out[name] = column
    return out


def self_times(spans: dict) -> dict[int, dict[str, float]]:
    """Self time per op and span name, recomputed from the written spans."""
    child = [0.0] * len(spans["start"])
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            child[parent] += spans["end"][i] - spans["start"][i]
    out: dict[int, dict[str, float]] = {}
    for i, op in enumerate(spans["op"]):
        name = spans["names"][spans["name"][i]]
        per_op = out.setdefault(op, {})
        own = spans["end"][i] - spans["start"][i] - child[i]
        per_op[name] = per_op.get(name, 0.0) + own
    return out
