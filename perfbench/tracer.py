"""Per-layer spans recorded from outside ``treecast``.

The package binds its functions with ``from .x import f``, so a caller
looks ``f`` up in its own module.  ``Tracer.install`` therefore replaces
every binding of a traced function in every loaded ``treecast`` module,
not only the defining one.  A wrapper returns the wrapped function's own
result object and re-raises its own exception.

Each call becomes a span ``[name, start, end, parent, owner, failed]``
kept in memory.  ``owner`` is the nearest enclosing span that is reported
as a layer; a span that is not reported leaves its time in its owner's
self time.  That is how a call is attributed by its parent:

- inside a channel check or a trace build, save, load or replay, every
  nested call is that step's own work;
- ``project_onto`` is branch expansion only directly under
  ``merge_post_state``, and ``apply_map`` is deferred replay only directly
  under ``apply_merge_correction``; elsewhere they belong to their caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) -> span name.  Spans named like a scope in FOLD keep
# all nested work as their own.
TARGETS = {
    ("treecast.cli", "main"): "cli.main",
    ("treecast.protocols", "run_concentrating"): "protocols.run_concentrating",
    ("treecast.protocols", "run_spreading"): "protocols.run_spreading",
    ("treecast.koashi_imoto", "ki_decompose"): "koashi_imoto.ki_decompose",
    ("treecast.merge_split", "build_merge_protocol"): "merge_split.build_merge_protocol",
    ("treecast.merge_split", "merge_post_state"): "merge_split.merge_post_state",
    ("treecast.merge_split", "apply_merge_correction"): "merge_split.apply_merge_correction",
    ("treecast.merge_split", "build_split_protocol"): "merge_split.build_split_protocol",
    ("treecast.merge_split", "execute_split"): "merge_split.execute_split",
    ("treecast.tensors", "project_onto"): "tensors.project_onto",
    ("treecast.tensors", "apply_map"): "tensors.apply_map",
    ("treecast.verification", "verify_spreading_channel"): "verification.channel",
    ("treecast.verification", "verify_concentrating_channel"): "verification.channel",
    ("treecast.trace", "spread_trace"): "trace.build",
    ("treecast.trace", "concentrate_trace"): "trace.build",
    ("treecast.trace", "save_trace"): "trace.save",
    ("treecast.trace", "load_trace"): "trace.verify",
    ("treecast.trace", "verify_trace"): "trace.verify",
}
FOLD = {"verification.channel", "trace.build", "trace.save", "trace.verify"}
ONLY_UNDER = {
    "tensors.project_onto": "merge_split.merge_post_state",
    "tensors.apply_map": "merge_split.apply_merge_correction",
}
STRATEGIES = (
    "single-block",
    "scalar-fourier",
    "uniform-junk",
    "synthesized",
    "fallback-teleport",
)

NAME, START, END, PARENT, OWNER, FAILED = range(6)

# The per-layer metrics a traced run reports, with their units.  Times are
# summed over one pass of the job list; counts must repeat exactly.
PER_LAYER = [
    ("koashi_imoto.ki_decompose.calls", "count"),
    ("koashi_imoto.ki_decompose.s", "s"),
    ("merge_split.build_merge_protocol.calls", "count"),
    ("merge_split.build_merge_protocol.self_s", "s"),
    ("merge_split.build_merge_protocol.failed", "count"),
    ("merge_split.merge_post_state.calls", "count"),
    ("merge_split.merge_post_state.self_s", "s"),
    ("tensors.project_onto.calls", "count"),
    ("tensors.project_onto.s", "s"),
    ("merge_split.apply_merge_correction.calls", "count"),
    ("merge_split.apply_merge_correction.self_s", "s"),
    ("tensors.apply_map.calls", "count"),
    ("tensors.apply_map.s", "s"),
    ("merge_split.build_split_protocol.calls", "count"),
    ("merge_split.build_split_protocol.s", "s"),
    ("merge_split.execute_split.calls", "count"),
    ("merge_split.execute_split.self_s", "s"),
    ("verification.channel.self_s", "s"),
    ("trace.build_s", "s"),
    ("trace.save_s", "s"),
    ("trace.verify_s", "s"),
    ("trace.bytes", "B"),
    ("protocols.run_concentrating.self_s", "s"),
    ("protocols.run_spreading.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("count.branches", "count"),
    ("count.protocols_kept", "count"),
    ("ratio.protocols_kept", "ratio"),
    ("ratio.outcomes_live", "ratio"),
    *((f"count.strategy.{t}", "count") for t in STRATEGIES),
    ("count.fallback_hits", "count"),
    ("tracing.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._folded = 0  # depth of FOLD scopes currently open
        self._patches: list[tuple[object, str, object]] = []
        self.results: list = []  # ConcentrateResult objects, as returned

    # -- span recording --------------------------------------------------

    def _enter(self, name: str) -> int:
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        if self._folded:
            reported = False
        elif name in ONLY_UNDER:
            reported = parent >= 0 and spans[parent][NAME] == ONLY_UNDER[name] and (
                spans[parent][OWNER] == parent
            )
        else:
            reported = True
        idx = len(spans)
        owner = idx if reported else (spans[parent][OWNER] if parent >= 0 else -1)
        spans.append([name, time.perf_counter(), 0.0, parent, owner, False])
        stack.append(idx)
        if name in FOLD:
            self._folded += 1
        return idx

    def _exit(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()
        if span[NAME] in FOLD:
            self._folded -= 1

    def wrap(self, name: str, fn):
        tracer = self
        keep = name == "protocols.run_concentrating"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(idx, True)
                raise
            tracer._exit(idx, False)
            if keep and tracer.spans[idx][OWNER] == idx:
                tracer.results.append(out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> dict[str, int]:
        """Wrap every binding of every target; return bindings per target."""
        import treecast.cli  # noqa: F401  (loads every module with a target)

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "treecast" or n.startswith("treecast.")
        ]
        bound: dict[str, int] = {}
        for (modname, fname), name in TARGETS.items():
            original = getattr(sys.modules[modname], fname)
            wrapper = self.wrap(name, original)
            key = f"{modname}.{fname}"
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
                        bound[key] = bound.get(key, 0) + 1
        return bound

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.results.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "failed": s[FAILED]}) + "\n")

    # -- aggregation -------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer calls, inclusive time ``s`` and self time ``self_s``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[OWNER] == i and s[PARENT] >= 0:
                owner = spans[s[PARENT]][OWNER]
                if owner >= 0:
                    child[owner] += s[END] - s[START]
        out: dict[str, float] = {}
        for i, s in enumerate(spans):
            if s[OWNER] != i:
                continue
            name = s[NAME]
            dur = s[END] - s[START]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[i]
            out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + int(s[FAILED])
        return out

    def counts(self) -> dict[str, int]:
        """Counts read from the returned concentrating results."""
        out = {"count.branches": 0, "count.protocols_kept": 0,
               "count.outcomes_live": 0, "count.fallback_hits": 0}
        out.update({f"count.strategy.{t}": 0 for t in STRATEGIES})
        for result in self.results:
            out["count.branches"] += len(result.branches)
            for records in result.steps.values():
                for rec in records.values():
                    proto = rec.protocol
                    out["count.protocols_kept"] += 1
                    out[f"count.strategy.{proto.strategy}"] += 1
                    out["count.outcomes_live"] += proto.zero_mask.count(False)
                    if result.mode == "tight" and proto.strategy == "fallback-teleport":
                        out["count.fallback_hits"] += 1
        return out

    def per_layer(self, trace_bytes: int) -> dict[str, float]:
        """One traced pass as PER_LAYER metrics (all but tracing.overhead_s)."""
        layers, counts = self.layers(), self.counts()
        built = layers.get("merge_split.build_merge_protocol.calls", 0)
        projected = layers.get("merge_split.merge_post_state.calls", 0)
        values = {
            "trace.build_s": layers.get("trace.build.s", 0.0),
            "trace.save_s": layers.get("trace.save.s", 0.0),
            "trace.verify_s": layers.get("trace.verify.s", 0.0),
            "trace.bytes": trace_bytes,
            # a ratio with no denominator (nothing built or expanded) is 0
            "ratio.protocols_kept": counts["count.protocols_kept"] / built if built else 0.0,
            "ratio.outcomes_live": counts["count.outcomes_live"] / projected if projected else 0.0,
        }
        out = {}
        for name, _unit in PER_LAYER:
            if name == "tracing.overhead_s":
                continue
            out[name] = values.get(name, counts.get(name, layers.get(name, 0)))
        return out
