"""In-memory spans for the traced benchmark run.

The library has no spans of its own, so the tracer wraps module attributes
at the layer boundaries for the duration of one traced pass and restores
them afterwards.  Each wrapper records a span (id, parent, name, item,
start, end) and the span's extra fields; self time is a span's duration
minus the durations of its direct children.  The library runs one worker
(MORREYKIT_THREADS unset), so spans nest on a single stack.

Grid and refinement are only separable through the batched ball objective
that `morrey_norm_numeric` calls: calls with more than one ball are grid
calls, single-ball calls are refinement.  That objective is the one
non-public boundary; when it is gone, the metrics that depend on it are
reported as missing (None), never as zero.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (owner module name, attribute, span name).  The attribute is replaced on
# every owner that binds it, because `constants` imports
# `morrey_norm_numeric` by name.
PUBLIC_BOUNDARIES = (
    ("constants", "estimate_constants", "constants.estimate"),
    ("constants", "build_witnesses", "constants.build"),
    ("numeric", "morrey_norm_numeric", "numeric.search"),
    ("constants", "morrey_norm_numeric", "numeric.search"),
    ("numeric", "ball_p_integral", "numeric.rescore"),
    ("closedform", "centered_norm", "closedform.centered"),
    ("document", "parse_profile_document", "document.parse"),
)
OBJECTIVE = "numeric.objective"

# Relative margin by which refinement must beat the grid best to count as
# useful; a single-ball re-evaluation of the grid winner can differ from the
# batched value in the last bits.
USEFUL_MARGIN = 1e-12


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []       # [id, parent, name, item, start, end, extra]
        self.item = None
        self._stack = []
        self._saved = []
        self.installed = set()

    # -- recording ----------------------------------------------------------

    def _enter(self, name, extra=None):
        span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                name, self.item, time.perf_counter(), None, extra]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, item):
        """Root span of one benchmark item; its descendants share the item."""
        self.item = item
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, func, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(span)
            if name == "constants.build":
                # the family's annulus count equals its pattern count
                span[6] = {"patterns": len(result.functions[0].segments)}
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _wrap_objective(self, call):
        tracer = self

        def wrapper(objective, center, radius):
            balls = int(np.broadcast(center, radius).size)
            span = tracer._enter(OBJECTIVE, {
                "balls": balls,
                "tensor_bytes": _tensor_bytes(objective, balls),
                "best": 0.0,
            })
            try:
                values = call(objective, center, radius)
            finally:
                tracer._exit(span)
            if np.size(values):
                span[6]["best"] = float(np.max(values))
            return values

        wrapper.__wrapped__ = call
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        for module_name, attr, name in PUBLIC_BOUNDARIES:
            module = self.modules[module_name]
            func = getattr(module, attr, None)
            if func is None:
                continue
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name))
            self.installed.add(name)
        objective = getattr(self.modules["numeric"], "_BatchObjective", None)
        call = getattr(objective, "__call__", None) if objective else None
        if call is not None and "__call__" in vars(objective):
            self._saved.append((objective, "__call__", call))
            objective.__call__ = self._wrap_objective(call)
            self.installed.add(OBJECTIVE)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _tensor_bytes(objective, balls):
    """Computed size of the dense (balls x annuli x quad points) float64
    tensor of one objective call; None when the objective no longer exposes
    its annuli and nodes."""
    try:
        annuli = objective.lo.size
        quad = objective.nodes.size if objective.d >= 2 else 1
    except AttributeError:
        return None
    return balls * annuli * quad * 8


def layer_totals(spans):
    """Per-pass counters from one traced pass: self time and count per span
    name, grid/refine split of the objective, and per-search refinement
    outcome."""
    child_time = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    totals = defaultdict(float)
    searches = {}
    for span in spans:
        sid, parent, name, _item, start, end, extra = span
        self_s = end - start - child_time[sid]
        if name == OBJECTIVE:
            stage = "grid" if extra["balls"] > 1 else "refine"
            totals[f"{stage}_s"] += self_s
            totals[f"{stage}_calls"] += 1
            totals[f"{stage}_balls"] += extra["balls"]
            if stage == "grid" and extra["tensor_bytes"] is None:
                totals["grid_tensor_unknown"] = 1
            elif stage == "grid":
                totals["grid_tensor_bytes"] = max(totals["grid_tensor_bytes"],
                                                  extra["tensor_bytes"])
            state = searches.setdefault(parent, {"grid": 0.0, "refine": None})
            if stage == "refine":
                state["refine"] = max(state["refine"] or 0.0, extra["best"])
            elif state["refine"] is None:
                # multi-ball calls after refinement began (boundary probes)
                # are not part of the grid stage's best
                state["grid"] = max(state["grid"], extra["best"])
            continue
        totals[f"{name}_s"] += self_s
        totals[f"{name}_calls"] += 1
        if name == "numeric.search":
            searches.setdefault(sid, {"grid": 0.0, "refine": None})
        if name == "constants.build" and extra:
            totals["patterns"] += extra["patterns"]
    gains = []
    useful = 0
    for state in searches.values():
        if state["refine"] is None or state["grid"] <= 0.0:
            gains.append(0.0)
            continue
        gain = (state["refine"] - state["grid"]) / state["grid"]
        gains.append(max(gain, 0.0))
        useful += gain > USEFUL_MARGIN
    totals["useful_searches"] = useful
    totals["refine_gain_max"] = max(gains, default=0.0)
    totals["refine_gain_median"] = statistics.median(gains) if gains else 0.0
    return totals
