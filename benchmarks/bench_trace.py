"""Layer timing from outside the program.

The traced run replaces public netnewton functions, in this process only,
by wrappers that record one span per call: the function's layer, the span
that was open when it was called (its parent), and its start and end in
perf_counter nanoseconds. A function is replaced under every netnewton
name that refers to it, which covers the names its callers look it up by
(netnewton.errorcontrol.dual_step_matrix, netnewton.solver.build_dual_graph,
netnewton.experiment.two_pass_solve, ...). Spans are kept in flat arrays
in memory and written out once, when the run ends.

A layer's busy time is the summed duration of its outermost spans; its
self time is busy time minus the time covered by its direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _netnewton_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "netnewton" or name.startswith("netnewton.")) and m is not None]


class Patch:
    """Replace a function under every netnewton name bound to it."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _netnewton_modules():
            if mod.__dict__.get(attr) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def _newton_counts(counters, result) -> None:
    counters["solver.primal_steps"] += len(result.trace)
    counters["metrics.dual_rounds"] += result.metrics.dual_rounds
    counters["metrics.consensus_rounds"] += result.metrics.consensus_rounds
    counters["metrics.summation_rounds"] += result.metrics.summation_rounds


def _dual_counts(counters, result) -> None:
    _, cert = result
    counters[f"errorcontrol.stage{cert.stage}_accepts"] += 1


def _theta_counts(counters, result) -> None:
    counters["auxgraph.summation_rounds"] += result[1]


def _iters(key):
    def count(counters, result) -> None:
        counters[key] += result.iterations
    return count


# (module, function, layer, counter hook). The layer names group functions
# by the module a reader looks in; reference_optimum is reported under
# experiment, the harness that calls it once per trial.
TARGETS = [
    ("experiment", "run_comparison", "experiment.run_comparison", None),
    ("experiment", "random_network", "experiment.random_network", None),
    ("solver", "reference_optimum", "experiment.reference_optimum", None),
    ("solver", "reference_solve", "solver.reference_solve", None),
    ("solver", "two_pass_solve", "solver.two_pass_solve", None),
    ("solver", "newton_solve", "solver.newton_solve", _newton_counts),
    ("model", "build_network", "model.build_network", None),
    ("model", "eval_grad", "model.eval", None),
    ("model", "eval_hessian_diag", "model.eval", None),
    ("model", "eval_f", "model.eval", None),
    ("model", "eval_h", "model.eval", None),
    ("model", "feasibility_residual", "model.eval", None),
    ("splitting", "build_splitting", "splitting.build_splitting", None),
    ("splitting", "build_dual_graph", "splitting.build_dual_graph", None),
    ("splitting", "spectral_radius", "splitting.spectral_radius", None),
    ("splitting", "dual_step_matrix", "splitting.dual_step_matrix", None),
    ("splitting", "init_dual_state", "splitting.init_dual_state", None),
    ("errorcontrol", "run_dual_with_error_control", "errorcontrol.run_dual", _dual_counts),
    ("errorcontrol", "stage1_beta", "errorcontrol.stage_tests", None),
    ("errorcontrol", "stage2_h", "errorcontrol.stage_tests", None),
    ("direction", "primal_direction", "direction.primal_direction", None),
    ("direction", "kkt_direction", "direction.kkt_direction", None),
    ("auxgraph", "build_auxiliary_graph", "auxgraph.build_auxiliary_graph", None),
    ("auxgraph", "compute_theta", "auxgraph.compute_theta", _theta_counts),
    ("auxgraph", "distributed_sum", "auxgraph.distributed_sum", None),
    ("baselines", "subgradient_solve", "baselines.subgradient", _iters("baselines.subgradient.iters")),
    ("baselines", "diagonal_scaled_solve", "baselines.diagonal", _iters("baselines.diagonal.iters")),
]

LAYERS = sorted({layer for _, _, layer, _ in TARGETS})
COUNTERS = [
    "errorcontrol.stage1_accepts",
    "errorcontrol.stage2_accepts",
    "auxgraph.summation_rounds",
    "solver.primal_steps",
    "baselines.subgradient.iters",
    "baselines.diagonal.iters",
    "metrics.dual_rounds",
    "metrics.consensus_rounds",
    "metrics.summation_rounds",
]


class Tracer:
    """Span recorder; install() wraps TARGETS, uninstall() restores them."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = defaultdict(int)
        self.pass_starts = []  # first span of each installed stretch (one pass)
        self._open = [-1]
        self._patch = Patch()

    def _wrap(self, layer_id: int, hook):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        open_spans, counters, clock = self._open, self.counters, time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(start)
                layer.append(layer_id)
                parent.append(open_spans[-1])
                start.append(0)
                end.append(0)
                open_spans.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    start[idx] = t0
                    open_spans.pop()
                if hook is not None:
                    hook(counters, result)
                return result

            traced.__wrapped__ = fn
            traced.__name__ = fn.__name__
            traced.__doc__ = fn.__doc__
            return traced

        return make

    def install(self) -> None:
        import netnewton

        self.pass_starts.append(len(self.start))
        for module, attr, layer, hook in TARGETS:
            mod = getattr(netnewton, module)
            self._patch.replace(mod, attr, self._wrap(LAYERS.index(layer), hook))

    def uninstall(self) -> None:
        self._patch.restore()

    @property
    def num_spans(self) -> int:
        return len(self.start)

    def arrays(self):
        return (
            np.frombuffer(self.layer, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def layer_times(self) -> dict:
        """Busy and self seconds and call counts per layer, over all spans."""
        layer, parent, start, end = self.arrays()
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        outermost = parent_layer != layer
        out = {}
        for idx, name in enumerate(LAYERS):
            mine = layer == idx
            out[name] = {
                "s": float(dur[mine & outermost].sum()),
                "self_s": float(self_time[mine].sum()),
                "calls": int(mine.sum()),
            }
        return out

    def save(self, path) -> None:
        layer, parent, start, end = self.arrays()
        np.savez_compressed(
            path, layers=np.array(LAYERS), layer=layer, parent=parent, start_ns=start,
            end_ns=end, pass_starts=np.array(self.pass_starts, dtype=np.int64),
        )
