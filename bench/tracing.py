"""Per-layer tracing of coordproj from outside the package.

Tracer.install() wraps the public functions of each layer module, plus two
private kernels that the per-layer metrics name, and rebinds every name in
the loaded coordproj modules that refers to a wrapped function, so calls
made through `from .x import f` are traced too. The package source is not
changed. A wrapper's self time is its own time minus the time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "orlicz", "rotation", "selector", "complexity", "shatter", "entropy")
# private names the metrics need: the Monte-Carlo sup kernel and the LP solver
EXTRA = (("complexity", "_sup_average", "complexity.sup_average"),
         ("shatter", "linprog", "shatter.linprog"))

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counts, inclusive and self times of wrapped calls, plus a few per-layer tallies."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack: list[list] = []  # [span name, time in wrapped children, distinct rows]
        self._patches: list[tuple] = []
        self.psi_iterations = 0
        self.jl_psi_calls = 0
        self.jl_rows = 0
        self.witnesses = 0
        self.vc_repeats = 0
        self.draws = 0
        self._last_vc: int | None = None

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"coordproj.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    targets.append((fn, f"{layer}.{name}"))
        for layer, name, span in EXTRA:
            targets.append((getattr(importlib.import_module(f"coordproj.{layer}"), name), span))
        # keyed by id: module attributes include unhashable values
        wrappers = {id(fn): self._wrap(fn, span) for fn, span in targets}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "coordproj" and not mod_name.startswith("coordproj."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, span: str):
        stack = self._stack
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0, None]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook:
                start = time.perf_counter()
                hook(signature.bind(*args, **kwargs).arguments, result, frame)
                if stack:  # keep the hook's own cost out of the caller's self time
                    stack[-1][1] += time.perf_counter() - start
            return result

        return wrapper

    # --------------------------------------------------------------- hooks

    def begin_experiment(self) -> None:
        """Marks the start of one CLI call; repeats are counted within it."""
        self._last_vc = None

    def _enclosing(self, span: str):
        for frame in reversed(self._stack):
            if frame[0] == span:
                return frame
        return None

    def _on_orlicz_psi_norm(self, arguments, result, frame) -> None:
        self.psi_iterations += result.iterations
        jl = self._enclosing("rotation.coordinate_jl")
        if jl is not None:
            if jl[2] is None:
                jl[2] = set()
            jl[2].add(np.asarray(arguments["f"], dtype=float).tobytes())
            self.jl_psi_calls += 1

    def _on_rotation_coordinate_jl(self, arguments, result, frame) -> None:
        self.jl_rows += len(frame[2] or ())

    def _on_shatter_is_shattered(self, arguments, result, frame) -> None:
        self.witnesses += result is not None

    def _on_shatter_vc_dimension(self, arguments, result, frame) -> None:
        self.vc_repeats += result.dimension == self._last_vc
        self._last_vc = result.dimension

    def _on_selector_tail_experiment(self, arguments, result, frame) -> None:
        self.draws += int(arguments["trials"]) * np.size(arguments["a"])

    def _on_selector_almost_isometry_experiment(self, arguments, result, frame) -> None:
        self.draws += int(arguments["trials"]) * np.size(arguments["f"])

    # ------------------------------------------------------------- metrics

    def metrics(self, per_layer: list[dict], rounds: int, import_s: float) -> dict:
        """The metrics listed in `per_layer` (from BENCHMARK.json), per round of the workload."""
        values = {
            "cli.import_s": import_s,
            "orlicz.psi_norm.iterations": self.psi_iterations / rounds,
            "orlicz.psi_norm.calls_per_row": _ratio(self.jl_psi_calls, self.jl_rows),
            "selector.draws": self.draws / rounds,
            "shatter.vc_dimension.repeat_share": _ratio(
                self.vc_repeats, self.calls["shatter.vc_dimension"]),
            "shatter.is_shattered.witness_share": _ratio(
                self.witnesses, self.calls["shatter.is_shattered"]),
        }
        out = {}
        for metric in per_layer:
            name = metric["name"]
            if name not in values:
                span, kind = name.rsplit(".", 1)
                if kind == "calls":
                    values[name] = self.calls[span] / rounds
                elif kind == "ms":
                    values[name] = 1000.0 * self.total_s[span] / rounds
                else:
                    values[name] = 1000.0 * self.self_s[span] / rounds
            out[name] = {"value": values[name], "unit": metric["unit"]}
        return out
