"""Per-layer tracing from outside the program.

The layers are the modules of the `rbswipt` package.  `Tracer.install`
wraps every public function of each layer module and rebinds every name
that refers to it: the defining module, each module that took it with
`from ... import`, and function defaults such as `run_sweep`'s
`evaluate_fn=evaluate_operating_point`, which are bound when the function
is defined.  `copy.deepcopy` is wrapped as part of the `config` layer,
since the config copy is that layer's work.

A span opens only where control crosses from one layer into another;
calls inside a layer run unwrapped apart from one comparison, and from the
counter hooks below.  Each
boundary charges the time since the previous boundary to the layer then
on top, so a layer's self time is its span time minus its child spans.
`<layer>.calls` counts visits: back-to-back calls into one layer from the
same caller span count once, so one cell's evaluate_link, which calls
three ray-optics functions in a row, is one ray_optics visit.
Spans are aggregated per layer as they close rather than kept.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("config", "ray_optics", "gain_power", "receiver", "model",
          "sweep", "figures", "output", "cli")
SPOT_ONLY_QUANTITIES = {"spot_radius"}
_OUTSIDE = "<outside>"


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys((_OUTSIDE,) + LAYERS, 0.0)
        self.copies = 0
        self.cells = 0
        self.evals = 0
        self.statuses: dict[str, int] = {}
        self.searches = 0
        self.search_evals = 0
        self.unused_stage_calls = 0
        self.rows = 0
        self.bytes = 0
        self._stack = [[_OUTSIDE, None]]    # [layer, last layer visited]
        self._mark = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, layer, hook=None):
        stack, mark, calls, self_s = (self._stack, self._mark, self.calls,
                                      self.self_s)
        root = stack[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer and hook is None:
                return fn(*args, **kwargs)
            before = hook.before(self, args, kwargs) if hook else None
            if top[0] == layer:
                result = fn(*args, **kwargs)
                t = clock()
                hook.after(self, before, fn, args, kwargs, result)
                mark[0] += clock() - t      # hook time belongs to no layer
                return result
            t = clock()
            self_s[top[0]] += t - mark[0]
            if top[1] != layer:
                calls[layer] += 1
                if top is not root:     # each command is its own visit
                    top[1] = layer
            stack.append([layer, None])
            mark[0] = t
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                self_s[layer] += t - mark[0]
                stack.pop()
                mark[0] = t
            if hook:
                hook.after(self, before, fn, args, kwargs, result)
                mark[0] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"rbswipt.{layer}")
            except ModuleNotFoundError:
                continue        # a removed layer records zero
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, layer, HOOKS.get(name))
        modules = [m for n, m in sys.modules.items()
                   if n == "rbswipt" or n.startswith("rbswipt.")]
        functions = []
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value):
                    functions.append(value)
                    if value in wrappers:
                        self._patch(mod, name, wrappers[value])
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    functions += [f for f in vars(value).values()
                                  if inspect.isfunction(f)]
        for fn in functions:
            if fn.__defaults__ and any(inspect.isfunction(d) and d in wrappers
                                       for d in fn.__defaults__):
                self._patch(fn, "__defaults__", tuple(
                    wrappers.get(d, d) if inspect.isfunction(d) else d
                    for d in fn.__defaults__))
            if fn.__kwdefaults__ and any(inspect.isfunction(d) and d in wrappers
                                         for d in fn.__kwdefaults__.values()):
                self._patch(fn, "__kwdefaults__", {
                    k: wrappers.get(d, d) if inspect.isfunction(d) else d
                    for k, d in fn.__kwdefaults__.items()})
        self._patch_deepcopy()
        self._mark[0] = time.perf_counter()

    def _patch_deepcopy(self) -> None:
        # deepcopy recurses through the module attribute; handing the
        # original back for the duration of the outer call counts only the
        # outermost call and keeps the wrapper out of the recursion
        original = copy.deepcopy
        spanned = self._wrap(original, "config")

        def deepcopy(x, memo=None, _nil=[]):
            self.copies += 1
            copy.deepcopy = original
            try:
                return spanned(x, memo)
            finally:
                copy.deepcopy = deepcopy

        self._patch(copy, "deepcopy", deepcopy)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Counters that must repeat exactly for the same inputs."""
        out = {f"{layer}.calls": n for layer, n in self.calls.items()}
        out.update({
            "config.copies": self.copies,
            "sweep.cells": self.cells,
            "model.evaluations": self.evals,
            "sweep.searches": self.searches,
            "figures.unused_stage_calls": self.unused_stage_calls,
            "output.rows": self.rows,
            "output.bytes": self.bytes,
        })
        out.update({f"status.{s}": n for s, n in sorted(self.statuses.items())})
        return out

    def status_frac(self, status: str) -> float:
        return self.statuses.get(status, 0) / self.evals if self.evals else 0.0


# -- hooks: counters read from arguments and results ------------------------

def _bound(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except TypeError:
        return {}


class _Hook:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, before, fn, args, kwargs, result):
        pass


class _Evaluate(_Hook):
    def after(self, tracer, before, fn, args, kwargs, result):
        tracer.evals += 1
        status = getattr(result, "status", "?")
        tracer.statuses[status] = tracer.statuses.get(status, 0) + 1


class _Sweep(_Hook):
    def after(self, tracer, before, fn, args, kwargs, result):
        tracer.cells += len(getattr(result, "points", ()))


class _Search(_Hook):
    def before(self, tracer, args, kwargs):
        return tracer.evals

    def after(self, tracer, before, fn, args, kwargs, result):
        tracer.searches += 1
        tracer.search_evals += tracer.evals - before


class _Figure(_Hook):
    """Gain and receiver visits made for a figure that emits only spot
    radius, read from the figure's plot description."""

    def before(self, tracer, args, kwargs):
        return tracer.calls["gain_power"] + tracer.calls["receiver"]

    def after(self, tracer, before, fn, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        try:
            plot = Path(bound["out_dir"]) / f"fig{bound['figure_id']}.plot.json"
            series = json.loads(plot.read_text())["series"]
            quantities = {s["column"].split("[")[0] for s in series}
        except (KeyError, OSError, ValueError, TypeError):
            return
        if quantities <= SPOT_ONLY_QUANTITIES:
            tracer.unused_stage_calls += (tracer.calls["gain_power"]
                                          + tracer.calls["receiver"] - before)


class _Write(_Hook):
    def after(self, tracer, before, fn, args, kwargs, result):
        path = _bound(fn, args, kwargs).get("path")
        if path is None:
            return
        data = Path(path).read_bytes()
        tracer.bytes += len(data)
        if fn.__name__ == "write_curve_file":
            # data rows: every line after the '#' header and the column row
            body = [ln for ln in data.splitlines() if not ln.startswith(b"#")]
            tracer.rows += max(len(body) - 1, 0)


HOOKS = {
    "evaluate_operating_point": _Evaluate(),
    "run_sweep": _Sweep(),
    "find_optimum": _Search(),
    "reproduce_figure": _Figure(),
    "write_curve_file": _Write(),
    "write_plot_description": _Write(),
}
