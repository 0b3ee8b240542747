"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces, for the duration of one traced pass, the public
functions of every measured lcsdyn module in every module namespace that holds
them (so ``newton_solve`` is wrapped once per module that imports it), a few
public methods, and the callables one module hands to the next: continuous
fields, ``DiscreteLagrangian`` callables, chart ``sigma``/``sigma_grad``, transition
maps and the residual/Jacobian callables passed to ``newton_solve``.
``uninstall`` puts every original back.  Nothing under ``src/`` changes.

A span is one call of a wrapped callable.  Spans are aggregated as they close,
per name: calls, inclusive seconds and self seconds (inclusive minus the time
of the spans nested directly inside it).  A layer's busy time is the sum of its
spans' self time.  Time not inside any span is the benchmark's own.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import Counter
from typing import Callable

import lcsdyn
from lcsdyn import (atlas, cli, continuous, discretize, forms, hamiltonian_discrete,
                    numerics, systems, variational, verification)

from workloads import VERIFY_CHECKS

LAYER_OF_MODULE = {
    "lcsdyn.atlas": "atlas", "lcsdyn.systems": "atlas",
    "lcsdyn.continuous": "continuous", "lcsdyn.numerics": "numerics",
    "lcsdyn.discretize": "discretize", "lcsdyn.variational": "variational",
    "lcsdyn.hamiltonian_discrete": "hamiltonian_discrete", "lcsdyn.forms": "forms",
    "lcsdyn.verification": "verification", "lcsdyn.cli": "cli",
}
MODULES = (atlas, systems, continuous, numerics, discretize, variational,
           hamiltonian_discrete, forms, verification, cli)
METHODS = ((atlas.Chart, ("grad", "hess", "contains")),
           (atlas.ConformalAtlas, ("require_inside", "find_transition")),
           (hamiltonian_discrete.LagrangianSource, ("invert_right", "invert_left")))
FIELD_FACTORIES = {"make_lcel_field": "continuous.lcel_field",
                   "make_lcshe_field": "continuous.lcshe_field"}
LD_FACTORIES = ("midpoint_rule", "trapezoidal_rule", "conformal_midpoint_rule",
                "conformal_trapezoidal_rule", "exact_discrete_lagrangian")
SYSTEM_FACTORIES = ("get_system", "harmonic_1d", "planar_2d", "free_rotor_circle",
                    "rotor_extended_chart", "with_constant_sigma")
LD_PARTS = ("value", "d1", "d2", "d1d2")


class Tracer:
    """Aggregated spans plus counters read from the values the spans return."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.covered_s = 0.0              # time inside outermost spans
        self.active = False               # wrapped objects outlive a traced pass
        self._stack: list[list] = []      # [child seconds, layer] per open span
        self._undo: list[tuple] = []
        self._wrapped: dict[int, Callable] = {}

    def layer_now(self) -> str:
        return self._stack[-1][1] if self._stack else "bench"

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        """A span around ``fn``; ``post(args, kwargs, result, seconds)`` runs after it."""
        if getattr(fn, "_bench_span", False):
            return fn
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered_s += dt
            if post is not None:
                post(args, kwargs, result, dt)
            return result

        span._bench_span = True
        span.__name__ = getattr(fn, "__name__", name)
        return span

    # --- what gets wrapped -------------------------------------------------

    def _newton(self, importer: str, fn: Callable) -> Callable:
        """newton_solve as ``importer`` sees it; its F and J belong to the importer."""
        counts, layer = self.counts, LAYER_OF_MODULE[importer]

        def traced_callbacks(F, x0, cfg, jacobian=None):
            def F_counted(x):
                counts["numerics.newton.residual_evals"] += 1
                return F(x)

            if jacobian is None:
                counts["numerics.newton.fd_jacobian_solves"] += 1
            else:
                jacobian = self.wrap(f"{layer}.newton_jacobian", jacobian)
            try:
                result = fn(self.wrap(f"{layer}.newton_residual", F_counted), x0, cfg,
                            jacobian)
            except (lcsdyn.NewtonError, lcsdyn.RegularityError):
                counts["numerics.newton.failures"] += 1
                raise
            counts["numerics.newton.iters"] += result.iterations
            return result

        return self.wrap("numerics.newton_solve", traced_callbacks)

    def _post_for(self, fn: Callable) -> Callable | None:
        """Counters read from the arguments and results of selected calls."""
        counts, name = self.counts, fn.__name__
        if name == "rk4_integrate":
            return lambda a, kw, res, dt: counts.update(
                {"continuous.rk4.steps": len(res) - 1})
        if name == "integrate":
            def post(a, kw, traj, dt):
                counts["variational.steps"] += len(traj.steps)
                counts["variational.march_s"] += dt
                counts["atlas.chart_switches"] += traj.n_switches()
            return post
        if name in ("dlcel_step", "del_step"):
            def post(a, kw, res, dt):
                counts["variational.steps"] += 1
                counts["variational.march_s"] += dt
            return post
        if name == "integrate_hamiltonian":
            signature = inspect.signature(fn)

            def post(a, kw, traj, dt):
                bound = signature.bind(*a, **kw)
                bound.apply_defaults()
                if bound.arguments["conformal"]:
                    counts["hamiltonian_discrete.pair_steps"] += len(traj.steps)
                    counts["hamiltonian_discrete.pair_s"] += dt
            return post
        if name in ("rdlch_step", "ldlch_step"):
            def post(a, kw, res, dt):
                counts["hamiltonian_discrete.pair_steps"] += 1
                counts["hamiltonian_discrete.pair_s"] += dt
            return post
        if name == "momenta_along_trajectory":
            def post(a, kw, traj, dt):
                counts["hamiltonian_discrete.momenta_points"] += len(traj.points)
                counts["hamiltonian_discrete.momenta_s"] += dt
            return post
        if name.startswith("check_"):
            return lambda a, kw, entry, dt: counts.update(
                {f"verification.{entry['name']}.s": dt})
        return None

    def _factory(self, name: str, fn: Callable, rewrap: Callable) -> Callable:
        """A span around a constructor whose result, when it leaves the
        constructor's layer, is replaced by ``rewrap(result)``."""
        layer = LAYER_OF_MODULE[fn.__module__]
        traced = self.wrap(f"{layer}.{name}", fn)

        def factory(*args, **kwargs):
            result = traced(*args, **kwargs)
            return result if self.layer_now() == layer else rewrap(result)

        factory._bench_span = True
        return factory

    def wrap_ld(self, Ld):
        parts = {p: self.wrap(f"discretize.{p}", getattr(Ld, p)) for p in LD_PARTS}
        return dataclasses.replace(Ld, **parts)

    def wrap_system(self, system):
        def chart(c):
            kw = {f: self.wrap(f"atlas.{f}", getattr(c, f))
                  for f in ("sigma", "sigma_grad", "sigma_hess")
                  if getattr(c, f) is not None}
            return dataclasses.replace(c, **kw)

        def transition(t):
            return dataclasses.replace(
                t, forward=self.wrap("atlas.transition_forward", t.forward),
                jacobian=self.wrap("atlas.transition_jacobian", t.jacobian))

        new_atlas = atlas.ConformalAtlas(
            charts=tuple(chart(c) for c in system.atlas.charts),
            transitions=tuple(transition(t) for t in system.atlas.transitions))
        return dataclasses.replace(system, atlas=new_atlas)

    def _traced_function(self, module, fn: Callable) -> Callable:
        name = fn.__name__
        if name == "newton_solve":
            return self._newton(module.__name__, fn)
        if id(fn) not in self._wrapped:
            if name in FIELD_FACTORIES:
                span_name = FIELD_FACTORIES[name]
                traced = self._factory(name, fn, lambda f: self.wrap(span_name, f))
            elif name in LD_FACTORIES:
                traced = self._factory(name, fn, self.wrap_ld)
            elif name in SYSTEM_FACTORIES:
                traced = self._factory(name, fn, self.wrap_system)
            else:
                traced = self.wrap(f"{LAYER_OF_MODULE[fn.__module__]}.{name}", fn,
                                   self._post_for(fn))
            self._wrapped[id(fn)] = traced
        return self._wrapped[id(fn)]

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self.active = True
        for cls, names in METHODS:
            layer = LAYER_OF_MODULE[cls.__module__]
            for attr in names:
                self._patch(cls, attr, self.wrap(f"{layer}.{attr}", getattr(cls, attr)))
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ in LAYER_OF_MODULE):
                    self._patch(module, attr, self._traced_function(module, obj))

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self._wrapped.clear()

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as ``{name: (value, unit)}``.

        Ratios whose base is zero (a layer that does not run) read 0.
        """
        stats, counts = self.stats, self.counts

        def calls(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

        def incl(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

        def self_s(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

        def busy(layer):
            return sum(s[2] for n, s in stats.items() if n.split(".", 1)[0] == layer)

        def ratio(a, b):
            return a / b if b else 0.0

        ld = [f"discretize.{p}" for p in LD_PARTS]
        rk4_steps = counts["continuous.rk4.steps"]
        iters = counts["numerics.newton.iters"]
        solves = calls("numerics.newton_solve")
        var_steps = counts["variational.steps"]
        pair_steps = counts["hamiltonian_discrete.pair_steps"]
        inversions = ("hamiltonian_discrete.invert_right",
                      "hamiltonian_discrete.invert_left")
        fields = ("continuous.lcel_field", "continuous.lcshe_field")
        per_pass = {
            "continuous.lcel_field.calls": (calls(fields[0]), "count"),
            "continuous.lcshe_field.calls": (calls(fields[1]), "count"),
            "continuous.rk4.steps": (rk4_steps, "count"),
            "continuous.busy_s": (busy("continuous"), "s"),
            "numerics.newton.solves": (solves, "count"),
            "numerics.newton.iters": (iters, "count"),
            "numerics.newton.fd_jacobian_solves":
                (counts["numerics.newton.fd_jacobian_solves"], "count"),
            "numerics.newton.failures": (counts["numerics.newton.failures"], "count"),
            "numerics.busy_s": (busy("numerics"), "s"),
            **{f"{n}.calls": (calls(n), "count") for n in ld},
            "discretize.busy_s": (busy("discretize"), "s"),
            "atlas.sigma.calls": (calls("atlas.sigma"), "count"),
            "atlas.grad.calls": (calls("atlas.grad"), "count"),
            "atlas.transition.calls": (calls("atlas.transition_forward",
                                             "atlas.transition_jacobian"), "count"),
            "atlas.chart_switches": (counts["atlas.chart_switches"], "count"),
            "atlas.busy_s": (busy("atlas"), "s"),
            "variational.steps": (var_steps, "count"),
            "variational.busy_s": (busy("variational"), "s"),
            "hamiltonian_discrete.pair_steps": (pair_steps, "count"),
            "hamiltonian_discrete.inversions": (calls(*inversions), "count"),
            "hamiltonian_discrete.busy_s": (busy("hamiltonian_discrete"), "s"),
            "forms.busy_s": (busy("forms"), "s"),
            **{f"verification.{c}.s": (counts[f"verification.{c}.s"], "s")
               for c in VERIFY_CHECKS},
            "cli.busy_s": (busy("cli"), "s"),
        }
        out = {name: (value / passes, unit) for name, (value, unit) in per_pass.items()}
        out.update({
            "continuous.lcel_field.us": (1e6 * ratio(incl(fields[0]), calls(fields[0])), "us"),
            "continuous.lcshe_field.us":
                (1e6 * ratio(incl(fields[1]), calls(fields[1])), "us"),
            "continuous.rk4.self_us_per_step":
                (1e6 * ratio(self_s("continuous.rk4_integrate"), rk4_steps), "us"),
            "numerics.newton.iters_per_solve": (ratio(iters, solves), "ratio"),
            "numerics.newton.self_us_per_iter":
                (1e6 * ratio(self_s("numerics.newton_solve"), iters), "us"),
            "numerics.newton.residual_evals_per_iter":
                (ratio(counts["numerics.newton.residual_evals"], iters), "ratio"),
            "discretize.ld.us": (1e6 * ratio(self_s(*ld), calls(*ld)), "us"),
            "discretize.ld_calls_per_step":
                (ratio(calls(*ld), var_steps + pair_steps), "ratio"),
            "atlas.sigma_evals_per_ld_call": (ratio(calls("atlas.sigma"), calls(*ld)),
                                              "ratio"),
            "variational.step_us":
                (1e6 * ratio(counts["variational.march_s"], var_steps), "us"),
            "variational.self_us_per_step":
                (1e6 * ratio(busy("variational"), var_steps), "us"),
            "hamiltonian_discrete.pair_step_us":
                (1e6 * ratio(counts["hamiltonian_discrete.pair_s"], pair_steps), "us"),
            "hamiltonian_discrete.inversion_us":
                (1e6 * ratio(incl(*inversions), calls(*inversions)), "us"),
            "hamiltonian_discrete.momenta_fill_us_per_point":
                (1e6 * ratio(counts["hamiltonian_discrete.momenta_s"],
                             counts["hamiltonian_discrete.momenta_points"]), "us"),
        })
        return out
