"""Outside-in tracing: span wrappers around the layers' functions, and the
per-layer metrics derived from the spans.

Each wrapper replaces a name in the module where its caller looks it up,
records one span per call (start, end, parent span, op id, whether it
returned) and restores the original name on ``uninstall``.  Spans stay in
memory until the run ends.  Nothing in the program is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

LAYERS = ("curves", "mbvd", "network", "metrics", "fitting", "synthesis",
          "io_formats", "svgplot", "cli")

# Evaluations at which synthesize_ladder stops its search.
SYNTH_EVAL_CAP = 2000


def _points(args, kwargs, out):
    return len(args[1])


def _out_len(args, kwargs, out):
    return len(out)


def _text_len(args, kwargs, out):
    return len(args[0])


def _params(p):
    return (p.rm, p.lm, p.cm, p.c0, p.rs, p.ls, p.r0)


def _fit_params(args, kwargs, out):
    return _params(args[0])


def _fit_result(args, kwargs, out):
    return (out.iterations, _params(out.params))


def _evaluations(args, kwargs, out):
    return out.evaluations


# (module the caller looks the name up in, attribute, span name, info).
# The span name is "<layer>.<function>"; info extracts a number or tuple
# from a call that returned.
TARGETS = (
    ("curves", "validate_grid", "curves.validate_grid", None),
    ("mbvd", "validate_grid", "curves.validate_grid", None),
    ("network", "validate_grid", "curves.validate_grid", None),
    ("cli", "parse_grid_spec", "curves.parse_grid_spec", None),
    ("network", "resonator_admittance", "mbvd.resonator_admittance", None),
    ("fitting", "resonator_admittance", "mbvd.resonator_admittance", _fit_params),
    ("fitting", "summarize", "mbvd.summarize", None),
    ("network", "element_abcd", "network.element_abcd", None),
    ("network", "cascade", "network.cascade", None),
    ("network", "abcd_to_s", "network.abcd_to_s", None),
    ("synthesis", "build_ladder_response", "network.build_ladder_response", _points),
    ("cli", "build_ladder_response", "network.build_ladder_response", _points),
    ("cli", "one_port_s11", "network.one_port_s11", None),
    ("cli", "admittance_from_s11", "network.admittance_from_s11", None),
    ("cli", "shunt_series_shunt", "network.shunt_series_shunt", None),
    ("synthesis", "passband_metrics", "metrics.passband_metrics", None),
    ("cli", "passband_metrics", "metrics.passband_metrics", None),
    ("fitting", "initial_guess", "fitting.initial_guess", None),
    ("fitting", "fit_mbvd", "fitting.fit_mbvd", _fit_result),
    ("synthesis", "synthesize_ladder", "synthesis.synthesize_ladder", _evaluations),
    ("io_formats", "read_touchstone", "io_formats.read_touchstone", _text_len),
    ("io_formats", "write_touchstone", "io_formats.write_touchstone", _out_len),
    ("io_formats", "parse_design_text", "io_formats.parse_design_text", None),
    ("io_formats", "read_resonators", "io_formats.read_resonators", None),
    ("io_formats", "read_ladder_design", "io_formats.read_ladder_design", None),
    ("io_formats", "write_resonator", "io_formats.write_resonator", None),
    ("io_formats", "write_metrics_csv", "io_formats.write_metrics_csv", None),
    ("svgplot", "s21_magnitude_svg", "svgplot.s21_magnitude_svg", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_simulate", "cli.simulate", None),
    ("cli", "_cmd_metrics", "cli.metrics", None),
    ("cli", "_cmd_fit", "cli.fit", None),
    ("cli", "_cmd_sweep", "cli.sweep", None),
)


class Tracer:
    """Collects spans while ``recording`` is set; wrappers pass straight
    through otherwise, so checks run between ops are not attributed."""

    def __init__(self):
        # (span id, parent id or 0, op id, target index, t0, t1, returned, info)
        self.spans: list[tuple] = []
        self.recording = False
        self.op = -1
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _wrap(self, index, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op, index, t0, t1, False, None))
                raise
            t1 = perf_counter()
            stack.pop()
            spans.append((sid, parent, self.op, index, t0, t1, True,
                          info(args, kwargs, out) if info else None))
            return out

        return wrapper

    def install(self) -> None:
        for index, (module, attr, _, info) in enumerate(TARGETS):
            mod = importlib.import_module(f"acoufilt.{module}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(index, original, info))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"could not restore {mod.__name__}.{attr}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, index, t0, t1, ok, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": TARGETS[index][2], "site": TARGETS[index][0],
                                     "t0": t0, "t1": t1, "returned": ok}) + "\n")


def _accepted_steps(iterations: int, calls: list[tuple], final: tuple) -> int:
    """Accepted damped steps of one fit, seen from its residual evaluations.

    Every iteration evaluates a central-difference Jacobian at its base
    point (pairs of calls that differ in one parameter) and then trial
    steps until one lowers the cost.  All iterations but the last accepted
    a step; the last did too unless the fit ended at that iteration's base.
    """
    if iterations == 0:
        return 0
    for i in range(len(calls) - 1, 0, -1):
        differ = [k for k in range(len(final)) if calls[i][k] != calls[i - 1][k]]
        if len(differ) == 1:
            stalled = all(final[k] == calls[i][k] for k in range(len(final))
                          if k != differ[0])
            return iterations - int(stalled)
    return iterations


def layer_metrics(spans: list[tuple], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op counts and self times per function and layer, plus ratios."""
    child_time: dict[int, float] = {}
    for sid, parent, _, _, t0, t1, _, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    names = sorted({t[2] for t in TARGETS})
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_failed = dict.fromkeys(LAYERS, 0)
    points = write_bytes = read_bytes = 0
    scored = evaluations = solves = capped = 0
    fits = iterations = residual_evals = accepted = trials = 0
    fit_calls: dict[int, list[tuple]] = {}
    fit_results: list[tuple] = []
    for sid, parent, _, index, t0, t1, ok, info in spans:
        site, _, name, _ = TARGETS[index]
        layer = name.split(".", 1)[0]
        own = (t1 - t0) - child_time.get(sid, 0.0)
        calls[name] += 1
        self_s[name] += own
        total_s[name] += t1 - t0
        layer_self[layer] += own
        if not ok:
            layer_failed[layer] += 1
            continue
        if name == "network.build_ladder_response":
            points += info
        elif name == "io_formats.write_touchstone":
            write_bytes += info
        elif name == "io_formats.read_touchstone":
            read_bytes += info
        elif name == "metrics.passband_metrics" and site == "synthesis":
            scored += 1
        elif name == "synthesis.synthesize_ladder":
            solves += 1
            evaluations += info
            capped += info >= SYNTH_EVAL_CAP
        elif name == "mbvd.resonator_admittance" and site == "fitting":
            fit_calls.setdefault(parent, []).append(info)
        elif name == "fitting.fit_mbvd":
            fit_results.append((sid, info))
    for sid, (its, final) in fit_results:
        evals = fit_calls.get(sid, [])
        fits += 1
        iterations += its
        residual_evals += len(evals)
        # Trial steps: all residual evaluations but the initial one and the
        # 12 per iteration that form the Jacobian of the 6 parameters.
        trials += len(evals) - 12 * its - 1
        accepted += _accepted_steps(its, evals, final)

    def ratio(a, b):
        return a / b if b else 0.0

    per_op = max(n_ops, 1)
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / per_op, "s")
        m[f"{layer}.failed"] = (layer_failed[layer] / per_op, "count")
    for name in ("curves.validate_grid", "mbvd.resonator_admittance",
                 "network.element_abcd", "network.cascade", "network.abcd_to_s",
                 "network.build_ladder_response", "metrics.passband_metrics"):
        m[f"{name}.calls"] = (calls[name] / per_op, "count")
        m[f"{name}.self_s"] = (self_s[name] / per_op, "s")
    for name in ("mbvd.summarize", "fitting.fit_mbvd", "fitting.initial_guess",
                 "synthesis.synthesize_ladder", "io_formats.write_touchstone",
                 "io_formats.read_touchstone", "svgplot.s21_magnitude_svg"):
        m[f"{name}.self_s"] = (self_s[name] / per_op, "s")
    for cmd in ("simulate", "metrics", "fit", "sweep"):
        m[f"cli.{cmd}.s"] = (total_s[f"cli.{cmd}"] / per_op, "s")
    m["network.points_per_s"] = (
        ratio(points, total_s["network.build_ladder_response"]), "1/s")
    m["io_formats.write_mb_per_s"] = (
        ratio(write_bytes / 1e6, total_s["io_formats.write_touchstone"]), "MB/s")
    m["io_formats.read_mb_per_s"] = (
        ratio(read_bytes / 1e6, total_s["io_formats.read_touchstone"]), "MB/s")
    m["fitting.iterations"] = (ratio(iterations, fits), "count")
    m["fitting.residual_evals"] = (ratio(residual_evals, fits), "count")
    m["fitting.step_accept_ratio"] = (ratio(accepted, trials), "ratio")
    m["synthesis.evals"] = (ratio(evaluations, solves), "count")
    m["synthesis.capped_ratio"] = (ratio(capped, solves), "ratio")
    # Each solve scores its evaluations plus one final re-evaluation of the
    # point it returns.
    m["synthesis.scored_ratio"] = (ratio(scored, evaluations + solves), "ratio")
    return m


def root_time(spans: list[tuple]) -> float:
    """Time covered by spans that have no parent span."""
    return sum(t1 - t0 for _, parent, _, _, t0, t1, _, _ in spans if not parent)
