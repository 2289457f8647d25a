"""In-process tracing of the four sparselms modules, from outside the package.

:class:`Tracer` wraps public functions at the name each caller looks them
up by (``sparselms.simulate.step`` is the name ``run_trial`` calls,
``sparselms.cli.monte_carlo`` the one the CLI calls), records one span per
call -- name, start, end and parent span -- in flat arrays, and restores
the original functions on exit.  Nothing under ``src/`` changes.

Calls made in pool workers are not seen, since they run in other
processes; the benchmark traces those with a ``workers=1`` pass.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

from sparselms import cli, simulate, theory


def _taps(args, kwargs, result):
    return len(args[1])                   # step(state, x, d, params)


def _samples(args, kwargs, result):
    return np.size(args[1])               # ConvergenceModel.msd(self, n)


def _diverged(args, kwargs, result):
    return result.n_diverged


# span name -> (the (owner, attribute) names callers look up, counter, tally)
TARGETS = {
    "kernels.step": ([(simulate, "step")], "kernels.step.taps", _taps),
    "kernels.synth_output": ([(simulate, "synth_output")], None, None),
    "simulate.run_trial": ([(simulate, "run_trial")], None, None),
    "simulate.monte_carlo": ([(simulate, "monte_carlo"),
                              (cli, "monte_carlo")],
                             "simulate.diverged_trials", _diverged),
    "simulate.gen_system": ([(simulate, "gen_system")], None, None),
    "simulate.resolve_kappa": ([(simulate, "resolve_kappa"),
                                (cli, "resolve_kappa")], None, None),
    "theory.strengths": ([(theory, "strengths")], None, None),
    "theory.l0_steady_msd": ([(theory, "l0_steady_msd")], None, None),
    "theory.za_steady_msd": ([(theory, "za_steady_msd")], None, None),
    "theory.convergence_model": ([(theory, "convergence_model")],
                                 None, None),
    "theory.curve_eval": ([(theory.ConvergenceModel, "msd")],
                          "theory.curve_eval.samples", _samples),
    "cli.run_experiment": ([(cli, "run_experiment")], None, None),
}


class Tracer:
    """Context manager: while active, every call to a target records a span.

    Spans live in typed arrays (24 bytes each) until :meth:`save`, so a
    pass with a million step calls stays small in memory.
    """

    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {c: 0 for _, c, _ in TARGETS.values() if c}
        self._stack = [-1]
        self._saved = []

    def _wrap(self, nid: int, fn, counter, tally):
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tally is not None:
                counters[counter] += tally(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        # A name the program no longer has is skipped: its layer reads 0.
        for nid, (sites, counter, tally) in enumerate(TARGETS.values()):
            for owner, attr in sites:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(nid, fn, counter, tally))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def arrays(self) -> dict:
        """Spans as numpy arrays, plus each span's self time (its duration
        minus the durations of its direct children)."""
        name_id = np.frombuffer(self.name_id, dtype=np.intc).copy()
        parent = np.frombuffer(self.parent, dtype=np.intc).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has],
                            minlength=dur.size)
        return {"name_id": name_id, "parent": parent, "start": start,
                "end": end, "self": dur - child}

    def by_name(self) -> dict:
        """``{span name: (calls, busy seconds, self seconds)}``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        out = {}
        for nid, name in enumerate(self.names):
            m = a["name_id"] == nid
            out[name] = (int(m.sum()), float(dur[m].sum()),
                         float(a["self"][m].sum()))
        return out

    def save(self, path: Path) -> None:
        """Write the spans (self time is left out: it follows from them)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.arrays()
        del spans["self"]
        np.savez(path, names=np.array(self.names), **spans)


def layer_metrics(tracer: Tracer, tap_steps: int, counts: dict,
                  parallel_speedup: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``tap_steps`` is the pass's L*trials*steps from the workload
    definition; ``counts`` the file counts read back after the pass; the
    last two are measured by the caller from untraced passes.  A layer the
    workload does not exercise reports 0.
    """
    s = tracer.by_name()
    c = tracer.counters
    step_calls, step_busy, _ = s["kernels.step"]
    mc_calls, mc_busy, _ = s["simulate.monte_carlo"]
    curve_busy = s["theory.curve_eval"][1]
    taps = c["kernels.step.taps"]
    return {
        "kernels.step.calls": step_calls,
        "kernels.step.busy_s": step_busy,
        "kernels.step.ns_per_tap": step_busy * 1e9 / taps if taps else 0.0,
        "kernels.synth_output.calls": s["kernels.synth_output"][0],
        "kernels.synth_output.busy_s": s["kernels.synth_output"][1],
        "simulate.monte_carlo.calls": mc_calls,
        "simulate.monte_carlo.busy_s": mc_busy,
        "simulate.run_trial.calls": s["simulate.run_trial"][0],
        "simulate.run_trial.self_s": s["simulate.run_trial"][2],
        "simulate.ns_per_tap_step": (mc_busy * 1e9 / tap_steps
                                     if tap_steps else 0.0),
        "simulate.parallel_speedup": parallel_speedup,
        "simulate.gen_system.busy_s": s["simulate.gen_system"][1],
        "simulate.resolve_kappa.calls": s["simulate.resolve_kappa"][0],
        "simulate.resolve_kappa.busy_s": s["simulate.resolve_kappa"][1],
        "simulate.diverged_trials": c["simulate.diverged_trials"],
        "theory.strengths.calls": s["theory.strengths"][0],
        "theory.strengths.busy_s": s["theory.strengths"][1],
        "theory.l0_steady_msd.calls": s["theory.l0_steady_msd"][0],
        "theory.l0_steady_msd.busy_s": s["theory.l0_steady_msd"][1],
        "theory.convergence_model.calls": s["theory.convergence_model"][0],
        "theory.convergence_model.busy_s": s["theory.convergence_model"][1],
        "theory.curve_eval.samples": c["theory.curve_eval.samples"],
        "theory.curve_eval.busy_s": curve_busy,
        "cli.run_experiment.busy_s": s["cli.run_experiment"][1],
        "cli.self_s": s["cli.run_experiment"][2],
        "cli.csv_rows": counts.get("csv_rows", 0),
        "cli.csv_bytes": counts.get("csv_bytes", 0),
        "cli.files_written": counts.get("files_written", 0),
        "trace.overhead_s": overhead_s,
    }
