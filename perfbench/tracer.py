"""Outside-in tracing of the lensdist layers.

``Tracer.install`` replaces public functions and methods of the package with
wrappers that record one span per call: (name, start, end, parent span, job
id), plus the exception class name when the call raised.  Spans stay in
memory and are written out once, after the traced phase.  A function the
package no longer has is skipped and reports zero calls.

Self time of a span is its duration minus the durations of its direct child
spans.  Derived counts are taken where the work happens: points and
points x stored monomials at ``ComplexPoly.evaluate``, iterations from the
``FitReport`` that ``calib.fit`` returns, residual evaluations as calls of
the family ``build`` methods (each residual evaluation builds the model
once), Levenberg-Marquardt steps by watching the residual function the solver
is handed, and Newton and line-search steps from the child spans of each
``warp.invert`` call.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric name, module, attribute path); "init" names wrap __init__.
TARGETS = (
    ("poly.ComplexPoly.init", "lensdist.poly", "ComplexPoly.__init__"),
    ("poly.ComplexPoly.evaluate", "lensdist.poly", "ComplexPoly.evaluate"),
    ("poly.ComplexPoly.to_real", "lensdist.poly", "ComplexPoly.to_real"),
    ("poly.ComplexPoly.rotated", "lensdist.poly", "ComplexPoly.rotated"),
    ("poly.RealPolyModel.isclose", "lensdist.poly", "RealPolyModel.isclose"),
    ("families.DistortionFunction.init", "lensdist.families", "DistortionFunction.__init__"),
    ("families.DistortionFunction.displacement", "lensdist.families", "DistortionFunction.displacement"),
    ("families.ModelSpace.init", "lensdist.families", "ModelSpace.__init__"),
    ("families.ModelSpace.member", "lensdist.families", "ModelSpace.member"),
    ("families.space_sum", "lensdist.families", "space_sum"),
    ("calib.fit", "lensdist.calib", "fit"),
    ("calib.compare", "lensdist.calib", "compare"),
    ("calib.sweep_axis_ratio", "lensdist.calib", "sweep_axis_ratio"),
    ("calib.synthesize", "lensdist.calib", "synthesize"),
    ("calib.project_points", "lensdist.calib", "project_points"),
    ("calib.numeric_jacobian", "lensdist.calib", "numeric_jacobian"),
    ("calib.parse_family", "lensdist.calib", "parse_family"),
    ("calib.LinearFamily.build", "lensdist.calib", "LinearFamily.build"),
    ("calib.SharedAxisFamily.build", "lensdist.calib", "SharedAxisFamily.build"),
    ("symmetry.classify", "lensdist.symmetry", "classify"),
    ("symmetry.reflection_symmetry", "lensdist.symmetry", "reflection_symmetry"),
    ("symmetry.is_isotropic", "lensdist.symmetry", "is_isotropic"),
    ("symmetry.structural_rsf", "lensdist.symmetry", "structural_rsf"),
    ("warp.invert", "lensdist.warp", "invert"),
    ("warp.jacobian", "lensdist.warp", "jacobian"),
    ("warp.apply_distortion", "lensdist.warp", "apply_distortion"),
    ("cli.main", "lensdist.cli", "main"),
)

# Not a span: the solver whose residual function is watched to count
# Levenberg-Marquardt step attempts and acceptances.
LM_SOLVER = ("lensdist.calib", "_levenberg_marquardt")

# (ratio, numerator, denominator, unit)
RATIOS = (
    ("calib.lm.accept_ratio", "calib.lm.accepted", "calib.lm.attempted", "ratio"),
    ("warp.newton_iters_per_point", "warp.newton_iters", "warp.inverted_points", "iter/point"),
    ("warp.line_search.accept_ratio", "warp.line_search.accepted", "warp.line_search.trials", "ratio"),
)
COUNTS = (
    "poly.ComplexPoly.evaluate.points",
    "poly.ComplexPoly.evaluate.term_points",
    "calib.fit.iterations",
    "calib.residual_evals",
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or None when it no longer exists."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        index = {name: i for i, name in enumerate(self.names)}
        self._index = index
        # Span columns, one entry per span in call order.
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.errors: dict[int, str] = {}
        self._child = array("d")
        self._stack: list[int] = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS + tuple(r[1] for r in RATIOS) + tuple(r[2] for r in RATIOS), 0)
        self.current_job = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            index["poly.ComplexPoly.evaluate"]: self._count_points,
            index["calib.fit"]: self._count_iterations,
        }
        self._nj = index["calib.numeric_jacobian"]

    # -- spans ------------------------------------------------------------

    def _wrap(self, i: int, fn):
        hook = self._hooks.get(i)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            span = len(self.name)
            self.name.append(i)
            self.parent.append(parent)
            self.job.append(self.current_job)
            self._child.append(0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.errors[span] = type(err).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.start[span] = start
                self.end[span] = end
                duration = end - start
                self.calls[i] += 1
                self.self_s[i] += duration - self._child[span]
                if parent >= 0:
                    self._child[parent] += duration
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_points(self, args, result) -> None:
        points = np.size(args[1])
        self.counts["poly.ComplexPoly.evaluate.points"] += points
        self.counts["poly.ComplexPoly.evaluate.term_points"] += points * len(args[0].terms)

    def _count_iterations(self, args, result) -> None:
        self.counts["calib.fit.iterations"] += result.iterations

    def _watch_lm(self, solver):
        counts = self.counts

        @functools.wraps(solver)
        def wrapper(*args, **kwargs):
            if not args or not callable(args[0]):
                return solver(*args, **kwargs)
            fun = args[0]
            current = []  # cost of the current iterate, once known

            def watched(x):
                r = fun(x)
                stack = self._stack
                if stack and self.name[stack[-1]] == self._nj:
                    return r
                cost = float(r @ r)
                if not current:
                    current.append(cost)
                else:
                    # The solver accepts a step exactly when its cost is
                    # finite and below the current cost.
                    counts["calib.lm.attempted"] += 1
                    if math.isfinite(cost) and cost < current[0]:
                        counts["calib.lm.accepted"] += 1
                        current[0] = cost
                return r

            return solver(watched, *args[1:], **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            # Modules that imported the function by name hold their own reference.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "lensdist" and mod is not owner:
                    for key, value in vars(mod).items():
                        if value is old:
                            targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, new)

    def install(self) -> None:
        self.missing = []
        for i, (name, module, path) in enumerate(TARGETS):
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            self._patch(owner, attr, self._wrap(i, getattr(owner, attr)))
        found = _resolve(*LM_SOLVER)
        if found is not None:
            self._patch(found[0], found[1], self._watch_lm(getattr(*found)))

    def uninstall(self) -> None:
        while self._patches:
            obj, key, old = self._patches.pop()
            setattr(obj, key, old)

    # -- results ----------------------------------------------------------

    def _invert_counts(self) -> None:
        """Newton and line-search counts from the child spans of each invert.

        Inside ``warp.invert`` every Newton iteration calls ``warp.jacobian``
        once and every residual, the initial one and one per line-search
        trial, calls ``DistortionFunction.displacement`` once.  A Newton
        iteration followed by trials ended with an accepted trial, except the
        last one of a call that raised.
        """
        inv = self._index["warp.invert"]
        jac = self._index["warp.jacobian"]
        disp = self._index["families.DistortionFunction.displacement"]
        groups: dict[int, list[int]] = {}  # invert span -> trials per iteration
        residuals: dict[int, int] = {}
        names, parents = self.name, self.parent
        for span in range(len(names)):
            name, parent = names[span], parents[span]
            if name == inv:
                groups[span] = []
                residuals[span] = 0
            elif parent >= 0 and names[parent] == inv:
                if name == jac:
                    groups[parent].append(0)
                elif name == disp:
                    residuals[parent] += 1
                    if groups[parent]:
                        groups[parent][-1] += 1
        counts = self.counts
        for span, trials in groups.items():
            accepted = sum(1 for t in trials if t)
            if span in self.errors and trials and trials[-1]:
                accepted -= 1
            counts["warp.inverted_points"] += 1
            counts["warp.newton_iters"] += len(trials)
            counts["warp.line_search.trials"] += max(residuals[span] - 1, 0)
            counts["warp.line_search.accepted"] += accepted

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        self._invert_counts()
        counts = self.counts
        idx = self._index
        counts["calib.residual_evals"] = (
            self.calls[idx["calib.LinearFamily.build"]]
            + self.calls[idx["calib.SharedAxisFamily.build"]]
        )
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
        for name in COUNTS:
            out[name] = (counts[name], "count")
        for ratio, num, den, unit in RATIOS:
            out[num] = (counts[num], "count")
            out[den] = (counts[den], "count")
            out[ratio] = (counts[num] / counts[den] if counts[den] else 0.0, unit)
        out["other.self_s"] = (traced_wall_s - sum(self.self_s), "s")
        out["trace.spans"] = (len(self.name), "count")
        out["trace.traced_wall_s"] = (traced_wall_s, "s")
        out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path: str) -> None:
        """Spans as columns of a compressed .npz, names and errors as JSON."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            meta=np.array(json.dumps({"names": self.names, "errors": self.errors})),
        )
