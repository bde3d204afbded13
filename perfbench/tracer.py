"""Span tracer for the sprayform package, installed from outside it.

``Tracer.install`` wraps every public function and public method of each
``sprayform`` module, a few named private helpers, and every callable that
``expr.compile_exprs`` returns.  Each call records one span: name, start,
end, parent span, operation id, an optional work measure taken from the
arguments, and the exception type if the call raised.  A span's self time is
its duration minus the time covered by its child spans.

Every binding of a wrapped original is patched: module namespaces (``cli``
and ``scenarios`` import functions by name), class dictionaries and the
package namespace.  ``install`` fails loudly if an unwrapped original is
still reachable, because a layer would otherwise read zero without notice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

MODULES = ("expr", "tensor", "flow", "algebroid", "imform", "groupoid",
           "scenarios", "report", "cli")

# Private helpers whose cost a per-layer metric names.
PRIVATE = {
    "groupoid": {"_newton_composable"},
    "groupoid.MultFormEvaluator": {"_domega_fd"},
    "scenarios": {"_L_field_derivative"},
}

# Expression-node constructors and one-line delegations, called up to
# hundreds of thousands of times per run; a span each would cost more than
# the call.  Their time counts in the caller's self time.
UNWRAPPED = {
    "expr": {"const", "var", "add", "sub", "mul", "div", "neg", "pow_int"},
    "flow.FlowEngine": {"velocity", "velocity_jacobian"},
    "algebroid.SymbolicStructure": {"entry"},
}

# Field evaluators walk expression trees; nested calls inside them record no
# span, so their spans are the top-level tree evaluations.
FIELD_CLASSES = {"ScalarField", "VectorField", "FormField", "BivectorField",
                 "PolyVectorField"}

COMPILED = "expr.compiled"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(args, kwargs):
    """Rows of the point batch passed to a compiled callable."""
    Z = _arg(args, kwargs, 0, "Z")
    shape = Z.shape if isinstance(Z, np.ndarray) else np.shape(Z)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _flow_measure(args, kwargs):
    """(batch, steps, dim) of a FlowEngine solve."""
    engine = args[0]
    points = _arg(args, kwargs, 1, "points")
    nodes = _arg(args, kwargs, 2, "nodes")
    substeps = _arg(args, kwargs, 3, "substeps", 1)
    batch = int(np.atleast_2d(np.asarray(points)).shape[0])
    return batch, (len(nodes) - 1) * int(substeps), len(nodes), engine.dim


def _pullback_flops(args, kwargs):
    """Multiply-add count (2 per product) of ``tensor.pullback_full_batch``."""
    J = np.asarray(_arg(args, kwargs, 0, "J"))
    full = np.asarray(_arg(args, kwargs, 1, "full"))
    degree = int(_arg(args, kwargs, 2, "degree"))
    if degree == 0:
        return 0
    m, d = J.shape[-2], J.shape[-1]
    lead = np.broadcast_shapes(J.shape[:-2], full.shape[:full.ndim - degree])
    batch = int(np.prod(lead))
    per = {1: 2 * m * d,
           2: 2 * m * m * d + 2 * m * d * d,
           3: 2 * d * m ** 3 + 2 * d * d * m * m + 2 * d ** 3 * m}[degree]
    return batch * per


MEASURES = {
    "flow.FlowEngine.flow_with_jacobian": _flow_measure,
    "flow.FlowEngine.flow_on_grid": _flow_measure,
    "groupoid.multiply_poisson":
        lambda a, k: int(np.atleast_2d(np.asarray(_arg(a, k, 2, "a"))).shape[0]),
    "tensor.pullback_full_batch": _pullback_flops,
}


class Tracer:
    """Records spans while installed.

    ``begin_op`` sets the operation id of the spans that follow; ``clear``
    drops the recorded spans.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.quiet = True       # pass-through until installed
        self._patches = []      # (owner, attribute, original value)
        self._originals = {}    # id(original function) -> name

    # -- recording ----------------------------------------------------------

    def begin_op(self, op):
        self.op = op

    def clear(self):
        self.spans = []
        self.stack = []

    def _wrap(self, name, fn, measure=None, tree=False, post=None):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if tracer.quiet:
                return fn(*args, **kwargs)
            stack = tracer.stack
            spans = tracer.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0.0,
                   measure(args, kwargs) if measure else None, None]
            stack.append(len(spans))
            spans.append(rec)
            if tree:
                tracer.quiet = True
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return post(out) if post else out
            except BaseException as exc:
                rec[7] = type(exc).__name__
                raise
            finally:
                t1 = perf()
                if tree:
                    tracer.quiet = False
                stack.pop()
                rec[1], rec[2] = t0, t1
                if rec[3] >= 0:
                    spans[rec[3]][5] += t1 - t0

        functools.update_wrapper(traced, fn)
        traced.__sprayform_traced__ = True
        return traced

    def _compiled(self, fn):
        return self._wrap(COMPILED, fn, measure=_rows)

    # -- installation -------------------------------------------------------

    def _targets(self, mods):
        """(name, target, kind) for everything to wrap.

        ``target`` is the function for kind "function" and ``(cls, attr)``
        for kind "method".
        """
        expr_base = mods["expr"].Expr
        out = []
        for modname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if attr in UNWRAPPED.get(modname, ()):
                        continue
                    if not attr.startswith("_") or \
                            attr in PRIVATE.get(modname, ()):
                        out.append((f"{modname}.{attr}", obj, "function"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    out.extend(self._class_targets(modname, obj, expr_base))
        return out

    def _class_targets(self, modname, cls, expr_base):
        out = []
        private = PRIVATE.get(f"{modname}.{cls.__name__}", ())
        skip = UNWRAPPED.get(f"{modname}.{cls.__name__}", ())
        is_node = issubclass(cls, expr_base)
        for attr, val in vars(cls).items():
            if attr.startswith("__") or \
                    (attr.startswith("_") and attr not in private):
                continue
            if attr in skip or (is_node and attr != "eval"):
                continue  # node recursion (diff, variables) stays in callers
            if isinstance(val, (classmethod, staticmethod)) or \
                    inspect.isfunction(val):
                out.append((f"{modname}.{cls.__name__}.{attr}", (cls, attr),
                            "method"))
        return out

    def install(self):
        mods = {m: importlib.import_module(f"sprayform.{m}") for m in MODULES}
        expr_base = mods["expr"].Expr
        wrappers = {}   # id(original) -> wrapper
        for name, target, kind in self._targets(mods):
            if kind == "function":
                fn = target
                post = self._compiled if name == "expr.compile_exprs" else None
                wrappers[id(fn)] = self._wrap(name, fn, MEASURES.get(name),
                                              post=post)
                self._originals[id(fn)] = name
                continue
            cls, attr = target
            raw = vars(cls)[attr]
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
                else raw
            tree = (issubclass(cls, expr_base) and attr == "eval") or \
                (cls.__name__ in FIELD_CLASSES and attr == "at")
            wrapped = self._wrap(name, fn, MEASURES.get(name), tree)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._originals[id(fn)] = name
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        self.verify()
        self.quiet = False

    def uninstall(self):
        self.quiet = True
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def _package_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sprayform" or
                                      n.startswith("sprayform."))]

    def verify(self):
        """Raise if any wrapped original is still reachable from a namespace."""
        leaks = []

        def check(where, obj):
            if isinstance(obj, (classmethod, staticmethod)):
                obj = obj.__func__
            if id(obj) in self._originals and \
                    not getattr(obj, "__sprayform_traced__", False):
                leaks.append(f"{where} -> {self._originals[id(obj)]}")

        for mod in self._package_modules():
            for attr, obj in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                check(where, obj)
                if isinstance(obj, dict):
                    for key, val in obj.items():
                        check(f"{where}[{key!r}]", val)
                elif isinstance(obj, (list, tuple)):
                    for i, val in enumerate(obj):
                        check(f"{where}[{i}]", val)
                elif inspect.isclass(obj) and \
                        obj.__module__.startswith("sprayform"):
                    for cattr, val in vars(obj).items():
                        check(f"{where}.{cattr}", val)
        if leaks:
            self.uninstall()
            raise RuntimeError("tracer left originals unwrapped: " +
                               ", ".join(sorted(leaks)))
