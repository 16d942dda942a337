"""Call counts and self time for convolab's public functions, from outside.

The tracer wraps every public function of the library modules named in
``LAYERS`` (plus ``GridFunction`` construction and ``cli.main``) without
touching the library's source.  Several modules import library functions
by name (``from .grid import dft_pair``), so a wrapper is bound in place of
the original under every name, in every convolab module, that refers to it;
``uninstall`` puts every one of those bindings back.

Self time of a call is its wall time minus the wall time of the wrapped
calls made inside it, so the self times of one outermost call sum to its
wall time.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("grid", "fourier", "maximal", "spaces", "symbols", "limitops")
_MARK = "__bench_traced__"


def _maximal_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[1] if len(args) > 1 else "fast")


class Tracer:
    """Rebinds convolab's public functions to counting, timing wrappers."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self._stack: list = []  # [name, wall time of wrapped children]
        self._bindings: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn, suffix=None):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack

        def traced(*args, **kwargs):
            key = f"{name}.{suffix(args, kwargs)}" if suffix else name
            if stack:
                edges[stack[-1][0], key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[key] += dt - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dt

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _convolab_modules()
        targets = []  # (qualified name, original function, suffix)
        for layer in LAYERS:
            mod = sys.modules[f"convolab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    suffix = _maximal_mode if obj.__name__ == "maximal_function" else None
                    targets.append((f"{layer}.{attr}", obj, suffix))
        cli = sys.modules["convolab.cli"]
        targets.append(("cli.main", cli.main, None))
        for name, original, suffix in targets:
            wrapper = self._wrap(name, original, suffix)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        # GridFunction is a class every module shares; count its constructions
        grid_function = sys.modules["convolab.grid"].GridFunction
        init = grid_function.__init__
        self._bindings.append((grid_function, "__init__", init))
        grid_function.__init__ = self._wrap("grid.GridFunction", init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()


def _convolab_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "convolab" or name.startswith("convolab."))]


def leftover_wrappers() -> list[str]:
    """Names in convolab still bound to a tracer wrapper (empty when clean)."""
    found = []
    for mod in _convolab_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and getattr(vars(obj).get("__init__"), _MARK, False):
                found.append(f"{mod.__name__}.{attr}.__init__")
    return sorted(set(found))
