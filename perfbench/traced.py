"""Run one segrecall entry point with a timing wrapper on every public function.

    python3 perfbench/traced.py SPANS.json cli ARGS...   # segrecall.cli.main(ARGS)
    python3 perfbench/traced.py SPANS.json step ARGS...  # perfbench/step.py main(ARGS)

Every attribute of a segrecall module that binds a public function is
replaced by a wrapper, re-imports included: ``fileio.validate_probmap`` is
wrapped as well as ``core.validate_probmap``, and both record spans named
after the defining module. Public methods of the package's classes are
wrapped too, and so is ``__post_init__``, where the array types make their
defensive copy.

A wrapper records one span per call: name, whether it ran on the main
thread, the enclosing span on the same thread (-1 at a thread's top level),
start and end, and the pixels (H*W of the first map argument or result) and
bytes (``nbytes`` of the arrays passed in or returned) it handled. Spans
stay in memory and are written to SPANS.json when the entry point returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time

import numpy as np

import segrecall

_spans: list = []
_lock = threading.Lock()
_local = threading.local()


def _array_of(value):
    if isinstance(value, np.ndarray):
        return value
    data = getattr(value, "data", None)
    return data if isinstance(data, np.ndarray) else None


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        span = [name, threading.current_thread() is threading.main_thread(),
                stack[-1] if stack else -1, time.perf_counter(), 0.0, 0, 0]
        with _lock:
            index = len(_spans)
            _spans.append(span)
        stack.append(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            values = (*args, *kwargs.values(), result)
            maps = [a for a in map(_array_of, values) if a is not None and a.ndim >= 2]
            span[5] = maps[0].shape[0] * maps[0].shape[1] if maps else 0
            span[6] = sum(v.nbytes for v in values if isinstance(v, np.ndarray))

    return wrapper


def install() -> None:
    """Wrap every public function binding and class method in the segrecall package."""
    modules = [segrecall] + [
        importlib.import_module(f"segrecall.{info.name}")
        for info in pkgutil.iter_modules(segrecall.__path__)
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__.startswith("segrecall"):
                short = value.__module__.removeprefix("segrecall.")
                setattr(module, attr, _wrap(value, f"{short}.{value.__qualname__}"))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                _wrap_methods(value, module.__name__.removeprefix("segrecall."))


def _wrap_methods(cls, short: str) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__post_init__":
            continue
        kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
        fn = value.__func__ if kind else value
        if inspect.isfunction(fn):
            wrapper = _wrap(fn, f"{short}.{fn.__qualname__}")
            setattr(cls, attr, kind(wrapper) if kind else wrapper)


def main() -> int:
    spans_path, entry, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    install()
    if entry == "cli":
        from segrecall import cli

        target = cli.main
    else:
        import step

        target = step.main
    code = 1
    try:
        code = target(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        fields = ("name", "main_thread", "parent", "start", "end", "pixels", "bytes")
        with open(spans_path, "w") as out:
            json.dump({"entry": entry, "argv": argv, "fields": fields, "spans": _spans}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
