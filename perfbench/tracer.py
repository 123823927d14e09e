"""Span tracer that wraps functions of the p6tau package from outside it.

The package's modules import each other's functions by name (for example
``from .backlund import sigma_of`` in ``suites``), so patching the defining
module alone would miss most calls.  ``Tracer.install`` therefore rebinds
every attribute of every ``p6tau.*`` module that *is* a traced function, and
every entry of a module-level dict that is one (the ``SUITES`` registry), and
``uninstall`` puts the originals back.

Each call of a traced function records one span: label, start, end and the
enclosing traced span.  Spans stay in memory until ``summary`` aggregates
them.  Self time is a span's duration minus the time its child spans cover;
total time counts only the outermost call of a label, so recursion is not
counted twice.  Generator functions are counted as calls only, because their
work happens while the caller iterates.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array


class Tracer:
    def __init__(self, targets):
        """`targets` lists (label, module, attribute) triples, for example
        ("grassmann.expand_wedge", "p6tau.grassmann", "expand_wedge")."""
        self.labels = [label for label, _, _ in targets]
        self._targets = list(targets)
        self._index = {label: i for i, label in enumerate(self.labels)}
        self._observers = {}
        self._restore = []
        self.generator_calls = [0] * len(self.labels)
        # one entry per span
        self.span_label = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outermost = array("b")
        self._stack: list[int] = []
        self._active = [0] * len(self.labels)

    def observe(self, label: str, callback) -> None:
        """Call `callback(args, result)` after every call of `label`."""
        self._observers[self._index[label]] = callback

    # -- installation -------------------------------------------------------

    def _modules(self):
        """Every loaded module of the packages the targets belong to."""
        packages = {module.split(".")[0] for _, module, _ in self._targets}
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] in packages]

    def install(self) -> None:
        modules = self._modules()
        for idx, (label, module, attr) in enumerate(self._targets):
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                namespace = vars(mod)
                for name, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((namespace, name, original))
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is original:
                                value[key] = wrapper
                                self._restore.append((value, key, original))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._restore):
            namespace[name] = original
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, idx: int, fn):
        if inspect.isgeneratorfunction(fn):
            counts = self.generator_calls

            def counted(*args, **kwargs):
                counts[idx] += 1
                return fn(*args, **kwargs)

            return counted

        stack, active = self._stack, self._active
        labels, parents = self.span_label, self.span_parent
        starts, ends, outermost = self.span_start, self.span_end, self.span_outermost
        observers = self._observers
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(starts)
            labels.append(idx)
            parents.append(stack[-1] if stack else -1)
            outermost.append(active[idx] == 0)
            starts.append(0.0)
            ends.append(0.0)
            active[idx] += 1
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[idx] -= 1
                starts[span] = t0
                ends[span] = t1
            observer = observers.get(idx)
            if observer is not None:
                observer(args, result)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def durations(self, label: str) -> list[float]:
        """Durations of every span of `label`, in call order."""
        idx = self._index[label]
        return [self.span_end[s] - self.span_start[s]
                for s in range(len(self.span_label)) if self.span_label[s] == idx]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, self_s and total_s."""
        n = len(self.labels)
        calls = list(self.generator_calls)
        self_s = [0.0] * n
        total_s = [0.0] * n
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_time = [0.0] * len(durations)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += durations[span]
        for span, idx in enumerate(self.span_label):
            calls[idx] += 1
            self_s[idx] += durations[span] - child_time[span]
            if self.span_outermost[span]:
                total_s[idx] += durations[span]
        return {
            label: {"calls": calls[i], "self_s": self_s[i], "total_s": total_s[i]}
            for i, label in enumerate(self.labels)
        }

