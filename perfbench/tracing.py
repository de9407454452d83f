"""Span tracing of coopgrid's layers, done from outside the program.

While a :class:`Tracer` session is open, every public function of the
layer modules (``coopgrid.scenario``, ``lp``, ``dispatch``, ``game``,
``formation``, ``sim``, ``report``) is replaced by a wrapper that records
a span: name, parent span, start, end and the session (run id) it belongs
to.  Modules import each other's functions by name (``sim`` and ``game``
hold their own references to ``coalition_value``, ``characteristic_function``
and so on), so a function is replaced under every name that refers to it
in every loaded ``coopgrid`` module, not only in the module that defines
it.  Closing the session puts the originals back, so untraced runs pay
nothing.

Spans stay in memory and are written out once, by :meth:`Tracer.write`.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import uuid

LAYERS = ("scenario", "lp", "dispatch", "game", "formation", "sim", "report")

# Functions the per-layer metrics are derived from.  If a refactor removes
# or renames one, tracing must fail instead of reporting a silent zero.
REQUIRED = {
    "scenario": ("reference_scenario", "generate_synthetic_scenario",
                 "load_scenario", "validate_scenario", "slice_horizon"),
    "lp": ("solve_lp",),
    "dispatch": ("build_individual_lp", "build_coalition_lp",
                 "solve_individual_dispatch", "coalition_value"),
    "game": ("characteristic_function", "payoff_map", "shapley_value"),
    "formation": ("form_partition", "structure_value", "optimal_structure"),
    "sim": ("run", "step", "settle_step"),
    "report": ("write_reports",),
}

# span row layout: name, parent index (-1 for a root), start, end, session
NAME, PARENT, START, END, SESSION = range(5)


class CoverageError(RuntimeError):
    """A traced name is missing or a layer a workload must use saw no calls."""


def public_functions(module) -> dict:
    """Public plain functions defined in ``module``.

    Generator functions are left out: a span around the call would time
    only the creation of the generator, not the work it does.
    """
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)}


class Tracer:
    """Records spans around the public functions of coopgrid's layers.

    ``hooks`` maps a traced name such as ``"lp.solve_lp"`` to a callable
    ``hook(span_index, args, kwargs, result)`` run after each successful
    call; hooks are where counters that need the arguments or the result
    are kept.
    """

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.run_ids: list[str] = []
        self.hooks = dict(hooks or {})
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def session(self):
        """Install the wrappers under a fresh run id; restore the originals on exit."""
        self.run_ids.append(uuid.uuid4().hex)
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def enclosing(self, name: str) -> int:
        """Index of the innermost open span called ``name``, or -1."""
        for index in reversed(self._stack):
            if self.spans[index][NAME] == name:
                return index
        return -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [row[END] - row[START] for row in self.spans]
        for row in self.spans:
            if row[PARENT] >= 0:
                own[row[PARENT]] -= row[END] - row[START]
        return own

    def write(self, path, extra=None) -> None:
        doc = {"run_ids": self.run_ids,
               "fields": ["id", "parent", "name", "start", "end", "run_id"],
               "spans": [[i, row[PARENT], row[NAME], row[START], row[END],
                          self.run_ids[row[SESSION]]]
                         for i, row in enumerate(self.spans)]}
        doc.update(extra or {})
        path.write_text(json.dumps(doc) + "\n")

    def _install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "coopgrid" or name.startswith("coopgrid.")]
        for layer in LAYERS:
            module = importlib.import_module(f"coopgrid.{layer}")
            functions = public_functions(module)
            missing = [n for n in REQUIRED[layer] if n not in functions]
            if missing:
                raise CoverageError(f"coopgrid.{layer} has no public function(s) {missing}")
            for name, original in functions.items():
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in loaded:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def _uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        session = len(self.run_ids) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            row = [name, stack[-1] if stack else -1, 0.0, 0.0, session]
            spans.append(row)
            stack.append(index)
            row[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return traced

