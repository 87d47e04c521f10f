"""Per-layer tracing from outside the program.

Tracer.install() replaces wavetime's module-level public functions, by
name, with wrappers that record a span per call; remove() puts the
originals back.  Nothing in src/ changes.  Because the modules call each
other through module attributes and their own globals, the wrappers also
see calls made inside the program (run_flow -> milp.solve -> lp_solve).
A name that no longer exists is reported as absent instead of failing.

Spans are kept in memory and written out at the end.  A span's self time
is its duration minus the durations of its direct child spans.
"""

import contextlib
import functools
import json
import time

# module -> public functions wrapped, one layer per module
LAYERS = {
    "milp": ("solve", "lp_solve"),
    "vsmodel": ("build_relaxed_model", "build_cdq_model",
                "build_legalization_model", "decode_solution"),
    "optimizer": ("sweep_clock_period", "run_flow", "discretize_delays",
                  "replace_buffers", "placement_to_text",
                  "placement_from_text"),
    "sta": ("traditional_min_period", "as_placed", "propagate_windows",
            "format_report"),
    "verify": ("simulate_waves", "reference_config", "check_equivalence"),
    "netlist": ("parse_netlist", "serialize", "to_gate_graph"),
    "sdcgen": ("classify_paths", "find_differentiating_pins", "emit_sdc"),
}


class Tracer:
    """Collects spans, per-function call counts and self times, and the
    values that observers pull from return values."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.names = []                 # function index -> "module.func"
        self.ops = []                   # op index -> label
        self.spans = []                 # (op, function, start, end, parent)
        self.calls = {}
        self.self_s = {}
        self.absent = []
        self.observers = {}             # "module.func" -> callable(result)
        self._saved = []
        self._stack = []                # [span index, child seconds]
        self._op = -1
        self._t0 = time.perf_counter()

    def install(self):
        for layer, funcs in LAYERS.items():
            mod = self.modules[layer]
            for fn in funcs:
                orig = getattr(mod, fn, None)
                key = f"{layer}.{fn}"
                if not callable(orig):
                    self.absent.append(key)
                    continue
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(key, orig))

    def remove(self):
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()

    def op(self, label):
        """Start attributing spans to a new operation (one design)."""
        self.ops.append(label)
        self._op = len(self.ops) - 1
        return self.span("bench.op")

    @contextlib.contextmanager
    def span(self, key):
        """Record a span around a block of the benchmark's own code."""
        call = self._enter(self._index(key))
        try:
            yield
        finally:
            self._exit(key, call)

    def _index(self, key):
        if key not in self.calls:
            self.calls[key] = 0
            self.self_s[key] = 0.0
            self.names.append(key)
        return self.names.index(key)

    def _enter(self, idx):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return idx, parent, frame, time.perf_counter()

    def _exit(self, key, call):
        t1 = time.perf_counter()
        idx, parent, frame, t0 = call
        self._stack.pop()
        dur = t1 - t0
        self.spans[frame[0]] = (self._op, idx, t0 - self._t0, t1 - self._t0,
                                parent)
        self.calls[key] += 1
        self.self_s[key] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, key, fn):
        idx = self._index(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, call)
            observe = self.observers.get(key)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"functions": self.names, "ops": self.ops,
                       "span_fields": ["op", "function", "start_s", "end_s",
                                       "parent"],
                       "spans": [[o, f, round(a, 7), round(b, 7), p]
                                 for o, f, a, b, p in self.spans]}, fh)
