"""Circuit data model, netlist parser/serializer, and gate graph construction.

The netlist text format is line oriented, one statement per line:

    circuit <name>
    clock period=<float> [duty=<float>]
    ffparams tcq=<float> tsu=<float> th=<float> tdq=<float>
    input <name>
    output <name> from=<node>
    ff <name> from=<node> [boundary]
    gate <name> fn=<label> delay=<float> [lib=<f1,f2,...>] in=<node>[,...]

statements() reads it, and the placement files of optimizer as well:
`#` starts a comment, and a statement is its word, its names, then
key=value tokens.  An unknown statement or key, a missing key, a token
without '=' and a malformed or non-finite number (number()) each raise
a NetlistError that names its line.  parse_netlist checks each value
once, as it reads it; Circuit.validate checks names, references and
loops.

A gate's output net shares the gate's name.  Primary inputs and outputs
are modeled as boundary flip-flops sharing the circuit's FlipFlopParams.

parse_netlist and to_gate_graph run with Python's cyclic garbage
collector paused; nogc says why.
"""

import gc
import heapq
import math
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, wraps
from typing import NamedTuple


def nogc(func):
    """Decorate func to run with Python's cyclic garbage collector off.

    The passes it wraps (parse_netlist, to_gate_graph,
    sta.propagate_windows, sta.format_report and verify.simulate_waves)
    allocate tens of thousands of containers on a 1000-gate design and
    were measured to create no reference cycles, so the collections
    those allocations would trigger find nothing.  The collector's state
    is restored on return and on raise; when it is already off, func
    just runs.  A collector that another thread turns off while func
    runs is turned back on when func ends."""
    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class NetlistError(ValueError):
    """Raised for syntax or semantic errors; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class FlipFlopParams:
    t_cq: float = 3.0
    t_su: float = 1.0
    t_h: float = 1.0
    t_dq: float = 1.0


@dataclass(frozen=True)
class Config:
    """All knobs of the optimization flow.

    Defaults follow the experimental settings: guard bands 1.1/0.9,
    phases at quarter periods, delay bound starting at 7T/8 and stepping
    down by T/8, t_stable equal to one buffer delay.
    """

    T: float
    duty: float = 0.5
    r_u: float = 1.1
    r_l: float = 0.9
    phases: tuple = None
    t_stable: float = None
    alpha: float = 100.0
    beta: float = 10.0
    gamma: float = 10.0
    dth_schedule: tuple = None
    big_M: float = None
    eps: float = 1e-9
    buffer_delay: float = 1.0
    replace_threshold: float = None
    milp_nodes: int = 200000
    milp_time_ms: int = 120000

    def __post_init__(self):
        T = self.T
        if self.phases is None:
            object.__setattr__(self, "phases", (0.0, T / 4, T / 2, 3 * T / 4))
        if self.t_stable is None:
            object.__setattr__(self, "t_stable", self.buffer_delay)
        if self.dth_schedule is None:
            sched = tuple(k * T / 8 for k in range(7, 0, -1)) + (0.0,)
            object.__setattr__(self, "dth_schedule", sched)
        if self.big_M is None:
            object.__setattr__(self, "big_M", 8 * T)
        if self.replace_threshold is None:
            object.__setattr__(self, "replace_threshold", 0.5 * T)
        self.validate()

    def validate(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("clock period must be positive and finite")
        for name in ("alpha", "beta", "gamma", "buffer_delay", "t_stable",
                     "replace_threshold", "big_M"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(map(math.isfinite, self.dth_schedule)):
            raise ValueError("dth_schedule entries must be finite")
        if self.t_stable < 0:
            raise ValueError("t_stable must be >= 0")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("eps must be finite and >= 0")
        if self.buffer_delay <= 0:
            raise ValueError("buffer_delay must be positive")
        if not (0 < self.duty < 1):
            raise ValueError("duty cycle must be in (0,1)")
        if not (self.r_u >= 1 >= self.r_l > 0):
            raise ValueError("guard bands must satisfy r_u >= 1 >= r_l > 0")
        if not (self.phases and self.dth_schedule):
            raise ValueError("phases and dth_schedule must not be empty")
        for phi in self.phases:
            if not (0 <= phi < self.T):
                raise ValueError("phases must lie in [0, T)")
        if any(b >= a for a, b in zip(self.dth_schedule, self.dth_schedule[1:])):
            raise ValueError("dth_schedule must be strictly decreasing")
        if self.dth_schedule[-1] < 0:
            raise ValueError("dth_schedule entries must be >= 0")
        if self.big_M < 4 * self.T:
            raise ValueError("big_M must be at least 4*T")
        if not (self.milp_nodes >= 1 and self.milp_time_ms > 0):
            raise ValueError("milp_nodes must be >= 1 and milp_time_ms > 0")

    def fraction(self, value):
        """value as a fraction of T, rounded to 12 significant digits.
        with_period sets each knob that is a fraction of T to this
        fraction times the new T, and dividing that by the new T lands
        within a few ulps of the 12-digit fraction, far inside its
        rounding step: the fraction reads the same, bit for bit, at every
        step of a sweep, so a model moved along it keeps its matrix."""
        return float(f"{value / self.T:.12g}")

    def with_period(self, T):
        """Same configuration at a different clock period; knobs that are
        fractions of T (phases, delay-bound schedule, big_M, replacement
        threshold) scale along, absolute delays stay put."""
        def scaled(value):
            return self.fraction(value) * T

        return replace(self, T=T, phases=tuple(map(scaled, self.phases)),
                       dth_schedule=tuple(map(scaled, self.dth_schedule)),
                       big_M=scaled(self.big_M),
                       replace_threshold=scaled(self.replace_threshold))


@dataclass(frozen=True)
class Gate:
    name: str
    fn: str
    d: float
    lib: tuple
    inputs: tuple


@dataclass(frozen=True)
class FlipFlop:
    name: str
    src: str
    boundary: bool = False


@dataclass
class Circuit:
    """A gate-level netlist.  A Circuit is not mutated after validate: its
    gate order is computed once, on first use, and to_gate_graph hands
    every caller the same graph while one of them holds it.  The list
    and graph these return are shared and must not be mutated either."""
    name: str
    T: float
    duty: float
    ff_params: FlipFlopParams
    gates: dict
    ffs: dict
    inputs: list
    outputs: list  # (name, src) pairs

    def validate(self):
        names = [*self.gates, *self.ffs, *self.inputs]
        names += [n for n, _ in self.outputs]
        if len(set(names)) < len(names):
            seen = set()    # seen.add(n) is None: find the first repeat
            n = next(n for n in names if n in seen or seen.add(n))
            raise NetlistError(f"duplicate name {n!r}")
        refs = [r for g in self.gates.values() for r in g.inputs]
        refs += [f.src for f in self.ffs.values()]
        refs += [src for _, src in self.outputs]
        drivers = {*self.gates, *self.ffs, *self.inputs}
        if not drivers.issuperset(refs):
            r = next(r for r in refs if r not in drivers)
            raise NetlistError(f"undefined node reference {r!r}")
        self.gate_order()  # raises on a loop with no sequential element

    def gate_order(self):
        """Gates in topological order over gate-to-gate connections,
        smallest ready name first.  Raises NetlistError on a loop of
        gates, or of removable flip-flops with no gate on it (collapsing
        such a loop into edge weights would never end)."""
        return self._gate_order

    @cached_property
    def _gate_order(self):
        removable = {n for n, f in self.ffs.items() if not f.boundary}
        preds = {n: [s for s in g.inputs if s in self.gates]
                 for n, g in self.gates.items()}
        for n, f in self.ffs.items():
            if n in removable:
                preds[n] = [f.src] if f.src in removable else []
        order, stuck = topological_order(preds)
        if stuck:
            cycle = _cycle(preds, stuck)
            kind = ("combinational loop" if cycle[0] in self.gates
                    else "flip-flop loop without a gate")
            raise NetlistError(f"{kind} through " + " -> ".join(cycle))
        return [n for n in order if n in self.gates]


def topological_order(preds):
    """Kahn's algorithm over `node -> list of predecessors`, smallest
    ready node first, so the order is the lexicographically smallest
    topological one.  Every predecessor must itself be a key of preds.

    Returns (order, stuck): the ordered nodes, and the sorted nodes left
    out because they lie on or behind a cycle."""
    pending = {n: len(ps) for n, ps in preds.items()}
    succs = {}
    for n, ps in preds.items():
        for p in ps:
            succs.setdefault(p, []).append(n)
    ready = [n for n, k in pending.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succs.get(n, ()):
            pending[m] -= 1
            if pending[m] == 0:
                heapq.heappush(ready, m)
    return order, sorted(n for n, k in pending.items() if k)


def _cycle(preds, stuck):
    """A cycle among the stuck nodes of topological_order, as a node list
    that ends where it starts, each node followed by one of its
    predecessors.  Every stuck node has a stuck predecessor, so walking
    them from the smallest stuck node must revisit a node."""
    stuck_set = set(stuck)
    at, path, n = {}, [], stuck[0]
    while n not in at:
        at[n] = len(path)
        path.append(n)
        n = min(p for p in preds[n] if p in stuck_set)
    return path[at[n]:] + [n]


# statement -> (names, keys it must have, keys it may have); an ff may
# also end with the bare word `boundary`
NETLIST = {"circuit": (1, (), ()), "clock": (0, ("period",), ("duty",)),
           "ffparams": (0, ("tcq", "tsu", "th", "tdq"), ()),
           "input": (1, (), ()), "output": (1, ("from",), ()),
           "ff": (1, ("from",), ()),
           "gate": (1, ("fn", "delay", "in"), ("lib",))}


def statements(text, table, first=1):
    """Yield (line, tokens, keys) for each statement of text, numbering
    lines from first.  `#` starts a comment and blank lines are skipped.
    A statement is a word of table, the names it takes, then key=value
    tokens: tokens starts with the word and its names, and keys maps
    each key to its value text.  An ff's final `boundary` sets the key
    boundary.  An unknown statement, too few names, a token without '=',
    an unknown key or a missing one raises a NetlistError that names its
    line."""
    specs = {word: (n, frozenset(must), frozenset(must + may),
                    f"{word} needs " + " ".join(k + "=" for k in must))
             for word, (n, must, may) in table.items()}
    for line, raw in enumerate(text.splitlines(), first):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        word = toks[0]
        spec = specs.get(word)
        if spec is None:
            raise NetlistError(f"unknown statement {word!r}", line)
        n, must, known, needs = spec
        boundary = word == "ff" and toks[-1] == "boundary"
        if boundary:
            del toks[-1]
        if len(toks) <= n:
            raise NetlistError(f"too few fields in {word!r}", line)
        keys = {}
        for tok in toks[n + 1:]:
            key, eq, value = tok.partition("=")
            if not eq:
                raise NetlistError(f"expected key=value, got {tok!r}", line)
            if key not in known:
                unknown = {t.partition("=")[0] for t in toks[n + 1:]} - known
                raise NetlistError(f"unknown keys {sorted(unknown)}", line)
            keys[key] = value
        if not keys.keys() >= must:
            raise NetlistError(needs, line)
        if boundary:
            keys["boundary"] = ""
        yield line, toks, keys


def number(text, line=None, kind=float):
    """text as a finite float, or an int with kind=int; anything else
    raises a NetlistError naming line."""
    try:
        x = kind(text)
        if kind is int or math.isfinite(x):
            return x
    except ValueError:
        pass
    what = "number" if kind is float else "integer"
    raise NetlistError(f"{text!r} is not a finite {what}", line)


@nogc
def parse_netlist(text):
    """Parse the line format into a validated Circuit, with the cyclic
    garbage collector paused (nogc).  Each number is checked once, where
    it is read."""
    name = clock = None
    ffp = FlipFlopParams()
    gates, ffs, inputs, outputs = {}, {}, [], []
    for line, toks, kv in statements(text, NETLIST):
        word = toks[0]
        if word == "gate":
            d = number(kv["delay"], line)
            lib = (tuple(sorted([number(x, line)
                                 for x in kv["lib"].split(",")]))
                   if "lib" in kv else (d,))
            if d <= 0 or lib[0] <= 0:
                raise NetlistError("gate delay and lib entries must be > 0",
                                   line)
            gates[toks[1]] = Gate(toks[1], kv["fn"], d, lib,
                                  tuple(kv["in"].split(",")))
        elif word == "ff":
            ffs[toks[1]] = FlipFlop(toks[1], kv["from"], "boundary" in kv)
        elif word == "output":
            outputs.append((toks[1], kv["from"]))
        elif word == "input":
            inputs.append(toks[1])
        elif word == "clock":
            T = number(kv["period"], line)
            if T <= 0:
                raise NetlistError(f"clock period {T} must be finite and > 0",
                                   line)
            try:
                duty = number(kv.get("duty", "0.5"))
            except NetlistError:
                duty = math.nan     # reported as out of range below
            if not 0 < duty < 1:
                raise NetlistError(f"clock duty {kv['duty']} must be in "
                                   "(0, 1)", line)
            clock = T, duty, line
        elif word == "ffparams":
            values = [number(kv[k], line) for k in ("tcq", "tsu", "th", "tdq")]
            if min(values) < 0:
                raise NetlistError("flip-flop parameters must be >= 0", line)
            ffp = FlipFlopParams(*values)
        else:  # circuit
            name = toks[1]
    if name is None:
        raise NetlistError("no circuit declared")
    if clock is None:
        raise NetlistError("no clock declared")
    T, duty, line = clock
    # ffparams may follow the clock line, so the period is checked
    # against them here
    if ffp.t_su + ffp.t_h >= T:
        raise NetlistError(f"clock period {T} must be above t_su + t_h = "
                           f"{ffp.t_su + ffp.t_h}", line)
    c = Circuit(name, T, duty, ffp, gates, ffs, inputs, outputs)
    c.validate()
    return c


def _fmt(x):
    return repr(round(float(x), 9))


def serialize(c):
    """Render a Circuit back to netlist text (stable statement order)."""
    out = [f"circuit {c.name}",
           f"clock period={_fmt(c.T)} duty={_fmt(c.duty)}",
           "ffparams tcq={} tsu={} th={} tdq={}".format(
               _fmt(c.ff_params.t_cq), _fmt(c.ff_params.t_su),
               _fmt(c.ff_params.t_h), _fmt(c.ff_params.t_dq))]
    for n in c.inputs:
        out.append(f"input {n}")
    for g in c.gates.values():
        line = f"gate {g.name} fn={g.fn} delay={_fmt(g.d)}"
        if g.lib != (g.d,):
            line += " lib=" + ",".join(_fmt(x) for x in g.lib)
        line += " in=" + ",".join(g.inputs)
        out.append(line)
    for f in c.ffs.values():
        line = f"ff {f.name} from={f.src}"
        if f.boundary:
            line += " boundary"
        out.append(line)
    for n, src in c.outputs:
        out.append(f"output {n} from={src}")
    return "\n".join(out) + "\n"


# -- gate graph -------------------------------------------------------------

class GGEdge(NamedTuple):
    """Connection in the collapsed graph; w counts removable flip-flops
    that sat on this connection, dst_pin is the input pin index at dst
    (0 for flip-flop / output data pins).  A named tuple: immutable, and
    equal to a plain tuple of its fields."""
    src: str
    dst: str
    w: int
    dst_pin: int


@dataclass
class GateGraph:
    """Collapsed graph with an adjacency index built once at construction;
    `gates`, `terminals` and `edges` must not be mutated afterwards, and
    the lists that in_edges / out_edges return, and wave_order, are
    shared and must not be mutated either."""
    circuit: Circuit
    gates: dict          # name -> Gate, combinational nodes
    terminals: dict      # name -> kind in {"input", "output", "bff"}
    edges: list          # GGEdge list

    def __post_init__(self):
        # per-node edge lists, each in edge-list order
        self._in, self._out = {}, {}
        for e in self.edges:
            self._in.setdefault(e.dst, []).append(e)
            self._out.setdefault(e.src, []).append(e)

    def in_edges(self, node):
        return self._in.get(node, [])

    def out_edges(self, node):
        return self._out.get(node, [])

    def total_weight(self):
        return sum(e.w for e in self.edges)

    @cached_property
    def wave_order(self):
        """topological_order (order, stuck) of the gates over every
        gate-to-gate edge, flip-flop-weighted ones included: sorted once
        per graph, shared by every caller, and not to be mutated."""
        return topological_order(
            {n: [e.src for e in self.in_edges(n) if e.src in self.gates]
             for n in self.gates})


@nogc
def to_gate_graph(c):
    """Collapse removable (non-boundary) flip-flops into edge weights,
    with the cyclic garbage collector paused (nogc).

    While a caller holds the graph of c, every call returns that same
    graph.  The circuit keeps only a weak reference to it, since the
    graph's `circuit` points back at c.  Its zero-weight gate-to-gate
    edges are exactly the direct gate inputs that c.gate_order() sorts,
    so that order rejects a cycle of gates over them.  It also refuses a
    flip-flop loop with no gate, and so does the collapse itself, which
    walks at most len(c.ffs) flip-flops from any connection."""
    live = getattr(c, "_graph", None)
    gg = live() if live else None
    if gg is not None:
        return gg
    c.gate_order()
    gates = dict(c.gates)
    terminals = {}
    for n in c.inputs:
        terminals[n] = "input"
    for n, _ in c.outputs:
        terminals[n] = "output"
    for f in c.ffs.values():
        if f.boundary:
            terminals[f.name] = "bff"

    def resolve(ref):
        w = 0
        while ref in c.ffs and not c.ffs[ref].boundary:
            if w == len(c.ffs):
                # more steps than flip-flops: ref lies on a loop of them
                loop = [ref]
                while c.ffs[loop[-1]].src != ref:
                    loop.append(c.ffs[loop[-1]].src)
                i = loop.index(min(loop))
                loop = loop[i:] + loop[:i + 1]
                raise NetlistError("flip-flop loop without a gate through "
                                   + " -> ".join(loop))
            w += 1
            ref = c.ffs[ref].src
        return ref, w

    edges = []
    for g in c.gates.values():
        for pin, src in enumerate(g.inputs):
            root, w = resolve(src)
            edges.append(GGEdge(root, g.name, w, pin))
    for f in c.ffs.values():
        if f.boundary:
            root, w = resolve(f.src)
            edges.append(GGEdge(root, f.name, w, 0))
    for n, src in c.outputs:
        root, w = resolve(src)
        edges.append(GGEdge(root, n, w, 0))
    gg = GateGraph(c, gates, terminals, edges)
    if gg.total_weight() != sum(not f.boundary for f in c.ffs.values()):
        raise NetlistError("collapsed weights do not match removable FF count")
    c._graph = weakref.ref(gg)
    return gg
