"""Arrival-window propagation and boundary checking.

Two timing views live here: the traditional one (all flip-flops present,
minimum period = worst register-to-register path) and the placed one,
where removed flip-flops act as anchor points, e.w of them on edge e,
each shifting the time reference by one period, and inserted sequential
delay units resynchronize fast signals.  propagate_windows sweeps the
placed gates once in topological order (latch units order it, flip-flop
units do not) and repeats the sweep to a bounded fixed point only on
cycles through latches; the order in which gates get their windows is
the row order of format_report.  Each call resolves every connection's
decision and anchor count once, into a table the sweep and the checks
read, and sorts with the graph's shared GateGraph.wave_order unless a
connection carries a flip-flop unit.  ArrivalWindow is a named tuple
(s, s_prime).
propagate_windows and format_report run with Python's cyclic garbage
collector paused (netlist.nogc says why).

The placement container types (EdgeDecision, OptimizedCircuit) are
defined here so that both the optimizer and the independent wave
simulator can use them without depending on each other.
"""

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .netlist import nogc, topological_order


class ArrivalWindow(NamedTuple):
    s: float        # latest arrival
    s_prime: float  # earliest arrival


@dataclass(frozen=True)
class Violation:
    node: object    # node name or edge key
    kind: str       # setup | hold | non_interference | latch_region
    margin: float   # negative slack

    def __post_init__(self):
        assert self.margin < 0


@dataclass
class EdgeDecision:
    """Resolved decision for one gate-output connection: buffer delay
    and the sequential unit if any."""
    xi: float = 0.0
    unit: str = "none"   # none | flipflop | latch
    n_cycle: int = 0
    phi: float = 0.0


@dataclass
class OptimizedCircuit:
    """A gate graph with all removable flip-flops taken out, each an
    anchor on its edge (e.w anchors on edge e), plus per-edge decisions
    and possibly re-sized gate delays."""
    graph: object                    # netlist.GateGraph
    decisions: dict = field(default_factory=dict)   # edge key -> EdgeDecision
    gate_delays: dict = field(default_factory=dict)  # gate -> chosen delay

    def decision(self, e):
        return self.decisions.get(edge_key(e)) or EdgeDecision()

    def anchors(self, e):
        return e.w

    def delay(self, gate):
        return self.gate_delays.get(gate, self.graph.gates[gate].d)


# (src, dst, dst_pin) of a netlist.GGEdge, read by index: on a named
# tuple that is faster than by field name
edge_key = itemgetter(0, 1, 3)


def as_placed(graph):
    """Wrap a gate graph as a placement with every collapsed flip-flop
    removed (pure anchors, no units) and library-declared delays."""
    return OptimizedCircuit(graph)


# -- traditional STA --------------------------------------------------------

def traditional_min_period(c):
    """Worst register-to-register delay t_cq + gate delays + t_su, with
    all flip-flops present and no guard bands (plain path arithmetic)."""
    # best[n]: longest combinational delay from n's output to any
    # capturing flip-flop or output; every gate that reads a gate comes
    # later in gate order, so the reverse pass raises best[gate] first
    inf = float("inf")
    best = {f.src: 0.0 for f in c.ffs.values()}
    best.update((src, 0.0) for _, src in c.outputs)
    for gate in reversed(c.gate_order()):
        g = c.gates[gate]
        longest = g.d + best.get(gate, -inf)
        for src in g.inputs:
            best[src] = max(best.get(src, -inf), longest)

    worst = max((best.get(n, -inf) for n in [*c.ffs, *c.inputs]),
                default=-inf)
    if worst == -inf:
        return 0.0
    p = c.ff_params
    return p.t_cq + worst + p.t_su


# -- placed-circuit window propagation --------------------------------------

def launch_window(cfg, p):
    """The window a launching terminal drives its connections with."""
    return ArrivalWindow(p.t_cq * cfg.r_u, p.t_cq * cfg.r_l)


def unit_region_checks(win, dec, cfg, p, key):
    """Violations of setup/hold-style checks of the unit's input against
    its capture region; separate from window transfer because a unit's
    output does not depend on its input (loops are legal through units)."""
    T, eps = cfg.T, cfg.eps
    violations = []
    s, sp = win.s, win.s_prime
    if dec.unit == "flipflop":
        lo = dec.n_cycle * T + dec.phi + p.t_h * cfg.r_u
        hi = (dec.n_cycle + 1) * T + dec.phi - p.t_su * cfg.r_u
        if s > hi + eps:
            violations.append(Violation(key, "setup", hi - s))
        if sp < lo - eps:
            violations.append(Violation(key, "hold", sp - lo))
    elif dec.unit == "latch":
        start = dec.n_cycle * T + dec.phi
        opens = start + cfg.duty * T
        lo = start + p.t_h * cfg.r_u
        hi = start + T - p.t_su * cfg.r_u
        # the fast signal must land in the non-transparent region; the
        # slow one anywhere within the unit's cycle
        if sp < lo - eps:
            violations.append(Violation(key, "latch_region", sp - lo))
        if sp > opens + eps:
            violations.append(Violation(key, "latch_region", opens - sp))
        if s > hi + eps:
            violations.append(Violation(key, "latch_region", hi - s))
    return violations


def _edge_window(win, dec, lam, cfg, p):
    """Window transfer of one connection: the source's sequential unit
    (if any), then the destination's input buffer, then anchor shifts."""
    T, eps = cfg.T, cfg.eps
    s = win.s
    sp = win.s_prime
    if dec.unit == "flipflop":
        s = (dec.n_cycle + 1) * T + dec.phi + p.t_cq * cfg.r_u
        sp = (dec.n_cycle + 1) * T + dec.phi + p.t_cq * cfg.r_l
    elif dec.unit == "latch":
        opens = dec.n_cycle * T + dec.phi + cfg.duty * T
        sp = opens + p.t_cq * cfg.r_l if sp <= opens + eps else sp + p.t_dq * cfg.r_l
        s = opens + p.t_cq * cfg.r_u if s <= opens + eps else s + p.t_dq * cfg.r_u
    s = s + dec.xi * cfg.r_u
    sp = sp + dec.xi * cfg.r_l
    return ArrivalWindow(s - lam * T, sp - lam * T)


@nogc
def propagate_windows(placed, cfg):
    """Forward arrival-window propagation over the placed circuit.

    Returns (windows, violations).  The windows map holds one entry per
    node (keyed by name, after the node's own gate delay) and one per
    connection (keyed by (src, dst, pin), after buffer/unit/anchor
    processing, i.e. at the destination pin).  Gates are swept once in
    topological order over every connection except flip-flop units,
    whose output ignores their input; only gates on cycles through
    latch units are swept again, to a bounded fixed point.  Gates enter
    the map in the order they first got a window, which is the order
    format_report lists them in.
    """
    g = placed.graph
    p = g.circuit.ff_params
    violations = []
    windows = {}
    launch = launch_window(cfg, p)
    for t, kind in g.terminals.items():
        if kind in ("input", "bff"):
            windows[t] = launch
    # a unit whose source has no window yet is taken as opaque: exact
    # for a flip-flop, refined by the next sweep for a latch on a cycle
    assumed_early = ArrivalWindow(float("-inf"), float("-inf"))

    # every connection resolved once: destination -> (source gate, or
    # None for a launching terminal, key, decision, anchor count) in
    # in_edges order, and the unit-bearing ones in edge order
    unplaced = EdgeDecision()
    into, units = {}, []
    for e in g.edges:
        k = edge_key(e)
        src = e.src if e.src in g.gates else None
        dec = placed.decisions.get(k) or unplaced
        into.setdefault(e.dst, []).append((src, k, dec, e.w))
        if dec.unit != "none":
            units.append((src, k, dec))

    def contributions(node):
        """Windows at node's input pins, or None while the source of a
        unit-free connection has no window yet."""
        outs = []
        for src, k, dec, lam in into.get(node, ()):
            sw = launch if src is None else windows.get(src)
            if sw is None:
                if dec.unit == "none":
                    return None
                sw = assumed_early
            w = windows[k] = _edge_window(sw, dec, lam, cfg, p)
            outs.append(w)
        return outs

    if any(dec.unit == "flipflop" for _, _, dec in units):
        order, stuck = topological_order(
            {n: [src for src, _, dec, _ in into.get(n, ())
                 if src is not None and dec.unit != "flipflop"]
             for n in g.gates})
    else:
        order, stuck = g.wave_order
    sinks = [t for t, kind in g.terminals.items()
             if kind in ("output", "bff") and t in into]
    # one sweep is exact with nothing stuck; the cap bounds a latch cycle
    # whose windows never settle
    converged = False
    for _ in range(len(g.gates) + 3):
        changed = False
        for n in order + stuck:
            ws = contributions(n)
            if ws is None:
                continue
            if not ws:
                raise ValueError(f"gate {n} has no driven inputs")
            d = placed.delay(n)
            w = ArrivalWindow(max(x.s for x in ws) + d * cfg.r_u,
                              min(x.s_prime for x in ws) + d * cfg.r_l)
            if windows.get(n) != w:
                windows[n] = w
                changed = True
        if not (changed and stuck):
            converged = True
            break
    if any(n not in windows for n in stuck):
        raise ValueError("unresolved placement: combinational cycle without "
                         "a sequential delay unit")
    sink_windows = {}
    for t in sorted(sinks):
        ws = contributions(t)
        w = ArrivalWindow(max(x.s for x in ws), min(x.s_prime for x in ws))
        windows[t] = w
        sink_windows[t] = w

    for src, k, dec in units:
        sw = launch if src is None else windows.get(src)
        violations.extend(unit_region_checks(sw, dec, cfg, p, k))
        if not converged and dec.unit == "latch":
            violations.append(Violation(k, "latch_region", -1.0))

    violations.extend(check_boundary(sink_windows, cfg, p))

    # wave non-interference at every node, terminals included
    for node, w in windows.items():
        if not isinstance(node, str):
            continue
        gap = (w.s_prime + cfg.T) - (w.s + cfg.t_stable)
        if gap < -cfg.eps:
            violations.append(Violation(node, "non_interference", gap))

    return windows, violations


def check_boundary(windows, cfg, ff_params):
    """Setup/hold checks at boundary flip-flops (windows already shifted
    to the capture reference)."""
    out = []
    for node, w in windows.items():
        setup = cfg.T - (w.s + ff_params.t_su * cfg.r_u)
        if setup < -cfg.eps:
            out.append(Violation(node, "setup", setup))
        hold = w.s_prime - ff_params.t_h * cfg.r_u
        if hold < -cfg.eps:
            out.append(Violation(node, "hold", hold))
    return out


@nogc
def format_report(placed, windows, violations):
    """Text table, one row per named node: launch terminals by name, the
    gates in the order propagate_windows first gave them a window, then
    outputs by name.  Violations on a connection go to its destination."""
    g = placed.graph
    by_node = {}
    for v in violations:
        name = v.node if isinstance(v.node, str) else v.node[1]
        by_node.setdefault(name, []).append(v.kind)
    rows = ["node\ts\ts'\tviolations"]
    names = [t for t in sorted(g.terminals) if g.terminals[t] != "output"]
    names += [n for n in windows if n in g.gates]
    names += [t for t in sorted(g.terminals) if g.terminals[t] == "output"]
    for n in names:
        w = windows.get(n)
        if w is None:
            continue
        flags = ",".join(sorted(set(by_node.get(n, [])))) or "-"
        rows.append(f"{n}\t{w.s:.6g}\t{w.s_prime:.6g}\t{flags}")
    return "\n".join(rows) + "\n"
