"""Independent wave-based verification.

simulate_waves follows signal waves in one topological sweep, repeated
to a bounded fixed point only on cycles, sharing no propagation code
with sta.  Each call resolves every connection's decision and anchor
count once, in a table of its own, and sweeps in the graph's
GateGraph.wave_order, which is sorted once per graph and shared, so it
must not be mutated.  It runs with Python's cyclic garbage collector
paused (netlist.nogc says why).  Its report's windows, sta's
ArrivalWindow named tuples, are built when first read: check_equivalence
never reads them.
It works on two kinds of targets:

* a plain circuit: every flip-flop (including ones marked removable)
  behaves dynamically, capturing at whatever clock slot its input window
  lands in; capture cycles at the outputs define the reference behavior.
* a placed circuit: removed flip-flops are anchor points that shift the
  wave's reference cycle, inserted units capture at their resolved
  cycle/phase, and outputs must capture in slot zero.

A node waits until every connection into it carries a window.  The one
seeding rule, in simulate_waves' push: a connection through an inserted
unit whose source has no window yet starts from "no wave seen yet"
(_BOTTOM, reference offset 0), so a loop through a unit can start
flowing.  Nothing else is seeded, so a plain circuit's loop through a
removable flip-flop gets no window.

check_equivalence compares per-output capture-cycle offsets of the
placed circuit against the original circuit run at a period where it is
traditionally feasible.
"""

import math
from dataclasses import dataclass, field, replace

from .netlist import Circuit, nogc, to_gate_graph
from .sta import ArrivalWindow, EdgeDecision, Violation, edge_key, \
    traditional_min_period


@dataclass
class CaptureReport:
    """What simulate_waves saw.  windows, node or connection ->
    ArrivalWindow, is built from the simulation's window table when it
    is first read; repr and equality read it like any other field."""
    offsets: dict = field(default_factory=dict)   # sink -> sorted offsets
    violations: list = field(default_factory=list)
    converged: bool = True
    windows: dict = field(init=False)
    # node or connection -> (s, s', reference offsets)
    waves: dict = field(default_factory=dict, repr=False, compare=False)

    def __getattr__(self, name):
        # reached only while windows is unset: build it from waves
        if name != "windows":
            raise AttributeError(name)
        self.windows = {k: ArrivalWindow(s, sp)
                        for k, (s, sp, _) in self.waves.items()}
        return self.windows


_BOTTOM = (float("-inf"), float("-inf"))


def _capture_slot(s, sp, T, p, r_u, eps):
    """Clock slot m whose capture region contains the window, earliest
    legal slot when several fit, None when none does."""
    m_min = math.ceil((s + p.t_su * r_u - eps) / T) - 1
    m_max = math.floor((sp - p.t_h * r_u + eps) / T)
    if m_min > m_max:
        return None
    return m_min


def _dynamic_ff(s, sp, cfg, p, flag, key):
    """One real flip-flop: capture at the slot the window lands in, emit
    on the next edge.  The emission is folded back one period (and the
    wave reference bumped by the caller) so a loop's feedback, which a
    later wave consumes, lines up with the current wave's frame."""
    T = cfg.T
    slot = _capture_slot(s, sp, T, p, cfg.r_u, cfg.eps)
    flag(slot is None, key, "setup", -(s - sp if s > sp else T))
    if slot is None:
        slot = int(math.floor(s / T))  # keep going with a best guess
    t = slot * T
    return t + p.t_cq * cfg.r_u, t + p.t_cq * cfg.r_l


def _unit_transfer(s, sp, dec, cfg, p):
    T, eps = cfg.T, cfg.eps
    if dec.unit == "flipflop":
        t = (dec.n_cycle + 1) * T + dec.phi
        return t + p.t_cq * cfg.r_u, t + p.t_cq * cfg.r_l
    opens = dec.n_cycle * T + dec.phi + cfg.duty * T
    s2 = opens + p.t_cq * cfg.r_u if s <= opens + eps else s + p.t_dq * cfg.r_u
    sp2 = opens + p.t_cq * cfg.r_l if sp <= opens + eps else sp + p.t_dq * cfg.r_l
    return s2, sp2


@nogc
def simulate_waves(target, cfg):
    """Propagate wave windows and collect capture offsets (CaptureReport)."""
    placed = None if isinstance(target, Circuit) else target
    graph = to_gate_graph(target) if placed is None else placed.graph
    p = graph.circuit.ff_params
    T, eps = cfg.T, cfg.eps
    rep = CaptureReport()

    def flag(failed, node, kind, margin):
        if failed:
            rep.violations.append(Violation(node, kind, margin))

    # node or connection -> (s, s', reference offsets of its waves)
    launch = (p.t_cq * cfg.r_u, p.t_cq * cfg.r_l, frozenset([0]))
    win = rep.waves = {t: launch for t, kind in graph.terminals.items()
                       if kind in ("input", "bff")}

    # every connection resolved once, per destination in in_edges order:
    # (source gate or None for a launching terminal, key, decision or
    # None in a plain circuit, flip-flops or anchors crossed); and a
    # placement's unit-bearing connections in edge order
    unplaced = EdgeDecision()
    into, units = {}, []
    for e in graph.edges:
        k = edge_key(e)
        src = e.src if e.src in graph.gates else None
        if placed is None:
            dec, lam = None, e.w
        else:
            dec = placed.decisions.get(k) or unplaced
            lam = placed.lam.get(k, e.w)
            if dec.unit != "none":
                units.append((e.src, k, dec))
        into.setdefault(e.dst, []).append((src, k, dec, lam))

    def push(src, k, dec, lam):
        """Move the wave across one connection; returns its window, or
        None while it has none."""
        nonlocal changed
        if src is None:
            # terminals launch a fresh wave regardless of what they capture
            s, sp, rset = launch
        elif src in win:
            s, sp, rset = win[src]
        elif dec is not None and dec.unit != "none":
            # the seeding rule: a unit whose source has no window yet
            # starts from "no wave seen yet", so loops through it can flow
            s, sp, rset = *_BOTTOM, frozenset([0])
        else:
            return None
        if placed is None:
            for _ in range(lam):
                s, sp = _dynamic_ff(s, sp, cfg, p, flag, k)
        else:
            if dec.unit != "none":
                s, sp = _unit_transfer(s, sp, dec, cfg, p)
            s, sp = s + dec.xi * cfg.r_u - lam * T, sp + dec.xi * cfg.r_l - lam * T
        if lam:
            rset = frozenset(r + lam for r in rset)
        if win.get(k) != (s, sp, rset):
            win[k] = (s, sp, rset)
            changed = True
        return win[k]

    # flip-flop and unit edges order the sweep too: a wave crossing one
    # still depends on its source window
    order, stuck = graph.wave_order
    sinks = sorted(t for t, kind in graph.terminals.items()
                   if kind in ("output", "bff") and t in into)
    # one sweep is exact with nothing stuck; the cap is for a reference
    # set that grows around a unit on a cycle and never settles
    rep.converged = False
    for _ in range(len(graph.gates) + graph.total_weight() + 7):
        rep.violations.clear()  # report the last sweep's captures only
        changed = False
        for n in order + stuck + sinks:
            ws = [push(*x) for x in into.get(n, ())]
            if None in ws:
                continue
            s = max(w[0] for w in ws)
            sp = min(w[1] for w in ws)
            rset = ws[0][2]
            for w in ws[1:]:
                if w[2] != rset:
                    rset = rset | w[2]
            if n in graph.gates:
                d = placed.delay(n) if placed else graph.gates[n].d
                s, sp = s + d * cfg.r_u, sp + d * cfg.r_l
            if win.get(n) != (s, sp, rset):
                win[n] = (s, sp, rset)
                changed = True
        if not (changed and stuck):
            rep.converged = True
            break

    # unit capture-region checks against the settled input windows
    for src, k, dec in units:
        if src not in win:
            continue
        s, sp, _ = win[src]
        start = dec.n_cycle * T + dec.phi
        lo = start + p.t_h * cfg.r_u
        if dec.unit == "flipflop":
            hi = (dec.n_cycle + 1) * T + dec.phi - p.t_su * cfg.r_u
            flag(s > hi + eps, k, "setup", hi - s)
            flag(sp < lo - eps, k, "hold", sp - lo)
        else:
            opens = start + cfg.duty * T
            hi = start + T - p.t_su * cfg.r_u
            flag(sp < lo - eps, k, "latch_region", sp - lo)
            flag(sp > opens + eps, k, "latch_region", opens - sp)
            flag(s > hi + eps, k, "latch_region", hi - s)
            flag(not rep.converged, k, "latch_region", -1.0)

    # output captures
    for t in sinks:
        if t not in win:
            continue
        s, sp, rset = win[t]
        if placed:
            setup = T - (s + p.t_su * cfg.r_u)
            flag(setup < -eps, t, "setup", setup)
            hold = sp - p.t_h * cfg.r_u
            flag(hold < -eps, t, "hold", hold)
            offs = {r + 1 for r in rset}
        else:
            slot = _capture_slot(s, sp, T, p, cfg.r_u, eps)
            flag(slot is None, t, "setup", -(s - sp if s > sp else T))
            offs = set() if slot is None else {r + slot + 1 for r in rset}
        rep.offsets[t] = tuple(sorted(offs))

    # waves must not catch up with each other anywhere
    for node, (s, sp, _) in win.items():
        if isinstance(node, str):
            gap = (sp + T) - (s + cfg.t_stable)
            flag(gap < -eps, node, "non_interference", gap)
    return rep


def reference_config(orig, cfg):
    """Configuration for simulating the original circuit: its own period
    if traditionally feasible, else the traditional minimum, with exact
    delays (no guard bands)."""
    T_ref = max(orig.T, traditional_min_period(orig))
    return replace(cfg.with_period(T_ref), r_u=1.0, r_l=1.0, t_stable=0.0)


def check_equivalence(orig, opt, cfg):
    """Compare capture-cycle behavior of the placed (or retimed) circuit
    against the original; returns (equivalent, report_text).  Either
    simulation hitting its sweep cap fails the check."""
    ref = simulate_waves(orig, reference_config(orig, cfg))
    out = simulate_waves(opt, cfg)
    lines = []
    ok = True
    if ref.violations:
        ok = False
        lines.append(f"reference circuit itself fails timing: "
                     f"{[(v.node, v.kind) for v in ref.violations[:5]]}")
    if out.violations:
        ok = False
        lines.append(f"placed circuit fails timing: "
                     f"{[(v.node, v.kind) for v in out.violations[:5]]}")
    for side, rep in (("reference", ref), ("placed", out)):
        if not rep.converged:
            ok = False
            lines.append(f"{side} circuit simulation did not converge")
    sinks = sorted(set(ref.offsets) | set(out.offsets))
    for t in sinks:
        a = ref.offsets.get(t)
        b = out.offsets.get(t)
        mark = "ok" if a == b else "DIFF"
        if a != b:
            ok = False
        lines.append(f"{t}: reference captures wave n at cycle n+{a}, "
                     f"placed at n+{b} [{mark}]")
    return ok, "\n".join(lines) + "\n"
