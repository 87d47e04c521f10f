"""Independent wave-based verification.

simulate_waves follows signal waves in one topological sweep, repeated
to a bounded fixed point only on cycles, sharing no propagation code
with sta.  It works on two kinds of targets:

* a plain circuit: every flip-flop (including ones marked removable)
  behaves dynamically, capturing at whatever clock slot its input window
  lands in; capture cycles at the outputs define the reference behavior.
* a placed circuit: removed flip-flops are anchor points that shift the
  wave's reference cycle, inserted units capture at their resolved
  cycle/phase, and outputs must capture in slot zero.

check_equivalence compares per-output capture-cycle offsets of the
placed circuit against the original circuit run at a period where it is
traditionally feasible.
"""

import math
from dataclasses import dataclass, field, replace

from .netlist import Circuit, to_gate_graph, topological_order
from .sta import ArrivalWindow, Violation, edge_key, traditional_min_period


@dataclass
class CaptureReport:
    offsets: dict = field(default_factory=dict)   # sink -> sorted offsets
    violations: list = field(default_factory=list)
    converged: bool = True
    windows: dict = field(default_factory=dict)


_BOTTOM = (float("-inf"), float("-inf"))


def _capture_slot(s, sp, T, p, r_u, eps):
    """Clock slot m whose capture region contains the window, earliest
    legal slot when several fit, None when none does."""
    m_min = math.ceil((s + p.t_su * r_u - eps) / T) - 1
    m_max = math.floor((sp - p.t_h * r_u + eps) / T)
    if m_min > m_max:
        return None
    return m_min


def _dynamic_ff(s, sp, T, p, cfg, violations, key):
    """One real flip-flop: capture at the slot the window lands in, emit
    on the next edge.  The emission is folded back one period (and the
    wave reference bumped by the caller) so a loop's feedback, which a
    later wave consumes, lines up with the current wave's frame."""
    slot = _capture_slot(s, sp, T, p, cfg.r_u, cfg.eps)
    if slot is None:
        violations.append(Violation(key, "setup",
                                    -(s - sp if s > sp else cfg.T)))
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


def simulate_waves(target, cfg):
    """Propagate wave windows and collect capture offsets (CaptureReport)."""
    placed_mode = not isinstance(target, Circuit)
    if placed_mode:
        graph = target.graph
        anchors = target.anchors
        decision = target.decision
        delay = target.delay
    else:
        graph = to_gate_graph(target)
        anchors = lambda e: 0
        decision = lambda e: None
        delay = lambda g: graph.gates[g].d
    p = graph.circuit.ff_params
    T = cfg.T

    rep = CaptureReport()
    win = {}
    refs = {}
    launch = (p.t_cq * cfg.r_u, p.t_cq * cfg.r_l)
    for t, kind in graph.terminals.items():
        if kind in ("input", "bff"):
            win[t] = launch
            refs[t] = frozenset([0])

    # provisional unit outputs so loops through units can start flowing;
    # a window of minus infinity means "no wave seen yet"
    for e in graph.edges:
        dec = decision(e)
        if dec is not None and dec.unit != "none":
            s, sp = _unit_transfer(*_BOTTOM, dec, cfg, p)
            lam = anchors(e)
            win[edge_key(e)] = (s + dec.xi * cfg.r_u - lam * T,
                                sp + dec.xi * cfg.r_l - lam * T)
            refs[edge_key(e)] = frozenset([lam])

    edge_violations = []

    def push(e):
        """Move the wave across one connection; returns True on change."""
        k = edge_key(e)
        if e.src in graph.gates:
            src = win.get(e.src)
            if src is None:
                return False
            s, sp = src
            rset = refs[e.src]
        else:
            # terminals launch a fresh wave regardless of what they capture
            s, sp = launch
            rset = frozenset([0])
        dec = decision(e)
        lam = anchors(e)
        if placed_mode:
            if dec.unit != "none":
                s, sp = _unit_transfer(s, sp, dec, cfg, p)
            s, sp = s + dec.xi * cfg.r_u - lam * T, sp + dec.xi * cfg.r_l - lam * T
            rset = frozenset(r + lam for r in rset)
        else:
            for _ in range(e.w):
                s, sp = _dynamic_ff(s, sp, T, p, cfg, edge_violations, k)
            rset = frozenset(r + e.w for r in rset)
        new = (s, sp)
        if win.get(k) != new or refs.get(k) != rset:
            win[k] = new
            refs[k] = rset
            return True
        return False

    # flip-flop and unit edges order the sweep too: a wave crossing one
    # still depends on its source window
    order, stuck = topological_order(
        {g: [e.src for e in graph.in_edges(g) if e.src in graph.gates]
         for g in graph.gates})
    sinks = sorted(t for t, kind in graph.terminals.items()
                   if kind in ("output", "bff") and graph.in_edges(t))
    # one sweep is exact with nothing stuck; the cap is for a reference
    # set that grows around a unit on a cycle and never settles
    rep.converged = False
    for _ in range(len(graph.gates) + graph.total_weight() + 7):
        edge_violations.clear()
        changed = False
        for n in order + stuck + sinks:
            ready = []
            for e in graph.in_edges(n):
                changed |= push(e)
                if edge_key(e) in win:
                    ready.append(edge_key(e))
            if len(ready) < len(graph.in_edges(n)):
                continue
            s = max(win[k][0] for k in ready)
            sp = min(win[k][1] for k in ready)
            rset = frozenset().union(*(refs[k] for k in ready))
            if n in graph.gates:
                d = delay(n)
                s, sp = s + d * cfg.r_u, sp + d * cfg.r_l
            if win.get(n) != (s, sp) or refs.get(n) != rset:
                win[n] = (s, sp)
                refs[n] = rset
                changed = True
        if not (changed and stuck):
            rep.converged = True
            break

    rep.violations.extend(edge_violations)
    rep.windows = {k: ArrivalWindow(v[0], v[1]) for k, v in win.items()}

    # unit capture-region checks against the settled input windows
    if placed_mode:
        for e in graph.edges:
            dec = decision(e)
            if dec.unit == "none" or e.src not in win:
                continue
            s, sp = win[e.src]
            k = edge_key(e)
            if dec.unit == "flipflop":
                lo = dec.n_cycle * T + dec.phi + p.t_h * cfg.r_u
                hi = (dec.n_cycle + 1) * T + dec.phi - p.t_su * cfg.r_u
                if s > hi + cfg.eps:
                    rep.violations.append(Violation(k, "setup", hi - s))
                if sp < lo - cfg.eps:
                    rep.violations.append(Violation(k, "hold", sp - lo))
            else:
                start = dec.n_cycle * T + dec.phi
                opens = start + cfg.duty * T
                lo = start + p.t_h * cfg.r_u
                hi = start + T - p.t_su * cfg.r_u
                if sp < lo - cfg.eps:
                    rep.violations.append(Violation(k, "latch_region", sp - lo))
                if sp > opens + cfg.eps:
                    rep.violations.append(Violation(k, "latch_region", opens - sp))
                if s > hi + cfg.eps:
                    rep.violations.append(Violation(k, "latch_region", hi - s))
                if not rep.converged:
                    rep.violations.append(Violation(k, "latch_region", -1.0))

    # output captures
    for t in sinks:
        if t not in win:
            continue
        s, sp = win[t]
        offs = set()
        if placed_mode:
            setup = T - (s + p.t_su * cfg.r_u)
            if setup < -cfg.eps:
                rep.violations.append(Violation(t, "setup", setup))
            hold = sp - p.t_h * cfg.r_u
            if hold < -cfg.eps:
                rep.violations.append(Violation(t, "hold", hold))
            offs = {r + 1 for r in refs[t]}
        else:
            slot = _capture_slot(s, sp, T, p, cfg.r_u, cfg.eps)
            if slot is None:
                rep.violations.append(Violation(t, "setup", -(s - sp)))
            else:
                offs = {r + slot + 1 for r in refs[t]}
        rep.offsets[t] = tuple(sorted(offs))

    # waves must not catch up with each other anywhere
    for node, (s, sp) in win.items():
        if not isinstance(node, str):
            continue
        gap = (sp + T) - (s + cfg.t_stable)
        if gap < -cfg.eps:
            rep.violations.append(Violation(node, "non_interference", gap))

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
