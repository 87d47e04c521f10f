"""Translate a gate graph plus configuration into the MILP formulations
of the optimization flow, and decode solutions back into placements.

Three builders share one variable layout:

* relaxed   -- pads (delta, delta') emulate sequential delay units,
* cdq       -- candidate sites get a presence binary x and the unit's
               clock/data-to-q delay, gated by a delay bound d_th,
* legalized -- candidate sites get the exact flip-flop/latch model as an
               either-or over the three insertion cases and the phases.

With no sites, the cdq (built by the same body) and legalization models
are the relaxed model.

Every time variable (arrivals, gate delays, buffer delays, pads) and
every time row is in units of the clock period T: a row is its absolute
form divided by T.  T then reaches only right-hand sides and variable
bounds.  The objective and the matrix read r_u, r_l, the prices, and
big_M and the phases as fractions of T (Config.fraction, which
with_period keeps bit for bit), so the objective prices time in units of
T, X_COST included.  The one product that would put T in the matrix, a
cdq site's unit delay x * (pad + t_cq/T), is bounded by big_M instead of
by its exact bounds, so that t_cq/T appears only in right-hand sides.

The module writes its own big-M rows (the cdq indicators, the unit
products, the legalization either-or) and registers each row and
variable that reads the period where it makes it; a cdq model's
indicator rows, which read d_th as well, are kept apart (dth_rows).
set_period moves a model of any kind to another period, and set_dth a
cdq model to another d_th, by the model's setters, so that the solver
can re-solve it warm from its last solution.  decode_solution converts
back to absolute time.

The arrival variable s of a gate denotes the latest arrival at the gate
output after its own pad/unit, before the anchor shifts of the outgoing
connections; s' is the earliest counterpart.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

from .milp import BINARY, CONTINUOUS, INTEGER, MilpModel
from .sta import EdgeDecision, OptimizedCircuit

# small tie-break cost on unit-presence binaries so that x = 1 appears
# only where a pad is actually exercised, and on a site's latch case so
# that a flip-flop wins an exact tie in the model, not by pivot order
X_COST = 1e-6

# pads differing by more than this indicate a unit, not a buffer chain
PAD_EPS = 1e-6

# the upper bound of a pad, in units of T
PAD_MAX = 2.0


@dataclass
class ModelArtifacts:
    model: MilpModel
    graph: object
    cfg: object
    s: dict = field(default_factory=dict)        # node -> var id
    sp: dict = field(default_factory=dict)
    d: dict = field(default_factory=dict)        # gate -> var id
    xi: dict = field(default_factory=dict)       # edge key -> var id
    delta: dict = field(default_factory=dict)    # gate -> var id
    delta_p: dict = field(default_factory=dict)
    x: dict = field(default_factory=dict)        # site -> presence binary
    d_th: float = None                           # a cdq model's bound
    dth_rows: list = field(default_factory=list)  # rows holding d_th
    period_vars: list = field(default_factory=list)  # (var, bounds(cfg))
    period_rows: list = field(default_factory=list)  # (row, rhs(cfg))
    site: dict = field(default_factory=dict)     # site -> legalization vars
    knobs: dict = None                           # what c and A read


def _matrix_knobs(cfg):
    """The knobs that the objective and the matrix of a model read:
    guard bands, prices, and big_M and the phases as fractions of T."""
    return {"r_u": cfg.r_u, "r_l": cfg.r_l, "alpha": cfg.alpha,
            "beta": cfg.beta, "gamma": cfg.gamma,
            "big_M": cfg.fraction(cfg.big_M),
            "phases": tuple(map(cfg.fraction, cfg.phases))}


def _period_var(arts, bounds, name):
    """A continuous variable whose bounds(cfg) read the period."""
    v = arts.model.add_var(CONTINUOUS, *bounds(arts.cfg), name=name)
    arts.period_vars.append((v, bounds))
    return v


def _period_constr(arts, coeffs, rel, rhs, name=None):
    """A row whose right-hand side rhs(cfg) reads the period; returns
    its index."""
    row = arts.model.add_constr(coeffs, rel, rhs(arts.cfg), name=name)
    arts.period_rows.append((row, rhs))
    return row


def _base(graph, cfg):
    m = MilpModel()
    arts = ModelArtifacts(m, graph, cfg, knobs=_matrix_knobs(cfg))
    # terminal sources launch at a constant; only capture points (gates
    # and terminals with in-edges) get arrival variables
    for n in sorted(graph.gates) + sorted(t for t in graph.terminals
                                          if graph.in_edges(t)):
        for arr, name in ((arts.s, f"s_{n}"), (arts.sp, f"sp_{n}")):
            arr[n] = m.add_var(CONTINUOUS, -2.0, 3.0, name=name)
    for g in sorted(graph.gates):
        lo, hi = min(graph.gates[g].lib), max(graph.gates[g].lib)
        arts.d[g] = _period_var(arts, lambda c, lo=lo, hi=hi:
                                (lo / c.T, hi / c.T), f"d_{g}")
    for src, dst, _, pin in graph.edges:
        arts.xi[src, dst, pin] = m.add_var(
            CONTINUOUS, 0.0, 3.0, name=f"xi_{src}_{dst}_{pin}")
    return arts


def _src_terms(arts, src):
    """(coeffs, const) for the latest/earliest arrival at src, the
    source of an edge: a variable for gates, the launch constant
    (absolute time, reading only r_u and r_l) for terminals."""
    g, cfg = arts.graph, arts.cfg
    p = g.circuit.ff_params
    if src in g.gates:
        return (arts.s[src], 0.0), (arts.sp[src], 0.0)
    return (None, p.t_cq * cfg.r_u), (None, p.t_cq * cfg.r_l)


def _pads(arts, gates):
    """Pads on gates; returns their arrival terms, which scale with the
    guard bands so equal pads are exactly realizable as buffers later."""
    m, cfg = arts.model, arts.cfg
    terms = {}
    for g in sorted(gates):
        for pad, name in ((arts.delta, f"delta_{g}"),
                          (arts.delta_p, f"deltap_{g}")):
            pad[g] = m.add_var(CONTINUOUS, 0.0, PAD_MAX, name=name)
        # fast signals get at least as much padding as slow ones
        m.add_constr({arts.delta_p[g]: 1.0, arts.delta[g]: -1.0}, ">=", 0.0,
                     name=f"pad_order_{g}")
        terms[g] = ({arts.delta[g]: cfg.r_u}, {arts.delta_p[g]: cfg.r_l})
    return terms


def _arrival_rows(arts, e, s, sp, add_s, add_sp):
    """Latest/earliest propagation rows of one edge into the arrival
    variables s/sp of its destination; add_s/add_sp are the extra
    linear terms of the destination's pad/unit."""
    g, cfg = arts.graph, arts.cfg
    src, dst, w, pin = e
    (sv, sc), (spv, spc) = _src_terms(arts, src)
    xi = arts.xi[src, dst, pin]
    cs = {s: 1.0, xi: -cfg.r_u}
    csp = {sp: 1.0, xi: -cfg.r_l}
    if sv is not None:
        cs[sv] = cs.get(sv, 0.0) - 1.0
        csp[spv] = csp.get(spv, 0.0) - 1.0
    if dst in g.gates:
        d = arts.d[dst]
        cs[d] = cs.get(d, 0.0) - cfg.r_u
        csp[d] = csp.get(d, 0.0) - cfg.r_l
    for v, a in add_s.items():
        cs[v] = cs.get(v, 0.0) - a
    for v, a in add_sp.items():
        csp[v] = csp.get(v, 0.0) - a
    _period_constr(arts, cs, ">=", lambda c: sc / c.T - w,
                   f"arr_{src}_{dst}_{pin}")
    _period_constr(arts, csp, "<=", lambda c: spc / c.T - w,
                   f"arrp_{src}_{dst}_{pin}")


def _arrival_constraints(arts, pad_terms):
    """Per in-edge propagation constraints.  pad_terms maps a gate to a
    pair of extra linear terms (for s and s') realizing its pad/unit, or
    None when the gate's output variable is constrained elsewhere."""
    g = arts.graph
    for e in g.edges:
        dst = e[1]
        terms = pad_terms.get(dst) if dst in g.gates else ({}, {})
        if terms is not None:
            _arrival_rows(arts, e, arts.s[dst], arts.sp[dst], *terms)


def _loop_order_constraints(arts, gates):
    """s'_u + delta' <= s_u + delta per in-edge: forces a sequential unit
    somewhere on every zero-weight cycle created by removal."""
    for src, dst, _, pin in arts.graph.edges:
        if dst in gates:
            (sv, sc), (spv, spc) = _src_terms(arts, src)
            c = {arts.delta_p[dst]: 1.0, arts.delta[dst]: -1.0}
            if sv is not None:
                c[spv] = c.get(spv, 0.0) + 1.0
                c[sv] = c.get(sv, 0.0) - 1.0
            _period_constr(arts, c, "<=", lambda c, t=sc - spc: t / c.T,
                           f"order_{src}_{dst}_{pin}")


def _stability(arts, extra=()):
    for name, s, sp in chain(((n, arts.s[n], arts.sp[n])
                              for n in sorted(arts.s)), extra):
        _period_constr(arts, {s: 1.0, sp: -1.0}, "<=",
                       lambda c: 1.0 - c.t_stable / c.T, f"stable_{name}")


def _boundary(arts):
    g = arts.graph
    p = g.circuit.ff_params
    for t, kind in sorted(g.terminals.items()):
        if kind in ("output", "bff") and g.in_edges(t):
            _period_constr(arts, {arts.s[t]: 1.0}, "<=",
                           lambda c: 1.0 - p.t_su * c.r_u / c.T,
                           f"setup_{t}")
            _period_constr(arts, {arts.sp[t]: 1.0}, ">=",
                           lambda c: p.t_h * c.r_u / c.T, f"hold_{t}")


def _objective(arts, pad_gates):
    cfg = arts.cfg
    obj = {}
    for g in pad_gates:
        obj[arts.delta_p[g]] = obj.get(arts.delta_p[g], 0.0) + \
            cfg.alpha + cfg.beta
        obj[arts.delta[g]] = obj.get(arts.delta[g], 0.0) - cfg.alpha
    for k, v in arts.xi.items():
        obj[v] = obj.get(v, 0.0) + cfg.beta
    for g, v in arts.d.items():
        obj[v] = obj.get(v, 0.0) - cfg.gamma
    for g, v in arts.x.items():
        obj[v] = obj.get(v, 0.0) + X_COST
    for sv in arts.site.values():
        latch = sv["cases"][2]
        obj[latch] = obj.get(latch, 0.0) + X_COST
    arts.model.set_objective(obj)


def build_relaxed_model(graph, cfg):
    """Stage-1 formulation: every gate output carries emulated pads.  It
    is the cdq model with no sites."""
    return _pad_model(graph, cfg, (), None)


def build_cdq_model(graph, cfg, S, d_th):
    """Stage-2 formulation: sites in S additionally model the inherent
    clock/data-to-q delay of a unit, present only when x = 1, and any
    exercised site must pad at least d_th."""
    return _pad_model(graph, cfg, S, d_th)


def set_dth(arts, d_th):
    """Move a cdq model to another delay bound d_th in place; only the
    right-hand sides of its indicator rows change."""
    if not math.isfinite(d_th):
        raise ValueError("d_th must be finite")
    arts.d_th = d_th
    arts.model.set_rhs(arts.dth_rows, _dth_rhs(arts, arts.cfg))


def _dth_rhs(arts, cfg):
    """The right-hand side of a cdq model's indicator rows."""
    return float(arts.d_th / cfg.T - arts.knobs["big_M"])


def set_period(arts, graph, cfg):
    """Move a model of graph, relaxed, cdq or legalization, to the period
    cfg.T in place: each bound and right-hand side that reads the period
    becomes what its builder gives at cfg.  Its matrix and objective
    stay, so cfg must keep the knobs they read (_matrix_knobs)."""
    if arts.graph != graph:
        raise ValueError("a start must come from a flow on the same graph")
    if _matrix_knobs(cfg) != arts.knobs:
        raise ValueError("a start must be made under the same r_u, r_l, "
                         "alpha, beta, gamma, and big_M and phases as "
                         "fractions of T")
    arts.cfg = cfg
    box = [bounds(cfg) for _, bounds in arts.period_vars]
    arts.model.set_bounds([v for v, _ in arts.period_vars],
                          [lb for lb, _ in box], [ub for _, ub in box])
    # the d_th rows are moved from arts.d_th here: an rhs(cfg) closing
    # over arts would make every cdq model a reference cycle
    arts.model.set_rhs([i for i, _ in arts.period_rows] + arts.dth_rows,
                       [rhs(cfg) for _, rhs in arts.period_rows]
                       + [_dth_rhs(arts, cfg) for _ in arts.dth_rows])


def _unit_product(arts, x, pad, name):
    """z = x * (pad + t_cq / T), the unit's pad plus its clock/data-to-q
    delay when present.  The rows bound z by big_M (in units of T) where
    the exact product would read T in its coefficients, so only their
    right-hand sides carry t_cq / T."""
    m = arts.model
    t_cq = arts.graph.circuit.ff_params.t_cq
    M = arts.knobs["big_M"]

    def bounds(c):
        if PAD_MAX + t_cq / c.T > M:
            raise ValueError("big_M must be at least 2*T + t_cq")
        return 0.0, PAD_MAX + t_cq / c.T

    z = _period_var(arts, bounds, name)
    m.add_constr({z: 1.0, x: -M}, "<=", 0.0)
    _period_constr(arts, {z: 1.0, pad: -1.0}, "<=", lambda c: t_cq / c.T)
    _period_constr(arts, {z: 1.0, pad: -1.0, x: -M}, ">=",
                   lambda c: t_cq / c.T - M)
    return z


def _pad_model(graph, cfg, S, d_th):
    sites = set(S)
    arts = _base(graph, cfg)
    gates = set(graph.gates)
    pad_terms = _pads(arts, gates)
    m = arts.model
    arts.d_th = d_th
    for g in sorted(gates & sites):
        x = m.add_var(BINARY, name=f"x_{g}")
        arts.x[g] = x
        z = _unit_product(arts, x, arts.delta[g], f"xd_{g}")
        zp = _unit_product(arts, x, arts.delta_p[g], f"xdp_{g}")
        pad_terms[g] = ({z: cfg.r_u}, {zp: cfg.r_l})
        # the indicator: a present unit pads at least d_th
        arts.dth_rows.append(m.add_constr(
            {arts.delta_p[g]: 1.0, arts.delta[g]: -1.0,
             x: -arts.knobs["big_M"]}, ">=", _dth_rhs(arts, cfg)))
    _arrival_constraints(arts, pad_terms)
    _loop_order_constraints(arts, gates)
    _stability(arts)
    _boundary(arts)
    _objective(arts, sorted(gates - sites))
    return arts


def _either_or(arts, branches):
    """One binary selector per branch of (coeffs, rel, rhs(cfg)) rows,
    rel "<=" or ">=", exactly one of them 1; a row of a branch whose
    selector is 0 is relaxed by big_M in units of T.  Each row is a
    period row."""
    m, M = arts.model, arts.knobs["big_M"]
    sels = [m.add_var(BINARY, name=f"sel{len(m.vars)}") for _ in branches]
    m.add_constr({s: 1.0 for s in sels}, "=", 1.0)
    for sel, branch in zip(sels, branches):
        for coeffs, rel, rhs in branch:
            shift = M if rel == "<=" else -M
            _period_constr(arts, {**coeffs, sel: shift}, rel,
                           lambda c, rhs=rhs, shift=shift: rhs(c) + shift)
    return sels


def build_legalization_model(graph, cfg, S_d):
    """Stage-3 formulation: sites get the exact unit model (Case 1 no
    unit / Case 2 flip-flop / Case 3 latch) over the configured phases;
    everything else keeps the relaxed pads."""
    sites = set(S_d)
    arts = _base(graph, cfg)
    relaxed = set(graph.gates) - sites
    pad_terms = _pads(arts, relaxed)
    m = arts.model
    p = graph.circuit.ff_params
    phases = arts.knobs["phases"]
    hold, setup = p.t_h * cfg.r_u, p.t_su * cfg.r_u
    cq_u, cq_l = p.t_cq * cfg.r_u, p.t_cq * cfg.r_l
    extra_stable = []
    for g in sorted(sites):
        # w: gate output before the unit; the site's s variable is the
        # post-unit point t
        sw = m.add_var(CONTINUOUS, -2.0, 3.0, name=f"sw_{g}")
        swp = m.add_var(CONTINUOUS, -2.0, 3.0, name=f"swp_{g}")
        st, stp = arts.s[g], arts.sp[g]
        N = m.add_var(INTEGER, lb=-2, ub=2, name=f"N_{g}")
        phase_sel = [m.add_var(BINARY, name=f"ph_{g}_{i}")
                     for i in range(len(phases))]
        m.add_constr({v: 1.0 for v in phase_sel}, "=", 1.0,
                     name=f"one_phase_{g}")
        # PHI = sum(phi_k * y_k); REF = N + PHI, both in units of T
        phi = dict(zip(phase_sel, phases))

        def ref(vec):
            out = dict(vec)
            out[N] = out.get(N, 0.0) + 1.0
            for v, ph in phi.items():
                out[v] = out.get(v, 0.0) + ph
            return out

        region = [
            # N*T + PHI + t_h*r_u <= s_w, s'_w <= (N+1)*T + PHI - t_su*r_u
            (ref({sw: -1.0}), "<=", lambda c: -hold / c.T),
            (ref({swp: -1.0}), "<=", lambda c: -hold / c.T),
            (ref({sw: -1.0}), ">=", lambda c: -1.0 + setup / c.T),
            (ref({swp: -1.0}), ">=", lambda c: -1.0 + setup / c.T),
        ]
        case1 = [
            ({st: 1.0, sw: -1.0}, ">=", lambda c: 0.0),
            ({stp: 1.0, swp: -1.0}, "<=", lambda c: 0.0),
        ]
        case2 = region + [
            # s_t pinned to the next active edge plus clock-to-q
            (ref({st: -1.0}), "<=", lambda c: -1.0 - cq_u / c.T),
            (ref({stp: -1.0}), ">=", lambda c: -1.0 - cq_l / c.T),
        ]
        case3 = region + [
            # fast signal confined to the non-transparent part
            (ref({swp: -1.0}), ">=", lambda c: -c.duty),
            # latest leaves when the latch opens, or passes transparently
            (ref({st: -1.0}), "<=", lambda c: -c.duty - cq_u / c.T),
            ({st: 1.0, sw: -1.0}, ">=", lambda c: p.t_dq * c.r_u / c.T),
            (ref({stp: -1.0}), ">=", lambda c: -c.duty - cq_l / c.T),
        ]
        sels = _either_or(arts, [case1, case2, case3])
        arts.site[g] = {"sw": sw, "swp": swp, "N": N,
                        "phases": phase_sel, "cases": sels}
        # in-edge propagation lands on w instead of t
        pad_terms[g] = None
        for e in graph.in_edges(g):
            _arrival_rows(arts, e, sw, swp, {}, {})
        extra_stable.append((f"w_{g}", sw, swp))
    _arrival_constraints(arts, pad_terms)
    _loop_order_constraints(arts, relaxed)
    _stability(arts, extra=extra_stable)
    _boundary(arts)
    _objective(arts, sorted(relaxed))
    return arts


def hot_sites(arts, sol):
    """The frozenset of locations whose pads indicate (or realize) a
    sequential unit, without decoding a placement; refuses what
    decode_solution refuses."""
    if sol.status != "optimal":
        raise ValueError(f"cannot decode a {sol.status} solution")
    vals, T = sol.values, arts.cfg.T
    for vid in arts.model.integer.nonzero()[0].tolist():
        if abs(vals[vid] - round(vals[vid])) > 1e-5:
            raise AssertionError("fractional integer value for "
                                 f"{arts.model.vars[vid].name}")
    hot = {name for name, d in arts.delta.items()
           if vals[arts.delta_p[name]] * T - vals[d] * T > PAD_EPS}
    hot.update(name for name, x in arts.x.items() if vals[x] > 0.5)
    hot.update(name for name, sv in arts.site.items()
               if not vals[sv["cases"][0]] > 0.5)
    return frozenset(hot)


def decode_solution(arts, sol):
    """Turn solver values, in units of T, into per-edge decisions in
    absolute time plus hot_sites(arts, sol)."""
    hot = hot_sites(arts, sol)
    g, cfg = arts.graph, arts.cfg
    vals = sol.values

    def time(v):
        return vals[v] * cfg.T

    decisions = {}
    gate_delays = {name: time(vid) for name, vid in arts.d.items()}
    unit_info = {}
    for name, sv in arts.site.items():
        case = [i for i, c in enumerate(sv["cases"]) if vals[c] > 0.5][0]
        if case == 0:
            continue
        phase_i = [i for i, y in enumerate(sv["phases"]) if vals[y] > 0.5][0]
        unit_info[name] = ("flipflop" if case == 1 else "latch",
                           int(round(vals[sv["N"]])), cfg.phases[phase_i])
    for src, dst, _, pin in g.edges:
        k = src, dst, pin
        dec = EdgeDecision(xi=max(0.0, time(arts.xi[k])))
        if src in unit_info:
            kind, n_cycle, phi = unit_info[src]
            dec.unit, dec.n_cycle, dec.phi = kind, n_cycle, phi
        if src in arts.delta:
            # equal pads emulate buffers: realize them as extra buffer
            # delay on every outgoing connection of the gate
            d, dp = time(arts.delta[src]), time(arts.delta_p[src])
            if dp > PAD_EPS and dp - d <= PAD_EPS:
                dec.xi += d
        decisions[k] = dec
    placed = OptimizedCircuit(g, decisions=decisions,
                              gate_delays=gate_delays)
    return placed, hot
