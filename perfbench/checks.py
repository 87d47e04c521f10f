"""Output checks made apart from the program.

Each check recomputes what it tests from the netlist or from the
placement with the benchmark's own code and returns a list of problems
(empty when the output is correct).  None compares against stored copies
of earlier output.
"""

import math

from designs import R_U, traditional_period

FF_AREA = 6
BUFFER_AREA = 1
TOL = 1e-9


def _close(a, b, rel=TOL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _circuit_order(circuit):
    """Gates of a plain netlist in dependency order over gate-to-gate
    connections (flip-flops break dependencies)."""
    order, state = [], {}
    for root in circuit.gates:
        if root in state:
            continue
        stack = [(root, iter(circuit.gates[root].inputs))]
        state[root] = 1
        while stack:
            g, it = stack[-1]
            src = next(it, None)
            if src is None:
                stack.pop()
                state[g] = 2
                order.append(g)
            elif src in circuit.gates and src not in state:
                state[src] = 1
                stack.append((src, iter(circuit.gates[src].inputs)))
    return order


def own_traditional_period(circuit):
    """t_cq + longest combinational path + t_su, no guard band."""
    delays = {g: circuit.gates[g].d for g in _circuit_order(circuit)}
    fanin = {g: [s for s in circuit.gates[g].inputs if s in circuit.gates]
             for g in delays}
    captures = [f.src for f in circuit.ffs.values()]
    captures += [src for _, src in circuit.outputs]
    p = circuit.ff_params
    return traditional_period(delays, fanin, captures, p.t_cq, p.t_su)


def guard_banded_period(circuit):
    return R_U * own_traditional_period(circuit)


def removable_ffs(circuit):
    return sum(1 for f in circuit.ffs.values() if not f.boundary)


def _edge_key(e):
    return (e.src, e.dst, e.dst_pin)


def check_sweep_result(design, out, step_fraction):
    """Properties every reported sweep result must have; a FAIL from
    check_equivalence fails the operation itself and is counted apart."""
    bad = []
    if out.violations:
        bad.append(f"window STA reports {len(out.violations)} violations, "
                   f"first {out.violations[0]}")
    statuses = [s.status for s in out.report.stages]
    if any(s != "optimal" for s in statuses):
        bad.append(f"stage statuses {statuses}")
    bad += _round_trip(out)
    bad += _area(out)
    bad += _period_grid(design.period, step_fraction * design.period,
                        out.final_T)
    bad += check_sdc(out.sdc, design.circuit, out.period)
    return bad


def _round_trip(out):
    bad = []
    placed, rt = out.placed, out.round_trip
    if out.period != out.final_T:
        bad.append(f"round trip changed the period {out.final_T!r} -> "
                   f"{out.period!r}")
    for e in placed.graph.edges:
        if placed.decision(e) != rt.decision(e) or \
                placed.anchors(e) != rt.anchors(e):
            bad.append(f"round trip changed edge {_edge_key(e)}")
    for g in placed.graph.gates:
        if placed.delay(g) != rt.delay(g):
            bad.append(f"round trip changed the delay of {g}")
    return bad


def _area(out):
    sites, buffers = set(), 0
    for e in out.placed.graph.edges:
        dec = out.placed.decision(e)
        if dec.unit != "none":
            sites.add(e.src)
        if dec.xi > 1e-9:
            buffers += math.ceil(dec.xi / out.buffer_delay - 1e-9)
    want = FF_AREA * len(sites) + BUFFER_AREA * buffers
    if out.report.area_after != want:
        return [f"area_after {out.report.area_after} != {want} recounted "
                f"from {len(sites)} unit sites and {buffers} buffers"]
    return []


def _period_grid(start, step, final):
    """Final T lies on the sweep's grid start - k*step, k >= 0 whole."""
    k = round((start - final) / step)
    if k < 0 or abs(start - k * step - final) > 1e-9:
        return [f"final T {final!r} is not start {start!r} minus a whole "
                f"number of steps {step!r}"]
    return []


def _pin_exists(circuit, pin):
    """sdcgen's pin names: <source>/ZN for the output of any gate,
    flip-flop or input, <gate>/A (one input) or <gate>/A1..An, and
    <flip-flop or output>/D."""
    node, _, port = pin.partition("/")
    outputs = {name for name, _ in circuit.outputs}
    if port == "ZN":
        return (node in circuit.gates or node in circuit.ffs
                or node in circuit.inputs)
    if port == "D":
        return node in circuit.ffs or node in outputs
    if node not in circuit.gates:
        return False
    n = len(circuit.gates[node].inputs)
    return port in ({"A"} if n == 1 else {f"A{i + 1}" for i in range(n)})


def check_sdc(text, circuit, T):
    """Every set_max_delay has a set_min_delay over the same points, with
    bounds (k+1)T and kT for a whole k >= 1; every pin exists."""
    bad = []
    bounds = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        kind = {"set_max_delay": "max", "set_min_delay": "min"}.get(toks[0])
        if kind is None:
            bad.append(f"unexpected SDC line {line!r}")
            continue
        points = tuple(toks[2:])
        if len(points) % 2 or not points:
            bad.append(f"malformed point list {line!r}")
            continue
        for tag, pin in zip(points[::2], points[1::2]):
            if tag not in ("-from", "-through", "-to"):
                bad.append(f"unknown tag {tag} in {line!r}")
            if not _pin_exists(circuit, pin):
                bad.append(f"pin {pin} does not exist")
        if (kind, points) in bounds:
            bad.append(f"duplicate {kind} constraint over {points}")
        bounds[(kind, points)] = float(toks[1])
    for (kind, points), hi in bounds.items():
        if kind != "max":
            continue
        lo = bounds.get(("min", points))
        if lo is None:
            bad.append(f"set_max_delay without set_min_delay over {points}")
            continue
        k = round(lo / T)
        # emit_sdc prints bounds with 6 significant digits
        if k < 1 or not _close(lo, k * T, 1e-5) or \
                not _close(hi, (k + 1) * T, 1e-5):
            bad.append(f"bounds {hi}/{lo} over {points} are not "
                       f"(k+1)T/kT for T={T}")
    for kind, points in bounds:
        if kind == "min" and ("max", points) not in bounds:
            bad.append(f"set_min_delay without set_max_delay over {points}")
    return bad


def check_analysis(circuit, graph, out):
    """traditional_min_period, every window and the reference simulation
    against the benchmark's own computations."""
    bad = []
    want = own_traditional_period(circuit)
    if not _close(out.min_period, want):
        bad.append(f"traditional_min_period {out.min_period} != {want}")
    if graph.total_weight() != removable_ffs(circuit):
        bad.append("gate graph weight differs from the removable FF count")
    bad += _windows(graph, out.cfg, out.windows)
    rows = out.report_text.count("\n")
    if rows != 1 + len(graph.gates) + len(graph.terminals):
        bad.append(f"report has {rows} lines, not a header and one row for "
                   f"each of {len(graph.gates) + len(graph.terminals)} nodes")
    ref = out.reference
    if not ref.converged or ref.violations:
        bad.append(f"reference simulation: converged={ref.converged}, "
                   f"{len(ref.violations)} violations")
    for sink, weights in _path_weights(graph).items():
        offsets = tuple(sorted(1 + w for w in weights))
        if ref.offsets.get(sink) != offsets:
            bad.append(f"reference offsets at {sink}: "
                       f"{ref.offsets.get(sink)} != {offsets}")
    return bad


def _graph_order(graph):
    """Gates in dependency order over all gate-to-gate edges, then the
    terminals that capture (every edge of the unplaced graph is combinational
    once its anchors are counted)."""
    indeg = {g: 0 for g in graph.gates}
    succ = {}
    for e in graph.edges:
        if e.src in graph.gates and e.dst in graph.gates:
            indeg[e.dst] += 1
            succ.setdefault(e.src, []).append(e.dst)
    ready = [g for g, n in indeg.items() if n == 0]
    order = []
    while ready:
        g = ready.pop()
        order.append(g)
        for h in succ.get(g, ()):
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
    return order


def _windows(graph, cfg, windows):
    """Forward computation for the as-placed circuit: latest/earliest
    arrival is the max/min over in-edges of the source window minus w*T,
    plus d*r_u / d*r_l at gates."""
    p = graph.circuit.ff_params
    T = cfg.T
    launch = (p.t_cq * cfg.r_u, p.t_cq * cfg.r_l)
    into = {}
    for e in graph.edges:
        into.setdefault(e.dst, []).append(e)
    own = {t: launch for t, k in graph.terminals.items()
           if k in ("input", "bff")}

    def edge_windows(node):
        out = []
        for e in into[node]:
            s, sp = own[e.src] if e.src in graph.gates else launch
            w = (s - e.w * T, sp - e.w * T)
            own[_edge_key(e)] = w
            out.append(w)
        return out

    for g in _graph_order(graph):
        ws = edge_windows(g)
        d = graph.gates[g].d
        own[g] = (max(w[0] for w in ws) + d * cfg.r_u,
                  min(w[1] for w in ws) + d * cfg.r_l)
    for t, kind in graph.terminals.items():
        if kind in ("output", "bff") and t in into:
            ws = edge_windows(t)
            own[t] = (max(w[0] for w in ws), min(w[1] for w in ws))
    bad = []
    if set(own) != set(windows):
        bad.append(f"window keys differ: {len(own)} computed, "
                   f"{len(windows)} reported")
    for key, (s, sp) in own.items():
        w = windows.get(key)
        if w is None or not (_close(w.s, s) and _close(w.s_prime, sp)):
            bad.append(f"window of {key}: {w} != ({s}, {sp})")
            if len(bad) > 5:
                break
    return bad


def _path_weights(graph):
    """For each capturing terminal, the set of removable flip-flop counts
    along the paths that reach it from a launching terminal."""
    into = {}
    for e in graph.edges:
        into.setdefault(e.dst, []).append(e)
    sets = {}

    def over(node):
        out = set()
        for e in into[node]:
            src = sets[e.src] if e.src in graph.gates else {0}
            out |= {x + e.w for x in src}
        return out

    for g in _graph_order(graph):
        sets[g] = over(g)
    return {t: over(t) for t, kind in graph.terminals.items()
            if kind in ("output", "bff") and t in into}


def highs_objective(model):
    """Objective of a MilpModel solved by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(model.vars)
    sign = -1.0 if model.sense == "max" else 1.0
    c = np.zeros(n)
    for v, a in model.obj.items():
        c[v] = sign * a
    A = np.zeros((len(model.constraints), n))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for i, ct in enumerate(model.constraints):
        for v, a in ct.coeffs.items():
            A[i, v] = a
        if ct.rel in ("<=", "="):
            hi[i] = ct.rhs
        if ct.rel in (">=", "="):
            lo[i] = ct.rhs
    integrality = np.array([0 if v.kind == "continuous" else 1
                            for v in model.vars])
    res = milp(c, constraints=[LinearConstraint(A, lo, hi)],
               integrality=integrality,
               bounds=Bounds([v.lb for v in model.vars],
                             [v.ub for v in model.vars]))
    if res.status != 0:
        return None, res.message
    return sign * res.fun + model.obj_const, res.message


def check_highs(ours, theirs, message):
    if theirs is None:
        return [f"HiGHS found no optimum: {message}"]
    if abs(ours - theirs) > 1e-6 * max(1.0, abs(theirs)):
        return [f"stage-1 objective {ours!r} differs from HiGHS {theirs!r}"]
    return []
