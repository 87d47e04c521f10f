"""Four-stage optimization flow and the outer clock-period sweep.

Stage 1 solves the relaxed pad model and collects candidate unit sites S.
Stage 2 refines S with unit presence binaries while lowering the pad
bound d_th; it builds its model once per S and moves it to each next
d_th, re-solving from the previous round's solution.  Stages 1 and 2
read only the site set of a solution (vsmodel.hot_sites); only stage 3
decodes a placement.  Stage 3 legalizes the surviving sites S_d with
the exact flip-flop/latch model and takes the sites it finds as the
next S_d, until they are S_d again: a site that legalizes to "no unit"
drops out, and a relaxed gate whose pads split joins.
Stage 4 snaps gate delays to their libraries and trades long buffer
chains for sequential units where that saves area; a trial unit that
misses its capture region against the source window of the current
placement is rejected before the whole-circuit STA.  Each placement
stage 4 makes is STA-checked once and its windows passed on: the
snapped placement's clean STA gives the buffer walk its first windows,
and the flow's closing check reads the violations of the STA that
accepted the returned placement instead of running another.  Stages 2
and 3 with no sites would solve the relaxed model again, so they reuse
the stage-1 solution instead.

The period sweep runs run_flow at each period.  The models keep time in
units of T, so moving one to the next period changes only its
right-hand sides and bounds.  Each step therefore starts from the models
of the step before (report.models): a stage whose sites are those of a
model of the step before moves that model in place (vsmodel.set_period)
and re-solves it warm from its last solution, each branch-and-bound
node from the same node of that solution's tree (milp.solve); a stage
on other sites builds its model and solves it cold.  A sweep whose site
sets hold still builds one model per stage.  A warm re-solve may end on
another optimal vertex than a cold one, so a sweep's placement may
depend on the period it started from; it is still deterministic for a
fixed input.  Objectives in the report are in absolute time: the solver's,
in units of T, times T.

A placement file is the netlist, a `placement` line, then period, size
and edge statements (PLACEMENT), read by the netlist's statement reader.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

from . import milp, sta, vsmodel
from .sta import EdgeDecision, OptimizedCircuit

FF_AREA = 6
BUFFER_AREA = 1


class InfeasibleError(Exception):
    """Raised when a flow stage cannot be satisfied; carries the stage."""

    def __init__(self, stage, detail=""):
        self.stage = stage
        super().__init__(f"infeasible at stage {stage}" +
                         (f": {detail}" if detail else ""))


@dataclass
class StageInfo:
    name: str
    status: str
    n_sites: int
    objective: float


@dataclass
class OptimizationReport:
    stages: list = field(default_factory=list)
    final_T: float = 0.0
    n_f: int = 0
    n_l: int = 0
    n_b: int = 0
    area_before: float = 0.0
    area_after: float = 0.0
    # (stage, frozenset of sites) -> (ModelArtifacts, milp.Solution) of
    # each model the flow solved, with its last solution: a start for a
    # flow at another period
    models: dict = field(default_factory=dict, repr=False, compare=False)

    def lines(self):
        out = []
        for st in self.stages:
            out.append(f"{st.name}.status={st.status}")
            out.append(f"{st.name}.sites={st.n_sites}")
            out.append(f"{st.name}.objective={st.objective:.6g}")
        out.append(f"final.T={self.final_T:.6g}")
        out.append(f"final.n_f={self.n_f}")
        out.append(f"final.n_l={self.n_l}")
        out.append(f"final.n_b={self.n_b}")
        out.append(f"final.area_before={self.area_before:.6g}")
        out.append(f"final.area_after={self.area_after:.6g}")
        return out

    def text(self):
        return "\n".join(self.lines()) + "\n"


def _solve_stage(arts, cfg, stage, start=None):
    sol = milp.solve(arts.model, max_nodes=cfg.milp_nodes,
                     time_ms=cfg.milp_time_ms, start=start)
    if sol.status != "optimal":
        raise InfeasibleError(stage, sol.status)
    # the model's time is in units of T: audit at FEAS_EPS absolute
    bad = arts.model.violated(sol.values, milp.FEAS_EPS / cfg.T)
    if bad:
        raise InfeasibleError(stage, f"solution audit failed: {bad[:3]}")
    return sol


def _count_units(placed):
    ffs, latches = set(), set()
    for k, dec in placed.decisions.items():
        if dec.unit == "flipflop":
            ffs.add(k[0])
        elif dec.unit == "latch":
            latches.add(k[0])
    return ffs, latches


def buffer_count(dec, cfg):
    if dec.xi <= 1e-9:
        return 0
    return int(math.ceil(dec.xi / cfg.buffer_delay - 1e-9))


def area(placed, cfg):
    ffs, latches = _count_units(placed)
    bufs = sum(buffer_count(d, cfg) for d in placed.decisions.values())
    return FF_AREA * (len(ffs) + len(latches)) + BUFFER_AREA * bufs


def run_flow(graph, cfg, start=None):
    """Run stages 1-4; returns (OptimizedCircuit, OptimizationReport) or
    raises InfeasibleError naming the failing stage.

    Each stage builds its model and solves it cold, unless start, the
    report.models of a flow on the same graph at another period, holds
    a model of that stage on the same sites: that model is moved to
    cfg.T in place (vsmodel.set_period) and re-solved warm from its last
    solution."""
    report = OptimizationReport()
    report.area_before = FF_AREA * graph.total_weight()
    start = start or {}

    def model(stage, sites, build):
        """(model, solution to start from) of stage on sites."""
        key = (stage, frozenset(sites))
        if key not in start:
            return build(), None
        arts, prev = start[key]
        vsmodel.set_period(arts, graph, cfg)
        return arts, prev

    def solve(stage, sites, arts, prev):
        sol = _solve_stage(arts, cfg, stage, start=prev)
        report.models[stage, frozenset(sites)] = arts, sol
        return sol

    arts, prev = model("relaxed", (), lambda: vsmodel.build_relaxed_model(
        graph, cfg))
    sol = solve("relaxed", (), arts, prev)
    S = set(vsmodel.hot_sites(arts, sol))
    report.stages.append(StageInfo("stage1", sol.status, len(S),
                                   sol.objective * cfg.T))

    arts2, sol2 = arts, sol
    if S:
        new = S     # the first round takes the model of S
        # a zero round that does not stop grows S, so zeros cannot run out
        for d_th in chain(cfg.dth_schedule,
                          repeat(0.0, len(graph.gates) + 1)):
            if new:
                sites = frozenset(S)
                arts2, sol2 = model("cdq", sites, lambda: (
                    vsmodel.build_cdq_model(graph, cfg, sites, d_th)))
            if arts2.d_th != d_th:
                # re-solve from the last round on these sites
                vsmodel.set_dth(arts2, d_th)
            sol2 = solve("cdq", sites, arts2, sol2)
            new = vsmodel.hot_sites(arts2, sol2) - S
            S |= new
            if d_th == 0.0 and not new:
                break
    S_d = {g for g, x in arts2.x.items() if sol2.values[x] > 0.5}
    report.stages.append(StageInfo("stage2", sol2.status, len(S_d),
                                   sol2.objective * cfg.T))

    seen = set()
    for _ in range(2 * len(graph.gates) + 2):
        key = frozenset(S_d)
        if key in seen:
            raise InfeasibleError("legalization",
                                  "site set oscillates without converging")
        seen.add(key)
        arts3, sol3 = arts, sol
        if S_d:
            arts3, prev = model("legalization", key, lambda: (
                vsmodel.build_legalization_model(graph, cfg, key)))
            sol3 = solve("legalization", key, arts3, prev)
        placed, hot3 = vsmodel.decode_solution(arts3, sol3)
        if hot3 == S_d:
            break
        S_d = hot3
    else:
        raise InfeasibleError("legalization", "iteration limit exceeded")
    report.stages.append(StageInfo("stage3", sol3.status, len(S_d),
                                   sol3.objective * cfg.T))

    placed, windows = discretize_delays(placed, cfg)
    placed, _, violations = replace_buffers(placed, cfg, windows)
    if violations:
        raise InfeasibleError("finalize", f"residual violations "
                              f"{[(v.node, v.kind) for v in violations[:3]]}")
    ffs, latches = _count_units(placed)
    report.final_T = cfg.T
    report.n_f, report.n_l = len(ffs), len(latches)
    report.n_b = sum(buffer_count(d, cfg) for d in placed.decisions.values())
    report.area_after = (FF_AREA * (report.n_f + report.n_l)
                         + BUFFER_AREA * report.n_b)
    return placed, report


def _snap(value, lib):
    """Nearest library entry, ties to the smaller value."""
    return min(lib, key=lambda x: (abs(x - value), x))


def discretize_delays(placed, cfg):
    """Snap solved gate delays to library entries, with one repair pass
    nudging gates toward the violation-reducing neighbor; returns the
    snapped placement and the windows of its clean STA."""
    graph = placed.graph
    libs = {g: sorted(gate.lib) for g, gate in graph.gates.items()}
    cont = {g: placed.delay(g) for g in graph.gates}
    snapped = {g: _snap(cont[g], libs[g]) for g in graph.gates}
    trial = OptimizedCircuit(graph, decisions=placed.decisions,
                             gate_delays=snapped)
    windows, violations = sta.propagate_windows(trial, cfg)
    if not violations:
        return trial, windows
    late = any(v.kind in ("setup", "non_interference", "latch_region")
               for v in violations)
    early = any(v.kind == "hold" for v in violations)
    repaired = dict(snapped)
    for g in sorted(graph.gates):
        lib = libs[g]
        i = lib.index(repaired[g])
        if late and repaired[g] > cont[g] and i > 0:
            repaired[g] = lib[i - 1]
        elif early and repaired[g] < cont[g] and i + 1 < len(lib):
            repaired[g] = lib[i + 1]
    trial = OptimizedCircuit(graph, decisions=placed.decisions,
                             gate_delays=repaired)
    windows, violations = sta.propagate_windows(trial, cfg)
    if violations:
        raise InfeasibleError("discretization",
                              "library snapping cannot meet timing")
    return trial, windows


def _reaches(graph, a, b):
    """Whether a window change at node a can move the window of gate b:
    a path of gates leads from a to b."""
    seen, todo = {a}, [a] if a in graph.gates else []
    while todo:
        n = todo.pop()
        if n == b:
            return True
        for e in graph.out_edges(n):
            if e.dst in graph.gates and e.dst not in seen:
                seen.add(e.dst)
                todo.append(e.dst)
    return False


def replace_buffers(placed, cfg, windows):
    """Swap buffer chains longer than the replacement threshold for a
    single sequential unit when that is timing-clean and not larger;
    returns (placed, windows, violations), the last two from the STA
    that checked the returned placement.

    windows are those of the clean STA of placed, as discretize_delays
    returns them.  The first clean trial in (unit, n_cycle, phi) order
    wins.  A trial changes windows only downstream of its edge, so
    unless the edge's destination reaches its source, the trial's STA
    sees the source window the current placement has: a trial whose
    unit misses its capture region against that window is rejected
    without running the whole-circuit STA, which would report the same
    violation."""
    # a trial changes only its own edge, so no other edge's candidacy
    # or place in the order moves while the list is walked
    graph = placed.graph
    p = graph.circuit.ff_params
    decisions = placed.decisions
    violations = []
    for k in sorted((k for k, dec in decisions.items()
                     if dec.unit == "none" and dec.xi > cfg.replace_threshold),
                    key=lambda k: (-decisions[k].xi, k)):
        if buffer_count(decisions[k], cfg) < FF_AREA:
            continue
        src_win = None
        if k[0] not in graph.gates:
            src_win = sta.launch_window(cfg, p)
        elif not _reaches(graph, k[1], k[0]):
            src_win = windows[k[0]]
        trials = (EdgeDecision(xi=0.0, unit=unit, n_cycle=n, phi=phi)
                  for unit in ("flipflop", "latch")
                  for n in range(-2, 3) for phi in cfg.phases)
        if src_win is not None:
            trials = (t for t in trials
                      if not sta.unit_region_checks(src_win, t, cfg, p, k))
        for trial_dec in trials:
            trial = replace(placed, decisions={**decisions, k: trial_dec})
            checked = sta.propagate_windows(trial, cfg)
            if not checked[1]:
                decisions[k] = trial_dec
                windows, violations = checked
                break
    return placed, windows, violations


def sweep_clock_period(graph, cfg, step_fraction=0.005):
    """Shrink T by step_fraction of the starting period until run_flow
    fails; returns (best placed, best report, best cfg).  Each step
    starts from the models of the step before (report.models), so the
    sweep builds one model per stage and site set."""
    if not (0 < step_fraction <= 0.1):
        raise ValueError("step_fraction must be in (0, 0.1]")
    step = step_fraction * cfg.T
    best, start = None, None
    current = cfg
    while True:
        try:
            placed, report = run_flow(graph, current, start)
        except InfeasibleError:
            if best is None:
                raise
            return best
        best, start = (placed, report, current), report.models
        next_T = current.T - step
        if next_T <= 0:
            return best
        current = current.with_period(next_T)


# -- placement files ---------------------------------------------------------

def placement_to_text(placed, cfg, base_text):
    """Self-contained placement file: the base netlist followed by the
    resolved decisions."""
    out = [base_text.rstrip("\n"), "", "placement"]
    out.append(f"period {cfg.T!r}")
    for g in sorted(placed.gate_delays):
        out.append(f"size {g} d={placed.gate_delays[g]!r}")
    for e in placed.graph.edges:
        dec = placed.decision(e)
        if dec == EdgeDecision():
            continue
        out.append(f"edge {e.src} {e.dst} {e.dst_pin} xi={dec.xi!r} "
                   f"unit={dec.unit} n={dec.n_cycle} phi={dec.phi!r} "
                   f"lam={e.w} bufs={buffer_count(dec, cfg)}")
    return "\n".join(out) + "\n"


# statement -> (names, keys it must have, keys it may have), as in
# netlist.NETLIST
PLACEMENT = {"period": (1, (), ()), "size": (1, ("d",), ()),
             "edge": (3, (), ("xi", "unit", "n", "phi", "lam", "bufs"))}


def placement_from_text(text):
    """Parse a placement file back into (OptimizedCircuit, period).  Its
    statements are read as a netlist's are (netlist.statements and
    netlist.number), and one that does not fit the netlist (an unknown
    gate, edge or unit, or a lam= other than the edge's weight) also
    raises a NetlistError that names its line."""
    from . import netlist as nl
    head, _, tail = text.partition("\nplacement\n")
    circuit = nl.parse_netlist(head)
    graph = nl.to_gate_graph(circuit)
    placed = sta.as_placed(graph)
    weights = {sta.edge_key(e): e.w for e in graph.edges}
    period = circuit.T
    # the tail starts two lines below the head's last line
    for line, toks, kv in nl.statements(tail, PLACEMENT,
                                        head.count("\n") + 3):
        if toks[0] == "period":
            period = nl.number(toks[1], line)
            if period <= 0:
                raise nl.NetlistError(f"period {period} must be > 0", line)
        elif toks[0] == "size":
            if toks[1] not in graph.gates:
                raise nl.NetlistError(
                    f"size {toks[1]!r} needs a netlist gate", line)
            placed.gate_delays[toks[1]] = nl.number(kv["d"], line)
        else:
            key = (toks[1], toks[2], nl.number(toks[3], line, int))
            if key not in weights:
                raise nl.NetlistError(f"no edge {key} in the netlist", line)
            if kv.get("unit", "none") not in ("none", "flipflop", "latch"):
                raise nl.NetlistError(f"unknown unit {kv['unit']!r}", line)
            placed.decisions[key] = EdgeDecision(
                xi=nl.number(kv.get("xi", "0"), line),
                unit=kv.get("unit", "none"),
                n_cycle=nl.number(kv.get("n", "0"), line, int),
                phi=nl.number(kv.get("phi", "0"), line))
            if "lam" in kv and nl.number(kv["lam"], line, int) != weights[key]:
                raise nl.NetlistError(f"lam={kv['lam']} on edge {key} is not "
                                      f"its weight {weights[key]}", line)
    return placed, period
