"""Release gate: golden values, oracle cross-checks, and the per-module
invariant suites, each with its runtime budget."""

import gc
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from wavetime import cli, milp, netlist, optimizer, sdcgen, sta, verify, \
    vsmodel
from wavetime.netlist import Config, FlipFlopParams, to_gate_graph
from wavetime.optimizer import InfeasibleError, run_flow
from wavetime.retime_extract import RetimeSolution, extract_removals
from wavetime.sta import EdgeDecision, edge_key, propagate_windows, \
    traditional_min_period

from gen import DATA, exact_cfg, load, random_circuit
from test_milp import enumeration_oracle, random_model


# -- 1: minimum-period and flow feasibility goldens --------------------------

def test_min_period_and_flow_goldens():
    start = time.monotonic()
    assert traditional_min_period(load("fig_a.net")) == 21
    assert traditional_min_period(load("fig_b.net")) == 16
    assert traditional_min_period(load("fig_c.net")) == 11
    g = to_gate_graph(load("fig_c.net"))
    placed, report = run_flow(g, exact_cfg(9.0))
    assert report.final_T == 9.0
    with pytest.raises(InfeasibleError):
        run_flow(g, exact_cfg(8.9))
    assert time.monotonic() - start < 5.0


# -- 2: window-propagation goldens -------------------------------------------

def test_window_propagation_goldens():
    start = time.monotonic()
    g = to_gate_graph(load("fig_chain.net"))
    placed = sta.as_placed(g)
    placed.decisions[("w", "z", 0)] = EdgeDecision(unit="flipflop",
                                                   n_cycle=0, phi=0.0)
    windows, violations = propagate_windows(placed, exact_cfg(10.0))
    assert windows[("u", "w", 0)].s == 4
    assert windows["w"].s == 7
    assert windows[("w", "z", 0)].s == 3
    assert windows["z"].s == 5
    assert violations == []
    removed = sta.as_placed(g)
    _, violations = propagate_windows(removed, exact_cfg(10.0))
    assert ("F4", "hold") in {(v.node, v.kind) for v in violations}
    assert time.monotonic() - start < 1.0


# -- 3: removal-extraction golden --------------------------------------------

def test_removal_extraction_golden():
    start = time.monotonic()
    orig = to_gate_graph(load("loop_orig.net"))
    opt = to_gate_graph(load("loop_opt.net"))
    sol = extract_removals(orig, opt)
    assert sol.anchors() == {("g_1", "g_2", 0): 1,
                             ("g_2", "g_5", 0): 1,
                             ("g_4", "g_5", 1): 1}
    assert sol.total_removed() == 3
    assert time.monotonic() - start < 1.0


# -- 4: constraint-file goldens, token for token -----------------------------

def sdc_lines(stem):
    orig = to_gate_graph(load(f"{stem}_orig.net"))
    opt = to_gate_graph(load(f"{stem}_opt.net"))
    sol = extract_removals(orig, opt)
    classes = sdcgen.classify_paths(orig, sol)
    sdcgen.find_differentiating_pins(classes, orig)
    return sdcgen.emit_sdc(classes, Config(T=10.0)).splitlines()


def test_sdc_goldens_token_for_token():
    assert sdc_lines("loop") == [
        "set_max_delay 30 -through g_1/ZN -through g_2/A "
        "-through g_2/ZN -through g_5/A1",
        "set_min_delay 20 -through g_1/ZN -through g_2/A "
        "-through g_2/ZN -through g_5/A1",
        "set_max_delay 20 -through g_4/ZN -through g_5/A2",
        "set_min_delay 10 -through g_4/ZN -through g_5/A2",
    ]
    assert sdc_lines("entangled") == [
        "set_max_delay 30 -through g_1/ZN -through g_4/A1 "
        "-through g_4/ZN -through g_5/A1",
        "set_min_delay 20 -through g_1/ZN -through g_4/A1 "
        "-through g_4/ZN -through g_5/A1",
        "set_max_delay 20 -through g_1/ZN -through g_4/A1 -through g_6/A2",
        "set_min_delay 10 -through g_1/ZN -through g_4/A1 -through g_6/A2",
        "set_max_delay 20 -through g_1/ZN -through g_4/A1 -to F6/D",
        "set_min_delay 10 -through g_1/ZN -through g_4/A1 -to F6/D",
        "set_max_delay 20 -through g_2/A1 -through g_4/ZN -through g_5/A1",
        "set_min_delay 10 -through g_2/A1 -through g_4/ZN -through g_5/A1",
    ]


# -- 5: solver vs enumerate-then-LP oracle -----------------------------------

def test_milp_matches_enumeration_oracle():
    start = time.monotonic()
    rng = random.Random(2)
    for _ in range(200):
        m = random_model(rng, max_bin=8, max_cont=6)
        sol = milp.solve(m)
        want = enumeration_oracle(m)
        if want is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            scale = max(1.0, abs(want))
            assert abs(sol.objective - want) / scale < 1e-6
    assert time.monotonic() - start < 60.0


# -- 6: end-to-end soundness on a random corpus ------------------------------

def test_flow_soundness_on_random_corpus():
    start = time.monotonic()
    rng = random.Random(101)
    feasible = 0
    for _ in range(100):
        c = random_circuit(rng, max_gates=12, max_ffs=6)
        g = to_gate_graph(c)
        cfg = Config(T=c.T)
        try:
            placed, report = run_flow(g, cfg)
        except InfeasibleError as e:
            assert e.stage   # every failure names its stage
            continue
        feasible += 1
        _, violations = propagate_windows(placed, cfg)
        assert violations == []
        ok, diff = verify.check_equivalence(c, placed, cfg)
        assert ok, diff
        assert report.area_after >= 0
    assert feasible >= 10    # the corpus must actually exercise the flow
    assert time.monotonic() - start < 600.0


# -- 7: independent checker agreement ----------------------------------------

def random_placement(rng, c, cfg):
    g = to_gate_graph(c)
    placed = sta.as_placed(g)
    for e in g.edges:
        roll = rng.random()
        if roll < 0.15:
            placed.decisions[edge_key(e)] = EdgeDecision(
                unit="flipflop", n_cycle=rng.randint(-1, 1),
                phi=rng.choice(cfg.phases))
        elif roll < 0.25:
            placed.decisions[edge_key(e)] = EdgeDecision(
                unit="latch", n_cycle=rng.randint(-1, 1),
                phi=rng.choice(cfg.phases))
        elif roll < 0.45:
            placed.decisions[edge_key(e)] = EdgeDecision(
                xi=rng.uniform(0, c.T / 2))
    return placed


def test_checker_agreement_on_random_placements():
    rng = random.Random(55)
    for _ in range(500):
        c = random_circuit(rng, max_gates=8, max_ffs=4)
        cfg = Config(T=c.T, r_u=1.1, r_l=0.9, t_stable=0.5)
        placed = random_placement(rng, c, cfg)
        win_clean = propagate_windows(placed, cfg)[1] == []
        sim_clean = verify.simulate_waves(placed, cfg).violations == []
        assert win_clean == sim_clean


# -- 8: buffer replacement never grows area ----------------------------------

def test_buffer_replacement_economy():
    rng = random.Random(77)
    for _ in range(100):
        c = random_circuit(rng, max_gates=8, max_ffs=4)
        g = to_gate_graph(c)
        cfg = exact_cfg(c.T)
        placed = sta.as_placed(g)
        for e in g.edges:
            if rng.random() < 0.4:
                placed.decisions[edge_key(e)] = \
                    EdgeDecision(xi=rng.uniform(0, c.T))
        before = optimizer.area(placed, cfg)
        after = optimizer.area(optimizer.replace_buffers(placed, cfg)[0],
                               cfg)
        assert after <= before


# -- 9: per-module invariant suites, >= 1000 cases each ----------------------

_CORPUS = None


def corpus():
    """1000 small random circuits shared by the invariant suites."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(9000)
        _CORPUS = [random_circuit(rng, max_gates=5, max_ffs=3)
                   for _ in range(1000)]
    return _CORPUS


def test_property_netlist_round_trip():
    for c in corpus():
        back = netlist.parse_netlist(netlist.serialize(c))
        assert back == c


def test_property_netlist_weight_conservation():
    for c in corpus():
        g = to_gate_graph(c)
        removable = sum(1 for f in c.ffs.values() if not f.boundary)
        assert g.total_weight() == removable
        g.validate()   # positive-weight cycles, collapse consistency


def test_property_sta_monotone_in_gate_delay():
    rng = random.Random(9001)
    for c in corpus():
        g = to_gate_graph(c)
        cfg = exact_cfg(c.T)
        base, _ = propagate_windows(sta.as_placed(g), cfg)
        victim = rng.choice(sorted(g.gates))
        slower = sta.OptimizedCircuit(
            g, gate_delays={victim: g.gates[victim].d + rng.uniform(0, 2)})
        bumped, _ = propagate_windows(slower, cfg)
        for n in g.gates:
            assert bumped[n].s >= base[n].s - 1e-12


def random_chain(rng):
    """Single path of gates with removable flip-flops in between, so
    every node sees the same anchors."""
    ffp = FlipFlopParams(rng.choice([1.0, 2.0]), 1.0, 0.5, 1.0)
    n = rng.randint(1, 5)
    gates, ffs = {}, {"FI": netlist.FlipFlop("FI", "in0", boundary=True)}
    prev, ffno = "FI", 0
    for i in range(n):
        for _ in range(rng.randint(0, 2)):
            name = f"F{ffno}"
            ffs[name] = netlist.FlipFlop(name, prev, boundary=False)
            prev, ffno = name, ffno + 1
        d = rng.choice([1.0, 2.0, 3.0])
        gates[f"g{i}"] = netlist.Gate(f"g{i}", "buf", d, (d,), (prev,))
        prev = f"g{i}"
    ffs["FO"] = netlist.FlipFlop("FO", prev, boundary=True)
    c = netlist.Circuit("chain", float(rng.randint(6, 14)), 0.5, ffp,
                        gates, ffs, ["in0"], [("out0", "FO")])
    c.validate()
    return c


def test_property_sta_anchor_shift_is_linear():
    rng = random.Random(9010)
    for _ in range(1000):
        c = random_chain(rng)
        g = to_gate_graph(c)
        cfg = exact_cfg(c.T)
        with_anchors, _ = propagate_windows(sta.as_placed(g), cfg)
        no_anchors = sta.OptimizedCircuit(
            g, lam={edge_key(e): 0 for e in g.edges})
        without, _ = propagate_windows(no_anchors, cfg)
        shift = g.total_weight() * cfg.T
        assert with_anchors["FO"].s == pytest.approx(without["FO"].s - shift)
        assert with_anchors["FO"].s_prime == \
            pytest.approx(without["FO"].s_prime - shift)


def test_property_milp_solutions_pass_audit():
    rng = random.Random(9002)
    for _ in range(1000):
        m = random_model(rng, max_bin=3, max_cont=3)
        sol = milp.solve(m)
        if sol.status in ("optimal", "feasible"):
            assert m.violated(sol.values) == []
            for v in m.vars:
                x = sol.values[v.id]
                assert v.lb - 1e-6 <= x <= v.ub + 1e-6
                if v.kind != milp.CONTINUOUS:
                    assert abs(x - round(x)) < 1e-5


def test_property_vsmodel_constraint_counts():
    for c in corpus():
        g = to_gate_graph(c)
        arts = vsmodel.build_relaxed_model(g, exact_cfg(c.T))
        names = [ct.name for ct in arts.model.constraints]
        gate_in = sum(1 for e in g.edges if e.dst in g.gates)
        capture = sum(1 for t, kind in g.terminals.items()
                      if kind in ("output", "bff") and g.in_edges(t))
        assert sum(n.startswith("arr_") for n in names) == len(g.edges)
        assert sum(n.startswith("arrp_") for n in names) == len(g.edges)
        assert sum(n.startswith("pad_order_") for n in names) == len(g.gates)
        assert sum(n.startswith("order_") for n in names) == gate_in
        assert sum(n.startswith("stable_") for n in names) == len(arts.s)
        assert sum(n.startswith("setup_") for n in names) == capture
        assert sum(n.startswith("hold_") for n in names) == capture


@settings(max_examples=1000, deadline=None)
@given(v=st.floats(0, 20, allow_nan=False),
       lib=st.lists(st.floats(0.1, 15, allow_nan=False), min_size=1,
                    max_size=5, unique=True))
def test_property_optimizer_snap_oracle(v, lib):
    lib = sorted(lib)
    best = min(lib, key=lambda x: (abs(x - v), x))
    assert optimizer._snap(v, lib) == best


@settings(max_examples=1000, deadline=None)
@given(xi=st.floats(0, 50, allow_nan=False),
       bd=st.floats(0.1, 5, allow_nan=False))
def test_property_optimizer_buffer_count(xi, bd):
    cfg = Config(T=100.0, buffer_delay=bd)
    n = optimizer.buffer_count(EdgeDecision(xi=xi), cfg)
    assert n >= 0
    # enough buffers to cover the delay, never a whole buffer too many
    assert n * bd >= xi - 1e-6
    if n:
        assert (n - 1) * bd < xi + 1e-6


def test_property_retime_pure_retiming_needs_no_removals():
    rng = random.Random(9003)
    done = 0
    while done < 1000:
        c = random_circuit(rng, max_gates=4, max_ffs=3)
        g = to_gate_graph(c)
        lags = {name: rng.randint(0, 1) for name in g.gates}
        weights = {}
        ok = True
        for e in g.edges:
            k = edge_key(e)
            w = e.w + lags.get(e.dst, 0) - lags.get(e.src, 0)
            if w < 0:
                ok = False
                break
            weights[k] = w
        if not ok:
            continue
        done += 1
        edges = [netlist.GGEdge(e.src, e.dst, weights[edge_key(e)],
                                e.dst_pin) for e in g.edges]
        opt = netlist.GateGraph(g.circuit, dict(g.gates),
                                dict(g.terminals), edges)
        sol = extract_removals(g, opt)
        assert sol.total_removed() == 0
        for k, w in weights.items():
            assert sol.w_r[k] == w


def test_property_sdc_pairing_and_uniqueness():
    rng = random.Random(9004)
    done = 0
    while done < 1000:
        c = random_circuit(rng, max_gates=5, max_ffs=3)
        g = to_gate_graph(c)
        sol = RetimeSolution()
        for e in g.edges:
            sol.y[edge_key(e)] = rng.randint(0, e.w)
        done += 1
        classes = sdcgen.classify_paths(g, sol)
        sdcgen.find_differentiating_pins(classes, g)
        cfg = Config(T=c.T)
        lines = [l for l in sdcgen.emit_sdc(classes, cfg).splitlines()
                 if not l.startswith("#")]
        assert len(lines) % 2 == 0
        seen = set()
        for hi, lo in zip(lines[::2], lines[1::2]):
            assert hi.split()[2:] == lo.split()[2:]
            assert float(hi.split()[1]) - float(lo.split()[1]) == \
                pytest.approx(cfg.T)
            assert float(lo.split()[1]) >= cfg.T - 1e-9
            key = tuple(hi.split()[2:])
            assert key not in seen
            seen.add(key)


@settings(max_examples=1000, deadline=None)
@given(s=st.floats(-40, 40, allow_nan=False),
       width=st.floats(0, 12, allow_nan=False),
       T=st.floats(4, 20, allow_nan=False))
def test_property_verify_capture_slot_oracle(s, width, T):
    p = FlipFlopParams(2, 1, 0.5, 1)
    sp = s - width
    got = verify._capture_slot(s, sp, T, p, 1.1, 1e-9)
    legal = [m for m in range(-12, 13)
             if m * T + p.t_h * 1.1 <= sp + 1e-9
             and s + p.t_su * 1.1 <= (m + 1) * T + 1e-9]
    if legal:
        assert got == legal[0]
    else:
        assert got is None


def test_property_verify_determinism():
    for c in corpus():
        cfg = verify.reference_config(c, Config(T=c.T))
        a = verify.simulate_waves(c, cfg)
        b = verify.simulate_waves(c, cfg)
        assert a.offsets == b.offsets
        assert a.windows == b.windows


@settings(max_examples=1000, deadline=None)
@given(ru=st.floats(1.0, 1.5, allow_nan=False),
       rl=st.floats(0.5, 1.0, allow_nan=False),
       T=st.floats(5, 40, allow_nan=False),
       ts=st.floats(0, 3, allow_nan=False))
def test_property_cli_config_file_round_trip(tmp_path_factory, ru, rl, T, ts):
    path = tmp_path_factory.mktemp("cfg") / "flow.cfg"
    path.write_text(f"T = {T!r}\nr_u = {ru!r}\nr_l = {rl!r}\n"
                    f"t_stable = {ts!r}\n# trailing comment\n")
    values = cli.load_config_file(str(path))
    assert float(values["T"]) == T
    assert float(values["r_u"]) == ru
    assert float(values["r_l"]) == rl
    assert float(values["t_stable"]) == ts


# -- 10: the passes that pause the cyclic collector --------------------------

PAUSED = {"parse_netlist", "to_gate_graph", "propagate_windows",
          "format_report", "simulate_waves"}


def test_paused_passes_leave_no_cyclic_garbage():
    """parse_netlist, to_gate_graph, propagate_windows, format_report
    and simulate_waves, on every golden and 50 seeded random designs,
    plain and as placed by run_flow: with a collection due at nearly
    every allocation, none runs inside one of them, and none of them
    leaves anything for the collector.  Objects older than the test are
    frozen, so each gc.collect() scans only what the calls made."""
    texts = [p.read_text() for p in sorted(DATA.glob("*.net"))]
    rng = random.Random(24)
    texts += [netlist.serialize(random_circuit(rng, with_loop=i % 2 == 1))
              for i in range(50)]
    inside = []

    def spy(phase, info):
        f = sys._getframe(1)
        while f is not None:
            if f.f_code.co_name in PAUSED and \
                    "wavetime" in f.f_code.co_filename:
                inside.append(f.f_code.co_name)
            f = f.f_back

    def paused(call, *args):
        try:
            out = call(*args)
        except ValueError as e:
            # the window STA of a plain circuit with a loop (ROADMAP 1(c))
            assert "unresolved placement" in str(e)
            out = None
        assert gc.collect() == 0, call.__name__
        return out

    gc.collect()
    gc.freeze()
    threshold = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(spy)
    try:
        for text in texts:
            c = paused(netlist.parse_netlist, text)
            g = paused(to_gate_graph, c)
            cfg = Config(T=c.T)
            paused(verify.simulate_waves, c, verify.reference_config(c, cfg))
            placements = [sta.as_placed(g)]
            try:
                placements.append(run_flow(g, cfg)[0])
            except InfeasibleError:
                pass
            gc.collect()
            for placed in placements:
                found = paused(propagate_windows, placed, cfg)
                if found is not None:
                    paused(sta.format_report, placed, *found)
                paused(verify.simulate_waves, placed, cfg)
    finally:
        gc.callbacks.remove(spy)
        gc.set_threshold(*threshold)
        gc.unfreeze()
    assert inside == []
