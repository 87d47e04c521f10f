import random
from collections import Counter
from dataclasses import replace

import pytest

from wavetime import cli, netlist, sta
from wavetime.netlist import Config, FlipFlopParams, to_gate_graph
from wavetime.sta import ArrivalWindow, EdgeDecision, OptimizedCircuit, \
    check_boundary, propagate_windows, traditional_min_period

from gen import (DATA, add_flipflop_loop, chain_placement, deep_chain_text,
                 exact_cfg, random_circuit, reverse_gate_names)


def test_min_period_goldens(fig_a, fig_b, fig_c):
    assert traditional_min_period(fig_a) == 21
    assert traditional_min_period(fig_b) == 16
    assert traditional_min_period(fig_c) == 11


def test_arrival_window_contract():
    w = ArrivalWindow(1.0, 2.0)
    assert repr(w) == "ArrivalWindow(s=1.0, s_prime=2.0)"
    assert (w.s, w.s_prime) == (1.0, 2.0)
    assert w == ArrivalWindow(1.0, 2.0) != ArrivalWindow(1.0, 2.5)
    with pytest.raises(AttributeError):
        w.s = 3.0


def _min_period(body):
    return traditional_min_period(netlist.parse_netlist(
        "circuit c\nclock period=10 duty=0.5\n"
        "ffparams tcq=3 tsu=1 th=1 tdq=1\n" + body))


def test_min_period_empty():
    c = netlist.parse_netlist(
        "circuit c\nclock period=10 duty=0.5\ninput a\n"
        "ff F from=a boundary\noutput y from=F\n")
    # a direct register-to-register connection still costs t_cq + t_su
    assert traditional_min_period(c) == 4.0
    # so does each link of a chain F -> R -> G -> y, R removable
    assert _min_period("input a\nff F from=a boundary\nff R from=F\n"
                       "ff G from=R boundary\noutput y from=G\n") == 4.0


def test_min_period_skips_gates_nothing_reads():
    # g and k drive nothing; only h's path to G counts
    assert _min_period("input a\nff F from=a boundary\n"
                       "gate g fn=buf delay=7.5 in=F\n"
                       "gate k fn=buf delay=2 in=g\n"
                       "gate h fn=buf delay=0.7 in=F\n"
                       "ff G from=h boundary\noutput y from=G\n") == \
        3.0 + (0.7 + 0.0) + 1.0
    # no launch reaches a capture: no path at all
    assert _min_period("input a\ngate g fn=buf delay=2 in=a\n") == 0.0


def test_min_period_input_read_only_by_an_output():
    assert _min_period("input a\noutput y from=a\n") == 4.0
    # a is read by an output and by a gate; b only by an output
    assert _min_period("input a\ninput b\ngate g fn=buf delay=0.3 in=a\n"
                       "output y from=a\noutput z from=b\n"
                       "output w from=g\n") == 3.0 + (0.3 + 0.0) + 1.0


def test_min_period_removable_flip_flop_cuts_the_path():
    # with R present, F -> g1 -> g2 -> g3 -> R is the worst path; its
    # delays add from the capture end back, which fixes the last bit:
    # added from the launch end, the period would read 6.3
    assert _min_period("input a\nff F from=a boundary\n"
                       "gate g1 fn=buf delay=0.1 in=F\n"
                       "gate g2 fn=buf delay=0.2 in=g1\n"
                       "gate g3 fn=buf delay=2 in=g2\nff R from=g3\n"
                       "gate g4 fn=buf delay=0.55 in=R\n"
                       "ff G from=g4 boundary\noutput y from=G\n") == \
        3.0 + (0.1 + (0.2 + (2.0 + 0.0))) + 1.0 == 6.300000000000001


def _traditional_min_period_reference(c):
    """The recursive memo over readers that traditional_min_period was
    before it walked a topological order, with its own reader map."""
    readers = {}
    for g in c.gates.values():
        for src in g.inputs:
            readers.setdefault(src, []).append(g.name)
    for f in c.ffs.values():
        readers.setdefault(f.src, []).append(f.name)
    for name, src in c.outputs:
        readers.setdefault(src, []).append(name)
    memo = {}

    def longest_from(gate):
        if gate in memo:
            return memo[gate]
        memo[gate] = float("-inf")
        best = float("-inf")
        for reader in readers.get(gate, ()):
            if reader in c.gates:
                best = max(best, longest_from(reader))
            else:
                best = max(best, 0.0)
        memo[gate] = c.gates[gate].d + best
        return memo[gate]

    worst = float("-inf")
    for launch in list(c.ffs) + list(c.inputs):
        for reader in readers.get(launch, ()):
            if reader in c.gates:
                worst = max(worst, longest_from(reader))
            else:
                worst = max(worst, 0.0)
    if worst == float("-inf"):
        return 0.0
    p = c.ff_params
    return p.t_cq + worst + p.t_su


def test_min_period_matches_reference():
    for path in sorted(DATA.glob("*.net")):
        c = netlist.parse_netlist(path.read_text())
        assert traditional_min_period(c) == \
            _traditional_min_period_reference(c), path.name
    rng = random.Random(17)
    for i in range(150):
        c = random_circuit(rng, max_gates=12, max_ffs=5, with_loop=i % 2 == 1)
        assert traditional_min_period(c) == _traditional_min_period_reference(c)


def test_deep_chain_analysis(tmp_path, capsys):
    n, d = 3000, 0.5
    text = deep_chain_text(n, d)
    c = netlist.parse_netlist(text)
    g = to_gate_graph(c)
    p = c.ff_params
    assert traditional_min_period(c) == p.t_cq + n * d + p.t_su
    placed = sta.as_placed(g)
    windows, violations = propagate_windows(placed, Config(T=c.T))
    assert violations == []
    assert windows["g0000"].s == pytest.approx((p.t_cq + n * d) * 1.1)
    report = sta.format_report(placed, windows, violations)
    rows = report.splitlines()
    assert len(rows) == 1 + n + len(g.terminals)
    assert [r.split("\t")[0] for r in rows[4:6]] == ["g2999", "g2998"]
    path = tmp_path / "deep.net"
    path.write_text(text)
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        f"min_period={p.t_cq + n * d + p.t_su:.6g}"


def test_window_golden_site_kept(fig_chain):
    placed = chain_placement(fig_chain)
    windows, violations = propagate_windows(placed, exact_cfg(10.0))
    assert windows["u"].s == 14
    assert windows[("u", "w", 0)].s == 4
    assert windows["w"].s == 7
    assert windows[("w", "z", 0)].s == 3
    assert windows["z"].s == 5
    assert windows["F4"].s == 5
    assert violations == []


def test_window_golden_site_removed(fig_chain):
    placed = chain_placement(fig_chain, keep_site=False)
    windows, violations = propagate_windows(placed, exact_cfg(10.0))
    assert windows[("w", "z", 0)].s == -3
    assert windows["z"].s == -1
    kinds = {(v.node, v.kind) for v in violations}
    assert ("F4", "hold") in kinds


def test_window_unit_region_violations(fig_chain):
    # shrink the period so the 14-arrival overruns the flip-flop region
    placed = chain_placement(fig_chain)
    _, violations = propagate_windows(placed, exact_cfg(6.0))
    assert any(v.kind in ("setup", "hold") for v in violations)


def test_latch_unit_transparent_and_opaque(fig_chain):
    cfg = exact_cfg(10.0)
    p = fig_chain.ff_params
    placed = chain_placement(fig_chain, keep_site=False)
    # latch at the second site, phase 0: transparency opens at 5
    placed.decisions[("w", "z", 0)] = EdgeDecision(unit="latch", n_cycle=0,
                                                   phi=0.0)
    windows, violations = propagate_windows(placed, cfg)
    # input window is [7,7]: past the opening, so it passes transparently
    w = windows[("w", "z", 0)]
    assert w.s == pytest.approx(7 + p.t_dq - 10)
    assert any(v.kind == "latch_region" for v in violations)


def test_latch_unit_early_signal_is_held(fig_chain):
    cfg = exact_cfg(10.0)
    placed = chain_placement(fig_chain, keep_site=False)
    placed.decisions[("u", "w", 0)] = EdgeDecision(unit="latch", n_cycle=1,
                                                   phi=0.0)
    windows, violations = propagate_windows(placed, cfg)
    # arrival 14 lies in the non-transparent region [10, 15]:
    # held until the latch opens, output 15 + t_cq
    assert windows[("u", "w", 0)].s == pytest.approx(15 + 3 - 10)
    assert not any(v.kind == "latch_region" and v.node == ("u", "w", 0)
                   for v in violations)


def test_boundary_check_edges():
    cfg = exact_cfg(10.0)
    p = FlipFlopParams(3, 1, 1, 1)
    ok = {"F": ArrivalWindow(9.0, 1.0)}   # s = T - t_su exactly
    assert check_boundary(ok, cfg, p) == []
    bad = {"F": ArrivalWindow(9.5, 0.5)}
    kinds = {v.kind for v in check_boundary(bad, cfg, p)}
    assert kinds == {"setup", "hold"}


def test_boundary_check_random_oracle():
    rng = random.Random(5)
    cfg = Config(T=10.0)
    p = FlipFlopParams(3, 1, 1, 1)
    for _ in range(1000):
        s = rng.uniform(-5, 15)
        sp = s - rng.uniform(0, 3)
        vs = check_boundary({"F": ArrivalWindow(s, sp)}, cfg, p)
        kinds = {v.kind for v in vs}
        assert ("setup" in kinds) == (s + p.t_su * cfg.r_u > cfg.T + cfg.eps)
        assert ("hold" in kinds) == (sp < p.t_h * cfg.r_u - cfg.eps)


def test_ff_unit_output_width_collapses(fig_chain):
    cfg = Config(T=10.0, r_u=1.1, r_l=0.9, t_stable=0.0)
    placed = chain_placement(fig_chain)
    windows, _ = propagate_windows(placed, cfg)
    w = windows[("w", "z", 0)]
    p = fig_chain.ff_params
    assert w.s - w.s_prime == pytest.approx((cfg.r_u - cfg.r_l) * p.t_cq)


def test_anchor_shift_linear(fig_chain):
    cfg = exact_cfg(10.0)
    placed = chain_placement(fig_chain, keep_site=False)
    base, _ = propagate_windows(placed, cfg)
    g = placed.graph
    shifted = sta.as_placed(netlist.GateGraph(
        g.circuit, g.gates, g.terminals, [e._replace(w=0) for e in g.edges]))
    ref, _ = propagate_windows(shifted, cfg)
    # two anchors on the path: both bounds at the sink drop by exactly 2T
    assert base["F4"].s == pytest.approx(ref["F4"].s - 2 * cfg.T)
    assert base["F4"].s_prime == pytest.approx(ref["F4"].s_prime - 2 * cfg.T)


def _bellman_latest(c, cfg):
    """Plain longest-path STA oracle for the no-anchor, no-unit case."""
    g = to_gate_graph(c)
    placed = sta.as_placed(g)
    launch = c.ff_params.t_cq
    vals = {}

    def value(node):
        if node in g.terminals and g.terminals[node] in ("input", "bff"):
            return launch
        if node not in vals:
            vals[node] = max(value(e.src) for e in g.in_edges(node)) + \
                (g.gates[node].d if node in g.gates else 0.0)
        return vals[node]

    return {n: value(n) for n in g.gates}


def test_matches_plain_sta_without_anchors():
    rng = random.Random(9)
    count = 0
    while count < 30:
        c = random_circuit(rng, max_ffs=0)
        g = to_gate_graph(c)
        if g.total_weight() != 0:
            continue
        count += 1
        cfg = exact_cfg(c.T)
        windows, _ = propagate_windows(sta.as_placed(g), cfg)
        oracle = _bellman_latest(c, cfg)
        for n, v in oracle.items():
            assert windows[n].s == pytest.approx(v)


def test_monotonicity_in_gate_delay(fig_c):
    cfg = exact_cfg(9.0)
    base_c = replace(fig_c, ffs={n: replace(f, boundary=n != "F6")
                                 for n, f in fig_c.ffs.items()})
    g = to_gate_graph(base_c)
    placed = sta.as_placed(g)
    w0, _ = propagate_windows(placed, cfg)
    slower = sta.OptimizedCircuit(g, gate_delays={"g3": 2.0})
    w1, _ = propagate_windows(slower, cfg)
    for n in g.gates:
        assert w1[n].s >= w0[n].s - 1e-12


def test_report_format(fig_chain):
    placed = chain_placement(fig_chain)
    windows, violations = propagate_windows(placed, exact_cfg(10.0))
    text = sta.format_report(placed, windows, violations)
    assert text.splitlines()[0].startswith("node")
    assert any(line.startswith("z\t5") for line in text.splitlines())


def _gate_order_reference(placed, units=("none", "latch")):
    """The straightforward quadratic form: re-collect and re-sort every
    ready gate after each pick, over the connections whose unit is in
    units."""
    g = placed.graph
    deps = {n: set() for n in g.gates}
    for e in g.edges:
        if e.dst in g.gates and e.src in g.gates:
            if placed.decision(e).unit in units:
                deps[e.dst].add(e.src)
    order, ready = [], sorted(n for n, d in deps.items() if not d)
    done = set()
    while ready:
        n = ready.pop(0)
        order.append(n)
        done.add(n)
        newly = sorted(m for m, d in deps.items()
                       if m not in done and m not in ready and d <= done)
        ready = sorted(ready + newly)
    if len(order) != len(deps):
        raise ValueError("cycle")
    return order


def _report_gates(placed, cfg):
    report = sta.format_report(placed, *propagate_windows(placed, cfg))
    names = [row.split("\t")[0] for row in report.splitlines()]
    return [n for n in names if n in placed.graph.gates]


def test_gate_order_matches_reference():
    """format_report lists the gates in the smallest-name-first
    topological order over every connection except flip-flop units; a
    cycle of unit-free connections is an unresolved placement, and a
    cycle through a latch still lists every gate once."""
    rng = random.Random(41)
    checked = unresolved = latch_cycles = 0
    for i in range(150):
        c = random_circuit(rng, max_gates=12, max_ffs=5,
                           with_loop=rng.random() < 0.5)
        if i % 3 == 0:
            c = add_flipflop_loop(rng, c)
        placed = sta.as_placed(to_gate_graph(c))
        for e in placed.graph.edges:
            if e.src in placed.graph.gates and rng.random() < 0.2:
                placed.decisions[sta.edge_key(e)] = EdgeDecision(
                    unit=rng.choice(["flipflop", "latch"]))
        cfg = Config(T=c.T)
        try:
            want = _gate_order_reference(placed)
        except ValueError:
            try:
                _gate_order_reference(placed, units=("none",))
            except ValueError:
                with pytest.raises(ValueError, match="unresolved placement"):
                    propagate_windows(placed, cfg)
                unresolved += 1
                continue
            assert sorted(_report_gates(placed, cfg)) == \
                sorted(placed.graph.gates)
            latch_cycles += 1
            continue
        assert _report_gates(placed, cfg) == want
        checked += 1
    assert checked > 90 and unresolved > 20 and latch_cycles >= 3


def test_acyclic_placement_computes_each_edge_window_once(monkeypatch):
    """With no cycle outside flip-flop units the first sweep is exact:
    every connection's window is computed once, with no confirming
    sweep and no provisional window for a unit."""
    calls = Counter()
    edge_window = sta._edge_window

    def counting(*args):
        calls["n"] += 1
        return edge_window(*args)

    monkeypatch.setattr(sta, "_edge_window", counting)
    c = netlist.parse_netlist(deep_chain_text(1000))
    g = to_gate_graph(c)
    placed = sta.as_placed(g)
    windows, violations = propagate_windows(placed, Config(T=c.T))
    assert violations == []
    assert calls["n"] == len(g.edges)
    placed.decisions[("g0900", "g0899", 0)] = EdgeDecision(unit="latch")
    placed.decisions[("g0500", "g0499", 0)] = EdgeDecision(unit="flipflop")
    calls.clear()
    propagate_windows(placed, Config(T=c.T))
    assert calls["n"] == len(g.edges)


def test_windows_do_not_depend_on_visit_order():
    """Reversing the sort order of the gate names changes the sweep order
    and the order of the gates left on cycles through latches.  A
    converged propagation is a fixed point, so windows and violations
    must map back unchanged, and an unresolved placement must fail on
    both sides.  A propagation that hits its sweep cap marks every latch
    with a latch_region violation of margin -1 and stops wherever the
    sweeps carried it, so there nothing is compared."""
    rng = random.Random(13)
    latch_cycles = 0
    for i in range(80):
        c = random_circuit(rng, max_gates=10, max_ffs=4,
                           with_loop=i % 2 == 1)
        if i % 4 != 3:
            c = add_flipflop_loop(rng, c)
        relabelled, new = reverse_gate_names(c)
        old = {v: k for k, v in new.items()}
        cfg = Config(T=c.T, r_u=1.1, r_l=0.9, t_stable=0.5)
        graph = to_gate_graph(c)
        placed = sta.as_placed(graph)
        placed_r = sta.as_placed(to_gate_graph(relabelled))
        for e in graph.edges:
            roll = rng.random()
            # removed flip-flops between gates, the loop's included, are
            # the likely unit sites
            if roll < (0.7 if e.w and e.src in graph.gates else 0.2):
                dec = EdgeDecision(unit=rng.choice(["latch", "latch",
                                                    "flipflop"]),
                                   n_cycle=rng.randint(-1, 1),
                                   phi=rng.choice(cfg.phases))
            elif roll < 0.4:
                dec = EdgeDecision(xi=rng.uniform(0, c.T / 2))
            else:
                continue
            placed.decisions[sta.edge_key(e)] = dec
            src, dst, pin = sta.edge_key(e)
            placed_r.decisions[(new.get(src, src), new.get(dst, dst),
                                pin)] = dec

        def back(node):
            if isinstance(node, tuple):
                return (old.get(node[0], node[0]),
                        old.get(node[1], node[1]), node[2])
            return old.get(node, node)

        try:
            a_win, a_v = propagate_windows(placed, cfg)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                propagate_windows(placed_r, cfg)
            continue
        b_win, b_v = propagate_windows(placed_r, cfg)
        if any(v.kind == "latch_region" and v.margin == -1.0
               for v in a_v + b_v):
            continue
        assert {back(k): w for k, w in b_win.items()} == a_win, i
        assert Counter((back(v.node), v.kind, v.margin) for v in b_v) == \
            Counter((v.node, v.kind, v.margin) for v in a_v), i
        try:
            _gate_order_reference(placed)
        except ValueError:
            latch_cycles += 1
    assert latch_cycles >= 20
