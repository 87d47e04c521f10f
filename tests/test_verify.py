import math
import random
import time
from collections import Counter

import pytest

from wavetime import cli, netlist, optimizer, sta, verify
from wavetime.netlist import Config, FlipFlopParams, to_gate_graph
from wavetime.sta import EdgeDecision, edge_key, propagate_windows
from wavetime.verify import (_capture_slot, check_equivalence,
                             reference_config, simulate_waves)

from gen import (DATA, add_flipflop_loop, chain_placement, deep_chain_text,
                 exact_cfg, random_circuit, reverse_gate_names)


def test_circuit_mode_capture_offsets(fig_chain):
    ref = reference_config(fig_chain, Config(T=10.0))
    assert ref.T == 15.0     # traditionally feasible period for the chain
    rep = simulate_waves(fig_chain, ref)
    assert rep.converged
    assert rep.violations == []
    # three register stages between launch and capture
    assert rep.offsets["F4"] == (3,)


def test_circuit_mode_slips_a_cycle_when_period_too_short(fig_chain):
    # at T=10 the first stage overruns one period; the dynamic flip-flop
    # catches the wave a slot late, shifting every capture by one cycle
    rep = simulate_waves(fig_chain, exact_cfg(10.0))
    assert rep.violations == []
    assert rep.offsets["F4"] == (4,)


def test_placed_mode_matches_circuit_mode(fig_chain):
    cfg = exact_cfg(10.0)
    placed = chain_placement(fig_chain)
    rep = simulate_waves(placed, cfg)
    assert rep.violations == []
    assert rep.offsets["F4"] == (3,)


def test_placed_mode_detects_hold_when_site_removed(fig_chain):
    placed = chain_placement(fig_chain, keep_site=False)
    rep = simulate_waves(placed, exact_cfg(10.0))
    kinds = {(v.node, v.kind) for v in rep.violations}
    assert ("F4", "hold") in kinds


def test_equivalence_golden(fig_chain):
    cfg = exact_cfg(10.0)
    ok, diff = check_equivalence(fig_chain, chain_placement(fig_chain), cfg)
    assert ok, diff
    assert "F4: reference captures wave n at cycle n+(3,)" in diff
    ok, _ = check_equivalence(fig_chain,
                              chain_placement(fig_chain, keep_site=False),
                              cfg)
    assert not ok


def test_reference_config_uses_feasible_period(fig_c):
    cfg = Config(T=9.0)
    ref = reference_config(fig_c, cfg)
    assert ref.T == 11.0       # traditional minimum beats the declared 9
    assert ref.r_u == ref.r_l == 1.0
    assert ref.t_stable == 0.0


def test_loop_circuit_converges():
    import pathlib
    text = (pathlib.Path(__file__).parent / "data" /
            "loop_orig.net").read_text()
    c = netlist.parse_netlist(text)
    rep = simulate_waves(c, reference_config(c, Config(T=c.T)))
    assert rep.converged
    assert rep.violations == []
    assert all(off >= 1 for offs in rep.offsets.values() for off in offs)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="F4 captures at n+1..16 in the placed circuit, "
                   "n+1 in the reference")
def test_loop_flow_is_equivalent():
    import pathlib
    c = netlist.parse_netlist((pathlib.Path(__file__).parent / "data" /
                               "loop_orig.net").read_text())
    cfg = Config(T=13.5)
    placed, _ = optimizer.run_flow(to_gate_graph(c), cfg)
    ok, diff = check_equivalence(c, placed, cfg)
    assert ok, diff


def test_agreement_with_window_analysis_on_flows(fig_c, fig_chain):
    """The two independent checkers must agree on the flow's outputs."""
    for circ, T in [(fig_c, 9.0), (fig_chain, 10.0)]:
        cfg = exact_cfg(T)
        placed, _ = optimizer.run_flow(to_gate_graph(circ), cfg)
        win, violations = propagate_windows(placed, cfg)
        rep = simulate_waves(placed, cfg)
        assert (rep.violations == []) == (violations == [])
        for k, w in rep.windows.items():
            if k in win:
                assert w.s == pytest.approx(win[k].s, abs=1e-9)
                assert w.s_prime == pytest.approx(win[k].s_prime, abs=1e-9)


def test_agreement_on_random_placements():
    rng = random.Random(23)
    for _ in range(120):
        c = random_circuit(rng, max_gates=8, max_ffs=4)
        g = to_gate_graph(c)
        placed = sta.as_placed(g)
        cfg = Config(T=c.T, r_u=1.1, r_l=0.9, t_stable=0.5)
        for e in g.edges:
            roll = rng.random()
            if roll < 0.2:
                placed.decisions[edge_key(e)] = EdgeDecision(
                    unit="flipflop", n_cycle=rng.randint(-1, 1),
                    phi=rng.choice(cfg.phases))
            elif roll < 0.4:
                placed.decisions[edge_key(e)] = EdgeDecision(
                    xi=rng.uniform(0, c.T / 2))
        win_v = propagate_windows(placed, cfg)[1]
        sim_v = simulate_waves(placed, cfg).violations
        assert (win_v == []) == (sim_v == [])


def test_plain_sink_that_misses_every_slot_has_negative_margin():
    """A sink window that fits no capture slot while s <= s' is reported
    with margin -T, as a dynamic flip-flop reports it, not with the
    non-negative -(s - s')."""
    missed = 0
    for seed in range(400):
        c = random_circuit(random.Random(seed), max_gates=8, max_ffs=4)
        for scale in (0.7, 1.0, 1.3):
            cfg = Config(T=scale * c.T, r_u=1.0, r_l=1.0, t_stable=0.0)
            rep = simulate_waves(c, cfg)
            assert all(v.margin < 0 for v in rep.violations)
            missed += any(v.margin == -cfg.T and v.node in rep.offsets
                          for v in rep.violations)
    assert missed > 0


def test_capture_slot_matches_bruteforce():
    rng = random.Random(7)
    p = FlipFlopParams(3, 1, 1, 1)
    T, r_u, eps = 10.0, 1.1, 1e-9
    for _ in range(2000):
        s = rng.uniform(-25, 25)
        sp = s - rng.uniform(0, 8)
        got = _capture_slot(s, sp, T, p, r_u, eps)
        legal = [m for m in range(-5, 6)
                 if m * T + p.t_h * r_u <= sp + eps
                 and s + p.t_su * r_u <= (m + 1) * T + eps]
        if legal:
            assert got == legal[0]
        else:
            assert got is None


def test_determinism(fig_chain):
    cfg = exact_cfg(10.0)
    a = simulate_waves(chain_placement(fig_chain), cfg)
    b = simulate_waves(chain_placement(fig_chain), cfg)
    assert a.offsets == b.offsets
    assert a.windows == b.windows
    assert [(v.node, v.kind) for v in a.violations] == \
        [(v.node, v.kind) for v in b.violations]


def test_anchor_shifts_offsets_not_behavior(fig_chain):
    """Anchors change the reference frame, and the capture offset keeps
    counting the original register stages."""
    cfg = exact_cfg(10.0)
    placed = chain_placement(fig_chain)
    rep = simulate_waves(placed, cfg)
    total_w = to_gate_graph(fig_chain).total_weight()
    assert rep.offsets["F4"] == (total_w + 1,)


def test_equivalence_work_is_linear_in_chain_length(monkeypatch):
    """Work is counted in edge_key calls, not seconds: tripling a chain
    whose gate names sort against it must triple the work, not square it."""
    calls = Counter()
    key = verify.edge_key

    def counting_key(e):
        calls["n"] += 1
        return key(e)

    monkeypatch.setattr(verify, "edge_key", counting_key)
    work = []
    for n in (1000, 3000):
        c = netlist.parse_netlist(deep_chain_text(n))
        calls.clear()
        ok, diff = check_equivalence(c, c, Config(T=c.T))
        assert ok, diff
        work.append(calls["n"])
    assert work[1] <= 3.1 * work[0], work


def test_cli_verify_on_deep_chain(tmp_path, capsys):
    # the 3000-gate pair of test_sdcgen.py::test_sdc_on_deep_chain; the
    # name-ordered fixed point took over a minute here, one sweep 0.2 s
    text = deep_chain_text(3000, ff_after=1500)
    c = netlist.parse_netlist(text)
    placed = sta.as_placed(to_gate_graph(c))
    orig = tmp_path / "deep.net"
    orig.write_text(text)
    opt = tmp_path / "deep_opt.net"
    opt.write_text(optimizer.placement_to_text(placed, Config(T=c.T), text))
    ok, diff = check_equivalence(c, placed, Config(T=c.T, duty=c.duty))
    start = time.perf_counter()
    code = cli.main(["verify", str(orig), str(opt),
                     "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == (0 if ok else 1)
    assert capsys.readouterr().out == ("PASS\n" if ok else "FAIL\n") + diff
    assert elapsed < 10.0


def test_simulation_does_not_depend_on_visit_order():
    """Reversing the sort order of the gate names changes the order that
    topological_order picks, and the order of the gates left on cycles.
    A converged simulation is a unique fixed point, so offsets, windows
    and violations must map back unchanged.  A simulation that hits its
    sweep cap (a unit on a cycle whose reference set keeps growing) is
    cut off wherever the sweeps happened to carry the wave, so there only
    the converged flag is compared."""
    rng = random.Random(11)
    cyclic_converged = 0
    for i in range(50):
        c = random_circuit(rng, max_gates=10, max_ffs=4,
                           with_loop=i % 2 == 1)
        if i % 3 == 0:
            c = add_flipflop_loop(rng, c)
        relabelled, new = reverse_gate_names(c)
        old = {v: k for k, v in new.items()}
        cfg = Config(T=c.T, r_u=1.1, r_l=0.9, t_stable=0.5)
        graph = to_gate_graph(c)
        placed = sta.as_placed(graph)
        placed_r = sta.as_placed(to_gate_graph(relabelled))
        for e in graph.edges:
            roll = rng.random()
            if roll < 0.2:
                dec = EdgeDecision(unit=rng.choice(["flipflop", "latch"]),
                                   n_cycle=rng.randint(-1, 1),
                                   phi=rng.choice(cfg.phases))
            elif roll < 0.4:
                dec = EdgeDecision(xi=rng.uniform(0, c.T / 2))
            else:
                continue
            placed.decisions[edge_key(e)] = dec
            src, dst, pin = edge_key(e)
            placed_r.decisions[(new.get(src, src), new.get(dst, dst),
                                pin)] = dec

        def back(node):
            if isinstance(node, tuple):
                return (old.get(node[0], node[0]),
                        old.get(node[1], node[1]), node[2])
            return old.get(node, node)

        cyclic = bool(netlist.topological_order(
            {g: [e.src for e in graph.in_edges(g) if e.src in graph.gates]
             for g in graph.gates})[1])
        for a_target, b_target in ((c, relabelled), (placed, placed_r)):
            a = simulate_waves(a_target, cfg)
            b = simulate_waves(b_target, cfg)
            assert a.converged == b.converged, i
            if not a.converged:
                continue
            cyclic_converged += cyclic
            assert {back(k): v for k, v in b.offsets.items()} == a.offsets
            assert {back(k): v for k, v in b.windows.items()} == a.windows
            assert Counter((back(v.node), v.kind) for v in b.violations) \
                == Counter((v.node, v.kind) for v in a.violations), i
    assert cyclic_converged >= 10


def test_unconverged_simulation_fails_equivalence():
    """A flip-flop unit on a loop that reaches no output: every offset
    agrees and the window STA is clean, but the loop's reference set
    grows on every sweep, so the placed simulation stops at its cap
    and the check must not pass on that truncated state."""
    c = netlist.parse_netlist(
        "circuit capped\nclock period=10 duty=0.5\n"
        "ffparams tcq=1 tsu=1 th=0.5 tdq=1\ninput a\nff FI from=a boundary\n"
        "gate g0 fn=buf delay=1 in=FI\ngate g1 fn=and delay=1 in=FI,FB\n"
        "ff FB from=g1\nff FO from=g0 boundary\noutput y from=FO\n")
    placed = sta.as_placed(to_gate_graph(c))
    placed.decisions[("g1", "g1", 1)] = EdgeDecision(unit="flipflop")
    cfg = Config(T=c.T)
    assert propagate_windows(placed, cfg)[1] == []
    assert not simulate_waves(placed, cfg).converged
    ok, diff = check_equivalence(c, placed, cfg)
    assert not ok
    assert diff.splitlines()[0] == "placed circuit simulation did not converge"
    assert "DIFF" not in diff


def test_reference_simulation_same_with_or_without_a_held_graph():
    """simulate_waves of a plain circuit reuses the graph a caller holds
    and builds one when none is held; both give the same report."""
    rng = random.Random(5)
    for _ in range(20):
        c = random_circuit(rng, with_loop=rng.random() < 0.5)
        cfg = reference_config(c, Config(T=c.T))
        fresh = simulate_waves(c, cfg)
        held = to_gate_graph(c)
        assert simulate_waves(c, cfg) == fresh
        assert to_gate_graph(c) is held


def test_one_gate_sort_per_analysis(monkeypatch):
    """STA and the reference simulation of one design share the graph's
    wave_order; the STA sorts again only when a connection carries a
    flip-flop unit, whose edge then stops ordering the sweep."""
    calls = Counter()
    sort = netlist.topological_order

    def counting(preds):
        calls["n"] += 1
        return sort(preds)

    # parse_netlist's validate sorts the circuit itself, before counting
    c = netlist.parse_netlist(deep_chain_text(50, ff_after=25))
    cfg = Config(T=c.T)
    for mod in (netlist, sta, verify):
        if hasattr(mod, "topological_order"):
            monkeypatch.setattr(mod, "topological_order", counting)
    g = to_gate_graph(c)
    placed = sta.as_placed(g)
    propagate_windows(placed, cfg)
    simulate_waves(c, reference_config(c, cfg))
    assert calls["n"] == 1
    placed.decisions[edge_key(g.edges[10])] = EdgeDecision(unit="flipflop")
    propagate_windows(placed, cfg)
    assert calls["n"] == 2


def test_default_decision_never_leaks(fig_c):
    """Both checkers share one default decision per call internally; the
    placement they read stays empty and hands out fresh defaults, which
    vsmodel.decode_solution may mutate."""
    g = to_gate_graph(fig_c)
    placed = sta.as_placed(g)
    cfg = Config(T=fig_c.T)
    propagate_windows(placed, cfg)
    simulate_waves(placed, cfg)
    assert placed.decisions == {} and placed.lam == {}
    e = g.edges[0]
    assert placed.decision(e) is not placed.decision(e)


def test_windows_are_built_when_first_read(monkeypatch, fig_c):
    """simulate_waves makes no ArrivalWindow per entry of its window
    table until rep.windows is read, and check_equivalence never reads
    it; the first read builds the map once."""
    made = Counter()
    window = verify.ArrivalWindow

    def counting(*args):
        made["n"] += 1
        return window(*args)

    monkeypatch.setattr(verify, "ArrivalWindow", counting)
    cfg = Config(T=fig_c.T)
    rep = simulate_waves(fig_c, reference_config(fig_c, cfg))
    check_equivalence(fig_c, sta.as_placed(to_gate_graph(fig_c)), cfg)
    assert made["n"] == 0
    windows = rep.windows
    assert made["n"] == len(windows) == len(rep.waves) > 0
    assert rep.windows is windows and made["n"] == len(windows)


def test_windows_read_late_equal_the_eager_map():
    """For every golden, plain and as placed, rep.windows is the map of
    the window table simulate_waves returned with, in its order; repr
    and equality read it like any other field."""
    for path in sorted(DATA.glob("*.net")):
        c = netlist.parse_netlist(path.read_text())
        cfg = Config(T=c.T)
        for target, run_cfg in ((c, reference_config(c, cfg)),
                                (sta.as_placed(to_gate_graph(c)), cfg)):
            rep = simulate_waves(target, run_cfg)
            eager = {k: sta.ArrivalWindow(s, sp)
                     for k, (s, sp, _) in dict(rep.waves).items()}
            unread = simulate_waves(target, run_cfg)
            assert unread == rep and rep == unread, path.stem
            assert repr(rep) == (
                f"CaptureReport(offsets={rep.offsets!r}, "
                f"violations={rep.violations!r}, "
                f"converged={rep.converged!r}, windows={eager!r})")
            assert list(rep.windows.items()) == list(eager.items())
            assert all(type(w) is sta.ArrivalWindow
                       for w in rep.windows.values())
