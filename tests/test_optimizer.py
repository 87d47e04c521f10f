import random
from dataclasses import replace

import pytest

from wavetime import milp, netlist, optimizer, sta, verify, vsmodel
from wavetime.netlist import Config, to_gate_graph
from wavetime.optimizer import (InfeasibleError, _snap, area, buffer_count,
                                discretize_delays, placement_from_text,
                                placement_to_text, replace_buffers, run_flow,
                                sweep_clock_period)
from wavetime.sta import EdgeDecision, propagate_windows

from gen import exact_cfg, random_circuit


def test_flow_fig_c_feasible_at_9(fig_c):
    g = to_gate_graph(fig_c)
    placed, report = run_flow(g, exact_cfg(9.0))
    assert report.final_T == 9.0
    assert report.area_before == 6
    assert report.area_after == 0
    assert report.n_f == report.n_l == report.n_b == 0
    _, violations = propagate_windows(placed, exact_cfg(9.0))
    assert violations == []


def test_flow_fig_c_infeasible_below_9(fig_c):
    g = to_gate_graph(fig_c)
    with pytest.raises(InfeasibleError) as err:
        run_flow(g, exact_cfg(8.9))
    assert err.value.stage == "relaxed"


def test_flow_fig_chain_buffers(fig_chain):
    g = to_gate_graph(fig_chain)
    cfg = exact_cfg(10.0)
    placed, report = run_flow(g, cfg)
    assert report.area_before == 12
    assert report.area_after == report.n_b * optimizer.BUFFER_AREA + \
        (report.n_f + report.n_l) * optimizer.FF_AREA
    assert report.area_after <= report.area_before
    _, violations = propagate_windows(placed, cfg)
    assert violations == []


def test_flow_deep_chain_places_units():
    import pathlib
    text = (pathlib.Path(__file__).parent / "data" /
            "deep_chain.net").read_text()
    c = netlist.parse_netlist(text)
    g = to_gate_graph(c)
    cfg = Config(T=10.0, r_u=1.1, r_l=0.9, t_stable=1.0)
    placed, report = run_flow(g, cfg)
    assert report.n_f == 2
    assert report.area_before == 30
    assert report.area_after == 12
    _, violations = propagate_windows(placed, cfg)
    assert violations == []
    ok, diff = verify.check_equivalence(c, placed, cfg)
    assert ok, diff


def test_report_area_counts_every_unit_and_buffer():
    # deep_chain places a latch at 8.5 and a flip-flop and a buffer at 9.5
    for T, counts in ((8.5, (0, 1, 0)), (9.5, (1, 0, 1))):
        cfg = Config(T=T)
        placed, report = run_flow(deep_chain(), cfg)
        assert (report.n_f, report.n_l, report.n_b) == counts
        assert report.area_after == area(placed, cfg) == \
            optimizer.FF_AREA * (report.n_f + report.n_l) + \
            optimizer.BUFFER_AREA * report.n_b


def count_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of module.name."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_flow_without_sites_solves_once(fig_c, monkeypatch):
    """With no stage-1 sites the cdq and legalization models are the
    relaxed model, so the flow reuses its one solution."""
    solves = count_calls(monkeypatch, milp, "solve")
    _, report = run_flow(to_gate_graph(fig_c), Config(T=fig_c.T))
    assert report.stages[0].n_sites == 0
    assert len(solves) == 1


def test_flow_with_sites_keeps_stage2_rounds(monkeypatch):
    import pathlib
    c = netlist.parse_netlist((pathlib.Path(__file__).parent / "data" /
                               "deep_chain.net").read_text())
    cfg = Config(T=10.0, r_u=1.1, r_l=0.9, t_stable=1.0)
    solves = count_calls(monkeypatch, milp, "solve")
    cdq = count_calls(monkeypatch, vsmodel, "build_cdq_model")
    moves = count_calls(monkeypatch, vsmodel, "set_dth")
    legal = count_calls(monkeypatch, vsmodel, "build_legalization_model")
    _, report = run_flow(to_gate_graph(c), cfg)
    assert report.stages[0].n_sites > 0
    # one round per schedule entry, down to the first d_th = 0; S does
    # not grow, so the model is built once and then moved to each d_th
    assert len(cdq) == 1
    assert len(cdq) + len(moves) == len(cfg.dth_schedule)
    assert len(legal) == 1
    assert len(solves) == 1 + len(cfg.dth_schedule) + len(legal)


def test_repeated_stage2_round_makes_no_cold_lp_call(monkeypatch):
    import pathlib
    c = netlist.parse_netlist((pathlib.Path(__file__).parent / "data" /
                               "deep_chain.net").read_text())
    cfg = Config(T=10.0, r_u=1.1, r_l=0.9, t_stable=1.0)
    rounds = []     # per milp.solve: (started, warm flag per lp_solve)
    solve, kernel = milp.solve, milp.lp_solve

    def recorded_solve(model, *args, start=None, **kwargs):
        rounds.append((start is not None, []))
        return solve(model, *args, start=start, **kwargs)

    def recorded_lp_solve(*args, start=None):
        rounds[-1][1].append(start is not None)
        return kernel(*args, start=start)

    monkeypatch.setattr(milp, "solve", recorded_solve)
    monkeypatch.setattr(milp, "lp_solve", recorded_lp_solve)
    run_flow(to_gate_graph(c), cfg)
    repeated = [warm for started, warm in rounds if started]
    assert len(repeated) == len(cfg.dth_schedule) - 1
    assert all(all(warm) for warm in repeated)
    assert sum(map(len, repeated)) > len(repeated)  # children too


def deep_chain():
    import pathlib
    return to_gate_graph(netlist.parse_netlist(
        (pathlib.Path(__file__).parent / "data" / "deep_chain.net")
        .read_text()))


def recorded_roots(monkeypatch):
    """A list that grows by (stage, site set, cold, T) per stage solve,
    cold telling whether its root LP started from the slack basis."""
    roots = []
    solve_stage, kernel = optimizer._solve_stage, milp.lp_solve

    def recorded(arts, cfg, stage, start=None):
        cold = []

        def lp_solve(*args, start=None):
            cold.append(start is None)
            return kernel(*args, start=start)

        monkeypatch.setattr(milp, "lp_solve", lp_solve)
        try:
            return solve_stage(arts, cfg, stage, start)
        finally:
            monkeypatch.setattr(milp, "lp_solve", kernel)
            roots.append((stage, frozenset(arts.x) | frozenset(arts.site),
                          cold[0], cfg.T))

    monkeypatch.setattr(optimizer, "_solve_stage", recorded)
    return roots


def test_sweep_makes_one_cold_root_per_stage_and_site_set(monkeypatch):
    """Each step re-solves the models of the step before, moved to its
    period, wherever its stage meets the same sites again, so a sweep
    whose site sets hold still starts one root LP per stage and site set
    from the slack basis: stage 1's, stage 2's and stage 3's."""
    roots = recorded_roots(monkeypatch)
    flows = count_calls(monkeypatch, optimizer, "run_flow")
    sweep_clock_period(deep_chain(), Config(T=9.0), step_fraction=0.005)
    assert len(flows) >= 10
    keys = set()
    for stage, sites, cold, T in roots:
        assert cold == ((stage, sites) not in keys), (stage, T)
        keys.add((stage, sites))
    assert sorted(stage for stage, _ in keys) == ["cdq", "legalization",
                                                  "relaxed"]
    assert max(T for *_, T in roots) == 9.0 > min(T for *_, T in roots)


def test_sweep_builds_cold_where_the_site_set_changes(monkeypatch):
    """On deep_chain from T = 10 in steps of 1%, stages 2 and 3 meet new
    site sets at later steps: there the flow builds cold and raises
    nothing, and every root on a site set the step before solved
    starts warm."""
    roots = recorded_roots(monkeypatch)
    _, _, best = sweep_clock_period(deep_chain(), Config(T=10.0),
                                    step_fraction=0.01)
    assert best.T < 9.0
    seen = {}       # (stage, site set) -> the periods it was solved at
    steps = sorted({T for *_, T in roots}, reverse=True)
    for stage, sites, cold, T in roots:
        before = seen.setdefault((stage, sites), set())
        last = steps[steps.index(T) - 1] if T != steps[0] else None
        assert cold == (last not in before and T not in before), \
            (stage, sorted(sites), T)
        before.add(T)
    assert any(cold for _, _, cold, T in roots if T != steps[0])


def test_solution_audit_keeps_its_absolute_tolerance(fig_chain,
                                                     monkeypatch):
    """The models' time is in units of T, but the audit of a stage's
    solution still reports a row broken by 2e-6 time units at T = 20,
    and passes one broken by less than milp.FEAS_EPS."""
    cfg = exact_cfg(20.0)
    arts = vsmodel.build_relaxed_model(to_gate_graph(fig_chain), cfg)
    sol = milp.solve(arts.model)
    row = next(c for c in arts.model.constraints
               if c.name.startswith("setup_"))
    (v, _), = row.coeffs.items()
    for excess in (2e-6, 0.5e-6):
        values = dict(sol.values)
        values[v] = row.rhs + excess / cfg.T
        monkeypatch.setattr(milp, "solve", lambda *args, **kwargs:
                            milp.Solution("optimal", values, 0.0))
        if excess > milp.FEAS_EPS:
            with pytest.raises(InfeasibleError, match=row.name):
                optimizer._solve_stage(arts, cfg, "relaxed")
        else:
            optimizer._solve_stage(arts, cfg, "relaxed")


def test_sweep_runs_every_flow_through_run_flow(fig_chain, monkeypatch):
    """One relaxed model is built per sweep and moved to each next period,
    each period tried by a run_flow call through the module global,
    where a tracer can wrap it."""
    flows = count_calls(monkeypatch, optimizer, "run_flow")
    builds = count_calls(monkeypatch, vsmodel, "build_relaxed_model")
    moves = count_calls(monkeypatch, vsmodel, "set_period")
    sweep_clock_period(to_gate_graph(fig_chain), exact_cfg(10.0),
                       step_fraction=0.01)
    assert len(builds) == 1
    assert len(flows) >= 5
    assert len(flows) == len(builds) + len(moves)


def test_run_flow_rejects_a_start_from_another_graph(fig_c, fig_chain):
    _, report = run_flow(to_gate_graph(fig_chain), exact_cfg(10.0))
    assert ("relaxed", frozenset()) in report.models
    with pytest.raises(ValueError, match="start"):
        run_flow(to_gate_graph(fig_c), exact_cfg(9.0), report.models)


def test_legalized_unit_gates_are_the_hot_sites(monkeypatch):
    """In every legalization model of a flow, the gates that carry a unit
    on an out-edge are exactly the sites in the decoded hot set, which
    is why stage 3 may iterate S_d <- hot to a fixed point."""
    from gen import add_flipflop_loop, random_chain
    decode = vsmodel.decode_solution
    checked = []

    def recorded(arts, sol):
        placed, hot = decode(arts, sol)
        if arts.site:
            checked.append(arts.site.keys() & hot == {
                k[0] for k, dec in placed.decisions.items()
                if dec.unit != "none"})
        return placed, hot

    monkeypatch.setattr(vsmodel, "decode_solution", recorded)
    for seed in range(30):
        rng = random.Random(seed)
        c = random_chain(rng)
        if seed % 3 == 0:
            c = add_flipflop_loop(rng, c)
        for scale in (0.6, 0.8, 1.0):
            try:
                run_flow(to_gate_graph(c), Config(T=scale * c.T))
            except InfeasibleError:
                pass
    assert len(checked) >= 20
    assert all(checked)


def test_report_text_format(fig_c):
    g = to_gate_graph(fig_c)
    _, report = run_flow(g, exact_cfg(9.0))
    text = report.text()
    assert "stage1.status=optimal" in text
    assert "final.T=9" in text
    assert all("=" in line for line in text.strip().splitlines())


def test_snap_golden():
    assert _snap(1.4, [1.0, 2.0]) == 1.0
    assert _snap(1.6, [1.0, 2.0]) == 2.0
    assert _snap(1.5, [1.0, 2.0]) == 1.0    # tie goes to the smaller
    assert _snap(0.2, [1.0, 2.0]) == 1.0
    assert _snap(9.0, [1.0, 2.0]) == 2.0


def test_snap_matches_bruteforce_oracle():
    rng = random.Random(3)
    for _ in range(2000):
        lib = sorted({round(rng.uniform(0.5, 9.5), 2)
                      for _ in range(rng.randint(1, 5))})
        v = rng.uniform(0.0, 10.0)
        got = _snap(v, lib)
        best = min(lib, key=lambda x: (abs(x - v), x))
        assert got == best


def test_buffer_count_and_area():
    cfg = exact_cfg(10.0)
    assert buffer_count(EdgeDecision(xi=0.0), cfg) == 0
    assert buffer_count(EdgeDecision(xi=0.3), cfg) == 1
    assert buffer_count(EdgeDecision(xi=2.0), cfg) == 2
    assert buffer_count(EdgeDecision(xi=2.0001), cfg) == 3


def test_absorb_equal_pads(fig_c):
    """decode_solution realizes equal pads as buffer delay on the
    gate's outgoing connections."""
    g = to_gate_graph(fig_c)
    arts = vsmodel.build_relaxed_model(g, exact_cfg(9.0))
    values = dict(milp.solve(arts.model).values)
    ab, bc = ("g1", "g2", 0), ("g2", "g3", 0)
    # the model's values are in units of T
    for key, xi, delta, delta_prime in ((ab, 1.0, 2.0, 2.0),
                                        (bc, 0.0, 1.0, 3.0)):
        values[arts.xi[key]] = xi / 9.0
        values[arts.delta[key[0]]] = delta / 9.0
        values[arts.delta_p[key[0]]] = delta_prime / 9.0
    placed, _ = vsmodel.decode_solution(
        arts, milp.Solution("optimal", values, 0.0))
    assert placed.decisions[ab].xi == pytest.approx(3.0)
    # unequal pads indicate a unit, not buffer delay
    assert placed.decisions[bc].xi == 0.0


def test_discretize_snaps_to_library(fig_c):
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0)
    placed = sta.as_placed(g)
    placed.gate_delays = {"g5": 1.4}
    out, _ = discretize_delays(placed, cfg)
    assert out.gate_delays["g5"] in g.gates["g5"].lib


def test_discretize_infeasible_when_library_cannot_meet_timing(fig_c):
    g = to_gate_graph(fig_c)
    placed = sta.as_placed(g)
    with pytest.raises(InfeasibleError) as err:
        discretize_delays(placed, exact_cfg(5.0))
    assert err.value.stage == "discretization"


def chain_with_buffer(fig_chain, xi):
    g = to_gate_graph(fig_chain)
    placed = sta.as_placed(g)
    placed.decisions[("F1", "u", 0)] = EdgeDecision(xi=xi)
    return placed


def test_replace_buffers_swaps_long_chain(fig_chain):
    cfg = exact_cfg(10.0)
    placed = chain_with_buffer(fig_chain, 7.0)
    before = area(placed, cfg)
    out, _, _ = replace_buffers(placed, cfg)
    after = area(out, cfg)
    assert after <= before
    dec = out.decisions[("F1", "u", 0)]
    if dec.unit != "none":
        assert dec.xi == 0.0
        _, violations = propagate_windows(out, cfg)
        assert violations == []


def test_replace_buffers_keeps_short_chain(fig_chain):
    cfg = exact_cfg(10.0)
    placed = chain_with_buffer(fig_chain, 2.0)   # below 0.5*T threshold
    out, _, _ = replace_buffers(placed, cfg)
    assert out.decisions[("F1", "u", 0)].unit == "none"
    assert out.decisions[("F1", "u", 0)].xi == 2.0


def test_replace_buffers_never_grows_area_random():
    rng = random.Random(11)
    cfg_cache = {}
    for _ in range(40):
        c = random_circuit(rng, max_gates=6, max_ffs=3)
        g = to_gate_graph(c)
        cfg = exact_cfg(c.T)
        placed = sta.as_placed(g)
        for e in g.edges:
            if rng.random() < 0.3:
                placed.decisions[sta.edge_key(e)] = \
                    EdgeDecision(xi=rng.uniform(0, c.T))
        before = area(placed, cfg)
        out, _, _ = replace_buffers(placed, cfg)
        assert area(out, cfg) <= before


def reference_replace_buffers(placed, cfg):
    """replace_buffers with no screen: one whole-circuit STA per trial,
    in the same order.  Kept to pin the screened walk's decisions."""
    decisions = placed.decisions
    for k in sorted((k for k, dec in decisions.items()
                     if dec.unit == "none" and dec.xi > cfg.replace_threshold),
                    key=lambda k: (-decisions[k].xi, k)):
        if buffer_count(decisions[k], cfg) < optimizer.FF_AREA:
            continue
        trials = (EdgeDecision(xi=0.0, unit=unit, n_cycle=n, phi=phi)
                  for unit in ("flipflop", "latch")
                  for n in range(-2, 3) for phi in cfg.phases)

        def clean(trial_dec):
            trial = replace(placed, decisions={**decisions, k: trial_dec})
            return not sta.propagate_windows(trial, cfg)[1]

        found = next(filter(clean, trials), None)
        if found is not None:
            decisions[k] = found
    return placed


def stage4_inputs(monkeypatch):
    """(placed, cfg, windows) that run_flow hands to replace_buffers on
    fig_chain, the loop goldens and seeded random designs, a third of
    them with a cycle through a removable flip-flop, at 1.0, 0.9 and 0.8
    times their period; then each of those with long buffer chains
    added on a third of its unit-free edges and on every unit-free edge
    of a cycle, with windows None."""
    from gen import add_flipflop_loop, load
    inputs = []
    stage4 = optimizer.replace_buffers

    def recorded(placed, cfg, windows):
        inputs.append((replace(placed, decisions=dict(placed.decisions)),
                       cfg, windows))
        return stage4(placed, cfg, windows)

    designs = [load(f"{n}.net") for n in ("fig_chain", "deep_chain",
                                          "loop_orig", "entangled_orig")]
    designs += [random_circuit(random.Random(seed), max_gates=8, max_ffs=4,
                               with_loop=seed % 2 == 1) for seed in range(20)]
    for seed in range(30):
        rng = random.Random(seed)
        designs.append(add_flipflop_loop(
            rng, random_circuit(rng, max_gates=8, max_ffs=4)))
    with monkeypatch.context() as mp:
        mp.setattr(optimizer, "replace_buffers", recorded)
        for c in designs:
            for scale in (1.0, 0.9, 0.8):
                try:
                    run_flow(to_gate_graph(c), Config(T=scale * c.T))
                except InfeasibleError:
                    pass
    rng = random.Random(5)
    for placed, cfg, _ in list(inputs):
        decisions = dict(placed.decisions)
        for k, dec in decisions.items():
            if dec.unit == "none" and (rng.random() < 0.3 or
                                       optimizer._reaches(placed.graph,
                                                          k[1], k[0])):
                decisions[k] = EdgeDecision(xi=rng.uniform(0.5, 1.0) * cfg.T)
        inputs.append((replace(placed, decisions=decisions), cfg, None))
    return inputs


def test_screened_replace_buffers_matches_reference(monkeypatch):
    """The capture-region screen changes no decision and saves STAs."""
    inputs = stage4_inputs(monkeypatch)
    sta_calls = count_calls(monkeypatch, sta, "propagate_windows")
    outs = []
    walks = (lambda placed, cfg, windows:
             replace_buffers(placed, cfg, windows)[0],
             lambda placed, cfg, _: reference_replace_buffers(placed, cfg))
    for walk in walks:
        start = len(sta_calls)
        outs.append([])
        for placed, cfg, windows in inputs:
            copy = replace(placed, decisions=dict(placed.decisions))
            try:
                outs[-1].append(walk(copy, cfg, windows).decisions)
            except ValueError as e:     # an unresolved placement
                outs[-1].append(str(e))
        outs[-1].append(len(sta_calls) - start)
    (*screened, screened_calls), (*full, full_calls) = outs
    assert screened == full
    swaps = sum(dec.unit != "none" and placed.decisions[k].unit == "none"
                for (placed, *_), out in zip(inputs, full)
                if not isinstance(out, str) for k, dec in out.items())
    assert swaps >= 10
    # some candidates lie on a cycle, where the screen is skipped
    assert any(optimizer._reaches(placed.graph, k[1], k[0])
               for placed, cfg, _ in inputs
               for k, dec in placed.decisions.items()
               if dec.unit == "none" and buffer_count(dec, cfg) >= 6)
    assert screened_calls < full_calls


def test_flow_checks_each_placement_once(monkeypatch):
    """A flow runs discretization's one or two STAs and one per buffer
    replacement trial: the walk starts from discretization's windows and
    the closing check reads the last clean STA's violations."""
    from gen import load
    designs = [load("fig_chain.net"), load("loop_orig.net")]
    designs += [random_circuit(random.Random(seed), max_gates=8, max_ffs=4,
                               with_loop=seed % 2 == 1) for seed in range(30)]
    calls = []      # per STA: (stage running, placement checked)
    stage = [None]  # (name, placement handed to it), or None
    sta_run = sta.propagate_windows
    monkeypatch.setattr(sta, "propagate_windows", lambda placed, cfg: (
        calls.append((stage[0], placed)) or sta_run(placed, cfg)))

    def staged(name, fn):
        def run(placed, *args):
            stage[0] = name, placed
            try:
                return fn(placed, *args)
            finally:
                stage[0] = None
        monkeypatch.setattr(optimizer, fn.__name__, run)

    staged("discretize", discretize_delays)
    staged("replace", replace_buffers)
    flows = trials = 0
    for c in designs:
        for scale in (1.0, 0.9):
            calls.clear()
            try:
                run_flow(to_gate_graph(c), Config(T=scale * c.T))
            except InfeasibleError:
                continue
            flows += 1
            names = [st and st[0] for st, _ in calls]
            assert names.count("discretize") in (1, 2)
            assert names.count("discretize") + names.count("replace") == \
                len(calls)
            # each STA of the walk checks a trial, not the placement it
            # was handed
            walked = [(st[1], placed) for st, placed in calls
                      if st[0] == "replace"]
            assert all(placed.decisions is not handed.decisions
                       for handed, placed in walked)
            trials += len(walked)
    assert flows >= 20 and trials >= 20


def test_stage4_hands_back_the_windows_of_its_placement(monkeypatch):
    """The windows and violations replace_buffers returns are those of a
    fresh STA of the placement it returns, in the same order, whether it
    was handed discretization's windows or ran its own STA."""
    handed = checked = 0
    for placed, cfg, windows in stage4_inputs(monkeypatch):
        copy = replace(placed, decisions=dict(placed.decisions))
        try:
            out, got, violations = replace_buffers(copy, cfg, windows)
        except ValueError:      # an unresolved placement
            continue
        want, want_violations = propagate_windows(out, cfg)
        assert list(got.items()) == list(want.items())
        assert violations == want_violations
        handed += windows is not None
        checked += 1
    assert handed >= 20 and checked > handed


def test_flow_refuses_violations_stage4_hands_back(fig_chain, monkeypatch):
    """run_flow fails at "finalize" on the violations stage 4 hands back,
    with no STA of its own."""
    calls = count_calls(monkeypatch, sta, "propagate_windows")
    ran = []

    def violating(placed, cfg, windows):
        placed.decisions = {k: EdgeDecision(xi=2 * cfg.T)
                            for k in placed.decisions}
        windows, violations = propagate_windows(placed, cfg)
        assert violations
        ran.append(len(calls))
        return placed, windows, violations

    monkeypatch.setattr(optimizer, "replace_buffers", violating)
    with pytest.raises(InfeasibleError) as err:
        run_flow(to_gate_graph(fig_chain), exact_cfg(10.0))
    assert err.value.stage == "finalize"
    assert ran == [len(calls)]


def test_sweep_returns_last_feasible(fig_c):
    g = to_gate_graph(fig_c)
    placed, report, best_cfg = sweep_clock_period(g, exact_cfg(9.0),
                                                  step_fraction=0.05)
    assert best_cfg.T <= 9.0
    # one step further must fail, otherwise the sweep stopped early
    with pytest.raises(InfeasibleError):
        run_flow(g, best_cfg.with_period(best_cfg.T - 0.05 * 9.0))
    _, violations = propagate_windows(placed, best_cfg)
    assert violations == []


def test_sweep_rejects_bad_step(fig_c):
    g = to_gate_graph(fig_c)
    with pytest.raises(ValueError):
        sweep_clock_period(g, exact_cfg(9.0), step_fraction=0.5)


def test_sweep_propagates_infeasibility(fig_c):
    g = to_gate_graph(fig_c)
    with pytest.raises(InfeasibleError):
        sweep_clock_period(g, exact_cfg(8.0), step_fraction=0.05)


def test_placement_file_round_trip(fig_chain):
    g = to_gate_graph(fig_chain)
    cfg = exact_cfg(10.0)
    placed, _ = run_flow(g, cfg)
    text = placement_to_text(placed, cfg, netlist.serialize(fig_chain))
    back, period = placement_from_text(text)
    assert period == cfg.T
    for e in g.edges:
        assert back.decision(e) == placed.decision(e)
        assert back.anchors(e) == placed.anchors(e)
    for name in g.gates:
        assert back.delay(name) == pytest.approx(placed.delay(name))


@pytest.mark.parametrize("statement, message", [
    ("edge w z 0 xi=0.0 unit=latc n=0 phi=0.0", "unknown unit 'latc'"),
    ("edge nosuch w 0 xi=0.0", "no edge"),
    ("edge w z 0 uint=latch", "unknown keys"),
    ("size w d", "expected key=value"),
    ("size nosuch d=1.0", "needs a netlist gate"),
    ("edge w z", "too few fields"),
    ("period nan", "'nan' is not a finite number"),
    ("period 0", "period 0.0 must be > 0"),
    ("period -5", "period -5.0 must be > 0"),
    ("size w d=inf", "'inf' is not a finite number"),
    ("edge w z 0 xi=nan", "'nan' is not a finite number"),
    ("edge w z 0 unit=latch phi=-inf", "'-inf' is not a finite number"),
])
def test_placement_file_statements_are_checked(fig_chain, statement, message):
    g = to_gate_graph(fig_chain)
    text = placement_to_text(sta.as_placed(g), exact_cfg(10.0),
                             netlist.serialize(fig_chain)) + statement + "\n"
    with pytest.raises(netlist.NetlistError, match=message) as err:
        placement_from_text(text)
    assert err.value.line == len(text.splitlines())


@pytest.mark.parametrize("statement, message", [
    ("period ten", "'ten' is not a finite number"),
    ("size w d=abc", "'abc' is not a finite number"),
    ("edge w z 0 xi=1,5", "'1,5' is not a finite number"),
    ("edge w z 0 unit=latch phi=x", "'x' is not a finite number"),
    ("edge w z 0 n=1.5", "'1.5' is not a finite integer"),
    ("edge w z 0 lam=x", "'x' is not a finite integer"),
    ("edge w z pin0", "'pin0' is not a finite integer"),
    ("edge w z 0.0", "'0.0' is not a finite integer"),
])
def test_malformed_placement_numbers_name_their_line(fig_chain, statement,
                                                     message):
    g = to_gate_graph(fig_chain)
    text = placement_to_text(sta.as_placed(g), exact_cfg(10.0),
                             netlist.serialize(fig_chain)) + statement + "\n"
    with pytest.raises(netlist.NetlistError, match=message) as err:
        placement_from_text(text)
    assert err.value.line == len(text.splitlines())


def test_with_period_keeps_big_m_at_least_4_t():
    """big_M * k may round below 4 * T; the scaled config must still be
    one that validate accepts."""
    cfg = Config(T=11.6, big_M=46.4)
    assert 46.4 * (14.169 / 11.6) < 4 * 14.169
    moved = cfg.with_period(14.169)
    assert moved.big_M == 4 * 14.169
    rng = random.Random(7)
    for _ in range(2000):
        T = rng.uniform(0.1, 50.0)
        moved = Config(T=T, big_M=4 * T).with_period(rng.uniform(0.1, 50.0))
        assert moved.big_M >= 4 * moved.T


def test_with_period_keeps_fractions_of_t_along_a_sweep():
    """A sweep reaches each period by with_period from the one before;
    every knob that is a fraction of T reads the same fraction, bit for
    bit, at each of 60 steps from every bench start period, and is that
    fraction times T, so no rounding piles up along the sweep."""
    def knobs(cfg):
        return [*cfg.phases, *cfg.dth_schedule, cfg.big_M,
                cfg.replace_threshold]

    for T0 in (8.5, 10.4, 8.0, 6.8, 13.5, 14.3, 20.1, 13.4):
        for cfg in (Config(T=T0),
                    Config(T=T0, phases=(0.0, 0.3 * T0), big_M=4.7 * T0)):
            want = list(map(cfg.fraction, knobs(cfg)))
            for _ in range(60):
                cfg = cfg.with_period(cfg.T - 0.005 * T0)
                assert list(map(cfg.fraction, knobs(cfg))) == want, cfg.T
                assert knobs(cfg) == [f * cfg.T for f in want], cfg.T


def test_with_period_scales_relative_knobs():
    cfg = Config(T=10.0)
    half = cfg.with_period(5.0)
    assert half.phases == tuple(p / 2 for p in cfg.phases)
    assert half.dth_schedule == tuple(d / 2 for d in cfg.dth_schedule)
    assert half.replace_threshold == cfg.replace_threshold / 2
    assert half.t_stable == cfg.t_stable
    assert half.r_u == cfg.r_u


def test_config_rejects_empty_tuples():
    for name in ("phases", "dth_schedule"):
        with pytest.raises(ValueError, match=name):
            Config(T=5.0, **{name: ()})


NON_FINITE = [({"T": T}, "positive and finite")
              for T in (float("nan"), float("inf"), 0.0, -1.0)] + \
    [({knob: value}, knob)
     for knob in ("alpha", "beta", "gamma", "t_stable", "buffer_delay",
                  "replace_threshold", "big_M")
     for value in (float("nan"), float("inf"), float("-inf"))] + \
    [({"eps": value}, "eps")
     for value in (float("nan"), float("inf"), -1e-9)] + \
    [({"t_stable": -3.0}, "t_stable"),
     ({"buffer_delay": 0.0, "t_stable": 0.0}, "buffer_delay"),
     ({"dth_schedule": (float("nan"), 0.0)}, "dth_schedule")]


@pytest.mark.parametrize(
    "kw, match", NON_FINITE,
    ids=[str(kw["T"]) if "T" in kw else
         "-".join(f"{k}-{v}" for k, v in kw.items()) for kw, _ in NON_FINITE])
def test_config_rejects_non_finite_period(kw, match):
    with pytest.raises(ValueError, match=match):
        Config(**{"T": 5.0, **kw})
