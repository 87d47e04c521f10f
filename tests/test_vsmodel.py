import random
from dataclasses import replace

import pytest

from wavetime import milp, sta, vsmodel
from wavetime.netlist import Config, GateGraph, to_gate_graph
from wavetime.optimizer import run_flow
from wavetime.sta import edge_key, propagate_windows

from gen import DATA, exact_cfg, random_circuit
from test_milp import enumeration_oracle


def constraint_names(arts):
    return [c.name for c in arts.model.constraints]


def test_relaxed_structure_counts(fig_c):
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0)
    arts = vsmodel.build_relaxed_model(g, cfg)
    names = constraint_names(arts)
    n_gates = len(g.gates)
    n_edges = len(g.edges)
    assert sum(n.startswith("arr_") for n in names) == n_edges
    assert sum(n.startswith("arrp_") for n in names) == n_edges
    assert sum(n.startswith("pad_order_") for n in names) == n_gates
    # one ordering constraint per connection into a padded gate
    gate_in = sum(1 for e in g.edges if e.dst in g.gates)
    assert sum(n.startswith("order_") for n in names) == gate_in
    assert sum(n.startswith("stable_") for n in names) == len(arts.s)
    capture_ffs = [t for t, kind in g.terminals.items()
                   if kind in ("output", "bff") and g.in_edges(t)]
    assert sum(n.startswith("setup_") for n in names) == len(capture_ffs)
    assert sum(n.startswith("hold_") for n in names) == len(capture_ffs)


def test_pads_scale_with_guard_bands(fig_c):
    """The pad coefficients in the arrival constraints carry the same
    guard bands a realized buffer would."""
    g = to_gate_graph(fig_c)
    cfg = Config(T=9.0, r_u=1.1, r_l=0.9, t_stable=0.0)
    arts = vsmodel.build_relaxed_model(g, cfg)
    by_name = {c.name: c for c in arts.model.constraints}
    for e in g.edges:
        if e.dst not in g.gates:
            continue
        cs = by_name[f"arr_{e.src}_{e.dst}_{e.dst_pin}"]
        csp = by_name[f"arrp_{e.src}_{e.dst}_{e.dst_pin}"]
        assert cs.coeffs[arts.delta[e.dst]] == pytest.approx(-cfg.r_u)
        assert csp.coeffs[arts.delta_p[e.dst]] == pytest.approx(-cfg.r_l)
        assert cs.coeffs[arts.xi[edge_key(e)]] == pytest.approx(-cfg.r_u)
        assert csp.coeffs[arts.xi[edge_key(e)]] == pytest.approx(-cfg.r_l)


def test_objective_coefficients(fig_c):
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0, alpha=100.0, beta=10.0, gamma=10.0)
    arts = vsmodel.build_relaxed_model(g, cfg)
    obj = arts.model.obj
    for name in g.gates:
        assert obj[arts.delta_p[name]] == pytest.approx(cfg.alpha + cfg.beta)
        assert obj[arts.delta[name]] == pytest.approx(-cfg.alpha)
        assert obj[arts.d[name]] == pytest.approx(-cfg.gamma)
    for v in arts.xi.values():
        assert obj[v] == pytest.approx(cfg.beta)


def test_relaxed_fig_c_feasible_at_9_not_below(fig_c):
    g = to_gate_graph(fig_c)
    arts = vsmodel.build_relaxed_model(g, exact_cfg(9.0))
    sol = milp.solve(arts.model)
    assert sol.status == "optimal"
    assert arts.model.violated(sol.values) == []
    arts = vsmodel.build_relaxed_model(g, exact_cfg(8.9))
    assert milp.solve(arts.model).status == "infeasible"


def test_decode_rejects_bad_status(fig_c):
    g = to_gate_graph(fig_c)
    arts = vsmodel.build_relaxed_model(g, exact_cfg(9.0))
    with pytest.raises(ValueError):
        vsmodel.decode_solution(arts, milp.Solution("infeasible", {}, 0.0))


def test_cdq_site_binaries_only_on_sites(fig_c):
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0)
    sites = {"g3"}
    arts = vsmodel.build_cdq_model(g, cfg, sites, d_th=1.0)
    assert set(arts.x) == sites
    sol = milp.solve(arts.model)
    assert sol.status == "optimal"
    placed, hot = vsmodel.decode_solution(arts, sol)
    assert hot <= set(g.gates)


def test_cdq_indicator_enforces_pad_bound(fig_chain):
    """Whenever a site's presence binary is on, the pad spread must meet
    the current bound; the model's pads are in units of T."""
    g = to_gate_graph(fig_chain)
    cfg = exact_cfg(10.0)
    arts = vsmodel.build_cdq_model(g, cfg, set(g.gates), d_th=2.0)
    sol = milp.solve(arts.model)
    assert sol.status == "optimal"
    for name, x in arts.x.items():
        if sol.values[x] > 0.5:
            spread = sol.values[arts.delta_p[name]] - \
                sol.values[arts.delta[name]]
            assert spread * cfg.T >= 2.0 - 1e-6


@pytest.mark.parametrize("on", [1.0, 0.0], ids=["on", "off"])
def test_cdq_indicator_binds_only_a_present_unit(fig_chain, on):
    """With x fixed, the least pad spread of the site is d_th when its
    unit is present and 0 when it is absent: off, the big-M row is
    vacuous even for a d_th no pad could reach (PAD_MAX is 2T)."""
    g = to_gate_graph(fig_chain)
    cfg = exact_cfg(10.0)
    d_th = 8.75 if on else 3 * cfg.T
    arts = vsmodel.build_cdq_model(g, cfg, {"w"}, d_th)
    m = arts.model
    m.add_constr({arts.x["w"]: 1.0}, "=", on)
    m.set_objective({arts.delta_p["w"]: 1.0, arts.delta["w"]: -1.0})
    sol = milp.solve(m)
    assert sol.status == "optimal"
    assert sol.objective * cfg.T == pytest.approx(on * d_th, abs=1e-6)


def bare_arts(big_M=100.0):
    """ModelArtifacts of an empty model whose big_M is big_M times T."""
    cfg = Config(T=1.0, big_M=big_M)
    return vsmodel.ModelArtifacts(milp.MilpModel(), None, cfg,
                                  knobs=vsmodel._matrix_knobs(cfg))


@pytest.mark.parametrize("branch, want", [(0, 5.0), (1, 0.0)],
                         ids=["ge_branch", "le_branch"])
def test_either_or_forces_branch(branch, want):
    arts = bare_arts()
    m = arts.model
    v = m.add_var(milp.CONTINUOUS, lb=0, ub=10)
    sels = vsmodel._either_or(arts, [[({v: 1.0}, ">=", lambda c: 5.0)],
                                     [({v: 1.0}, "<=", lambda c: 1.0)]])
    # the one-selector row, then one period row per branch row
    assert [i for i, _ in arts.period_rows] == [1, 2]
    for i, rhs in arts.period_rows:
        assert m.constraints[i].rhs == rhs(arts.cfg)
    m.add_constr({sels[branch]: 1.0}, "=", 1.0)
    m.set_objective({v: 1.0})
    sol = milp.solve(m)
    assert sol.values[v] == pytest.approx(want, abs=1e-6)


def test_either_or_vs_enumeration():
    rng = random.Random(4)
    for _ in range(20):
        arts = bare_arts(200.0)
        m = arts.model
        v = m.add_var(milp.CONTINUOUS, lb=-5, ub=15)
        w = m.add_var(milp.CONTINUOUS, lb=-5, ub=15)
        b1 = [({v: 1.0, w: 1.0}, ">=", lambda c, r=rng.uniform(0, 6): r)]
        b2 = [({v: 1.0}, "<=", lambda c, r=rng.uniform(-3, 3): r),
              ({w: 1.0}, ">=", lambda c, r=rng.uniform(0, 4): r)]
        vsmodel._either_or(arts, [b1, b2])
        m.set_objective({v: 1.0, w: 2.0})
        sol = milp.solve(m)
        oracle = enumeration_oracle(m)
        assert sol.objective == pytest.approx(oracle, abs=1e-5)


def test_set_dth_equals_a_rebuild(fig_chain):
    """Moving a cdq model to another d_th gives the model built at it."""
    g = to_gate_graph(fig_chain)
    cfg = exact_cfg(10.0)
    arts = vsmodel.build_cdq_model(g, cfg, set(g.gates), cfg.dth_schedule[0])
    for d_th in cfg.dth_schedule[1:]:
        vsmodel.set_dth(arts, d_th)
        want = vsmodel.build_cdq_model(g, cfg, set(g.gates), d_th)
        assert milp.export_lp(arts.model) == milp.export_lp(want.model)


# every kind of model a flow builds, on sites S, at cfg
MODEL_KINDS = {
    "relaxed": lambda g, cfg, S: vsmodel.build_relaxed_model(g, cfg),
    "cdq@7T/8": lambda g, cfg, S: vsmodel.build_cdq_model(g, cfg, S,
                                                          7 * cfg.T / 8),
    "cdq@0": lambda g, cfg, S: vsmodel.build_cdq_model(g, cfg, S, 0.0),
    "legalization": lambda g, cfg, S: vsmodel.build_legalization_model(
        g, cfg, S),
}


def model_arrays(m):
    """The arrays a model owns, which are all that milp.solve reads."""
    return m.c, m.A, m.rel, m.b, m.lb, m.ub, m.integer


def assert_same_model(got, want, label):
    """Bit for bit: the model's arrays and the LP text."""
    import numpy as np
    for a, b in zip(model_arrays(got), model_arrays(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b), label
    assert milp.export_lp(got) == milp.export_lp(want), label


def test_set_period_equals_a_rebuild():
    """A model of each kind moved from period to period, as the sweep
    moves it, equals the model built at each, t_stable read from the
    new cfg.  A moved cdq model keeps its d_th, and moved on to the d_th
    of the rebuild, equals that too."""
    for name, c in stage_corpus():
        g, cfg = to_gate_graph(c), Config(T=c.T)
        sites = set(sorted(g.gates)[:3])
        periods = [cfg.with_period(k * c.T) for k in (0.9, 0.995, 1.2)]
        for kind, build in MODEL_KINDS.items():
            arts = build(g, cfg, sites)
            for to in periods + [replace(periods[-1], t_stable=0.25)]:
                label = (name, kind, to.T)
                vsmodel.set_period(arts, g, to)
                assert arts.cfg is to
                want = build(g, to, sites)
                if arts.d_th is not None:
                    kept = vsmodel.build_cdq_model(g, to, sites, arts.d_th)
                    assert_same_model(arts.model, kept.model, label)
                    vsmodel.set_dth(arts, want.d_th)
                assert_same_model(arts.model, want.model, label)


def test_model_moves_along_a_60_step_sweep():
    """A sweep reaches each period by with_period from the one before.
    Every model kind moved down 60 such steps from each bench start
    period is refused at no step and equals the model built there."""
    import pathlib
    from wavetime import netlist
    c = netlist.parse_netlist((pathlib.Path(__file__).parent / "data" /
                               "deep_chain.net").read_text())
    g = to_gate_graph(c)
    for T0 in (8.5, 10.4, 8.0, 6.8, 13.5, 14.3, 20.1, 13.4):
        cfg = Config(T=T0, phases=(0.0, 0.3 * T0, 0.61 * T0))
        models = {kind: build(g, cfg, {"g1", "g2"})
                  for kind, build in MODEL_KINDS.items()}
        for _ in range(60):
            cfg = cfg.with_period(cfg.T - 0.005 * T0)
            for arts in models.values():
                vsmodel.set_period(arts, g, cfg)
        for kind, arts in models.items():
            want = MODEL_KINDS[kind](g, cfg, {"g1", "g2"})
            if want.d_th is not None:
                vsmodel.set_dth(arts, want.d_th)
            assert_same_model(arts.model, want.model, (T0, kind))


def test_cdq_model_needs_big_m_above_a_unit_delay(fig_chain):
    """The unit-delay product is bounded by big_M in units of T, so a
    pad of 2T plus t_cq must fit under big_M."""
    g = to_gate_graph(fig_chain)
    cfg = Config(T=10.0, big_M=40.0)
    vsmodel.build_cdq_model(g, cfg, set(g.gates), 0.0)
    g.circuit.ff_params = replace(g.circuit.ff_params, t_cq=20.0 + 1e-9)
    with pytest.raises(ValueError, match="big_M"):
        vsmodel.build_cdq_model(g, cfg, set(g.gates), 0.0)


@pytest.mark.parametrize("knob", [{"r_u": 1.2}, {"gamma": 5.0},
                                  {"big_M": 90.0},
                                  {"phases": (0.0, 2.5, 5.0)}])
def test_set_period_rejects_a_start_under_other_knobs(fig_chain, knob):
    """A moved model keeps its matrix and objective, which read r_u, r_l,
    alpha, beta and gamma, and big_M and the phases as fractions of T, so
    a start made under others is refused."""
    g = to_gate_graph(fig_chain)
    cfg = Config(T=10.0)
    for kind, build in MODEL_KINDS.items():
        arts = build(g, cfg, set(g.gates))
        with pytest.raises(ValueError, match="start"):
            vsmodel.set_period(arts, g,
                               replace(cfg.with_period(9.0), **knob))
    _, report = run_flow(g, cfg)
    with pytest.raises(ValueError, match="start"):
        run_flow(g, replace(cfg, **knob), report.models)


def test_set_period_rejects_a_start_from_another_graph(fig_c, fig_chain):
    g = to_gate_graph(fig_chain)
    for kind, build in MODEL_KINDS.items():
        arts = build(g, Config(T=10.0), set(g.gates))
        with pytest.raises(ValueError, match="start"):
            vsmodel.set_period(arts, to_gate_graph(fig_c), Config(T=9.0))
        # the same netlist parsed again is the same graph
        vsmodel.set_period(arts, to_gate_graph(fig_chain), Config(T=9.0))


def test_set_dth_rejects_nan(fig_chain):
    g = to_gate_graph(fig_chain)
    arts = vsmodel.build_cdq_model(g, exact_cfg(10.0), set(g.gates), 1.0)
    with pytest.raises(ValueError, match="d_th"):
        vsmodel.set_dth(arts, float("nan"))


def test_legalization_objective_prefers_a_flipflop_to_a_latch(fig_c):
    g = to_gate_graph(fig_c)
    arts = vsmodel.build_legalization_model(g, exact_cfg(9.0), {"g3", "g5"})
    for sv in arts.site.values():
        none, ff, latch = sv["cases"]
        assert none not in arts.model.obj and ff not in arts.model.obj
        assert arts.model.obj[latch] == vsmodel.X_COST


def deep_chain_graph():
    import pathlib
    from wavetime import netlist
    text = (pathlib.Path(__file__).parent / "data" /
            "deep_chain.net").read_text()
    c = netlist.parse_netlist(text)
    return c, to_gate_graph(c)


def test_legalized_solution_passes_independent_sta():
    """The core cross-oracle: a clean legalized MILP solution, decoded
    into a placement, must satisfy the window analysis."""
    _, g = deep_chain_graph()
    cfg = Config(T=10.0, r_u=1.1, r_l=0.9, t_stable=1.0)
    arts = vsmodel.build_legalization_model(g, cfg, {"g1", "g2"})
    sol = milp.solve(arts.model)
    assert sol.status == "optimal"
    assert arts.model.violated(sol.values) == []
    placed, _ = vsmodel.decode_solution(arts, sol)
    _, violations = propagate_windows(placed, cfg)
    assert violations == []
    units = {k[0] for k, d in placed.decisions.items() if d.unit != "none"}
    assert units == {"g1", "g2"}


def test_legalized_case1_drops_site(fig_c):
    """A site that needs no unit legalizes to the pass-through case."""
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0)
    arts = vsmodel.build_legalization_model(g, cfg, {"g5"})
    sol = milp.solve(arts.model)
    assert sol.status == "optimal"
    placed, _ = vsmodel.decode_solution(arts, sol)
    assert all(d.unit == "none" for d in placed.decisions.values())


def test_objective_monotone_in_library_growth(fig_c):
    """Widening a gate's library upward only adds feasible choices, so
    the optimum cannot get worse."""
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0)
    base = milp.solve(vsmodel.build_relaxed_model(g, cfg).model)
    # a graph of its own: the graph of fig_c is shared and not mutated
    gate = g.gates["g5"]
    widened = replace(gate, lib=tuple(sorted(set(gate.lib) | {3.0})))
    h = GateGraph(fig_c, {**g.gates, "g5": widened}, dict(g.terminals),
                  list(g.edges))
    wider = milp.solve(vsmodel.build_relaxed_model(h, cfg).model)
    assert wider.objective <= base.objective + 1e-6
    assert g.gates["g5"] is gate


def test_build_determinism(fig_c):
    g = to_gate_graph(fig_c)
    cfg = exact_cfg(9.0)
    a = milp.export_lp(vsmodel.build_relaxed_model(g, cfg).model)
    b = milp.export_lp(vsmodel.build_relaxed_model(g, cfg).model)
    assert a == b


def test_structure_invariant_random_corpus():
    """Constraint-count formula holds on random circuits (build only)."""
    rng = random.Random(17)
    for _ in range(200):
        c = random_circuit(rng, max_gates=8, max_ffs=4)
        g = to_gate_graph(c)
        cfg = exact_cfg(c.T)
        arts = vsmodel.build_relaxed_model(g, cfg)
        names = constraint_names(arts)
        assert sum(n.startswith("arr_") for n in names) == len(g.edges)
        assert sum(n.startswith("pad_order_") for n in names) == len(g.gates)
        assert sum(n.startswith("stable_") for n in names) == len(arts.s)


def test_legalization_structure_arrival_rows():
    """One arr_/arrp_ pair per edge; a site's in-edge rows land on its
    pre-unit point sw/swp and never on its post-unit s/sp."""
    _, g = deep_chain_graph()
    cfg = Config(T=10.0, r_u=1.1, r_l=0.9, t_stable=1.0)
    sites = {"g1", "g2"}
    arts = vsmodel.build_legalization_model(g, cfg, sites)
    names = constraint_names(arts)
    for e in g.edges:
        tag = f"{e.src}_{e.dst}_{e.dst_pin}"
        assert names.count(f"arr_{tag}") == 1
        assert names.count(f"arrp_{tag}") == 1
    assert sum(n.startswith("arr_") for n in names) == len(g.edges)
    assert sum(n.startswith("arrp_") for n in names) == len(g.edges)
    by_name = {c.name: c for c in arts.model.constraints}
    var_names = [v.name for v in arts.model.vars]
    for site in sites:
        in_edges = g.in_edges(site)
        assert in_edges
        for e in in_edges:
            tag = f"{e.src}_{e.dst}_{e.dst_pin}"
            cs = {var_names[v] for v in by_name[f"arr_{tag}"].coeffs}
            csp = {var_names[v] for v in by_name[f"arrp_{tag}"].coeffs}
            assert f"sw_{site}" in cs and f"s_{site}" not in cs
            assert f"swp_{site}" in csp and f"sp_{site}" not in csp


def highs(model):
    """(status, objective) of a MilpModel solved by scipy's HiGHS, read
    from the model's arrays."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as scipy_milp

    lo = np.where(model.rel != "<=", model.b, -np.inf)
    hi = np.where(model.rel != ">=", model.b, np.inf)
    res = scipy_milp(model.c, constraints=[LinearConstraint(model.A, lo, hi)],
                     integrality=model.integer,
                     bounds=Bounds(model.lb, model.ub),
                     options={"mip_rel_gap": 1e-9})
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, res.message
    return "optimal", res.fun


def stage_models(graph, cfg):
    """The stage-1 relaxed model, then, when it solves, the cdq models at
    d_th = 7T/8 and 0 and the legalization model on its sites."""
    arts = vsmodel.build_relaxed_model(graph, cfg)
    yield "relaxed", arts.model
    sol = milp.solve(arts.model)
    if sol.status != "optimal":
        return
    _, sites = vsmodel.decode_solution(arts, sol)
    for d_th in (7 * cfg.T / 8, 0.0):
        yield f"cdq@{d_th}", vsmodel.build_cdq_model(graph, cfg, set(sites),
                                                     d_th).model
    yield "legal", vsmodel.build_legalization_model(graph, cfg,
                                                    set(sites)).model


def stage_corpus():
    """(name, circuit) for every golden and three seeded random designs."""
    import pathlib
    from wavetime import netlist
    data = pathlib.Path(__file__).parent / "data"
    circuits = [(p.stem, netlist.parse_netlist(p.read_text()))
                for p in sorted(data.glob("*.net"))]
    circuits += [(f"rand{seed}", random_circuit(random.Random(seed),
                                                max_gates=8, max_ffs=4))
                 for seed in (101, 102, 103)]
    return circuits


def test_stage_models_agree_with_highs():
    """milp.solve against HiGHS on the real stage models, which with
    big_M = 8T and FREE_BOUND = 1e6 are worse conditioned than the random
    models of test_milp."""
    solved = 0
    for name, c in stage_corpus():
        for label, model in stage_models(to_gate_graph(c), Config(T=c.T)):
            ours = milp.solve(model)
            status, obj = highs(model)
            assert ours.status == status, (name, label)
            if status == "optimal":
                solved += 1
                tol = 1e-6 * max(1.0, abs(obj))
                assert abs(ours.objective - obj) <= tol, (name, label)
    assert solved >= 10


def test_siteless_stage_models_are_the_relaxed_model():
    """With no sites the cdq model at any d_th and the legalization model
    have the relaxed model's arrays, so the flow may reuse its solution."""
    import numpy as np
    for name, c in stage_corpus():
        g, cfg = to_gate_graph(c), Config(T=c.T)
        want = model_arrays(vsmodel.build_relaxed_model(g, cfg).model)
        for arts in (vsmodel.build_cdq_model(g, cfg, set(), 7 * cfg.T / 8),
                     vsmodel.build_cdq_model(g, cfg, set(), 0.0),
                     vsmodel.build_legalization_model(g, cfg, set())):
            got = model_arrays(arts.model)
            for a, b in zip(want, got):
                assert np.array_equal(a, b), name


def test_root_tableau_holds_the_models_own_arrays(monkeypatch):
    """The root Tableau of a solve keeps the very arrays of the model, so
    that a re-solve of the model moved by its setters finds the same c, A
    and rel by identity, with no array comparison."""
    import numpy as np
    c, g = deep_chain_graph()
    arts = vsmodel.build_cdq_model(g, Config(T=c.T), {"g1", "g4"},
                                   7 * c.T / 8)
    m = arts.model
    sol = milp.solve(m)
    assert sol.status == "optimal"
    for name in ("c", "A", "rel", "b", "lb", "ub"):
        assert getattr(sol.root, name) is getattr(m, name), name
    vsmodel.set_period(arts, g, arts.cfg.with_period(0.995 * c.T))
    assert sol.root.b is not m.b and sol.root.c is m.c

    def refuse(*args):
        raise AssertionError("same_lp compared equal arrays")
    monkeypatch.setattr(np, "array_equal", refuse)
    assert milp.solve(m, start=sol).status == "optimal"


def kept_arrays(sol):
    """(kept object, name, array, copy) of the b, lb and ub of the root
    Tableau, node Tableaux and Proofs that sol keeps."""
    kept = [sol.root, *sol.nodes.values(), *sol.proofs.values()]
    return [(k, name, getattr(k, name), getattr(k, name).copy())
            for k in kept for name in ("b", "lb", "ub")]


def assert_kept_unchanged(arrays):
    import numpy as np
    for k, name, a, copy in arrays:
        assert getattr(k, name) is a and np.array_equal(a, copy), name


def test_setters_leave_the_kept_tableaux_and_proofs_as_they_are():
    """set_period, set_dth and a direct setter call each give the model
    new b, lb and ub arrays: the kept root Tableau, node Tableaux and
    Proofs of its last solution keep theirs, bit for bit, and a re-solve
    from them matches a cold solve of the moved model."""
    c, g = deep_chain_graph()
    cfg = Config(T=c.T)
    sites = set(sorted(g.gates)[:3])
    arts = vsmodel.build_cdq_model(g, cfg, sites, 7 * cfg.T / 8)
    m = arts.model
    sol = milp.solve(m)
    row, d = arts.dth_rows[0], arts.d["g1"]
    moves = [lambda: vsmodel.set_period(arts, g, cfg.with_period(0.995 * c.T)),
             lambda: vsmodel.set_dth(arts, 3 * cfg.T / 4),
             lambda: m.set_rhs([row], [m.b[row] - 0.01]),
             lambda: m.set_bounds([d], [m.lb[d]], [m.lb[d]])]
    for move in moves:
        assert sol.status == "optimal" and sol.nodes and sol.proofs
        arrays = kept_arrays(sol)
        moved = m.b, m.lb, m.ub
        move()
        assert any(a is not b for a, b in zip(moved, (m.b, m.lb, m.ub)))
        assert_kept_unchanged(arrays)
        warm = milp.solve(m, start=sol)
        cold = milp.solve(m)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert m.violated(warm.values) == []
        assert_kept_unchanged(arrays)
        sol = warm


def test_model_views_are_read_only(fig_chain):
    """The views are read from the arrays, so a write to them raises
    rather than silently moving nothing; so does a write to an array."""
    import numpy as np
    m = vsmodel.build_relaxed_model(to_gate_graph(fig_chain),
                                    Config(T=10.0)).model
    writes = [lambda: setattr(m.vars[0], "lb", 0.0),
              lambda: setattr(m.constraints[0], "rhs", 0.0),
              lambda: m.constraints[0].coeffs.update({0: 1.0}),
              lambda: m.obj.update({0: 1.0}),
              lambda: m.constraints.__setitem__(0, m.constraints[1]),
              lambda: setattr(m, "b", np.zeros(len(m.b))),
              lambda: m.b.__setitem__(0, 0.0),
              lambda: m.lb.__setitem__(0, 0.0)]
    before = milp.export_lp(m)
    for write in writes:
        with pytest.raises((AttributeError, TypeError, ValueError)):
            write()
    assert milp.export_lp(m) == before


def test_decode_names_the_first_fractional_integer_variable(fig_c):
    """decode_solution checks integrality on the model's integer mask and
    names the first fractional integer variable; a fractional continuous
    value passes."""
    arts = vsmodel.build_cdq_model(to_gate_graph(fig_c), exact_cfg(9.0),
                                   {"g3", "g5"}, 1.0)
    sol = milp.solve(arts.model)
    assert sol.status == "optimal"
    values = dict(sol.values)
    values[arts.d["g1"]] += 0.25
    vsmodel.decode_solution(arts, milp.Solution("optimal", values, 0.0))
    values[arts.x["g5"]] = values[arts.x["g3"]] = 0.5
    with pytest.raises(AssertionError,
                       match="fractional integer value for x_g3$"):
        vsmodel.decode_solution(arts, milp.Solution("optimal", values, 0.0))


def written_out_sites(arts, sol):
    """The site rules of decode_solution, written out: a gate whose pads
    differ by more than PAD_EPS in absolute time, a cdq site with its
    unit present, and a legalization site off case 1 (no unit)."""
    vals, T = sol.values, arts.cfg.T
    return ({g for g, d in arts.delta.items()
             if vals[arts.delta_p[g]] * T - vals[d] * T > vsmodel.PAD_EPS}
            | {g for g, x in arts.x.items() if vals[x] > 0.5}
            | {g for g, sv in arts.site.items() if vals[sv["cases"][0]] < 0.5})


def test_hot_sites_are_the_decoded_sites():
    """For every relaxed, cdq and legalization solve of the stage corpus,
    the site set read alone equals the one decode_solution returns with
    a placement and the written-out rules; a present cdq unit is a site
    even with equal pads.  Like decode_solution, hot_sites refuses a
    solution that is not optimal and names a fractional integer."""
    compared, kinds = 0, set()
    for name, c in stage_corpus():
        g, cfg = to_gate_graph(c), Config(T=c.T)
        arts = vsmodel.build_relaxed_model(g, cfg)
        sol = milp.solve(arts.model)
        solves = [(arts, sol)]
        if sol.status == "optimal":
            sites = set(vsmodel.hot_sites(arts, sol))
            solves += [(cdq, milp.solve(cdq.model)) for cdq in (
                vsmodel.build_cdq_model(g, cfg, sites, d_th)
                for d_th in (7 * cfg.T / 8, 0.0))]
            legal = vsmodel.build_legalization_model(g, cfg, sites)
            solves.append((legal, milp.solve(legal.model)))
        for arts, sol in solves:
            if sol.status != "optimal":
                with pytest.raises(ValueError):
                    vsmodel.hot_sites(arts, sol)
                continue
            sites = vsmodel.hot_sites(arts, sol)
            assert type(sites) is frozenset
            assert sites == vsmodel.decode_solution(arts, sol)[1], name
            assert sites == written_out_sites(arts, sol), name
            compared += 1
            kinds.update(kind for kind, hit in (
                ("pads", sites & set(arts.delta)), ("x", arts.x),
                ("site", sites & set(arts.site))) if hit)
            for site, x in arts.x.items():
                values = dict(sol.values)
                values[arts.delta_p[site]] = values[arts.delta[site]]
                for present in (0.0, 1.0):
                    values[x] = present
                    assert (site in vsmodel.hot_sites(arts, milp.Solution(
                        "optimal", values, 0.0))) == bool(present)
                values[x] = 0.5
                with pytest.raises(AssertionError, match=(
                        f"fractional integer value for x_{site}$")):
                    vsmodel.hot_sites(arts, milp.Solution("optimal", values,
                                                          0.0))
    assert compared >= 30 and kinds == {"pads", "x", "site"}
    with pytest.raises(ValueError, match="cannot decode a bound_reached"):
        vsmodel.hot_sites(arts, milp.Solution("bound_reached", {}, 0.0))


def test_bench_reads_each_golden_model_through_the_views(monkeypatch):
    """The benchmark reads models only through their views: the sizes
    (len of vars and constraints) and checks.highs_objective, on the
    stage-1 model of each golden at its bench start period.  Those reads
    must keep working and agree with milp.solve."""
    import pathlib
    from wavetime import netlist
    bench = pathlib.Path(__file__).parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import checks
    import designs
    data = pathlib.Path(__file__).parent / "data"
    for name, start in designs.GOLDEN_STARTS.items():
        c = netlist.parse_netlist((data / f"{name}.net").read_text())
        cfg = Config(T=start)
        model = vsmodel.build_relaxed_model(to_gate_graph(c), cfg).model
        assert len(model.vars) == len(model.lb) > 0, name
        assert len(model.constraints) == len(model.b) > 0, name
        ours = milp.solve(model, max_nodes=cfg.milp_nodes,
                          time_ms=cfg.milp_time_ms)
        theirs, message = checks.highs_objective(model)
        assert ours.status == "optimal", name
        assert checks.check_highs(ours.objective, theirs, message) == [], name


def test_a_dropped_cdq_model_is_freed_at_once(fig_chain):
    """No bound or right-hand side of a cdq model refers back to its
    ModelArtifacts, so with the cyclic collector off a model dropped
    after a solve and both moves is freed at once, arrays and all."""
    import gc
    import weakref
    g = to_gate_graph(fig_chain)
    cfg = Config(T=fig_chain.T)
    gc.disable()
    try:
        arts = vsmodel.build_cdq_model(g, cfg, set(g.gates), 7 * cfg.T / 8)
        sol = milp.solve(arts.model)
        vsmodel.set_period(arts, g, cfg.with_period(0.95 * cfg.T))
        vsmodel.set_dth(arts, 0.0)
        milp.solve(arts.model, start=sol)
        dead = weakref.ref(arts), weakref.ref(arts.model)
        del arts, sol
        assert [ref() for ref in dead] == [None, None]
    finally:
        gc.enable()


def test_sweeps_leave_no_cyclic_garbage():
    """A period sweep of each golden, to its end or its first
    infeasible flow, leaves nothing for the cyclic collector.  Objects
    older than the test are frozen, so each gc.collect() scans only
    what the sweeps made."""
    import gc
    from wavetime import netlist
    from wavetime.optimizer import InfeasibleError, sweep_clock_period
    gc.collect()
    gc.freeze()
    try:
        for path in sorted(DATA.glob("*.net")):
            c = netlist.parse_netlist(path.read_text())
            try:
                sweep_clock_period(to_gate_graph(c), Config(T=c.T))
            except InfeasibleError:
                pass
            assert gc.collect() == 0, path.stem
    finally:
        gc.unfreeze()
