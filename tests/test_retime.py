import random

import pytest

from wavetime.netlist import GGEdge, GateGraph, to_gate_graph
from wavetime.retime_extract import (RetimeError, RetimeSolution,
                                     extract_removals)

from gen import load_pair, random_circuit


def test_loop_pair_golden():
    orig, opt = load_pair("loop")
    sol = extract_removals(orig, opt)
    assert sol.anchors() == {("g_1", "g_2", 0): 1,
                             ("g_2", "g_5", 0): 1,
                             ("g_4", "g_5", 1): 1}
    assert sum(sol.y.values()) == 3
    assert sol.r["g_5"] == 1


def test_loop_pair_text_output():
    orig, opt = load_pair("loop")
    text = extract_removals(orig, opt).text()
    assert text.splitlines() == ["edge g_1 g_2 removed=1",
                                 "edge g_2 g_5 removed=1",
                                 "edge g_4 g_5 removed=1"]


def test_entangled_pair_golden():
    orig, opt = load_pair("entangled")
    sol = extract_removals(orig, opt)
    assert sol.anchors() == {("g_1", "g_4", 0): 1, ("g_4", "g_5", 0): 1}
    assert all(v == 0 for v in sol.r.values())


def test_identity_pair():
    orig, _ = load_pair("loop")
    sol = extract_removals(orig, orig)
    assert sum(sol.y.values()) == 0
    assert all(v == 0 for v in sol.r.values())


def test_min_lags_objective_agrees_on_golden():
    orig, opt = load_pair("loop")
    a = extract_removals(orig, opt, objective="min-removals")
    b = extract_removals(orig, opt, objective="min-lags")
    assert a.y == b.y


def test_unknown_objective_rejected():
    orig, _ = load_pair("loop")
    with pytest.raises(ValueError):
        extract_removals(orig, orig, objective="fewest")


def test_structural_mismatch_raises(fig_c, fig_chain):
    with pytest.raises(RetimeError):
        extract_removals(to_gate_graph(fig_c), to_gate_graph(fig_chain))


def test_added_weight_without_source_is_unexplainable(fig_chain):
    """Extra flip-flops appearing from nowhere on a forward path cannot
    be written as retiming plus removal."""
    orig = to_gate_graph(fig_chain)
    opt = reweighted(orig, {(e.src, e.dst, e.dst_pin): e.w + 2
                            for e in orig.edges})
    with pytest.raises(RetimeError):
        extract_removals(orig, opt)


def reweighted(graph, weights):
    edges = [GGEdge(e.src, e.dst, weights[(e.src, e.dst, e.dst_pin)],
                    e.dst_pin) for e in graph.edges]
    return GateGraph(graph.circuit, dict(graph.gates),
                     dict(graph.terminals), edges)


def random_lags(rng, graph):
    return {g: rng.randint(0, 1) for g in graph.gates}


def retimed_weights(graph, lags, removals):
    out = {}
    for e in graph.edges:
        k = (e.src, e.dst, e.dst_pin)
        w = e.w + lags.get(e.dst, 0) - lags.get(e.src, 0) - removals.get(k, 0)
        out[k] = w
    return out


def test_pure_retime_recovery_random():
    """A graph reweighted by legal lags alone must be explained with
    zero removals, whatever lags the solver picks."""
    rng = random.Random(31)
    done = 0
    while done < 60:
        c = random_circuit(rng, max_gates=6, max_ffs=4)
        g = to_gate_graph(c)
        lags = random_lags(rng, g)
        weights = retimed_weights(g, lags, {})
        if any(w < 0 for w in weights.values()):
            continue
        done += 1
        sol = extract_removals(g, reweighted(g, weights))
        assert sum(sol.y.values()) == 0
        for e in g.edges:
            k = (e.src, e.dst, e.dst_pin)
            assert sol.w_r[k] == weights[k]


def test_retime_plus_removal_recovery_random():
    """With removals injected on top of the lags, the solver must find
    an explanation with exactly that many removals or fewer."""
    rng = random.Random(37)
    done = 0
    while done < 60:
        c = random_circuit(rng, max_gates=6, max_ffs=4)
        g = to_gate_graph(c)
        lags = random_lags(rng, g)
        pre = retimed_weights(g, lags, {})
        if any(w < 0 for w in pre.values()):
            continue
        removals = {}
        for e in g.edges:
            k = (e.src, e.dst, e.dst_pin)
            if pre[k] >= 1 and rng.random() < 0.5:
                removals[k] = 1
        weights = {k: pre[k] - removals.get(k, 0) for k in pre}
        done += 1
        sol = extract_removals(g, reweighted(g, weights))
        assert sum(sol.y.values()) <= sum(removals.values())
        # the audit inside extract_removals already checked w_r - y = w'
        for k, w in weights.items():
            assert sol.w_r[k] - sol.y[k] == w


def test_cycle_conservation():
    """On every cycle the lag terms cancel, so the removed count equals
    the weight drop around the cycle."""
    orig, opt = load_pair("loop")
    sol = extract_removals(orig, opt)
    cycle = [("g_5", "g_6", 0), ("g_6", "g_5", 2)]
    ow = {(e.src, e.dst, e.dst_pin): e.w for e in orig.edges}
    pw = {(e.src, e.dst, e.dst_pin): e.w for e in opt.edges}
    drop = sum(ow[k] - pw[k] for k in cycle)
    assert sum(sol.y[k] for k in cycle) == drop


def test_path_invariance():
    """Along any boundary-to-boundary path the removals account exactly
    for the flip-flops that disappeared."""
    orig, opt = load_pair("loop")
    sol = extract_removals(orig, opt)
    path = [("F1", "g_1", 0), ("g_1", "g_2", 0), ("g_2", "g_5", 0),
            ("g_5", "g_6", 0), ("g_6", "F4", 0)]
    ow = {(e.src, e.dst, e.dst_pin): e.w for e in orig.edges}
    pw = {(e.src, e.dst, e.dst_pin): e.w for e in opt.edges}
    assert sum(sol.y[k] for k in path) == \
        sum(ow[k] - pw[k] for k in path)
