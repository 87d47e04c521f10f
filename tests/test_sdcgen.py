import random

import pytest

from wavetime import cli, netlist, optimizer, sdcgen, sta
from wavetime.netlist import Config, to_gate_graph
from wavetime.retime_extract import RetimeSolution, extract_removals
from wavetime.sdcgen import (PathLimitError, classify_paths, emit_sdc,
                             find_differentiating_pins)

from gen import deep_chain_text, load_pair, random_circuit


def sdc_for(stem, T=10.0):
    orig, opt = load_pair(stem)
    sol = extract_removals(orig, opt)
    classes = classify_paths(orig, sol)
    find_differentiating_pins(classes, orig)
    return emit_sdc(classes, Config(T=T)), classes


def test_loop_pair_golden_tokens():
    text, _ = sdc_for("loop")
    assert text.splitlines() == [
        "set_max_delay 30 -through g_1/ZN -through g_2/A "
        "-through g_2/ZN -through g_5/A1",
        "set_min_delay 20 -through g_1/ZN -through g_2/A "
        "-through g_2/ZN -through g_5/A1",
        "set_max_delay 20 -through g_4/ZN -through g_5/A2",
        "set_min_delay 10 -through g_4/ZN -through g_5/A2",
    ]


def test_entangled_pair_golden_tokens():
    """All three differentiation forms appear: a sink-exclusive -to, a
    backward input pin, and a forward pin prepended to the anchors."""
    text, _ = sdc_for("entangled")
    assert text.splitlines() == [
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


def test_bounds_scale_with_period():
    text, _ = sdc_for("loop", T=7.5)
    lines = text.splitlines()
    assert lines[0].split()[1] == "22.5"
    assert lines[1].split()[1] == "15"


def test_classes_cover_every_anchored_path():
    """Path re-enumeration oracle: each boundary-to-boundary path with at
    least one anchor belongs to exactly one class."""
    orig, opt = load_pair("entangled")
    sol = extract_removals(orig, opt)
    classes = classify_paths(orig, sol)
    seen = {}
    for cls in classes:
        for launch, path in cls.paths:
            key = (launch, path)
            assert key not in seen
            seen[key] = cls
    # independent DFS of the optimized structure
    wprime = {}
    for e in orig.edges:
        k = (e.src, e.dst, e.dst_pin)
        lag = lambda n: sol.r.get(n, 0)
        wprime[k] = e.w + lag(e.dst) - lag(e.src) - sol.y.get(k, 0)

    found = []

    def walk(node, path, visited):
        for e in orig.out_edges(node):
            k = (e.src, e.dst, e.dst_pin)
            stop = wprime[k] >= 1 or e.dst not in orig.gates
            if stop:
                if any(sol.y.get(q, 0) for q in path + [k]):
                    found.append(tuple(path + [k]))
                if wprime[k] >= 1:
                    continue
            if not stop and e.dst not in visited:
                walk(e.dst, path + [k], visited | {e.dst})

    for t, kind in orig.terminals.items():
        if kind in ("input", "bff"):
            walk(t, [], {t})
    assert sorted(found) == sorted(p for _, p in seen)


def test_max_min_pairing_and_wave_bounds():
    for stem in ("loop", "entangled"):
        text, classes = sdc_for(stem)
        lines = text.splitlines()
        assert len(lines) % 2 == 0
        for hi, lo in zip(lines[::2], lines[1::2]):
            assert hi.startswith("set_max_delay ")
            assert lo.startswith("set_min_delay ")
            assert hi.split()[2:] == lo.split()[2:]
            assert float(hi.split()[1]) - float(lo.split()[1]) == \
                pytest.approx(10.0)
            assert float(lo.split()[1]) >= 10.0   # k >= 1, waves >= 2
        assert all(cls.k >= 1 for cls in classes)


def test_entanglement_flags():
    _, classes = sdc_for("entangled")
    by_k = {}
    for cls in classes:
        by_k.setdefault(cls.k, []).append(cls)
    assert all(c.entangled for c in by_k[1])
    assert all(not c.entangled for c in by_k[2])


def test_no_duplicate_point_lists():
    for stem in ("loop", "entangled"):
        text, _ = sdc_for(stem)
        maxima = [l for l in text.splitlines() if l.startswith("set_max")]
        points = [tuple(l.split()[2:]) for l in maxima]
        assert len(points) == len(set(points))


def test_no_anchors_no_constraints(fig_chain):
    g = to_gate_graph(fig_chain)
    sol = RetimeSolution()
    for e in g.edges:
        sol.y[(e.src, e.dst, e.dst_pin)] = 0
    classes = classify_paths(g, sol)
    # every removable flip-flop kept in place: nothing to constrain
    assert classes == []
    assert emit_sdc(classes, Config(T=10.0)) == ""


def test_path_limit():
    orig, opt = load_pair("entangled")
    sol = extract_removals(orig, opt)
    with pytest.raises(PathLimitError):
        classify_paths(orig, sol, limit=2)


def test_random_pairs_bounds_invariant():
    """On random graphs with synthetic anchor sets the emitted pairs
    always use ((k+1)T, kT) for the class they constrain."""
    rng = random.Random(41)
    for _ in range(60):
        c = random_circuit(rng, max_gates=7, max_ffs=4)
        g = to_gate_graph(c)
        sol = RetimeSolution()
        for e in g.edges:
            k = (e.src, e.dst, e.dst_pin)
            sol.y[k] = rng.randint(0, e.w)
        classes = classify_paths(g, sol)
        find_differentiating_pins(classes, g)
        cfg = Config(T=c.T)
        for cls in classes:
            # a class crosses at least one anchor: it spans k + 1 >= 2
            # waves
            assert cls.k >= len(cls.anchors) >= 1
            for pts in cls.constraints:
                assert pts  # never an empty point list
        text = emit_sdc(classes, cfg)
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            bound = float(line.split()[1])
            waves = bound / cfg.T
            assert waves == pytest.approx(round(waves))
            assert round(waves) >= (1 if line.startswith("set_min") else 2)


# F1 and F3 removed, F2 kept: the path g1 -> g2 -> o ends at the kept
# flip-flop F2 on an edge into the terminal o
KEPT_SINK_ORIG = """circuit sink
clock period=10 duty=0.5
ffparams tcq=1 tsu=1 th=0.5 tdq=1
input a
gate g1 fn=buf delay=1 in=a
ff F1 from=g1
gate g2 fn=buf delay=1 in=F1
ff F2 from=g2
ff F3 from=g2
gate g3 fn=buf delay=1 in=F3
output o from=F2
output o2 from=g3
"""
KEPT_SINK_OPT = """circuit sink
clock period=10 duty=0.5
ffparams tcq=1 tsu=1 th=0.5 tdq=1
input a
gate g1 fn=buf delay=1 in=a
gate g2 fn=buf delay=1 in=g1
ff F2 from=g2
gate g3 fn=buf delay=1 in=g2
output o from=F2
output o2 from=g3
"""


def test_kept_flipflop_sink_into_terminal(tmp_path):
    """An entangled class whose path ends at a kept flip-flop on an edge
    into a terminal gets a -to constraint on that terminal."""
    orig, opt = tmp_path / "orig.net", tmp_path / "opt.net"
    orig.write_text(KEPT_SINK_ORIG)
    opt.write_text(KEPT_SINK_OPT)
    assert cli.main(["sdc", str(orig), str(opt),
                     "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "out.sdc").read_text().splitlines()
    assert any(line.endswith("-to o/D") for line in lines)


def test_sdc_on_deep_chain(tmp_path, capsys):
    # 3000 gates with one removed flip-flop between g1499 and g1500
    text = deep_chain_text(3000, ff_after=1500)
    orig = tmp_path / "deep.net"
    orig.write_text(text)
    c = netlist.parse_netlist(text)
    placed = sta.as_placed(to_gate_graph(c))
    opt = tmp_path / "deep_opt.net"
    opt.write_text(optimizer.placement_to_text(placed, Config(T=c.T), text))
    assert cli.main(["sdc", str(orig), str(opt),
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    points = "-through g1500/ZN -through g1499/A"
    assert (tmp_path / "out.sdc").read_text() == \
        f"set_max_delay 4000 {points}\nset_min_delay 2000 {points}\n"
