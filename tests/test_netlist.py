import random

import pytest

from wavetime import netlist
from wavetime.netlist import NetlistError, parse_netlist, serialize, \
    to_gate_graph, select_critical_part

from gen import random_circuit


def test_empty_input_is_an_error():
    with pytest.raises(NetlistError, match="no circuit declared"):
        parse_netlist("")


def test_missing_clock():
    with pytest.raises(NetlistError, match="no clock"):
        parse_netlist("circuit c\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(NetlistError, match="line 2"):
        parse_netlist("circuit c\nbogus statement\n")


def test_undefined_reference():
    text = "circuit c\nclock period=10 duty=0.5\ngate g fn=buf delay=1 in=nope\n"
    with pytest.raises(NetlistError, match="undefined node reference"):
        parse_netlist(text)


def test_duplicate_name():
    text = ("circuit c\nclock period=10 duty=0.5\ninput a\n"
            "gate a fn=buf delay=1 in=a\n")
    with pytest.raises(NetlistError, match="duplicate name"):
        parse_netlist(text)


def test_combinational_loop_detected():
    text = ("circuit c\nclock period=10 duty=0.5\ninput a\n"
            "gate g1 fn=and delay=1 in=a,g2\n"
            "gate g2 fn=buf delay=1 in=g1\n")
    with pytest.raises(NetlistError, match="combinational loop"):
        parse_netlist(text)


def test_fig_c_structure(fig_c):
    assert set(fig_c.ffs) == {"F1", "F2", "F3", "F4", "F5", "F6"}
    assert not fig_c.ffs["F6"].boundary
    assert fig_c.gates["g5"].lib == (1.0, 2.0)


def test_round_trip_goldens(fig_a, fig_b, fig_c, fig_chain):
    for c in (fig_a, fig_b, fig_c, fig_chain):
        assert parse_netlist(serialize(c)) == c


def test_round_trip_random_corpus():
    rng = random.Random(7)
    for _ in range(50):
        c = random_circuit(rng)
        again = parse_netlist(serialize(c))
        assert again == c
        assert serialize(again) == serialize(c)


def test_gate_graph_no_internal_ffs(fig_a):
    g = to_gate_graph(fig_a)
    assert all(e.w == 0 for e in g.edges)


def test_gate_graph_chain(fig_chain):
    g = to_gate_graph(fig_chain)
    w = {(e.src, e.dst): e.w for e in g.edges}
    assert w[("u", "w")] == 1 and w[("w", "z")] == 1
    assert w[("F1", "u")] == 0 and w[("z", "F4")] == 0


def test_gate_graph_weight_conservation():
    rng = random.Random(11)
    for _ in range(100):
        c = random_circuit(rng)
        g = to_gate_graph(c)
        removable = sum(1 for f in c.ffs.values() if not f.boundary)
        assert g.total_weight() == removable


def test_multi_reader_removable_ff_rejected():
    text = ("circuit c\nclock period=10 duty=0.5\ninput a\n"
            "gate g1 fn=buf delay=1 in=a\n"
            "ff F from=g1\n"
            "gate g2 fn=buf delay=1 in=F\n"
            "gate g3 fn=buf delay=1 in=F\n"
            "ff FO from=g2 boundary\noutput y from=FO\n"
            "ff FO2 from=g3 boundary\noutput z from=FO2\n")
    c = parse_netlist(text)
    with pytest.raises(NetlistError, match="collapsed weights"):
        to_gate_graph(c)


def test_select_empty_when_fast(fig_chain):
    removable, boundary, gates = select_critical_part(fig_chain, 100.0)
    assert removable == set()
    assert boundary == set(fig_chain.ffs)


def test_select_slow_path(fig_chain):
    # the 11-delay stage exceeds a 14 budget: 3 + 11 + 1 = 15
    removable, _, gates = select_critical_part(fig_chain, 14.0)
    assert "F2" in removable and "u" in gates


def _selection_oracle(c, t_spec):
    """Iterative path enumeration, independent of the DFS in netlist."""
    readers = c.readers()
    p = c.ff_params
    removable = set()
    launches = list(c.ffs) + list(c.inputs)
    for launch in launches:
        stack = [(launch, 0.0)]
        while stack:
            node, delay = stack.pop()
            for reader, _ in readers.get(node, ()):
                if reader in c.gates:
                    stack.append((reader, delay + c.gates[reader].d))
                elif p.t_cq + delay + p.t_su > t_spec:
                    removable.update(x for x in (launch, reader) if x in c.ffs)
    return removable


def test_selection_matches_path_oracle():
    rng = random.Random(3)
    for _ in range(50):
        c = random_circuit(rng)
        t_spec = float(rng.randint(3, 12))
        removable, boundary, gates = select_critical_part(c, t_spec)
        assert removable | boundary == set(c.ffs)
        assert removable.isdisjoint(boundary)
        assert removable == _selection_oracle(c, t_spec)


def test_apply_selection_round_trip(fig_c):
    c2 = netlist.apply_selection(fig_c, {"F6"})
    assert not c2.ffs["F6"].boundary
    assert all(f.boundary for n, f in c2.ffs.items() if n != "F6")


def _scan_in(graph, node):
    return [e for e in graph.edges if e.dst == node]


def _scan_out(graph, node):
    return [e for e in graph.edges if e.src == node]


def _assert_adjacency_matches_scan(graph):
    nodes = set(graph.gates) | set(graph.terminals)
    nodes |= {e.src for e in graph.edges} | {e.dst for e in graph.edges}
    for n in sorted(nodes) + ["no_such_node"]:
        assert list(graph.in_edges(n)) == _scan_in(graph, n)
        assert list(graph.out_edges(n)) == _scan_out(graph, n)


def test_adjacency_matches_edge_scan_goldens():
    import pathlib
    data = pathlib.Path(__file__).parent / "data"
    for path in sorted(data.glob("*.net")):
        _assert_adjacency_matches_scan(
            to_gate_graph(parse_netlist(path.read_text())))


def test_adjacency_matches_edge_scan_random_and_positional():
    rng = random.Random(23)
    for _ in range(100):
        g = to_gate_graph(random_circuit(rng, max_gates=10, max_ffs=5,
                                         with_loop=rng.random() < 0.5))
        _assert_adjacency_matches_scan(g)
        # a positionally built graph with reversed edges indexes its own
        # edge list, in its own order
        edges = [netlist.GGEdge(e.src, e.dst, e.w, e.dst_pin)
                 for e in reversed(g.edges)]
        h = netlist.GateGraph(g.circuit, dict(g.gates), dict(g.terminals),
                              edges)
        _assert_adjacency_matches_scan(h)
