import gc
import pathlib
import random
import weakref

import pytest

from wavetime import netlist
from wavetime.netlist import NetlistError, parse_netlist, serialize, \
    to_gate_graph

from gen import random_circuit

DATA = pathlib.Path(__file__).parent / "data"


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


GOOD = ("circuit c\nclock period=10 duty=0.5\n"
        "ffparams tcq=3 tsu=1 th=1 tdq=1\ninput a\n"
        "ff F from=a boundary\ngate g fn=buf delay=1 lib=1,2 in=F\n"
        "ff G from=g boundary\noutput y from=G\n")


def _line_of(old):
    return next(i for i, line in enumerate(GOOD.splitlines(), 1)
                if old in line)


@pytest.mark.parametrize("old, new", [
    ("delay=1", "delay=nan"), ("delay=1", "delay=inf"),
    ("lib=1,2", "lib=1,nan"), ("tcq=3", "tcq=nan"), ("tsu=1", "tsu=inf"),
    ("th=1", "th=nan"), ("tdq=1", "tdq=inf"),
    ("period=10", "period=nan"), ("period=10", "period=inf")])
def test_non_finite_numbers_are_rejected(old, new):
    parse_netlist(GOOD)
    with pytest.raises(NetlistError, match="finite") as err:
        parse_netlist(GOOD.replace(old, new))
    assert err.value.line == _line_of(old)


@pytest.mark.parametrize("old, new", [
    ("duty=0.5", "dutty=0.3"), ("lib=1,2", "lbi=1,2"), ("tcq=3", "tcq2=3"),
    ("from=a", "form=a"), ("output y", "output y z=1")])
def test_misspelled_keys_are_refused(old, new):
    """A key that its statement does not take is an error, not dropped:
    `dutty=0.3` used to parse with duty 0.5."""
    with pytest.raises(NetlistError, match="unknown keys") as err:
        parse_netlist(GOOD.replace(old, new))
    assert err.value.line == _line_of(old)
    assert repr(new.split()[-1].split("=")[0]) in str(err.value)


@pytest.mark.parametrize("old, new, message", [
    ("tsu=1", "tsu=inf", "'inf' is not a finite number"),
    ("tcq=3", "tcq=-1", "flip-flop parameters must be >= 0"),
    ("delay=1", "delay=-2", "gate delay and lib entries must be > 0"),
    ("lib=1,2", "lib=1,0", "gate delay and lib entries must be > 0"),
    ("lib=1,2", "lib=", "'' is not a finite number"),
    ("delay=1", "delay=abc", "'abc' is not a finite number"),
    ("delay=1", "delay=1,2", "'1,2' is not a finite number"),
    ("period=10", "period=x", "'x' is not a finite number")])
def test_bad_values_name_their_line(old, new, message):
    with pytest.raises(NetlistError, match=message) as err:
        parse_netlist(GOOD.replace(old, new))
    assert err.value.line == _line_of(old)


@pytest.mark.parametrize("statement, message", [
    ("circuit", "too few fields in 'circuit'"),
    ("gate h fn=buf delay=1", "gate needs fn= delay= in="),
    ("ff H boundary", "ff needs from="),
    ("input b c", "expected key=value, got 'c'"),
    ("latch L from=a", "unknown statement 'latch'")])
def test_statement_shape_errors_name_their_line(statement, message):
    with pytest.raises(NetlistError, match=message) as err:
        parse_netlist(GOOD + "  " + statement + "  # note\n")
    assert err.value.line == 9


@pytest.mark.parametrize("duty", ["1.5", "nan", "0", "1", "-0.5"])
def test_clock_duty_outside_0_1_names_its_line(duty):
    text = f"circuit c\nclock period=10 duty={duty}\ninput a\n"
    with pytest.raises(NetlistError, match=r"clock duty .* must be in \(0, 1\)") \
            as err:
        parse_netlist(text)
    assert err.value.line == 2


@pytest.mark.parametrize("period", ["-3", "0"])
def test_clock_period_not_above_zero_names_its_line(period):
    text = f"circuit c\ninput a\nclock period={period}\n"
    with pytest.raises(NetlistError,
                       match=f"clock period {float(period)} must be finite "
                             "and > 0") as err:
        parse_netlist(text)
    assert err.value.line == 3


@pytest.mark.parametrize("ffparams", [
    "", "ffparams tcq=1 tsu=0.5 th=1 tdq=1\n"], ids=["default", "after"])
def test_clock_period_not_above_setup_plus_hold_names_its_line(ffparams):
    """The period is checked against t_su + t_h once every statement is
    read, since ffparams may follow the clock line; the error names the
    clock line."""
    text = f"circuit c\nclock period=1.5\n{ffparams}input a\noutput y from=a\n"
    with pytest.raises(NetlistError, match=r"clock period 1.5 must be above "
                                           r"t_su \+ t_h = ") as err:
        parse_netlist(text)
    assert err.value.line == 2


def test_combinational_loop_detected():
    # g0 is fed by the loop g1 -> g2 -> g3 -> g1 but is not on it
    inputs = {"g0": ["g2"], "g1": ["a", "g3"], "g2": ["g1"], "g3": ["g2"]}
    text = ("circuit c\nclock period=10 duty=0.5\ninput a\n"
            + "".join(f"gate {g} fn=buf delay=1 in={','.join(ins)}\n"
                      for g, ins in inputs.items()))
    with pytest.raises(NetlistError, match="combinational loop") as err:
        parse_netlist(text)
    cycle = str(err.value).split(" through ")[1].split(" -> ")
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"g1", "g2", "g3"}
    for node, pred in zip(cycle, cycle[1:]):
        assert pred in inputs[node]


def test_flip_flop_loop_without_gate_rejected():
    # collapsing F1 and F2 into an edge weight would follow them forever
    text = ("circuit c\nclock period=10 duty=0.5\ninput a\n"
            "ff F1 from=F2\nff F2 from=F1\n"
            "gate g fn=and delay=1 in=a,F1\n"
            "ff FO from=g boundary\noutput y from=FO\n")
    with pytest.raises(NetlistError, match="F1 -> F2 -> F1"):
        parse_netlist(text)


def test_zero_weight_cycle_names_a_path():
    with pytest.raises(NetlistError,
                       match="combinational loop through x -> y -> x"):
        parse_netlist("circuit c\nclock period=10 duty=0.5\ninput a\n"
                      "gate x fn=and delay=1 in=a,y\n"
                      "gate y fn=buf delay=1 in=x\n"
                      "ff FO from=y boundary\noutput o from=FO\n")


def test_topological_order_smallest_ready_first():
    order, stuck = netlist.topological_order(
        {"b": [], "a": ["c"], "c": [], "d": ["e"], "e": ["d"], "f": ["e"]})
    assert order == ["b", "c", "a"]
    assert stuck == ["d", "e", "f"]


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
    for path in sorted(DATA.glob("*.net")):
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


def _unvalidated(gates, ffs):
    """A Circuit built without validate: input a, the given gates and
    removable flip-flops (name -> source), and one boundary capture
    flip-flop FO of the last gate."""
    gates = {n: netlist.Gate(n, "buf" if len(ins) == 1 else "and", 1.0,
                             (1.0,), tuple(ins))
             for n, ins in gates.items()}
    ffs = {n: netlist.FlipFlop(n, src) for n, src in ffs.items()}
    ffs["FO"] = netlist.FlipFlop("FO", list(gates)[-1], boundary=True)
    return netlist.Circuit("c", 10.0, 0.5, netlist.FlipFlopParams(), gates,
                           ffs, ["a"], [("y", "FO")])


def test_gate_graph_of_unvalidated_flip_flop_loop_raises():
    """Collapsing a loop of removable flip-flops with no gate would walk
    it forever; to_gate_graph refuses it as validate does."""
    c = _unvalidated({"g": ["a", "F1"]}, {"F1": "F2", "F2": "F1"})
    with pytest.raises(NetlistError,
                       match="flip-flop loop without a gate through "
                             "F1 -> F2 -> F1"):
        to_gate_graph(c)


def test_flip_flop_loop_walk_is_bounded_without_the_order_check():
    """Collapsing stops after as many steps as there are flip-flops, so
    a gateless loop raises even when the gate order never saw it."""
    c = _unvalidated({"g": ["a", "F1"]}, {"F1": "F2", "F2": "F1"})
    c.__dict__["_gate_order"] = []
    with pytest.raises(NetlistError,
                       match="flip-flop loop without a gate through "
                             "F1 -> F2 -> F1"):
        to_gate_graph(c)


def test_gate_graph_of_unvalidated_gate_loop_raises():
    c = _unvalidated({"g1": ["a", "g2"], "g2": ["g1"]}, {})
    with pytest.raises(NetlistError,
                       match="combinational loop through g1 -> g2 -> g1"):
        to_gate_graph(c)


def test_gate_order_rejects_what_graph_validate_rejects():
    """to_gate_graph relies on Circuit.gate_order for the zero-weight
    cycle check: no graph it returns has a cycle of gates over
    zero-weight edges, and its weights count the removable flip-flops."""
    circuits = [parse_netlist(p.read_text())
                for p in sorted(DATA.glob("*.net"))]
    rng = random.Random(31)
    circuits += [random_circuit(rng, with_loop=i % 2 == 1)
                 for i in range(200)]
    for c in circuits:
        g = to_gate_graph(c)
        zero = {n: [e.src for e in g.in_edges(n)
                    if e.w == 0 and e.src in g.gates] for n in g.gates}
        assert netlist.topological_order(zero)[1] == []
        assert g.total_weight() == sum(not f.boundary
                                       for f in c.ffs.values())


def test_derived_structure_is_built_once_per_circuit(fig_c):
    assert fig_c.gate_order() is fig_c.gate_order()
    g = to_gate_graph(fig_c)
    assert to_gate_graph(fig_c) is g
    # an equal circuit is another circuit with a graph of its own
    assert to_gate_graph(parse_netlist(serialize(fig_c))) is not g


def test_gate_graph_lives_only_while_a_caller_holds_it(fig_c):
    """The circuit holds its graph weakly: with the cyclic collector off,
    dropping the last reference frees the graph, so circuit and graph
    make no reference cycle."""
    gc.disable()
    try:
        g = to_gate_graph(fig_c)
        dead = weakref.ref(g)
        del g
        assert dead() is None
        h = to_gate_graph(fig_c)
        assert to_gate_graph(fig_c) is h
    finally:
        gc.enable()


def test_gg_edge_contract(fig_chain):
    """GGEdge is a named tuple: fields, repr, equality and hash of its
    values, immutable, and built positionally as the tests build it."""
    e = netlist.GGEdge("a", "g", 2, 1)
    assert (e.src, e.dst, e.w, e.dst_pin) == ("a", "g", 2, 1)
    assert repr(e) == "GGEdge(src='a', dst='g', w=2, dst_pin=1)"
    same = netlist.GGEdge(src="a", dst="g", w=2, dst_pin=1)
    assert e == same and hash(e) == hash(same)
    assert e != netlist.GGEdge("a", "g", 1, 1)
    assert len({e, same, netlist.GGEdge("a", "g", 2, 0)}) == 2
    for name in ("src", "dst", "w", "dst_pin"):
        with pytest.raises(AttributeError):
            setattr(e, name, 0)
    g = to_gate_graph(fig_chain)
    assert [netlist.GGEdge(e.src, e.dst, e.w, e.dst_pin)
            for e in g.edges] == g.edges


def test_nogc_pauses_and_restores_the_collector():
    """The collector is off inside, back on after a return or a raise,
    and a collector that was off before stays off."""
    seen = []

    @netlist.nogc
    def probe(fail=False):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("inside")
        return "done"

    assert gc.isenabled()
    assert probe() == "done" and gc.isenabled()
    with pytest.raises(RuntimeError, match="inside"):
        probe(fail=True)
    assert gc.isenabled()
    gc.disable()
    try:
        assert probe() == "done" and not gc.isenabled()
        with pytest.raises(RuntimeError, match="inside"):
            probe(fail=True)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 4
    assert probe.__name__ == "probe"


def test_paused_calls_that_raise_turn_the_collector_back_on():
    from wavetime import sta
    loop = parse_netlist((DATA / "loop_orig.net").read_text())
    placed = sta.as_placed(to_gate_graph(loop))
    with pytest.raises(ValueError, match="unresolved placement"):
        sta.propagate_windows(placed, netlist.Config(T=loop.T))
    assert gc.isenabled()
    with pytest.raises(NetlistError, match="gate needs fn= delay= in="):
        parse_netlist("circuit c\nclock period=10\ngate g fn=and\n")
    assert gc.isenabled()
