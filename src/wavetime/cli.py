"""Command-line front end.

Subcommands: analyze (traditional STA + window report), optimize (full
flow plus clock sweep), extract (removal explanation), sdc (constraint
generation), verify (wave-simulation equivalence).  Exit codes: 0 ok or
PASS, 1 FAIL, 2 usage error, 3 infeasible.
"""

import argparse
import dataclasses
import math
import os
import sys

from . import netlist as nl
from . import milp, optimizer, retime_extract, sdcgen, sta, verify, vsmodel

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _floats(text):
    return tuple(nl.number(x) for x in text.split(","))


# every flag once: the Config field it sets (None for the rest) and its
# argparse keywords
_FLAGS = {
    "--config": (None, {"help": "flat key=value config file"}),
    "--T": ("T", {"type": float, "help": "clock period override"}),
    "--ru": ("r_u", {"type": float, "help": "upper guard band"}),
    "--rl": ("r_l", {"type": float, "help": "lower guard band"}),
    "--tstable": ("t_stable", {"type": float}),
    "--phases": ("phases", {"type": _floats,
                            "help": "comma-separated unit clock phases"}),
    "--alpha": ("alpha", {"type": float}),
    "--beta": ("beta", {"type": float}),
    "--gamma": ("gamma", {"type": float}),
    "--dth-start": (None, {"type": float, "help": "first delay bound of "
                           "the refinement schedule"}),
    "--dth-step": (None, {"type": float,
                          "help": "decrement between delay bounds"}),
    "--milp-nodes": ("milp_nodes", {"type": int}),
    "--milp-time-ms": ("milp_time_ms", {"type": int}),
    "--replace-threshold": ("replace_threshold", {"type": float}),
    "--sweep-step": (None, {"type": float, "default": 0.005,
                            "help": "period sweep step as a fraction of T"}),
    "--dump-model": (None, {"action": "store_true",
                            "help": "write solver models in LP format "
                                    "(time in units of T)"}),
    "--retime-objective": (None, {"default": "min-removals",
                                  "choices": ["min-removals", "min-lags"]}),
    "--out-dir": (None, {"default": "."}),
}

# the settings window propagation and the wave simulation read
_WINDOW = ("--config", "--T", "--ru", "--rl", "--tstable")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="wavetime",
        description="flip-flop removal and wave-pipelining toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, operands, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for operand in operands:
            p.add_argument(operand)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag][1])
    return ap


def load_config_file(path):
    """The Config fields a flat `key = value` file sets, each value read
    as its field's type (a tuple is comma-separated numbers); a bad line
    raises a ValueError that names path and line."""
    types = {f.name: f.type for f in dataclasses.fields(nl.Config)}
    read = {tuple: _floats, int: lambda text: nl.number(text, kind=int)}
    values = {}
    with open(path) as fh:
        for i, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            key = key.strip()
            try:
                if not eq:
                    raise ValueError("expected key = value")
                if key not in types:
                    raise ValueError(f"unknown key {key!r}")
                values[key] = read.get(types[key], nl.number)(val.strip())
            except ValueError as e:
                raise ValueError(f"{path}:{i}: {e}") from None
    return values


def make_config(circuit, args):
    """The netlist's clock period and duty, overridden by a --config
    file, overridden by the flags of the parsed subcommand."""
    values = {"T": circuit.T, "duty": circuit.duty}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for flag, (key, _) in _FLAGS.items():
        val = getattr(args, flag[2:].replace("-", "_"), None)
        if key is not None and val is not None:
            values[key] = val
    T = values["T"]
    start = getattr(args, "dth_start", None)
    step = getattr(args, "dth_step", None)
    if start is not None or step is not None:
        d = start if start is not None else 7 * T / 8
        step = step if step is not None else T / 8
        if not (math.isfinite(step) and step > 0):
            raise ValueError("--dth-step must be positive and finite")
        if not math.isfinite(d):
            raise ValueError("--dth-start must be finite")
        # one stage-2 round per bound; this also keeps d - step below d
        if d / step > 1000:
            raise ValueError("--dth-start / --dth-step must give at most "
                             "1000 delay bounds")
        sched = []
        while d > 0:
            sched.append(d)
            d -= step
        sched.append(0.0)
        values["dth_schedule"] = tuple(sched)
    return nl.Config(**values)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load_second(path):
    """The second operand of extract/sdc/verify: either a plain netlist
    or a placement file written by `optimize`."""
    text = _read(path)
    if "\nplacement\n" in text:
        placed, period = optimizer.placement_from_text(text)
        return placed, period
    return nl.parse_netlist(text), None


def _anchor_solution(orig_graph, opt, objective="min-removals"):
    """Removal locations, either via the retiming ILP (netlist pair) or
    straight from a placement's anchor annotations."""
    if isinstance(opt, nl.Circuit):
        return retime_extract.extract_removals(
            orig_graph, nl.to_gate_graph(opt), objective=objective)
    sol = retime_extract.RetimeSolution()
    for e in orig_graph.edges:
        key = (e.src, e.dst, e.dst_pin)
        lam = opt.anchors(e)
        sol.y[key] = lam
        sol.w_r[key] = e.w
    return sol


def cmd_analyze(args):
    circuit = nl.parse_netlist(_read(args.netlist))
    cfg = make_config(circuit, args)
    print(f"min_period={sta.traditional_min_period(circuit):.6g}")
    graph = nl.to_gate_graph(circuit)
    placed = sta.as_placed(graph)
    windows, violations = sta.propagate_windows(placed, cfg)
    sys.stdout.write(sta.format_report(placed, windows, violations))
    return EXIT_OK


def cmd_optimize(args):
    circuit = nl.parse_netlist(_read(args.netlist))
    cfg = make_config(circuit, args)
    graph = nl.to_gate_graph(circuit)
    if args.dump_model:
        arts = vsmodel.build_relaxed_model(graph, cfg)
        _write(args, "relaxed.lp", milp.export_lp(arts.model))
    placed, report, best_cfg = optimizer.sweep_clock_period(
        graph, cfg, args.sweep_step)
    base = nl.serialize(circuit)
    _write(args, "opt.net", optimizer.placement_to_text(placed, best_cfg,
                                                        base))
    _write(args, "report.txt", report.text())
    anchors = [f"edge {e.src} {e.dst} removed={placed.anchors(e)}"
               for e in placed.graph.edges if placed.anchors(e) >= 1]
    _write(args, "anchors.txt", "\n".join(anchors) + ("\n" if anchors else ""))
    sys.stdout.write(report.text())
    return EXIT_OK


def cmd_extract(args):
    orig = nl.to_gate_graph(nl.parse_netlist(_read(args.orig)))
    opt, _ = _load_second(args.opt)
    sol = _anchor_solution(orig, opt, args.retime_objective)
    _write(args, "retime.txt", sol.text())
    sys.stdout.write(sol.text())
    return EXIT_OK


def cmd_sdc(args):
    orig_circuit = nl.parse_netlist(_read(args.orig))
    orig = nl.to_gate_graph(orig_circuit)
    opt, period = _load_second(args.opt)
    cfg = make_config(orig_circuit, args)
    if period is not None and args.T is None:
        cfg = cfg.with_period(period)
    sol = _anchor_solution(orig, opt)
    classes = sdcgen.classify_paths(orig, sol)
    sdcgen.find_differentiating_pins(classes, orig)
    text = sdcgen.emit_sdc(classes, cfg)
    _write(args, "out.sdc", text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args):
    orig = nl.parse_netlist(_read(args.orig))
    opt, period = _load_second(args.opt)
    cfg = make_config(orig, args)
    if period is not None and args.T is None:
        cfg = cfg.with_period(period)
    ok, diff = verify.check_equivalence(orig, opt, cfg)
    text = ("PASS\n" if ok else "FAIL\n") + diff
    _write(args, "verify.txt", text)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_FAIL


def _write(args, name, text):
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, name), "w") as fh:
        fh.write(text)


# subcommand -> (handler, positional operands, flags); each takes only
# the flags it reads.  analyze only prints, so it takes no --out-dir;
# extract's retiming ILP has no period; sdc reads only the period.
_COMMANDS = {
    "analyze": (cmd_analyze, ("netlist",), _WINDOW),
    "optimize": (cmd_optimize, ("netlist",), _WINDOW + (
        "--phases", "--alpha", "--beta", "--gamma", "--dth-start",
        "--dth-step", "--milp-nodes", "--milp-time-ms",
        "--replace-threshold", "--sweep-step", "--dump-model",
        "--out-dir")),
    "extract": (cmd_extract, ("orig", "opt"),
                ("--retime-objective", "--out-dir")),
    "sdc": (cmd_sdc, ("orig", "opt"), ("--T", "--out-dir")),
    "verify": (cmd_verify, ("orig", "opt"), _WINDOW + ("--out-dir",)),
}


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return _COMMANDS[args.command][0](args)
    except (optimizer.InfeasibleError, retime_extract.RetimeError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (nl.NetlistError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
