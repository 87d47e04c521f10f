import pathlib
import re

import pytest

from wavetime import cli
from wavetime.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_prints_min_period(capsys):
    code, out, _ = run(capsys, "analyze", DATA / "fig_a.net")
    assert code == 0
    assert out.splitlines()[0] == "min_period=21"
    assert out.splitlines()[1].startswith("node")


def test_optimize_writes_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "optimize", DATA / "fig_c.net",
                       "--T", "9", "--ru", "1", "--rl", "1",
                       "--tstable", "0", "--sweep-step", "0.05",
                       "--out-dir", tmp_path)
    assert code == 0
    assert "final.T=" in out
    for name in ("opt.net", "report.txt", "anchors.txt"):
        assert (tmp_path / name).exists()
    assert "placement" in (tmp_path / "opt.net").read_text()
    assert "edge g2 g3 removed=1" in (tmp_path / "anchors.txt").read_text()


def test_optimize_infeasible_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "optimize", DATA / "fig_c.net",
                       "--T", "8.5", "--ru", "1", "--rl", "1",
                       "--tstable", "0", "--out-dir", tmp_path)
    assert code == 3
    assert "infeasible" in err


def test_verify_against_placement_roundtrip(tmp_path, capsys):
    run(capsys, "optimize", DATA / "fig_c.net", "--T", "9",
        "--ru", "1", "--rl", "1", "--tstable", "0",
        "--sweep-step", "0.05", "--out-dir", tmp_path)
    code, out, _ = run(capsys, "verify", DATA / "fig_c.net",
                       tmp_path / "opt.net", "--ru", "1", "--rl", "1",
                       "--tstable", "0", "--out-dir", tmp_path)
    assert code == 0
    assert out.splitlines()[0] == "PASS"
    assert "captures wave n at cycle" in out
    assert (tmp_path / "verify.txt").read_text() == out


def test_verify_fail_exit_code(tmp_path, capsys):
    # the chain without its middle flip-flops fails hold at F4
    orig = (DATA / "fig_chain.net").read_text()
    bad = tmp_path / "bad.net"
    bad.write_text(orig + "\nplacement\nperiod 10.0\n")
    code, out, _ = run(capsys, "verify", DATA / "fig_chain.net", bad,
                       "--ru", "1", "--rl", "1", "--tstable", "0",
                       "--out-dir", tmp_path)
    assert code == 1
    assert out.splitlines()[0] == "FAIL"
    assert (tmp_path / "verify.txt").read_text() == out


def test_extract_netlist_pair(tmp_path, capsys):
    code, out, _ = run(capsys, "extract", DATA / "loop_orig.net",
                       DATA / "loop_opt.net", "--out-dir", tmp_path)
    assert code == 0
    assert out.splitlines() == ["edge g_1 g_2 removed=1",
                                "edge g_2 g_5 removed=1",
                                "edge g_4 g_5 removed=1"]
    assert (tmp_path / "retime.txt").read_text() == out


def test_extract_mismatch_is_infeasible(tmp_path, capsys):
    code, _, err = run(capsys, "extract", DATA / "loop_orig.net",
                       DATA / "fig_c.net", "--out-dir", tmp_path)
    assert code == 3


def test_ignored_options_are_usage_errors(tmp_path, capsys):
    # extract reads no configuration; --sweep-step is optimize's alone
    assert run(capsys, "extract", DATA / "loop_orig.net",
               DATA / "loop_opt.net", "--T", "5",
               "--out-dir", tmp_path)[0] == 2
    assert run(capsys, "analyze", DATA / "fig_a.net",
               "--sweep-step", "0.1")[0] == 2
    # analyze only prints, so it has no output directory
    assert run(capsys, "analyze", DATA / "fig_a.net",
               "--out-dir", tmp_path)[0] == 2
    # window propagation reads no objective weight, sdc only the period,
    # and the wave simulation no unit phase
    assert run(capsys, "analyze", DATA / "fig_a.net",
               "--alpha", "1")[0] == 2
    assert run(capsys, "sdc", DATA / "entangled_orig.net",
               DATA / "entangled_opt.net", "--ru", "1",
               "--out-dir", tmp_path)[0] == 2
    assert run(capsys, "verify", DATA / "fig_c.net", DATA / "fig_c.net",
               "--phases", "0", "--out-dir", tmp_path)[0] == 2


def test_sdc_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, "sdc", DATA / "entangled_orig.net",
                       DATA / "entangled_opt.net", "--out-dir", tmp_path)
    assert code == 0
    assert "set_max_delay 30" in out
    assert "-to F6/D" in out
    assert (tmp_path / "out.sdc").read_text() == out


def test_sdc_uses_placement_period(tmp_path, capsys):
    run(capsys, "optimize", DATA / "fig_c.net", "--T", "9",
        "--ru", "1", "--rl", "1", "--tstable", "0",
        "--sweep-step", "0.05", "--out-dir", tmp_path)
    code, out, _ = run(capsys, "sdc", DATA / "fig_c.net",
                       tmp_path / "opt.net", "--out-dir", tmp_path)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("set_max")]
    period = float((tmp_path / "opt.net").read_text()
                   .split("period ")[1].split()[0])
    assert float(lines[0].split()[1]) == pytest.approx(2 * period)


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "analyze", "/nonexistent/file.net")[0] == 2
    assert run(capsys, "analyze", DATA / "fig_a.net", "--T", "frog")[0] == 2
    # a solver budget that admits no node or no time
    for flag, value in (("--milp-nodes", "0"), ("--milp-nodes", "-3"),
                        ("--milp-time-ms", "0"), ("--milp-time-ms", "-1")):
        code, _, err = run(capsys, "optimize", DATA / "fig_c.net", flag, value)
        assert code == 2, (flag, value)
        assert "milp_nodes must be >= 1 and milp_time_ms > 0" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text("# comment\nr_u = 1.0\nr_l = 1.0\n"
                       "t_stable = 0\nphases = 0,2.25,4.5,6.75\nT = 9\n")
    code, out, _ = run(capsys, "analyze", DATA / "fig_c.net",
                       "--config", cfgfile)
    assert code == 0
    # the flag wins over the file
    code2, out2, _ = run(capsys, "analyze", DATA / "fig_c.net",
                         "--config", cfgfile, "--T", "11")
    assert code2 == 0
    assert out != out2


def test_config_file_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("r_u 1.0\n")
    code, _, err = run(capsys, "analyze", DATA / "fig_c.net",
                       "--config", bad)
    assert code == 2
    assert "expected key = value" in err


def test_config_file_unknown_key_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("r_u = 1.0\nfoo = 1\n")
    code, _, err = run(capsys, "analyze", DATA / "fig_c.net",
                       "--config", bad)
    assert code == 2
    assert "'foo'" in err


def test_config_file_values_take_the_field_types(tmp_path):
    from wavetime import netlist
    cfgfile = tmp_path / "flow.cfg"
    cfgfile.write_text("milp_nodes = 500\nphases = 0,2.5\nbeta = 3\n")
    args = cli.build_parser().parse_args(["optimize", "x", "--config",
                                          str(cfgfile)])
    c = netlist.parse_netlist((DATA / "fig_c.net").read_text())
    cfg = cli.make_config(c, args)
    assert (cfg.milp_nodes, cfg.phases, cfg.beta) == (500, (0.0, 2.5), 3.0)
    assert type(cfg.milp_nodes) is int and type(cfg.beta) is float


def test_verify_rejects_an_unknown_placement_unit(tmp_path, capsys):
    net = DATA / "deep_chain.net"
    assert run(capsys, "optimize", net, "--out-dir", tmp_path)[0] == 0
    opt = tmp_path / "opt.net"
    text = opt.read_text()
    assert "unit=latch" in text
    opt.write_text(text.replace("unit=latch", "unit=latc"))
    code, _, err = run(capsys, "verify", net, opt, "--out-dir", tmp_path)
    assert code == 2
    assert "unknown unit 'latc'" in err


def test_verify_rejects_non_finite_placement_numbers(tmp_path, capsys):
    net = DATA / "deep_chain.net"
    assert run(capsys, "optimize", net, "--out-dir", tmp_path)[0] == 0
    text = (tmp_path / "opt.net").read_text()
    edge = text.index("\nedge ")
    bad = {"d": re.sub(r"size g1 d=\S+", "size g1 d=nan", text),
           "xi": text[:edge] + re.sub(r"xi=\S+", "xi=nan",
                                      text[edge:], count=1)}
    for name, bad_text in bad.items():
        assert bad_text != text
        opt = tmp_path / f"{name}.net"
        opt.write_text(bad_text)
        code, _, err = run(capsys, "verify", net, opt, "--out-dir", tmp_path)
        assert code == 2, name
        assert "'nan' is not a finite number" in err


def test_verify_names_the_line_of_a_malformed_placement_number(tmp_path,
                                                                capsys):
    net = DATA / "deep_chain.net"
    assert run(capsys, "optimize", net, "--out-dir", tmp_path)[0] == 0
    text = (tmp_path / "opt.net").read_text()
    bad = re.sub(r"size g1 d=\S+", "size g1 d=abc", text)
    assert bad != text
    lineno = bad.splitlines().index("size g1 d=abc") + 1
    opt = tmp_path / "bad.net"
    opt.write_text(bad)
    code, _, err = run(capsys, "verify", net, opt, "--out-dir", tmp_path)
    assert code == 2
    assert f"line {lineno}: 'abc' is not a finite number" in err


@pytest.mark.parametrize("flags", [
    ("--dth-step", "0"), ("--dth-step", "-1"), ("--dth-step", "nan"),
    ("--dth-start", "inf"), ("--dth-start", "nan"),
    ("--dth-start", "1e17", "--dth-step", "1")])
def test_dth_flags_must_bound_the_schedule(tmp_path, capsys, flags):
    code, _, err = run(capsys, "optimize", DATA / "fig_c.net", *flags,
                       "--out-dir", tmp_path)
    assert code == 2
    assert "--dth-st" in err


def test_dth_flags_build_schedule(capsys):
    import argparse
    ap = cli.build_parser()
    args = ap.parse_args(["optimize", "x", "--dth-start", "6",
                          "--dth-step", "2", "--T", "10"])
    from wavetime import netlist
    c = netlist.parse_netlist((DATA / "fig_c.net").read_text())
    cfg = cli.make_config(c, args)
    assert cfg.dth_schedule == (6.0, 4.0, 2.0, 0.0)


def test_config_takes_the_netlist_duty():
    from wavetime import netlist
    text = (DATA / "fig_c.net").read_text().replace("duty=0.5", "duty=0.3")
    c = netlist.parse_netlist(text)
    args = cli.build_parser().parse_args(["optimize", "x"])
    assert cli.make_config(c, args).duty == 0.3


def test_dump_model_writes_lp(tmp_path, capsys):
    code, _, _ = run(capsys, "optimize", DATA / "fig_c.net", "--T", "9",
                     "--ru", "1", "--rl", "1", "--tstable", "0",
                     "--sweep-step", "0.05", "--dump-model",
                     "--out-dir", tmp_path)
    assert code == 0
    text = (tmp_path / "relaxed.lp").read_text()
    assert text.startswith("\\ relaxed") or "Minimize" in text


def test_byte_identical_reruns(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        run(capsys, "optimize", DATA / "fig_c.net", "--T", "9",
            "--ru", "1", "--rl", "1", "--tstable", "0",
            "--sweep-step", "0.05", "--out-dir", out_dir)
    for name in ("opt.net", "report.txt", "anchors.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
