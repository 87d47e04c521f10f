import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "snapshot_outputs.py"


def test_snapshot_tool_writes_every_output(tmp_path):
    """The tool wraps functions of the package by name, so a rename shows
    here and not only when two checkouts' snapshots are compared."""
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, str(TOOL), str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    files = {p.name: p for p in out.iterdir()}
    assert run.stdout == f"{len(files)} files in {out}\n"
    designs = [n[:-len(".format_report")] for n in files
               if n.endswith(".format_report")]
    assert len(designs) >= 10
    for name in designs:
        last = files[f"{name}.sweep.trajectory"].read_text().splitlines()[-1]
        assert any(tok.startswith("stopped=") for tok in last.split()), name
