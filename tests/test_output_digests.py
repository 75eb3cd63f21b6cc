import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from invtrack import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
COMMITTED = TOOL.with_suffix(".json")


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digests = _load_tool()


def test_cheap_subset_matches_committed_digests():
    """The six commands on the default scenario and every hand-written scene
    write the bytes committed in tools/output_digests.json.

    The committed digests hold on the host that recorded them: the outputs
    go through that host's libm (math.sin, math.exp, ...) and numpy's LAPACK
    (eigvals, inv, eigvalsh), whose last bits may differ elsewhere.  A
    change that moves bytes on purpose re-records the file with
        python3 tools/output_digests.py --cheap src tools/output_digests.json
    in the same commit and names the analyses that moved.
    """
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    moved = output_digests.differences(committed, output_digests.digest_all(cli, cheap=True))
    assert not moved, "outputs differ from tools/output_digests.json:\n" + "\n".join(moved)


def test_unreached_functions_are_exactly_the_held_ones():
    """Every src/invtrack function that no hand-written scene enters has a
    holder in HELD, and every HELD entry is still such a function: a form
    only the tests use belongs in tests/oracles.py.  The trace runs in a
    fresh interpreter, where no cache was filled before it started."""
    src = TOOL.parent.parent / "src"
    out = subprocess.run(
        [sys.executable, str(TOOL), "--unreached", str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert set(out.split()) == set(output_digests.HELD)


def test_differences_names_each_moved_metric_and_file():
    old = {
        "a": {"exit": 0, "stderr": "", "files": {"report.json": "h1"},
              "metrics": {"x": 1.0, "y": 2.0}},
        "gone": {"exit": 0, "stderr": "", "files": {}, "metrics": {}},
    }
    new = {
        "a": {"exit": 1, "stderr": "", "files": {"report.json": "h2", "extra.csv": "h3"},
              "metrics": {"x": 1.0, "y": 2.5}},
        "added": {"exit": 0, "stderr": "", "files": {}, "metrics": {}},
    }
    assert output_digests.differences(old, new) == [
        "gone: only in the old digests",
        "added: only in the new digests",
        "a: exit 0 -> 1",
        "a: file extra.csv None -> 'h3'",
        "a: file report.json 'h1' -> 'h2'",
        "a: metric y 2.0 -> 2.5",
    ]
    assert output_digests.differences(old, old) == []
