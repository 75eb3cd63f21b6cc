import importlib.util
from pathlib import Path

from invtrack import cli, scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fault_search.py"
# The sample's seed and size are not chosen by its outcome: a fault it
# meets is mended, never re-seeded or shrunk away.
SEED = 31
COUNT = 300


def _load_tool():
    spec = importlib.util.spec_from_file_location("fault_search", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fault_search = _load_tool()


def test_fixed_sample_ends_in_a_verdict_or_one_error_line():
    # Every document exits 0, 1 or 2, each exit 2 prints exactly one
    # "error: ..." line, and none raises, writes NaN or inf, or times out.
    faults = [
        f"{command} {doc}: {found}"
        for command, doc, outcome, found in fault_search.search(cli, scenario, SEED, COUNT)
        if found is not None
    ]
    assert not faults, "\n".join(faults)


def test_documents_are_seeded_and_change_the_base():
    first = list(fault_search.documents(scenario, SEED, 20))
    assert first == list(fault_search.documents(scenario, SEED, 20))
    for command, doc in first:
        base = fault_search.MECH_BASE if command == "mech-lemma" else fault_search.PLANAR_BASE
        assert doc != base and command in fault_search.COMMANDS


def test_fault_names_each_kind(tmp_path):
    assert fault_search.fault(0, "", tmp_path / "none") is None
    assert fault_search.fault(2, "error: dt must be > 0, got 0.0\n", tmp_path) is None
    assert fault_search.fault("timeout", "", tmp_path) == "timeout"
    assert fault_search.fault(3, "", tmp_path) == "exit 3"
    for stderr in ("", "error: a\nerror: b\n", "Traceback\n", "error: no newline"):
        assert fault_search.fault(2, stderr, tmp_path).startswith("malformed error line")
    (tmp_path / "report.json").write_text('{"metrics": {"x": NaN}}', encoding="utf-8")
    assert fault_search.fault(1, "", tmp_path) == "non-finite value in report.json"
