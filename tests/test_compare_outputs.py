import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def side():
    """One checkout's results: every command ran and printed the same."""
    runs = {label: (0, b"trained 2 epochs\n", b"") for label, _argv in compare_outputs.STEPS}
    files = {"s42/model.json": b"{}\n\x00\x01", "s42/report.csv": b"timestamp,value\n"}
    return runs, files


def test_identical_sides_report_nothing():
    assert compare_outputs.compare(side(), side()) == []


def _set_run(index, value):
    def edit(runs, files):
        code_out_err = list(runs["s42 train"])
        code_out_err[index] = value
        runs["s42 train"] = tuple(code_out_err)

    return edit


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_set_run(0, 3), "s42 train: exit code 0 -> 3"),
        (_set_run(1, b"trained 3 epochs\n"), "s42 train: stdout differs"),
        (_set_run(2, b"data error\n"), "s42 train: stderr differs"),
        (lambda runs, files: files.pop("s42/report.csv"), "s42/report.csv: only in parent"),
        (lambda runs, files: files.update({"s42/roc.csv": b""}), "s42/roc.csv: only in change"),
        (
            lambda runs, files: files.update({"s42/model.json": b"{}\n\x00\x02\x03"}),
            "s42/model.json: contents differ (5 -> 6 bytes)",
        ),
    ],
    ids=["exit-code", "stdout", "stderr", "only-in-parent", "only-in-change", "file-bytes"],
)
def test_each_difference_gives_its_one_report_line(edit, expected):
    change = side()
    edit(*change)
    report = compare_outputs.compare(side(), change)
    # a changed stream is followed by its indented unified diff
    assert [line for line in report if not line.startswith("    ")] == [expected]
