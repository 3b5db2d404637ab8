"""Self-tests of tools/pairs.py, outside tier-1's test paths:

    python3 -m pytest tools
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pairs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REQUEST = "verify --identity E4 --to 5 --format csv"


def test_a_tree_against_itself_is_timed(tmp_path):
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--label", "self",
                       "--pairs", "2", "--out", str(out), REQUEST]) == 0
    result = json.loads(out.read_text())
    assert result["trees"]["parent"] == result["trees"]["change"]
    assert {"python", "cpu_count", "PYTHONDONTWRITEBYTECODE"} <= set(result)
    rows = result["requests"]
    assert [row["pinned"] for row in rows] == [True, False]
    for row in rows:
        assert [pair["order"] for pair in row["pairs"]] in (
            [["parent", "change"], ["change", "parent"]],
            [["change", "parent"], ["parent", "change"]])
        for pair in row["pairs"]:
            assert pair["same_output"] and pair["parent"]["exit"] == 0
            assert pair["parent"]["peak_mb"] > 0 and pair["parent"]["wall_s"] > 0
        assert row["summary"]["change_won"].endswith("/2")


def test_a_changed_output_is_not_timed(tmp_path):
    package = tmp_path / "tree" / "src" / "jacobsthal_octonions"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('E4,printed,0,5,6,0,1')\n")
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", str(ROOT), "--change", str(tmp_path / "tree"),
                       "--label", "differs", "--pairs", "1", "--pin", "pinned",
                       "--out", str(out), REQUEST]) == 1
    (row,) = json.loads(out.read_text())["requests"]
    assert row["summary"] == {"outputs_differ_in_pairs": [0]}
    (pair,) = row["pairs"]
    assert "wall_s" not in pair["parent"] and "wall_s" not in pair["change"]
