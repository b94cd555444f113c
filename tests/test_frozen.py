"""The freeze tool: every fixture is one entry, and every entry is unmoved
(``ledger_sim_digests`` spawns the perf harness, so CI checks it)."""

import json
import math

import pytest

from tests import frozen


@pytest.mark.parametrize(
    "name", [name for name in frozen.FROZEN if name != "ledger_sim_digests"])
def test_entry_is_unmoved(moved, name):
    assert moved(name) == []


def test_every_fixture_is_the_fixture_of_exactly_one_entry():
    owners = sorted(fixture for fixture, _ in frozen.FROZEN.values())
    assert sorted(p.name for p in frozen.FIXTURES.iterdir()) == owners


@pytest.fixture
def live(tmp_path, monkeypatch):
    """Three synthetic entries frozen in a scratch directory; a test moves
    one by editing its live answer."""
    live = {"still": {"a": (0.1).hex()}, "moves": {"a": (0.2).hex(), "b": 1},
            "lines": "{\"t\": 1}\n{\"t\": 2}\n"}
    monkeypatch.setattr(frozen, "FIXTURES", tmp_path)
    monkeypatch.setattr(frozen, "FROZEN", {
        name: (f"{name}.json{'l' * (name == 'lines')}",
               lambda name=name: live[name]) for name in live})
    # an unmoved file keeps its own bytes, whatever its format
    (tmp_path / "still.json").write_text(json.dumps(live["still"]))
    frozen.write("moves.json", live["moves"])
    frozen.write("lines.jsonl", live["lines"])
    return live


def test_the_check_names_each_moved_entry_and_what_moved(live, capsys):
    assert frozen.main([]) == 0
    live["moves"]["a"] = math.nextafter(0.2, 1.0).hex()     # one ulp
    live["moves"]["c"] = None
    live["lines"] += "{\"t\": 3}\n"
    assert frozen.main([]) == 1
    assert frozen.main(["still"]) == 0
    assert capsys.readouterr().out == (
        "no entry moved (3 checked)\nmoved moves: a, c\n"
        "moved lines: line 3\nno entry moved (1 checked)\n")
    for argv in (["nope"], ["--regenerate"]):        # usage errors
        with pytest.raises(SystemExit, match="2"):
            frozen.main(argv)
    assert "one or more of: still, moves, lines" in capsys.readouterr().err


def test_regenerate_rewrites_only_the_named_entries_that_moved(
        live, tmp_path, capsys):
    still = (tmp_path / "still.json").read_bytes()
    live["moves"]["b"] = 2
    live["lines"] = live["lines"].replace("2", "7")
    assert frozen.main(["--regenerate", "still", "moves"]) == 0
    assert capsys.readouterr().out == "rewrote moves.json (b)\n"
    assert (tmp_path / "still.json").read_bytes() == still
    assert frozen.moved("lines") == ["line 2"]        # not named, not written
    assert frozen.main(["--regenerate", "lines"]) == 0
    assert frozen.main([]) == 0


def test_a_moved_dict_names_how_many_of_its_keys_moved(tmp_path, monkeypatch,
                                                        capsys):
    live = {"rows": {f"r{i:02d}": i for i in range(13)}, "flat": 1}
    monkeypatch.setattr(frozen, "FIXTURES", tmp_path)
    monkeypatch.setattr(frozen, "FROZEN", {"nest": ("nest.json",
                                                    lambda: live)})
    frozen.write("nest.json", live)
    for i in range(11):
        live["rows"][f"r{i:02d}"] = -i - 1
    live["flat"] = 2
    assert frozen.moved("nest") == ["flat", "rows"]
    assert frozen.main([]) == 1
    assert capsys.readouterr().out == (
        "moved nest: flat, rows (11 of 13: r00, r01, r02, r03, r04, r05, "
        "r06, r07, r08, r09, …)\n")
    live["rows"] = {"r00": -1}           # one moved, twelve gone
    assert frozen.main([]) == 1
    assert capsys.readouterr().out == "moved nest: flat, rows (13 of 13: " \
        "r00, r01, r02, r03, r04, r05, r06, r07, r08, r09, …)\n"
