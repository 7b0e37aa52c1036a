import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from anomalion import cli
from anomalion.circuits import action_from_config
from anomalion.cli import main
from anomalion.lattice import Window

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main(args)


def test_reproduce_ccz(tmp_path, capsys):
    report = tmp_path / "ccz.json"
    assert run(["reproduce-ccz", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "b^3 . a" in out
    data = json.loads(report.read_text())
    assert data["schema"] == "anomalion/1"
    assert data["matched_class"] == "b^3 . a"
    assert data["is_cocycle"] is True and data["trivial"] is False
    assert data["u_example"] == "Z(0,0)"
    # the full 256-entry table is in the report
    assert len(data["cochain"]["values"]) == 256
    assert data["cochain"]["values"]["0,1,0,1,0,1,1,0"] == 1
    assert "h2_qplus" in data["notes"]


def test_anomaly2d_onsite(tmp_path):
    report = tmp_path / "r.json"
    assert run(["anomaly2d", "--action", "onsite_x_2d", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["trivial"] is True and data["matched_class"] == "trivial"


def test_anomaly1d(tmp_path):
    report = tmp_path / "r.json"
    assert run(["anomaly1d", "--action", "levin_gu_1d", "--window", "12",
                "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["trivial"] is False
    assert data["cochain"]["values"]["1,1,1"] == 1


def test_eta_check_deterministic(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["eta-check", "--pairs", "6", "--seed", "7", "--report", str(r1)]) == 0
    assert run(["eta-check", "--pairs", "6", "--seed", "7", "--report", str(r2)]) == 0
    assert r1.read_text() == r2.read_text()
    data = json.loads(r1.read_text())
    assert data["ok"] is True and len(data["checks"]) == 6


def test_eta_check_window_too_small_to_pair_is_a_config_error(capsys):
    """The origin lies 3 sites from the edge of a 7x7 or 8x8 window, which
    leaves truncation radius 1 < 2: refused before any identity is checked."""
    for size in ("7x7", "8x8"):
        err = _config_error(["eta-check", "--pairs", "1", "--window", size, "--margin", "1"], capsys)
        assert "window too small to stabilize the pairing" in err


def test_crossed_lattice_window_too_small_to_pair_is_a_config_error(capsys):
    """crossed lattice runs the pairing suite, so it refuses the windows
    that eta-check refuses, as a config error."""
    for window in (["--window", "8"], ["--window", "7", "--margin", "1"]):
        err = _config_error(["crossed", "lattice", "--samples", "1", *window], capsys)
        assert "window too small to stabilize the pairing" in err


def test_unwritable_report_path_is_a_config_error(tmp_path, capsys):
    """A report path under a missing directory, or a directory, is refused
    with one config error line, not a traceback."""
    z1 = {"order": 1, "mul": [0]}
    path = _write(tmp_path, "t.json", json.dumps({
        "kind": "two_crossed_module", "L": z1, "K": z1, "P": z1, "delta": [0], "bd": [0],
        "act_L": [[0]], "act_K": [[0]], "braid": [[0]]}))
    for report in (tmp_path / "missing" / "r.json", tmp_path):
        err = _config_error(["crossed", "homotopy", "--input", path, "--report", str(report)], capsys)
        assert err.startswith("config error: cannot write report: ")


def test_eta_check_exit_code_does_not_depend_on_the_seed():
    """On 9x9 and 10x10 windows with margin 1 the truncation radius is 2;
    the circuits are drawn inside it, so no seed fails to stabilize."""
    for size in ("9x9", "10x10"):
        codes = {
            run(["eta-check", "--pairs", "3", "--window", size, "--margin", "1", "--seed", str(seed)])
            for seed in range(4)
        }
        assert codes == {0}, size


def test_config_errors(tmp_path):
    assert run(["anomaly2d", "--action", "no_such_file.json"]) == 2
    assert run(["anomaly2d", "--margin", "0"]) == 2


def _config_error(args, capsys) -> str:
    """Run args: it must exit 2 with one line on stderr, a config error."""
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


def test_malformed_window_is_a_config_error(capsys):
    for args in (["--window", "abc"], ["--window", "12x"], ["--window", "12x12x3"], ["--window", "0"]):
        assert "bad window" in _config_error(["anomaly2d", *args], capsys)
    assert "margin must be >= 0" in _config_error(["anomaly2d", "--margin", "-1"], capsys)
    assert "margin too large" in _config_error(["anomaly2d", "--window", "6x6", "--margin", "3"], capsys)
    assert "margin too large" in _config_error(["anomaly1d", "--window", "6", "--margin", "3"], capsys)
    for action in ("levin_gu_1d", "onsite_x_1d", "onsite_xx_1d"):
        err = _config_error(["anomaly2d", "--action", action], capsys)
        assert err == f"config error: {action} needs a chain window\n"
    # the CCZ layer is empty on a chain, so a 2d builtin there would read trivial
    for action in ("ccz_x_2d", "onsite_x_2d"):
        err = _config_error(["anomaly1d", "--action", action], capsys)
        assert err == f"config error: {action} needs a 2d window\n"
    # every command that loads an action needs a margin of 3x its range, 1 here
    for args in (
        ["anomaly2d"], ["reproduce-ccz"], ["anomaly1d"],
        ["spt", "--mode", "trivialize2d", "--action", "ccz_x_2d"],
        ["spt", "--mode", "relative1d", "--action", "levin_gu_1d"],
    ):
        err = _config_error([*args, "--margin", "2"], capsys)
        assert err == "config error: margin must be at least three times the action range\n"


def test_checks_over_no_samples_are_config_errors(capsys):
    for n in ("0", "-1"):
        err = _config_error(["eta-check", "--pairs", n], capsys)
        assert err == f"config error: --pairs must be at least 1, got {n}\n"
        err = _config_error(["crossed", "lattice", "--samples", n], capsys)
        assert err == f"config error: --samples must be at least 1, got {n}\n"
    for command in ("anomaly2d", "reproduce-ccz"):
        err = _config_error([command, "--check-gauge", "-1"], capsys)
        assert err == "config error: --check-gauge must be at least 0, got -1\n"


def test_mistyped_action_config_is_a_config_error(tmp_path, capsys):
    """JSON numbers are read as they are written: no float or boolean
    stands in for an int, and a composite region takes no thickening.  A
    key that its object does not take, at any level, is refused with its
    path, as a misspelt key would otherwise change the action silently."""
    group = {"order": 2, "mul": [0, 1, 1, 0]}

    def x_layer(region):
        return {"group": group, "generators": [{"element": 1, "layers": [{"pattern": "x_sites", "region": region}]}]}

    at = "generators[0].layers[0].region"
    disk = {"kind": "origin_disk", "radius": 1}
    # a Z2 config with three misspelt or extra keys, which was read as X on
    # the unthickened half-plane with default names and reported trivial
    misspelt = {
        "group": {**group, "nmaes": ["e", "x"]},
        "generators": [{"element": 1, "extra": 1,
                        "layers": [{"pattern": "x_sites", "region": {"kind": "half_plane_H", "thicknes": 2}}]}],
    }
    for config, err in (
        ({"group": group, "generators": 5}, "ValueError: 'generators' must be a list, got 5"),
        (x_layer({"kind": "half_plane_H", "thickening": "2"}), f"ValueError: {at}: 'thickening' must be an int, got '2'"),
        ({"group": {"order": 3, "mul": [0, 1, 2, 1, 2, 0, 2, 0, 7]}, "generators": []},
         "GroupTableError: mul table entry 7 is not an element of range(3)"),
        ({"group": {"order": 2, "mul": [False, True, True, False]}, "generators": []},
         "GroupTableError: mul table entry False is not an element of range(2)"),
        # a gate list is no config pattern: this element would act trivially
        ({"group": group, "generators": [{"element": 1, "layers": [{"pattern": "explicit"}]}]},
         "InstantiationError: unknown pattern 'explicit'"),
        ({"group": group, "generators": [{"element": 1.5, "layers": []}]},
         "ValueError: generators[0]: 'element' must be a string or an int, got 1.5"),
        ({"group": group, "generators": [{"element": True, "layers": []}]},
         "ValueError: generators[0]: 'element' must be a string or an int, got True"),
        (x_layer({"kind": "origin_disk", "radius": 2.5}), f"ValueError: {at}: 'radius' must be an int, got 2.5"),
        (x_layer({"kind": "half_plane_H", "thickening": 1.5}), f"ValueError: {at}: 'thickening' must be an int, got 1.5"),
        (x_layer({"kind": "complement", "thickening": 1, "inner": disk}),
         "ValueError: complement regions take no thickening; thicken their parts"),
        (x_layer({"kind": "intersection", "thickening": 2, "inner": disk, "inner2": {"kind": "half_plane_H"}}),
         "ValueError: intersection regions take no thickening; thicken their parts"),
        # an unknown key at each level
        (misspelt, "ValueError: group: unknown key 'nmaes'"),
        ({"group": group, "generators": [], "extra": 1}, "ValueError: unknown key 'extra'"),
        ({"group": group, "generators": [{"element": 1, "extra": 1, "layers": []}]},
         "ValueError: generators[0]: unknown key 'extra'"),
        ({"group": group, "generators": [{"element": 1, "layers": [{"pattern": "x_sites", "extra": 1}]}]},
         "ValueError: generators[0].layers[0]: unknown key 'extra'"),
        (x_layer({"kind": "half_plane_H", "thicknes": 2}), f"ValueError: {at}: unknown key 'thicknes'"),
        (x_layer({"kind": "complement", "inner": {**disk, "thicknes": 1}}),
         f"ValueError: {at}.inner: unknown key 'thicknes'"),
        # a key of another region kind
        (x_layer({"kind": "complement", "inner": disk, "inner2": disk}), f"ValueError: {at}: unknown key 'inner2'"),
        (x_layer({"kind": "half_plane_H", "radius": 2}), f"ValueError: {at}: unknown key 'radius'"),
        # names are strings, and a name that is no element's is refused
        ({"group": group, "generators": [], "name": 5}, "ValueError: 'name' must be a string, got 5"),
        ({"group": {**group, "name": 5}, "generators": []}, "ValueError: group: 'name' must be a string, got 5"),
        ({"group": group, "generators": [{"element": "x", "layers": []}]},
         "ValueError: generators[0]: element 'x' is not in the group"),
        ({"group": group}, "ValueError: missing key 'generators'"),
        ({"group": group, "generators": [[]]}, "ValueError: generators[0]: expected an object, got []"),
    ):
        path = _write(tmp_path, "action.json", json.dumps(config))
        report = tmp_path / "r.json"
        assert err in _config_error(["anomaly2d", "--action", path, "--report", str(report)], capsys)
        assert not report.exists()


def test_config_that_is_no_group_action_is_a_config_error(tmp_path, capsys):
    """Z3 with X on element 1 and nothing on element 2 breaks rho(1)rho(2)
    = rho(0); Z2 with X on its identity breaks rho(e) = 1."""
    z3 = {"order": 3, "mul": [(i + j) % 3 for i in range(3) for j in range(3)]}
    z2 = {"order": 2, "mul": [0, 1, 1, 0]}
    x_sites = [{"pattern": "x_sites"}]
    for config, err in (
        ({"group": z3, "generators": [{"element": 1, "layers": x_sites}, {"element": 2, "layers": []}]},
         "config error: config does not define a group action: ['rho(1)rho(2) != rho(0) on "),
        ({"group": z2, "generators": [{"element": 0, "layers": x_sites}, {"element": 1, "layers": []}]},
         "config error: config does not define a group action: ['identity element has a nonempty circuit', "),
    ):
        path = _write(tmp_path, "action.json", json.dumps(config))
        report = tmp_path / "r.json"
        assert _config_error(["anomaly2d", "--action", path, "--report", str(report)], capsys).startswith(err)
        assert not report.exists()


def test_action_config_element_names_must_be_distinct_strings(tmp_path, capsys):
    """Names key the report's cochain entries: equal names would merge the
    8 entries of a Z2 degree-3 cochain into 1, and int names fail only when
    the report is written.  Names are joined with "," in those keys, so
    "a" and "a,a", with different numbers of commas, would merge entries
    too.  All are refused before any computation."""
    for names, message in (
        (["x", "x"], "GroupTableError: element names must be distinct strings"),
        ([0, 1], "GroupTableError: element names must be distinct strings"),
        (["a", "a,a"], "GroupTableError: element names 'a' and 'a,a' differ in their number of ','"),
        # a string is no list of names, though it would split into "a" and "b"
        ("ab", "ValueError: group: 'names' must be a list, got 'ab'"),
    ):
        path = _write(tmp_path, "action.json", json.dumps({
            "group": {"order": 2, "mul": [0, 1, 1, 0], "names": names},
            "generators": [{"element": 1, "layers": [{"pattern": "x_sites"}, {"pattern": "cz_chain_edges"}]}],
        }))
        report = tmp_path / "r.json"
        err = _config_error(["anomaly1d", "--action", path, "--report", str(report)], capsys)
        assert message in err
        assert not report.exists()


def test_config_action_on_a_window_too_small_to_validate_is_a_config_error(tmp_path, capsys):
    """A 10x10 window with margin 3 has no site at edge distance 3 + 2 x 1
    for a CCZ action, so the config cannot be checked to define a group
    action there; the builtin ccz_x_2d, which needs no check, still runs."""
    path = _write(tmp_path, "action.json", json.dumps({
        "group": {"order": 2, "mul": [0, 1, 1, 0]},
        "generators": [{"element": 1, "layers": [{"pattern": "ccz_triangles"}]}],
    }))
    window = ["--window", "10x10", "--margin", "3"]
    err = _config_error(["anomaly2d", "--action", path, *window], capsys)
    assert err == "config error: window 10x10 with margin 3: window too small to validate the action\n"
    assert run(["anomaly2d", "--action", "ccz_x_2d", *window]) == 0


def test_custom_action_config(tmp_path):
    cfg = tmp_path / "action.json"
    cfg.write_text(json.dumps({
        "group": {"order": 2, "mul": [0, 1, 1, 0], "names": ["e", "x"]},
        "generators": [
            {"element": "x", "layers": [{"pattern": "x_on_sites", "region": {"kind": "full"}}]}
        ],
    }))
    report = tmp_path / "r.json"
    assert run(["anomaly2d", "--action", str(cfg), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["trivial"] is True


def test_readme_action_config_reads():
    """The README's custom-action example is a config the reader takes, so
    the documented schema and the reader cannot drift apart."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Custom actions are JSON:\n\n```json\n", 1)[1].split("```", 1)[0]
    action = action_from_config(json.loads(block), Window.centered(12, 12, 3))
    assert action.group.names == ("e", "x")


def test_benchmark_inputs_load(tmp_path, monkeypatch):
    """The order8 and sections workloads of perfbench write the JSON inputs
    that the benchmark runs on; the CLI's loaders read both, as a refused
    key would make the benchmark exit 2."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    argv = workloads.WORKLOADS["order8"].prepare(1234, str(tmp_path)).argv
    window = cli._parse_window(argv[argv.index("--window") + 1], int(argv[argv.index("--margin") + 1]), chain=False)
    assert cli._load_action(argv[argv.index("--action") + 1], window).group.order == 8
    argv = workloads.WORKLOADS["sections"].prepare(1234, str(tmp_path)).argv
    obj = cli._read_json(argv[argv.index("--input") + 1], "crossed input")
    assert cli._crossed_from_json(obj, "crossed_module").M.order == 16


def test_crossed_cli(tmp_path):
    cm = {
        "kind": "crossed_module",
        "M": {"order": 4, "mul": [(i + j) % 4 for i in range(4) for j in range(4)]},
        "N": {"order": 4, "mul": [(i + j) % 4 for i in range(4) for j in range(4)]},
        "bd": [0, 2, 0, 2],
        "act": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]],
    }
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(cm))
    assert run(["crossed", "validate", "--input", str(path)]) == 0
    rep = tmp_path / "p.json"
    assert run(["crossed", "postnikov", "--input", str(path), "--all-sections",
                "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["classes_agree"] is True and data["sections"] == 4

    square = {
        "kind": "crossed_square",
        "L": {"order": 2, "mul": [0, 1, 1, 0]},
        "M": {"order": 2, "mul": [0, 1, 1, 0]},
        "N": {"order": 2, "mul": [0, 1, 1, 0]},
        "P": {"order": 1, "mul": [0]},
        "f": [0, 0], "g": [0, 0], "v": [0, 0], "u": [0, 0],
        "act_L": [[0, 1]], "act_M": [[0, 1]], "act_N": [[0, 1]],
        "eta": [[0, 0], [0, 1]],
    }
    spath = tmp_path / "sq.json"
    spath.write_text(json.dumps(square))
    assert run(["crossed", "validate", "--input", str(spath)]) == 0
    conv = tmp_path / "conv.json"
    assert run(["crossed", "convert", "--input", str(spath), "--report", str(conv)]) == 0
    t2 = json.loads(conv.read_text())["two_crossed_module"]
    t2["kind"] = "two_crossed_module"
    tpath = tmp_path / "t2.json"
    tpath.write_text(json.dumps(t2))
    assert run(["crossed", "validate", "--input", str(tpath)]) == 0
    hrep = tmp_path / "h.json"
    assert run(["crossed", "homotopy", "--input", str(tpath), "--report", str(hrep)]) == 0
    hdata = json.loads(hrep.read_text())
    assert hdata["pi3"]["order"] == 2

    bad = dict(cm)
    bad["bd"] = [0, 1, 0, 2]
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps(bad))
    assert run(["crossed", "validate", "--input", str(bpath)]) == 1


def test_convert_refuses_repeated_k_names(tmp_path, capsys):
    """K = M x| N names its elements "(m;n)": M names "a;b", "a" and N names
    "c", "b;c" give "(a;b;c)" twice, which the report cannot tell apart.
    An invalid square with the same names is still an assertion failure."""
    z2 = {"order": 2, "mul": [0, 1, 1, 0]}
    square = {
        "kind": "crossed_square",
        "L": z2, "M": {**z2, "names": ["a;b", "a"]}, "N": {**z2, "names": ["c", "b;c"]},
        "P": {"order": 1, "mul": [0]},
        "f": [0, 0], "g": [0, 0], "v": [0, 0], "u": [0, 0],
        "act_L": [[0, 1]], "act_M": [[0, 1]], "act_N": [[0, 1]],
        "eta": [[0, 0], [0, 1]],
    }
    path = _write(tmp_path, "sq.json", json.dumps(square))
    report = tmp_path / "r.json"
    assert run(["crossed", "validate", "--input", path]) == 0
    err = _config_error(["crossed", "convert", "--input", path, "--report", str(report)], capsys)
    assert "K element name '(a;b;c)' is repeated" in err
    assert not report.exists()
    path = _write(tmp_path, "bad.json", json.dumps({**square, "eta": [[0, 1], [0, 1]]}))
    assert run(["crossed", "convert", "--input", path, "--report", str(report)]) == 1
    assert not report.exists()


def test_postnikov_all_sections_validates_once(tmp_path, monkeypatch):
    """Z8 -x4-> Z8 with trivial action has 16 sections and one module."""
    import anomalion.crossed as crossed

    z8 = {"order": 8, "mul": [(i + j) % 8 for i in range(8) for j in range(8)]}
    path = tmp_path / "cm.json"
    path.write_text(json.dumps({
        "kind": "crossed_module", "M": z8, "N": z8,
        "bd": [4 * i % 8 for i in range(8)],
        "act": [list(range(8)) for _ in range(8)],
    }))
    calls = []
    validate = crossed.validate_crossed_module
    monkeypatch.setattr(crossed, "validate_crossed_module",
                        lambda cm: calls.append(cm) or validate(cm))
    rep = tmp_path / "p.json"
    assert run(["crossed", "postnikov", "--input", str(path), "--all-sections",
                "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["sections"] == 16
    assert len(calls) == 1


def test_crossed_lattice_cli(tmp_path):
    rep = tmp_path / "l.json"
    assert run(["crossed", "lattice", "--samples", "5", "--seed", "3",
                "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["ok"] is True


def test_spt_cli(tmp_path):
    rep = tmp_path / "s.json"
    assert run(["spt", "--mode", "relative1d", "--action", "onsite_xx_1d",
                "--window", "12", "--basis", "x", "--dress1", "cluster",
                "--dress2", "none", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["trivial"] is False

    rep2 = tmp_path / "s2.json"
    assert run(["spt", "--mode", "trivialize2d", "--action", "onsite_x_2d",
                "--basis", "x", "--report", str(rep2)]) == 0
    data2 = json.loads(rep2.read_text())
    assert data2["status"] == "ok" and data2["delta_equals_tau"] is True

    rep3 = tmp_path / "s3.json"
    assert run(["spt", "--mode", "trivialize2d", "--action", "ccz_x_2d",
                "--basis", "x", "--report", str(rep3)]) == 0
    assert json.loads(rep3.read_text())["status"] == "no_invariant_state"


def test_spt_relative1d_verdict_does_not_depend_on_the_window(capsys):
    """The cluster state against the product state is the nontrivial class
    on every chain that spt relative1d accepts.  A chain that cannot pin
    the state within 3 sites of the origin (the correction disk thickened
    by the cluster's range) at edge distance 2 is refused; 11 sites is the
    shortest that can, at any margin."""
    accepted = set()
    for length in range(6, 15):
        for margin in range(5):
            code = run(["spt", "--window", str(length), "--margin", str(margin)])
            out, err = capsys.readouterr()
            if code == 0:
                assert out == "spt relative1d: cocycle=True trivial=False\n", (length, margin)
                accepted.add((length, margin))
            else:
                assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1, (length, margin, err)
    assert accepted == {(n, m) for n in range(11, 15) for m in range(5)}


def test_spt_reports_name_their_input(tmp_path):
    """Two runs that end in the same finding on different inputs write
    different reports: each names its action, basis and window."""
    reports = []
    for i, argv in enumerate((["--action", "ccz_x_2d", "--seed", "8"],
                              ["--action", "onsite_x_2d", "--basis", "z", "--seed", "15"])):
        rep = tmp_path / f"s{i}.json"
        assert run(["spt", "--mode", "trivialize2d", *argv, "--report", str(rep)]) == 0
        reports.append(json.loads(rep.read_text()))
    a, b = reports
    assert a["status"] == b["status"] == "no_invariant_state" and a != b
    assert (a["action"], a["basis"]) == ("ccz_x_2d", "x")
    assert (b["action"], b["basis"]) == ("onsite_x_2d", "z")
    assert a["window"] == [-6, 5, -6, 5] and a["margin"] == 3

    rep = tmp_path / "r.json"
    assert run(["spt", "--mode", "relative1d", "--window", "12", "--dress1", "none",
                "--dress2", "cluster", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert (data["action"], data["basis"], data["dress1"], data["dress2"]) == (
        "onsite_xx_1d", "x", "none", "cluster")
    assert data["window"] == [-6, 5] and data["margin"] == 3


def test_spt_trivialize2d_failed_check_exits_nonzero(tmp_path, monkeypatch):
    """An ok run whose delta c is not tau is a failed check, not a finding."""
    import anomalion.cli as cli

    for verdict in (False, None):
        monkeypatch.setattr(cli, "spt_trivialize_2d",
                            lambda data, dress, state: {"status": "ok", "cochain": None, "delta_equals_tau": verdict})
        rep = tmp_path / "s.json"
        assert run(["spt", "--mode", "trivialize2d", "--action", "onsite_x_2d",
                    "--basis", "x", "--report", str(rep)]) == 1
        data = json.loads(rep.read_text())
        assert data["status"] == "ok" and data["delta_equals_tau"] is verdict


def test_reproduce_ccz_failed_gauge_check_exits_nonzero(tmp_path, monkeypatch):
    """A regauged tau that differs from tau fails the run; the report is
    still written, with the failed check in it."""
    import anomalion.cli as cli
    from anomalion.groups import Cochain

    tau = cli.tau_cochain

    def flipped(data):
        c = tau(data)
        return Cochain(c.group, c.degree, c.modulus, tuple(1 - v for v in c.values))

    monkeypatch.setattr(cli, "tau_cochain", flipped)
    rep = tmp_path / "ccz.json"
    assert run(["reproduce-ccz", "--check-gauge", "1", "--report", str(rep)]) == 1
    data = json.loads(rep.read_text())
    assert data["matched_class"] == "b^3 . a"
    assert data["gauge_checks"] == {
        "beta_regauge_pass": 0, "rho_regauge_pass": 0, "count": 1, "ok": False,
    }


def test_inconsistent_action_config_rejected(tmp_path):
    # Z3 table with an involution generator cannot be a group action
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "group": {"order": 3, "mul": [(i + j) % 3 for i in range(3) for j in range(3)]},
        "generators": [
            {"element": 1, "layers": [{"pattern": "x_on_sites", "region": {"kind": "full"}}]}
        ],
    }))
    assert run(["anomaly2d", "--action", str(cfg)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "group": {"order": 2, "mul": [0, 1, 1, 1]},
        "generators": [],
    }))
    assert run(["anomaly2d", "--action", str(broken)]) == 2


def test_action_config_lists_each_element_once(tmp_path, capsys):
    group = {"order": 2, "mul": [0, 1, 1, 0], "names": ["e", "x"]}
    ccz = {"pattern": "ccz_triangles", "region": {"kind": "full"}}
    configs = [
        ("generators[1]: element 'x' is listed twice", [{"element": "x", "layers": [ccz]}, {"element": "x", "layers": []}]),
        ("element 'x' is not listed", [{"element": "e", "layers": []}]),
        ("generators[0]: element 2 is not in the group", [{"element": 2, "layers": [ccz]}]),
    ]
    for message, generators in configs:
        cfg = tmp_path / "action.json"
        cfg.write_text(json.dumps({"group": group, "generators": generators}))
        assert run(["anomaly2d", "--action", str(cfg)]) == 2
        assert message in capsys.readouterr().err


SIGN_ACTION_CM = {
    "kind": "crossed_module",
    "M": {"order": 4, "mul": [(i + j) % 4 for i in range(4) for j in range(4)]},
    "N": {"order": 4, "mul": [(i + j) % 4 for i in range(4) for j in range(4)]},
    "bd": [0, 2, 0, 2],
    "act": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]],
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_crossed_without_input_is_a_config_error(capsys):
    assert run(["crossed", "postnikov"]) == 2
    assert capsys.readouterr().err == "config error: crossed postnikov needs --input\n"


def test_postnikov_without_a_section_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, "cm.json", json.dumps(SIGN_ACTION_CM))
    assert run(["crossed", "postnikov", "--input", path]) == 2
    assert capsys.readouterr().err == "config error: missing key 'section', which postnikov reads without --all-sections\n"
    with_section = _write(tmp_path, "cm1.json", json.dumps({**SIGN_ACTION_CM, "section": [0, 1]}))
    assert run(["crossed", "postnikov", "--input", with_section]) == 0


def test_postnikov_section_of_wrong_length_or_range_is_a_config_error(tmp_path, capsys):
    """pi1 of the sign-action module has two elements and N has four; N
    element n lies over n mod 2, so [1, 1] has the right length and range
    but is no section."""
    for section, err in (
        ([0], "section is not a list of 2 entries"),
        ([0, 1, 2], "section is not a list of 2 entries"),
        ([0, 9], "section[1] = 9 is not in range(4)"),
        ([0, -1], "section[1] = -1 is not in range(4)"),
        ([0, 1.0], "section[1] = 1.0 is not in range(4)"),
        ([1, 1], "section entry 0 is 1, which lies over element 1 of pi1, not 0"),
        ([2, 2], "section entry 1 is 2, which lies over element 0 of pi1, not 1"),
    ):
        for cm in (SIGN_ACTION_CM, {**SIGN_ACTION_CM, "act": [[0, 1, 2, 3]] * 4}):
            path = _write(tmp_path, "cm.json", json.dumps({**cm, "section": section}))
            report = tmp_path / "r.json"
            assert run(["crossed", "postnikov", "--input", path, "--report", str(report)]) == 2
            assert capsys.readouterr().err == f"config error: {err}\n"
            assert not report.exists()


def test_postnikov_on_a_non_cyclic_kernel_is_a_config_error(tmp_path, capsys):
    """Z2 x Z2 -> Z2 by zero: the kernel is all of Z2 x Z2, which has no
    iso to a Z_m, and the CLI takes no explicit one."""
    cm = {
        "kind": "crossed_module",
        "M": {"order": 4, "mul": [i ^ j for i in range(4) for j in range(4)]},
        "N": {"order": 2, "mul": [0, 1, 1, 0]},
        "bd": [0, 0, 0, 0],
        "act": [[0, 1, 2, 3]] * 2,
        "section": [0, 1],
    }
    path = _write(tmp_path, "cm.json", json.dumps(cm))
    assert run(["crossed", "validate", "--input", path]) == 0
    for args in ([], ["--all-sections"]):
        report = tmp_path / "r.json"
        err = _config_error(["crossed", "postnikov", "--input", path, "--report", str(report), *args], capsys)
        assert err == "config error: kernel of bd is not cyclic, and crossed postnikov takes no explicit iso\n"
        assert not report.exists()


def test_all_sections_reports_an_invalid_module_first(tmp_path, capsys):
    """pi1 is not built from a bd that is not a homomorphism."""
    bad_bd = _write(tmp_path, "bad.json", json.dumps({**SIGN_ACTION_CM, "bd": [0, 1, 0, 2]}))
    assert run(["crossed", "postnikov", "--all-sections", "--input", bad_bd]) == 1
    assert capsys.readouterr().err.startswith(
        "assertion failure: invalid crossed module: ('bd is not a homomorphism',"
    )


def test_crossed_table_missing_a_group_is_a_config_error(tmp_path, capsys):
    no_n = {k: v for k, v in SIGN_ACTION_CM.items() if k != "N"}
    for sub in ("validate", "postnikov"):
        assert run(["crossed", sub, "--all-sections", "--input", _write(tmp_path, "cm.json", json.dumps(no_n))]) == 2
        assert capsys.readouterr().err == "config error: malformed input: ValueError: missing key 'N'\n"
    # a well-formed table that fails validation stays a finding
    bad_bd = _write(tmp_path, "bad.json", json.dumps({**SIGN_ACTION_CM, "bd": [0, 1, 0, 2], "section": [0, 1]}))
    assert run(["crossed", "postnikov", "--input", bad_bd]) == 1
    assert capsys.readouterr().err.startswith("assertion failure: invalid crossed module")


def test_crossed_table_of_wrong_shape_is_a_config_error(tmp_path, capsys):
    """Group tables, and the row counts, row lengths and entry ranges of
    every other table, are checked where the input is parsed, for all three
    structure kinds."""
    for bad, err in (
        ({"act": [[0, 1, 2, 3]]}, "act is not a list of 4 entries"),
        ({"act": [[0, 1, 2, 3], [0, 3, 2], [0, 1, 2, 3], [0, 3, 2, 1]]}, "act[1] is not a list of 4 entries"),
        ({"act": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, "3"], [0, 3, 2, 1]]}, "act[2][3] = '3' is not in range(4)"),
        ({"bd": [0, 2, 0, 7]}, "bd[3] = 7 is not in range(4)"),
        ({"bd": [0, 2]}, "bd is not a list of 4 entries"),
        ({"M": {"order": 2, "mul": [0, 1, 1, 1]}}, "malformed input: GroupTableError: element 1 has no inverse"),
        ({"N": {"order": 2, "mul": [0, 1, 1]}}, "malformed input: GroupTableError: mul table length != order^2"),
        ({"M": {"order": 3, "mul": [0, 1, 2, 1, 2, 0, 2, 0, 7]}},
         "malformed input: GroupTableError: mul table entry 7 is not an element of range(3)"),
    ):
        path = _write(tmp_path, "cm.json", json.dumps({**SIGN_ACTION_CM, **bad, "section": [0, 1]}))
        for sub in ("validate", "postnikov"):
            assert _config_error(["crossed", sub, "--input", path], capsys) == f"config error: {err}\n"
    z1 = {"order": 1, "mul": [0]}
    z2 = {"order": 2, "mul": [0, 1, 1, 0]}
    z2_square = {"kind": "crossed_square", "L": z2, "M": z2, "N": z2, "P": z1, "f": [0, 0], "g": [0, 0],
                 "v": [0, 0], "u": [0, 0], "act_L": [[0, 1]], "act_M": [[0, 1]], "act_N": [[0, 1]],
                 "eta": [[0, 0], [0, 1]]}
    for obj, subs, bad, err in (
        (Z1_SQUARE, ("validate", "convert"), {"eta": [[0, 0]]}, "eta[0] is not a list of 1 entries"),
        # booleans are no group elements, though Python counts them as ints
        (z2_square, ("validate", "convert"), {"L": {"order": 2, "mul": [False, True, True, False]}},
         "malformed input: GroupTableError: mul table entry False is not an element of range(2)"),
        (Z1_T2CM, ("validate", "homotopy"), {"braid": [[1]]}, "braid[0][0] = 1 is not in range(1)"),
    ):
        for sub in subs:
            assert run(["crossed", sub, "--input", _write(tmp_path, "ok.json", json.dumps(obj))]) == 0
            path = _write(tmp_path, "bad.json", json.dumps({**obj, **bad}))
            assert _config_error(["crossed", sub, "--input", path], capsys) == f"config error: {err}\n"


_Z1 = {"order": 1, "mul": [0]}
Z1_SQUARE = {"kind": "crossed_square", "L": _Z1, "M": _Z1, "N": _Z1, "P": _Z1, "f": [0], "g": [0], "v": [0],
             "u": [0], "act_L": [[0]], "act_M": [[0]], "act_N": [[0]], "eta": [[0]]}
Z1_T2CM = {"kind": "two_crossed_module", "L": _Z1, "K": _Z1, "P": _Z1, "delta": [0], "bd": [0],
           "act_L": [[0]], "act_K": [[0]], "braid": [[0]]}


def test_unknown_or_mistyped_crossed_key_is_a_config_error(tmp_path, capsys):
    """Each structure kind takes its groups, its tables and its kind, and a
    crossed module also a section, on every subcommand that reads it; any
    other key, a group key included, is refused with its path.  A kind
    that names another structure than the subcommand reads is refused too."""
    postnikov = ["postnikov", "--all-sections"]
    for obj, subs, bad, err in (
        # a misspelt section was dropped, and postnikov drew every section
        (SIGN_ACTION_CM, (["validate"], postnikov), {"sectoin": [0, 1]},
         "malformed input: ValueError: unknown key 'sectoin'"),
        (SIGN_ACTION_CM, (["validate"], postnikov), {"M": {**SIGN_ACTION_CM["M"], "nmaes": ["a", "b", "c", "d"]}},
         "malformed input: ValueError: M: unknown key 'nmaes'"),
        (SIGN_ACTION_CM, (["validate"], postnikov), {"section": "01"},
         "malformed input: ValueError: 'section' must be a list, got '01'"),
        (SIGN_ACTION_CM, (["validate"], postnikov), {"N": [0]},
         "malformed input: ValueError: 'N' must be an object, got [0]"),
        (SIGN_ACTION_CM, (["convert"],), {}, "kind: expected 'crossed_square', got 'crossed_module'"),
        (SIGN_ACTION_CM, (postnikov,), {"kind": "two_crossed_module"},
         "kind: expected 'crossed_module', got 'two_crossed_module'"),
        (Z1_SQUARE, (["validate"], ["convert"]), {"extra": 1}, "malformed input: ValueError: unknown key 'extra'"),
        # only a crossed module carries a section
        (Z1_SQUARE, (["validate"], ["convert"]), {"section": [0]},
         "malformed input: ValueError: unknown key 'section'"),
        (Z1_SQUARE, (["validate"], ["convert"]), {"P": {**_Z1, "name": 1}},
         "malformed input: ValueError: P: 'name' must be a string, got 1"),
        (Z1_T2CM, (["validate"], ["homotopy"]), {"extra": 1}, "malformed input: ValueError: unknown key 'extra'"),
        (Z1_T2CM, (["homotopy"],), {"kind": "crossed_square"},
         "kind: expected 'two_crossed_module', got 'crossed_square'"),
        (Z1_T2CM, (["validate"],), {"kind": 5}, "unknown structure kind 5"),
    ):
        for sub in subs:
            path = _write(tmp_path, "bad.json", json.dumps({**obj, **bad}))
            report = tmp_path / "r.json"
            err_line = _config_error(["crossed", *sub, "--input", path, "--report", str(report)], capsys)
            assert err_line == f"config error: {err}\n"
            assert not report.exists()


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    broken = _write(tmp_path, "broken.json", '{"M": {"order": 2,')
    assert run(["crossed", "postnikov", "--all-sections", "--input", broken]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read crossed input: Expecting")
    assert run(["anomaly2d", "--action", broken]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read action config: Expecting")
    not_an_object = _write(tmp_path, "list.json", "[1, 2]")
    assert run(["anomaly1d", "--action", not_an_object]) == 2
    assert capsys.readouterr().err == "config error: action config is not a JSON object\n"


def test_perfbench_tracer_installs():
    """Every function the benchmark's tracer wraps still exists by name."""
    code = (
        "import sys; import anomalion.cli; sys.path.insert(0, sys.argv[1]); "
        "import tracer; tracer.install()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_and_cohomology_load_no_numpy():
    """The library needs no third-party package, and no exact fractions.
    Importing the CLI, one classify of a Klein-four degree-4 cochain and
    one postnikov3 of a Z4 module leave numpy, fractions and decimal
    unloaded; this runs in a subprocess because pytest has already imported
    them here."""
    code = textwrap.dedent("""
        import sys
        import anomalion.cli
        from anomalion.crossed import ActionTable, CrossedModule, all_sections, postnikov3
        from anomalion.groups import (
            FiniteGroup, GroupHom, builtin_class_candidates, classify, cup_1cocycles, klein_four,
            projection_sign_cocycle,
        )
        K4 = klein_four()
        a, b = projection_sign_cocycle(K4, 0), projection_sign_cocycle(K4, 1)
        tau = cup_1cocycles([b, b, b, a])
        assert classify(tau, builtin_class_candidates(K4, 4)) == (True, False, ("b^3 . a",))
        Z4 = FiniteGroup.cyclic(4)
        cm = CrossedModule(Z4, Z4, GroupHom(Z4, Z4, (0, 2, 0, 2)), ActionTable.trivial(Z4, Z4))
        assert len(postnikov3(cm, all_sections(cm))) == 4
        print(sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "fractions", "decimal")))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_generates_no_code():
    """Importing the CLI loads every anomalion module and neither
    dataclasses nor inspect, so no code is generated at start-up; this runs
    in a subprocess because the test helpers import dataclasses here."""
    code = "import json, sys; import anomalion.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "dataclasses" not in loaded and "inspect" not in loaded
    package = {f"anomalion.{path.stem}" for path in (ROOT / "src" / "anomalion").glob("*.py")}
    assert package - {"anomalion.__init__"} <= loaded


def test_reproduce_ccz_script_runs_from_a_checkout(tmp_path):
    """scripts/reproduce_ccz.py imports the package from the src directory
    next to it, so its documented command needs no installed package."""
    report = tmp_path / "r.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_ccz.py"), "--check-gauge", "1", "--report", str(report)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["matched_class"] == "b^3 . a"
