import json
import os
from pathlib import Path

import pytest

from councilnet.cli import main
from councilnet.errors import ValidationError
from councilnet.ledger import ClusterLedger
from councilnet.shamir import DEFAULT_PRIME
from councilnet.sim import scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_form_prints_partition(capsys):
    code = main(["form", "--scenario", str(SCENARIOS / "two_cluster_seven.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "cluster 1: council={1,3,5} members={2} gateways={4} (n=3, k=2)" in out
    assert "cluster 6: council={6} members={7} gateways={} (n=1, k=1)" in out


def test_form_splits_no_secret(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("form split a secret")

    monkeypatch.setattr(ClusterLedger, "split", refuse)
    code = main(["form", "--scenario", str(SCENARIOS / "two_cluster_seven.json")])
    assert code == 0
    assert capsys.readouterr().out == (
        "cluster 1: council={1,3,5} members={2} gateways={4} (n=3, k=2)\n"
        "cluster 6: council={6} members={7} gateways={} (n=1, k=1)\n"
    )


# --seed and --prime reach only the share ledgers, which form does not build.
@pytest.mark.parametrize("flag", ["--seed", "--prime"])
def test_form_takes_no_seed_or_prime(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["form", "--scenario", str(SCENARIOS / "two_cluster_seven.json"), flag, "11"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_writes_metrics_and_state(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    state = tmp_path / "state.json"
    code = main(
        [
            "simulate",
            "--scenario",
            str(SCENARIOS / "two_cluster_seven.json"),
            "--out",
            str(out),
            "--state-out",
            str(state),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("round,cluster_count,mean_council")
    assert json.loads(state.read_text())["round"] == 10


def test_audit_reads_state_dump(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    state = tmp_path / "state.json"
    scenario = tmp_path / "sc.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 7,
                "rounds": 5,
                "field_prime": 13,
                "adversary": {"compromise_round": 2, "nodes": [1]},
                "nodes": [{"nid": n} for n in range(1, 8)],
                "edges": [[1, 2], [1, 3], [1, 5], [3, 5], [4, 5], [4, 6], [4, 7], [6, 7]],
            }
        )
    )
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--state-out", str(state)]) == 0
    capsys.readouterr()
    code = main(["audit", "--state", str(state)])
    captured = capsys.readouterr()
    assert code == 0
    assert "cluster 1: adversary holds 1 of k=2 shares -> safe" in captured.out


def test_audit_of_the_mobile_demo_dump_prints_each_entry(tmp_path, capsys):
    state = tmp_path / "state.json"
    argv = ["simulate", "--scenario", str(SCENARIOS / "mobile_demo.json"), "--out", str(tmp_path / "m.csv")]
    assert main([*argv, "--state-out", str(state)]) == 0
    capsys.readouterr()
    assert main(["audit", "--state", str(state)]) == 0
    assert capsys.readouterr().out == (
        "cluster 1: adversary holds 1 of k=2 shares -> safe consistent_secrets=13\n"
        "cluster 5: adversary holds 0 of k=1 shares -> safe consistent_secrets=13\n"
    )


def test_shares_split_and_reconstruct_round_trip(capsys):
    assert main(["shares", "split", "--secret", "6", "--n", "3", "--prime", "13", "--seed", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k=2 prime=13"
    points = out[1:]
    assert points == ["1:0", "2:7", "3:1"]
    code = main(
        ["shares", "reconstruct", "--share", points[0], "--share", points[2], "--k", "2", "--prime", "13"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"


def test_missing_scenario_is_an_input_error(tmp_path, capsys):
    code = main(["form", "--scenario", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# Files the JSON reader cannot decode: not UTF-8, nested deeper than the
# decoder recurses, and an integer over the int-to-str digit limit.
UNDECODABLE = [b'\xff\xfe{"nodes": []}', b"[" * 200000, b"1" * 5000]


@pytest.mark.parametrize("raw", UNDECODABLE, ids=["not-utf8", "too-deep", "too-many-digits"])
@pytest.mark.parametrize("verb", ["form", "simulate", "audit"])
def test_undecodable_input_file_is_an_input_error(verb, raw, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    if verb == "audit":
        argv = ["audit", "--state", str(path)]
    else:
        argv = [verb, "--scenario", str(path)]
        if verb == "simulate":
            argv += ["--out", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag", ["--out", "--state-out"])
def test_unwritable_output_path_is_an_input_error(flag, tmp_path, capsys):
    outputs = {"--out": str(tmp_path / "m.csv"), "--state-out": str(tmp_path / "s.json")}
    outputs[flag] = str(tmp_path / "missing-dir" / "out")
    argv = ["simulate", "--scenario", str(SCENARIOS / "two_cluster_seven.json")]
    for name, path in outputs.items():
        argv += [name, path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ")
    assert "missing-dir" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_state_path_leaves_no_metrics(tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["simulate", "--scenario", str(SCENARIOS / "mobile_demo.json"), "--out", str(out)]
    argv += ["--state-out", str(tmp_path / "nodir" / "s.json")]
    assert main(argv) == 2
    assert "nodir" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spelling, existing",
    # new paths compare resolved; existing ones as os.path.samefile does
    [("same", False), ("symlink", False), ("dotted", True), ("hardlink", True)],
)
def test_state_dump_onto_the_metrics_file_is_refused(spelling, existing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if existing:
        Path("m.csv").write_text("kept\n")
    if spelling == "symlink":
        Path("other.csv").symlink_to("m.csv")
    if spelling == "hardlink":
        os.link("m.csv", "other.csv")
    state = {"same": "m.csv", "dotted": "./m.csv"}.get(spelling, "other.csv")
    argv = ["simulate", "--scenario", str(SCENARIOS / "two_cluster_seven.json"), "--out", "m.csv"]
    assert main(argv + ["--state-out", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert "Traceback" not in captured.err
    if existing:
        assert Path("m.csv").read_text() == "kept\n"
    else:
        assert not Path("m.csv").exists()


@pytest.mark.parametrize("kind", ["directory", "file-as-folder"])
def test_output_that_is_or_sits_in_a_non_directory_is_refused(kind, tmp_path, capsys):
    blocker = tmp_path / "taken"
    if kind == "directory":
        blocker.mkdir()
        target = blocker
    else:
        blocker.write_text("")
        target = blocker / "m.csv"
    argv = ["simulate", "--scenario", str(SCENARIOS / "two_cluster_seven.json"), "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_invalid_scenario_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radius": 1.0, "nodes": []}))
    assert main(["form", "--scenario", str(bad)]) == 2


def test_halted_run_exits_nonzero(tmp_path, capsys):
    scenario = tmp_path / "strand.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 1,
                "rounds": 6,
                "radius": 1.0,
                "nodes": [
                    {"nid": 1, "pos": [0.0, 0.0]},
                    {"nid": 2, "pos": [0.5, 0.0], "waypoints": [[9.0, 0.0]], "speed": 10.0},
                ],
            }
        )
    )
    out = tmp_path / "m.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "partial" in captured.err
    assert out.exists()  # partial metrics still written


def test_seed_override_applies(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["simulate", "--scenario", str(SCENARIOS / "two_cluster_seven.json")]
    assert main(base + ["--out", str(out_a), "--seed", "123"]) == 0
    assert main(base + ["--out", str(out_b), "--seed", "123"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# two_cluster_seven.json numbers its nodes 1..7, so 7 is a prime the ids reach.
# 318665857834031151167461 is a composite that passes Miller-Rabin to all
# twelve bases 2..37, and 2**64 + 13 a prime past the bound where they are exact.
@pytest.mark.parametrize("prime", [9, 15, 7, 1, -13, 318665857834031151167461, 2**64 + 13])
@pytest.mark.parametrize("verb", ["simulate"])
def test_prime_override_is_checked_like_field_prime(verb, prime, tmp_path, capsys):
    args = [verb, "--scenario", str(SCENARIOS / "two_cluster_seven.json"), "--prime", str(prime)]
    args += ["--out", str(tmp_path / "m.csv"), "--state-out", str(tmp_path / "s.json")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--prime must" in captured.err
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "s.json").exists()


def test_prime_override_above_every_node_id_applies(tmp_path):
    state = tmp_path / "s.json"
    args = ["simulate", "--scenario", str(SCENARIOS / "two_cluster_seven.json"), "--prime", "11"]
    assert main(args + ["--out", str(tmp_path / "m.csv"), "--state-out", str(state)]) == 0
    assert json.loads(state.read_text())["prime"] == 11
    assert main(["audit", "--state", str(state)]) == 0


MOBILE_PAIR = {
    "radius": 1.0,
    "nodes": [{"nid": 1, "pos": [0.0, 0.0]}, {"nid": 2, "pos": [0.5, 0.0]}],
}
STATIC_PAIR = {"nodes": [{"nid": 1}, {"nid": 2}], "edges": [[1, 2]]}


def with_node_field(base, **field):
    nodes = [dict(base["nodes"][0], **field)] + base["nodes"][1:]
    return dict(base, nodes=nodes)


@pytest.mark.parametrize(
    "scenario",
    [
        dict(STATIC_PAIR, adversary={"compromise_round": 1, "nodes": 5}),
        dict(STATIC_PAIR, adversary={"compromise_round": 0, "nodes": [1]}),
        with_node_field(MOBILE_PAIR, speed="fast"),
        dict(MOBILE_PAIR, radius="x"),
        dict(MOBILE_PAIR, radius=float("nan")),
        dict(MOBILE_PAIR, gateway_threshold="x"),
        with_node_field(MOBILE_PAIR, waypoints=3),
        dict(STATIC_PAIR, edges=[[[1], [2]]]),
        with_node_field(STATIC_PAIR, nid=True),
        with_node_field(MOBILE_PAIR, pos=[1e200, 0.0]),
        with_node_field(MOBILE_PAIR, waypoints=[[0.0, -1e151]], speed=1.0),
        dict(MOBILE_PAIR, radius=1e300),
        dict(STATIC_PAIR, nodes=[{"nid": 1}, {"nid": 2, "waypoints": [[5, 5]], "speed": 1.0}]),
        with_node_field(STATIC_PAIR, speed=1.0),
        with_node_field(STATIC_PAIR, waypoints=[[5, 5]]),
        dict(STATIC_PAIR, refresh_interval=2),
        with_node_field(MOBILE_PAIR, sped=3.0, waypoints=[[1.0, 0.0]]),
        dict(STATIC_PAIR, adversary={"compromise_round": 1, "nodes": [1], "round": 2}),
    ],
    ids=[
        "adversary-nodes-int",
        "compromise-round-0",
        "speed-string",
        "radius-string",
        "radius-nan",
        "gateway-threshold-string",
        "waypoints-int",
        "edge-ids-lists",
        "nid-bool",
        "pos-beyond-1e150",
        "waypoint-beyond-1e150",
        "radius-beyond-1e150",
        "edge-list-mover",
        "edge-list-speed",
        "edge-list-waypoints",
        "unknown-top-level-key",
        "unknown-node-key",
        "unknown-adversary-key",
    ],
)
def test_malformed_scenario_field_is_an_input_error(scenario, tmp_path, capsys):
    with pytest.raises(ValidationError):
        scenario_from_dict(scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["form", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


SPLIT = ["shares", "split", "--secret", "6", "--n", "3", "--prime", "13"]
RECONSTRUCT = ["shares", "reconstruct", "--share", "1:5", "--prime", "13"]


# split's k must lie in 1..n, and either command's k must be at least 1
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([*SPLIT, "--k", "0"], id="0"),
        pytest.param([*SPLIT, "--k", "5"], id="5"),
        pytest.param([*RECONSTRUCT, "--k", "0"], id="reconstruct-0"),
        pytest.param([*RECONSTRUCT, "--k", "-1"], id="reconstruct--1"),
    ],
)
def test_split_threshold_outside_one_to_n_is_an_input_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_split_secret_outside_the_field_is_an_input_error(capsys):
    assert main(["shares", "split", "--secret", "20", "--n", "3", "--prime", "13"]) == 2
    assert "error:" in capsys.readouterr().err


def test_split_reports_a_bad_threshold_before_a_bad_secret(capsys):
    assert main(["shares", "split", "--secret", "20", "--n", "3", "--k", "5", "--prime", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: threshold k=5 must be an integer in 1..3\n"


# a council size below 1 is named before any --k is read
@pytest.mark.parametrize("n, k", [("-3", None), ("0", "1"), ("-3", "2")])
def test_split_reports_a_bad_council_size_before_its_threshold(n, k, capsys):
    argv = ["shares", "split", "--secret", "6", "--n", n, "--prime", "13"]
    assert main(argv if k is None else [*argv, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: council size must be an integer >= 1, got {n}\n"


def test_reconstruct_rejects_a_composite_modulus(capsys):
    args = ["shares", "reconstruct", "--share", "1:2", "--share", "2:3", "--k", "2", "--prime", "15"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prime" in captured.err


def test_split_rejects_a_strong_pseudoprime_modulus(capsys):
    args = ["shares", "split", "--secret", "6", "--n", "3", "--prime", "318665857834031151167461"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--prime must be a prime number below 2**64" in captured.err


# a share read from the command line must lie in GF(13): x in 1..12, y in 0..12
@pytest.mark.parametrize("share", ["14:5", "-12:5", "0:5", "1:-5", "1:30", "1:13"])
def test_reconstruct_share_outside_the_field_is_an_input_error(share, capsys):
    args = ["shares", "reconstruct", f"--share={share}", "--share", "2:3", "--k", "2", "--prime", "13"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# an adversary share row with k = 3 in a k = 2 cluster, and one over GF(11)
# in a GF(13) dump
K_MISMATCH = {
    "prime": 13,
    "clusters": [{"cluster_id": 1, "k": 2, "epoch": 0, "adversary_shares": [[1, 5, 3, 0, 13]]}],
}
PRIME_MISMATCH = {
    "prime": 13,
    "clusters": [{"cluster_id": 1, "k": 2, "epoch": 0, "adversary_shares": [[1, 5, 2, 0, 11]]}],
}


def gf13_dump(k=2, rows=(), prime=13, epoch=0, row_epoch=0, secret=None):
    """One cluster with the given adversary (x, y) rows, and the given
    secret unless it is None."""
    held = [[x, y, k, row_epoch, prime] for x, y in rows]
    cluster = {"cluster_id": 1, "k": k, "epoch": epoch, "adversary_shares": held}
    if secret is not None:
        cluster["secret"] = secret
    return {"prime": prime, "clusters": [cluster]}


# Two rows at k = 2: a breach at epoch 0, which a mistyped epoch would hide.
# They lie on f(x) = 3 + 2x, so they reconstruct the secret 3.
BREACH_ROWS = [(1, 5), (2, 7)]


@pytest.mark.parametrize(
    "payload",
    [
        {"clusters": [{"cluster_id": 1}]},
        [1, 2],
        K_MISMATCH,
        {},
        {"prime": 13},
        {"clusters": []},
        PRIME_MISMATCH,
        gf13_dump(k=0),
        gf13_dump(k=True),
        gf13_dump(prime=12),
        gf13_dump(rows=[(0, 5)]),
        gf13_dump(rows=[(14, 5)]),
        gf13_dump(rows=[(1, 13)]),
        gf13_dump(k=3, rows=[(1, 5), (1, 5)]),
        gf13_dump(k=3, rows=[(1, 5), (1, 6)]),
        gf13_dump(rows=BREACH_ROWS, epoch="0"),
        gf13_dump(rows=BREACH_ROWS, row_epoch="0"),
        gf13_dump(rows=BREACH_ROWS, epoch=-1, row_epoch=-1),
        gf13_dump(rows=BREACH_ROWS, row_epoch=-1),
        gf13_dump(rows=BREACH_ROWS, epoch=0.0),
        gf13_dump(rows=BREACH_ROWS, epoch=True, row_epoch=True),
        # a secret that is not an integer in 0..p-1 would read as a breach
        # that reconstructs the wrong secret
        gf13_dump(rows=BREACH_ROWS, secret="6"),
        gf13_dump(rows=BREACH_ROWS, secret=19),
        gf13_dump(rows=BREACH_ROWS, secret=-7),
        gf13_dump(rows=BREACH_ROWS, secret=True),
        gf13_dump(rows=BREACH_ROWS, secret=6.0),
        gf13_dump(rows=BREACH_ROWS, secret=13),
        gf13_dump(rows=BREACH_ROWS, prime=318665857834031151167461),
        gf13_dump(rows=[(1.5, 5)]),
        gf13_dump(rows=[(True, 5)]),
        gf13_dump(rows=[(1, 5.0)]),
    ],
)
def test_audit_of_a_malformed_dump_is_an_input_error(payload, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload))
    assert main(["audit", "--state", str(state)]) == 2
    assert "malformed state dump" in capsys.readouterr().err


def test_audit_reports_the_breach_that_a_mistyped_epoch_would_hide(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(gf13_dump(rows=BREACH_ROWS)))
    assert main(["audit", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert out == "cluster 1: adversary holds 2 of k=2 shares -> BREACHED consistent_secrets=1\n"


def test_audit_of_a_breach_that_reconstructs_its_secret_is_clean(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(gf13_dump(rows=BREACH_ROWS, secret=3)))
    assert main(["audit", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert out == "cluster 1: adversary holds 2 of k=2 shares -> BREACHED consistent_secrets=1\n"


def test_audit_flags_a_breach_that_disagrees_with_a_valid_secret(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(gf13_dump(rows=BREACH_ROWS, secret=6)))
    assert main(["audit", "--state", str(state)]) == 1
    assert "breached reconstruction disagrees with the secret" in capsys.readouterr().err


def test_audit_prints_the_candidate_count_at_the_default_prime(tmp_path, capsys):
    # size_ladder runs over the default prime with no adversary: every secret
    # stays possible
    metrics, state = tmp_path / "m.csv", tmp_path / "s.json"
    args = ["--scenario", str(SCENARIOS / "size_ladder.json"), "--out", str(metrics)]
    assert main(["simulate", *args, "--state-out", str(state)]) == 0
    capsys.readouterr()
    assert main(["audit", "--state", str(state)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"cluster {c}" for c in (1, 5, 8, 13)]
    assert all(line.endswith(f"-> safe consistent_secrets={DEFAULT_PRIME}") for line in lines)
