import json
from pathlib import Path

import pytest

from councilnet.cli import main
from councilnet.errors import ValidationError
from councilnet.shamir import DEFAULT_PRIME
from councilnet.sim import scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_form_prints_partition(capsys):
    code = main(["form", "--scenario", str(SCENARIOS / "two_cluster_seven.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "cluster 1: council={1,3,5} members={2} gateways={4} (n=3, k=2)" in out
    assert "cluster 6: council={6} members={7} gateways={} (n=1, k=1)" in out


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
    ],
    ids=[
        "adversary-nodes-int",
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
    ],
)
def test_malformed_scenario_field_is_an_input_error(scenario, tmp_path, capsys):
    with pytest.raises(ValidationError):
        scenario_from_dict(scenario)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["form", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "5"])
def test_split_threshold_outside_one_to_n_is_an_input_error(k, capsys):
    assert main(["shares", "split", "--secret", "6", "--n", "3", "--k", k, "--prime", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_split_secret_outside_the_field_is_an_input_error(capsys):
    assert main(["shares", "split", "--secret", "20", "--n", "3", "--prime", "13"]) == 2
    assert "error:" in capsys.readouterr().err


def test_reconstruct_rejects_a_composite_modulus(capsys):
    args = ["shares", "reconstruct", "--share", "1:2", "--share", "2:3", "--k", "2", "--prime", "15"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prime" in captured.err


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


def gf13_dump(k=2, rows=(), prime=13):
    """One cluster with the given adversary (x, y) rows at epoch 0."""
    held = [[x, y, k, 0, prime] for x, y in rows]
    return {"prime": prime, "clusters": [{"cluster_id": 1, "k": k, "epoch": 0, "adversary_shares": held}]}


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
    ],
)
def test_audit_of_a_malformed_dump_is_an_input_error(payload, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload))
    assert main(["audit", "--state", str(state)]) == 2
    assert "malformed state dump" in capsys.readouterr().err


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
