"""The benchmark tracer's layer names must keep resolving in the program.

``perfbench/tracer.py`` finds each traced layer by function name among the
loaded ``councilnet`` modules and needs exactly one object per name.  A layer
that is removed, renamed or defined twice would otherwise fail only a traced
benchmark run.  ``phase1.node_states`` is why ``node_states`` stays in the
library although the simulator never calls it: ``BENCHMARK.json`` names the
layer's metrics, and dropping it belongs with a change to the benchmark.

The tracer also reads counts off some layers' return values
(``RESULT_COUNTS``), such as the backbone's ``.size``; a return type that
lost what a count reads would otherwise fail only a traced benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import formation_oracle as oracle
import councilnet
from councilnet import phase1, shamir, sim
from councilnet.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_names_one_program_object():
    for info in pkgutil.iter_modules(councilnet.__path__):
        importlib.import_module(f"councilnet.{info.name}")
    tracer = load_tracer()
    assert "phase1.node_states" in tracer.LAYERS
    for layer, name in tracer.LAYERS.items():
        obj = tracer.program_attr(name)
        assert callable(obj), layer
        assert obj.__module__.split(".")[0] == "councilnet", layer



def test_every_result_count_reads_its_layer_result():
    tracer_module = load_tracer()
    sc = load_scenario(ROOT / "scenarios" / "mobile_demo.json")
    tracer = tracer_module.Tracer()
    topologies = {}
    with tracer:
        tracer.round = 0
        state = sim.initialize(sc)
        topologies[0] = state.topology
        while state.round < sc.rounds and not state.halted:
            tracer.round = state.round + 1
            sim.step(state)
            topologies[state.round] = state.topology
        # The simulator builds no HELLO table, and a ledger refresh calls the
        # blinding kernel directly, so these two layers are called here,
        # through their wrappers, in a round of their own.
        tracer.round = extra = sc.rounds + 1
        phase1.node_states(state.topology)
        shares = shamir.split_secret(6, 2, [1, 2, 3], seed=9, prime=13)
        shamir.refresh_shares(shares, 2, seed=4, prime=13)
    assert list(topologies) == list(range(sc.rounds + 1))
    assert tracer.counts[extra]["phase1.hello_messages"] == len(state.topology.nodes)
    assert tracer.counts[extra]["shamir.shares_refreshed"] == 3
    counted = set().union(*tracer.counts.values())
    for layer, counts in tracer_module.RESULT_COUNTS.items():
        assert tracer.layer_times([*topologies, extra])[layer]["calls"], layer
        assert set(counts) <= counted, layer
    # Each formation's count is its backbone's size, by the oracle's chain.
    formed = []
    for rnd, t in topologies.items():
        if tracer.layer_times([rnd])["phase1.build_dominating_set"]["calls"]:
            roles = oracle.identify_gateways(t, oracle.elect_heads(t))
            assert tracer.counts[rnd]["phase1.backbone_size"] == oracle.build_dominating_set(roles).size
            formed.append(rnd)
    assert formed[:1] == [0]
