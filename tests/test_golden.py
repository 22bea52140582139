"""Golden outputs: SHA-256 of every file small `run`, `sweep` and `gen-network`
invocations write.

The hashes were recorded from the program before the sweep path was
consolidated, and the snapshot hashes before `run --snapshot` shared one
graph among the members; a refactor that keeps them keeps every trace, row and summary
byte-identical. The ``run-color_flip`` and ``run-random`` hashes, the only
cases that start from another initial coloring, were recorded from the
node-by-node coloring sweeps. The ``gen-network`` hashes were recorded from
the tuple-set layers that preceded the array form, and the ``sweep-tau-q``
hashes when each of its cells still ran its own ensemble. The
``run-attacker-first`` hashes, the only case in which the attacker acts
before the defender in each step, were recorded while the engine still kept
each agent's phase in an array of its own, before it derived the phase from
the step its node was compromised. The
``SYNTHETIC`` hashes of the benchmark-scale networks were recorded from the
node-by-node preferential-attachment loop, before runs of nodes drew their
targets in one call. A deliberate output change has to re-record them and say
why.
"""
import hashlib

import numpy as np
import pytest

from diversim import generate_synthetic_network
from diversim.cli import main

CONFIG = """\
network:
  synthetic: {{n_layer1: 40, n_layer2: 38, overlap_fraction: 0.5, attachment_degree: 2, seed: 3}}
diversity: {{x: 4, initial_algo: {algo}}}
attacker: {{m3: 2, m4: 4, ini_comp: 3, scale_with_q: {scale}}}
defender:
  strategy: [{strategies}]
  tau: 0.3
  eta1: 0.5
  eta2: 0.25
  fpr: 0.1
  fnr: 0.1
run: {{t_max: 30, runs: 3, seed: 5{run}}}
"""

FAMILY = "static, proactive, reactive, hybrid"

# (case id, strategies, scale_with_q, argv after the config/out options)
CASES = [
    ("run-family", FAMILY + ", monoculture", "true", ["run"]),
    ("sweep-tau", FAMILY, "true", ["sweep", "--sweep", "tau=0.1:0.5:0.1"]),
    ("sweep-q-scaled", FAMILY, "true", ["sweep", "--sweep", "q=0:1:0.25"]),
    ("sweep-q-fixed", FAMILY, "false", ["sweep", "--sweep", "q=0:1:0.25"]),
    ("sweep-budget", FAMILY, "true", ["sweep", "--sweep", "budget=0:8:2"]),
    ("sweep-x", FAMILY, "true", ["sweep", "--sweep", "x=2:6:2"]),
    ("sweep-m3", FAMILY, "true", ["sweep", "--sweep", "m3=0:2:1"]),
    ("sweep-m4", FAMILY, "true", ["sweep", "--sweep", "m4=0:4:2"]),
    ("sweep-ini-comp", FAMILY, "true", ["sweep", "--sweep", "ini_comp=1:5:2"]),
    ("sweep-eta2", "proactive, hybrid", "true", ["sweep", "--sweep", "eta2=0.2:0.5:0.15"]),
    ("sweep-fpr", "reactive, hybrid", "true", ["sweep", "--sweep", "fpr=0:0.2:0.1"]),
    ("sweep-q-ini-comp", FAMILY, "true",
     ["sweep", "--sweep", "q=0.5:1:0.5", "--sweep", "ini_comp=1:3:2"]),
    ("sweep-tau-q", FAMILY, "true",
     ["sweep", "--sweep", "tau=0.1:0.5:0.2", "--sweep", "q=0.5:1:0.5"]),
]

GOLDEN = {
    "run-family": {
        "summary.csv": "712e2d3288b708922be195e68f65acd41261f64153b27bd7fc396a905b30e024",
        "trace_hybrid.csv": "0c00af635978eb1c61f53967577b28a2ad23ba99a9c47a63cb5a45e9b3cc99dc",
        "trace_monoculture.csv": "80d45e01844708db337a3bb474bce3249dd53a446f41b703ece3b310f044c658",
        "trace_proactive.csv": "fddf61b7235712b03b59f9c589af5ed3b0ab97a3737052ceacb632119b594392",
        "trace_reactive.csv": "f3e7cc1dfcd59b413adb16dccd9abeee981384cff77e01c17d0dee68fda047d9",
        "trace_static.csv": "6c0db89d7777183576bfa93b483b1348ffd4522cec93e670846149e319de02b1",
    },
    "sweep-tau": {
        "summary.csv": "a47daa27552b8b619c8012d2bd7ff2271efccea1461fab053c114a70cce7bff4",
        "sweep.csv": "47f223b5dfb2d9ac6b84a089232a5d88fec8c0696173443794fbd26a888ab9e2",
    },
    "sweep-q-scaled": {
        "summary.csv": "f5cdd572f3ed7b54855a12f8a3e9930c163c72b068cef5f50e8085a386d21dc7",
        "sweep.csv": "5ffd09959b3c8c13d8f1250e9f7bddfc8546ab0da84ae7d9a8b11627c1fae06a",
    },
    "sweep-q-fixed": {
        "summary.csv": "bbe61ad583f65e75fbe61a5f23749248b59de27dbbb4a3652b1088f8a4b9e3db",
        "sweep.csv": "173a637417dc1f179bf9be5ab97bd2ee27488a6ba3c63831645178638d88af38",
    },
    "sweep-budget": {
        "summary.csv": "29106b76296457e22d266e2521e50444a59fdbc4a7232ec5525611b2114bfee2",
        "sweep.csv": "09c84b9d00b89d930d834c736b42588bc3ca682d474e1931e7ced9c83526ecab",
    },
    "sweep-x": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "5dac2d06dfefee19aaac196b579e5a65c6d7d49369b751d02daeb657b01f7e88",
    },
    "sweep-m3": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "56f366a3dc24ff8b12a9b237570e8a24fbdc0525e33e218f409361c5f088fce2",
    },
    "sweep-m4": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "ecb092d82b643408fea05794bb7ab16690c90735bc392f5298b052d0a29c7358",
    },
    "sweep-ini-comp": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "da8bbf5504130bcf25e0926b696d1ce5a61fe6db342e0f17f446b25dd7632ff8",
    },
    "sweep-eta2": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "5eeafa7586251955d06bf3cab204ead7ce31210029e58320b585d21532e22b6a",
    },
    "sweep-fpr": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "a127cffecd35c47f0e31a65ddc5406c0d21d212152e62712a6d1bd480269ae71",
    },
    "sweep-q-ini-comp": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "818c30915468ac979d1cb3d2bd000df844a1c3e241a3e38f3829a583ab013454",
    },
    "sweep-tau-q": {
        "summary.csv": "03338c62e304f4e855fdab93e07fd34f71664579b05251ecd166ae5c6eede4a3",
        "sweep.csv": "36c9174596456b0ec4bd4bac84e1fea0ba4bcd3d292b32e7c0d4544200a11131",
    },
    "run-color_flip": {
        "summary.csv": "ae1af29485ea1afa3305c5946adbac6f2576a63af683d5ce23930f2c25a824b7",
        "trace_hybrid.csv": "f2c737d8b19a124787703984eaee6b0de0201459f414c018b521bdd0ae36c7cf",
        "trace_proactive.csv": "75e560cf3c1da650beb01a080a8d6df714d5fcd70f30453e8a2a7432e683164e",
        "trace_reactive.csv": "564e8641a8ac7bdfbb569a801049f6fdf507faa1eeda79df122ddf54985a4440",
        "trace_static.csv": "adf41e2e45bb784dac7bd3b9b98f7ab6e13c30e146497745bbcb6d4ced4f5d06",
    },
    "run-attacker-first": {
        "summary.csv": "fd612cba1cfa290a535f5bd03a8bf410157ee06a48410e4258e0366abbd43a0a",
        "trace_hybrid.csv": "0f5e5ea4a42cfd4c5bda1c5de90b575ae0f770746b88ecbd9d690208669dcb22",
        "trace_proactive.csv": "252dc6964ca5cca4d875069bfdfeff91f9695b596a7c64df62fa795d2fd41908",
        "trace_reactive.csv": "f3e7cc1dfcd59b413adb16dccd9abeee981384cff77e01c17d0dee68fda047d9",
        "trace_static.csv": "6c0db89d7777183576bfa93b483b1348ffd4522cec93e670846149e319de02b1",
    },
    "run-random": {
        "summary.csv": "dae2a1e97f50aa977fb2dd8bd8a6e511cd65b76e156bd31abf9a9ccbe6ca297b",
        "trace_hybrid.csv": "38d8078ff36e8d96344217f83c00c16de8244d8dcc2791b8a5900bacaecf5ceb",
        "trace_proactive.csv": "013750bb2708fedc1bd90a10950fc4cedac294c84a20747eb17213eb7f6f05a9",
        "trace_reactive.csv": "e0f8fdb787102c1a651919a5db719a216d0c9eaa3eb51c5658e7182ca33727ca",
        "trace_static.csv": "59ff983ff248b5257ba982096176928040645d987399c67889184a1ed627bcfb",
    },
}

# the per-node snapshots `run --snapshot` adds to the run-family outputs
SNAPSHOTS = {
    "snapshot_hybrid.csv": "8f6b2d4bcf711984cb20ef6b99d0e01b5a7bdbb8bbb845def0691b1fda64b355",
    "snapshot_monoculture.csv": "8c1b2574a8e0cc3c26e37a516ab8decd2cc4613780e321012e8bbf910de54c6c",
    "snapshot_proactive.csv": "d66b30bddfcb0b3a9ca2282343cd6c4ae03cbb785df63cd87bcde5610fbe38ee",
    "snapshot_reactive.csv": "d61815bae5eb6536214b42a434f9d1d7b17bfdacaa17339c9a2036d58c95b5dd",
    "snapshot_static.csv": "706760d771f4cd51fc58c7c68b3f56f3767b33d1008126da22966803315b1797",
}

GEN_NETWORK = {
    "layer1.edges": "be6888a209df44af37151ff713d12cb1f7bd7ba8baa0dbfde19fccbcc04388d4",
    "layer2.edges": "034c6a73849f418867e918a6161b4e6749010e826af353cf9d0328685186fab4",
    "users.txt": "27d51128b0cbe1da673c3723f01b365e1e61aceefe463453c5fd4ccf50c7b655",
}

# SHA-256 of the little-endian int64 bytes of each layer's edges and
# participants, by generate_synthetic_network arguments: the paper-scale
# network (attachment 3) and the dense reference network (attachment 22)
SYNTHETIC = {
    (5702, 5540, 0.887545, 3, 7): {
        "layer1.edges": "3235ed80122ee813ef270adb4e7f5c41c35a0aa3bc9f1e055a3f6b78ba0d840e",
        "layer1.participants": "0c10fdad71975a6f9eb120ce8fff45635dfe42cf0aaa7df50e5d256c96a01184",
        "layer2.edges": "a5be59a26ee407f38c4b1cf0517510a9dfe53a89098934c2333d3b356dbfa68c",
        "layer2.participants": "b3706a5605135ce3c8cc1f209cf45207310b7d333f51142d7d5973910b2956ec",
    },
    (545, 530, 0.887, 22, 7): {
        "layer1.edges": "086fe76c62ca14fc6344fc103ece0b4d58d7befa3ec57d660dff3f408f98f09c",
        "layer1.participants": "b27c83bcef13e832d7e3028088bff460a4923e87069f85828809f58f2597b55d",
        "layer2.edges": "8fb2b9c73c7f54a379c12a5204ff443d771ae434c9dc6c9e6c963303b19ee28c",
        "layer2.participants": "04250e439b70b38a7031100e646b961cefe216fba00c16e90680cab1b3547a4c",
    },
}


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def outputs(tmp_path, strategies, scale, argv, jobs, algo="degree_priority", run=""):
    """SHA-256 of every file one invocation writes, by file name; ``run``
    extends the scenario's ``run:`` mapping."""
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(CONFIG.format(strategies=strategies, scale=scale, algo=algo, run=run))
    out = tmp_path / "out"
    command, rest = argv[0], argv[1:]
    code = main([command, "--config", str(cfg), "--out", str(out), "--jobs", str(jobs), *rest])
    assert code == 0
    return digests(out)


@pytest.mark.parametrize("case,strategies,scale,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(tmp_path, case, strategies, scale, argv):
    assert outputs(tmp_path, strategies, scale, argv, jobs=1) == GOLDEN[case]


def test_golden_run_family_with_two_jobs(tmp_path):
    # the process-pool path of monte_carlo must write the same bytes
    case, strategies, scale, argv = CASES[0]
    assert outputs(tmp_path, strategies, scale, argv, jobs=2) == GOLDEN[case]


def test_golden_sweep_tau_q_with_two_jobs(tmp_path):
    # cells that differ only in tau share one ensemble of the process-pool path
    case, strategies, scale, argv = CASES[-1]
    assert outputs(tmp_path, strategies, scale, argv, jobs=2) == GOLDEN[case]


def test_golden_run_family_with_snapshots(tmp_path):
    case, strategies, scale, argv = CASES[0]
    got = outputs(tmp_path, strategies, scale, argv + ["--snapshot"], jobs=1)
    assert got == {**GOLDEN[case], **SNAPSHOTS}


@pytest.mark.parametrize("algo,jobs", [("color_flip", 1), ("random", 1), ("color_flip", 2), ("random", 2)],
                         ids=["color_flip", "random", "color_flip-jobs2", "random-jobs2"])
def test_golden_run_family_with_other_initial_colorings(tmp_path, algo, jobs):
    # every other case starts from the degree-priority coloring; at two jobs a
    # worker draws the coloring of each ensemble's second chunk
    assert outputs(tmp_path, FAMILY, "true", ["run"], jobs=jobs, algo=algo) == GOLDEN[f"run-{algo}"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_run_family_attacker_first(tmp_path, jobs):
    # every other case lets the defender act first in each step
    got = outputs(tmp_path, FAMILY, "true", ["run"], jobs=jobs, run=", defender_first: false")
    assert got == GOLDEN["run-attacker-first"]


def test_golden_gen_network(tmp_path):
    out = tmp_path / "net"
    argv = ["--n1", "40", "--n2", "38", "--overlap", "0.5", "--attachment", "2", "--seed", "3"]
    assert main(["gen-network", "--out", str(out), *argv]) == 0
    assert digests(out) == GEN_NETWORK


@pytest.mark.parametrize("args", list(SYNTHETIC), ids=["paper-sparse", "ref-dense"])
def test_golden_synthetic_networks(args):
    layers = generate_synthetic_network(*args)
    got = {
        f"layer{j}.{name}": hashlib.sha256(
            np.ascontiguousarray(getattr(layer, name), dtype="<i8").tobytes()).hexdigest()
        for j, layer in enumerate(layers, start=1)
        for name in ("edges", "participants")
    }
    assert got == SYNTHETIC[args]
