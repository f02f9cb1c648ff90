"""The CLI's output bytes and propagation counts on the benchmark's input
shapes, pinned.

The smoke inputs of each benchmark workload are drawn at one seed. A cube
bundle is stitched at --cl-avg -1 and at --cl-avg 0; the monolithic proof,
or the untrimmed stitch, is then checked, trimmed with --emit-core, and its
trimmed proof checked. Every file written is pinned by its sha256, and each
``propagations=`` value printed by its number. The hints combine_all carries
at both --cl-avg values, which no file holds and which two different sets
can give equal propagation counts from, are pinned by the sha256 of their
repr. A change to the replay
engine, the trimmer, the stitcher or the writers that is meant to keep
every output must keep these; one that changes an output on purpose
updates the pins and says why.
"""

import hashlib

import pytest

import dratstitch
from dratstitch.cli import main

from helpers import bench_workloads

SEED = 1

PINNED = {
    "mono-deletions": {
        "check propagations": 269,
        "trimmed": "23d2fce52a5f7a8c3be55a7b14389763830690fcc71edc084568eb75718d60a7",
        "core": "b4f040baf6eaeb1a25882a785a239cbf1720e28429236b76cbdb6a4fa42a5780",
        "check trimmed propagations": 270,
    },
    "stitch-trim": {
        "stitched -1": "6a31e2fb3e7b9444f53f9ebea31937898ec7fb0e316a0e182e77eed6447c7ce1",
        "stitch -1 verify propagations": 283,
        "stitched 0": "b8bfda6e52d094a49acb9ffdab9e39d13e534133e8f1134c5cd522faf2d52338",
        "stitch 0 verify propagations": 271,
        "hints -1": "58ef338e74f0745ced0d317309c8b19de839db3128f91ee03e2462cd0ef79106",
        "hints 0": "8689b15966c5499d460067a67bbfbc3f21145328da471b09c11a79e662f42de3",
        "check propagations": 515,
        "trimmed": "31a5db2a61294f8c9acdbc36a5c78e65aacfa46eb0b9dc9bdbcc295ce142d4ec",
        "core": "f618722fdb380af137965b1f0acb285a2223f50517987a67b7447383d175b609",
        "check trimmed propagations": 488,
    },
    "stitch-verify": {
        "stitched -1": "14b6ed4365e80ee44d69bace494bbc79b33c140887f8cc3524f6625a91811cab",
        "stitch -1 verify propagations": 367,
        "stitched 0": "6154441cec87618133443d1c09c762eafc5b1e993e924765a11b125c380d6dcd",
        "stitch 0 verify propagations": 277,
        "hints -1": "bdffeaa736439b12f52f6973749a85396aa9f3c8c2ab61f312a825f4a9384837",
        "hints 0": "1a948de2e836dea62b5b80ee2c6240f321c69ba3495d8901334ef3dbcc9c891f",
        "check propagations": 829,
        "trimmed": "eebbafae708e9aa2868cc93b70658f8f0fb014183f94089db024dc7d7acd30e9",
        "core": "34fae38400969eb6417c54300a9b7920737d858aedf59205ba7b192dd7dcbe70",
        "check trimmed propagations": 576,
    },
}


def _propagations(text):
    """The propagations= value of the one line of text that has it."""
    (value,) = [
        field.split("=", 1)[1]
        for line in text.splitlines()
        for field in line.split()
        if field.startswith("propagations=")
    ]
    return int(value)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(directory, workload, capsys):
    """{what: sha256 or propagations} for one workload's smoke inputs."""
    inputs = bench_workloads().build_inputs(dratstitch, workload, SEED, directory, smoke=True)
    cnf = str(inputs.cnf)
    got = {}

    def run(argv):
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out

    proof = inputs.proofs
    if workload.stitch_args is not None:
        bundle = dratstitch.load_bundle(cnf, proof)
        tree = dratstitch.build_cube_tree(bundle)
        for cl_avg in (-1, 0):
            out = directory / ("stitched%d.drat" % cl_avg)
            text = run(["stitch", "--cl-avg", cl_avg, "--cnf", cnf, "--proofs", proof, "-o", out])
            got["stitched %d" % cl_avg] = _sha(out)
            got["stitch %d verify propagations" % cl_avg] = _propagations(text)
            hints = dratstitch.combine_all(bundle.instance, tree, cl_avg=cl_avg).hints
            got["hints %d" % cl_avg] = hashlib.sha256(repr(hints).encode()).hexdigest()
        proof = directory / "stitched-1.drat"
    got["check propagations"] = _propagations(run(["check", cnf, proof]))
    trimmed, core = directory / "trimmed.drat", directory / "core.cnf"
    run(["trim", cnf, proof, "-o", trimmed, "--emit-core", core])
    got["trimmed"] = _sha(trimmed)
    got["core"] = _sha(core)
    got["check trimmed propagations"] = _propagations(run(["check", cnf, trimmed]))
    return got


@pytest.mark.parametrize("name", sorted(bench_workloads().WORKLOADS))
def test_outputs_match_their_pinned_digests(tmp_path, capsys, name):
    workload = bench_workloads().WORKLOADS[name]
    assert _outputs(tmp_path, workload, capsys) == PINNED[name]
