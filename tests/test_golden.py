"""Golden corpus: the stdout digest and the exit code of fixed CLI runs.

Every run reads its inputs from a fresh directory by relative name, so
the `inputs.*.path` fields embedded in stdout do not depend on where the
test runs.  A refactor that changes any byte of a report, or any exit
code, fails here.
"""

import hashlib
import json

import pytest

from proflq import cli

S4 = {"perm_generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}
A4 = {"perm_generators": [[2, 3, 1, 4], [1, 3, 4, 2]]}
MODULE = {"m": 12, "factors": [2, 6]}

INPUTS = {
    "s4.json": S4,
    # A4 -> S4 on the same 1-based permutations, in the BFS element order
    "a4_in_s4.json": {"source": A4, "target": S4,
                      "images": [0, 3, 22, 11, 5, 23, 15, 13, 14, 21, 4, 12]},
    "m.json": MODULE,
    "map.json": {"source": MODULE, "target": {"m": 12, "factors": [6]},
                 "matrix": [[0, 1]]},
    "space.json": {"base": ["a", "b", "c"],
                   "fibers": {"a": {"m": 12, "factors": [2, 6]},
                              "b": {"m": 12, "factors": [4]},
                              "c": {"m": 12, "factors": []}}},
    "st.json": {"levels": [["a"], ["a0", "a1"], ["a00", "a01", "a10"]],
                "transitions": [{"a0": "a", "a1": "a"},
                                {"a00": "a0", "a01": "a0", "a10": "a1"}]},
}
# C2 <- S3 along the sign map; S3 elements 1, 3, 4 are the transpositions
INPUTS["gt.json"] = {
    "levels": [{"catalog": "C2"}, {"perm_generators": [[2, 1, 3], [2, 3, 1]]}],
    "transitions": [[0, 1, 0, 1, 1, 0]],
}
INPUTS["sl23.json"] = {"catalog": "SL(2,3)"}
INPUTS["c2c2s3.json"] = {"catalog": "C2xC2xS3"}
INPUTS["c2x4.json"] = {"catalog": "C2xC2xC2xC2"}
# threads: the identity against a 3-cycle (both even), two transpositions
INPUTS["x_id.json"] = [0, 0]
INPUTS["y_3cycle.json"] = [0, 2]
INPUTS["x_swap.json"] = [1, 1]
INPUTS["y_swap.json"] = [1, 3]
# st.json onto a two-point top level: a00 and a10 share a fiber
INPUTS["tm.json"] = {
    "source": INPUTS["st.json"],
    "target": {"levels": [["s"], ["s0"], ["s00", "s01"]],
               "transitions": [{"s0": "s"}, {"s00": "s0", "s01": "s0"}]},
    "level_maps": [{"a": "s"}, {"a0": "s0", "a1": "s0"},
                   {"a00": "s00", "a01": "s01", "a10": "s00"}],
}

# (id, argv, exit code, sha256 of stdout)
CASES = [
    ("lq-s4-p2-r2", ["lq", "--group", "s4.json", "--p", "2", "--rank", "2",
                     "--kmax", "4"], 0,
     "ec5fd2b79368b2e9aa6c0022df66ed3fc2bf2634fb1ec78d97feddfce4715bbc"),
    ("lq-s4-p3-orbits", ["lq", "--group", "s4.json", "--p", "3",
                         "--dump-orbits"], 0,
     "7c9a08e8f5df90c7d45c7e99b433c923c76222b0e7e1ae1fc3e81bb755511b20"),
    ("cohomology-s4-p2", ["cohomology", "--group", "s4.json", "--p", "2"], 0,
     "e336522b448979a48ba61555b635e67846b5c9fbbf23d2d4a5bba732cd90a569"),
    # Shapiro through the coset modules F_p[S4/S3] and F_p[S4/C4]
    ("cohomology-s4-p2-shapiro-s3",
     ["cohomology", "--group", "s4.json", "--p", "2",
      "--subgroup", "0", "1", "14", "16", "18", "21"], 0,
     "8684471a1a1c38923bc34ad55d8186d297f2ba65bf300d83c66249b8e1e658e3"),
    ("cohomology-s4-p3-shapiro-c4",
     ["cohomology", "--group", "s4.json", "--p", "3", "--kmax", "4",
      "--subgroup", "0", "1", "20", "23"], 0,
     "509cb5b4f7e3df609a1f6a0586a821604a5875c6747acb6d839eec1e23209db3"),
    ("rep-s4-p2-r2", ["rep", "--group", "s4.json", "--p", "2",
                      "--rank", "2"], 0,
     "be4412ff6c9817e6c74633fc4a434e75ba972b1d52ce70ffd437b11dedf65e63"),
    ("sep-a4-s4-p3", ["sep", "--hom", "a4_in_s4.json", "--p", "3"], 1,
     "b80e7790de69545021db1f5a5bed03752dbe62a5bc467121ba73ade0a3718cb7"),
    ("sep-a4-s4-p2", ["sep", "--hom", "a4_in_s4.json", "--p", "2"], 1,
     "a03c8143e2f2d0f1bcfcb120327255f241261be0672e2485d4545a166ba7fd6f"),
    ("module-map", ["module", "--module", "m.json", "--map", "map.json"], 0,
     "33a641a2a2a0a03da357ea4d3e90b7cf8157c6dd707474ec12381a1e54a128b6"),
    ("etale", ["etale", "--space", "space.json"], 0,
     "2ac5783761322e29cb7e95e69c3e080b4d9d938d04e011b2f9e59ed069c2b336"),
    ("tower-product", ["tower", "product", "--tower", "st.json",
                       "--module", "m.json"], 0,
     "686871f5e278510bd2bde7fb30cc1a7994227739e525909ae42a94578ac44bea"),
    ("tower-coproduct", ["tower", "coproduct", "--tower", "st.json",
                         "--module", "m.json"], 0,
     "fc8142f9fe2ed2efa17252819976257e712546ab474ef8f3fe197b20cb2fcd14"),
    ("tower-dual", ["tower", "dual", "--tower", "st.json",
                    "--module", "m.json"], 0,
     "607e2b77cc227afc421b4bd81a8d1e67f7200406a7d74a117c1d56cc2e8994d6"),
    ("tower-freedec", ["tower", "freedec", "--towermap", "tm.json",
                       "--module", "m.json"], 0,
     "5adac50a4557829f86b93590e4d4f58674ec2001f6a3dd320521aa99e53816cf"),
    ("sep-distinguish-separated",
     ["sep", "distinguish", "--tower", "gt.json", "--x", "x_id.json",
      "--y", "y_3cycle.json"], 0,
     "0f45fc8cf8eb12d56983c10b7e3ab7648327f485f42af31eb62d4973b4a9bbfa"),
    ("sep-distinguish-exhausted",
     ["sep", "distinguish", "--tower", "gt.json", "--x", "x_swap.json",
      "--y", "y_swap.json"], 1,
     "73faecdc49f6f621adc70e76f44a5ee7b77fac7726beaf84e0a1aa4b6f98d1c0"),
    ("cohomology-tower", ["cohomology", "--tower", "gt.json", "--p", "2",
                          "--kmax", "2"], 0,
     "9419682bad7cf4f9a30e18d3a7cda560c89d9bd8a8f1105710b9eddb0149d784"),
    # p = 3 elimination: the resolution of an order-24 group, and the
    # inflation ranks along the sign map of S3
    ("cohomology-sl23-p3", ["cohomology", "--group", "sl23.json", "--p", "3",
                            "--kmax", "4"], 0,
     "16e84f0f74961a6c4c7f612c1ddc9c2b12d4fcd14db2d98015fdb51909636dd9"),
    ("cohomology-tower-p3", ["cohomology", "--tower", "gt.json", "--p", "3"], 0,
     "7e9a8b94c8ab6d71fafaca35bae81941928a57e4f7282a8c669e39af4f1feed6"),
    # inflation along the sign map of S3 up to degree 4
    ("cohomology-tower-k4", ["cohomology", "--tower", "gt.json", "--p", "2",
                             "--kmax", "4", "--budget-dim", "10000"], 0,
     "2da20dae0250538333b5b272d118c5630e98ec2433cd120bb3ac6a05bf1e60b0"),
    # the same at the default budget: the chain map needs betti * |G| <= 5000
    # cochains, where bar cochains needed 6^5 = 7776
    ("cohomology-tower-k4-default-budget",
     ["cohomology", "--tower", "gt.json", "--p", "2", "--kmax", "4"], 0,
     "bff55a2a5a440905e2674bc726b98b9f03dddf180a8db3f42532b2f41e9477a0"),
    # Rep(V, -) along the sign map of S3: the class maps and the threads
    ("rep-tower-p2-r2", ["rep", "--tower", "gt.json", "--p", "2",
                         "--rank", "2"], 0,
     "7edd3f9e55b6c2a9acee561b594af88470f253420c9a66c4123f551f97bace7d"),
    ("lq-tower-p2", ["lq", "--tower", "gt.json", "--p", "2"], 0,
     "7db412c0d73d09b4af2002c301408b113092b52eb42d4e638ccd501cc1c5bc2f"),
    # C2xC2xS3 at p = 2 is ranked on G/C3 = C2xC2xC2 (Betti numbers 1, 3, 6,
    # 10, 15), where C3 merges a 3-point orbit block into one point: its
    # largest coboundary, delta_3 on that point, is 15 x 10
    ("lq-c2c2s3-p2-r2", ["lq", "--group", "c2c2s3.json", "--p", "2",
                         "--rank", "2", "--kmax", "3"], 0,
     "9390dc6392238ab838acc12c48e8c5f9ed8f8b202caeeac1e8908f01b3462d95"),
    ("cohomology-c2x4-p2", ["cohomology", "--group", "c2x4.json", "--p", "2",
                            "--kmax", "4"], 0,
     "4bcf5cff8ef43bbcff109f440e8c6e8575e51bbafaa24258da3069579137a5e7"),
    # one degree further with a small budget: F_5 of G/C3 has rank 21, and
    # the budget counts the unreduced orbit block of 3 points, 63 cochains,
    # over 60, so the run stops before any output
    ("lq-c2c2s3-p2-r2-budget", ["lq", "--group", "c2c2s3.json", "--p", "2",
                                "--rank", "2", "--kmax", "4",
                                "--budget-dim", "60"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the same at the default budget: the orbit block of 3 points counts 63
    # cochains, where the 160-dim whole module would count 3360
    ("lq-c2c2s3-p2-r2-k4", ["lq", "--group", "c2c2s3.json", "--p", "2",
                            "--rank", "2", "--kmax", "4"], 0,
     "dbb36df8c05a26d7ffc525d1c4e4123c01d696b4ca124c68e28b48b1925d2afe"),
    ("selftest-1", ["selftest", "--criterion", "1"], 0,
     "b1b265ca4cbb311c375915aeb23c517d1a257306d543f60eef16d7b4191d9d37"),
    ("selftest-2", ["selftest", "--criterion", "2"], 0,
     "bbcb699e6a8d7ef2c99e9550df25ae2d1a2f649541992c1d248b301f5e7f9078"),
    ("selftest-3", ["selftest", "--criterion", "3"], 0,
     "7ad617837160386133c802a4f26174c3e4ce2660b5a4dfb24ea995ca8e07b740"),
    ("selftest-4", ["selftest", "--criterion", "4"], 0,
     "eeedf2fc8b90d887256b4ac047a74c0498017b797117b7cd5b028ce6ce8a3f7b"),
    ("selftest-6", ["selftest", "--criterion", "6"], 0,
     "86467279edd95112c9ac0d21257723b97d64068e21d43a73a384b51b79248c4f"),
    ("selftest-7", ["selftest", "--criterion", "7"], 0,
     "8aabf6598bb3fa6423831c3d11248d72132a2fd55ad2f9f16830dd46b43fcfb6"),
]


@pytest.mark.parametrize("argv, code, digest",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_golden(argv, code, digest, tmp_path, monkeypatch, capsys):
    for name, payload in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    exit_code = cli.main(argv)
    out = capsys.readouterr().out
    assert (exit_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
