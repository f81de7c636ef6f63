"""Golden stdout of the shipped fixture commands, of a fixed-choice
scenario's `tail`, `sweep` and `verify`, and of `bound --family` and
`verify --random` runs, pinned by sha256.

Each command runs in-process through ``cli.main``.  A change that moves a
printed digit updates the hash here and lists the moved lines in CHANGES.md.
"""

import hashlib
import json

import pytest

from kbounds.cli import main

# A fixed-choice scenario with one variable per family, written by the test
# as fixed.json.
FIXED = {
    "format_version": 1,
    "variables": [
        {"a": -1, "b": 2},
        {"a": -3, "b": 1},
        {"a": -2, "b": 4},
        {"a": -1, "b": 3, "m2": 1.5},
        {"a": -2, "b": 2, "m2": 1, "m4": 2, "odd_moments_zero": True},
        {"a": -1.5, "b": 1.5, "odd_moments_zero": True},
    ],
    "choices": [
        {"family": "classic"},
        {"family": "hertz"},
        {"family": "order_k", "k": 3},
        {"family": "order2_moment"},
        {"family": "order4_moment"},
        {"family": "symmetric_order4"},
    ],
    "query": {"t_range": {"min": 0.5, "max": 12, "count": 60}},
}
# A fixed-choice scenario whose certificate falls below 1 within the sum's
# reach, so `verify` checks it there; written by the test as tight.json.
TIGHT = {
    "format_version": 1,
    "variables": [
        {"a": -1, "b": 2},
        {"a": -3, "b": 1},
        {"a": -1, "b": 1},
        {"a": -1, "b": 3, "m2": 0.3},
        {"a": -2, "b": 2, "m2": 0.5, "m4": 0.3, "odd_moments_zero": True},
    ],
    "choices": [
        {"family": "classic"},
        {"family": "hertz"},
        {"family": "order_k", "k": 2},
        {"family": "order2_moment"},
        {"family": "order4_moment"},
    ],
    "query": {"t_range": {"min": 0.5, "max": 9, "count": 60}},
}
# Intervals whose fourth powers overflow and underflow: no bound reads an m4
# without odd_moments_zero, so `verify` measures none; written as wide.json
# and tiny.json.
WIDE = {"format_version": 1, "variables": [{"a": -1, "b": 2e77}]}
TINY = {"format_version": 1, "variables": [{"a": -1e-78, "b": 1e-78}]}
# A lopsided pair whose sum b1 + a2 = 0 lies far below the t values, though a
# law's far atom a1 is 10^19 times their size; written as lopsided.json.
LOPSIDED = {"format_version": 1, "variables": [
    {"a": -2.3523082617124555e-07, "b": 1.2751888638521224e-26},
    {"a": -1.2751888638521224e-26, "b": 6.586228897255622e-22}]}
WRITTEN = {"fixed.json": FIXED, "tight.json": TIGHT, "wide.json": WIDE, "tiny.json": TINY,
           "lopsided.json": LOPSIDED}
# One support with every moment declared, so every family applies.
MOMENTS = ["--a=-5", "--b", "5", "--m2", "5", "--m4", "100", "--odd-moments-zero", "--s", "0.5"]

GOLDEN = [
    (["tail", "example1.json", "--side", "upper"],
     "61c57ad716f5228e4f2d85daa155ae69c7cdd8d70ee30a9d60a3ac4c524bc754"),
    (["tail", "example1.json", "--side", "lower"],
     "61c57ad716f5228e4f2d85daa155ae69c7cdd8d70ee30a9d60a3ac4c524bc754"),
    (["tail", "example1.json", "--side", "two_sided"],
     "e7721ca54503154da03610996d6b19ed43cc73eaea193ec0215330b0d03bc550"),
    (["tail", "example2.json", "--side", "upper"],
     "e50bb8a3bb77eb5c256f733ac5feb85213efd0eba74234164ae86ca332359e8a"),
    (["tail", "example2.json", "--side", "lower"],
     "dd7ac168cf82e27dcbff16de61ad1a492d4d26390d47bb2ee396ee6d35cbc82f"),
    (["tail", "example2.json", "--side", "two_sided"],
     "274c81a6b651d35403b12c1b786de9746a471e8f04b4e610e7ab2ed8a8c3653e"),
    (["tail", "example3.json", "--side", "upper"],
     "36ac4ce8b3c9c8ee6d9ebd7b088eec82355f4edb08be55b11ea72e3663dfe9a1"),
    (["tail", "example3.json", "--side", "lower"],
     "524e1f59e2dc427436ab9f6f5256d9dac9014a3eceb3d8836d10ac94e37e2e73"),
    (["tail", "example3.json", "--side", "two_sided"],
     "d0694e92ce84d7d5c3e550d691677901e77ebc8896f5cf80ba487b16b0399436"),
    (["tail", "example4.json", "--side", "upper"],
     "9f054c57de69d3abc0f5c075330877d103865b1b2830e401b55c996b088569b9"),
    (["tail", "example4.json", "--side", "lower"],
     "9f054c57de69d3abc0f5c075330877d103865b1b2830e401b55c996b088569b9"),
    (["tail", "example4.json", "--side", "two_sided"],
     "847c020b5378b8d8a40b61d7bf3cc9a00c6415bbd6f4a62a91c402aae1e9dad9"),
    (["tail", "example5.json", "--side", "upper"],
     "fdcb9053893eb6847f4bff2acfcd5fa5c2b13e42e8e5a04dbcedf71e6bfcb113"),
    (["tail", "example5.json", "--side", "lower"],
     "db7f66b57acd6eb9c62542aa0cfb45d0eeaeb8b3275e830aef0c0860a271dc0b"),
    (["tail", "example5.json", "--side", "two_sided"],
     "291dea587bb6d1093e8a9980f7aa6199b878df65f3dedec8105005671240e837"),
    (["select", "example1.json", "--t", "1.5"],
     "61c84d8a1719f4ab2e7fa9a97208e7ee28687ecaa82ee5d9af5f707cc516e1c7"),
    (["select", "example2.json", "--t", "4.5"],
     "36b598ad30dc69cee9a6fb4b6ed3cbcbad1dd30d189ebf10e9c3aa7747293f1b"),
    (["select", "example3.json", "--t", "2.5"],
     "16fe3acd9a9d87e1e6ab50728c4ee40f1cde50bcf6e6ce8f00b2372e1f18f6a7"),
    (["select", "example4.json", "--t", "5"],
     "8c99e36be029610379563784df63cc4acaf1242b029678ab986fa6c03b03b578"),
    (["select", "example5.json", "--t", "6"],
     "b2570c196f317a70f1dc5bb020d2fedfa61b56d25344d52a2f534c6a13e246ba"),
    (["sweep", "example5.json", "--group", "1,1,1,1", "--group", "1,2,1,1",
      "--group", "1,2,1,2"],
     "05e7e5a0c3c4187b4d294b688066b918e2d45312bbf1a93c4867c0420d7bf905"),
    (["bound", "--a=-2", "--b", "1", "--compare", "--s", "3"],
     "f70ba24f46709f121a8a3b422e491679478d7a614d699c1645624a48c1dca388"),
    (["verify", "example1.json", "--samples", "20000"],
     "92baeeb658781573caa9eab54a34b4ce0b204fb579651d19b3564938665dafd4"),
    (["verify", "example2.json", "--samples", "20000"],
     "493bd036f4d983ce638ad9cac0ec142adc8948c7b8ef4101484537fc2898976b"),
    (["verify", "example3.json", "--samples", "20000"],
     "10727ad2d128bc4d20d2655e859988002f1351b9f4ed0cfe76e1e3128cb2cda5"),
    (["verify", "example4.json", "--samples", "20000"],
     "009b0e3620f2b045e6f940df0c58cba16be36789ffb1af964fb3d4724867c4db"),
    (["verify", "example5.json", "--samples", "20000"],
     "8cccba31706e8d9c709554fcd9a2fdb6699beb86001609569ae76a941f567441"),
    # moment_matched_pmf's laws: the m2 mixture, the extremal law and both
    # symmetric cases
    (["verify", "fixed.json", "--samples", "20000"],
     "5e1cdf7cecc2f4aa59f3ec62901b4ab9fff42d88bd0d21de1f61a25b3ea77696"),
    (["verify", "tight.json", "--samples", "20000"],
     "713f380cd508e2c47f00f5fb09ea33ea5626e1188a67389df6dc9bd074979845"),
    (["verify", "wide.json", "--samples", "1000"],
     "db1a728fb1a94ad250c82cfcfdd3f9f8c204996cd284d64baa2d285383fae36b"),
    (["verify", "tiny.json", "--samples", "1000"],
     "a07e15b993434d0c8079e7a5146e67f5e500db423e8fed060eb69ddbf4578914"),
    (["verify", "lopsided.json", "--samples", "1000"],
     "1e78378ad2a206b51cbd8ffc6857e5463e6202bea8a275898b76ae2b06cb34dc"),
    (["tail", "fixed.json", "--side", "upper"],
     "5f99d55d5dd6d4d7f75b7fbdf1885574dc96e99028b9edce40d62be285fc48f2"),
    (["tail", "fixed.json", "--side", "lower"],
     "d09abb504e53f181a830c1a5293960f06a027581dd1d4da73d11b72de97473e6"),
    (["tail", "fixed.json", "--side", "two_sided"],
     "32b96bae7c8f412dcd69f3ef655bab37652d76b042653d6b5baa52e5883ceb30"),
    (["sweep", "fixed.json"],
     "8e70f58868230db3e226df7338a5da7437db925f0ce2d3a770d0bcd01da647a9"),
    (["bound", "--family", "classic", *MOMENTS],
     "97106900b6b11be190b81626becbc42d9180bc2ce2230c0acc5d6d956ab81159"),
    (["bound", "--family", "hertz", *MOMENTS],
     "cceed813aa11315c665d4b4556a0551cdf4fb577c66bd3ff72cf5382110ddb3b"),
    (["bound", "--family", "order_k", "--k", "2", *MOMENTS],
     "7a567980c36993ee19977d53b70deaf779fb4b1978f832d7e8248c131161262c"),
    (["bound", "--family", "order_k", "--k", "4", *MOMENTS],
     "66987ea06630484243d2be08e4b2f9856cf7a6e068dc9a3a3da5878a2e3fd9f8"),
    (["bound", "--family", "order2_moment", *MOMENTS],
     "c6006a0ffb3e284495eb0844ad0932778392a0f04e5f3926efd9fe66ed5dfe63"),
    (["bound", "--family", "order4_moment", *MOMENTS],
     "86daa5032bd52fb8168184136868a854a834553bfe711171c89973cf494ebd68"),
    (["bound", "--family", "symmetric_order4", *MOMENTS],
     "eb114a8a69a6bd511701dc74a96c27b7de657002c3ee4094ebb442886bb4173d"),
    # each moment family applies on some of these supports and not on others
    (["bound", "--a=-1", "--b", "3", "--compare", "--s", "0.7"],
     "dfe4e47531b1e210ee5df35327ff938ac28d812fbcd8a7e682c13180f27a8d89"),
    (["bound", "--a=-1", "--b", "3", "--m2", "1.5", "--compare", "--s", "0.7"],
     "3566ca0e8875101f140e8c5d22ca43c5db049ca34682c02d8d800f37c3b066f0"),
    (["bound", "--a=-2", "--b", "2", "--m2", "1", "--m4", "2", "--compare", "--s", "0.7"],
     "6a82cfd75bf644ef974601077ff56568323587cfa7e18b2817d75c9bcbdec3dc"),
    (["bound", "--a=-1", "--b", "3", "--m2", "1.5", "--m4", "4", "--odd-moments-zero",
      "--compare", "--s", "0.7", "--k-max", "5"],
     "9825b9b73a15b7e967ab9ca3fe38a0c68b545d35653ecd52b2709abea299a97c"),
    (["bound", "--a=-1.5", "--b", "1.5", "--odd-moments-zero", "--compare", "--s", "0.7"],
     "31ede6af7d30f513513e3c6aa393ad2eac4f9f325040bd14dd28d1cbfa77834f"),
    (["verify", "--random", "--pmfs", "200", "--samples", "1000", "--seed", "5"],
     "4787d630582c7fc96c93da50de32caeb525817a0552fe1c9c799cca0cd09d96e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_stdout_is_pinned(fixtures_dir, tmp_path, capsys, argv, digest):
    out = stdout(argv, fixtures_dir, tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def stdout(argv, fixtures_dir, tmp_path, capsys) -> str:
    """The stdout of a command that exits 0, its files read from the fixtures
    or written from ``WRITTEN``."""
    for name, doc in WRITTEN.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [
        str((tmp_path if arg in WRITTEN else fixtures_dir) / arg)
        if arg.endswith(".json") else arg
        for arg in argv
    ]
    assert main(argv) == 0
    return capsys.readouterr().out


def mc_rows(out: str) -> list[tuple[float, float]]:
    """(estimate, certificate) of each of `verify`'s Monte Carlo rows."""
    return [(float(row[3]), float(row[5])) for row in
            (line.split(",") for line in out.splitlines()) if row[0] == "mc"]


@pytest.mark.parametrize("name", [f"example{i}.json" for i in range(1, 6)])
def test_verify_mc_rows_of_every_fixture_have_mass(fixtures_dir, tmp_path, capsys, name):
    # a row whose estimate is 0 checks nothing: each law reaches every t sampled
    rows = mc_rows(stdout(["verify", name, "--samples", "20000"], fixtures_dir, tmp_path,
                          capsys))
    assert rows and all(estimate > 0.0 for estimate, _ in rows)


def test_verify_checks_tight_certificates_below_one(fixtures_dir, tmp_path, capsys):
    rows = mc_rows(stdout(["verify", "tight.json", "--samples", "20000"], fixtures_dir,
                          tmp_path, capsys))
    checked = [(e, c) for e, c in rows if 0.0 < e <= c < 1.0]
    assert len(checked) >= 3
