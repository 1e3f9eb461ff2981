"""Golden output of ``uqcentre verify``: the sha256 of every output byte.

The digests pin ``verify --type T --rank N`` at the default bound for type II
algebras (A2, A3, A4, A5, D5, D7, E6) and type I algebras (B2, G2, F4, D4,
B3, C3), and at larger bounds for E6 and D7, in both output formats, as
standard output (the rendered report and a trailing newline).
Any drift in a report title, a check name, a count, a detail or the verdict
changes a digest.  The type II digests were taken from the output of the
earlier character-level relation check with its check names reworded from
"character identity" to "exponent identity", so they pin that nothing else
changed when the check became the exponent identity alone.  The F4, D4, B3
and C3 digests were taken while the independence check still multiplied full
weight supports, so they pin that the Brauer-Klimyk products left its
report unchanged.  The A4 and D7 digests and those at larger bounds were
taken while the generation check still counted factorisations by a
memoised depth-first search, so they pin that counting one generator at a
time left the generation report unchanged.
"""

import hashlib

import pytest

from uqcentre.cli import main

JSON_SHA256 = {
    ("A", 2): "7422b7b8f4ab1126911f6650ab0329636ca59d7157c58bdab0fae4930f601c54",
    ("A", 3): "f9c1d6eb433e62288095e343b8fbbb92abbff56b12090c43fde35af6f99b3aa2",
    ("A", 4): "8ee34983eaf931cbe823b105a52609cdcc8371c6071a5dd28f6157b5c640bed6",
    ("A", 5): "b8d6a8fbce5aa55f727f314dbccfe054959ca8f2664fbe715746476f0fe56fd9",
    ("D", 5): "0d31f4425c087bc99c7a5a8a50b5905ab19894598c5b32293932405308634010",
    ("D", 7): "f7f156cb3ddad3b8015896feb543591587650597fdd02c7b10ef6912b84d69b1",
    ("E", 6): "faa5052c110faae7c78de775f906bbe027be6aaa3c0bac600348d7b1dbe6f195",
    ("B", 2): "c390d851342ebbd289cae87edb9becba0533fdd4884313b46737f722b6846d4d",
    ("G", 2): "edce5dfddf38b1155b84350814eb385d663fc5fa1e6ddaf0470b70618a2ffdc3",
    ("F", 4): "2942046e917e2c54b003b7edb4df6f2825ecb5754361a9368bf62fcadab5232e",
    ("D", 4): "2c221efa870ac9f327aaeb9f35d70dc1107e259cd4b252492e5a1d3438ee8b2c",
    ("B", 3): "4163a0cb9fed37f93db0a937b04898a9f1d95998292660a6baf1ba1869302d3c",
    ("C", 3): "a3f5609eb98c3a6eb3062df0f2c7524e7ba7b5bbe65f234800c3a60f4b4e22b7",
}
TEXT_SHA256 = {
    ("A", 2): "fd065f9c499a895e9ab94093da56e1ce0c15aea6b38d1ce2edddb8a55a6d33af",
    ("A", 3): "cb2ef785c74a134a713dc6f0b4122ff6d295d3a967690f185b6bc64586b088fb",
    ("A", 4): "6fd514bab9da904c3b26226bd0a39f12042b06072339174e67910279dda2389a",
    ("A", 5): "5eea879eba1b86a3791d808c0a13b8255acdbaadc23049c6fb99ebfb12af235f",
    ("D", 5): "3e7166c4735bc91dcbd7787a8537ee30e79801e8720012de2ee6356226bdf8bb",
    ("D", 7): "4db3c70b9b814ae7c7b15c5cd8dbac5e3d992b1f3f8e5dbbf9253fa3450398c2",
    ("E", 6): "96860d847d328489ca8dc4446d711f340e092c2bae5b870cd4ace1eed223150a",
    ("B", 2): "cabc08ea9ee5de5705b13dacb20e2a2de69f6feb546482d08ab49640fa5efc1c",
    ("G", 2): "1a96cf7f6a25f73a0a13189aba41734004bea27e9e1e7f0b0073521c069e2888",
    ("F", 4): "5070545c079f2004625ab3941528919d8b3b205f3524e575495d6b9518bdf5e1",
    ("D", 4): "0dc5e66ca119f0ec8b583ca4807e7edca0fe7d1107fb3417272d1256587158d4",
    ("B", 3): "57a92e1f34e359756217bd92febec5f0a7da240aff0c4b5227f41050223acca7",
    ("C", 3): "bc7d1e1a08d9acd83e50edb7a220331343767a9c791b77032dd4b86bd524a363",
}

DIGESTS = {"json": JSON_SHA256, "text": TEXT_SHA256}

BOUND_SHA256 = {
    ("E", 6, 5, "json"): "281405f1ef9c8bdcd729e401728e41e36dbe66070a6add4f1e94f14ad5461178",
    ("E", 6, 5, "text"): "90b9a854c3e76b35281ef8aec07b3f961ff3a2029fc93a212ec7ac5bd1a5b4d9",
    ("D", 7, 4, "json"): "9afda2d3526dc9ec32e1a2314e7c096833e3697289b8db8f4617252fe1f52a6b",
    ("D", 7, 4, "text"): "843c6bbcfaa88c06325a7989f3ae081b733fba42eba2a950e0c3174d112eab43",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("family,rank", list(JSON_SHA256))
def test_verify_output_digest(capsys, family, rank, fmt):
    code = main(["verify", "--type", family, "--rank", str(rank), "--format", fmt])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == DIGESTS[fmt][(family, rank)]


@pytest.mark.parametrize("family,rank,bound,fmt", list(BOUND_SHA256))
def test_verify_output_digest_at_larger_bound(capsys, family, rank, bound, fmt):
    argv = ["verify", "--type", family, "--rank", str(rank), "--bound", str(bound)]
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == BOUND_SHA256[(family, rank, bound, fmt)]
