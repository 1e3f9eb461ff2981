"""Golden output of ``uqcentre hilb`` and ``uqcentre presentation``.

The sha256 of standard output (the rendered result and a trailing newline)
for the type II algebras A2-A11, D5, D7, D9, D13 and E6 and the type I
controls E7 and E8, in both output formats.  The digests were recorded while
``hilbert_basis`` still tested every pair of box members for reducibility
(A10: while it still sieved against the elements kept so far), so they pin
that the minimal zero-sum test finds the same bases, classifications and
relations.
"""

import hashlib

import pytest

from uqcentre.cli import main

SHA256 = {
    ("hilb", "json"): {
        ("A", 2): "afe8903aa37f91bf57eb2d840ce1f76ba5547ccf1cf2b8e325a123a63a3555b8",
        ("A", 3): "c28479b1bc97483371bb73e3d81c218ddbd2af17b5f89340d526be77e57731b8",
        ("A", 4): "d82c2c0f7886fd34a6e7edba32e59f273a5ffa3e57740bdf8a7208f8bbe91e94",
        ("A", 5): "43c301d73cb606da890b6d1fdad268434c95823b5f2ccf3b2378977b2f6280fd",
        ("A", 6): "7e9423ec0efd8087a854beb11d7321fb175dde603acce1273a5c8d93464b99be",
        ("A", 7): "a2f2b4fec6a42daa159ed911d454f579a272cb06e4580d68ce870857b59a13cb",
        ("A", 8): "89cf06795b1613625c247cf18df0ff3c84355d8f002405e1aaa02808b72db865",
        ("A", 9): "4ef18a79166cb9face5f17e31c5ce3e2ac0bb7bf55c44b0b52ce08585d08a1a6",
        ("A", 10): "f17ee94765f8a59931a0303858468dbd748f788b3ab5fb88d16e120f37fa5c16",
        ("A", 11): "e5a7b8770bffb91a59334ffdf4d8b9471067382bf7e8d3164eb976a84aef4bcc",
        ("D", 5): "cbf43acd453b8991525a2fce38e7463098aff2b3cc591f28cd0ade0dd2e2a154",
        ("D", 7): "51718045141c859e08f6f8222dafa3caea2e2ec94c518f5c611a0261cf6cd92a",
        ("D", 9): "a247323044fd62728482cf9a23b57114b0013934c39ffa221669bc9161f2e6fd",
        ("D", 13): "32df15dfd5dfac1736929c3b4822058b2219394760b190ffd4b0950f5e17bd60",
        ("E", 6): "27b7408c32634bd00e0d9e348094d1098a3a277a2a7b243a0e37fdb3147cbfc1",
        ("E", 7): "43aedb6c3619f9e6b72da033f562994f5e5adedb91835125e999c90d55bee9e4",
        ("E", 8): "affb7a11e443d172f13d4df5b2def5ca7bc8382e8e3fdd7ba294f0a3229cbfd4",
    },
    ("hilb", "text"): {
        ("A", 2): "3c3fb60346fb3bf7eb005ba996965099ddb35b02a1f1ea8ff318abbc7ce5ea97",
        ("A", 3): "f6e24f856408824ac63da380579e26e350a9f711ea84fea686c74d0b2f18881c",
        ("A", 4): "e21370785aa5bc2729d3a587ae01f9b6f3e509a2e9b332ab3cf7175c178718f8",
        ("A", 5): "2d2b26fe9977e7907a6cc94294b806a2c079d955a99a6b019076d52a93e9a766",
        ("A", 6): "2948a955aaaf1004c502fb215b30f5ac7f137977e43d74563695a35a8d2b8536",
        ("A", 7): "b29d7ed9d2136d778db564fae03f98b8984af176372cbdba2e7aaef38a62dc96",
        ("A", 8): "08015ea604d9ea3631a42dcf1d6b3a05e7bff0bfdd8bca239852f291f58c40a8",
        ("A", 9): "6dc0703f042ed17b676dc611f116ea9f6f11d6f3954e8cdef00ec14bdfba63af",
        ("A", 10): "2ec7ac290f3cf9bb984b6b766858cdd848ff757676ee7a0fd49695d4093da264",
        ("A", 11): "39e7fbc254b65e1054cd7c339c72486edecfd641e6da96693a66a2ec2503c251",
        ("D", 5): "f839114825dab2d1822ef1c4da2419da28ba1460866106036f45f420a4d9c2bd",
        ("D", 7): "61e36d946fbabbbfb1c12bede40f456d846425381cf51fbd3c9bc2401f4fd183",
        ("D", 9): "89163c82b0853d4327750a8ae5b8e91adfd653d3a24a6f8b7078f9b4d749bfbd",
        ("D", 13): "475a1d779f42fa64dacd3700b2dc564de5175800b1fa091ffd991db77e73755d",
        ("E", 6): "bbbcdfdf4537381ce1a3e91711f46b6199d30a7b23a36ceae81b700a10b5a631",
        ("E", 7): "bbd164ea0aa86efa1ad307573a19ab9448c7132dd5fd521547cc14b1b7f4df90",
        ("E", 8): "b51e11d25b0d05a25f52e2dc87824a28c21b7cf6eda1d6bf3f3bf1b5380b949b",
    },
    ("presentation", "json"): {
        ("A", 2): "09d982433421bbc3c411cf3d2a1353ac0ac90b1559efdc0af4eb84186d6f54d4",
        ("A", 3): "2e65ffb73f5e5bc8f650b7076c3431881d278f883dc9d2ae1769d5695831a011",
        ("A", 4): "c11353c718066644df153cd7817d6c7cacb0747fb61be2d8d55fd5ccecc1daa8",
        ("A", 5): "5cab235da1871f7372d49b0f90f41b8cba1a8bb9e9c322702244a1c7f5dc45ec",
        ("A", 6): "81daffc388c4aade55043831e4679322f944da684d178087ae47dbfe27ad295f",
        ("A", 7): "adc31d11a12f303e2720b82a4e300646f4242e27c8a0a68672a1266506e1715d",
        ("A", 8): "57a9d6184b46d1ccb6df05102f8c20ddf571d56d6cedd781458406f77bc459aa",
        ("A", 9): "dde4adfb6b86f99680740ab18b374424870a2b7b012d1e11f3fcd9f5af8fd9d8",
        ("A", 10): "42530b74141b73781ce30fddfafc4246083077ccbac137b6bfd4fa9d48900106",
        ("A", 11): "f1e5fde12948841d7bbf287f33faa5cfdf1a2cd4364d7e1a40f8abbadd35cf3d",
        ("D", 5): "8190024990030f82d06fa7a89443b82cb376c4f06c76306d479d5ea432024bb0",
        ("D", 7): "db06c0a143cde62ead36a3c9a54b7b0d659c8991ecdbd293c27bc9a2d38f4bf6",
        ("D", 9): "f3c055a8fdec58cd901c4be75a0995ee39f85be3305a7038ebefd7efc02d5fe1",
        ("D", 13): "e4fcda947fc7fa992efe18a916aa54909dc69ae82f3ec14e0c7fcd62864f6af5",
        ("E", 6): "83ff2140c225a1498b20623f9aa9986b4a2505865a40db42e0e92a5c279a96fb",
        ("E", 7): "e8ff805eac38fdccdcafddc0f03f37fb7f011ffb6b81b709e66b065250ce0ec1",
        ("E", 8): "13937780159438cbbb10a8673b0c8c0f4201d5584e6cfd2d314dba3c47fa5483",
    },
    ("presentation", "text"): {
        ("A", 2): "b08bad0aa37f35e76b0518a0da64e0a22f8210b280c83c5a230e42880d708ed7",
        ("A", 3): "de1d4524a09b033a53719b721df9c621a77ae43e14a7bc339ae40104033e3407",
        ("A", 4): "f2a48763e4cc5784016d5e6ee1c0ebd93706896a68ccedcd8404714abc508f88",
        ("A", 5): "47288427bd0333af32e70af2c693a962608351a8bb75476b4c0ae1bb27a0e96b",
        ("A", 6): "db0689742e07d21521dd5e63a86f210b3082dbce62efdf0ea9dda805a56cc1f6",
        ("A", 7): "1b375d777276b02019286419c692e32c98f96b29036c85c467b7a5d2417540e7",
        ("A", 8): "b4f308a2d29cce9cfeef10a7ee0d32a266d83168b7a08418382292736f4bef48",
        ("A", 9): "6fbf17488ec81b3da625e8928b26a56c5a873e3b3f1a3c273d61d821481e0dc5",
        ("A", 10): "97e4fa70d837b2705d67ad208cbe523517754068f05936ad8e4617f4caf24c34",
        ("A", 11): "681fd27258adf3e48de52143e5c8fd50f56466a028a869d4721da278835133a8",
        ("D", 5): "a784201327d22cc97f4a66bff5579f3c2e9ccb06f13b348d8f9e9038629e951a",
        ("D", 7): "1bcf7bb3c6cc1311a98d0e5f1aa986df4c6763ec43b057451bf9e7741ac129cc",
        ("D", 9): "e531d0ec4f463286437ce760873f3f41516f65e27b209ad690fc02c3d498c326",
        ("D", 13): "94197fcddaf69ce0c91be3b5fc98f9ee545a213975501ffef1ce8dd2ab41ad26",
        ("E", 6): "d5ee9030211011d6ff5ef2246e07742ee30056f4d1a0eb502e6096b068b94939",
        ("E", 7): "b064caafb829641f8c29cba981b1b29e6c1b451fb5c875ea88dc6a2812adb870",
        ("E", 8): "a4cf3045092a56d3784396a9d03cce21a140940f62a7b2e5e099218d71ad410a",
    },
}

CASES = [
    (cmd, fmt, family, rank)
    for (cmd, fmt), digests in SHA256.items()
    for family, rank in digests
]


@pytest.mark.parametrize("cmd,fmt,family,rank", CASES)
def test_output_digest(capsys, cmd, fmt, family, rank):
    code = main([cmd, "--type", family, "--rank", str(rank), "--format", fmt])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == SHA256[(cmd, fmt)][(family, rank)]
