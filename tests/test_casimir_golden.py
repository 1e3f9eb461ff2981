"""Golden output of ``uqcentre casimir``: the sha256 of every output byte.

The digests pin ``casimir --m M --k K`` for M <= 6 and K <= 3, in both
output formats, and in JSON for M = 7, 8 with K <= 3, for (M, K) = (10, 3)
and (12, 2), for M = 20, 26, 30, 48 with K = 1, and for the higher orders
(1, 8), (2, 6), (3, 5), (4, 4), (4, 5) and (5, 4), as standard output
(the rendered text and a trailing newline).  Any drift in a coefficient, its canonical form, the term order or
the rendering changes a digest.
"""

import hashlib

import pytest

from uqcentre.cli import main

JSON_SHA256 = {
    (0, 1): "4e08503a427363c73311261422202b82cc4a2ed23ea298f7583f7492be75dfd1",
    (0, 2): "e3bd7b05bb51318b59254ce24c0627136b1c3a6fe57252cf8585a3d3a83a0fd3",
    (0, 3): "14ca42fd85bc7c1512df3cb089c6aaefe7b4e57d326b471bd1a9bf27f4fac785",
    (1, 1): "18a71682fcea9d5e29b77ddba00d582f999e07253839974dd47a2ce9a7ef3ee1",
    (1, 2): "bd022da873c441aba83dafcb01a06ddc5ba13a25d609d10d6128b50e6914821a",
    (1, 3): "dafe465bd7b87a2d40d81399266790464e41aeb7a19f71887f12c5d3e101a9ab",
    (2, 1): "9b027e8ba7082788651521ff4bf074b308495f7a27fc0bb9d6f7bab0fdd0ae31",
    (2, 2): "19eb230940d4da446e8f15d2e2135d0329188e0a5906610eb6539ef4ec4ba03d",
    (2, 3): "123d32c4ea10bfe08e178ed27555c2e95815a447c08e1eb0752a7f1d1e45a2b3",
    (3, 1): "36c2bd402ffb3853b0c89041164652567ffd7be434a0ef093da6df8e22eb1ea5",
    (3, 2): "1a3aa7a892650fdf76d68c5ee90b7414c06b502655f72f528d66dd83538ef63f",
    (3, 3): "e9a622261d6bfde4f09353928d6a0e9dfa55092146a72bb3e94c696adcef028f",
    (4, 1): "f366f2ee9b0e0d92daae6cbb90d9d00bb52eabfcdd08a630677ba52cef9df6d7",
    (4, 2): "9b6799d7469ac84dcb1a57d474ffced0986d708ceb5a10eb60aec97061bbbc47",
    (4, 3): "d032277a762ab34adf97f1cfd0aa220a767a3fc25d5ccc3f10f440ef6366122a",
    (5, 1): "e681dc7b4ab213aa3218a891a9eb7f73c309e59ecdbd01c5ddd24e340beab62b",
    (5, 2): "6accb78487a4e3a3a15dd27177b01eda01bcea8741a0fd7480719ce3648b2ebe",
    (5, 3): "975f3ace78efae3127e9d5fc478941cdfa89b74c793da6d936ca21bb47152872",
    (6, 1): "cf033c82fc8be7afd82e3303d8b497770c12a1da02e3cb9cbdc889b5572d3595",
    (6, 2): "c8d2ff76dbfb16851cce54cf7567fced1aab4f47f4501b1e04e24a156a0bbe50",
    (6, 3): "8da1d581bccb57c68e5a699fc186caf4928de056a6cc9a9df0e57e1907832ada",
}
TEXT_SHA256 = {
    (0, 1): "1f540dd2beb13a36d42a0b3eb5c3968390cdb37d0654ad806159894dc8564e7c",
    (0, 2): "f183bcb076283e2a5e5962a8172ef29e08097b6806cacdf96c5eca2a4a2b2235",
    (0, 3): "2da4d4dfc32c6583e5d4bdc34d4d5302319d336b60d57db53bd2422ab03dda5b",
    (1, 1): "daea247dc0ea75e4e0b20ba68692b0705301b22a57f2044e05e0c005dabba4f1",
    (1, 2): "91612b8117b1617928869f71d70872362932895428fdb64c2a96b688a0684a35",
    (1, 3): "2cd44cbc6827f82affae7ad48ceedcac78cfa11c8cf1569f9037407c5ddfd92d",
    (2, 1): "28a28b099795da613e06174fff9000f86cff71d147457ce2efb3d0dc49607b76",
    (2, 2): "e2a1578eb20b334fea5689de5b2cb488d7fb21957e2a441d14a675a608892a17",
    (2, 3): "335ba6703167f1b1daabe69852c6df844f143321cc6dfc8f87d5be8c2dbf7bd9",
    (3, 1): "67912910e2616657fb49108020d36624e140506376148b5118cf69502700717a",
    (3, 2): "ee810958ffef49655af71233edae657ac688e1c60f1fc2fb5f59c6a38339f332",
    (3, 3): "80b9252ae31316c6ca47a5760e63889e286f2939a22610838c033dc29a9ed535",
    (4, 1): "646e2c0070c722d7d49a37c905da8dfdded4f55b17b0334f1661763650436614",
    (4, 2): "63c79026e9f41936f61bb84e5a65677f18b7ba9e44236b6386c21e0a74e8e0ef",
    (4, 3): "561ae2174d5c76b3313b33fa2ee055f9dcf19d8d866cc6e4c8dd797bed94a19e",
    (5, 1): "bd66c7b2f4d08b544980cb00c3278df734c6f38ee26b539eabd22e1dbf0ba5ae",
    (5, 2): "013aaf710b69e0ccf937c1df6fd3358bf04e45517282c6686aa49ae106b51a8d",
    (5, 3): "2eeb5693e6c4c167d01f3286a476265d834ab6bf27b0841418b374396059a83f",
    (6, 1): "b6e3b6debaeaffb20773fd332aa4bdbc24fa1e610bcf17202d1762a2a3dfdd09",
    (6, 2): "e95c67267b89cecccee382eb307535f58e6be43c411ffbb61328e22d91af6634",
    (6, 3): "fee4aa5caa7eafa903e7b89d52acc3cad8a8f6b7c4bae598e738d3f3b6ac76f5",
}

LARGE_JSON_SHA256 = {
    (7, 1): "ff41dd1dfb02bd2198c3d44ab0bbaf1f3556622dd8b241c6ef7f1fbfb98f285e",
    (7, 2): "9cdd7d8b075cf992b1f5d485cafc56881bb8c6fdd692b8e93e9d79d3866a8825",
    (8, 1): "49f00810783b44b12c15e3382a1223904e91e019b54586d44661b77089a0fa32",
    (8, 2): "89be52736ccc41e69d0a5551d4b2942e9b72fd871458607188ee8d158218d3b9",
    (7, 3): "e690f5015888acaa14e0cf30174afae005455565eb4cca202fdd2d2d2b5f397b",
    (8, 3): "6ecb288419f6195c86ee4bdc2c4bc954633804f54a538a631d8419d2d1732b54",
    (10, 3): "3a2769b72c180a3f5821b185f5a51be3ba1d97741ceb413ef362b6be5b723c0a",
    (12, 2): "123a497ceb1eed47c25a4ae37bbb91b6bb01c96a5536379095f985270ad1619e",
    (20, 1): "1e6bf30b0843e5edb720a22dc7ba83a5054ae49cc88941b416829e64f5168c33",
    (26, 1): "43cb8b1b90fc1cf7168c67f664e60eb89b17a6c506dfa16ab332765d42ed8557",
    (30, 1): "b7aa192b88ae62cceb5205747a49573ed6543030e03ef232b500b0b9d046bd89",
    (48, 1): "96e469e0dbbe141eb5aadd26556f248ed0e9c9278267144f49178b12f024e16d",
    (1, 8): "07219ae49e96f3981f142bc9326fc594ad737fe4294f1028b5b5790851026444",
    (2, 6): "b78bb3dd3b36354087dff7a4ad29d3601e5a773114caa5dc3a136386997943d2",
    (3, 5): "65327f827b60ce9c505f4f1df3c44731ec2e3c32e7bfa4a77aee318ab7aeb7e2",
    (4, 4): "2fd53426cfc6a28a3cf2c84466114d5f97ff29ae3b78e654984f55476c3a0642",
    (4, 5): "17727e9cdfb7cd57af0ec1917b1a55c729f53d795a5ee76286c08951ca260dfc",
    (5, 4): "34c4b2dd9fc878b24f4a33849e0b94ab0651e38893f386379b1eab4239192a23",
}

DIGESTS = {"json": JSON_SHA256, "text": TEXT_SHA256}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("m,k", sorted(JSON_SHA256))
def test_casimir_output_digest(capsys, m, k, fmt):
    code = main(["casimir", "--m", str(m), "--k", str(k), "--format", fmt])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == DIGESTS[fmt][(m, k)]


@pytest.mark.parametrize("m,k", sorted(LARGE_JSON_SHA256))
def test_large_casimir_json_digest(capsys, m, k):
    code = main(["casimir", "--m", str(m), "--k", str(k), "--format", "json"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == LARGE_JSON_SHA256[(m, k)]
