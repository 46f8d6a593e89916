"""The audit's reports at workload radii, pinned: the SHA-256 of the JSON of
``audit_acylindricity(...).to_dict()``, keys sorted, at tree radius 5,
element radius 6 and k = 1 to 4, on every separated pair of the fixtures
p4_racg, z2_z3, z2_z5 and o2_racg and of two presentations built here: the
right-angled Coxeter group on K_{1,3} and P4 with orders (3, 2, 3, 2).

The oracle properties stop at tree radius 3, and the benchmark checks audit
outputs only by meaning, so a faster audit that changes a single byte of a
report, a path label or the order of violations fails here. Violations occur
at k = 1 and 2. A change that means to alter a report recomputes the digests
and says why.
"""

import hashlib
import json

import pytest

from arboreal.classify import build_splitting, separated_pairs
from arboreal.formats import load_presentation
from arboreal.graphs import SimpleGraph
from arboreal.tree import audit_acylindricity
from arboreal.words import Presentation

from conftest import FIXTURES

PRESENTATIONS = {
    "k13_racg": lambda: Presentation(
        SimpleGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d")]), dict.fromkeys("abcd", 2)
    ),
    "p4_3232": lambda: Presentation(
        SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
        {"a": 3, "b": 2, "c": 3, "d": 2},
    ),
}

# (presentation, separated pair) -> digests at k = 1, 2, 3, 4
PINNED = {
    ("p4_racg", "ac"): (
        "26c3b5de8c3201cae1f5f9c3dbc84cd1445cce80bc3f6d67e32ea78790e931ba",
        "b605f5d6d1a870906b26453f37432862caba34c0a50ad89189ca8d4045a58428",
        "501c428887ac3b5bfc76d53a2bbc60edccbcb01b2da2c2c543461b2e1476eeb4",
        "cf78b0e60e2108739a4738a015d93fab803ea2aef14de7aeebc594d795509297",
    ),
    ("p4_racg", "ad"): (
        "10283a01857056632563cc8b73768eb66539f6cd8b49da3fe650e36a50dccf8a",
        "2cd1a9394b82ba827a9184317d588ff76c5dc61ec05d7a9a19dd2cdbe17cd813",
        "d1a6b551c5113f6eeecff32b51936fba5b78f6db3bc42e0d76e95ed7119c904a",
        "75ec069ad59cbc35050565b66ea6c929c6b4b374bbc1311b99521bac9718bad0",
    ),
    ("p4_racg", "bd"): (
        "e56a02dbe4a5c8aa11cb99f8ed755178f03bd3977e0e8e43becdeacdcf306ba8",
        "5481c0272bcb9313ef8f368f78de1f398877e65a01dee863357d25e56de86e9e",
        "b8e349262152aae3ce57142bef1b6c50618189f0b74b9c47540b4a30850fe14f",
        "671c2759aa18cde95b5e0b2ef7489d05b37b565544329f5164a7e5681043f2d7",
    ),
    ("z2_z3", "ab"): (
        "adf293cdb298963553b26d4035b859a59a0ed41f6b84f776fcd2754f5ca8ea21",
        "2959779bafb2c1e6b349707231f445e4bdedc57275d470d58dafe375c65871c1",
        "749163fe1ab0b115da9cfe0e922428f1aec7c2a448d7461e5089b4cc69c18056",
        "b5058cbcfd08e6ece1380115945c5cbbc6eceb5ede01410b9e7a93a72e4d654d",
    ),
    ("z2_z5", "ab"): (
        "8fdc9b4e0cbedbf8c52cd88a8edc1f56e260324b072a12447d7b6c39e0660ec2",
        "b5b4e6478851ea6d3a5d5d653b8fbc081b84218e94e77773e9d81baceda42be1",
        "deb902ad52e388f3dfc291c0bdad785e83ee97fd12a62aa9fde57f6ef15eda99",
        "585defd873d68e5c916e44ae3dc3a7c33337d074ff61f3d0170a4facc7e3b7c4",
    ),
    ("o2_racg", "ab"): (
        "946c0602b6d80788a9578632e7998884a1a9bcca781afce39835c98616396777",
        "4c45eb3062bc0efadc271918eb73ba564b0294e9b7d1ed5923c339ef4aa4936c",
        "7d9aa113f80b08294bb6b58a29892c3c0cefea0043a1655315deebdfcf9d6304",
        "96212f6607c60f5b5d5cf92ccccb0c040366fdc22fa3ab5dbb8bcbaa64473916",
    ),
    ("k13_racg", "bc"): (
        "4c9790ae4f39f39123083b59def59a37b289e136fc6ea90d6307680812601868",
        "7086da2d47223bc02fe8fb42a32e820b18666146992252b664388e4ee30c8c19",
        "c61a5069bd0d7a18780ebeb269074d87015988d9b1fce5f8125d4fedbbe92b02",
        "4cc19bc0b0915e1aebf6f0b2e93d970de844332acbce93deb4312580c87b0104",
    ),
    ("k13_racg", "bd"): (
        "066c07cd5d08a382b7f20ddf085f406d9b4b3e2792965e73e465d1f195d5a33d",
        "72ffb41f494077d45fbc608aa86163d9a8a4199377229976a37ea188aee7bbe5",
        "c5e11cb2fe1fb2fd30a7d5dde0b3e301755dd6bd3c6a981e5af211616ec58daf",
        "431c9bc682a89ace6f89c7d1e55174b0d5f6c04f23e9691518eeb4b5296d1867",
    ),
    ("k13_racg", "cd"): (
        "0fe790f33a8305bb4056f4a26658f9135f3cdd5692fed71f2295a7da195dc0b6",
        "07043cde47f7dc3d857ada13ec26965af567bb96098905e3d6088c9b358e63c1",
        "3335cfa04d2760ef0ca607cc22deb18b36e1b8e7a6bf8b8f7d4d59096a6bf550",
        "371765d01907cb7df31cf7e9bf548dd10a1ada543a277b513f4892e10c4d3ff9",
    ),
    ("p4_3232", "ac"): (
        "19687b771996e12b417d19ab89f80b069aedb58df5bb8eedb5e3f8a07e50c980",
        "c3432cecc73c97b67de7db1ebcb56fae7f8a0a184ac78d0023bf1bc96a4a6a3f",
        "3dadb703f1d0488ea3e908089741ec0a00f07a2201ca8bc3fa766aa28c90b8e3",
        "10906ce40a87b4413fd77ae2be5b366cad1914d734407e7d59c942135d00b242",
    ),
    ("p4_3232", "ad"): (
        "616719252717687fb7a83a9e07af45690b1452fc5453bb694bbcd1476ed369da",
        "91ba9dc2508ec6dbc397f2e9a731bcf50a9c7bf83e384ed0de7ac2ad957b9a10",
        "59ee31be8d47854bcceb4c47c89403a54a47e29aea9f2d3d2f0d9d93a9a74d09",
        "bcfa413d0a55981d78f5809e2236871559876a4d5b25e7c28a259700203e8984",
    ),
    ("p4_3232", "bd"): (
        "5139dfd9abdea4c7fffcd16502721518074c504d2cdf44f165805023a03fd58a",
        "56f1cd103c474a632bcb0dd0c0495cbb06dd2482981e26ae9cb3242a5a2b1b5e",
        "498ebcd98325c9606595d5a3ea3cf622793c88a786d39edc0b8bced2d833b598",
        "df9d8ebbed46129dbdb853e8a3d269e5ed1b3f984f613cdbf5e3c080098d5739",
    ),
}


def digest(report):
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def presentation(name):
    if name in PRESENTATIONS:
        return PRESENTATIONS[name]()
    return load_presentation(FIXTURES / f"{name}.json")[0]


@pytest.mark.parametrize("name, pair", list(PINNED))
def test_audit_reports_are_pinned(name, pair):
    pres = presentation(name)
    sp = build_splitting(pres, next(p for p in separated_pairs(pres) if p.a + p.b == pair))
    reports = (audit_acylindricity(sp, k=k, tree_radius=5, element_radius=6) for k in (1, 2, 3, 4))
    assert tuple(map(digest, reports)) == PINNED[name, pair]


def test_every_separated_pair_is_pinned():
    for name in {name for name, _ in PINNED}:
        pres = presentation(name)
        assert {p.a + p.b for p in separated_pairs(pres)} == {
            pair for n, pair in PINNED if n == name
        }
