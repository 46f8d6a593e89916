"""The audit's reports at workload radii, pinned: the SHA-256 of the JSON of
``audit_acylindricity(...).to_dict()``, keys sorted, at tree radius 5,
element radius 6 and k = 1 to 4, on every separated pair of the fixtures
p4_racg, z2_z3, z2_z5 and o2_racg and of two presentations built here: the
right-angled Coxeter group on K_{1,3} and P4 with orders (3, 2, 3, 2).

The oracle properties stop at tree radius 3, and the benchmark checks audit
outputs only by meaning, so a faster audit that changes a single byte of a
report, a witness's path label or the order of witnesses fails here. Audits
fail only at k = 1 and 2, and a failing one names one witness per failing
R_k, the base path of that R_k (see ``audit_acylindricity``). A change that
means to alter a report recomputes the digests and says why.

Deeper audits of the same splittings are pinned too, at (k, tree radius) =
(3, 6), (3, 8) and (4, 7), element radius 6, where the paths that do not
turn at the base far outnumber those that do.

The tree balls of the same splittings are pinned too: the SHA-256 of
``tree_ball_to_dot``, which ``export-dot --target tree-ball`` prints, and
``truncated``, at (radius, local radius) = (2, 1), (3, 2) and (4, 2), past
the radii the oracle properties reach.
"""

import hashlib
import json

import pytest

from arboreal.classify import build_splitting, separated_pairs
from arboreal.formats import load_presentation
from arboreal.graphs import SimpleGraph
from arboreal.tree import audit_acylindricity, tree_ball, tree_ball_to_dot
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
        "f69fb2e443f938abf8838eae8dde3b38bd4678c9b2f52ba18ea6abb78fb6b096",
        "97c6d100b7de3f2015b933dbc5380768d47cc3ce19ac7f1b0e5229f18befa3c9",
        "501c428887ac3b5bfc76d53a2bbc60edccbcb01b2da2c2c543461b2e1476eeb4",
        "cf78b0e60e2108739a4738a015d93fab803ea2aef14de7aeebc594d795509297",
    ),
    ("p4_racg", "ad"): (
        "3c3f9da98974643fb8601eda860cff47e2b80626b090b465e18c9c6fe4e045f6",
        "030fe2bd2da0bf7d29812010e00e3e53b89ea0ba2868fd186520c100a6ea67b0",
        "d1a6b551c5113f6eeecff32b51936fba5b78f6db3bc42e0d76e95ed7119c904a",
        "75ec069ad59cbc35050565b66ea6c929c6b4b374bbc1311b99521bac9718bad0",
    ),
    ("p4_racg", "bd"): (
        "fd141bdb5eef008331685c813b34652190c2ec9d8d4ddc2ef241707a462d68eb",
        "7bdd68b025377541cfdac5a10a882e20d226b655ed12b89950b6ce8708601e5c",
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
        "44f9613046f0fc83b50f0f737b7610f85d7e2c004e4a07a0c49e1133d03a5bde",
        "7086da2d47223bc02fe8fb42a32e820b18666146992252b664388e4ee30c8c19",
        "c61a5069bd0d7a18780ebeb269074d87015988d9b1fce5f8125d4fedbbe92b02",
        "4cc19bc0b0915e1aebf6f0b2e93d970de844332acbce93deb4312580c87b0104",
    ),
    ("k13_racg", "bd"): (
        "ee8efff68c072cbbf0b4b2bc6247577d948343466ce039326649e1d49fd23572",
        "72ffb41f494077d45fbc608aa86163d9a8a4199377229976a37ea188aee7bbe5",
        "c5e11cb2fe1fb2fd30a7d5dde0b3e301755dd6bd3c6a981e5af211616ec58daf",
        "431c9bc682a89ace6f89c7d1e55174b0d5f6c04f23e9691518eeb4b5296d1867",
    ),
    ("k13_racg", "cd"): (
        "3b6163d6e50d144ebee742cf44c7f5d19051c22d97f8dcef4dd5a6ba18a63488",
        "07043cde47f7dc3d857ada13ec26965af567bb96098905e3d6088c9b358e63c1",
        "3335cfa04d2760ef0ca607cc22deb18b36e1b8e7a6bf8b8f7d4d59096a6bf550",
        "371765d01907cb7df31cf7e9bf548dd10a1ada543a277b513f4892e10c4d3ff9",
    ),
    ("p4_3232", "ac"): (
        "9903297a4cd263fcdd5ef13ed1ac335ec9bee81835aa9e67b0250f5902c82545",
        "aede7d69802ebd31c2016ae1364466d9829b175e33023e20a6e635ad67be2cca",
        "3dadb703f1d0488ea3e908089741ec0a00f07a2201ca8bc3fa766aa28c90b8e3",
        "10906ce40a87b4413fd77ae2be5b366cad1914d734407e7d59c942135d00b242",
    ),
    ("p4_3232", "ad"): (
        "fafb6f01d2fbc835c182501def0f7a7e9d536f3bedaf94632ea2d8c052c38015",
        "86314df4ac870e8861ff8939fa36523cf17d04cc5c83ec48e7ca09f216fe474e",
        "59ee31be8d47854bcceb4c47c89403a54a47e29aea9f2d3d2f0d9d93a9a74d09",
        "bcfa413d0a55981d78f5809e2236871559876a4d5b25e7c28a259700203e8984",
    ),
    ("p4_3232", "bd"): (
        "03c1459a32e5492f454f8fece0cbfe39221588226087bd332730427d11c74c78",
        "c1d3ea4b42d5f5ca41294e1754e885106c825f244b3626d5b886ff330e2e7957",
        "498ebcd98325c9606595d5a3ea3cf622793c88a786d39edc0b8bced2d833b598",
        "df9d8ebbed46129dbdb853e8a3d269e5ed1b3f984f613cdbf5e3c080098d5739",
    ),
}

# (presentation, separated pair) -> digests at (k, tree radius) in DEEP_LIMITS
DEEP_PINNED = {
    ("p4_racg", "ac"): (
        "2d9e86e0f27f0b29f9e2988903cab19625e835435dd7f1713fdbd01cccf9a963",
        "e6333a67db6dd749aa8667df93ea34099f00f071727b26e360e4b6d0bcb950f4",
        "d64d2f1fa0bc6454e53f5d252064b8a55dbd6d03d503461869bd84038c21d6ad",
    ),
    ("p4_racg", "ad"): (
        "0b8feb3bd214b67f80ddd49f21a8cf06d7ef0ae9a04bccfaf84d478cdb9ac480",
        "90618b43735398051131fd98da75c8b6c433daf764bb135bb1ba5c3ccf03474c",
        "82efb6a0c9150123affacd2500ef0bf34173396471fd8f8792bd70c5b6e7a826",
    ),
    ("p4_racg", "bd"): (
        "9be99f12eb0d8b42646e8627ed8b28f21ecb7633e9a7bfc170e658bbafb95af4",
        "59a61f4291d5050dfde0bba1135afe5e1e57ad9d2c08e0669715e3d8086b1158",
        "cc2c8310224f0853f34ab46d4a3241a3b63f08f0034405d8cc38dc7ba55c80ab",
    ),
    ("z2_z3", "ab"): (
        "fbef97f2e211a5b128af647eac5c0223bcfd17d8cf6341c6b0adcdd415db3d50",
        "bd62962b92ae8cdaccf7b1419413030dc80d2960f89a40283d3dd30bd9169c00",
        "8b95ee33efdc491f3ecdd5f79dd9dca1b2c582ef2ac5f3202acdd341aee88149",
    ),
    ("z2_z5", "ab"): (
        "0f5d79d04d83864b065b29fec228b6e93168486cfb3687a769d908e84ffa5af5",
        "a164eef5d7143d2e5a433b27af7cb21fbdd25ea69861027cac2d496485a39d15",
        "87ce9d62619cd90bacd788c5178ab11d6170bb379189a5f0121a7556e13bb18c",
    ),
    ("o2_racg", "ab"): (
        "504233b25ba191e297ac2cfb88bb1985ea87e773a90d646c9e9c6d720e864e58",
        "c286be2eec9d3eb0f50e762c95ce492f432762f1865a87493e0362101a9b64ed",
        "fdbc850d0491a9232d8943c9ee770318dd04a6b3048db8e40cf27b0a57ae5391",
    ),
    ("k13_racg", "bc"): (
        "8c0b5b4106cfe3131a049f6b01ecc1509e36189b6d0a4b3a13779d2ea7d42a0c",
        "532d399665872089f85e5b0fbdcc36c296da71454edb5965f37b77d94c1bfb7a",
        "ef9df9e5bdb5499518db78da94b7d25d50475b226e67cb362b3767053e3d1191",
    ),
    ("k13_racg", "bd"): (
        "93021edd5a0b0e4bafe26165f5ff0c0a5fa0a11d8ef86df0975c8ba0f40e333c",
        "3a255b9a55973c73db34c22ea61cf8293cd9926ea98c9c8e4e9de861f27b091c",
        "a36f71a4e2d7c261ab292ee672e171ceece43889d5ca7fc98f6eb2f44ccbdd65",
    ),
    ("k13_racg", "cd"): (
        "dbf10d3670e2aeb833484c9a5f9142ed2e8c83630e529543a3e69a8c254f681b",
        "ebc3e7b71f580d52011daf402a6cc5136bb733a9615d26f47354d4c4d5cef227",
        "8de91b06255f32b09573e31c02066c40f7cb89342f4908e427a624b6dd81ea34",
    ),
    ("p4_3232", "ac"): (
        "ec0029b930d4936f740d60f0ec9fce4a6deba45be73944a0c47bce4cc762e96d",
        "d437ed5dcfe2c3e2821f4da87380d689eeb9e7ecc97f9852fc1421c029f85f07",
        "f8090ead793003d782fe2ccd3cb2d67977c1a8f98f6434afe92cc479023b0bf8",
    ),
    ("p4_3232", "ad"): (
        "3ef5440e3e99e7478e4ce955e8f5c2618e47f23320196ef9200225570c5c9e1b",
        "f5a867aa6091e47ee6ff74b5a74499377757acc52e1b404175b865a23f98a5a2",
        "1f80233467e03a0323cb60ced9054135e621aafbe85f7648420b7a3b780a99e1",
    ),
    ("p4_3232", "bd"): (
        "098c830a7c0ee403d6cb2826295d65a7754379bb3b7189e9fc8d9eaffa0241ad",
        "7af7222c26d69ade6f79473d2d655c30406e74fc766733e6505b86579540907d",
        "0c612dfe91be2e8b9eafdc8a713417b5967d2070c48dc1fe650680f4a688c0e2",
    ),
}
DEEP_LIMITS = ((3, 6), (3, 8), (4, 7))


# (presentation, separated pair) -> (digest, truncated) at (radius, local radius)
# = (2, 1), (3, 2), (4, 2)
BALL_PINNED = {
    ("p4_racg", "ac"): (
        ("2af5a018df56e362f2f5276a2cac69c90ec71b7e6f053e09da17e4e1d0cee0e6", True),
        ("e7454c5e743d7369f62724ba051762893570ca6db58b4a32613759b6c4bd3a7a", True),
        ("4de72d8f061fe0ca7d5c125f00fec1b3cb5d180dee5d539400afbdffe4413982", True),
    ),
    ("p4_racg", "ad"): (
        ("16c2ec1b99defcae18c0a1e8ebdacfc7dffddf927a5c42dae6243f29d671fa31", True),
        ("5d943a4f8ac58e5c8e55a4e6166e9bb4e3383ecef3e50f6c4a09e5793291739b", True),
        ("afca929e311159319e531d67e8bef240f6fda6736da3df433f1cebbe9de6d547", True),
    ),
    ("p4_racg", "bd"): (
        ("89475946e92b5bb873fd2899c62a000eac695047421de6c721fd0110e4409c4a", True),
        ("cf8f9426493d2288b405933994156bd6d462eec89aeac6eb77b77fe38008e0b7", True),
        ("585c18691a1aa6961a6ee4fa45d709004587ba2229613f1631985163be9b4b35", True),
    ),
    ("z2_z3", "ab"): (
        ("c3536a5dbda18c4d01d530574be4d8a8563ea2b54bbf1a2fa097ed4c2542d334", False),
        ("cf574217ed03bae48ad13c57ad2bd844087b0214c458defb93ea992721134b20", False),
        ("b377d18d7a93b0cb3801c8a4db33b7891ed5a2b6f90f41b6a7aa4a3424710e1c", False),
    ),
    ("z2_z5", "ab"): (
        ("5abc14f14a7ff48aedf723cb0a0e931165b69ceaf7ad9ff050cba7084e31f1e8", False),
        ("cf8c7f902b11a732a98fec33630acae2d9ba95118664c78e69a4b5c50616f868", False),
        ("e99b82312157f8494909d1c0f3cf362d3cbb989636efa6f4b832cc1135eda0ca", False),
    ),
    ("o2_racg", "ab"): (
        ("62508f4b1a57130b164f5c45d30b7497c4200cd3415490f8e7b9895609317737", False),
        ("14c7b96a6f6408eb820fd8726140994b907e1f77d58b8e80e01a8e75d6a87c3a", False),
        ("52018dc1bd3276111cc6d3f9bc673e285984dbbb918729cff275b2b94a4bdcfd", False),
    ),
    ("k13_racg", "bc"): (
        ("fcca1f4419eb3ac723f561254255a39f91d161f8c0aa2131cb822b4cd661c207", True),
        ("66f80243994cccecfe717489a04e8222834e26a6ad636f6076c8d1d77451058e", True),
        ("ef3a409aa1a1b71f966b5c796a5071fe8d4e185e199f2c685dc144677dc2c5a7", True),
    ),
    ("k13_racg", "bd"): (
        ("89475946e92b5bb873fd2899c62a000eac695047421de6c721fd0110e4409c4a", True),
        ("0201c0dc7a259a5dc29a6904c5a5a0c55bac5588fe3a79ce8bf277ca14243bf8", True),
        ("ac39abe7978147742eec801241f05961a2dbcb6a1ad606dc8beb9768786eb610", True),
    ),
    ("k13_racg", "cd"): (
        ("602aaa5eb6796ae02fa24fec20b4c73a45bdc25f472865d7a40644c5a8404f04", True),
        ("51abf05d1ea7b059a6cfb6ed7031e53f2de0d679df308dfee7c2ed1c2b0a9be7", True),
        ("f3ae89c45b8b70713c24dcfe7209ae7acadb7dd7cd7a605d74c95ee395cfb2ce", True),
    ),
    ("p4_3232", "ac"): (
        ("46a623ddd0f8950e2d28b4504b6010aa2d77a60d70b29c174b4b32c713178aff", True),
        ("d6d4a9396a52d3dd1343d030cae13c0f9cbad20f2eb0c40b7c54e1d23fb85417", True),
        ("e32035e1a2e32eb0837aa81155aa6917aa43a223c5de238579cd9a814e5797dd", True),
    ),
    ("p4_3232", "ad"): (
        ("8c56f9589e9c60461e8a1ac062c412879335d8bf73b223d223bd8813cb5137b5", True),
        ("2e09b5b0cb2f835e2e481c1c5a0e92654eeb381dbba1bc81771f0618bfeebddf", True),
        ("524d61914884c49645223509378c5c82e9277a8448eb4bba2c428176917756e7", True),
    ),
    ("p4_3232", "bd"): (
        ("89475946e92b5bb873fd2899c62a000eac695047421de6c721fd0110e4409c4a", True),
        ("fd66cc0f00c3bad73753d845b54c43771e644183ab2b92ec600a34feeec410d8", True),
        ("2a4ac08223adf7658693c5961988bc859f18f5595d85d1f1e097186c6661e571", True),
    ),
}
BALL_RADII = ((2, 1), (3, 2), (4, 2))


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


@pytest.mark.parametrize("name, pair", list(DEEP_PINNED))
def test_deep_audit_reports_are_pinned(name, pair):
    pres = presentation(name)
    sp = build_splitting(pres, next(p for p in separated_pairs(pres) if p.a + p.b == pair))
    reports = (
        audit_acylindricity(sp, k=k, tree_radius=tree_radius, element_radius=6)
        for k, tree_radius in DEEP_LIMITS
    )
    assert tuple(map(digest, reports)) == DEEP_PINNED[name, pair]


@pytest.mark.parametrize("name, pair", list(BALL_PINNED))
def test_tree_balls_are_pinned(name, pair):
    pres = presentation(name)
    sp = build_splitting(pres, next(p for p in separated_pairs(pres) if p.a + p.b == pair))
    balls = (tree_ball(sp, *radii) for radii in BALL_RADII)
    assert tuple(
        (hashlib.sha256(tree_ball_to_dot(ball).encode()).hexdigest(), ball.truncated)
        for ball in balls
    ) == BALL_PINNED[name, pair]


def test_every_separated_pair_is_pinned():
    for name in {name for name, _ in PINNED}:
        pres = presentation(name)
        assert {p.a + p.b for p in separated_pairs(pres)} == {
            pair for n, pair in PINNED if n == name
        }
    assert set(BALL_PINNED) == set(DEEP_PINNED) == set(PINNED)
