"""Byte-identity gate: sha256 of ``serialize()`` for a fixed set of networks.

The hashes were recorded before the square-chain emitters were merged into
one; any refactor of the emulation or assembly code must leave every one of
them unchanged.  p = 2 reaches the degree-0 bubble tail and p = 6 the
non-final Horner stage of a bubble branch.  ``MEASURED`` pins the
``float.hex`` of the measured sup, derivative sup and H1 errors that
``basis_net`` records, so a change to the measurement pass cannot move
them unseen.
"""

import hashlib

import pytest

from hprelu.assembly import build_phi_eps_c
from hprelu.basis import build_basis
from hprelu.catalog import analytic_fn, corner_singular
from hprelu.emulation import plan_budget, product_net
from hprelu.mesh import graded_axis
from hprelu.network import serialize
from hprelu.projector import hp_interpolate

from helpers import basis_net, pwpoly_net, square_net

PINNED = {
    "square_1": "e56e6538ff3a2420c4760b7abacb57689ead58eb335a25998c4a8a6486a0fd15",
    "square_2": "d5ad03b865e2b75d2144fd1b88c01f573baf1a4c6d303bbfca1a2fd159a6a699",
    "square_3": "71a2cbf93e8ef6b7e6432af79e5c5c3b3453a5b3fb66e5a5a4646a251cc562d3",
    "square_4": "f30d7cad13601a527c3ab053b7b089f9de6123f7ab3b216324e6846433986300",
    "square_5": "27caf691c4ad75991bb6d7c3573e6be044f190868ba8753c7661fe89d50fd51c",
    "square_6": "c90becde72bfefbb5d4b9fb60be8f6bd63e9a543e58bd9d44fc62a5216e990fd",
    "square_7": "28baf8cf6f32c034a22e9b564bcacaa2e20e801b3cd2c6e9f2c8a1f5d76829cd",
    "square_8": "292085f6a7722946dd1b97d9a40fada268130f9c8d467bd5b2158f7bac72112b",
    "product_d2_eps0.001_M1": "08cee64a6c84356901fde38190c379548223f80f4d4f3f14a8754560eddac1d0",
    "product_d2_eps0.01_M2": "d388ef35327f12590b18054ed8885b5f390a793f2d420a2d4a1a3ee31dfdf027",
    "product_d3_eps0.001_M1": "1f436b607c027fa80355aec002306d1dda15167173847738954a8220709bd09e",
    "product_d3_eps0.01_M2": "b16b2600d73a42247f829b785efdb14501232c5dee4b2e6583921b1c730cdbd1",
    "product_d4_eps0.001_M1": "09e55936a95747cda9d2c187f849a11a13ed5bf86c1f56240f67f1c2eeaf1e11",
    "product_d4_eps0.01_M2": "261a2e0000d23fa60f29d6d0cfb3616274cce4e47465bd84c481f702daa50f34",
    "pwpoly_p1_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "basis_p1_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "pwpoly_p1_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "basis_p1_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "pwpoly_p1_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "basis_p1_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "pwpoly_p1_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "basis_p1_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "pwpoly_p2_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "basis_p2_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "pwpoly_p2_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "basis_p2_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "pwpoly_p2_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "basis_p2_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "pwpoly_p2_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "basis_p2_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "pwpoly_p2_4": "34d8d101b85802be5ac99c7b26ecc669dd36ed5a5a869350b9a3120ff3f73588",
    "basis_p2_4": "475cfe6f30088c17b7e31ec331c4c96bd4f9a1db69c7dcc9d9cbe7054c980530",
    "pwpoly_p2_5": "588687a9c2a92305e28bda2309b78a19e1d0f07c0e5fe8a38202d13b577419e9",
    "basis_p2_5": "833ebd1da90dd11d38636d5b83de7c7040b31bb8780197171650baf3db08f5d2",
    "pwpoly_p2_6": "9bf9a7f95040f0ea0fcd5ca0f6586885623c26ad3057dabe9dcec5e3fac6d615",
    "basis_p2_6": "83a153a7ff7d5b0e39ac014080a0e32febc9170dfca52cf81e7aa7135bc761e7",
    "pwpoly_p4_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "basis_p4_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "pwpoly_p4_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "basis_p4_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "pwpoly_p4_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "basis_p4_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "pwpoly_p4_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "basis_p4_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "pwpoly_p4_4": "34d8d101b85802be5ac99c7b26ecc669dd36ed5a5a869350b9a3120ff3f73588",
    "basis_p4_4": "475cfe6f30088c17b7e31ec331c4c96bd4f9a1db69c7dcc9d9cbe7054c980530",
    "pwpoly_p4_5": "a23abee5c3da6a7880c19a1810d84bb5b228104638e0ab0979ca094dd6ebba93",
    "basis_p4_5": "2f140c543e420d2bc084be8cde265b923939ebe86ec7c4ede784eb7ca0457825",
    "pwpoly_p4_6": "7e1ad5116be5e3e8858e473375cb71cf8e87eb3a715c96b1059ca8807bced22a",
    "basis_p4_6": "7e1ad5116be5e3e8858e473375cb71cf8e87eb3a715c96b1059ca8807bced22a",
    "pwpoly_p4_7": "588687a9c2a92305e28bda2309b78a19e1d0f07c0e5fe8a38202d13b577419e9",
    "basis_p4_7": "833ebd1da90dd11d38636d5b83de7c7040b31bb8780197171650baf3db08f5d2",
    "pwpoly_p4_8": "13f3d0bbb479fc7c6a5467ba9c03955657d70d150fbd5e80dae6bdbfa9ad4be6",
    "basis_p4_8": "b6a945a8c02112413dcff3da53cde847006616989c28e415ac4335c549db73f7",
    "pwpoly_p4_9": "0853373f66fe5714c6aac6def4a60ff4cba33a562f529613faa4ef431ae800a0",
    "basis_p4_9": "0853373f66fe5714c6aac6def4a60ff4cba33a562f529613faa4ef431ae800a0",
    "pwpoly_p4_10": "9bf9a7f95040f0ea0fcd5ca0f6586885623c26ad3057dabe9dcec5e3fac6d615",
    "basis_p4_10": "83a153a7ff7d5b0e39ac014080a0e32febc9170dfca52cf81e7aa7135bc761e7",
    "pwpoly_p4_11": "9e84e3baed3b29d262a904604119864f28d79fcb97ea28449f2c069c3a025940",
    "basis_p4_11": "1b84eaf52f0df8045a954a499d40d02ad598a9f06339c1c9f7a77c7a8be7bae5",
    "pwpoly_p4_12": "9e92e2b406cf15590dfbfc84be5b29d0ad0dd02805ca0cbef5f2550d0d9e57af",
    "basis_p4_12": "9e92e2b406cf15590dfbfc84be5b29d0ad0dd02805ca0cbef5f2550d0d9e57af",
    "pwpoly_p6_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "basis_p6_0": "fc17d6637bd4760f38f5e323cfcb4da4cab82ff307257cecb5f2a594c87e3a8e",
    "pwpoly_p6_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "basis_p6_1": "03f795eb643a8437a96c1931602698cd46c87ab4179067b7989b65f23207e60d",
    "pwpoly_p6_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "basis_p6_2": "e83c6f849c7fb7b1459cffa44fc75da8ef62a8e743cd2f47df9600b441c85e26",
    "pwpoly_p6_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "basis_p6_3": "7683f595d75554271d0f8ede62e7a966f6b167a000884e3cc76876d371d0a072",
    "pwpoly_p6_4": "34d8d101b85802be5ac99c7b26ecc669dd36ed5a5a869350b9a3120ff3f73588",
    "basis_p6_4": "475cfe6f30088c17b7e31ec331c4c96bd4f9a1db69c7dcc9d9cbe7054c980530",
    "pwpoly_p6_5": "a23abee5c3da6a7880c19a1810d84bb5b228104638e0ab0979ca094dd6ebba93",
    "basis_p6_5": "2f140c543e420d2bc084be8cde265b923939ebe86ec7c4ede784eb7ca0457825",
    "pwpoly_p6_6": "7e1ad5116be5e3e8858e473375cb71cf8e87eb3a715c96b1059ca8807bced22a",
    "basis_p6_6": "7e1ad5116be5e3e8858e473375cb71cf8e87eb3a715c96b1059ca8807bced22a",
    "pwpoly_p6_7": "b3c212c162a45aae5c6d72ffa3d3606536783db1f2eb63d162096372f4169cd9",
    "basis_p6_7": "c9e539312d102863aaaf9c57a17880a5c7782b445844cda7093283253694bd62",
    "pwpoly_p6_8": "99fda95c9d579c30ad44bdfd8be2041c827ee209aa33104efaf84350b6459d2e",
    "basis_p6_8": "71680f61c2178ae61fa2ebe5ede79321668376a129ab51a2727386676de375b3",
    "pwpoly_p6_9": "588687a9c2a92305e28bda2309b78a19e1d0f07c0e5fe8a38202d13b577419e9",
    "basis_p6_9": "833ebd1da90dd11d38636d5b83de7c7040b31bb8780197171650baf3db08f5d2",
    "pwpoly_p6_10": "13f3d0bbb479fc7c6a5467ba9c03955657d70d150fbd5e80dae6bdbfa9ad4be6",
    "basis_p6_10": "b6a945a8c02112413dcff3da53cde847006616989c28e415ac4335c549db73f7",
    "pwpoly_p6_11": "0853373f66fe5714c6aac6def4a60ff4cba33a562f529613faa4ef431ae800a0",
    "basis_p6_11": "0853373f66fe5714c6aac6def4a60ff4cba33a562f529613faa4ef431ae800a0",
    "pwpoly_p6_12": "36e6587c5f1e509315cfbb31b3368890dbd4a1f609990c3448197f242a7b3469",
    "basis_p6_12": "5ce13c59c64da392382f2236398430e94cea8983b2394a78298f35395ac3202e",
    "pwpoly_p6_13": "938e728a8637c27cb6a067cb01143a721f3b88d416e3072d2aa40a3d130bc3fb",
    "basis_p6_13": "0293f67816ab4cf340c2f830b1cb45e2ae6c5ccec56a15c32f6d067b874118ef",
    "pwpoly_p6_14": "9bf9a7f95040f0ea0fcd5ca0f6586885623c26ad3057dabe9dcec5e3fac6d615",
    "basis_p6_14": "83a153a7ff7d5b0e39ac014080a0e32febc9170dfca52cf81e7aa7135bc761e7",
    "pwpoly_p6_15": "9e84e3baed3b29d262a904604119864f28d79fcb97ea28449f2c069c3a025940",
    "basis_p6_15": "1b84eaf52f0df8045a954a499d40d02ad598a9f06339c1c9f7a77c7a8be7bae5",
    "pwpoly_p6_16": "9e92e2b406cf15590dfbfc84be5b29d0ad0dd02805ca0cbef5f2550d0d9e57af",
    "basis_p6_16": "9e92e2b406cf15590dfbfc84be5b29d0ad0dd02805ca0cbef5f2550d0d9e57af",
    "pwpoly_p6_17": "26b33e944c5be8a8fb252e771b9b9b29f6d74c5366aef07de99aa361e00b8300",
    "basis_p6_17": "439a355aa6b2a999879d7cce4195a441863eef91af58732936dc4c974ccf1f1c",
    "pwpoly_p6_18": "175c83f78974cc134e927639bf656c9e5830895cbd6e023244671e98e0fd6c2b",
    "basis_p6_18": "0745d4d8426c4231dc2a550b3bd99aca531aa60a24ec4ec1c9af960bb554105c",
    "phi_eps_c_corner": "2602f583b7ed90ce073ca9492b325ce3db9038260c196c854e5f083766f53fc8",
    "phi_eps_c_corner_3d": "09bcb964a3f2e9b8a96bdae044f93f60d86d8dd47f4ec1f0756a8f75001da9a5",
    "phi_eps_c_two_rows": "121769ef47932d0668c39ad635baa5206519171638464224102dcf8830981bad",
    "phi_eps_c_sym": "c261183485373481ec2b56d53314d7eddeefffadde7f3ca32fdb7a52a7e8f3c8",
}

# measured_sup, measured_dsup, h1_err of basis_net(bf, 1e-2)
MEASURED = {
    "basis_p2_0": "0x1.0000000000000p-53 0x0.0p+0 0x1.0cab6728baa4dp-56",
    "basis_p2_1": "0x1.0000000000000p-54 0x0.0p+0 0x1.098f0f834faadp-56",
    "basis_p2_2": "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "basis_p2_3": "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "basis_p2_4": "0x1.f6eb100000000p-35 0x1.bce4217d30000p-15 0x1.1d16793d56f6cp-16",
    "basis_p2_5": "0x1.f6eb000000000p-35 0x1.bce4217d40000p-15 0x1.1d16793d4d808p-16",
    "basis_p2_6": "0x1.f6eb000000000p-35 0x1.bce4217d40000p-16 0x1.932ccdd0eb3c6p-17",
    "basis_p4_0": "0x1.0000000000000p-53 0x0.0p+0 0x1.0cab6728baa4dp-56",
    "basis_p4_1": "0x1.0000000000000p-54 0x0.0p+0 0x1.098f0f834faadp-56",
    "basis_p4_2": "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "basis_p4_3": "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "basis_p4_4": "0x1.f6eb100000000p-35 0x1.bce4217d30000p-15 0x1.1d16793d56f6cp-16",
    "basis_p4_5": "0x1.fd813c8000000p-31 0x1.0d215948c0000p-11 0x1.ddb40ab007be1p-14",
    "basis_p4_6": "0x1.fb1bfa0000000p-33 0x1.79e94f9936000p-12 0x1.1dbf4c44ebdc5p-14",
    "basis_p4_7": "0x1.f6eb000000000p-35 0x1.bce4217d40000p-15 0x1.1d16793d4d808p-16",
    "basis_p4_8": "0x1.fd81360000000p-31 0x1.0d215948c6000p-11 0x1.ddb40ab006bfbp-14",
    "basis_p4_9": "0x1.fb1bc40000000p-33 0x1.79e94f9924000p-12 0x1.1dbf4c44f1c3bp-14",
    "basis_p4_10": "0x1.f6eb000000000p-35 0x1.bce4217d40000p-16 0x1.932ccdd0eb3c6p-17",
    "basis_p4_11": "0x1.fd81360000000p-31 0x1.0d215948c6000p-12 0x1.51c98831894a2p-14",
    "basis_p4_12": "0x1.fb1bc40000000p-33 0x1.79e94f9924000p-13 0x1.941b8ec114881p-15",
}


def _sha(net):
    return hashlib.sha256(serialize(net).encode()).hexdigest()


def _check(got):
    want = {k: PINNED[k] for k in got}
    assert got == want


def test_square_hashes():
    _check({f"square_{m}": _sha(square_net(m)) for m in range(1, 9)})


@pytest.mark.parametrize("d", [2, 3, 4])
def test_product_hashes(d):
    _check({f"product_d{d}_eps{eps:g}_M{M:g}": _sha(product_net(d, plan_budget(d, eps, M)))
            for eps, M in ((1e-3, 1.0), (1e-2, 2.0))})


@pytest.mark.parametrize("p", [1, 2, 4, 6])
def test_basis_hashes(p):
    got = {}
    measured = {}
    for i, bf in enumerate(build_basis(graded_axis(0.0, 1.0, (0.0,), 0.5, 2), p)):
        got[f"pwpoly_p{p}_{i}"] = _sha(pwpoly_net(bf, 1e-3))
        net = basis_net(bf, 1e-2)
        got[f"basis_p{p}_{i}"] = _sha(net)
        measured[f"basis_p{p}_{i}"] = " ".join(
            float.hex(net.meta[k]) for k in ("measured_sup", "measured_dsup", "h1_err"))
    _check(got)
    if p in (2, 4):
        assert measured == {k: MEASURED[k] for k in measured}


def test_compiled_hash():
    interp = hp_interpolate(corner_singular(2, 0.5), graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 2)
    _check({"phi_eps_c_corner": _sha(build_phi_eps_c(interp, 1e-2))})

def test_compiled_hash_3d():
    interp = hp_interpolate(corner_singular(3, 0.8), graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 2)
    _check({"phi_eps_c_corner_3d": _sha(build_phi_eps_c(interp, 1e-1))})


def test_compiled_hash_two_rows():
    axis = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    interp = hp_interpolate(corner_singular(2, 0.5), axis, 2)
    other = hp_interpolate(analytic_fn(2, "trig", {"freq": [1.0, 2.0]}), axis, 2)
    _check({"phi_eps_c_two_rows": _sha(build_phi_eps_c(interp, 1e-2, rows=[interp, other]))})


def test_compiled_hash_sym():
    # the sym domain's axis, recorded from the hand-written four-patch
    # constructor; its center node is -0.0, and the same net with a +0.0
    # center hashes to cf225c2b...
    axis = graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), 0.5, 1)
    interp = hp_interpolate(corner_singular(2, 0.5), axis, 2)
    _check({"phi_eps_c_sym": _sha(build_phi_eps_c(interp, 1e-1))})
