"""Golden SHA-256 digests: CLI documents and section rings that must stay
byte-identical.

The digests were taken from the implementation before the sparse section
solve and the shared e-polynomial evaluator.  DOCUMENTS covers the seven
section commands of the benchmark, `qh semisimple` and `qh presentation` for
every box with k <= 4 and n <= 8, and two ambient `qh charpoly` commands, all
with `--format json`; each must exit 0.  RINGS covers repr() of the solved
section rings, entry types and dict order included, and LIFTS the lift
polynomials of the test oracle.
"""

import contextlib
import hashlib
import io

import pytest

from oracles import build_lifts
from qhgrass import cli
from qhgrass.section import SectionRing

DOCUMENTS = {
    "qh semisimple --section --k 3 --n 6":
        "2c3bc0660c01e1e52ae4be1e33d10c9d826e1616f5477880edc3e27f3061dcb2",
    "qh semisimple --section --k 3 --n 7":
        "be0707ac19dc34598024128f59d893f0a080dc049bacb2433cb09c656797f546",
    "qh semisimple --section --k 3 --n 8":
        "2f5d7c1f8b834b5a5eb37406f6b1eca01e482ac682dbcc4aae7a43a010165cb7",
    "qh lefschetz --n 7":
        "f3038f57cb06b280a944dc5d9dfc21ffd3c9b3171090390b8b0a62d9aaebcddd",
    "qh lefschetz --n 8":
        "3cc556c309b1f7e8f52e8e8f2bc97c8bf0292e14731b3672f05419182eb92a0e",
    "qh charpoly --section --k 3 --n 7 --power 6":
        "5afe2b4060831c7ed08a5da7f7f540949bc6b0fe4ab3f163e3d878357692dd12",
    "qh charpoly --section --k 3 --n 8 --power 5 --with-e2":
        "5267cd84379d379f1903d827b01d40b452d5d6e89649ba2ea25cca86ee72c4b1",
    "qh charpoly --k 3 --n 7 --power 7":
        "50b03d22c94f5f0ae4a692e774af0b4b5904c779ea6aabbbaa7b419752a2fdbf",
    "qh charpoly --k 3 --n 8 --power 6 --with-e2":
        "84cf3aea8bc11d4b93b9030f12b0477177c88e9921b324772f277967871ad841",
    "qh semisimple --k 1 --n 2":
        "70cd387943ea89c57700c29e3ea3ea30bef8c61ac9a97a17055e3995042c8e3d",
    "qh presentation --k 1 --n 2":
        "bb96eea239ec7113d00db5213bb44bf0dea46102f3c3bd54d6bc840524005965",
    "qh semisimple --k 1 --n 3":
        "78b3d49cb2e004f9cf53aa6b4ca8d7210d4490e7a4fea27a9e9f8510691e2de2",
    "qh presentation --k 1 --n 3":
        "c0e057ac883c1d9e200ad9cbfda98b0ac2fdc27df31f53022aef25f6715f70fb",
    "qh semisimple --k 1 --n 4":
        "f61750eb5c2ab090a4cf67f6591fef9d30230cd61380c81f818024edea024603",
    "qh presentation --k 1 --n 4":
        "4d044a66f0bd85f13a7c4b68bb3d306aa771a0913f8c1a29fe0cfd148f043307",
    "qh semisimple --k 1 --n 5":
        "3acc0410241a333a8e28a152dda8fe1af3d2d7acd339aa41e8be9906b4ba9a1d",
    "qh presentation --k 1 --n 5":
        "3d2324b814d6315423fbfc6ce6f1ce38dbe4fb0630c5c34a9cd7ff09a509abf4",
    "qh semisimple --k 1 --n 6":
        "7ccc117c2f60b2d32f3c030fdecc020731f969cd29f4f4585d9f80e2c2bce3c2",
    "qh presentation --k 1 --n 6":
        "90b0075e54cdfec5e5e6bd92e3af6c4c61b4c57e8b6a418ebae3ece4c91aeeee",
    "qh semisimple --k 1 --n 7":
        "c87bb60acf52b9e34300994c8a96fc883d60d310833ff1c1fe7a6b0653315a98",
    "qh presentation --k 1 --n 7":
        "c19784dc582fb1f0811f6a0632de348cf5d95b9ee29a17df38bbcefee22fc649",
    "qh semisimple --k 1 --n 8":
        "48d01aa7cd0e3024d3199aa0fe98254f97859f9350f25130e75c943572b9cd85",
    "qh presentation --k 1 --n 8":
        "2926be290c5e661bfa61282cc87f5e325ba3bccfaa8bd95b8bed00bc7cef927a",
    "qh semisimple --k 2 --n 3":
        "fb4a012f2ee8bdb692a7a80bd097223a1ec7fe88aba53a4bb58ee9de2c8ab0bd",
    "qh presentation --k 2 --n 3":
        "5f24495b45fbf56ee5b280e3e46c9278ff3328e1c4a17e7908c1d7f797e1e866",
    "qh semisimple --k 2 --n 4":
        "24f1b2db6ea7d1cc0d17581527adeee2551ac6381bd77861248236a79318eaec",
    "qh presentation --k 2 --n 4":
        "73516c829c0d4a12b333c752242bc7889ad0b14548be7cfbe8230301c1fd1d3c",
    "qh semisimple --k 2 --n 5":
        "55e14a48a2b4fdc702249319abd950c9241fa86a310482f60977215bf80476a1",
    "qh presentation --k 2 --n 5":
        "44cc04aa75013bedb97f839499c1b2c158a4ec810b070021d47f95f913e1fd39",
    "qh semisimple --k 2 --n 6":
        "6fcabb7bc63679c7a46e4fcb9c211711efad5d0d787fb3ee0dfd412f52d9f3cb",
    "qh presentation --k 2 --n 6":
        "e651265e34618cf9486d7913386c4dc633b6f1187c460143d626188ffb382d43",
    "qh semisimple --k 2 --n 7":
        "1b68c67ad2d3472dd34341f227bdd94517d069a9150288e6db3dd86b5f895455",
    "qh presentation --k 2 --n 7":
        "d5e897da751e324fda3ed5e68382ad598dda7a54f45a339e6e4738d6df7dbfae",
    "qh semisimple --k 2 --n 8":
        "c8cf3c587e6d6f6a54322f6c7990c550cea12b1c93cf5b6d9e908d1febe65e5c",
    "qh presentation --k 2 --n 8":
        "c2e13f8233f9bc29304af4a6137742d9b13bcffdfe6ab288456bb374757c8101",
    "qh semisimple --k 3 --n 4":
        "fcaaf5ef794b69b96a989991fe2e35efd7c19fa272b7cfa8d5e3a74609018be8",
    "qh presentation --k 3 --n 4":
        "cce1d1e38a73198f475cb71384dbbcd11af705decc83c8040c26f51a2c887e67",
    "qh semisimple --k 3 --n 5":
        "4f8b582f9de7e0470753d229052ab76cfea5f3883322f26cbc0ea0ed15ec13d5",
    "qh presentation --k 3 --n 5":
        "a429b7183d52d061c85f38615b34fb4a374b0e54ef505fc404b63c8e5dff86ea",
    "qh semisimple --k 3 --n 6":
        "4c524f693d99ded87112f7229113c0169a2a596a1671e6feaea09262faebab21",
    "qh presentation --k 3 --n 6":
        "3672273148a92ae14846fb61f8d9b7f378401a180d655f8f8fac1ac60878d701",
    "qh semisimple --k 3 --n 7":
        "7259ec861678a939cf7a4490eadc8375d59a874ff26bc1cc767f99dd741c6839",
    "qh presentation --k 3 --n 7":
        "05389149e3aa6b181db120e79b15393f857cf971f985e9147f28b5757ac6812c",
    "qh semisimple --k 3 --n 8":
        "7a44584b557a93e0e233045a497c529793978ccc18e280551fcc99a3120eb0b1",
    "qh presentation --k 3 --n 8":
        "565efdc7122b8d3f33e4a72f082d0cb6d3c5c3f8abfac82381efc76c0f241b1b",
    "qh semisimple --k 4 --n 5":
        "f25654b73506d24fe46267a40e3c85c7960aeb7153937c22944824242f38eb24",
    "qh presentation --k 4 --n 5":
        "6113ddcd061bafbc2dd7e5dd54df94e40d459ab87a189968ca5a4ce1765335da",
    "qh semisimple --k 4 --n 6":
        "bd4a5b5c612001be797663c92297d1b1d07d697ffeaf02dd7f871ea99c93e626",
    "qh presentation --k 4 --n 6":
        "c7e0d04420834229cb504330cbb616b0e5c9f21a504cc4f50679bd49d8e7cf87",
    "qh semisimple --k 4 --n 7":
        "620bf946c13249948865c7ee2f023c02b5071b6133a5d11468f3bc1aaa02fec1",
    "qh presentation --k 4 --n 7":
        "12566c97b5bd5a8a132262a1a111d8924e352a2ab102b0dd5a5870acb69313f2",
    "qh semisimple --k 4 --n 8":
        "b7bfe550bdd41b1d08b855d0dbab202c91505b86fe4cfdb3e309e4104ca0f7d6",
    "qh presentation --k 4 --n 8":
        "1983eb6b89e36bb478796a5eac673cf5af795dcb92f8da8398969cc3151df983",
}

RINGS = {
    (6, "label_ops"): "0bda336495ce2ac1b5aa6700aee71810326f57ea628615846d2a122bf5ae812b",
    (6, "e_ops"): "6d22a747f68f643f5f354c0ea49d7c53c5f82e59a5023fc787f795e14b3c5e34",
    (6, "pairing"): "cf76224b3d242b67b53d26ed3fc6851c2180ba808d8c1e87abc01d1fb43179d5",
    (6, "relations"): "dd2dae12e9bca10645f12a8ba001fb0ebcf04e9ea0071db8cad3e90def47832c",
    (7, "label_ops"): "fb7d3b78616183d27b3e6ce02f850946a49a3bb1dac19793b41bacafaf023c0e",
    (7, "e_ops"): "2f0a228bbe425283d29d9e11bae7644df8ff1c6edb47248f0cb0357254e04372",
    (7, "pairing"): "84a30dc5343eab6a4bea8ca247455b7cc4e477bdf3f991e069b82b6797323357",
    (7, "relations"): "235ea66d7de5d69465337575d794b54f2dab640b81c9e684094f7da93718aa66",
    (8, "label_ops"): "fcd1b6b06c1714c6bea04aa486253c89b40fbb3a90978e3f7613def3916bf7b8",
    (8, "e_ops"): "9e83afdd0a18d56cce28700729cc7f6551f0529afb49cbf2afb649a911f4b9f8",
    (8, "pairing"): "7abda3622ff6f4fdd81ec324c4590fa4cd80e992fd5c0d81bc5194579ef472e8",
    (8, "relations"): "2e22a4c1d0a1f0890fd18b178ce7c28502cc284f640b9a8107be41a4125f2d2e",
}

LIFTS = {
    6: "32d37709dbe11b1544c603d12f6a653456e42bbcc311aa41379db12106802b40",
    7: "235e32fae998ef0927570f6be3cc978c2991985904af59e9a941b792b44ac52f",
    8: "9258e416dd473cf45741c082404b9c540e65d408d59c3f4d150a0be9ba7d4554",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_documents_are_byte_identical():
    assert len(DOCUMENTS) == 53
    for command, digest in DOCUMENTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(command.split() + ["--format", "json"])
        assert code == 0, command
        assert _sha(out.getvalue()) == digest, command


@pytest.mark.parametrize("n", [6, 7, 8])
def test_section_rings_are_identical(n):
    ring = SectionRing(3, n)
    for name in ("label_ops", "e_ops", "pairing", "relations"):
        assert _sha(repr(getattr(ring, name))) == RINGS[(n, name)], name
    assert _sha(repr(build_lifts(ring))) == LIFTS[n]
