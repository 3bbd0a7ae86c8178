"""Golden SHA-256 digests: CLI documents and section rings that must stay
byte-identical.

The digests were taken from the implementation before the sparse section
solve and the shared e-polynomial evaluator.  DOCUMENTS covers the seven
section commands of the benchmark, `qh semisimple` and `qh presentation` for
every box with k <= 4 and n <= 8, and two ambient `qh charpoly` commands, all
with `--format json`; each must exit 0 with nothing on stderr.  RINGS covers
repr() of the solved section rings, entry types and dict order included, and
LIFTS the lift polynomials of the test oracle.  AMBIENT_LABEL_OPS covers
repr() of the label operators of Gr(3, 8) and Gr(4, 8), taken before those
operators were built on sparse rows.

TABLES and USAGE pin the rest of the CLI surface, each as the digest of
json.dumps([exit code, stdout, stderr]): `--format table` of every DOCUMENTS
command and of a few more, and the help, usage and error paths.  Both were
taken before the command table replaced the hand-written parser, except the
`betti` and `screen` refusals of A1000, added with the positive-root bound.

BETTI pins `betti` and `screen --format json` on every node of each of
oracles.SMALL_TYPES, 220 G/P_k in all: per family, the digest of the
json.dumps'd list of [argv, exit code, stdout, stderr].  It was taken while
the Poincare polynomial still came from the fundamental degrees of G and of
the Levi.

Every CLI command here runs through cli_pins.run_pin, the runner of the pin
manifest: in this interpreter, with every qhgrass cache cleared first, under
the manifest's default timeout of 60 s.  So each runs cold whatever the test
order.
"""

import hashlib
import json
import sys

import pytest

from cli_pins import run_pin
from oracles import SMALL_TYPES, build_lifts
from qhgrass import linalg
from qhgrass.partitions import Box
from qhgrass.quantum import grassmannian
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

TABLES = {
    "qh semisimple --section --k 3 --n 6":
        "cb4a5d530888ec904869677fc1c29fdf6ed8593c4ed0597fb7fc39cd6f6ab8e4",
    "qh semisimple --section --k 3 --n 7":
        "8c6f6cea0b48dd4ab47c1e367db58eb17d15906ea2a213c4d132cf3e819cfdac",
    "qh semisimple --section --k 3 --n 8":
        "b81bb7d6f16016e17dafa6e4b62af9d34f150e27107c9db53cda0e690b1093ac",
    "qh lefschetz --n 7":
        "3c0b822ff9dec697bfc8a65d0ac435c934a4553fc5d5a2b48f8a4030952bfdbb",
    "qh lefschetz --n 8":
        "87a66c710da24fdeb1074c8f882a7d20a695037b865bdf5623a4b5843f51a1e9",
    "qh charpoly --section --k 3 --n 7 --power 6":
        "852d2c9f0a2ed9a4b8712c013bfd86f55483148660a6bfc3f2cff7cc955e667a",
    "qh charpoly --section --k 3 --n 8 --power 5 --with-e2":
        "43927abca652c489e527326583eeb9ddfebe1be01cb5fbf9bd7d4bd002c334c7",
    "qh charpoly --k 3 --n 7 --power 7":
        "2ebd0f81e5ae27dadffb02f63a18a5e84375f02c3293c1bb1d379b82858ec4b3",
    "qh charpoly --k 3 --n 8 --power 6 --with-e2":
        "2bd853a839a2fd6c7b0cc927433d8a20ef43f5340684336f752ae8b59803c19e",
    "qh semisimple --k 1 --n 2":
        "19028a99f4eca732940d9dcf05ad63d747e67c4f254d4c67cbad525d1c4ada14",
    "qh presentation --k 1 --n 2":
        "142575759275b6362d464983e93354fefeea14603841c873cdf8c04db3bf4c34",
    "qh semisimple --k 1 --n 3":
        "3c292bfa26983d0d25a91f0f6003447f281817ca20ba937c59fa5e64fda83e0b",
    "qh presentation --k 1 --n 3":
        "725061a971af8ce28ad164d3fb0b7cd87540a277f80392d93c6ac1da4908ab47",
    "qh semisimple --k 1 --n 4":
        "ddc7241f9f39c64bec90abb81c5fdd2c58a387a71e93fbb73bbb901a57854be9",
    "qh presentation --k 1 --n 4":
        "7b88449a2c15853f79dd6619bcf330e4f1deaa0530fd9fd93f264955de339b23",
    "qh semisimple --k 1 --n 5":
        "ae03a5c21929f3a05d6f82b43c0d2fabbab6090712e0eb41cf9a1040cb5e3007",
    "qh presentation --k 1 --n 5":
        "b59b6455890e21f5d8887de62f738ba9adf44b2d2c68274517a01af87b236e33",
    "qh semisimple --k 1 --n 6":
        "54c99bd542906174520bc19fc14932a2a0aab795648241b33bddeb508127338a",
    "qh presentation --k 1 --n 6":
        "57859dc0832ecd862ecd3c07b27ab9bac9cdcb351a733d1c8d37871adb19d449",
    "qh semisimple --k 1 --n 7":
        "471d667bcfa5a225925545cda69fb38767a8bbf52a1fdc3f635d77c33cfa7dcc",
    "qh presentation --k 1 --n 7":
        "c9dac3bf25b8a2ee94a06a148257941f1b82a58854c4daff48c64b2ceda5f1c2",
    "qh semisimple --k 1 --n 8":
        "cd21f232c5d002d3cdc46fead023d5d3f2ae66df99912213f14a39d036b5cec3",
    "qh presentation --k 1 --n 8":
        "a524e8dfa0069ff1e9e17abb681e77d7f29963ab61efd4c3303adf00ac587a77",
    "qh semisimple --k 2 --n 3":
        "2477b49ebc0a7cfeef0e9d7a594f8189d16204f0a17354d44b5c736fae0a75f3",
    "qh presentation --k 2 --n 3":
        "eb382e9ad8e600ee89b3a83e2e7cc5f58a0cb6f806b8d6e21988c5bded187d86",
    "qh semisimple --k 2 --n 4":
        "97746747b4b02dce950e2ea3b399d4a1e8e51c6db21eccfd9d1293983ae286aa",
    "qh presentation --k 2 --n 4":
        "4af66af99d8ec9ef390cb50550fc3b92254f310729381c99d8f3f91df913f99c",
    "qh semisimple --k 2 --n 5":
        "e7e1ff61a6d79d078f1fad109c90d906de1a22405092d9f3de76d0c38e36647e",
    "qh presentation --k 2 --n 5":
        "38030cc691ec9484319f5fe4b0def32415bb61af4bff71c739cc70361673d2d4",
    "qh semisimple --k 2 --n 6":
        "e3c34178bb87e8084d108b45a47b71a1e3ea91ded5435c522aea834500bd4f44",
    "qh presentation --k 2 --n 6":
        "ead3114e574cb5b5f879f619b0ee5c25b74eeb393cdf2de622e97fe3f33e94d9",
    "qh semisimple --k 2 --n 7":
        "7c82bb13c77bba3499bb646fec56bedff6f61043be21fb0a256b5d251d7c5ee0",
    "qh presentation --k 2 --n 7":
        "be2685d906aa32156d9319c1ef7b5204c504379cc1b428aafb071b504b616049",
    "qh semisimple --k 2 --n 8":
        "0c5987af7a2b14b4bb464aeaca8e137414b09972722c68e38f6c0240fc4dc06c",
    "qh presentation --k 2 --n 8":
        "3baf0582e834c58cd72e11650796b39383040304e5c040a156971f60adb4bdde",
    "qh semisimple --k 3 --n 4":
        "c3624e2bf48134d356453f6b538ca892ba5cee62478f61df9a4559ffbdf1b85e",
    "qh presentation --k 3 --n 4":
        "a2025b0926922ad005e6684cf9de6795586c0b6fded29c9d358eb1e26e054904",
    "qh semisimple --k 3 --n 5":
        "3587ffc2cbe580f602c0da07ce38744c73b92fb2503c87c1d5864bb6d0e9b798",
    "qh presentation --k 3 --n 5":
        "f0049d0045ba49b5b7d58bc3f94596905eef3f5d542a21ee682544092b35b7f8",
    "qh semisimple --k 3 --n 6":
        "044900e95bb3988c954476ef30406df352031d2aa35d28a04ea0aa6107bdd895",
    "qh presentation --k 3 --n 6":
        "e557bf05986ffa73836a8c65301a532f7fb022e30d3117984e2fc9ff36a1a8e5",
    "qh semisimple --k 3 --n 7":
        "f5209e9e062c15e371d2b5e3da64d051111aad80072558ff7fc62c1fd8842479",
    "qh presentation --k 3 --n 7":
        "543eb8c075c998eacc632c6e16945b20df4b89daac2e4708006cc79db051ab44",
    "qh semisimple --k 3 --n 8":
        "e43d68344202476dc2ca2c3f4d732283ef917de253630961e383b2f91bb00dbc",
    "qh presentation --k 3 --n 8":
        "9eff67430506bdd17f79576a253705a19631337cd14cc4278589e1b09213f952",
    "qh semisimple --k 4 --n 5":
        "3a6737a9d6e6ee6ce55fded35176bcf786137e7c22c5624980f007ff250cfaf3",
    "qh presentation --k 4 --n 5":
        "b12cc4042499360fcc37076843c8f020b9ad153c36604f2793bd61f8d059afc8",
    "qh semisimple --k 4 --n 6":
        "f62c85ab194bbe86a3c05c2503de729bdf9731e5ff72b65098f411c0afbe9bfe",
    "qh presentation --k 4 --n 6":
        "b847707e1de77f70704502ee9ee757066d310813526dd259d5b03cf27ba963cc",
    "qh semisimple --k 4 --n 7":
        "6173e37e071422a4f78701ea568fecc953c1fcc97577e71a965889208972abaf",
    "qh presentation --k 4 --n 7":
        "529a07b405ad08adb0f380f5d05b92b05f906a93899e3c4746534e85091dc735",
    "qh semisimple --k 4 --n 8":
        "91de981ef76e7d9bd0f041fc4bc417c3411b05bf5be403da02c2403b9315c380",
    "qh presentation --k 4 --n 8":
        "aa7d583ffd6314db16247133732df1243fb2acb5fd4fcf6b218ed4b2e592d6ef",
    "betti --type E7 --node 6":
        "15620f258f0f997e6a5d4a40c0e8edfec2c5a6c630602e26ad358b62bdd8ec00",
    "screen --type E7 --node 6":
        "e305f2856237ba4f7e122516305bbf27d30cebf3313d23aa11cefae0a1bdc0e2",
    "screen --section --k 3 --n 6":
        "1ebfea8cd1bd3962bb216b2e8917e57dd5ca221fbd61bfdad02cadf6a7002fa7",
    "exceptional-table":
        "96cfa1850a16120728e9a8c9aa3918c2fae5a6055301522f499646517820d601",
    "core-search --k 3 --n 9":
        "c1a7f957ae2f53e7be0685d2e01a34f2182df189d4ca3f8c2983063fff102156",
    "snow --k 3 --n 9 --p 12 --twist 3":
        "88d2589915b718db837d9c9e83e92acb79ea70f4bf76ad03b60a0a0875cc1ad9",
    "hodge --k 3 --n 6":
        "6d2a677cfd1d32e0647ad63529382d0a8c47a01009efaff0ddad663a2de6e057",
    "hodge --k 3 --n 6 --section":
        "abf35efcd77d90b4a90df1a82dc7ff7348ef8898f6fb00af602bd9bc7dfb3e8b",
    "hodge --k 4 --n 8 --section":
        "27184004c9726be9f594d88d2d18f0dededcea722827bd8df4b94a23d61c0cc6",
    "core-search --k 3 --n 7":
        "d2b95b0672cb1c929fe38fe81acb3518209008551df8bb48588558fbba87dfb8",
    "snow --k 2 --n 5 --p 9 --twist 0":
        "6c9a8e1243b2c139da797f3a9bac4b5b4de3c0cd1959d6ac541aef12bd085076",
}

# argparse's wording belongs to the interpreter, so these digests are compared
# on the Python they were taken with; the exit codes are compared on every one
USAGE_PYTHON = (3, 11)
USAGE = {
    "--help": (0, "5b39a1a74b56be4b2279fc9a8b078669f774789ade967f7e7ca53e3a717408b1"),
    "qh --help": (0, "b9cf13c4a7ff3c15e03a7c1dc0b51aa597cda2cea68a97e3b571a1c45f72ef01"),
    "betti --help": (0, "5e574d068b29fa7764d6e74aa7e87d91a62efb42571d6ac70d4c139a1fd79f07"),
    "screen --help": (0, "0754845efc83b99b22882a1de7c96cc367cd8bc80c50097250850983474401d3"),
    "exceptional-table --help": (0, "1ae1a91898bafa091aee133aebe50024b3f207ba4ba641f9e91c4df6726c248f"),
    "core-search --help": (0, "bf7091969f5b52a59edb6f291536892e39ee6d6d433985aa80e6d09cd8d6649b"),
    "snow --help": (0, "dcf3accd5639d33ef82991ea5cd897d2118940bc4d135232fe5787e66620a794"),
    "hodge --help": (0, "c9474a8f9f3e6dc265f83cfd42a6305f4c2452aa69ab2f2a966a75247703a8a7"),
    "qh charpoly --help": (0, "1d24527d2c8db23105b1f4e8fea854ccb4dd2a8a8bd0fed0010efe3255840e14"),
    "qh presentation --help": (0, "2f8f420665b56150ff3a1be0363e573b1addc44b601da30798de33a96b313068"),
    "qh lefschetz --help": (0, "700f2d9065581b0db010a07d750dcd0a2e854edd0e43327ba6113b81f4f9ebcd"),
    "qh semisimple --help": (0, "bdfe713e02d016ee402096811b3477bfb2db119ba9f3d27fb420a531fdacaf0f"),
    "": (2, "01faf13a402c57a7f298b6fabef039c565376d8f02fc6444b8cedf4159822658"),
    "frobnicate": (2, "78006aca034495fb467de4978cbb700b8542a1475e61d9a97161f3d86c4dcd0d"),
    "qh": (2, "007f503ff24c297f080fdf015f485d52ad304407c9021a48a8c4fd74fcc34446"),
    "qh nonsense": (2, "06bc0c9241d9a908f7d12c6c55cc2eacae412b3b3bff7bb34e6d8ec2804f4464"),
    "core-search --n 9": (2, "0e12eb8d31cb5f97dedae8d27192782a9be73f4eb32b625c29927a6a87c145f4"),
    "core-search --k x --n 9": (2, "a65ac734ab777cbfd3deab9630e7476bc0d5b9e696e81110766853ffe314f639"),
    "betti --type E6 --node 2 --format xml": (2, "a7c12c9cbfbdbd74548c6c9cdd9b3d02f804290e634a1a8c1d3a5ce808eaa87d"),
    "qh lefschetz --n 6": (2, "d89c6a44cf4b2b1a07eb92d851782dfc190c8933c6fc84ba6426b95c02e07b1e"),
    "betti --type E6 --node 2 --bogus": (2, "e59025aec0dd8a88413bc2a52c3cfaa819a4f8c0b594730363b96d0ffd9094fc"),
    "qh semisimple --k 2 --n 4 extra": (2, "40aee85c2236bcf637d5126ac72516f9f1e7706b32f8bc4886c5c5be53392dee"),
    "-h betti": (0, "5b39a1a74b56be4b2279fc9a8b078669f774789ade967f7e7ca53e3a717408b1"),
    "qh -h semisimple": (0, "b9cf13c4a7ff3c15e03a7c1dc0b51aa597cda2cea68a97e3b571a1c45f72ef01"),
    "qh semisimple --k 2 --n 4 --format xml": (2, "3532d6693018d3b9e1701433e1cf1f0c3c6bb0877eb9e4a4602b410f5e21f561"),
    "betti --type A1000 --node 500": (2, "d56fd8029daff62bdd0ac3a7811279bb896cced2dfc8da46b0c4ea5b8ab516c2"),
    "screen --type A1000 --node 500": (2, "d56fd8029daff62bdd0ac3a7811279bb896cced2dfc8da46b0c4ea5b8ab516c2"),
}

BETTI = {
    "A": "386615b261169c8a75a026cc29516c99242b2e1a02233df21aace9825722f357",
    "B": "eaaa00608a821f82f448501e2a71f5825c16ee4ffbabdf4b80852675d1bd27f6",
    "C": "d475d0301584e642250126a7adebd5ec3e4a5f144dcfaeca93857b9c8d879ccc",
    "D": "319bab0b57c9730962f07492d3fd295427c58b34626e391e10686f5b36cd1887",
    "E": "fe6dd72e486a4b1178c85aab27e530092d605f55dfbd591e0085639c9ec1835a",
    "F": "9896b1a766ac9701c85f66bd1562a8682e28854cdd20d3760bbd1da17b52b70e",
    "G": "82377347a0b76469c8cdafa090a7bfae0c758197c55c35b5e788e2ac69aebdeb",
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

AMBIENT_LABEL_OPS = {
    (3, 8): "1864fc5fbfbd5bb29c85d7cc41c7bf23f00ce6cc4a5262620c383fe22d46f0e6",
    (4, 8): "1d90269a27d88d19ed5538f11dc23a497d1affed78a5fac1fd4e5eeddca5e6b9",
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
        code, out, err = run_pin(f"{command} --format json")
        assert (code, err) == (0, ""), command
        assert _sha(out) == digest, command


def test_tables_are_byte_identical():
    assert set(DOCUMENTS) < set(TABLES) and len(TABLES) == 64
    for command, digest in TABLES.items():
        outcome = run_pin(f"{command} --format table")
        assert (outcome[0], _sha(json.dumps(outcome))) == (0, digest), command


def test_usage_paths_are_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    for command, (code, digest) in USAGE.items():
        outcome = run_pin(command)
        assert outcome[0] == code, command
        if sys.version_info[:2] == USAGE_PYTHON:
            assert _sha(json.dumps(outcome)) == digest, command


@pytest.mark.parametrize("family", sorted(BETTI))
def test_betti_and_screen_documents_are_byte_identical(family):
    outcomes = []
    for t in SMALL_TYPES:
        if t.family != family:
            continue
        for node in range(1, t.rank + 1):
            for command in ("betti", "screen"):
                argv = f"{command} --type {t} --node {node} --format json"
                outcomes.append([argv, *run_pin(argv)])
    assert _sha(json.dumps(outcomes)) == BETTI[family]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_section_rings_are_identical(n):
    ring = SectionRing(3, n)
    # the digests are of the e-operators and the pairing made dense, in basis order
    dense_e_ops = {p: linalg.dense(op, len(ring.basis)) for p, op in ring.e_ops.items()}
    pairing = linalg.dense(ring.pairing, len(ring.basis))
    for name, value in (("label_ops", ring.label_ops), ("e_ops", dense_e_ops), ("pairing", pairing),
                        ("relations", ring.relations)):
        assert _sha(repr(value)) == RINGS[(n, name)], name
    assert _sha(repr(build_lifts(ring))) == LIFTS[n]


@pytest.mark.parametrize("k, n", sorted(AMBIENT_LABEL_OPS))
def test_ambient_label_ops_are_identical(k, n):
    # label_ops is a dict of dense matrices in basis order
    assert _sha(repr(grassmannian(Box(k, n)).label_ops)) == AMBIENT_LABEL_OPS[(k, n)]
