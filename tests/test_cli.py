"""End-to-end tests of the command line front end."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from liecodes import cli, repweights, verify
from liecodes.cli import _matrix_payload, _report_payload, _suite_payload, run
from liecodes.fieldcodes import CodeReport, FpMatrix, analyze, parse_matrix_text, row_space_code
from liecodes.repweights import ADJOINT_SPIN_MODES, ModuleSpec, exceptional_minimal_matrix
from liecodes.rootsys import EXCEPTIONAL_RANKS
from liecodes.verify import SuiteReport, module_code, registered_cases, run_case, run_suite, to_json

from _oracles import assert_same_text, matrix_csv_by_writer, matrix_json_by_dumps, report_json_by_dumps


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_text_round_trip(capsys):
    code, out, err = invoke(capsys, "matrix", "--family", "F4", "--module", "minimal", "--field", "3")
    assert code == 0 and not err
    assert out.splitlines()[0] == "3 4 12"
    parsed = parse_matrix_text(out)
    assert parsed == exceptional_minimal_matrix("F4").mod(3)


def test_report_json_e8(capsys):
    code, out, _ = invoke(
        capsys, "report", "--family", "E8", "--module", "adjoint", "--field", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (120, 8, 57)
    assert payload["self_orthogonal"] is True


def test_report_text_f4(capsys):
    code, out, _ = invoke(capsys, "report", "--family", "F4", "--module", "minimal", "--field", "3")
    assert code == 0
    assert "n: 12" in out and "k: 4" in out and "d: 6" in out


def test_report_past_the_enumeration_caps(capsys):
    # 3^28 codewords: the sl(n) report counts Weyl orbits instead
    code, out, err = invoke(capsys, "report", "--family", "A", "--n", "30", "--module", "ext3", "--field", "3")
    assert code == 0 and not err
    assert "d: 756" in out.splitlines()


def test_report_at_the_size_cap(capsys):
    # 203 x 20503 entries, just under the cap: the count builds no matrix and
    # row-reduces nothing (a 203 x 20503 row reduction took 9.5 s)
    started = time.perf_counter()
    code, out, err = invoke(capsys, "report", "--family", "A", "--n", "203", "--module", "ext2", "--field", "3")
    assert time.perf_counter() - started < 3.0
    assert code == 0 and not err
    assert "d: 402" in out.splitlines()


def test_oversized_module_is_a_usage_error(capsys):
    # refused before anything is allocated: 30 x 2^29, 300 x C(300, 3) and
    # 16000 x 2^15999 entries, the last count with too many digits to print;
    # past 2^22 rows a request is refused by its row count alone, so 10^8
    # and 10^18 rows count no column and form no 2^(10^8 - 1)
    for argv, size, budget in (
        (["report", "--family", "D", "--m", "30", "--module", "spin"], "30 x 536870912", 1.0),
        (["matrix", "--family", "A", "--n", "300", "--module", "ext3"], "300 x 4455100", 1.0),
        (
            ["report", "--family", "D", "--m", "16000", "--module", "spin"],
            "spin of o(32000) would have 16000 x 2^15999",
            1.0,
        ),
        (
            ["report", "--family", "D", "--m", "100000000", "--module", "spin"],
            "spin of o(200000000) would have 100000000 rows, so at least 100000000 entries",
            0.2,
        ),
        (
            ["report", "--family", "D", "--m", "100000000", "--module", "ext3"],
            "ext3 of o(200000000) would have 100000000 rows, so at least 100000000 entries",
            0.2,
        ),
        (
            ["matrix", "--family", "A", "--n", "100000000", "--module", "ext2"],
            "ext2 of sl(100000000) would have 100000000 rows, so at least 100000000 entries",
            0.2,
        ),
        (
            ["report", "--family", "D", "--m", str(10**18), "--module", "spin"],
            f"spin of o({2 * 10**18}) would have {10**18} rows, so at least {10**18} entries",
            0.2,
        ),
        (
            ["matrix", "--family", "D", "--m", str(10**18), "--module", "ext2"],
            f"ext2 of o({2 * 10**18}) would have {10**18} rows, so at least {10**18} entries",
            0.2,
        ),
    ):
        started = time.perf_counter()
        code, out, err = invoke(capsys, *argv, "--field", "3")
        assert time.perf_counter() - started < budget
        assert code == 2 and not out
        assert err.startswith("liecodes: error: ") and size in err
        assert err.rstrip().endswith(f"entries, over {1 << 22}")


# SHA-256 of `liecodes matrix --family F --module M --field 3`, text format,
# as first recorded: the column order of the exceptional modules is fixed
EXCEPTIONAL_MATRIX_TEXT_SHA256 = {
    ("F4", "minimal"): "8c114ff4293997f99a5cfcdf9b86bc7baf50dde9881e2d14e7280bd6c5387d0f",
    ("F4", "adjoint"): "50d256e3e201423bffb0a8e6e0d5234e5941df2099007e6c9de6b295a4544e60",
    ("E6", "minimal"): "8e704f2c9a047c4a6cfa8ab6f42968c0d82b20f1df542f8eb5bca15284bd7d77",
    ("E6", "adjoint"): "acd6d5481263a5da47aec7e7282c2690d13026dd3e2378fa50924ed6d7b81887",
    ("E7", "minimal"): "5b6f176c695897cd3b5238a8f26f86cd3168340a4563181d564f71abd4ba4c9d",
    ("E7", "adjoint"): "8faccfdabe21fccb83b95efc68cc4377ae2aa8b429d3110601242b98cf9b1677",
    ("E8", "adjoint"): "c617769c2c7ae6bfcbf6597bbe6e736a3da06cf166ee29dc0fbabd724ef58352",
}


@pytest.mark.parametrize("family,module", sorted(EXCEPTIONAL_MATRIX_TEXT_SHA256))
def test_exceptional_matrix_text_is_pinned(capsys, family, module):
    code, out, err = invoke(capsys, "matrix", "--family", family, "--module", module, "--field", "3")
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == EXCEPTIONAL_MATRIX_TEXT_SHA256[family, module]


# SHA-256 of `liecodes matrix` stdout, text format, as written entry by entry
# before the text was rendered from one byte buffer (E8 adjoint is above)
MATRIX_TEXT_SHA256 = {
    "--family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3":
        "3d43991df42c69789ddb873784dbb3f8979295c9f5bafb8df0b3570b13d59ffc",
    "--family A --n 20 --module ext3 --field 2": "54d10f59b3e3cc612993b5d8419b56e8f83d62a70d813fe77f7cd4ad5568dafc",
    # 18 x 131072, recorded while FpMatrix held int64 entries
    "--family D --m 18 --module spin --field 3": "4c8f98c8591015ab027efc11110db0de0d1326e10a50f77886e902de923b0b9a",
}


@pytest.mark.parametrize("args", sorted(MATRIX_TEXT_SHA256))
def test_matrix_text_is_pinned(capsys, args):
    code, out, err = invoke(capsys, "matrix", *args.split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_TEXT_SHA256[args]


# SHA-256 of stdout for each payload format of each command, and of every
# table in JSON, as first recorded; nothing else pins the text and CSV
# renderings, matrix labels or the table rows.  The labels of every sl(n)
# and o(2m) module were pinned while each matrix still carried its own.
PAYLOAD_SHA256 = {
    "matrix --family A --n 6 --module adjoint --field 3 --format csv":
        "8b956cc80986c93d0b278752a1e2745142e408c17f1a9c5928810adba5e1bf66",
    "matrix --family A --n 6 --module adjoint --field 3 --format json":
        "e66ed14faf2eb7eb80167cb791988e79fc2d96c1dc8b1e5a7abec6c0e8577175",
    "matrix --family A --n 6 --module ext2 --field 2 --format csv":
        "cfa4e2cf7f505654d4b68f6fc2e278dd1f2229ab6ac0fd2b331a2439805b3ea2",
    "matrix --family A --n 6 --module ext2 --field 2 --format json":
        "f3d1cb0bfe864754f388f946b1fa0723ceee74533809c64fd952a67da0379038",
    "matrix --family A --n 7 --module ext3 --field 3 --format csv":
        "517d5c771a8dae351806a65bdb5c57bfff3ad83add7042b35cc61cb35f8f6ed5",
    "matrix --family A --n 7 --module ext3 --field 3 --format json":
        "e02ddd95315839e67c40eef5daef1ff76960e541693ec14cf561ac987f831fa1",
    "matrix --family A --n 8 --module ext4 --field 3 --format csv":
        "8eba5f86b09e34b0b5948d449f6b853082afc9e9d3d124f008612d21565cc380",
    "matrix --family A --n 8 --module ext4 --field 3 --format json":
        "3ecd9202031beea78378ef55eea5f86ef81c3d8224c3b6ac04570a20ff28e8d6",
    "matrix --family D --m 5 --module adjoint_plus_spin --mode direct_sum --field 3 --format csv":
        "ea667f5569e22bfc762cdd02e4a1a335b1de5406f75e19584f18daeb80a45513",
    "matrix --family D --m 5 --module adjoint_plus_spin --mode direct_sum --field 3 --format json":
        "a38d76e31978124865489cac683268a3fe7a86f03edc595d2815cdf29c8a0d0b",
    "matrix --family D --m 5 --module adjoint_plus_spin --mode weight_code --field 3 --format csv":
        "ac38a9cfdf67591d7c65ff5287c88d913738c948e80f6ea96754738df410336c",
    "matrix --family D --m 5 --module adjoint_plus_spin --mode weight_code --field 3 --format json":
        "c3df82f1f529927643958ee2dab02ed73cc2a69b3ba5d547e9bbef4527b25aed",
    "matrix --family D --m 5 --module ext2 --field 3 --format csv":
        "7632dbc8442d7afc30a0e576e1b9206353699cc345931dc4ea44477e8f176b49",
    "matrix --family D --m 5 --module ext2 --field 3 --format json":
        "36e4cd5868bf6dc54abad8c68969c880530c3600bcc57a0688706581a002c698",
    "matrix --family D --m 5 --module ext3 --field 3 --format csv":
        "914f886e38fa27b2687ee2371d94ca6bc96164cb8e4b3474b7516c08d7ad2c3c",
    "matrix --family D --m 5 --module ext3 --field 3 --format json":
        "f1b9eecc4c7995d7904857e0052bf4f01334068c65cf5332b1f6301a2e530f07",
    "matrix --family D --m 6 --module adjoint_plus_spin --mode weight_code --field 3 --format csv":
        "b26814d2bce2253306fe8ae2c34e362d15e69ec04b8367e583917536689a746a",
    "matrix --family D --m 6 --module adjoint_plus_spin --mode weight_code --field 3 --format json":
        "6f8b2e24f61c02208031b0200d47497f2383a6a4f89e38c43076299c971d52bc",
    "matrix --family D --m 6 --module spin --field 3 --format csv":
        "f82f3013f5e12df1c717bb3b6a0b24c45e74c4db34859a699ddfc3127d84350b",
    "matrix --family D --m 6 --module spin --field 3 --format json":
        "7755fb713eb085c71d99f312348658e77710abe1e727fbc6f7df96e2c8661fcc",
    "matrix --family E6 --module adjoint --field 3 --format json":
        "c8546e244e710f5cde5b6a29bc5bc7d3ba2136b224f28391af66993a3e88dc1a",
    "matrix --family E6 --module minimal --field 3 --format csv":
        "ceff198680b9cd5405f5f8e679958ab2f09cbb3d5a6a8e11416c5b9d81c10964",
    "matrix --family E6 --module minimal --field 3 --format json":
        "9330583e819dec75e7f85db0d42b28a9ac0454512480bf737114e2b33fc62314",
    "matrix --family E7 --module adjoint --field 3 --format json":
        "6b952def117570c01be08820c3f192201ad2564d7d165f973c65c2c04c38d1df",
    "matrix --family E7 --module minimal --field 3 --format json":
        "784cb578ba177cd29bb904b5743fbc50b8bd98b2269752e6edced8dd313fec81",
    "matrix --family E8 --module adjoint --field 3 --format json":
        "515eca9ad8bcbf330458b95d6cbc5ab68eed07b408180e8f17d7b09e10dea9d4",
    "matrix --family F4 --module adjoint --field 3 --format json":
        "9de76d71190070a3d934a731e5c4532939e6155db4f7c1c9b2d82d8f0531336e",
    "matrix --family F4 --module minimal --field 3 --format json":
        "5f6ccffcab096e55b9bbad6102f80e5cf222b3c74c011b6e5af81ce71a49e602",
    "report --family A --n 8 --module ext3 --field 2 --format csv":
        "d1210c8ecb32d8cfdb458e3b83ef8cece6ef0f08c29cffae6fcd62191e387048",
    "report --family A --n 8 --module ext3 --field 2 --format json":
        "73a8d628da38be63f9ae66af75025ee6d0a5c254002824b17aab16cb191e36e9",
    "report --family A --n 8 --module ext3 --field 2 --format text":
        "015838099765d6a4e17209ed6dda07beebe9c8f632c86b0b065631b640a91154",
    "report --family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3 --format csv":
        "8d82d138b49f044ede602d080b61c7df978287750e02395dbefd0a5958f3c615",
    "report --family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3 --format json":
        "3d37d94effe0cce87c6c714c4d1c009c3d645b515da39ec36484b195f18ff97d",
    "report --family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3 --format text":
        "341b62b93f80ed2d1d6889f732611f33581e2be70e17a20174c03cb142e09530",
    "report --family D --m 12 --module spin --field 3 --format csv":
        "70f1ab40920589e5dd59d824aaae0c4ec76cfade033909bdeab6f44f9ce08095",
    "report --family D --m 12 --module spin --field 3 --format json":
        "307453c66c7c0a2a3b70b53271f7e3ea4c5ad534ecef523e000b201227cf387c",
    "report --family D --m 12 --module spin --field 3 --format text":
        "e5372f9e688e8d096547dbafcc152f0e40935600c62493418e4817db5fef987e",
    "report --family D --m 6 --module spin --field 3 --format csv":
        "7cd0a08eeee81005cabcf5c240e304bbf5d97e17eba0f5c7409dd5ca9e93df52",
    "report --family D --m 6 --module spin --field 3 --format json":
        "4fc9c460ff4c2f0f623eeba30b40b2b533b58624318d27e8a916a02c2d63c5f6",
    "report --family D --m 6 --module spin --field 3 --format text":
        "e3441141c1eda46e9f6eddf9c6f1c2b04e1525fa46aed8a0d83de21e5d160a5e",
    "report --family D --m 8 --module ext3 --field 3 --format csv":
        "70e62536bc79c3423d30e6c904506ad99e471de953b613fb26ecc980c6899f81",
    "report --family D --m 8 --module ext3 --field 3 --format json":
        "70c58777bc37b5b184ab5320965141dba1c1af8c488b0570d8e2b2ebfee7d581",
    "report --family D --m 8 --module ext3 --field 3 --format text":
        "fb84d57264c214e727702c3f32e76edc18781c99037b449d50754f04f98d0442",
    "report --family D --m 9 --module adjoint_plus_spin --mode weight_code --field 3 --format csv":
        "9fcf99bcef9db98817271e4a658e2f1e3a637c4679f4a04d8d16f34307aeab0e",
    "report --family D --m 9 --module adjoint_plus_spin --mode weight_code --field 3 --format json":
        "8e99c4b21530c148bb829665a46099b25d7c586adae9e6862d9596ce3ab994ba",
    "report --family D --m 9 --module adjoint_plus_spin --mode weight_code --field 3 --format text":
        "3e07a943aed2f489e1bbcd1de207e2de2d06ce56361f0a0e2628c1486e9d2c41",
    "report --family E8 --module adjoint --field 3 --format csv":
        "d59ca0cc50c10815677e4cb54e447fb9c4fc8cb466587faa81f467869858257e",
    "report --family E8 --module adjoint --field 3 --format json":
        "9aa43e274e1119f523ad06cf38ab8efd9752415190a8b7ba8b5f53a44887286f",
    "report --family E8 --module adjoint --field 3 --format text":
        "61285be46abac281baba6f924dcdaa28ced96a3253b21ad92b78d34ede0525df",
    "report --family F4 --module minimal --field 3 --format csv":
        "2c3935067a19f98b077e564182264fab91460e667079f0bfe7d4a13f070992aa",
    "report --family F4 --module minimal --field 3 --format json":
        "3b63489cd190e59e69fcdfa77d87c4baef472c3088f15815ce55a3bfc1ebc685",
    "report --family F4 --module minimal --field 3 --format text":
        "d7da87a0d84dad52a31576c2ce54f50c131e59d2f932d404b58c272a34f1a961",
    "table 2.1 --format json":
        "ece356f76721e65c1dbb3c927a866fac2b595414035966b2c075ba4855aad1e1",
    "table 2.2 --format json":
        "b3e88f444a95a90c4a82ecf7ca7653b63e50ccd36bba0b85ecd4b7412508a891",
    "table 2.3 --format json":
        "4a043bc3ea2405824b166192366fd8f5ea9d8e5ccbcf28b400399114d8f0f2c9",
    "table 2.4 --format csv":
        "3b6c3018b0ea0779c0f87a703053d185480055eb8d4ee66a94e21b846255b258",
    "table 2.4 --format json":
        "de107d5e0b7182e1368614f89bc0696c1971f22bb4f9e3faa4a633b1f2bff36c",
    "table 2.4 --format text":
        "6b05142eaf035aa50eb1ed8c4098a012344dfacc8c4854365906614572af3434",
    "table 2.5 --format json":
        "e7adf42b1ee1976d0296eb3e3916bf7b24387e4c6adedbd2056e6307ef9cbd9f",
    "table 2.6 --format json":
        "f46775441e654d0732f2e15d4e76e7460e225adad05a55e64bfb9196403bc689",
    "table 3.1 --format json":
        "98a82370f21b0086f2062cb546522f6231e71020c8a08c2234164a36bdcd8bb5",
    "table 3.2 --format json":
        "2b78b7defddd9d55f9b5d717559ec7669dfecfd662657f0b434c7124616f9b58",
    "table 3.3 --format json":
        "c7b359d0f423649b3be6d7a59f033f42e69fcf52b16e52c440948e5ffa8d2c86",
    "table 3.4 --format json":
        "73b0abffc25bac576c4a19cee4dfe17a8e7a71f8ded772923f4ebc7d3e44603f",
    "table 3.5 --format csv":
        "17d897bda7e8c9222c32387ab9bbd32f5ff00f16b0c533e9307e70f38678d0dc",
    "table 3.5 --format json":
        "41c67a6f1306ddb917df261724e90a4e380101393305e3ac23c5ab043b37d90d",
    "table 3.5 --format text":
        "6e499ed607d5e18cb3796d9db98eb02278068f3abfa5bcda59034a4a1f4baf0d",
    "table 6.2 --format json":
        "c63eecd55eebad1570838ca2d6fc9d6211b73b97074db752b26a5b24094765dd",
    "table 6.3 --format csv":
        "43ce88f300ab7318d6b45ba1957eea55088ebbbc1844b706791a3f5ddeaac32c",
    "table 6.3 --format json":
        "1f9e480d3a654d47c5c687a9185d1d2582c437bd5a7d551fafb5f0375e5f7101",
    "table 6.3 --format text":
        "bf40aafad4a78355848053201de45a0f8840cfd44f180d11e63f9ff89dcccc17",
    "verify --include-optional --stable --format csv":
        "af06079e77620306b87d204e870314764a042f3b0f18af5b8a7f1065bf7735e9",
    "verify --include-optional --stable --format json":
        "ba91e2a5c5a0fd70fb3849f6b3a16de7ba704b1d6a4f726048f6a06a6d99e68a",
    "verify --include-optional --stable --format text":
        "3cf9382e994125542cdce9a6dab38693379eadfb4fe86efd502f45d9f6cf0078",
    "verify --stable --format csv":
        "d79e6b39ce8a1b52c079a5021d8ceb3ca85370984f6859d09b2fcba6606fb2ff",
    "verify --stable --format json":
        "b0b1019a1b2109ac3d06fa2931be1be5e22bc50da189b59b00b33fd8dab62098",
    "verify --stable --format text":
        "7b66a080072a6cfed2dc6b7709a1921254888f8dcad0e1ea68e5d3172a58b834",
}


@pytest.mark.parametrize("args", sorted(PAYLOAD_SHA256))
def test_payload_is_pinned(capsys, args):
    code, out, err = invoke(capsys, *args.split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == PAYLOAD_SHA256[args]


def test_verify_filter_exit_zero(capsys):
    code, out, _ = invoke(capsys, "verify", "--filter", "thm2.2")
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_stable_output_byte_identical(capsys):
    _, first, _ = invoke(capsys, "verify", "--filter", "thm4.*", "--stable", "--format", "json")
    _, second, _ = invoke(capsys, "verify", "--filter", "thm4.*", "--stable", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert all(entry["millis"] == 0.0 for entry in payload["cases"])


def test_verify_json_is_the_suite_renderer(capsys):
    code, out, _ = invoke(capsys, "verify", "--include-optional", "--stable", "--format", "json")
    assert code == 0
    assert out == to_json(run_suite(include_optional=True), stable=True)


# SHA-256 of `report --family D --m 18 --module spin --field 3 --format json`,
# recorded while the JSON payloads formed the dense list A_0..A_131072
O36_SPIN_REPORT_JSON_SHA256 = "0c68f5daa007fd1ebe18f7e771e3600aba9fadd8ea0f37ca2851825cc65ba52c"


def test_json_payloads_form_no_dense_distribution(monkeypatch, capsys):
    # both write A_0..A_n from the report's (w, A_w) pairs
    def refuse(self):
        raise AssertionError("a JSON payload formed the dense weight distribution")

    monkeypatch.setattr(CodeReport, "_dense_counts", refuse)
    suite = to_json(run_suite(include_optional=True), stable=True)
    pinned = PAYLOAD_SHA256["verify --include-optional --stable --format json"]
    assert hashlib.sha256(suite.encode()).hexdigest() == pinned
    code, out, err = invoke(capsys, *"report --family D --m 18 --module spin --field 3 --format json".split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == O36_SPIN_REPORT_JSON_SHA256


def test_report_json_matches_registered_cases(capsys):
    checked = 0
    for case in registered_cases():
        spec = case.spec
        if spec.basis is not None:
            continue  # the command line always builds the default basis
        argv = ["report", "--family", spec.family, "--module", spec.module, "--field", str(spec.p)]
        if spec.family in ("A", "D"):
            argv += ["--n" if spec.family == "A" else "--m", str(spec.rank)]
        if spec.mode is not None:
            argv += ["--mode", spec.mode]
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert code == 0 and not err, case.case_id
        assert json.loads(out) == run_case(case).report.to_dict(), case.case_id
        checked += 1
    assert checked == 49


def test_suite_of_unregistered_cases_renders():
    # a result carries its case, so a report need not come from the registry
    annotated = next(c for c in registered_cases() if c.case_id == "thm2.3/ext3/n=6")
    case = dataclasses.replace(annotated, case_id="custom", citation="a case of our own")
    res = run_case(case)
    report = SuiteReport((res,))
    entry = json.loads(to_json(report, stable=True))["cases"][0]
    assert entry["case_id"] == "custom" and entry["citation"] == "a case of our own"
    assert entry["annotation"]["note"] == case.annotation.note
    text = _suite_payload(report, "text", stable=True)
    assert text.startswith("PASS  custom ")
    assert "(documented discrepancy: " + case.annotation.note + ")" in text


def test_verify_empty_filter(capsys):
    # a pattern that selects no claim is a usage error, so a typo cannot pass
    code, out, err = invoke(capsys, "verify", "--filter", "nothing-here")
    assert code == 2 and not out
    assert err.startswith("liecodes: error: ") and "'nothing-here'" in err
    # a pattern that selects only optional claims says so, and how to run them
    code, out, err = invoke(capsys, "verify", "--filter", "cor3.4/m=11")
    assert code == 2 and not out
    assert err == (
        "liecodes: error: --filter 'cor3.4/m=11' selects only optional claims (cor3.4/m=11);"
        " add --include-optional to run them\n"
    )


def test_usage_error_lists_valid_values(capsys):
    code, _, err = invoke(capsys, "matrix", "--family", "D", "--m", "6", "--module", "ext2", "--field", "2")
    assert code == 2
    assert "ternary" in err
    code, _, err = invoke(capsys, "matrix", "--family", "A", "--module", "ext2", "--field", "2")
    assert code == 2
    assert "--n" in err
    code, out, err = invoke(capsys, "matrix", "--family", "D", "--module", "ext2", "--field", "3")
    assert (code, out, err) == (2, "", "liecodes: error: family D needs --m\n")
    # flags the chosen family or module would ignore are rejected
    for extra, flag in (
        (["--family", "F4", "--module", "minimal", "--n", "99"], "--n"),
        (["--family", "A", "--n", "6", "--module", "ext2", "--m", "7"], "--m"),
        (["--family", "F4", "--module", "minimal", "--n", "99", "--m", "7", "--mode", "direct_sum"], "--n"),
    ):
        code, out, err = invoke(capsys, "matrix", *extra, "--field", "3")
        assert code == 2 and not out
        assert flag in err


@pytest.mark.parametrize("command", ["report", "matrix"])
@pytest.mark.parametrize("rank", [["--family", "A", "--n", "6"], ["--family", "D", "--m", "6"]], ids=["A", "D"])
def test_mode_of_another_module_is_refused(capsys, command, rank):
    # the module table refuses it, for the command line as for every caller
    code, out, err = invoke(capsys, command, *rank, "--module", "ext2", "--mode", "direct_sum", "--field", "3")
    assert (code, out) == (2, "")
    assert err == "liecodes: error: a mode applies to module adjoint_plus_spin only, not ext2\n"


def test_parser_is_reused_after_errors_and_help(capsys):
    # no failed or help call may leave state behind for a later call in
    # the same process
    code, out, err = invoke(capsys, "verify", "--workers", "2")
    assert code == 2 and not out and "--workers" in err
    code, out, err = invoke(capsys, "verify", "--filter", "nothing-here")
    assert code == 2 and not out and "'nothing-here'" in err
    code, out, err = invoke(capsys, "table", "--help")
    assert code == 0 and out.startswith("usage: liecodes table") and not err
    code, out, err = invoke(capsys, "table", "9.9")
    assert code == 2 and not out and "known: 2.1, " in err
    args = "table 2.4 --format text"
    code, out, err = invoke(capsys, *args.split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == PAYLOAD_SHA256[args]
    test_usage_error_lists_valid_values(capsys)


def test_usage_error_bad_choice(capsys):
    code, _, _ = invoke(capsys, "matrix", "--family", "G2", "--module", "minimal", "--field", "3")
    assert code == 2


def test_table_csv_has_five_data_rows(capsys):
    code, out, _ = invoke(capsys, "table", "2.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header plus five entries
    assert lines[0].startswith("label,")


def test_table_text_annotated_note(capsys):
    code, out, _ = invoke(capsys, "table", "3.5")
    assert code == 0
    assert "superseded" in out


def test_table_mismatch_outranks_the_annotation(monkeypatch, capsys):
    # off by one, the annotated t=6 entry of 3.5 leaves its recorded fix: it
    # must read MISMATCH, not "superseded"
    real = verify.orbit_weights
    monkeypatch.setattr(verify, "orbit_weights", lambda *args: [w + 1 for w in real(*args)])
    code, out, _ = invoke(capsys, "table", "3.5")
    assert code == 1
    last = out.splitlines()[-1]
    assert last.split() == ["t=6", "21", "31", "MISMATCH"]
    assert "superseded" not in out


def _small_matrices():
    # every module of every family at a small size, over each of its fields
    for (family, module), (fields, *_) in repweights._MODULES.items():
        rank = {"A": 6, "D": 5}.get(family, EXCEPTIONAL_RANKS.get(family))
        for mode in ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,):
            for p in fields:
                yield ModuleSpec(family, rank, module, p, mode=mode)


@pytest.mark.parametrize(
    "spec", list(_small_matrices()), ids=lambda s: "-".join(filter(None, (s.family, s.module, s.mode, f"F{s.p}")))
)
def test_matrix_json_matches_json_dumps(spec):
    matrix = repweights.build_weight_matrix(spec).mod(spec.p)
    labels = repweights.column_labels(spec)
    assert _matrix_payload(matrix, spec, "json") == matrix_json_by_dumps(matrix, labels)


def test_matrix_json_of_edge_shapes():
    spec = ModuleSpec("A", 3, "ext2", 2, basis="matrix_unit_E")
    for entries in (np.zeros((0, 3), dtype=np.int64), [[1, 0, 1]], [[1], [0], [1]]):
        matrix = FpMatrix(2, np.asarray(entries, dtype=np.int64))
        expected = matrix_json_by_dumps(matrix, repweights.column_labels(spec))
        assert _matrix_payload(matrix, spec, "json") == expected


@pytest.mark.parametrize(
    "spec", list(_small_matrices()), ids=lambda s: "-".join(filter(None, (s.family, s.module, s.mode, f"F{s.p}")))
)
def test_matrix_csv_matches_csv_writer(spec):
    matrix = repweights.build_weight_matrix(spec).mod(spec.p)
    labels = repweights.column_labels(spec)
    assert_same_text(_matrix_payload(matrix, spec, "csv"), matrix_csv_by_writer(matrix, labels))


def test_matrix_csv_of_edge_shapes():
    spec = ModuleSpec("A", 3, "ext2", 2, basis="matrix_unit_E")
    for entries in (np.zeros((0, 3), dtype=np.int64), [[1, 0, 1]], [[1], [0], [1]]):
        matrix = FpMatrix(2, np.asarray(entries, dtype=np.int64))
        expected = matrix_csv_by_writer(matrix, repweights.column_labels(spec))
        assert _matrix_payload(matrix, spec, "csv") == expected


@pytest.mark.parametrize(
    "report",
    [
        CodeReport(3, 0, 0, {0: 1}, True),  # the code of length 0: a one-entry distribution
        analyze(row_space_code(FpMatrix(3, np.zeros((1, 4), dtype=np.int64)))),
        module_code(ModuleSpec("A", 8, "ext3", 2)),
        analyze(module_code(ModuleSpec("E8", 8, "adjoint", 3))),
        module_code(ModuleSpec("D", 18, "spin", 3)),  # 131073 entries
    ],
    ids=["length-0", "zero-code", "sl8-ext3-F2", "E8-adjoint", "o36-spin"],
)
def test_report_json_matches_json_dumps(report):
    assert_same_text(_report_payload(report, "json"), report_json_by_dumps(report))


def test_output_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = invoke(
        capsys, "matrix", "--family", "E6", "--module", "minimal", "--field", "3", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert parse_matrix_text(target.read_text()).cols == 27
    missing = tmp_path / "missing" / "out.txt"
    code, out, err = invoke(capsys, "table", "2.1", "--output", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("liecodes: error: ") and str(missing) in err


def test_report_payload_zero_code_text():
    report = analyze(row_space_code(FpMatrix(3, np.zeros((1, 4), dtype=np.int64))))
    text = _report_payload(report, "text")
    assert "d: undefined" in text


# k and d of 0 and 1 equal False and True as dict keys, so a lookup table of
# the text's value rules would print them as booleans
REPORT_PAYLOADS = {
    "F3-zero": (
        FpMatrix(3, np.zeros((1, 4), dtype=np.int64)),
        "p: 3\nn: 4\nk: 0\nd: undefined\nself_orthogonal: true\nself_dual: false\nweight_distribution: 0:1\n",
        "p,n,k,d,self_orthogonal,self_dual,even,doubly_even,weight_distribution\n3,4,0,,True,False,,,0:1\n",
    ),
    "F2-zero": (
        FpMatrix(2, np.zeros((1, 3), dtype=np.int64)),
        "p: 2\nn: 3\nk: 0\nd: undefined\nself_orthogonal: true\nself_dual: false\n"
        "even: true\ndoubly_even: true\nweight_distribution: 0:1\n",
        "p,n,k,d,self_orthogonal,self_dual,even,doubly_even,weight_distribution\n2,3,0,,True,False,True,True,0:1\n",
    ),
    "F2-[3,1,1]": (
        FpMatrix(2, [[1, 0, 0]]),
        "p: 2\nn: 3\nk: 1\nd: 1\nself_orthogonal: false\nself_dual: false\n"
        "even: false\ndoubly_even: false\nweight_distribution: 0:1 1:1\n",
        "p,n,k,d,self_orthogonal,self_dual,even,doubly_even,weight_distribution\n2,3,1,1,False,False,False,False,0:1 1:1\n",
    ),
}


@pytest.mark.parametrize("name", REPORT_PAYLOADS)
def test_report_payload_text_and_csv_are_pinned(name):
    matrix, text, csv_text = REPORT_PAYLOADS[name]
    report = analyze(row_space_code(matrix))
    assert _report_payload(report, "text") == text
    assert _report_payload(report, "csv") == csv_text


def test_matrix_payload_csv():
    spec = ModuleSpec("A", 3, "ext2", 2, basis="matrix_unit_E")
    text = _matrix_payload(FpMatrix(2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]]), spec, "csv")
    assert text.splitlines() == ['"{1,2}","{1,3}","{2,3}"', "1,1,0", "1,0,1", "0,1,1"]


@pytest.mark.parametrize("args", sorted(MATRIX_TEXT_SHA256))
def test_matrix_text_forms_no_label(capsys, monkeypatch, args):
    # the text payload names no column: every label function raises
    def refuse(*_):
        raise AssertionError("a text payload formed a column label")

    for owner, name in ((cli, "column_labels"), (repweights, "column_labels"), (repweights, "_subset_label")):
        monkeypatch.setattr(owner, name, refuse)
    for key, entry in repweights._MODULES.items():
        monkeypatch.setitem(repweights._MODULES, key, (*entry[:-1], refuse))
    code, out, err = invoke(capsys, "matrix", *args.split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_TEXT_SHA256[args]


def test_workers_flag(capsys):
    # enumeration runs in one process, and verify runs every registered
    # claim: the removed flags are usage errors
    report = ["report", "--family", "E7", "--module", "adjoint", "--field", "3"]
    for argv in (
        [*report, "--workers", "2"],
        ["verify", "--workers", "2"],
        ["verify", "--max-n", "15"],
        ["verify", "--max-m", "11"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and not out
        assert argv[-2] in err
