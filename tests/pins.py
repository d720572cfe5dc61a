"""Every byte pin of the tests, one row per recipe: its input documents,
its lacuna steps with their exit codes (in the leaf-cap rows, also a bound
on each step's peak RSS) and the sha256 of each file it writes that is
pinned.  Standard library only; README.md says who runs which rows.  A
change in these bytes is a format change and must be deliberate: a re-pin
is one changed row, named in CHANGES.md.  Where the digests were recorded:

* the certificates of ap-d1-depth12 and the two app builds, from the
  rational-geometry implementation that preceded the integer lattice core;
  their trees, from the first lacuna-tree/3 writer;
* the oracle and quotient-powlog digests, the ones bench/run.py pins;
* the exports and the differences app, from the Fraction-based writers
  that preceded rendering from integer numerators, except the d=2 SVG,
  re-pinned when its y axis was mended to draw every cube in the viewBox;
* the powlog rows, while the powlog comparison still enclosed q-th roots;
* the targets -3000 and 3000, before the target bounds were added;
* the ratios and ln(2) apps and the d=1 leaf-cap row, from the CI
  workflow's checks; the d=2 and d=3 leaf-cap rows, from the code at
  62a39ab.
"""

from __future__ import annotations

from typing import NamedTuple


class Step(NamedTuple):
    """One lacuna run: its arguments, its exit code and a bound on its peak
    RSS in MB (None: no bound).  It is killed after ci_checks.TIMEOUT."""

    args: tuple[str, ...]
    code: int = 0
    max_mb: float | None = None


class Row(NamedTuple):
    files: dict[str, dict]
    steps: tuple[Step, ...]
    sha256: dict[str, str]


def step(command: str, code: int = 0, max_mb: float | None = None) -> Step:
    return Step(tuple(command.split()), code, max_mb)


def patterns(d: int, *coeffs: list[list[str]]) -> dict:
    return {"d": d, "patterns": [{"m": len(c), "coeffs": c} for c in coeffs]}


def differences(value: str) -> dict:
    params = [{"kind": "rational", "value": value}]
    return {"kind": "differences", "params": params, "h": "pow:1/10", "d": 1, "depth": 4}


AP_DOC = patterns(1, [["1"], ["-2"], ["1"]])
Q_DOC = patterns(1, [["2"], ["-1"]])
PARALLELOGRAM = {"kind": "parallelogram", "params": [], "h": "pow:1/4", "d": 2, "depth": 6}
TRAPEZOIDS = {"kind": "trapezoids", "params": ["1"], "h": "pow:1/4", "d": 3, "depth": 5}
DIFFERENCES = {"kind": "differences", "params": [
    {"kind": "rational", "value": "1/2"}, {"kind": "rational", "value": "-1/2"},
    {"kind": "rational", "value": "1/3"}, {"kind": "log_of", "value": "2"},
], "h": "pow:1/10", "depth": 9}
AP_12 = step("build ap.json --dimfn pow:1/2 --depth 12 --out tree.json")
APP = step("app spec.json --out-dir out")


def ap_oracle(coeffs: list[list[str]], oracle: str) -> Row:
    """bench/run.py's ap-oracle recipe: the oracle finds instances."""
    return Row({"patterns.json": patterns(1, coeffs)}, (
        step("build patterns.json --dimfn pow:1/2 --depth 7 --out tree.json"),
        step("certify tree.json --mode all --spot-checks 100 --out cert.json"),
        step("export tree.json --format points --out points.txt"),
        step("oracle points.txt --patterns patterns.json --tol 0 --out oracle.json", 1),
    ), {"oracle.json": oracle})


def quotient_powlog(quotient: str, cert: str, points: str) -> Row:
    """bench/run.py's quotient-powlog recipe."""
    return Row({"patterns.json": patterns(1, [[quotient], ["-1"]])}, (
        step("build patterns.json --dimfn powlog:63/64 --depth 14 --out tree.json"),
        step("certify tree.json --mode all --spot-checks 100 --out cert.json"),
        step("export tree.json --format points --out points.txt"),
    ), {"cert.json": cert, "points.txt": points})


PINS: dict[str, Row] = {
    "ap-d1-depth12": Row({"ap.json": AP_DOC}, (
        AP_12, step("certify tree.json --mode all --out cert.json"),
    ), {
        "tree.json": "14f4c34437db478dd81deb77069db3f22632abbc8d47d7541c2a0b8b301691cf",
        "cert.json": "76bf1a5fc2dc2d84bf5aab7d1d85f1a0538dbfbfb2bc78931a65d4c0a85b1f24",
    }),
    "parallelogram-d2-depth6": Row({"spec.json": PARALLELOGRAM}, (APP,), {
        "out/tree.json": "896103b52203c962ee971250d730d03d7e24c2a68751c43ec3baa38c358362a6",
        "out/cert.json": "e88623526ce5b882d4f00f92e606d461decde0d8fb2bf0da089e46a676e5f7f0",
    }),
    "trapezoids-d3-depth5": Row({"spec.json": TRAPEZOIDS}, (APP,), {
        "out/tree.json": "c1ea0add6a64b0b7a69e5568cfcb05f6ca98ec2f3da95175a61d9aad64b40386",
        "out/cert.json": "db89223cea70719423ed5ca0f3c617e8b284e70ef2e3097e06a8d5ed26190611",
    }),
    "ap-1-2-1": ap_oracle([["1"], ["-2"], ["1"]],
        "3a222e8a82cdb650e4f86c9a33c2a475551a0e0735c9ccad20e515e7cb26e6f2"),
    "ap-1-1-2": ap_oracle([["1"], ["1"], ["-2"]],
        "7148ca7f118d4b3261a7d1c9013324eec07e7e7db050ec32876c539834d78162"),
    "ap-d1-depth12-csv": Row({"ap.json": AP_DOC}, (
        AP_12, step("export tree.json --format csv --out export.out"),
    ), {"export.out": "68b223dd7eddd987f72e37bd76fe3da8fa4ed39e17dbd89d60e3fea1147e60e3"}),
    "ap-d1-depth12-csv-decimals0": Row({"ap.json": AP_DOC}, (
        AP_12, step("export tree.json --format csv --decimals 0 --out export.out"),
    ), {"export.out": "1c340b1c4a5d36bda76877b0b7c85667347347462f1c8149970212f8b7d33948"}),
    "ap-d1-depth12-svg": Row({"ap.json": AP_DOC}, (
        AP_12, step("export tree.json --format svg --out export.out"),
    ), {"export.out": "ff35b0fb93e5d21bb27068dff5fb16d91a381d281760f166de5bdb027bb127f8"}),
    "parallelogram-d2-depth6-csv": Row({"spec.json": PARALLELOGRAM}, (
        APP, step("export out/tree.json --format csv --out export.out"),
    ), {"export.out": "b9630747607a377607e47aaa9b7cda70fb7d52d4ed6a10aaf964f0fddec8cff3"}),
    "parallelogram-d2-depth6-svg": Row({"spec.json": PARALLELOGRAM}, (
        APP, step("export out/tree.json --format svg --out export.out"),
    ), {"export.out": "0e64afdef30c5fdc69b8d4200f67bee4e0c7fefefbf3a95a57df80be0a3ad341"}),
    "trapezoids-d3-depth5-csv": Row({"spec.json": TRAPEZOIDS}, (
        APP, step("export out/tree.json --format csv --out export.out"),
    ), {"export.out": "007207b0fcff42f187c1dc2feec37b1a236187bf471eb38be781e9a501122df6"}),
    "differences": Row({"spec.json": DIFFERENCES}, (APP,), {
        "out/report.json": "d7ac32b7cc440f0e39ba7a32c1f0ffd16f1c8a41b03246b952208fcff5b5e76e",
        "out/cert.json": "fa51ba7cbc07dcf0ac6f7e5fbb5c1049bce73b09d1a67cb103f27f17e9d68e9a",
    }),
    "quotient-3/2": quotient_powlog("3/2",
        "8ef1883619c8837a4b980dec069cb9b5efeb2be7e3ef8908b9622a81b2d43052",
        "abdecc1490cff7df2ff0e4c878d0bbacae03cff58cdfef06e4a047ed2f0151a7"),
    "quotient-4/3": quotient_powlog("4/3",
        "d72aea92191f6bd47d0cce76c3845e1858354e533b1a61edd4ccf22ef0eefea1",
        "fe9525eb50c9a47930c0535e28ec102afe6328214dde236122092b8094bf9119"),
    # powlog:1/2 in d=3 compares ratios -ln(r)/r^(5/2), an exponent a < 0
    "powlog-d3-depth7": Row({"q3.json": patterns(3, [["2", "0", "0"], ["-1", "0", "0"]])}, (
        step("build q3.json --dimfn powlog:1/2 --depth 7 --out tree.json"),
        step("certify tree.json --out cert.json"),
    ), {
        "tree.json": "eb4183f5e6e362d8a6ccc02daf8f2c5bf43048338e12c857fff4babf16fc3a88",
        "cert.json": "22889644ee3882490377c5e7bc7685c22c252e9abb39a2e228ad8f3f2acc230c",
    }),
    # neither target certifies a gap, so both write the same cert.json
    "differences-minus-3000": Row({"spec.json": differences("-3000")}, (APP,), {
        "out/tree.json": "9afc4adaa9d3a41bcfbc9dd527fe7a22583fcf96e32a63b74110be4c8aca3782",
        "out/cert.json": "3caad7060c8baddb510cb02e29a5e4a72186d5a65cadfeb8ff98e7e441001006",
        "out/report.json": "bac492dad79fbac9764746e005495d1948691ecb5bac162c0834d2a80219e2d3",
    }),
    "differences-3000": Row({"spec.json": differences("3000")}, (APP,), {
        "out/tree.json": "a7441d65609888d418d9efa81b16660ecc400cfe47cd199a5eb0fc44fb00c83a",
        "out/cert.json": "3caad7060c8baddb510cb02e29a5e4a72186d5a65cadfeb8ff98e7e441001006",
        "out/report.json": "7a0153c894c5b4278a7ade3c624a645f5fec0365c0fb69361456fff6a32da175",
    }),
    # the gap search at m = 3, and at m = 2 through the ln/exp series, which
    # the differences app imports only when it runs
    "ratios-2-depth7": Row(
        {"spec.json": {"kind": "ratios", "params": ["2"], "h": "pow:1/2", "depth": 7}}, (APP,),
        {"out/cert.json": "b679c612b30cb3435acc2706c72a54078a428ce82d6d8b6e3145df1602d49101"}),
    "differences-ln2-depth5": Row({"spec.json": {"kind": "differences", "params": [
        {"kind": "log_of", "value": "2"}], "h": "pow:1/2", "depth": 5}}, (APP,),
        {"out/cert.json": "b43c1b68e142bfb801c4deefd2afb0c7a5af9f8c6435cc80ce2aa81b5a2936e6"}),
    # the leaf-cap rows, which only tests/ci_checks.py runs
    "leaf-cap-d1": Row({"q.json": Q_DOC}, (
        step("build q.json --dimfn pow:1/2 --depth 25 --out tree.json", max_mb=64),
        step("certify tree.json --mode all --spot-checks 100 --out cert.json", max_mb=180),
        step("export tree.json --format points --out pts.txt", max_mb=180),
        step("export tree.json --format csv --out pts.csv", max_mb=180),
        step("export tree.json --format svg --out tree.svg", max_mb=180),
        step("oracle pts.txt --patterns q.json --out oracle.json", max_mb=300),
    ), {
        "tree.json": "072d778206d28b5101185ae1d2f65741c9817d1cb34951c7270f219ca601d28e",
        "cert.json": "9a98a6651c4edc52c012b1dbdafedcdcc1cdc835596237e1e4d811d551e0dfe5",
        "pts.txt": "15770624b3b036d9c1086e31540b7d63c03957eae2f9f3e7b61e1406492f2a94",
        "pts.csv": "33bc02d475fbfbad381508bd9329879f993089c37eb3f856102f7a64636fcaa7",
        "tree.svg": "0e7f07d903dcc51ecddb8e3bedc8f582ad4976b07e3455839f5fe383d4358384",
        "oracle.json": "5da03fd77513204c2b8bb3fd484c10d81104b7b68c8f3b593fba490f81d7e249",
    }),
    # d=2 and d=3 at the leaf cap run the strided kernels and the reader's
    # d > 1 path; each bound is about 10% above the highest peak RSS read
    # under 3.10-3.13 (d=2: 25.7, 198.4, 198.2, 115.9 and 351.9 MB; d=3:
    # 63.1, 96.4, 89.7 and 123.0 MB), and SVG is refused for d=3.  No
    # leaf-cap oracle finds an instance, so d=1 and d=2 write one oracle.json.
    "leaf-cap-d2": Row({"q.json": patterns(2, [["2", "0"], ["-1", "0"]])}, (
        step("build q.json --dimfn pow:1/2 --depth 15 --out tree.json", max_mb=64),
        step("certify tree.json --mode all --spot-checks 100 --out cert.json", max_mb=29),
        step("export tree.json --format points --out pts.txt", max_mb=219),
        step("export tree.json --format csv --out pts.csv", max_mb=219),
        step("export tree.json --format svg --out tree.svg", max_mb=128),
        step("oracle pts.txt --patterns q.json --out oracle.json", max_mb=388),
    ), {
        "tree.json": "7780719a4f9682cf4c6f5abfc2820807678c523b336a226115531720197daab8",
        "cert.json": "2e8874217187724066656cb9dd98e8c5e8dd825ef4f213fba0c2eff0d9fb20b9",
        "pts.txt": "fdafe1a6ba908c129e0811277c28f8aabf4add796692334271fbfbb9bb8a8739",
        "pts.csv": "6d296608ca9394436a56f1d23cd7a943a85862162cf0c5b9ff800cfe725e2203",
        "tree.svg": "a3de496f2141a0696f72cf76b48e58eb621fb36cfccbd686cb6341f3443b0d38",
        "oracle.json": "5da03fd77513204c2b8bb3fd484c10d81104b7b68c8f3b593fba490f81d7e249",
    }),
    "leaf-cap-d3": Row({"q.json": patterns(3, [["2", "0", "0"], ["-1", "0", "0"]])}, (
        step("build q.json --dimfn pow:1/2 --depth 11 --out tree.json", max_mb=64),
        step("certify tree.json --mode all --spot-checks 100 --out cert.json", max_mb=70),
        step("export tree.json --format points --out pts.txt", max_mb=107),
        step("export tree.json --format csv --out pts.csv", max_mb=99),
        step("oracle pts.txt --patterns q.json --out oracle.json", max_mb=136),
    ), {
        "tree.json": "f65c62c01c2dfccfb7bbd1ee6f464f406e83873f3577dc9253cc69f6b735b2d0",
        "cert.json": "86d29a1f6eef9ee2df0ca3f77ca9040488f417f94b493d0e7137b49af417acae",
        "pts.txt": "0a549105f889824b492584ea4c5560b198d99578a0a29c6dd5185afc56364f86",
        "pts.csv": "0a6b55c815a41a130df8a961dd00f4adb07b6f40c838bd95484181f8733e6d5a",
        "oracle.json": "02b5a6713812028d9aab9ba17f830f7fa2968f340c816aceea16523a873dc617",
    }),
}
