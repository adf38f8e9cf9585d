"""Report bytes are pinned: SHA-256 of the text, json and csv reports of a
fixed set of CLI invocations, with their exit codes."""

import hashlib

import pytest

from flatrank.labcli import STATEMENTS, main

FRACTIONAL = "x1^3 + 2*x2^3 - 3/5*x1*x2*x3"

# (name, argv), run in order in one directory: the dumped F.txt is read back
# by a relative path, so the rank report's ``file`` field is stable.
INVOCATIONS = [(f"verify {s}", ["verify", s]) for s in sorted(STATEMENTS)] + [
    ("scan", ["scan", "x1*x2*x3*x4"]),
    ("flatten cat", ["flatten", "x1*x2*x3*x4", "--kind", "cat", "--k", "2"]),
    ("flatten shifted", ["flatten", FRACTIONAL, "--kind", "shifted", "--k", "1",
                         "--ell", "1", "--dump-matrix", "F.txt"]),
    ("flatten koszul", ["flatten", FRACTIONAL, "--kind", "koszul", "--k", "1",
                        "--p", "1", "--modular"]),
    ("rank", ["rank", "F.txt"]),
    ("bounds odd-product", ["bounds", "--family", "odd-product", "--n", "2"]),
    ("bounds powersum", ["bounds", "--family", "powersum", "--r", "2", "--delta1", "2",
                         "--delta2", "2", "--k", "2"]),
    ("bounds perm-gap", ["bounds", "--family", "perm-gap", "--n", "16", "--delta1", "4",
                         "--r", "16"]),
    ("permanent", ["permanent", "--n", "3"]),
    # Koszul cells of monomials: a squarefree product past the exact limit,
    # a repeated exponent over a denominator, variables outside the support,
    # and a dumped matrix, whose bytes are hashed with its reports.
    ("flatten koszul product", ["flatten", "x1*x2*x3*x4*x5*x6*x7*x8", "--kind", "koszul",
                                "--k", "4", "--p", "3", "--budget-cols", "20000"]),
    ("flatten koszul monomial", ["flatten", "3/2*x1^2*x2*x3", "--kind", "koszul", "--k", "2",
                                 "--p", "1", "--modular"]),
    ("scan padded", ["scan", "x1*x2*x3", "--n-vars", "5"]),
    ("flatten koszul dump", ["flatten", "x1*x2*x3*x4*x5", "--kind", "koszul", "--k", "2",
                             "--p", "2", "--dump-matrix", "G.txt"]),
]

# The file whose bytes join an invocation's digest.
DUMPED = {"rank": "F.txt", "flatten koszul dump": "G.txt"}

# Recorded before the builders and the component split shared one private
# SparseMatrix constructor.
DIGESTS = {
    "verify NUMAB": "43ba317bccfc81cb89b58b0338eb060ee261236cdca05bcff83b052740f74915",
    "verify YFveronese": "6b62969425ff076b7d8ca80b69a9079af403d69bfaaf4ca639b9278c1b62c3e0",
    "verify bounds": "1c450c212069b7fdbf9a5c6201d3dcd14d123c6f0e992e1f4327187edd30e5f3",
    "verify chowsrank": "7e26b8586d05452385d0739f3ba24ad198516a7337e54dd0c7e2351f3c13c49e",
    "verify classic": "a70043e1662b7ec01ab43703ccaa6836c2208fc5f6605291f1e99097f105e34c",
    "verify kyfl11": "005dcef662473ef09ccb54668030878b6e42a5c814c2267c22c21ec27cadff92",
    "verify nontrivial": "6ffa92006d5134255e052e6853a0e0ebb838904121a40ed6a3c32a4be2042ead",
    "verify perm": "9078577637dfb7d19c10f84ea2eeb5f46390568e0eee8fdda8dfdb99f45bbd66",
    "verify permcom_gap": "76662754d48ee30fcbce2bac17df4471e5fad3068225e323c9b2055cced5851a",
    "verify rankchow": "40c05ec1a3f1fa0517b6eb66ae50489f416d62d1ad1182f91edc2293b092c5a7",
    "verify rankschow": "79f48581436e4283ab48b406bded84273eeb4c42c4e65cf333f7bc673a5002d5",
    "verify secant_cat": "dba828cf71b46fd1ef04c35b9d9dc243c51720fcb041194b0a1b490034e7d8eb",
    "scan": "e4f7b68b1074a0796b71155a5750f3b78b7e2bb3ee4b6e5e13eb85d0e4b6883f",
    "flatten cat": "eaa7203475de3b2e6ca8ecab92bfa082b18d24c1e8bdfac53a02fc52c37559a5",
    "flatten shifted": "8a75677777acdffe0af3a9e586f7ed56d363f6f841f4b8952d160f8daca8752a",
    "flatten koszul": "3f70694a3f7d2900e56c421155c61dc0203b6ac9fb5a5bc392cdbc04efd833ed",
    "rank": "37374052a0fa28f55c6674bad5a4b281182e419e7054928672bfc63dbbd80f53",
    "bounds odd-product": "61cd4fc7e2f59feb06f278f4bbd23c189c1355e13685b53f336a40759e9768a1",
    "bounds powersum": "643eb3be5378a81476ebcef595a7dd9f04cbb0964b7d8d52dab216c7458ed33f",
    "bounds perm-gap": "95197b5d0a21be5fec2eab5d02bbc27d189c913b61f02cbfa21349335c13b297",
    "permanent": "3564ca2a99229a3bc0a4e54d8e090438cc54c78fa6f69c29ad58480e34ce1a19",
    # Recorded before monomials were ranked one weight block per orbit.
    "flatten koszul product": "18f794699abbc04762b9c039f3009662296bcd1c09196f36bd16c9866ce818ac",
    "flatten koszul monomial": "e68bf771dada2a524cb4ccdd842f718d189533784ab66db674f50096883a8aab",
    "scan padded": "45528308b78d8c3a5c9424c4491508df51366e25513e75b6cb5e123c2bf5852d",
    "flatten koszul dump": "ba86a53cf602138e9808d9109f00b7301e88c58867a704e48137a148df422f4f",
}


def test_reports_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = {}
    for name, argv in INVOCATIONS:
        h = hashlib.sha256()
        for fmt in ("text", "json", "csv"):
            code = main(argv + ["--format", fmt])
            h.update(f"== {fmt} exit {code}\n".encode())
            h.update(capsys.readouterr().out.encode())
        if name in DUMPED:
            h.update((tmp_path / DUMPED[name]).read_bytes())
        seen[name] = h.hexdigest()
    assert seen == DIGESTS
