"""Golden SHA-256 digests of the criterion-8 CLI suite.

Criterion 8 checks that two reruns agree with each other; this test pins
what they agree on.  Each command's digest covers its exit code, its
stdout and the name and bytes of every file it emits, so a refactor that
claims bit-for-bit identical output has to reproduce all of them.  A change
that alters emitted numbers on purpose must regenerate the table and say so.
"""

import hashlib

import pytest

from pathlift.cli import main

GOLDEN = [
    (["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "0", "--v", "1"],
     "02217a86641d6e7eecaa4d8eaa549cc16eda6a7890374e3d382339894edb422d"),
    (["lift", "--connection", "flat", "--path", "segment:0,0:1,1", "--v", "3,4"],
     "a9e61cbda3206de6325b41b8237498b0e669d887a1a289e87ce456956b85d6c2"),
    (["transport", "--connection", "scalar-linear:1", "--path", "segment:0:1", "--v", "2"],
     "89451108169d923cb2ff086ae03fcd80462839de5b385bcb75625433e7590d88"),
    (["transport", "--connection", "fig1", "--path", "segment:0:1", "--v", "0", "--jacobian"],
     "d6381f3ee24bfedd4a2b37e17c133c13ac5ec6b0f3dfe2980f6f0401b09c5532"),
    (["transport", "--connection", "fig1", "--path", "segment:0:1", "--v", "0.7"],
     "2687e158459bfdbe85764a21c4101d7ad81200b5b0c553b1091359d3b3778382"),
    (["uvb-scan", "--connection", "fig1"],
     "a1df976155ae7b604433c6dc7febf745bc3be0878bbb1d6bf3dea5e812e38713"),
    (["uvb-scan", "--connection", "scalar-linear:1", "--format", "csv"],
     "fe75f85b81ea23e5be507a9daff46c19e64f678523514f39fd196b98a1006496"),
    (["figure1"],
     "488d73ecae322c51f19a92f85f0f7adef41b9c7a4ec808a6036ab4c312e1cf72"),
    (["gallery", "list"],
     "4cdf13d97f29bf117bf75873f6abf0ecc13c8d2e8e9efb164c3b814027ec2bfb"),
]


def _digest(code: int, stdout: str, out) -> str:
    h = hashlib.sha256()

    def chunk(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)

    chunk(str(code).encode())
    chunk(stdout.encode("utf-8"))
    if out.exists():
        for path in sorted(out.iterdir()):
            chunk(path.name.encode("utf-8"))
            chunk(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_matches_golden_digest(argv, expected, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(argv + (["--out", str(out)] if argv[0] != "gallery" else []))
    got = _digest(code, capsys.readouterr().out, out)
    assert got == expected, f"output of `pathlift {' '.join(argv)}` changed: digest {got}"
