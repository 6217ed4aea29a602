"""Byte-identical ``--json`` output: the sha256 of stdout for a fixed set of
commands, pinned when the output format was last changed on purpose."""

import hashlib

import pytest

from leetile.cli import main

GOLDEN = {
    "certify --range 3:3000 --json":
        "cd86e43147bcd9d172ccd57034bac1f5782268d49f3300db741f4691a81824de",
    "certify --n 1 --json":
        "2cb06188c310e18a5048d3c028f89fb54e4586abf52b3f5567f52b233a1037ad",
    "certify --n 4 --search-fallback --json":
        "5e894a039e573cf3bc5ee33ff045e1a7f12333db7afd5efca9aa9b059d4adbb5",
    "search --n 3 --json":
        "f0a5986be2a60f850deb02ead6a7cc21912f943f860f6c8fd79ebee70104648e",
    "search --n 2 --no-reduction --json":
        "37e4aa00e41c160b28963ad2a48dbd3f4c110a1b89f5987c50f72e6fb46bd788",
    "verify --group Z13 --n 2 --t 0;1;12;5;8 --json":
        "aed36845ac042fd4c9cab2cb0700e5474e063157914eaaef5aca697d1ca25fd0",
    "profile --group Z13 --n 2 --t 0;1;12;5;8 --k 4 --json":
        "2c3725529f7be90131ad9936e1ab81e2860ffca7d0c083e146da0cc859b5c235",
    "groups --order 25 --json":
        "b3e7e6ff49f6552079dcb8c0ae6312242c6ec6d8eafae827210ecbc0cbec2b3b",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_is_byte_identical(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
