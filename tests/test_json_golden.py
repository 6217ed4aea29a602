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
    "certify --n 2 --json":
        "9187f25298b1d5f4a64e273fd2024e3475aad28e6ee23ed4d37d0b37d7044d9d",
    "certify --n 13 --json":
        "d11c9f831e2fa986b87f0e1ce8911b7a082c11c3398093cc339e800321ec3164",
    "certify --range 3:4 --search-fallback --json":
        "532cbf69950b8f88edcf4ea84af31375911f0e14c5e82aeb681abc006f6ba3a6",
    "certify --range 13:14 --search-fallback --json":
        "7c1c1bb175673b34803030fcdecbd5a0ddbaa70618435fdc0dc1f9d5b77f5d4d",
}

# Commands that do not exit 0; every other command in GOLDEN does.
EXIT_CODES = {
    "certify --range 13:14 --search-fallback --json": 3,  # gaps, no certificates
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_is_byte_identical(capsys, command):
    assert main(command.split()) == EXIT_CODES.get(command, 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
