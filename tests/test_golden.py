"""Golden CLI output: each argv maps to the sha256 of its stdout and its exit code.

Every case runs in-process through `cli.main`.  A change that alters an output
on purpose updates its digest here in the same commit, from

    PYTHONPATH=src python -m symrank.cli <argv...> | sha256sum

(for `rank`, write the matrix in `MATRICES` to a file and pass its path).
"""

import hashlib

import pytest

from symrank.cli import main

# the text of each `rank` fixture; an argv names one by its key
MATRICES = {
    "pp.txt": "3 8\n4 2 2\n2 4 6\n2 6 4\n",
    "comp.txt": "3 12\n4 2 2\n2 4 6\n2 6 4\n",
}

GOLDEN = {
    "verify --suite crossroute": ("32cf9593e83f9664ade5eba9e2564131b9bc5d879de52d33c74c1e3ca73dabc8", 0),
    "verify --suite oracle": ("8a2182a5fee0ec8d4e320f9fc6a141404600b9f18b3813d8165574750e10d7a4", 0),
    "verify --suite bounds": ("c5255a31071f2659819858d7e5b026f493002e9b107f5a2f646913f0431c7b0a", 0),
    "verify --suite monotone": ("203f7eb08ee2ffe60838541ff7b3700415f66d990d9a989fb098d8a1420fbcba", 0),
    "verify --suite genfun": ("0da91532b05406ff79ccd80f10917c6755cefea77c01594715435b5870c483cd", 0),
    "verify --suite detdist": ("c7f48b50cbb1bb5dfe6f34eaa72b2b79a7233154973d0269225799934f44f66d", 0),
    "verify --suite all": ("81153e6ac02d2253ce1be99df2c7f964a7f8a2b2ab723b142dfdb674a82b70f8", 0),
    "verify --suite all --n-max 8 --mu-max 4 --p-list 2,3": (
        "c40c69ab0e9a88b4824bdf79bb1150fc9ff3c709215bad7fd650d50100ee3814", 0),
    "verify --suite crossroute --n-max 30 --mu-max 8 --p-list 2": (
        "1a55dcce680095869cf2d55c46824d37621d715ae6c171864fd14e12bcb2df46", 0),
    "prob --n 7 --m 27 --route recurrence5": ("01d4353201ab0ef20a20a49865353563f2f84a7cfe61b1efbcecf3632fae3f62", 0),
    "prob --n 7 --m 27 --route recurrence3": ("aae5e2cec93afdb2306990e86332ae90c4703e054ebaf57fe0866f6c4efdea51", 0),
    "prob --n 7 --m 27 --route explicit": ("9c96fe4661ffa471695df19d53e4da91c014fcde5d09987d2c60ac864eb2bb57", 0),
    "prob --n 7 --m 27 --route genfun": ("080e6949e454a6280e2fa9b852a6f7cb19d23bc2682b4fae62750f88df3bc5f0", 0),
    "prob --n 6 --m 360": ("52afb711a7ac17117db0351a90230a0fe50cd81f1e0f06c5a48f1a66af310ff4", 0),
    "prob --n 6 --m 360 --json": ("3fa8a60b75e5d904314465088a38d8133b760244a84fd78108a049f162bf3f63", 0),
    "table --p 2 --n-max 60 --mu-max 10": ("13e96849bbccc3194762b2195ccde88d15e620e25ea2120d68e2cc49ae5110b2", 0),
    "table --p 2 --n-max 60 --mu-max 10 --format json": (
        "7be95bf072513789c2b8252fd0b735bcfa94256a7d89354e3cf24ac13260fb14", 0),
    "sample --n 6 --m 30 --trials 50000 --seed 4242": (
        "a7c6bfa9e4d47a473f216de75f581848bb71ceef6779ae65711af52f89bdc807", 0),
    "limit --p 2 --mu 1": ("3ab999ee2374833f8b2088674bd4ecbcc84dc26e41017c01629c380dafc5a05a", 0),
    "detdist --n 2 --p 3 --exhaustive": ("c969c6b9b19569c4195f91499a40d08fb4f7358767a63a8a6470ed14f87b61a3", 0),
    "rank --input pp.txt": ("40d94c81ec8236764ae0d9b8ba381227411338e43a5c6036ca9a83ef61f8aa0c", 0),
    "rank --input comp.txt": ("8993162193213a96805ece66b007bdf633773a7bc899a7d699bb56aec43a4a1b", 0),
}


@pytest.mark.parametrize("cmdline", list(GOLDEN))
def test_stdout_is_pinned(capsys, tmp_path, cmdline):
    argv = cmdline.split()
    for i, tok in enumerate(argv):
        if tok in MATRICES:
            path = tmp_path / tok
            path.write_text(MATRICES[tok], encoding="utf-8")
            argv[i] = str(path)
    rc = main(argv)
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), rc) == GOLDEN[cmdline]
