"""Byte gate on the CLI: exit code and sha256 of stdout for a fixed table of
commands.  A refactor that keeps every output the same keeps this table; a
change that means to alter an output updates the digest it names."""

import hashlib

import pytest

from fampersist.cli import main

SAMPLE = "-1.5\n-1\n-0.25\n0.25\n0.5\n1\n1.5\n2.25\n"
PAIRS = ("x,y\n-1.5,0.25\n-1,1\n-0.25,0.5\n0.25,-0.5\n0.5,0\n1,1.5\n"
         "1.5,0.75\n2.25,-1\n")

GOLDEN = [
    (("module", "--example", "hat"), 0,
     "4dbf97323f71d3e307ece58afcc797f1c6e5ff24822f814c2d1e44954fe9af21"),
    (("module", "--example", "hat", "--degree", "1"), 0,
     "aa7f5c6e544e8d621097c32d5220f21e40cc266cf7780fd00d2b62f2d66a3a05"),
    (("module", "--example", "hat", "--format", "csv"), 0,
     "f1eda544fafb9f3ce54c928b7ea6a7fb8c378b6f4bc804fd97781a6f16b21eeb"),
    (("module", "--example", "zigzag:3", "--max-degree", "1"), 0,
     "de822fda41b88d13c176a7d6a891278d6eb01e289a71c557d7b29f1a62ba3439"),
    (("module", "--example", "cylinder:6", "--degree", "1", "--field", "3"),
     0, "3e816ad3be56501c95d0ce83c2afb6e79180e82d495e878e69ba3322ee984cea"),
    (("module", "--example", "wrinkled-cylinder", "--degree", "2"), 0,
     "c3d7faa0ca63a4d2fffd22349d4138b3239f8931acf89dd8c82eaaa3dfc7b8e6"),
    (("module", "--example", "wrinkled-cylinder", "--max-degree", "2",
      "--field", "3"), 0,
     "38d4415aefae90316e64fb3c6163f95cb7f51a592410b4c88960fdb8b12591ad"),
    (("module", "--example", "hat", "--emit-family"), 0,
     "e628bd93ee9d1028da5c62eb5543946a92199c28d863aa88ae794d7c5665703e"),
    (("verify",), 0,
     "1d7196867d08c917c786e2c6fd0995b3a3f2e008f0c378ddc8cace1195a07b80"),
    (("verify", "--format", "json"), 0,
     "f6a5b874889515a8bafc73649508c62ab2036eb7376ac165d1950cd162114538"),
    (("verify", "--tamper"), 1,
     "2e5879a88f5d29c293e39ff94e8ff00f179131a41b4758c3d80f1fa8e12b0a32"),
    (("verify", "--format", "json", "--tamper"), 1,
     "42256d6848f513a666dce8c11a26f33bf1660cb672abb92b4fb198d5347d246d"),
    (("verify", "--field", "3"), 0,
     "1d7196867d08c917c786e2c6fd0995b3a3f2e008f0c378ddc8cace1195a07b80"),
    (("stability", "--example", "hat", "--example2", "zigzag:2",
      "--epsilon", "1/2"), 1,
     "da0f72e331345b93368c4660add5cbeaf590a4d381d99b3f85b9ef869ebf9ef3"),
    (("stability", "--example", "cylinder:6", "--example2", "cylinder:8",
      "--degree", "1", "--epsilon", "1/4"), 0,
     "012e38281fe121966d0f85717ef5f3f3fd5ed5427a6d22d439a9d9ae6798c89a"),
    (("stability", "--example", "zigzag:2", "--example2", "hat"), 0,
     "b3f847733332baabaa419163c706d920be1875838ea12bb23563d56b0336d525"),
    # Every c + 2*epsilon lies above the top grid level.
    (("stability", "--example", "hat", "--example2", "zigzag:2",
      "--epsilon", "3"), 0,
     "9f0a7a7d9879d36f5910ee2501eca0d11b4783c45c1970b689de1a85f7a510b7"),
    (("stability", "--example", "wrinkled-cylinder", "--example2",
      "wrinkled-cylinder", "--degree", "1", "--epsilon", "0"), 0,
     "2dc86bed44354d137d08ee84f4361b7da8914ce4eb7f6aef8dda518034580897"),
    (("cerf", "--example", "wrinkled-cylinder", "--format", "json"), 0,
     "6a30bbc8cb957b8ba2a60d5f70200371d8d3eb54f0a872857bcef434f23adf18"),
    (("cerf", "--example", "hat"), 0,
     "a828fd9aa81d6041bdd274faa4e1e859d2bb0dfc365bdc1db80f659da5c2bb39"),
    (("kde", "--summands", "--tres", "4", "--xres", "16"), 0,
     "2516f1beeba04ebc5b8168bfe37423942a6e49850292245a5ffaf698c2b877ab"),
    (("kde", "--kernel", "epanechnikov", "--tres", "4", "--xres", "16"), 0,
     "517bfc8cb3e9bed80cb9de3f58b340f6c3b17c93b5868a0b407ae5c74bbb12eb"),
    (("kde", "--kernel", "triangular", "--tres", "4", "--xres", "16"), 0,
     "320be64fbbc273970734bcf0c957675bb98233dbcd25155e4ab27eaa8780c72c"),
    (("kde",), 0,  # the default --tres 8 --xres 32
     "ef373a020bbc1996149ca105bcc77ebac26b78344c34c87c1d4bc8b273288ede"),
    (("regress", "--summands", "--tres", "4", "--xres", "16"), 0,
     "766cf4d765272c010e0b122d4bedf625a00a10857551edaa2cc8b5bef59c5e15"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_stdout_digest(capsys, tmp_path, argv, code, digest):
    if argv[0] in ("kde", "regress"):
        data = tmp_path / "samples.csv"
        data.write_text(SAMPLE if argv[0] == "kde" else PAIRS)
        argv += ("--data", str(data), "--bandwidth", "1/4:2")
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
