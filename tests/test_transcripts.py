"""Golden CLI transcripts: each command's exit code, stdout (by length and
sha256) and exact stderr are pinned.  The pins were captured before the
identity table refactor, so any change to them is a change in the CLI's
observable behaviour, not a refactor."""

import hashlib

import pytest

from jacobsthal_octonions.cli import main

# (argv, exit code, stdout bytes, stdout sha256, stderr)
TRANSCRIPTS = [
    ("verify --all --variant both --to 60", 1, 72567,
     "d8d05f0eab69bbe28f965f8310f57cbf558be5dad319b503a05206b87cc859f1",
     ""),
    ("verify --all --variant both --to 60 --format json", 1, 129097,
     "222a14c9550e58dce8ca709471ba421e5adc870cfa12fc83bfcd877b08aa4b2d",
     ""),
    ("verify --all --variant both --to 60 --format csv", 1, 800,
     "c2f793ce5765443f965327b3ec9202d7a7333a1b0ea5112b649a28b72903c8cd",
     ""),
    ("verify --all --variant printed --to 30", 1, 26312,
     "91cbeeea012a382acafa844a8db8f313f6a6d153f997be67a324f0fe9e6edca8",
     ""),
    ("verify --all --variant printed --from 25 --to 30 --format csv", 1, 736,
     "9e753d9d1494218e44aaacc0bc439a160617e20cb8aa9f5581c997677fd0c756",
     ""),
    ("verify --identity T5_QUAD --variant both --to 20 --format json", 1, 17647,
     "933911457e3997e0a43ad318494409fa7dd674d21a46750ea9463a74d82ce5fa",
     ""),
    ("verify --identity T5_QUAD --variant both --to 5", 1, 1805,
     "ab8ae965b4cc83f6f594dcbeab012a4cf1b106358548137d2d302237996138e0",
     ""),
    ("verify --identity T6_QUAD --variant corrected --from 3 --to 12 --format json", 0, 151,
     "fff057ec9a694bd0080e3d8940c0f2d72754ca98eb6862d28a55b1a466247583",
     ""),
    ("verify --identity T4_PROD_JOJ --to 12 --format json", 0, 230,
     "754057920ca7a1537a5d7cad67fc79b1a34ee92febc02af4a7b348110c0b2d35",
     ""),
    ("verify --identity E5 --to 5 --format json", 0, 173,
     "0c0a8abf84ae7f35c9d32efadc1595269f3a73293c116e0cc5291fe34c7f2a1d",
     ""),
    ("verify --identity OCT_REC --variant both --to 8 --format csv", 0, 26,
     "ab15a8df885540c50c6506457b7db116c4c60d1dc010a770023eb38b1f79827e",
     ""),
    ("seq --kind j3 --to 60 --format csv", 0, 784,
     "6c51d59214ace9ac30ee72838e5f6e369f0aae29a22a02013a7812b03ce8c970",
     ""),
    ("seq --kind jl3 --to 40 --format json", 0, 1821,
     "089c411f6a504db24f11a5f10dcbb6c1260beae34835f403f5c4673c49febf10",
     ""),
    ("seq --kind jacobsthal --from 3 --to 12", 0, 56,
     "2b77f5e3868f4375e5438cb79d476c790fcf57fdc940c939ca6c754dd103e3a7",
     ""),
    ("seq --kind jacobsthal-lucas --to 12 --format json", 0, 518,
     "5d66d69ffea2447493192ef8831ebb264c53d00037302f8e996eb3cc5d3499ea",
     ""),
    ("oct --kind JO --n 17 --closed --format json", 0, 203,
     "364b34861f4c123091ff9822a81380bfea2b216cd344573fd883b5ef75096aab",
     ""),
    ("oct --kind jO --n 12 --closed", 0, 91,
     "492a11e4569650507674d2b6e2f7c0d13dcdafa03dc990c17853fec1be9517e2",
     ""),
    ("oct --kind JO --n 0 --format csv", 0, 20,
     "6c3d3d193a66e0bab5defebb9b66e60e0d139905f5ac7f9cff954415605b04aa",
     ""),
    ("mul-table", 0, 396,
     "e2b1f5562ed1d89a5499f8409ecaae6374fb0cf9a041540dcf2a07c51bee27d8",
     ""),
    ("mul-table --format json", 0, 2847,
     "ffc81272ff1a52b0aed52bd254cb7827166370a15b2daf9a696cbb47bb2ca0dd",
     ""),
    ("mul-table --format csv", 0, 236,
     "48868610f77f0bd23fce4cf83e3487944b9489377c20af17e37ef534bb5c9658",
     ""),
    ("verify --identity E4 --variant corrected --to 5", 2, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "j3o: error: E4 has no corrected variant\n"),
    ("verify --all --variant corrected --to 5", 2, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "j3o: error: --variant corrected needs a single --identity; use --variant both with --all\n"),
    ("verify --identity NOPE --to 5", 2, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "j3o: error: unknown identity 'NOPE'; known ids: E4, E5, EC5, E6, E7, E8, E9, E10, E11, E12, JSUM, OCT_REC, BINET_JO, BINET_JOL, T1_SUM, T1_SHIFT4, T1_NORM, T2_SUM, T2_SHIFT4, T2_NORM, T3_A, T3_B, T3_C, T3_D, T4_PROD_JOJ, T4_PROD_JJO, T5_QUAD, T6_QUAD\n"),
    ("verify --identity E4 --from 5 --to 4", 2, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "j3o: error: need 0 <= from <= to, got [5, 4]\n"),
]


@pytest.mark.parametrize("argv, code, size, digest, stderr", TRANSCRIPTS,
                         ids=[t[0] for t in TRANSCRIPTS])
def test_transcript_is_unchanged(capsys, argv, code, size, digest, stderr):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    out = captured.out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
    assert captured.err == stderr
