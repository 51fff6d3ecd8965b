"""Byte-for-byte gate on the command line: exit code and stdout digest.

Each case runs ``main`` in-process, optionally with a JSON config file,
and compares the exit code and the sha256 of everything written to
stdout with the pinned values.  The cases cover every subcommand in each
format it offers, each export kind, the skip paths of the toric audits,
the caps (the chromatic state cap lowered by patching its constant), the
config file, and the usage (2) and resource-limit (3) exits.  A change
that alters a single byte of a report fails here; a deliberate one
updates the digest and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from staircase import chroma
from staircase.cli import main

# (config file contents or None, argv, exit code, sha256 of stdout)
GOLDEN = [
    (None, "words --r 4..6 --format text", 0,
     "bdd17699eb0a0da9ea920d2463effda7550093c7795b3d66ab61bcd4ef8e8bce"),
    (None, "graph --ell 3..7 --format text", 0,
     "86515d7de0caffe8d42446b43f44606dd782fe03ceb4aa00e499fdb6c71a5326"),
    (None, "layered --ell 1..7 --series 4 --format text", 0,
     "5a131d65484aff8fa31f7ca690b953b0f5e0f03b0ebc62095480c8e8da17339d"),
    (None, "layered --ell 1..45 --format text", 0,
     "d28967cbe14ca9242846328a05329604ec902cef0dbe3bdb6885d6cc56232897"),
    (None, "chroma --ell 3..9 --format text", 0,
     "2fcee8dd2c681dd064d6a3870f336059ecfa5398cbd754fc145d85308713190d"),
    (None, "separation --ell 1..10 --format text", 0,
     "19e069d95917eeb3bd6a2e56d4854b69d51e4ca2877b2e5a02ffd2b4e6c988ef"),
    (None, "identities --ell 5..9 --degree-bound 3 --format text", 0,
     "11376b47a02de9c27f536d2827cf997222ad3e9d1df5b4f847d20a9341ac1122"),
    (None, "conjectures --ell 5..10 --format text", 0,
     "ddd8d443b589a09d61db6aaed60283bb7cabff921d5927b5d55c05547850c088"),
    (None, "verify-all --ell 3..6 --format text", 0,
     "b0b35e315c72c8b2657629ac806b094c3d5bd0a8cf7aa0826911cf578a3f058c"),
    (None, "words --r 4..6 --format json", 0,
     "fbff440e56c71564624ce6207a64e8d08ea657a611fc51aa6d16d34ddb32b551"),
    (None, "graph --ell 3..7 --format json", 0,
     "00cec5e5899934ce4860c28f4876ed5cc6e56950456af5c0654e4366b3d174fd"),
    (None, "layered --ell 1..7 --series 4 --format json", 0,
     "d3f9f7fe3b7aa59e4b578b275795c5da103bb04cd3c4315b7c0a46b7b3baa16d"),
    (None, "chroma --ell 3..9 --format json", 0,
     "27372f8bf2006f62bb5123e837a4b3394504929c2ea366fa4187deb7d4467c53"),
    (None, "separation --ell 1..10 --format json", 0,
     "711a19af3bc025100c7abf1a5a059e0731feda16e2dbdca209bb9b824eccedaa"),
    (None, "identities --ell 5..9 --degree-bound 3 --format json", 0,
     "a1834392ed39ec4281d6e9e4aae020ac8d6dd421dee2fe9bf9218556987272e3"),
    (None, "conjectures --ell 5..10 --format json", 0,
     "5c2b64815879482c211b08ae07eb6be843e3f06f4a21d187bbfe58a7b3cac002"),
    (None, "verify-all --ell 3..6 --format json", 0,
     "c0786e796912ab40bf0e31b3cfa5bd5da73130de9fa06afde80aa2dbd4e9dc26"),
    (None, "words --r 4..6 --format markdown", 0,
     "5b97b88d0af55ff720ae2487de499b6a70a340bd54da3a63d41851a17df97790"),
    (None, "graph --ell 3..7 --format markdown", 0,
     "375979731972308b1b5847c9d25dc2783b75220b6b73bc5d808034008da7a958"),
    (None, "layered --ell 1..7 --series 4 --format markdown", 0,
     "a260325ab858194bc76ac8e2ecaaefcfb25ce99c950a860a466f51647b977b80"),
    (None, "chroma --ell 3..9 --format markdown", 0,
     "38467c663083562614e5d70f693f50458ee957ad3c159899e55b65d42ab657dd"),
    (None, "separation --ell 1..10 --format markdown", 0,
     "0a7435566ceb526d733e4e33156f67fe6840aac28531d6ee1087842311420392"),
    (None, "identities --ell 5..9 --degree-bound 3 --format markdown", 0,
     "961ca4938d8383bca180a71762b201409da448bf25ea99b41af38abaf45a2613"),
    (None, "conjectures --ell 5..10 --format markdown", 0,
     "990d73cff0c4d3ae6931b175da0b9fd63860d81232b0f5b89e248d1c79fe90ef"),
    (None, "verify-all --ell 3..6 --format markdown", 0,
     "389f3677c72964906e379cdd6fc0701cd03d59aaec1ef50b58debe93c741483a"),
    (None, "words --r 4", 0,
     "1b23d5076a4c06e1cde16bbbe0658188edb54f57641d81e9fbd690fbb06ce066"),
    (None, "graph --ell 5", 0,
     "6b36bc8f02ec021802157b9180b7b1786e228622713a79503046b30186a9a484"),
    (None, "layered --ell 3..6", 0,
     "abe9e044166fc6f6bfb29390d67560a3a8e7a590d8e086def7a6e1d3e034606b"),
    (None, "chroma --ell 3..6", 0,
     "f3ca7f7114fc9033c2617c40844f41e4355a959a0163d618fe67f783fc882672"),
    (None, "separation --ell 5..6", 0,
     "35ec9170f7644d39adb9126e58ab4399ee346a41c60efc2448de85ff7e5627ee"),
    (None, "identities --ell 5..9 --degree-bound 3", 0,
     "11376b47a02de9c27f536d2827cf997222ad3e9d1df5b4f847d20a9341ac1122"),
    (None, "identities --ell 5..7", 0,
     "15e9bd2a14cf2146ec23199c9bb4c15ce613ffc4610340a5aeaec82b2694da65"),
    (None, "identities --ell 5..7 --degree-bound 4 --format markdown", 0,
     "4b43950660f4c989090bdc0c22f1db6d3bfa1e0bbe2fd7f038309b8f59d83f42"),
    (None, "identities --ell 14 --degree-bound 4 --format text", 0,
     "df4458eaa40095c05b4999fc3e8e981c6be4c5abc12efde3e6bb1893534f9f56"),
    (None, "identities --ell 15 --degree-bound 4", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 5 --format dot", 0,
     "c086479e0e854d974dede3eb8cbf34175b83b896d0a60e7ab805d4ff5c6c7ff9"),
    (None, "layered --ell 4 --format dot", 0,
     "d33fd7e74544971eba42d8b9812284f6890f8dd1e1ca779f1a0e59e7a587eace"),
    (None, "layered --ell 1 --format dot", 0,
     "1496ac8e2c1aa886181d66d4ced3bfe6a673d6cd74dcb78d3f4209e7b84e503b"),
    (None, "export --ell 4 --kind word-graph --format dot", 0,
     "25925069d5d9ff721a2e9f1f9fb2539303c83392aa1e02e529663619caba230a"),
    (None, "export --ell 4 --kind word-graph --format json", 0,
     "4d381f5497d498261f5571c1fd90080594e66ee0177e67103d20554eb7a96c57"),
    (None, "export --ell 5 --kind word-graph", 0,
     "c086479e0e854d974dede3eb8cbf34175b83b896d0a60e7ab805d4ff5c6c7ff9"),
    (None, "export --ell 4 --kind layered-graph --format dot", 0,
     "d33fd7e74544971eba42d8b9812284f6890f8dd1e1ca779f1a0e59e7a587eace"),
    (None, "export --ell 4 --kind layered-graph --format json", 0,
     "b1736f2a60eb5118dc6ce9a3823de1cb8f9eb408369e8f58808a7734350647e0"),
    (None, "export --ell 5 --kind layered-graph", 0,
     "128d504d5da79dedf058d8fdc8e5f4d66399e7fdba88d4e28bb9ab042a6c491b"),
    (None, "export --ell 4 --kind weight-chain --format dot", 0,
     "b0615c6b1f50834e26d25556f6964ddffb3a5f96befbcfd5731b2f79f936bcfd"),
    (None, "export --ell 4 --kind weight-chain --format json", 0,
     "4b94029d10d1089cca640fcf310f503ab4a8a86981b329683df9c65ea82df98b"),
    (None, "export --ell 5 --kind weight-chain", 0,
     "99ceecdf43c129111d7bfc9795cdd610e40d26af652089e0f628e1a348a335af"),
    (None, "export --ell 4", 0,
     "d33fd7e74544971eba42d8b9812284f6890f8dd1e1ca779f1a0e59e7a587eace"),
    (None, "export --ell 3 --format json", 0,
     "19e56a8db4060228366262f9e74b64a84d11f06fd0007879d64a050ae434c10c"),
    (None, "conjectures --ell 1..11 --which c1", 0,
     "c22d9a3aa89700e011f06c2a6167f5e108c7aae9871819bdb153171849036e09"),
    (None, "conjectures --ell 1..11 --which c2", 0,
     "9d55cab86e8158d97440b1f8c2e3ac7c72d49f8325691fc33617852de20a2771"),
    (None, "conjectures --ell 1..11 --which both", 0,
     "196639c1d7f5348293508d774ebb59bc0382a18e475494e08e223e53a9fe5e49"),
    (None, "conjectures --ell 1..11", 0,
     "196639c1d7f5348293508d774ebb59bc0382a18e475494e08e223e53a9fe5e49"),
    (None, "conjectures --ell 5", 0,
     "d732f5835438080edf1dcf89a229913c859e2f817cb26cbab2e2ef5e3e1345a0"),
    (None, "verify-all --ell 3..6", 0,
     "b0b35e315c72c8b2657629ac806b094c3d5bd0a8cf7aa0826911cf578a3f058c"),
    (None, "verify-all --ell 3..8", 0,
     "df98b6c1b9362f0fefa1711e7cb2f3da23815449559258aa3a7b1dc9cca3c3b5"),
    (None, "verify-all --ell 3..8 --format json", 0,
     "70aa220fc69dfa32c45712033781d3024c1ef407c9f557132f03ba669fceb15f"),
    (None, "verify-all --ell 3..5 --strict", 1,
     "dc560084de87565853acdadd2695c0a37f2227939c19680d3668fd78633551f1"),
    (None, "verify-all --ell 3..4 --strict --format json", 1,
     "e5a14abf2157c85cc0e36de6d182bcbeb07b93313fcb362507187a4680c46af1"),
    (None, "verify-all --ell 9..10", 0,
     "38e902f1c98882ba49cd632456fff0f12ce7a1e288adff6831410cf6909072fb"),
    (None, "verify-all --ell 3", 0,
     "57e5096404e2aa0d118940c6571b28dcf2fb216c1bb12780f77c0b7e1c76c3d7"),
    (None, "graph --ell 6", 0,
     "0c981be52ee07e1e66844c3570b7a3607cc1ed0c396a11ee20049fec71ba3a14"),
    (None, "words --r 3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "words --r abc", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "words --r 4..5..6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 5..4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 3..5 --format dot", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "layered --ell 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "layered --ell 3..4 --format dot", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "chroma --ell 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "separation --ell 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "identities --ell 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "verify-all --ell 2..4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "export --ell 3..4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "export --ell 2 --kind word-graph", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "export --ell 1 --kind weight-chain", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "conjectures --ell x", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "words --r 4 --format dot", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "chroma --ell 3 --format dot", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "export --ell 4 --format text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "conjectures --ell 5 --which c3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "export --ell 4 --kind foo", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 5 --cap-vertices x", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "words --r 4 --bogus", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "nosuch", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 6 --cap-vertices 5", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "graph --ell 12", 0,
     "fcc25013738506d98ed3e5c712ae52bbd3a2743bbe6f06944305fa9e135a59a6"),
    (None, "graph --ell 11..12", 0,
     "a937480f94b3b13e48d13957181ca96f92a0b62f715a8d5c107e66541243cf18"),
    (None, "chroma --ell 7 --cap-states 5", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "chroma --ell 6..7 --cap-states 26", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (None, "export --ell 12 --kind word-graph", 0,
     "8978ca44ade220e6b8deb52dc9a08028ff0fbd0af323469c73ebcbdee1aefc80"),
    ({"format": "json"}, "words --r 4", 0,
     "db08c6e84091318f3d7374032ac773d5034c633028ab79c2d6f8dbda5f93fb61"),
    ({"format": "json"}, "words --r 4 --format text", 0,
     "1b23d5076a4c06e1cde16bbbe0658188edb54f57641d81e9fbd690fbb06ce066"),
    ({"format": "markdown", "series": 3, "which": "c1", "kind": "word-graph",
      "strict": True}, "words --r 4", 0,
     "50a0f75bc980717f2d999a288b37145a11c42f3681577a6b45e4f7b264114c08"),
    ({"strict": True}, "verify-all --ell 3..4", 1,
     "a604cc287bcc1e4b5d1f3cac932fdc1a5dc1a81ef4fd457cad3573f01a66486a"),
    ({"strict": False}, "verify-all --ell 3..4", 0,
     "d1f610d56ed8a869cd7cf67e52e75e46245b4be31e327a0609062b7d1812978c"),
    ({"strict": False}, "verify-all --ell 3..4 --strict", 1,
     "a604cc287bcc1e4b5d1f3cac932fdc1a5dc1a81ef4fd457cad3573f01a66486a"),
    ({"series": 3}, "layered --ell 3", 0,
     "5b21170bce19f4390140145691c60a06eb7df6da790d67a367e51d6e59a25698"),
    ({"which": "c2"}, "conjectures --ell 3..5", 0,
     "f2f58874c86d280c168f12c49075f8b650d34b2945316d6bee632b780c565fa0"),
    ({"kind": "word-graph", "format": "json"}, "export --ell 4", 0,
     "4d381f5497d498261f5571c1fd90080594e66ee0177e67103d20554eb7a96c57"),
    ({"cap-vertices": 5}, "graph --ell 6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ({"degree_bound": 2, "format": "json"}, "identities --ell 5", 0,
     "86839547c5c16ed145fe561038b67a593c2a959d921a555e259ee1d75cf83550"),
    ({"cap_states": 5}, "chroma --ell 7", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ({"cap_states": 5}, "verify-all --ell 7", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ({"mystery": 1}, "words --r 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["format", "json"], "words --r 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ({"format": "dot"}, "words --r 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


# (chroma.MAX_FRONTIER_STATES, argv, exit code, sha256 of stdout): the
# state cap lowered, so that its skip and exit paths show at small lengths
GOLDEN_AT_STATE_CAP = [
    (5, "verify-all --ell 7", 0,
     "d5aa7a2ff96605bfd1cb0378085a56ad3199d8ca3a1982266045078a2a7ff7ff"),
    (7, "verify-all --ell 6", 0,
     "57e12feda7c42e4091e0d274bd599c52022c13931ba6923cd30747b9286c34e3"),
    (7, "chroma --ell 6", 0,
     "94a0fc124184054cea2dbd25fed99123db43b84c9b7916ef291551b866492582"),
    (26, "chroma --ell 6..7", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def _case_id(case):
    config, argv = case[0], case[1]
    return argv if config is None else f"{argv} config={json.dumps(config)}"


def _code_and_digest(args, capsys):
    try:
        code = main(args)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=[_case_id(c) for c in GOLDEN])
def test_golden_output(case, tmp_path, capsys):
    config, argv, want_code, want_sha = case
    args = argv.split()
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["--config", str(path), *args]
    assert _code_and_digest(args, capsys) == (want_code, want_sha)


@pytest.mark.parametrize(
    "case",
    GOLDEN_AT_STATE_CAP,
    ids=[f"{c[1]} states={c[0]}" for c in GOLDEN_AT_STATE_CAP],
)
def test_golden_output_at_a_lower_state_cap(case, monkeypatch, capsys):
    cap, argv, want_code, want_sha = case
    monkeypatch.setattr(chroma, "MAX_FRONTIER_STATES", cap)
    assert _code_and_digest(argv.split(), capsys) == (want_code, want_sha)
