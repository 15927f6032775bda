"""``tools/op_digests.py --compare``: the diff of two digest files, which
tells whether a change moved any benchmark op's output.  No digests are
computed here."""

import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def compare(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import op_digests

    def run(a: dict, b: dict) -> tuple[int, str]:
        paths = []
        for name, digests in (("a.json", a), ("b.json", b)):
            path = tmp_path / name
            path.write_text(json.dumps(digests))
            paths.append(str(path))
        code = op_digests.main(["--compare"] + paths)
        return code, capsys.readouterr().out

    return run


DIGESTS = {"vmbv/7/0/vmbv/M16/none/random": "ab12", "donsker/7/0/donsker/M32": "cd34",
           "identities/11/3/identities/M8/order3": "ef56"}


def test_equal_digest_files_compare_equal(compare):
    code, out = compare(DIGESTS, dict(DIGESTS))
    assert code == 0
    assert out == "3 equal, 0 differ\n"


def test_a_changed_digest_and_a_missing_key_are_listed(compare):
    changed = dict(DIGESTS, **{"donsker/7/0/donsker/M32": "cd35"})
    del changed["identities/11/3/identities/M8/order3"]
    code, out = compare(DIGESTS, changed)
    assert code == 1
    lines = out.splitlines()
    assert lines == ["donsker/7/0/donsker/M32: cd34 != cd35",
                     "identities/11/3/identities/M8/order3: ef56 != -",
                     "1 equal, 2 differ"]
