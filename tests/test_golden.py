"""Every golden case still yields the recorded verdict and certificate bytes.

tests/golden/certificates.txt holds one line per case: the case key, the
verdict and the sha256 of certificate_to_json.  tests/golden/regen.py
rewrites it."""

from helpers import GOLDEN_FILE, golden_certificates


def _recorded() -> dict[str, tuple[str, str]]:
    out = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        key, verdict, digest = line.rsplit(maxsplit=2)
        out[key] = (verdict, digest)
    return out


def test_golden_certificates_do_not_move():
    recorded, now = _recorded(), golden_certificates()
    moved = [key for key in recorded.keys() | now.keys() if recorded.get(key) != now.get(key)]
    assert not moved, "certificates differ from tests/golden/certificates.txt: " + "; ".join(sorted(moved))
