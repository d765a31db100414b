"""Rewrite tests/golden/certificates.txt from the current code.

Run it by hand, and only in a change that moves a certificate on purpose
(a format change or a corrected verdict); say why in CHANGES.md:

    python tests/golden/regen.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import GOLDEN_FILE, golden_certificates  # noqa: E402


def main() -> None:
    lines = [f"{key}  {verdict}  {digest}\n" for key, (verdict, digest) in golden_certificates().items()]
    GOLDEN_FILE.write_text("".join(lines))
    print(f"wrote {len(lines)} certificate digests to {GOLDEN_FILE}")


if __name__ == "__main__":
    main()
