"""Golden digests of every shipped report.

``tests/golden_reports.json`` holds one sha256 per (config, command, format)
run of ``cli.run`` over the shipped configs: the digest of its exit code,
stdout, stderr, and the name and bytes of each file it wrote.  The temporary
output directory and the repository root are replaced by fixed tokens in
stdout and stderr, and the backend recorded in ``versions.backend`` is pinned
to ``"python"``, so the digests depend on the reports alone.

A change that moves a report rewrites the manifest with

    PYTHONPATH=src python tests/test_golden_reports.py

and lists the moved entries in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from predbif import cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden_reports.json"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
FORMATS = ("json", "csv", "svg")


def _digest(config: str, command: str, fmt: str, out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run([command, "--config", str(ROOT / "configs" / f"{config}.cfg"),
                        "--out", str(out), "--format", fmt])
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        text = stream.getvalue().replace(str(out), "<out>").replace(str(ROOT), "<root>")
        h.update(f"{len(text)}\n{text}".encode())
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode() + data)
    return h.hexdigest()


def manifest(tmp: Path) -> dict[str, str]:
    """The digest of every (config, command, format) run, keyed
    ``config/command/format``; each run writes into its own directory
    under ``tmp``."""
    out = {}
    for config in CONFIGS:
        for command in cli.COMMANDS:
            for fmt in FORMATS:
                key = f"{config}/{command}/{fmt}"
                run_dir = tmp / key.replace("/", "-")
                run_dir.mkdir()
                out[key] = _digest(config, command, fmt, run_dir)
    return out


def test_reports_match_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BACKEND", "python")
    want = json.loads(MANIFEST.read_text())
    got = manifest(tmp_path)
    assert len(got) == 96
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"reports moved: {moved}"


if __name__ == "__main__":
    cli.BACKEND = "python"
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(manifest(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
