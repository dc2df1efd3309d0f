"""``tools/check_links.py``: local links resolve, code is not a link.

The checker runs in CI over the docs; these tests pin what it reports.
A link in running text to a missing file is broken, while the same text
inside an inline code span or a fenced block (backtick or tilde) is
code and is skipped.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_check_links():
    """Import ``tools/check_links.py`` by path (tools/ is not a package)."""
    path = REPO / "tools" / "check_links.py"
    spec = importlib.util.spec_from_file_location("check_links", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_links = _load_check_links()


def _broken(tmp_path, text):
    (tmp_path / "real.md").write_text("# real\n", encoding="utf-8")
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return check_links.broken_links(doc)


class TestBrokenLinks:
    def test_missing_target_reported_present_target_not(self, tmp_path):
        text = "See [a](real.md#top), [b](nope.md) and [c](https://x.org).\n"
        assert _broken(tmp_path, text) == ["nope.md"]

    def test_reference_definition_checked(self, tmp_path):
        assert _broken(tmp_path, "[label]: gone.md\n") == ["gone.md"]

    @pytest.mark.parametrize(
        "text",
        [
            "Write `[x](nope.md)` for a link.\n",
            "Write ``[x](nope.md) with a ` inside`` for a link.\n",
            "A span may wrap `[x](nope.md)\nacross` one line break.\n",
            "```\n[x](nope.md)\n```\n",
            "~~~\n[x](nope.md)\n~~~\n",
            "~~~~markdown\n```\n[x](nope.md)\n~~~~\n",
        ],
        ids=[
            "code-span",
            "double-backtick-span",
            "wrapped-span",
            "backtick-fence",
            "tilde-fence",
            "tilde-fence-holding-backticks",
        ],
    )
    def test_code_is_not_a_link(self, tmp_path, text):
        assert _broken(tmp_path, text) == []

    def test_link_between_code_spans_still_checked(self, tmp_path):
        text = "`a` then [x](nope.md) then `b`\n"
        assert _broken(tmp_path, text) == ["nope.md"]

    def test_span_does_not_cross_a_blank_line(self, tmp_path):
        text = "a stray ` here\n\n[x](nope.md) and ` there\n"
        assert _broken(tmp_path, text) == ["nope.md"]


class TestCli:
    def test_exit_status(self, tmp_path, capsys):
        good = tmp_path / "good.md"
        good.write_text("[ok](good.md)\n", encoding="utf-8")
        bad = tmp_path / "bad.md"
        bad.write_text("[no](missing.md)\n", encoding="utf-8")
        assert check_links.main([str(good)]) == 0
        assert check_links.main([str(good), str(bad)]) == 1
        assert "broken link -> missing.md" in capsys.readouterr().out

    def test_repo_docs_have_no_broken_links(self):
        docs = [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
        docs += sorted((REPO / "docs").glob("*.md"))
        assert check_links.main([str(path) for path in docs]) == 0
