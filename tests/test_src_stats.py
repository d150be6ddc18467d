"""Smoke test of tools/src_stats.py, the line and parameter counter of src/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_stats", ROOT / "tools" / "src_stats.py")
src_stats = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_stats)


def test_totals_match_line_counts(capsys):
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    lines = {}
    for f in files:
        stats = src_stats.file_stats(f)
        lines[f] = len(f.read_text().splitlines())
        assert stats["total"] == lines[f], f
        assert stats["code"] + stats["docstring"] + stats["comment"] + stats["blank"] == \
            stats["total"], f
        assert min(stats.values()) >= 0, f
    assert src_stats.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(files) + 2
    total = dict(zip(src_stats.FIELDS, map(int, rows[-1].split()[1:])))
    assert rows[-1].split()[0] == "total"
    assert total["total"] == sum(lines.values())


def test_caches_count_module_level_lru_cache_and_cache(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "import functools\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(x):\n"
        "    return x\n"
        "\n"
        "@functools.cache\n"
        "def b(x):\n"
        "    return x\n"
        "\n"
        "def build(x):\n"
        "    @functools.lru_cache(maxsize=1)\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner\n"
        "\n"
        "parser = functools.lru_cache(maxsize=1)(build)\n"
        "\n"
        "class C:\n"
        "    @functools.cached_property\n"
        "    def c(self):\n"
        "        return 1\n"
    )
    assert src_stats.file_stats(f)["caches"] == 3
