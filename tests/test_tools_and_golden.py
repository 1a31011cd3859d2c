"""Tests for the repository tools and emitter golden files."""

import os
import re
import subprocess
import sys

from repro.backends import emit_c, emit_murphi, emit_python

from helpers import compile_mini

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


class TestGoldenFiles:
    """The Mini protocol's generated code, byte for byte.

    Regenerate with the snippet in tests/golden/README (or simply by
    re-running the emitters) when the back ends intentionally change.
    """

    def _golden(self, name):
        with open(os.path.join(GOLDEN_DIR, name)) as handle:
            return handle.read()

    def test_c_output_is_stable(self):
        assert emit_c(compile_mini()) == self._golden("mini.c")

    def test_murphi_output_is_stable(self):
        assert emit_murphi(compile_mini()) == self._golden("mini.m")

    def test_python_output_is_stable(self):
        assert emit_python(compile_mini()) == self._golden("mini.py.txt")


def run_tool(script, *args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("tools", script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class TestTools:
    def test_render_figures(self, tmp_path):
        result = run_tool("render_figures.py", str(tmp_path))
        assert result.returncode == 0, result.stderr
        names = {p.name for p in tmp_path.iterdir()}
        assert "fig2_home_ideal.dot" in names
        assert "fig10_stache.c" in names
        assert "graph_lcm.dot" in names

    def test_generate_protocol_docs(self):
        result = run_tool("generate_protocol_docs.py")
        assert result.returncode == 0, result.stderr
        with open(os.path.join(REPO_ROOT, "docs", "PROTOCOLS.md")) as handle:
            text = handle.read()
        assert "# Protocol Catalog" in text
        for name in ("stache", "lcm_both", "dash", "stache_evict"):
            assert f"`{name}`" in text

    def test_no_reference_to_retired_bench_files(self):
        """The warm-call harness is gone; nothing live may point at it.
        History files (CHANGES.md, ROADMAP.md, bench/README.md) may."""
        retired = re.compile(
            "bench_check_profile|bench_compare|bench_obs_overhead"
            "|BENCH_check_profile|BENCH_obs_overhead")
        paths = [os.path.join(REPO_ROOT, name)
                 for name in ("README.md", "DESIGN.md")]
        for top in ("src", "tools", "docs", ".github"):
            for folder, _dirs, files in os.walk(
                    os.path.join(REPO_ROOT, top)):
                paths.extend(os.path.join(folder, name) for name in files
                             if not name.endswith(".pyc"))
        hits = []
        for path in paths:
            with open(path, encoding="utf-8", errors="replace") as handle:
                for number, line in enumerate(handle, 1):
                    if retired.search(line):
                        hits.append(f"{path}:{number}: {line.strip()}")
        assert not hits, "\n".join(hits)

    def test_ci_names_only_tools_that_exist(self):
        with open(os.path.join(REPO_ROOT, ".github", "workflows",
                               "ci.yml")) as handle:
            named = set(re.findall(r"tools/\w+\.py", handle.read()))
        assert named
        missing = sorted(path for path in named
                         if not os.path.exists(
                             os.path.join(REPO_ROOT, path)))
        assert not missing

    def test_generate_lcm_variants_is_idempotent(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro", "protocols", name)
            for name in ("lcm_update.tea", "lcm_mcc.tea", "lcm_both.tea")
        ]
        before = [open(p).read() for p in paths]
        result = run_tool("generate_lcm_variants.py")
        assert result.returncode == 0, result.stderr
        after = [open(p).read() for p in paths]
        assert before == after
