"""Repository self-consistency: docs reference real artifacts, exports
resolve, and the package doctest passes."""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.core",
    "repro.streams",
    "repro.flow",
    "repro.sim",
    "repro.policies",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.{name} missing"

    def test_package_doctest(self):
        import repro

        results = doctest.testmod(repro)
        assert results.failed == 0


class TestDocsReferenceRealFiles:
    def _referenced_paths(self, text: str) -> set[str]:
        out = set()
        for match in re.finditer(
            r"(benchmarks|examples|tests|docs)/[\w./]+\.(py|md)", text
        ):
            out.add(match.group(0))
        return out

    @pytest.mark.parametrize(
        "doc",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/THEORY.md",
            "docs/PERFORMANCE.md",
        ],
    )
    def test_paths_exist(self, doc):
        text = (REPO / doc).read_text()
        for ref in self._referenced_paths(text):
            assert (REPO / ref).exists(), f"{doc} references missing {ref}"

    def test_design_covers_every_figure_bench(self):
        design = (REPO / "DESIGN.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("test_fig*.py")):
            assert bench.name in design, f"DESIGN.md missing {bench.name}"

    def test_every_example_in_readme(self):
        readme = (REPO / "README.md").read_text()
        for example in sorted((REPO / "examples").glob("*.py")):
            assert example.name in readme, f"README missing {example.name}"


class TestPerformanceMatrix:
    """docs/PERFORMANCE.md §1 must mirror the ``make_batch_policy``
    dispatch: every adapter class it names exists, and representative
    matrix rows agree with what ``BatchEngine.supports`` actually says.
    """

    DOC = REPO / "docs" / "PERFORMANCE.md"

    def test_every_named_adapter_class_exists(self):
        import repro.policies.batch as batch_mod

        names = set(re.findall(r"`(Batch\w+)`", self.DOC.read_text()))
        assert names, "PERFORMANCE.md names no adapter classes"
        for name in sorted(names):
            assert hasattr(batch_mod, name), (
                f"PERFORMANCE.md names {name}, absent from "
                "repro.policies.batch"
            )

    @pytest.mark.parametrize(
        "row, batchable",
        [
            ("lru-k always batchable", True),
            ("prob exact counts", True),
            ("windowed generic heeb with LExp", True),
            ("windowed generic heeb non-LExp", False),
            ("trie on independent models", True),
            ("trie on markov models", False),
            ("flowexpect fast path", True),
            ("flowexpect reference pipeline", False),
            ("prob sketch counts", False),
            ("opt replay", False),
            ("multi_join lru", True),
            ("multi_join prob", True),
            ("multi_join trie on independent models", True),
            ("multi_join stationary generic heeb", True),
            ("multi_join lru-k", False),
            ("multi_join walk heeb", False),
            ("multi_join life", False),
            ("multi_join flowexpect", False),
        ],
    )
    def test_matrix_rows_match_dispatch(self, row, batchable):
        from repro.core.lifetime import LExp, LFixed
        from repro.policies import make_policy
        from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy
        from repro.policies.scheduled import ScheduledPolicy
        from repro.sim.engine import BatchEngine, ExperimentSpec
        from repro.streams import make_stream
        from repro.streams.noise import from_mapping

        stationary = make_stream(
            "stationary", dist=from_mapping({1: 0.6, 2: 0.4})
        )
        walk = make_stream(
            "random-walk", step=from_mapping({-1: 0.5, 1: 0.5})
        )

        def spec(model, **overrides):
            defaults = dict(
                kind="join", cache_size=4, r_model=model, s_model=model
            )
            defaults.update(overrides)
            return ExperimentSpec(**defaults)

        def multi(model):
            return ExperimentSpec(
                kind="multi_join",
                cache_size=4,
                queries=(("A", "B"), ("B", "C")),
                models={"A": model, "B": model, "C": model},
            )

        cases = {
            "lru-k always batchable": (
                spec(stationary),
                lambda: make_policy("lru-k"),
            ),
            "prob exact counts": (
                spec(stationary),
                lambda: make_policy("prob"),
            ),
            "windowed generic heeb with LExp": (
                spec(stationary, window=8),
                lambda: HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40)),
            ),
            "windowed generic heeb non-LExp": (
                spec(stationary, window=8),
                lambda: HeebPolicy(GenericJoinHeeb(LFixed(5), horizon=40)),
            ),
            "trie on independent models": (
                spec(stationary),
                lambda: make_policy("trie"),
            ),
            "trie on markov models": (
                spec(walk),
                lambda: make_policy("trie"),
            ),
            "flowexpect fast path": (
                spec(stationary),
                lambda: make_policy(
                    "flowexpect",
                    lookahead=2,
                    r_model=stationary,
                    s_model=stationary,
                ),
            ),
            "flowexpect reference pipeline": (
                spec(stationary),
                lambda: make_policy(
                    "flowexpect",
                    lookahead=2,
                    r_model=stationary,
                    s_model=stationary,
                    fast=False,
                ),
            ),
            "prob sketch counts": (
                spec(stationary),
                lambda: make_policy("prob", counts="sketch"),
            ),
            "opt replay": (spec(stationary), lambda: ScheduledPolicy({})),
            "multi_join lru": (multi(stationary), lambda: make_policy("lru")),
            "multi_join prob": (multi(stationary), lambda: make_policy("prob")),
            "multi_join trie on independent models": (
                multi(stationary),
                lambda: make_policy("trie"),
            ),
            "multi_join stationary generic heeb": (
                multi(stationary),
                lambda: HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40)),
            ),
            "multi_join lru-k": (multi(stationary), lambda: make_policy("lru-k")),
            "multi_join walk heeb": (
                multi(walk),
                lambda: HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40)),
            ),
            "multi_join life": (multi(stationary), lambda: make_policy("life")),
            "multi_join flowexpect": (
                multi(stationary),
                lambda: make_policy(
                    "flowexpect",
                    lookahead=2,
                    r_model=stationary,
                    s_model=stationary,
                ),
            ),
        }
        the_spec, factory = cases[row]
        reason = BatchEngine().supports(the_spec, factory)
        if batchable:
            assert reason is None, f"{row}: unexpectedly refused: {reason}"
        else:
            assert reason is not None, f"{row}: unexpectedly batchable"
            assert "has no exact batch adapter" in reason

    def test_matrix_documents_the_normalized_refusal(self):
        text = self.DOC.read_text()
        assert "has no exact batch adapter" in text
        assert "it runs on the scalar tier" in text


class TestModuleDocstrings:
    def test_every_public_module_has_a_docstring(self):
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            module = importlib.import_module(
                str(path.relative_to(REPO / "src"))
                .removesuffix(".py")
                .replace("/", ".")
            )
            assert module.__doc__, f"{path} lacks a module docstring"
