"""Tests of the benchmark's own arithmetic, generators and tracing.

    python3 -m pytest benchmark/test_benchmark_harness.py -q
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from stats import covered_length, local_means, self_times, tail  # noqa: E402
from tracing import Recorder, install, layer_metrics  # noqa: E402
from workloads import COLD_COMMANDS, WORKLOADS  # noqa: E402


class TestTail:
    def test_exactly_ten_beyond(self):
        samples = list(range(1, 101))
        value, percentile = tail(samples)
        assert value == 90
        assert sum(1 for s in samples if s > value) == 10
        assert percentile == 90.0

    def test_smallest_sample_count(self):
        value, percentile = tail([5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 11.0, 10.0])
        assert value == 1.0
        assert percentile == pytest.approx(100 / 11)

    def test_unsorted_input_and_ties(self):
        samples = [3.0] * 15 + [1.0] * 5
        value, _ = tail(samples)
        assert value == 3.0

    @pytest.mark.parametrize("count", [0, 1, 10])
    def test_too_few_samples(self, count):
        with pytest.raises(ValueError):
            tail([1.0] * count)


class TestLocalMeans:
    def test_window_clipped_at_both_ends(self):
        assert local_means([1.0, 2.0, 3.0, 4.0, 5.0], 1) == [1.5, 2.0, 3.0, 4.0, 4.5]

    def test_window_wider_than_samples(self):
        assert local_means([2.0, 4.0], 3) == [3.0, 3.0]

    def test_zero_window_is_identity(self):
        assert local_means([3.0, 1.0], 0) == [3.0, 1.0]


def span(name, start, end, parent):
    return (name, start, end, parent)


class TestSelfTime:
    def test_children_subtracted(self):
        spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 3.0, 0), span("c", 5.0, 6.0, 0)]
        assert self_times(spans) == [7.0, 2.0, 1.0]

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span("a", 0.0, 10.0, -1), span("b", 2.0, 8.0, 0), span("c", 3.0, 4.0, 1)]
        assert self_times(spans) == [4.0, 5.0, 1.0]

    def test_overlapping_children_counted_once(self):
        spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 4.0, 0), span("c", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == 5.0

    def test_child_clipped_to_parent(self):
        assert covered_length([(4.0, 7.0)], 0.0, 5.0) == 1.0
        assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0

    def test_leaf_self_time_is_duration(self):
        assert self_times([span("a", 1.5, 4.0, -1)]) == [2.5]


def build_bytes(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    ops = WORKLOADS[name].build(seed, workdir, HERE.parent)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [op.argv for op in ops], files


class TestGenerators:
    @pytest.mark.parametrize("name", ["classify_images", "closure_random", "certificates"])
    def test_same_seed_same_bytes_other_seed_other_bytes(self, name, tmp_path):
        argv1, first = build_bytes(name, 7, tmp_path)
        _, again = build_bytes(name, 7, tmp_path)
        _, other = build_bytes(name, 8, tmp_path)
        assert first and first == again
        assert len(argv1) == len(first) + (1 if name == "certificates" else 0)
        assert first.keys() == other.keys()
        changed = [k for k in first if first[k] != other[k]]
        assert len(changed) == len(first)

    def test_cold_order_depends_on_seed_only(self):
        order = lambda seed: gen.Rng(seed, "cli_cold", "order").shuffled(range(16))  # noqa: E731
        assert order(3) == order(3)
        assert order(3) != order(4)
        assert sorted(order(3)) == list(range(16))

    def test_cold_commands_cover_the_catalog(self):
        from jordanet.catalog import catalog_ids

        analyzed = {argv[1] for argv, _ in COLD_COMMANDS if argv[0] == "analyze"}
        limited = {argv[1] for argv, _ in COLD_COMMANDS if argv[0] == "limit"}
        plain = {f"catalog://{c}" for c in catalog_ids() if not c.startswith("degen/")}
        assert analyzed == plain
        assert limited == {f"catalog://{c}" for c in catalog_ids() if c.startswith("degen/")}

    def test_pass_count_depends_on_seconds_only(self):
        for workload in WORKLOADS.values():
            assert workload.passes(1) == workload.min_passes
            assert workload.passes(10_000) > workload.min_passes

    def test_rng_tags_give_independent_streams(self):
        assert gen.Rng(1, "a").next_u64() != gen.Rng(1, "b").next_u64()
        assert gen.Rng(1, "a").next_u64() == gen.Rng(1, "a").next_u64()

    def test_unimodular_has_unit_determinant(self):
        from fractions import Fraction

        from jordanet.linalg import Mat, det

        for seed in range(20):
            p = gen.unimodular(gen.Rng(seed, "p"), 4)
            assert abs(det(Mat([[Fraction(x) for x in row] for row in p]))) == 1

    def test_rank_one_minors_match_the_package(self):
        from fractions import Fraction

        from jordanet.exact import parse_poly
        from jordanet.linalg import Mat
        from jordanet.spaces import make_space
        from jordanet.varieties import rank_one_system

        basis = gen.random_space(gen.Rng(5, "minors"), 4, 5)
        space = make_space(4, [Mat([[Fraction(x) for x in row] for row in b]) for b in basis])
        ours = [parse_poly(text) for text in gen.rank_one_minors(basis)]
        theirs = rank_one_system(space)
        assert len(ours) == len(theirs)
        assert all(a == b for a, b in zip(ours, theirs))

    def test_random_space_is_independent_and_dense(self):
        basis = gen.random_space(gen.Rng(2, "space"), 5, 14)
        assert gen.rank([gen.upper_triangle(b) for b in basis]) == 14
        assert all(x != 0 for b in basis for row in b for x in row)


class TestTracing:
    def test_wrappers_catch_from_imports_and_uninstall(self):
        import jordanet.chow
        import jordanet.cli
        import jordanet.linalg

        original = jordanet.linalg.rref
        recorder = Recorder()
        uninstall = install(recorder)
        try:
            assert jordanet.chow.rref is not original
            with contextlib.redirect_stdout(io.StringIO()):
                assert jordanet.cli.main(["chow", "catalog://s4/1a", "--json"]) == 0
        finally:
            uninstall()
        assert jordanet.chow.rref is original and jordanet.linalg.rref is original
        names = [s[0] for s in recorder.spans]
        assert names[0] == "cli.main" and recorder.spans[0][3] == -1
        assert {"chow.chow_rank", "chow.chow_matrix", "linalg.rref"} <= set(names)
        assert len(recorder.rref_shapes) == names.count("linalg.rref")

        metrics = layer_metrics(recorder.spans, recorder.rref_shapes)
        assert metrics["cli.main.calls"] == 1
        assert metrics["linalg.rref.calls"] == names.count("linalg.rref")
        assert 0.0 < metrics["trace.coverage"] <= 1.0
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in
                        ("exact", "linalg", "spaces", "jordan", "classify", "chow",
                         "varieties", "io", "catalog", "cli"))
        assert layer_sum == pytest.approx(metrics["cli.main.total_s"])
