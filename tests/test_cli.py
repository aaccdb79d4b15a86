"""End-to-end CLI tests through main(argv), the package's public names, and the CLI's imports."""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import types
from concurrent.futures.process import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pointdrop
from pointdrop import (
    PointCloud,
    ScoreVector,
    extract_features,
    get_preset,
    load_coefficients,
    parse_xyz,
    write_coefficients,
    write_scores,
    write_xyz,
)
from pointdrop import cli as cli_module
from pointdrop import graph as graph_module
from pointdrop.cli import main
from pointdrop.io import RAW_SALIENCY


def random_cloud(seed, n=128):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))


def star_cloud(rng, pairs=20):
    # Origin plus negation-symmetric pairs: the center's neighborhood average
    # cancels, pinning min(f1) to rounding level, so per-cloud min-max leaves
    # the targets proportional to the f1 column and the no-intercept fit exact.
    dirs = rng.normal(size=(pairs, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    shell = dirs * rng.uniform(0.5, 1.5, size=(pairs, 1))
    return PointCloud(np.vstack([np.zeros((1, 3)), shell, -shell]))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return header, rows


class TestFeaturesCommand:
    def test_csv_shape(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(0, n=40)))
        code, out, err = run(capsys, ["features", str(path), "--k", "6"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == [f"f{j}" for j in range(1, 15)]
        assert rows.shape == (40, 14)

    def test_byte_determinism(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(1, n=30)))
        _, first, _ = run(capsys, ["features", str(path), "--k", "5"])
        _, second, _ = run(capsys, ["features", str(path), "--k", "5"])
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        cloud_path = tmp_path / "cloud.xyz"
        cloud_path.write_text(write_xyz(random_cloud(2, n=25)))
        out_path = tmp_path / "features.csv"
        code, out, _ = run(
            capsys, ["features", str(cloud_path), "--k", "5", "--output", str(out_path)]
        )
        assert code == 0 and out == ""
        _, rows = parse_csv(out_path.read_text())
        assert rows.shape == (25, 14)

    def test_normalize_flag(self, capsys, tmp_path):
        shifted = PointCloud(random_cloud(3, n=30).points + [100.0, -50.0, 25.0])
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(shifted))
        _, plain, _ = run(capsys, ["features", str(path), "--k", "5"])
        _, normed, _ = run(capsys, ["features", str(path), "--k", "5", "--normalize"])
        assert plain != normed
        _, rows = parse_csv(normed)
        # After centering and unit max-norm scaling, no centroid distance exceeds 1.
        assert rows[:, 9].max() <= 1.0 + 1e-9

    def test_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.xyz"
        code, out, err = run(capsys, ["features", str(missing)])
        assert code == 2
        assert err.startswith("error:")
        assert str(missing) in err

    def test_malformed_cloud(self, capsys, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        code, _, err = run(capsys, ["features", str(path)])
        assert code == 2
        assert "line 2" in err


class TestFitCommand:
    def setup_corpus(self, tmp_path):
        cloud = star_cloud(np.random.default_rng(10), pairs=20)
        feats = extract_features(cloud)
        f1 = feats.values[:, 0]
        cloud_dir = tmp_path / "clouds"
        scores_dir = tmp_path / "scores"
        cloud_dir.mkdir()
        scores_dir.mkdir()
        for stem in ("a", "b"):
            (cloud_dir / f"{stem}.xyz").write_text(write_xyz(cloud))
            (scores_dir / f"{stem}.txt").write_text(
                write_scores(ScoreVector(f1, RAW_SALIENCY))
            )
        return cloud_dir, scores_dir, f1

    def test_exact_fit_and_json(self, capsys, tmp_path):
        cloud_dir, scores_dir, f1 = self.setup_corpus(tmp_path)
        out_path = tmp_path / "fitted.json"
        code, out, err = run(
            capsys,
            [
                "fit", str(cloud_dir), str(scores_dir),
                "--top-n", "18", "--output", str(out_path),
            ],
        )
        assert code == 0, err
        assert "fitted: 2 clouds" in out
        assert "top-18 pooling" in out
        r2 = float(re.search(r"R\^2 = ([-\d.]+)", out).group(1))
        assert r2 > 0.999999
        loaded = load_coefficients(out_path.read_text())
        assert loaded.significant[0]
        assert int(loaded.significant.sum()) == 1
        slope = 1.0 / (f1.max() - f1.min())
        assert np.isclose(loaded.coefficients[0], slope, rtol=1e-6)

    def test_json_to_stdout_report_to_stderr_without_output(self, capsys, tmp_path):
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        code, out, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--top-n", "18"])
        assert code == 0
        # Without --output stdout is the whole JSON document, so
        # `pointdrop fit C S > model.json` is loadable; the report goes to stderr.
        assert '"coefficients"' in out
        assert load_coefficients(out).significant[0]
        assert "R^2" in err and "fitted: 2 clouds" in err

    def test_unmatched_basenames(self, capsys, tmp_path):
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        (scores_dir / "extra.txt").write_text("0.0\n")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir)])
        assert code == 2
        assert "unmatched" in err and "extra" in err

    def test_bad_alpha_rejected_before_reading(self, capsys, tmp_path):
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        (cloud_dir / "a.xyz").write_text("1 2 3\n4 5\n")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--alpha", "1.5"])
        assert code == 2
        assert "alpha must lie in (0, 1), got 1.5" in err

    def test_bad_gamma_or_radius_rejected_before_reading(self, capsys, tmp_path):
        # Usage errors, like a bad --sigma: argparse exits before any file is read.
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        (cloud_dir / "a.xyz").write_text("1 2 3\n4 5\n")
        fit = ["fit", str(cloud_dir), str(scores_dir)]
        attack = ["attack", str(cloud_dir / "a.xyz"), "--random"]
        overlap = ["overlap", str(scores_dir / "a.txt"), str(scores_dir / "b.txt")]
        for command, flag, value, message in (
            (fit, "--gamma", "-1", "must be positive, got -1"),
            (fit, "--ball-radius", "0", "must be positive, got 0"),
            (fit, "--k", "0", "must be at least 1, got 0"),
            (fit, "--k", "2.5", "expected an integer, got '2.5'"),
            (fit, "--top-n", "-1", "must be at least 1, got -1"),
            (fit, "--top-n", "0", "must be at least 1, got 0"),
            (attack, "--top-n", "-1", "must be at least 0, got -1"),
            (overlap, "--top-n", "10,x", "expected an integer list, got '10,x'"),
            (overlap, "--top-n", "10,0", "must be at least 1, got 10,0"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([*command, flag, value])
            assert exc.value.code == 2
            assert f"argument {flag}: {message}\n" in capsys.readouterr().err

    def test_failing_pair_named(self, capsys, tmp_path):
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        pair = f"{cloud_dir / 'b.xyz'}, {scores_dir / 'b.txt'}"
        (scores_dir / "b.txt").write_text("0.5\n" * 10)
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--top-n", "18"])
        assert code == 2
        assert err == f"error: {pair}: score count mismatch: expected 41, found 10\n"
        (cloud_dir / "b.xyz").write_text("1 2 3\n4 5\n")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--top-n", "18"])
        assert code == 2
        assert err == f"error: {pair}: malformed line 2: expected 3 coordinates, got 2\n"

    def test_extreme_scale_without_normalize(self, capsys, tmp_path):
        # Thirteen features are lengths: a corpus and ball radius at 2^e scale
        # their coefficients by 2^-e exactly and leave f11's coefficient and
        # every p-value unchanged.
        rng = np.random.default_rng(12)
        clouds = [rng.normal(size=(64, 3)) for _ in range(3)]
        scores = [np.linalg.norm(c, axis=1) + rng.normal(0.0, 0.1, 64) for c in clouds]
        lengths = np.arange(14) != 10
        fits = {}
        for e in (0, 540, -560):
            cloud_dir, scores_dir = tmp_path / f"clouds{e}", tmp_path / f"scores{e}"
            cloud_dir.mkdir()
            scores_dir.mkdir()
            for i, (pts, z) in enumerate(zip(clouds, scores)):
                (cloud_dir / f"{i}.xyz").write_text(write_xyz(PointCloud(np.ldexp(pts, e))))
                (scores_dir / f"{i}.txt").write_text(write_scores(ScoreVector(z, RAW_SALIENCY)))
            radius = repr(float(np.ldexp(0.5, e)))
            code, out, err = run(
                capsys,
                ["fit", str(cloud_dir), str(scores_dir), "--top-n", "50", "--ball-radius", radius],
            )
            assert code == 0, err
            p_column = [line.split()[4] for line in err.splitlines()[2:16]]
            fits[e] = load_coefficients(out), p_column
        unit, unit_p = fits[0]
        assert unit.significant.any()
        for e in (540, -560):
            coeffs, p_column = fits[e]
            expected = np.ldexp(unit.coefficients, np.where(lengths, -e, 0))
            np.testing.assert_array_equal(coeffs.coefficients, expected)
            np.testing.assert_array_equal(coeffs.significant, unit.significant)
            assert p_column == unit_p

    @pytest.mark.parametrize("kind", ["clouds", "scores"])
    def test_duplicate_stems_rejected(self, capsys, tmp_path, kind):
        # A stray file must not silently replace a cloud or its scores.
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        directory, suffix = (cloud_dir, "xyz") if kind == "clouds" else (scores_dir, "txt")
        (directory / "a.zzz").write_text("0.0\n")
        code, out, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir)])
        assert (code, out) == (2, "")
        kept, stray = directory / f"a.{suffix}", directory / "a.zzz"
        assert err == f"error: {kept} and {stray} share the stem 'a'\n"

    def test_empty_cloud_dir(self, capsys, tmp_path):
        cloud_dir = tmp_path / "empty"
        cloud_dir.mkdir()
        scores_dir = tmp_path / "scores2"
        scores_dir.mkdir()
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir)])
        assert code == 2
        assert "no cloud files" in err


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fit pools only by fork"
)
class TestFitPool:
    """``fit`` over forked processes, with the CPU count forced through ``_usable_cpus``."""

    def setup_corpus(self, tmp_path, count=6, n=48):
        rng = np.random.default_rng(60)
        cloud_dir, scores_dir = tmp_path / "clouds", tmp_path / "scores"
        cloud_dir.mkdir()
        scores_dir.mkdir()
        for i in range(count):
            pts = rng.normal(size=(n, 3))
            z = np.linalg.norm(pts, axis=1) + rng.normal(0.0, 0.1, n)
            (cloud_dir / f"{i}.xyz").write_text(write_xyz(PointCloud(pts)))
            (scores_dir / f"{i}.txt").write_text(write_scores(ScoreVector(z, RAW_SALIENCY)))
        return cloud_dir, scores_dir

    @pytest.fixture
    def shares(self, monkeypatch):
        """Sizes of the shares mapped over forked processes, in order."""
        sizes = []
        pool_map = ProcessPoolExecutor.map

        def recording(pool, fn, shares, *iterables, **kwargs):
            shares = list(shares)
            sizes.extend(len(share) for share in shares)
            return pool_map(pool, fn, shares, *iterables, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", recording)
        return sizes

    def fit(self, capsys, monkeypatch, cpus, cloud_dir, scores_dir):
        monkeypatch.setattr(cli_module, "_usable_cpus", lambda: cpus)
        return run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--k", "6", "--top-n", "20"])

    def test_bytes_independent_of_process_count(self, capsys, monkeypatch, tmp_path, shares):
        cloud_dir, scores_dir = self.setup_corpus(tmp_path)
        results = {}
        for cpus, children in ((1, []), (2, [3]), (3, [2, 2])):
            shares.clear()
            results[cpus] = self.fit(capsys, monkeypatch, cpus, cloud_dir, scores_dir)
            assert shares == children
            assert multiprocessing.active_children() == []
        code, out, err = results[1]
        assert code == 0 and "fitted: 6 clouds" in err
        assert results[2] == results[1] and results[3] == results[1]

    @pytest.mark.parametrize("broken", [(1, 4), (3, 5)], ids=["parent-share", "child-shares"])
    def test_first_failing_pair_named(self, capsys, monkeypatch, tmp_path, shares, broken):
        # With 3 processes the shares are pairs 0-1 (this process), 2-3 and 4-5.
        cloud_dir, scores_dir = self.setup_corpus(tmp_path)
        for i in broken:
            (scores_dir / f"{i}.txt").write_text("0.5\n" * 10)
        first = broken[0]
        expected = (
            f"error: {cloud_dir / f'{first}.xyz'}, {scores_dir / f'{first}.txt'}: "
            "score count mismatch: expected 48, found 10\n"
        )
        for cpus in (1, 3):
            shares.clear()
            assert self.fit(capsys, monkeypatch, cpus, cloud_dir, scores_dir) == (2, "", expected)
            assert shares == ([] if cpus == 1 else [2, 2])
            assert multiprocessing.active_children() == []

    def test_serial_without_fork(self, capsys, monkeypatch, tmp_path, shares):
        cloud_dir, scores_dir = self.setup_corpus(tmp_path, count=4)
        serial = self.fit(capsys, monkeypatch, 1, cloud_dir, scores_dir)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert self.fit(capsys, monkeypatch, 2, cloud_dir, scores_dir) == serial
        assert shares == []

    def test_small_corpus_stays_serial(self, capsys, monkeypatch, tmp_path, shares):
        per_process = cli_module._MIN_CLOUDS_PER_PROCESS
        cloud_dir, scores_dir = self.setup_corpus(tmp_path, count=2 * per_process - 1)
        assert self.fit(capsys, monkeypatch, 4, cloud_dir, scores_dir)[0] == 0
        assert shares == []

    def test_parent_share_queries_single_threaded(self, capsys, monkeypatch, tmp_path, shares):
        # Thread every query, then record this process's: a pooled share runs
        # them on one thread, a serial fit on every usable CPU (4 here).
        workers = []

        class RecordingTree(graph_module.cKDTree):
            def query(self, x, k=1, **kwargs):
                workers.append(kwargs["workers"])
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(graph_module, "_THREADED_QUERY_MIN_POINTS", 1)
        monkeypatch.setattr(graph_module, "cKDTree", RecordingTree)
        monkeypatch.setattr(graph_module, "_usable_cpus", lambda: 4)
        cloud_dir, scores_dir = self.setup_corpus(tmp_path, count=4)
        results = []
        for cpus, expected in ((2, 1), (1, 4)):
            workers.clear()
            results.append(self.fit(capsys, monkeypatch, cpus, cloud_dir, scores_dir))
            assert workers and set(workers) == {expected}
        assert shares == [2]
        assert results[0] == results[1]

    @pytest.mark.parametrize("failing", [None, 0, 5], ids=["ok", "parent-share", "child-share"])
    def test_every_share_queries_single_threaded(self, monkeypatch, shares, failing):
        # A stand-in _featurize gives, per pair, the workers a large cloud's
        # tree queries would use (4 usable CPUs); forked children inherit the patch.
        big = graph_module._THREADED_QUERY_MIN_POINTS
        monkeypatch.setattr(graph_module, "_usable_cpus", lambda: 4)

        def featurize(pairs, args):
            if failing in pairs:
                raise ValueError(f"pair {failing}")
            return [graph_module._tree_workers(big) for _ in pairs]

        monkeypatch.setattr(cli_module, "_featurize", featurize)
        for cpus, expected in ((1, 4), (2, 1), (3, 1)):
            monkeypatch.setattr(cli_module, "_usable_cpus", lambda: cpus)
            if failing is None:
                assert cli_module._featurize_corpus(list(range(6)), None) == [expected] * 6
            else:
                with pytest.raises(ValueError, match=f"^pair {failing}$"):
                    cli_module._featurize_corpus(list(range(6)), None)
            assert graph_module._tree_workers(big) == 4
            assert multiprocessing.active_children() == []
        assert shares == [3, 2, 2]

    @pytest.mark.parametrize("broken", [0, 2], ids=["parent-share", "child-share"])
    def test_failure_ends_running_shares(self, capsys, monkeypatch, tmp_path, shares, broken):
        # Forked shares without the broken pair sleep per pair. The first
        # failing pair raises at once, without waiting for them, and leaves
        # no process behind. With 3 processes the shares are 0-1, 2-3 and 4-5.
        cloud_dir, scores_dir = self.setup_corpus(tmp_path)
        (scores_dir / f"{broken}.txt").write_text("0.5\n" * 10)
        serial = self.fit(capsys, monkeypatch, 1, cloud_dir, scores_dir)
        assert serial[0] == 2 and f"{broken}.txt: score count mismatch" in serial[2]
        parent, featurize, nap = os.getpid(), cli_module._featurize, 5.0

        def slow_children(pairs, args):
            if os.getpid() != parent and all(cloud.stem != str(broken) for cloud, _ in pairs):
                for _ in pairs:
                    time.sleep(nap)
            return featurize(pairs, args)

        monkeypatch.setattr(cli_module, "_featurize", slow_children)
        start = time.perf_counter()
        assert self.fit(capsys, monkeypatch, 3, cloud_dir, scores_dir) == serial
        assert time.perf_counter() - start < nap
        assert multiprocessing.active_children() == []
        assert shares == [2, 2]

    def test_killed_share_is_an_error(self, capsys, monkeypatch, tmp_path, shares):
        # Forked shares kill themselves, as the OOM killer would: fit exits 2 with
        # one error line, not a traceback, and leaves no process behind.
        cloud_dir, scores_dir = self.setup_corpus(tmp_path)
        parent, featurize = os.getpid(), cli_module._featurize

        def killed_children(pairs, args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return featurize(pairs, args)

        monkeypatch.setattr(cli_module, "_featurize", killed_children)
        expected = "error: a forked share of the corpus ended without its result\n"
        assert self.fit(capsys, monkeypatch, 3, cloud_dir, scores_dir) == (2, "", expected)
        assert multiprocessing.active_children() == []
        assert shares == [2, 2]


class TestAttackCommand:
    def test_stdout_routing(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(20)))
        code, out, err = run(
            capsys, ["attack", str(path), "--preset", "pointnet-N150", "--top-n", "20"]
        )
        assert code == 0
        retained = parse_xyz(out)
        assert retained.n == 108
        assert "N = 20" in err
        assert "coefficients = pointnet-N150" in err
        assert "dropped index, predicted score" in err

    def test_output_file_routing(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(21)))
        out_path = tmp_path / "retained.xyz"
        code, out, err = run(
            capsys,
            [
                "attack", str(path), "--preset", "avg-N100",
                "--top-n", "28", "--output", str(out_path),
            ],
        )
        assert code == 0 and err == ""
        assert parse_xyz(out_path.read_text()).n == 100
        assert "N = 28" in out
        assert len(re.findall(r"^\d+, ", out, flags=re.M)) == 28

    def test_coefficient_file_equals_preset(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(22)))
        coeff_path = tmp_path / "coeffs.json"
        coeff_path.write_text(write_coefficients(get_preset("dgcnn-N50")))
        _, out_preset, _ = run(
            capsys, ["attack", str(path), "--preset", "dgcnn-N50", "--top-n", "15"]
        )
        _, out_file, _ = run(
            capsys, ["attack", str(path), "--preset", str(coeff_path), "--top-n", "15"]
        )
        assert out_preset == out_file

    def test_random_baseline_deterministic(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(23)))
        _, out_a, err_a = run(
            capsys, ["attack", str(path), "--random", "--top-n", "30", "--seed", "9"]
        )
        _, out_b, err_b = run(
            capsys, ["attack", str(path), "--random", "--top-n", "30", "--seed", "9"]
        )
        _, out_c, _ = run(
            capsys, ["attack", str(path), "--random", "--top-n", "30", "--seed", "10"]
        )
        assert out_a == out_b and err_a == err_b
        assert out_a != out_c
        assert "random baseline, seed 9" in err_a

    def test_top_n_too_large(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(24, n=30)))
        code, _, err = run(
            capsys, ["attack", str(path), "--preset", "pointnet-N50", "--top-n", "30"]
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_preset(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(25, n=30)))
        code, _, err = run(capsys, ["attack", str(path), "--preset", "nope", "--top-n", "5"])
        assert code == 2
        assert "neither a bundled preset" in err
        assert "pointnet-N50" in err

    def rejected_source(self, capsys, tmp_path, flags):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(26, n=30)))
        with pytest.raises(SystemExit) as exc:
            main(["attack", str(path), "--top-n", "5", *flags])
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_missing_preset_flag(self, capsys, tmp_path):
        err = self.rejected_source(capsys, tmp_path, [])
        assert "one of the arguments --preset --random is required" in err

    def test_preset_and_random_exclusive(self, capsys, tmp_path):
        # A preset given next to --random used to be ignored silently.
        err = self.rejected_source(capsys, tmp_path, ["--preset", "avg-N50", "--random"])
        assert "--random: not allowed with argument --preset" in err

    @pytest.mark.parametrize(
        "document",
        ['{"coefficients": 5}', '{"coefficients": null}', "[" * 100_000 + "]" * 100_000],
        ids=["number", "null", "deep"],
    )
    def test_bad_coefficient_file(self, capsys, tmp_path, document):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(27, n=30)))
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        code, _, err = run(capsys, ["attack", str(path), "--preset", str(bad), "--top-n", "5"])
        assert code == 2
        assert err.startswith("error: ")


class TestOverlapCommand:
    def write_scores_file(self, path, values):
        path.write_text(write_scores(ScoreVector(values, RAW_SALIENCY)))

    def test_identical_files_default_ns(self, capsys, tmp_path):
        values = np.random.default_rng(30).normal(size=256)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        self.write_scores_file(a, values)
        self.write_scores_file(b, values)
        code, out, _ = run(capsys, ["overlap", str(a), str(b)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,overlap_percent"
        assert lines[1:] == ["50,100", "100,100", "150,100", "200,100"]

    def test_custom_ns(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        self.write_scores_file(a, rng.normal(size=40))
        self.write_scores_file(b, rng.normal(size=40))
        code, out, _ = run(capsys, ["overlap", str(a), str(b), "--top-n", "4,10"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("4,") and lines[2].startswith("10,")
        for line in lines[1:]:
            pct = float(line.split(",")[1])
            assert 0.0 <= pct <= 100.0
        with pytest.raises(SystemExit) as exc:
            main(["overlap", str(a), str(b), "--top-n", " , "])
        assert exc.value.code == 2
        assert "argument --top-n: no values given\n" in capsys.readouterr().err

    def test_known_half_overlap(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        # Top-2 of a = {0, 1}; top-2 of b = {1, 2}; one shared index.
        self.write_scores_file(a, np.array([9.0, 8.0, 1.0, 0.5]))
        self.write_scores_file(b, np.array([1.0, 9.0, 8.0, 0.5]))
        code, out, _ = run(capsys, ["overlap", str(a), str(b), "--top-n", "2"])
        assert code == 0
        assert out.strip().splitlines()[1] == "2,50"

    def test_length_mismatch(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        self.write_scores_file(a, np.arange(5.0))
        self.write_scores_file(b, np.arange(6.0))
        code, _, err = run(capsys, ["overlap", str(a), str(b), "--top-n", "2"])
        assert code == 2
        assert "differ in length" in err

    def test_output_file(self, capsys, tmp_path):
        values = np.random.default_rng(32).normal(size=20)
        a = tmp_path / "a.txt"
        self.write_scores_file(a, values)
        out_path = tmp_path / "overlap.csv"
        code, out, _ = run(
            capsys, ["overlap", str(a), str(a), "--top-n", "5", "--output", str(out_path)]
        )
        assert code == 0 and out == ""
        assert out_path.read_text().strip().splitlines()[1] == "5,100"


class TestSigmaFlag:
    def test_explicit_sigma_changes_features(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(40, n=30)))
        _, auto, _ = run(capsys, ["features", str(path), "--k", "5"])
        _, fixed, _ = run(capsys, ["features", str(path), "--k", "5", "--sigma", "0.05"])
        _, auto_again, _ = run(capsys, ["features", str(path), "--k", "5", "--sigma", "auto"])
        assert auto != fixed
        assert auto == auto_again

    def test_bad_sigma_rejected(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(41, n=10)))
        with pytest.raises(SystemExit):
            run(capsys, ["features", str(path), "--sigma", "-1"])


def test_output_independent_of_process_and_threads(tmp_path):
    # Fresh interpreters give the same bytes whatever the CPU set, the BLAS
    # thread count or the hash seed. The cloud is large enough that the k-d
    # tree queries run threaded.
    env = {**os.environ, "PYTHONPATH": str(Path(pointdrop.__file__).parents[1])}

    def cli(argv, preexec_fn=None, **extra_env):
        done = subprocess.run(
            [sys.executable, "-m", "pointdrop.cli", *argv],
            env={**env, **extra_env},
            preexec_fn=preexec_fn,
            capture_output=True,
            check=True,
            timeout=120,
        )
        return done.stdout, done.stderr

    def pin_one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    can_pin = hasattr(os, "sched_setaffinity")
    n = 9000
    assert n >= graph_module._THREADED_QUERY_MIN_POINTS
    cloud = tmp_path / "large.xyz"
    cloud.write_text(write_xyz(random_cloud(50, n=n)))
    if can_pin:
        pinned = cli(["features", str(cloud)], pin_one_cpu)
        assert pinned == cli(["features", str(cloud)])

    rng = np.random.default_rng(51)
    cloud_dir, scores_dir = tmp_path / "clouds", tmp_path / "scores"
    cloud_dir.mkdir()
    scores_dir.mkdir()
    for i in range(4):
        (cloud_dir / f"{i}.xyz").write_text(write_xyz(random_cloud(52 + i, n=64)))
        (scores_dir / f"{i}.txt").write_text(
            write_scores(ScoreVector(rng.normal(size=64), RAW_SALIENCY))
        )
    fit_argv = ["fit", str(cloud_dir), str(scores_dir), "--top-n", "30"]
    fits = [
        cli(fit_argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONHASHSEED=seed)
        for threads, seed in (("1", "1"), ("2", "2"))
    ]
    assert fits[0] == fits[1]
    if can_pin:  # one process, against one per usable CPU
        assert cli(fit_argv, pin_one_cpu) == fits[0]


def test_public_surface():
    names = pointdrop.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pointdrop, name), name
    exported = {
        name
        for name, value in vars(pointdrop).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == exported


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of a second to import and no command needs it;
    # the process pool's modules load only when a fit uses the pool.
    env = {**os.environ, "PYTHONPATH": str(Path(pointdrop.__file__).parents[1])}
    unwanted = ["scipy.stats", "multiprocessing", "concurrent.futures.process"]
    probe = f"import sys, pointdrop.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_parser_built_once_and_reusable(capsys, tmp_path):
    # The parser is cached per process; a usage error leaves it as a fresh one.
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text(write_xyz(random_cloud(53, n=20)))
    valid = ["features", str(cloud), "--k", "5"]
    invalid = ["features", str(cloud), "--gamma", "-1"]

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(invalid)
        return exc.value.code, capsys.readouterr().err

    cli_module._build_parser.cache_clear()
    fresh_error = usage_error()
    cli_module._build_parser.cache_clear()
    fresh_valid = run(capsys, valid)
    assert fresh_error[0] == 2 and "must be positive, got -1" in fresh_error[1]
    assert fresh_valid[0] == 0
    parser = cli_module._build_parser()
    assert usage_error() == fresh_error
    assert run(capsys, valid) == fresh_valid
    assert usage_error() == fresh_error
    assert cli_module._build_parser() is parser
