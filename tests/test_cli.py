"""End-to-end CLI tests through main(argv), the package's public names, and the CLI's imports."""

import codecs
import importlib.util
import inspect
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
    build_knn_graph,
    extract_features,
    fit_mlr,
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
        path.write_text(write_xyz(random_cloud(0, n=40)), encoding="utf-8")
        code, out, err = run(capsys, ["features", str(path), "--k", "6"])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == [f"f{j}" for j in range(1, 15)]
        assert rows.shape == (40, 14)

    def test_byte_determinism(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(1, n=30)), encoding="utf-8")
        _, first, _ = run(capsys, ["features", str(path), "--k", "5"])
        _, second, _ = run(capsys, ["features", str(path), "--k", "5"])
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        cloud_path = tmp_path / "cloud.xyz"
        cloud_path.write_text(write_xyz(random_cloud(2, n=25)), encoding="utf-8")
        out_path = tmp_path / "features.csv"
        code, out, _ = run(
            capsys, ["features", str(cloud_path), "--k", "5", "--output", str(out_path)]
        )
        assert code == 0 and out == ""
        _, rows = parse_csv(out_path.read_text(encoding="utf-8"))
        assert rows.shape == (25, 14)

    def test_normalize_flag(self, capsys, tmp_path):
        shifted = PointCloud(random_cloud(3, n=30).points + [100.0, -50.0, 25.0])
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(shifted), encoding="utf-8")
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

    def test_utf8_cloud_under_ascii_locale(self, tmp_path):
        # Files are UTF-8 whatever the locale: under the C locale without
        # UTF-8 mode, a comment outside ASCII reads and the CSV is unchanged.
        body = write_xyz(random_cloud(4, n=30))
        plain, accented = tmp_path / "plain.xyz", tmp_path / "accented.xyz"
        plain.write_bytes(body.encode())
        accented.write_bytes(("# télémètre Á\n" + body).encode("utf-8"))
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(pointdrop.__file__).parents[1]),
            "LC_ALL": "C",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
        }
        outputs = []
        for cloud in (plain, accented):
            out = tmp_path / f"{cloud.stem}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "pointdrop.cli", "features", str(cloud), "--k", "5",
                 "--output", str(out)],
                env=env, capture_output=True, encoding="utf-8", timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_malformed_cloud(self, capsys, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n", encoding="utf-8")
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
            (cloud_dir / f"{stem}.xyz").write_text(write_xyz(cloud), encoding="utf-8")
            (scores_dir / f"{stem}.txt").write_text(
                write_scores(ScoreVector(f1, RAW_SALIENCY)), encoding="utf-8"
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
        loaded = load_coefficients(out_path.read_text(encoding="utf-8"))
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
        (scores_dir / "extra.txt").write_text("0.0\n", encoding="utf-8")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir)])
        assert code == 2
        assert "unmatched" in err and "extra" in err

    def test_bad_alpha_rejected_before_reading(self, capsys, tmp_path):
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        (cloud_dir / "a.xyz").write_text("1 2 3\n4 5\n", encoding="utf-8")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--alpha", "1.5"])
        assert code == 2
        assert "alpha must lie in (0, 1), got 1.5" in err

    def test_bad_gamma_or_radius_rejected_before_reading(self, capsys, tmp_path):
        # Usage errors, like a bad --sigma: argparse exits before any file is read.
        cloud_dir, scores_dir, _ = self.setup_corpus(tmp_path)
        (cloud_dir / "a.xyz").write_text("1 2 3\n4 5\n", encoding="utf-8")
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
        cloud, scores = cloud_dir / "b.xyz", scores_dir / "b.txt"
        pair = f"{cloud}, {scores}"
        scores.write_text("0.5\n" * 10, encoding="utf-8")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--top-n", "18"])
        assert code == 2
        assert err == f"error: {pair}: {scores}: score count mismatch: expected 41, found 10\n"
        cloud.write_text("1 2 3\n4 5\n", encoding="utf-8")
        code, _, err = run(capsys, ["fit", str(cloud_dir), str(scores_dir), "--top-n", "18"])
        assert code == 2
        assert err == f"error: {pair}: {cloud}: malformed line 2: expected 3 coordinates, got 2\n"

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
                (cloud_dir / f"{i}.xyz").write_text(
                    write_xyz(PointCloud(np.ldexp(pts, e))), encoding="utf-8"
                )
                (scores_dir / f"{i}.txt").write_text(
                    write_scores(ScoreVector(z, RAW_SALIENCY)), encoding="utf-8"
                )
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
        (directory / "a.zzz").write_text("0.0\n", encoding="utf-8")
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
            (cloud_dir / f"{i}.xyz").write_text(write_xyz(PointCloud(pts)), encoding="utf-8")
            (scores_dir / f"{i}.txt").write_text(
                write_scores(ScoreVector(z, RAW_SALIENCY)), encoding="utf-8"
            )
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
            (scores_dir / f"{i}.txt").write_text("0.5\n" * 10, encoding="utf-8")
        scores = scores_dir / f"{broken[0]}.txt"
        expected = (
            f"error: {cloud_dir / f'{broken[0]}.xyz'}, {scores}: {scores}: "
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
        monkeypatch.delattr(os, "fork")
        assert self.fit(capsys, monkeypatch, 2, cloud_dir, scores_dir) == serial
        assert shares == []

    def test_small_corpus_stays_serial(self, capsys, monkeypatch, tmp_path, shares):
        per_process = cli_module._MIN_CLOUDS_PER_PROCESS
        cloud_dir, scores_dir = self.setup_corpus(tmp_path, count=2 * per_process - 1)
        assert self.fit(capsys, monkeypatch, 4, cloud_dir, scores_dir)[0] == 0
        assert shares == []

    def test_parent_share_queries_single_threaded(self, capsys, monkeypatch, tmp_path, shares):
        # Thread every query, then record this process's kNN and ball queries:
        # a pooled share runs each on one thread, a serial fit on every usable
        # CPU (4 here).
        workers, ball_workers = [], []

        class RecordingTree(graph_module.cKDTree):
            def query(self, x, k=1, **kwargs):
                workers.append(kwargs["workers"])
                return super().query(x, k=k, **kwargs)

            def query_ball_point(self, x, r, **kwargs):
                ball_workers.append(kwargs["workers"])
                return super().query_ball_point(x, r, **kwargs)

        monkeypatch.setattr(graph_module, "_THREADED_QUERY_MIN_POINTS", 1)
        monkeypatch.setattr(graph_module, "cKDTree", RecordingTree)
        monkeypatch.setattr(graph_module, "_usable_cpus", lambda: 4)
        cloud_dir, scores_dir = self.setup_corpus(tmp_path, count=4)
        results = []
        for cpus, expected in ((2, 1), (1, 4)):
            workers.clear()
            ball_workers.clear()
            results.append(self.fit(capsys, monkeypatch, cpus, cloud_dir, scores_dir))
            assert workers and set(workers) == {expected}
            assert ball_workers and set(ball_workers) == {expected}
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
        (scores_dir / f"{broken}.txt").write_text("0.5\n" * 10, encoding="utf-8")
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
        path.write_text(write_xyz(random_cloud(20)), encoding="utf-8")
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
        path.write_text(write_xyz(random_cloud(21)), encoding="utf-8")
        out_path = tmp_path / "retained.xyz"
        code, out, err = run(
            capsys,
            [
                "attack", str(path), "--preset", "avg-N100",
                "--top-n", "28", "--output", str(out_path),
            ],
        )
        assert code == 0 and err == ""
        assert parse_xyz(out_path.read_text(encoding="utf-8")).n == 100
        assert "N = 28" in out
        assert len(re.findall(r"^\d+, ", out, flags=re.M)) == 28

    def test_coefficient_file_equals_preset(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(22)), encoding="utf-8")
        coeff_path = tmp_path / "coeffs.json"
        coeff_path.write_text(write_coefficients(get_preset("dgcnn-N50")), encoding="utf-8")
        _, out_preset, _ = run(
            capsys, ["attack", str(path), "--preset", "dgcnn-N50", "--top-n", "15"]
        )
        _, out_file, _ = run(
            capsys, ["attack", str(path), "--preset", str(coeff_path), "--top-n", "15"]
        )
        assert out_preset == out_file

    def test_random_baseline_deterministic(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(23)), encoding="utf-8")
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
        path.write_text(write_xyz(random_cloud(24, n=30)), encoding="utf-8")
        code, _, err = run(
            capsys, ["attack", str(path), "--preset", "pointnet-N50", "--top-n", "30"]
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_preset(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(25, n=30)), encoding="utf-8")
        code, _, err = run(capsys, ["attack", str(path), "--preset", "nope", "--top-n", "5"])
        assert code == 2
        assert "neither a bundled preset" in err
        assert "pointnet-N50" in err

    def rejected_source(self, capsys, tmp_path, flags):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(26, n=30)), encoding="utf-8")
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
        path.write_text(write_xyz(random_cloud(27, n=30)), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(document, encoding="utf-8")
        code, _, err = run(capsys, ["attack", str(path), "--preset", str(bad), "--top-n", "5"])
        assert code == 2
        assert err.startswith("error: ")


class TestOverlapCommand:
    def write_scores_file(self, path, values):
        path.write_text(write_scores(ScoreVector(values, RAW_SALIENCY)), encoding="utf-8")

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
        assert err == f"error: score files differ in length: {a} 5, {b} 6\n"

    def test_output_file(self, capsys, tmp_path):
        values = np.random.default_rng(32).normal(size=20)
        a = tmp_path / "a.txt"
        self.write_scores_file(a, values)
        out_path = tmp_path / "overlap.csv"
        code, out, _ = run(
            capsys, ["overlap", str(a), str(a), "--top-n", "5", "--output", str(out_path)]
        )
        assert code == 0 and out == ""
        assert out_path.read_text(encoding="utf-8").strip().splitlines()[1] == "5,100"


class TestSigmaFlag:
    def test_explicit_sigma_changes_features(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(40, n=30)), encoding="utf-8")
        _, auto, _ = run(capsys, ["features", str(path), "--k", "5"])
        _, fixed, _ = run(capsys, ["features", str(path), "--k", "5", "--sigma", "0.05"])
        _, auto_again, _ = run(capsys, ["features", str(path), "--k", "5", "--sigma", "auto"])
        assert auto != fixed
        assert auto == auto_again

    def test_bad_sigma_rejected(self, capsys, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text(write_xyz(random_cloud(41, n=10)), encoding="utf-8")
        with pytest.raises(SystemExit):
            run(capsys, ["features", str(path), "--sigma", "-1"])


class TestInputFiles:
    """Every command reads UTF-8 files, a leading BOM skipped, and names a file it cannot parse."""

    ARGV = {
        "features": ["features", "cloud.xyz", "--k", "6"],
        "fit": ["fit", "clouds", "scores", "--k", "6", "--top-n", "20"],
        "attack": ["attack", "cloud.xyz", "--preset", "coeffs.json", "--top-n", "10"],
        "overlap": ["overlap", "a.txt", "b.txt", "--top-n", "5,10"],
    }

    def write_inputs(self, root, prefix=b""):
        """Every command's input files under ``root``, each starting with ``prefix``."""
        rng = np.random.default_rng(70)
        texts = {
            "cloud.xyz": write_xyz(random_cloud(70, n=40)),
            "coeffs.json": write_coefficients(get_preset("avg-N50")),
            "a.txt": write_scores(ScoreVector(rng.normal(size=40), RAW_SALIENCY)),
            "b.txt": write_scores(ScoreVector(rng.normal(size=40), RAW_SALIENCY)),
        }
        for i in range(2):
            pts = rng.normal(size=(48, 3))
            z = np.linalg.norm(pts, axis=1) + rng.normal(0.0, 0.1, 48)
            texts[f"clouds/{i}.xyz"] = write_xyz(PointCloud(pts))
            texts[f"scores/{i}.txt"] = write_scores(ScoreVector(z, RAW_SALIENCY))
        for name, text in texts.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(prefix + text.encode("utf-8"))
        return root

    def run_in(self, capsys, monkeypatch, root, command):
        # Relative paths, so that both input sets give the same argv.
        monkeypatch.chdir(root)
        return run(capsys, self.ARGV[command])

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_bom_skipped(self, capsys, monkeypatch, tmp_path, command):
        # Windows tools such as Notepad's "UTF-8 with BOM" start a file with U+FEFF.
        plain = self.run_in(capsys, monkeypatch, self.write_inputs(tmp_path / "plain"), command)
        assert plain[0] == 0, plain[2]
        marked = self.write_inputs(tmp_path / "bom", codecs.BOM_UTF8)
        assert self.run_in(capsys, monkeypatch, marked, command) == plain

    # Each command with one of the files it reads.
    INPUTS = [
        ("features", "cloud.xyz"),
        ("attack", "cloud.xyz"),
        ("attack", "coeffs.json"),
        ("overlap", "b.txt"),
        ("fit", "clouds/1.xyz"),
        ("fit", "scores/1.txt"),
    ]

    # Per suffix, UTF-8 text that fails to parse, and the parser's message.
    CORRUPT = {
        ".xyz": ("1 2 3\n4 5\n", "malformed line 2: expected 3 coordinates, got 2"),
        ".txt": ("0.5\nx\n", "malformed line 2: 'x' is not numeric"),
        ".json": (
            '{"coefficients": }',
            "invalid coefficient document: Expecting value: line 1 column 18 (char 17)",
        ),
    }

    @pytest.mark.parametrize("command, name", INPUTS)
    def test_not_utf8_named(self, capsys, monkeypatch, tmp_path, command, name):
        root = self.write_inputs(tmp_path)
        latin = root / name
        latin.write_bytes("# t\xe9l\xe9m\xe8tre\n".encode("latin-1") + latin.read_bytes())
        code, out, err = self.run_in(capsys, monkeypatch, root, command)
        pair = f"{Path('clouds/1.xyz')}, {Path('scores/1.txt')}: " if command == "fit" else ""
        decode = "'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"
        assert (code, out, err) == (2, "", f"error: {pair}{Path(name)}: {decode}\n")

    @pytest.mark.parametrize("command, name", INPUTS)
    def test_parse_error_named(self, capsys, monkeypatch, tmp_path, command, name):
        root = self.write_inputs(tmp_path)
        text, message = self.CORRUPT[Path(name).suffix]
        (root / name).write_text(text, encoding="utf-8")
        code, out, err = self.run_in(capsys, monkeypatch, root, command)
        pair = f"{Path('clouds/1.xyz')}, {Path('scores/1.txt')}: " if command == "fit" else ""
        assert (code, out, err) == (2, "", f"error: {pair}{Path(name)}: {message}\n")

    def test_degenerate_normalized_cloud_named(self, capsys, monkeypatch, tmp_path):
        root = self.write_inputs(tmp_path)
        (root / "same.xyz").write_text("1 2 3\n" * 40, encoding="utf-8")
        monkeypatch.chdir(root)
        argv = ["attack", "same.xyz", "--normalize", "--preset", "coeffs.json", "--top-n", "10"]
        expected = "error: same.xyz: degenerate cloud: all points coincide\n"
        assert run(capsys, argv) == (2, "", expected)


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
    cloud.write_text(write_xyz(random_cloud(50, n=n)), encoding="utf-8")
    if can_pin:
        pinned = cli(["features", str(cloud)], pin_one_cpu)
        assert pinned == cli(["features", str(cloud)])

    rng = np.random.default_rng(51)
    cloud_dir, scores_dir = tmp_path / "clouds", tmp_path / "scores"
    cloud_dir.mkdir()
    scores_dir.mkdir()
    for i in range(4):
        (cloud_dir / f"{i}.xyz").write_text(write_xyz(random_cloud(52 + i, n=64)), encoding="utf-8")
        (scores_dir / f"{i}.txt").write_text(
            write_scores(ScoreVector(rng.normal(size=64), RAW_SALIENCY)), encoding="utf-8"
        )
    fit_argv = ["fit", str(cloud_dir), str(scores_dir), "--top-n", "30"]
    fits = [
        cli(fit_argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONHASHSEED=seed)
        for threads, seed in (("1", "1"), ("2", "2"))
    ]
    assert fits[0] == fits[1]
    if can_pin:  # one process, against one per usable CPU
        assert cli(fit_argv, pin_one_cpu) == fits[0]


def test_cli_defaults_are_the_library_defaults():
    # The graph and feature flags default to extract_features' keywords, which
    # drop_attack passes on; fit's --alpha defaults to fit_mlr's.
    parse = cli_module._build_parser().parse_args
    keywords = inspect.signature(extract_features).parameters
    for argv in (["features", "c.xyz"], ["attack", "c.xyz", "--random"], ["fit", "C", "S"]):
        options = cli_module._feature_options(parse(argv))
        assert options == {name: keywords[name].default for name in options}, argv[0]
    alpha = inspect.signature(fit_mlr).parameters["alpha"].default
    assert parse(["fit", "C", "S"]).alpha == alpha


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
        [sys.executable, "-c", probe], env=env, capture_output=True, encoding="utf-8", check=True
    )
    assert done.stdout.strip() == "[]"


def test_parser_built_once_and_reusable(capsys, tmp_path):
    # The parser is cached per process; a usage error leaves it as a fresh one.
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text(write_xyz(random_cloud(53, n=20)), encoding="utf-8")
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


def test_benchmark_tracer_wraps_the_call_path(tmp_path):
    # perfbench's worker wraps each traced function at every module attribute
    # that holds it; ball_count's span must nest in extract_features', the
    # graph and LPF spans must count the graph's edges and the system's
    # nonzeros, and uninstalling must leave one function under all three names.
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", Path(__file__).parents[1] / "perfbench" / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    modules = {name: importlib.import_module(f"pointdrop.{name}") for name in worker.MODULES}
    tracer = worker.Tracer(modules)
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text(write_xyz(random_cloud(54, n=64)), encoding="utf-8")
    graph = build_knn_graph(random_cloud(54, n=64), 5)
    tracer.install()
    try:
        assert cli_module.main(["features", str(cloud), "--k", "5"]) == 0
    finally:
        tracer.uninstall()
    (ball,) = [span for span in tracer.spans if span[0] == "features.ball_count"]
    assert tracer.spans[ball[3]][0] == "features.extract_features"
    work = {span[0]: span[5] for span in tracer.spans}
    assert work["graph.build_knn_graph"] == graph.num_edges
    assert work["features.lpf_solve"] == graph.adjacency.nnz + graph.n
    assert pointdrop.ball_count is pointdrop.features.ball_count is pointdrop.graph.ball_count


def test_console_script_is_cli_main():
    # The [project.scripts] entry that pip turns into the `pointdrop` command.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    module, attr = re.search(r'^pointdrop = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert getattr(importlib.import_module(module), attr) is cli_module.main
