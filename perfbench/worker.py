"""Fresh-process runner: runs one workload plan through ``pointdrop.cli.main``.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names argv lists. The worker imports the CLI,
runs the warm-up commands, then the timed closed loop (one client, next
command only after the previous one returned) for about the plan's
seconds, then the untimed check commands. Each command's stdout and stderr
are captured; its wall time covers only the ``cli.main`` call.

With tracing on, every loop slot runs its command twice on the same input,
once traced and once not, alternating which goes first, so the traced and
untraced wall times pair up into the tracing overhead. Spans are kept in
memory and written with the results at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import traceback
from functools import cached_property
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "io", "graph", "features", "regression", "attack", "presets")

# Traced layer functions: (span name, home module, attribute, work-count
# metric, unit, work(result, args)). Wrappers replace the function at every
# module attribute that holds it, which is where its callers look it up, so
# spans nest along the real cli.main call path. "Class.attr" names a
# cached_property whose first access (the operator build) is the span.
TRACED = (
    ("cli.main", "cli", "main", None, None, None),
    ("io.parse_xyz", "io", "parse_xyz", "io.parse_xyz.lines", "count", lambda r, a: r.n),
    ("io.write_xyz", "io", "write_xyz", "io.write_xyz.bytes", "bytes", lambda r, a: len(r)),
    ("io.parse_scores", "io", "parse_scores", None, None, None),
    ("attack.normalize_scores", "attack", "normalize_scores", None, None, None),
    ("regression.select_top_targets", "regression", "select_top_targets", None, None, None),
    ("regression.fit_mlr", "regression", "fit_mlr", "regression.samples", "count",
     lambda r, a: r.sample_count),
    ("graph.build_knn_graph", "graph", "build_knn_graph", "graph.edges", "count",
     lambda r, a: r.num_edges),
    ("graph.operators", "graph", "NeighborhoodGraph.laplacian", None, None, None),
    ("graph.operators", "graph", "NeighborhoodGraph.transition", None, None, None),
    # nnz of I + gamma L: the off-diagonal edges plus the full diagonal.
    ("features.lpf_solve", "features", "lpf_solve", "features.lpf_solve.nnz", "count",
     lambda r, a: a[0].adjacency.nnz + a[0].n),
    ("features.ball_count", "features", "ball_count", "features.ball_count.pairs", "count",
     lambda r, a: int(r.sum())),
    ("features.features_to_csv", "features", "features_to_csv",
     "features.features_to_csv.bytes", "bytes", lambda r, a: len(r)),
    ("features.extract_features", "features", "extract_features", None, None, None),
    ("attack.drop_attack", "attack", "drop_attack", None, None, None),
    ("attack.predict_scores", "attack", "predict_scores", None, None, None),
    ("attack.rank_top_n", "attack", "rank_top_n", None, None, None),
    ("presets.get_preset", "presets", "get_preset", None, None, None),
)


class Tracer:
    """Installs span-recording wrappers on the package and collects spans.

    A span is [name, start, end, parent span index, op number, work count].
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op, None]
            if work is not None:
                spans[index][5] = work(result, args)
            return result

        return traced

    def install(self) -> None:
        for name, home, attr, _, _, work in TRACED:
            module = self.modules[home]
            if "." in attr:
                cls_name, prop = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(prop) if cls is not None else None
                if not isinstance(original, cached_property):
                    raise SystemExit(f"traced name {name}: pointdrop.{home}.{attr} is missing")
                replacement = cached_property(self._wrap(name, original.func, work))
                replacement.__set_name__(cls, prop)
                self._patches.append((cls, prop, original))
                setattr(cls, prop, replacement)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise SystemExit(f"traced name {name}: pointdrop.{home}.{attr} is missing")
            wrapped = self._wrap(name, original, work)
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _run(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed operation; keep going
            rc = 1
            err.write(traceback.format_exc())
        wall = perf_counter() - start
    return {"argv": argv, "rc": rc, "wall": wall, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    start = perf_counter()
    cli = importlib.import_module("pointdrop.cli")
    import_s = perf_counter() - start
    src = Path(plan["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"pointdrop imported from {cli.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"pointdrop.{name}") for name in MODULES}

    tracer = Tracer(modules) if plan["trace"] else None
    if tracer is not None:
        tracer.install()  # fails before any timing if a traced name is missing
        tracer.uninstall()

    for argv in plan["warmup"]:
        _run(cli, argv)

    ops = []
    templates = plan["ops"]
    start = perf_counter()
    slot = 0
    while True:
        # Start another slot only while it is expected to end no later than
        # half a slot past the plan's seconds, so a run measures about that
        # long whether a command takes 30 ms or 13 s.
        elapsed = perf_counter() - start
        if slot >= plan["min_ops"] and elapsed + elapsed / max(slot, 1) / 2 >= plan["seconds"]:
            break
        template = slot % len(templates)
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if slot % 2 == 0 else (True, False)
        for traced in modes:
            op = len(ops)
            argv = [arg.replace("{op}", str(op)) for arg in templates[template]]
            if traced:
                tracer.op = op
                tracer.install()
            try:
                record = _run(cli, argv)
            finally:
                if traced:
                    tracer.uninstall()
            record.update(template=template, slot=slot, traced=traced)
            ops.append(record)
        slot += 1

    checks = [_run(cli, argv) for argv in plan["checks"]]
    result = {
        "import_s": import_s,
        "ops": ops,
        "checks": checks,
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
