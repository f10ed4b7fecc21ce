"""In-memory span recording and per-layer self-time aggregation.

A span is one timed call into a layer of ``singlerange``: its name
(``<module>.<call>``), start and end (``time.perf_counter`` seconds), the
index of the span that contains it, and the id of the operation it belongs
to. Counts (steps, samples, bytes) are stored on the span that did the
work, so ratios are formed where the work was measured. Spans stay in
memory until the run ends and are then written out in one piece.
"""

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "op": self.op_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


class NullTracer:
    """Tracer stand-in that records nothing (untraced operations)."""

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield {}


NULL_TRACER = NullTracer()


def self_times(spans):
    """Duration of each span minus the time covered by its direct children.

    Children run one after another inside their parent (one thread), so
    their durations do not overlap and can be summed.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, covered)]


def layer_table(spans, op_walls, replay_walls):
    """Per-layer metrics per operation from the spans of a traced run.

    Every operation is one root span whose descendants are layer spans.
    ``op_walls[op]`` is the wall of the operation as a user runs it and
    ``replay_walls[op]`` that of the same replay run without a tracer.
    Returns ``(table, bases)``:

    * ``<span name>_s``: layer self seconds, mean per traced operation;
    * counts recorded on spans, mean per traced operation;
    * ``estimators.<model>_<form>.us_per_step``: filter self time over
      the steps it ran, for each model and update form that ran;
    * ``cli.residual_s``: op wall minus untraced replay wall (argparse
      and work the CLI does inline), mean over operations;
    * ``trace.overhead_s``: traced replay wall minus untraced replay
      wall, mean over operations;
    * ``_op_wall_s``: the traced wall, mean, the base of every share.

    ``bases`` gives each ratio's base as text.
    """
    own_time = self_times(spans)
    ops = sorted({rec["op"] for rec in spans})
    totals = defaultdict(float)
    traced_wall = 0.0
    filter_time, filter_steps = defaultdict(float), defaultdict(int)
    for rec, own in zip(spans, own_time):
        wall = rec["end"] - rec["start"]
        if rec["parent"] is None:
            op = rec["op"]
            traced_wall += wall
            totals["trace.overhead_s"] += wall - replay_walls[op]
            totals["cli.residual_s"] += op_walls[op] - replay_walls[op]
            continue
        totals[rec["name"] + "_s"] += own
        for key, value in rec.get("counts", {}).items():
            totals[key] += value
        if rec["name"] == "estimators.filter":
            form = f"estimators.{rec['model']}_{rec['form']}"
            filter_time[form] += own
            filter_steps[form] += rec["counts"]["estimators.steps"]
    table = {key: value / len(ops) for key, value in totals.items()}
    table["_op_wall_s"] = traced_wall / len(ops)
    bases = {}
    for form, seconds in filter_time.items():
        table[f"{form}.us_per_step"] = 1e6 * seconds / filter_steps[form]
        bases[f"{form}.us_per_step"] = (
            f"{filter_steps[form]} steps in {len(ops)} traced ops")
    return table, bases
