"""Spans and call counts recorded around the public functions of boolgb.

A wrapper replaces a function on the module attribute that its callers
look up at call time, so calls made inside the package are seen as well
as the benchmark's own: ``interreduce`` calling ``normal_form``, or the
``gb`` command calling the names the CLI module imported.  Everything is
kept in memory and written out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager

# (module name, attribute, span name).  A function imported into several
# modules is wrapped in each of them under one span name.
SPANS = (
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "interreduce", "groebner.interreduce"),
    ("groebner", "is_groebner_basis", "groebner.is_groebner_basis"),
    ("groebner", "is_reduced_basis", "groebner.is_reduced_basis"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "dump_basis", "groebner.dump_basis"),
    ("groebner", "load_basis", "groebner.load_basis"),
    ("cli", "buchberger", "groebner.buchberger"),
    ("cli", "interreduce", "groebner.interreduce"),
    ("cli", "dump_basis", "groebner.dump_basis"),
    ("cli", "main", "cli.gb"),
    ("construction", "make_H", "construction.make_H"),
    ("construction", "make_G", "construction.make_G"),
    ("construction", "count_standard_monomials",
     "construction.count_standard_monomials"),
    ("construction", "parse_poly", "polyring.parse_poly"),
    ("construction", "format_poly", "polyring.format_poly"),
    ("oracle", "enumerate_solutions", "oracle.enumerate_solutions"),
    ("polyring", "parse_poly", "polyring.parse_poly"),
    ("polyring", "format_poly", "polyring.format_poly"),
)

# Counted, not timed: these run millions of times per job, so they get a
# job of their own and never inflate the spans above.
COUNTS = (
    ("groebner", "mono_divides", "groebner.mono_divides_calls"),
    ("groebner", "mono_lcm", "groebner.mono_lcm_calls"),
)

JOB_SPAN = "perfbench.job"


class Tracer:
    """In-memory spans and counts for one run.

    A span is ``[name, start, end, parent index or -1, job id]``; spans of
    one job share its id.  ``last`` keeps the arguments and result of the
    latest call under each span name, which is where the run reads the
    engine's own statistics from.
    """

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.counts = {}
        self.last = {}
        self._stack = []
        self.job_id = -1

    def _wrap_span(self, original, name):
        spans, stack, last = self.spans, self._stack, self.last

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            last[name] = (args, result)
            return result

        return traced

    def _wrap_count(self, original, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    @contextmanager
    def _installed(self, plan, wrap):
        saved = []
        try:
            for module_name, attr, name in plan:
                module = getattr(self.lib, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def job(self, job_id):
        """Trace the spans of one job under a root span of its own."""
        self.job_id = job_id
        record = [JOB_SPAN, 0.0, 0.0, -1, job_id]
        with self._installed(SPANS, self._wrap_span):
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                yield
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

    def counting(self):
        """Count the calls in ``COUNTS`` while the block runs."""
        return self._installed(COUNTS, self._wrap_count)

    def span_totals(self):
        """{job id: {span name: summed seconds}} and the same for self time
        by layer (the first dotted part of the name)."""
        totals, self_time = {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, job_id) in enumerate(self.spans):
            duration = end - start
            per_name = totals.setdefault(job_id, {})
            per_name[name] = per_name.get(name, 0.0) + duration
            layer = name.split(".", 1)[0]
            per_layer = self_time.setdefault(job_id, {})
            per_layer[layer] = (per_layer.get(layer, 0.0)
                                + duration - child_time[index])
        return totals, self_time

    def write(self, path, header):
        payload = dict(header)
        payload["span_fields"] = ["name", "start", "end", "parent", "job"]
        payload["spans"] = self.spans
        payload["counts"] = self.counts
        with open(path, "w") as fh:
            json.dump(payload, fh)
