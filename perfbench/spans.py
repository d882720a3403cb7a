"""Spans around phopf's public functions, recorded from outside the package.

Every function listed in LAYERS is replaced, in each phopf module namespace
that binds it (and in module-level tables of functions such as the CLI's
dispatch table), by a wrapper that records a span: name, start, end and the
index of the enclosing span.  Methods are replaced on their class.  Spans
stay in memory until `layer_metrics` turns them into per-layer figures; a layer's
time is the self time of its spans, that is each span's duration minus the
time its child spans cover.  `Tracer.restore` puts every original back."""

import functools
import os
import sys
import time

from phopf import (actions, algebras, cli, coactions, fields, globalize, linalg,
                   serialize, smash)

# (owner, attribute, layer key, counted as a call of that layer)
LAYERS = [
    (cli, "main", "cli.main", False),
    (cli, "cmd_check", "cli.main", False),
    (cli, "cmd_example", "cli.main", False),
    (cli, "cmd_globalize", "cli.main", False),
    (cli, "cmd_smash", "cli.main", False),
    (serialize, "read_document", "serialize.load", False),
    (serialize, "load_algebra", "serialize.load", True),
    (serialize, "load_hopf", "serialize.load", True),
    (serialize, "load_action", "serialize.load", True),
    (serialize, "load_bimodule", "serialize.load", True),
    (serialize, "load_coaction", "serialize.load", True),
    (serialize, "load_bicomodule", "serialize.load", True),
    (serialize, "write_document", "serialize.dump", True),
    (fields.Field, "parse", "fields.parse", True),
    (algebras, "algebra_check", "algebras.algebra_check", True),
    (algebras, "hopf_check", "algebras.hopf_check", True),
    (algebras, "hom_hh_a", "algebras.ambient", True),
    (algebras, "tensor_hah", "algebras.ambient", True),
    (linalg, "subspace_span", "linalg.span", False),
    (linalg, "rref", "linalg.span", True),
    (linalg.Subspace, "coords", "linalg.coords", True),
    (linalg, "mat_apply", "linalg.mat_apply", True),
    (linalg, "closure_fixpoint", "linalg.closure", True),
    (actions, "check_lpma", "actions.suite", True),
    (actions, "check_rpma", "actions.suite", True),
    (actions, "check_bimodule", "actions.suite", True),
    (coactions, "check_lpca", "coactions.suite", True),
    (coactions, "check_rpca", "coactions.suite", True),
    (coactions, "check_bicomodule", "coactions.suite", True),
    (coactions, "bicomodule_to_bimodule", "coactions.bridge", True),
    (coactions, "bimodule_to_bicomodule", "coactions.bridge", True),
    (coactions, "coaction_to_dual_action", "coactions.bridge", True),
    (coactions, "dual_action_to_coaction", "coactions.bridge", True),
    (globalize, "standard_globalize_bimodule", "globalize.construct", True),
    (globalize, "standard_globalize_bicomodule", "globalize.construct", True),
    (globalize, "verify_globalization", "globalize.verify", True),
    (globalize, "psi_map", "globalize.psi", True),
    (globalize, "maximal_degenerate_subbimodule", "globalize.degenerate", True),
    (smash, "smash_product", "smash.product", True),
    (smash, "check_smash_associativity", "smash.assoc", True),
    (smash, "find_idempotent", "smash.idempotent", True),
    (smash, "check_ker_eps_invariance", "smash.idempotent", False),
]


def _ambient(r):
    return {"algebras.ambient_dim": r.algebra.dim,
            "algebras.ambient_nnz": len(r.algebra.mul.entries)}


# Work counts taken from a call's arguments and result: attribute -> hook.
COUNTERS = {
    "read_document": lambda a, r: {"serialize.bytes_read": os.path.getsize(a[0])},
    "write_document": lambda a, r: {"serialize.bytes_written": os.path.getsize(a[1])},
    "algebra_check": lambda a, r: {"algebras.algebra_check_triples": a[0].dim ** 3},
    "hom_hh_a": lambda a, r: _ambient(r),
    "tensor_hah": lambda a, r: _ambient(r),
    "standard_globalize_bimodule": lambda a, r: {"globalize.carrier_dim": r.dim},
    "standard_globalize_bicomodule": lambda a, r: {"globalize.carrier_dim": r.dim},
    "smash_product": lambda a, r: {"smash.dim": r.alg.dim},
}

COUNT_METRICS = ("serialize.bytes_read", "serialize.bytes_written",
                 "algebras.algebra_check_triples", "algebras.ambient_dim",
                 "algebras.ambient_nnz", "globalize.carrier_dim", "smash.dim")

# Arithmetic methods of ModP, counted (not timed) in a separate pass.
MODP_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__")

# Every per-layer metric the traced run prints: name -> unit.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "serialize.load_s": "s",
    "serialize.load_calls": "count",
    "serialize.dump_s": "s",
    "serialize.dump_calls": "count",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "fields.parse_s": "s",
    "fields.parse_calls": "count",
    "fields.modp_ops": "count",
    "algebras.algebra_check_s": "s",
    "algebras.algebra_check_calls": "count",
    "algebras.algebra_check_triples": "count",
    "algebras.hopf_check_s": "s",
    "algebras.hopf_check_calls": "count",
    "algebras.ambient_s": "s",
    "algebras.ambient_dim": "count",
    "algebras.ambient_nnz": "count",
    "linalg.span_s": "s",
    "linalg.rref_calls": "count",
    "linalg.coords_s": "s",
    "linalg.coords_calls": "count",
    "linalg.mat_apply_s": "s",
    "linalg.mat_apply_calls": "count",
    "linalg.closure_s": "s",
    "linalg.closure_calls": "count",
    "actions.suite_s": "s",
    "actions.suite_calls": "count",
    "coactions.suite_s": "s",
    "coactions.suite_calls": "count",
    "coactions.bridge_s": "s",
    "globalize.construct_s": "s",
    "globalize.verify_s": "s",
    "globalize.psi_s": "s",
    "globalize.degenerate_s": "s",
    "globalize.carrier_dim": "count",
    "smash.product_s": "s",
    "smash.assoc_calls": "count",
    "smash.idempotent_s": "s",
    "smash.idempotent_calls": "count",
    "smash.dim": "count",
    "trace.overhead_s": "s",
}

# Layer keys whose call count is printed, under the printed name.
CALL_METRICS = {
    "serialize.load": "serialize.load_calls",
    "serialize.dump": "serialize.dump_calls",
    "fields.parse": "fields.parse_calls",
    "algebras.algebra_check": "algebras.algebra_check_calls",
    "algebras.hopf_check": "algebras.hopf_check_calls",
    "linalg.span": "linalg.rref_calls",
    "linalg.coords": "linalg.coords_calls",
    "linalg.mat_apply": "linalg.mat_apply_calls",
    "linalg.closure": "linalg.closure_calls",
    "actions.suite": "actions.suite_calls",
    "coactions.suite": "coactions.suite_calls",
    "smash.assoc": "smash.assoc_calls",
    "smash.idempotent": "smash.idempotent_calls",
}


class _Patches:
    """Replacements of attributes and of entries in module-level tables,
    undone in reverse order by `restore`."""

    def __init__(self):
        self._undo = []

    def replace_everywhere(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "phopf" and not name.startswith("phopf."):
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if value is original:
                    self.set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    self._replace_in_table(value, original, wrapper)

    def _replace_in_table(self, table, original, wrapper):
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(v is original for v in value):
                self._undo.append(functools.partial(table.__setitem__, key, value))
                table[key] = tuple(wrapper if v is original else v for v in value)

    def set(self, owner, attr, value):
        self._undo.append(functools.partial(setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            self._undo.pop()()


class Tracer:
    """Records spans while installed.  `spans` holds (key, start, end,
    parent index, counted); `counts` holds the work counts of COUNTERS."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = _Patches()

    def _wrap(self, fn, key, counted, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (key, start, clock(), parent, counted)
                stack.pop()
            if counter is not None:
                for name, n in counter(args, result).items():
                    counts[name] = counts.get(name, 0) + n
            return result

        return traced

    def install(self):
        for owner, attr, key, counted in LAYERS:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, key, counted, COUNTERS.get(attr))
            if isinstance(owner, type):
                self._patches.set(owner, attr, wrapper)
            else:
                self._patches.replace_everywhere(original, wrapper)

    def restore(self):
        self._patches.restore()

    def reset(self):
        del self.spans[:]
        self.counts.clear()

    def layer_metrics(self):
        """Self time and counted calls per layer key, plus the work counts."""
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls = {}, {}
        for i, (key, start, end, parent, counted) in enumerate(self.spans):
            self_s[key] = self_s.get(key, 0.0) + (end - start - child_time[i])
            if counted:
                calls[key] = calls.get(key, 0) + 1
        keys = {key for _, _, key, _ in LAYERS}
        out = {name: self_s.get(name[:-2], 0.0) for name in PER_LAYER
               if name.endswith("_s") and name[:-2] in keys}
        for key, name in CALL_METRICS.items():
            out[name] = calls.get(key, 0)
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0)
        return out


class ModPCounter:
    """Counts calls to ModP's arithmetic methods while installed."""

    def __init__(self):
        self.ops = 0
        self._patches = _Patches()

    def install(self):
        for attr in MODP_OPS:
            self._patches.set(fields.ModP, attr, self._wrap(vars(fields.ModP)[attr]))

    def _wrap(self, fn):
        def counted(*args):
            self.ops += 1
            return fn(*args)
        return counted

    def restore(self):
        self._patches.restore()
