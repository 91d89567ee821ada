"""Span tracing of orthosim's layers, installed from outside the package.

The tracer replaces each traced callable with a wrapper that records one
span per call (name, start, end, parent span, op id) and puts the
original back afterwards.  Every place that holds the original is
rebound: the defining class or module, module-level ``from ... import``
aliases in every ``orthosim`` module, and module-level dicts such as
``protocols._RUNNERS``.  Wrappers draw no randomness and call the
original exactly once, in place, so a traced op computes the same result
as an untraced one.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (layer, owner, attribute); the owner is orthosim.<module> or orthosim.<module>.<Class>
TRACED = (
    ("gpt", "orthosim.gpt", "sample_outcome"),
    ("gpt", "orthosim.gpt", "measure_fiducial"),
    ("transport", "orthosim.transport.Channel", "send_block"),
    ("transport", "orthosim.transport.Channel", "broadcast"),
    ("transport", "orthosim.transport.Permutation", "random"),
    ("transport", "orthosim.transport.Permutation", "inverse"),
    ("adversary", "orthosim.adversary.GltInterceptResend", "intercept"),
    ("adversary", "orthosim.adversary.ProbeAttack", "intercept"),
    ("adversary", "orthosim.adversary", "stream_eve_information"),
    ("adversary", "orthosim.adversary", "pop_eve_information"),
    ("quantum", "orthosim.quantum.QuantumRegistry", "allocate"),
    ("quantum", "orthosim.quantum.QuantumRegistry", "apply_pauli"),
    ("quantum", "orthosim.quantum.QuantumRegistry", "apply_noise"),
    ("quantum", "orthosim.quantum.QuantumRegistry", "attach_probe"),
    ("quantum", "orthosim.quantum.QuantumRegistry", "bell_measure"),
    ("quantum", "orthosim.quantum", "holevo_information"),
    ("config", "orthosim.config", "load_config"),
    ("config", "orthosim.config.ProtocolConfig", "ensure_valid"),
    ("config", "orthosim.config", "config_digest"),
    ("metrics", "orthosim.metrics", "check_qkd_condition"),
    ("metrics", "orthosim.metrics", "check_qsdc_condition"),
    ("protocols", "orthosim.protocols", "run"),
    ("protocols", "orthosim.protocols", "glt_escape_trials"),
    ("protocols", "orthosim.protocols", "block_reduce"),
    ("cli", "orthosim.cli", "main"),
)

LAYERS = ("gpt", "transport", "adversary", "quantum", "config", "metrics", "protocols", "cli")

# counts recorded beside the spans, at the same layer boundaries
EXTRA_COUNTS = (
    ("transport.carriers", "count"),
    ("protocols.completed_frac", "ratio"),
    ("protocols.payload_bits_per_pair", "bits/pair"),
    ("cli.protocol_runs_per_op", "count"),
)


def span_name(layer: str, owner: str, attr: str) -> str:
    """Metric prefix of a traced callable, e.g. ``quantum.QuantumRegistry.allocate``."""
    cls = owner.split(".")[2:]  # owner is orthosim.<module>[.<class>]
    return ".".join([layer, *cls, attr])


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for layer, owner, attr in TRACED:
        name = span_name(layer, owner, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += list(EXTRA_COUNTS)
    return out


def _resolve(owner: str):
    """The module or class an owner path names; its module must be imported."""
    parts = owner.split(".")
    module = sys.modules[".".join(parts[:2])]
    return getattr(module, parts[2]) if len(parts) > 2 else module


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _pairs_of(config) -> int:
    if config.kind == "glt2s":
        return config.num_gbits
    return 3 * config.block_size if config.kind == "pop-qsdc" else config.block_size


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    Spans live in parallel arrays indexed by span id: name index, op id,
    parent span id (-1 at the top), start and end in nanoseconds.
    """

    def __init__(self) -> None:
        self.names = [span_name(*t) for t in TRACED]
        self._layer_of = [t[0] for t in TRACED]
        self.name_ix = array("i")
        self.op_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []  # (owner, key, original)
        self.run_outcomes: dict[int, list[tuple[bool, int, int]]] = defaultdict(list)
        self.carriers: dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------ install

    def _wrap(self, index: int, fn, after=None):
        name_ix, op_ix, parent = self.name_ix, self.op_ix, self.parent
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            name_ix.append(index)
            op_ix.append(self.op_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_carriers(self, args, kwargs, result) -> None:
        carriers = kwargs["carriers"] if "carriers" in kwargs else args[1]
        self.carriers[self.op_id] += len(carriers)

    def _record_run(self, args, kwargs, result) -> None:
        config = kwargs["config"] if "config" in kwargs else args[0]
        self.run_outcomes[self.op_id].append(
            (result.outcome == "completed", len(result.bob_payload), _pairs_of(config))
        )

    def install(self) -> None:
        """Wrap every traced callable and rebind every alias of it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "orthosim" or n.startswith("orthosim."))]
        for index, (layer, owner, attr) in enumerate(TRACED):
            target = _resolve(owner)
            original = target.__dict__[attr]
            after = {"send_block": self._count_carriers, "run": self._record_run}.get(attr)
            if isinstance(target, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(index, original.__func__, after))
                else:
                    wrapped = self._wrap(index, original, after)
                self._rebind(target, attr, original, wrapped)
                continue
            wrapped = self._wrap(index, original, after)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._rebind(module, key, original, wrapped)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:  # a registry such as protocols._RUNNERS
                                self._rebind(value, dkey, original, wrapped)

    def _rebind(self, owner, key, original, wrapped) -> None:
        _assign(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original back where it was found."""
        while self._restore:
            _assign(*self._restore.pop())

    def rebound(self) -> list[tuple[object, object, object]]:
        """(owner, key, original) for every alias the last install touched."""
        return list(self._restore)

    # ------------------------------------------------------------ results

    def per_op_metrics(self, op_ids) -> dict[str, float]:
        """Mean per op, over op_ids, of every per-layer metric."""
        op_ids = list(op_ids)
        wanted = set(op_ids)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        child_ns = defaultdict(int)
        cli_ix = self.names.index("cli.main")
        run_ix = self.names.index("protocols.run")
        runs_under_cli = 0
        for span in range(len(self.start) - 1, -1, -1):  # children come after parents
            if self.op_ix[span] not in wanted:
                continue
            duration = self.end[span] - self.start[span]
            ix = self.name_ix[span]
            calls[ix] += 1
            self_ns[ix] += duration - child_ns.pop(span, 0)
            if self.parent[span] >= 0:
                child_ns[self.parent[span]] += duration
            if ix == run_ix and self._has_ancestor(span, cli_ix):
                runs_under_cli += 1
        ops = len(op_ids)
        out: dict[str, float] = {}
        layer_ns: dict[str, int] = defaultdict(int)
        for ix, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[ix] / ops
            out[f"{name}.self_ms"] = self_ns[ix] / ops / 1e6
            layer_ns[self._layer_of[ix]] += self_ns[ix]
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_ns[layer] / ops / 1e6
        runs = [r for op in op_ids for r in self.run_outcomes.get(op, ())]
        out["transport.carriers"] = sum(self.carriers.get(op, 0) for op in op_ids) / ops
        out["protocols.completed_frac"] = (
            sum(done for done, _, _ in runs) / len(runs) if runs else 0.0
        )
        out["protocols.payload_bits_per_pair"] = (
            sum(bits for _, bits, _ in runs) / sum(pairs for _, _, pairs in runs)
            if runs else 0.0
        )
        out["cli.protocol_runs_per_op"] = runs_under_cli / ops
        return out

    def _has_ancestor(self, span: int, name_ix: int) -> bool:
        span = self.parent[span]
        while span >= 0:
            if self.name_ix[span] == name_ix:
                return True
            span = self.parent[span]
        return False

    def write_spans(self, path) -> int:
        """Write every span as gzip TSV; returns the number written."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for span in range(len(self.start)):
                handle.write(
                    f"{span}\t{self.op_ix[span]}\t{self.parent[span]}\t"
                    f"{self.names[self.name_ix[span]]}\t{self.start[span]}\t{self.end[span]}\n"
                )
        return len(self.start)
