"""Per-layer metrics from one traced run's spans.

Times ending in `_s` are either self time (the span's duration minus the part
its traced children cover) or inclusive time (the whole span), as marked in
the tables below.  A metric whose traced function the package no longer has
reads 0 and is listed as absent; a function the workload never calls also
reads 0 but is not absent.
"""

from __future__ import annotations

from collections import defaultdict

FWD = "grid.forward_transform"
INV = "grid.inverse_transform"
DUHAMEL = "linear._duhamel_spectral"
SOLVE_NLS = "nonlinear.solve_nls_multipoint"
SMALLNESS = "nonlinear.smallness_indicator"
WRITE_REPORT = "cli.write_report"

# metric -> (aggregate, traced functions): call count, self time or inclusive time.
SIMPLE = {
    "cli.parse_s": ("incl", ["cli.parse_config"]),
    "cli.runtime_s": ("incl", ["cli._build_runtime"]),
    "cli.report_s": ("incl", [WRITE_REPORT]),
    "grid.fwd_calls": ("count", [FWD]),
    "grid.inv_calls": ("count", [INV]),
    "grid.transform_s": ("self", [FWD, INV]),
    "linear.duhamel_calls": ("count", [DUHAMEL]),
    "linear.duhamel_s": ("self", [DUHAMEL]),
    "linear.solve_s": ("self", ["linear.solve_linear_multipoint"]),
    "linear.verify_s": ("self", ["linear.verify_strichartz"]),
    "linear.denominator_calls": ("count", ["linear.multipoint_denominator"]),
    "linear.lattice_calls": ("count", ["linear.symbol_lattice"]),
    "linear.residual_s": ("incl", ["linear.multipoint_residual"]),
    "nonlinear.smallness_s": ("incl", [SMALLNESS]),
    "norms.energy_calls": ("count", ["norms.energy"]),
    "norms.energy_s": ("self", ["norms.energy"]),
    "norms.sobolev_calls": ("count", ["norms.sobolev_norm"]),
    "norms.sobolev_s": ("self", ["norms.sobolev_norm"]),
    "norms.mixed_calls": ("count", ["norms.mixed_norm"]),
    "norms.mixed_s": ("self", ["norms.mixed_norm"]),
    "norms.lebesgue_calls": ("count", ["norms.lebesgue_norm"]),
    "norms.lebesgue_s": ("self", ["norms.lebesgue_norm"]),
    "norms.strichartz_s": ("incl", ["norms.strichartz_norm"]),
    "symbol.validate_s": ("incl", ["symbol.validate_symbol"]),
}

# Metrics computed from span structure, with the functions each one needs.
DERIVED = {
    "cli.csv_fft": [FWD, INV, WRITE_REPORT],
    "grid.bytes_computed": [FWD, INV],
    "grid.loop_fft_share": [FWD, INV, SOLVE_NLS, SMALLNESS],
    "nonlinear.iterations": [],
    "nonlinear.phi_calls": [DUHAMEL, SOLVE_NLS],
    "nonlinear.phi_useful": [DUHAMEL, SOLVE_NLS],
    "nonlinear.loop_s": [SOLVE_NLS, SMALLNESS],
    "nonlinear.post_s": [SOLVE_NLS, SMALLNESS],
}


class _Spans:
    def __init__(self, trace: dict):
        self.names = trace["names"]
        self.spans = trace["spans"]
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.by_name = defaultdict(list)
        for i, (k, start, end, _) in enumerate(self.spans):
            name = self.names[k]
            self.count[name] += 1
            self.incl_s[name] += end - start
            self.self_s[name] += end - start - child[i]
            self.by_name[name].append(i)

    def aggregate(self, how: str, labels: list[str]) -> float:
        table = {"count": self.count, "self": self.self_s, "incl": self.incl_s}[how]
        return sum(table[label] for label in labels)

    def under(self, i: int, ancestor: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.names[self.spans[parent][0]] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def first(self, name: str, under: str | None = None):
        """Index of the first `name` span, optionally the first below an `under` span."""
        return next((i for i in self.by_name[name] if under is None or self.under(i, under)), None)


def layer_metrics(trace: dict, frame_bytes: int, iterations: int) -> tuple[dict, list[str]]:
    """({metric: value}, [absent metrics]) for one traced run.

    frame_bytes is Nⁿ·16, the size of one complex frame; iterations is the
    length of the report's d_history.
    """
    sp = _Spans(trace)
    missing = set(trace["absent"])
    out = {name: sp.aggregate(how, labels) for name, (how, labels) in SIMPLE.items()}

    transforms = sp.by_name[FWD] + sp.by_name[INV]
    out["cli.csv_fft"] = sum(1 for i in transforms if sp.under(i, WRITE_REPORT))
    out["grid.bytes_computed"] = len(transforms) * frame_bytes * 2
    out["nonlinear.iterations"] = iterations
    phi_calls = sum(1 for i in sp.by_name[DUHAMEL] if sp.under(i, SOLVE_NLS))
    out["nonlinear.phi_calls"] = phi_calls
    out["nonlinear.phi_useful"] = iterations / phi_calls if phi_calls else 0.0
    out["grid.loop_fft_share"] = 0.0
    out["nonlinear.loop_s"] = out["nonlinear.post_s"] = 0.0
    small = sp.first(SMALLNESS, under=SOLVE_NLS)
    if small is not None:
        _, solve_start, solve_end, _ = sp.spans[sp.first(SOLVE_NLS)]
        small_start = sp.spans[small][1]
        in_loop = sum(1 for i in transforms if solve_start <= sp.spans[i][1] < small_start)
        out["grid.loop_fft_share"] = in_loop / len(transforms)
        out["nonlinear.loop_s"] = small_start - solve_start
        out["nonlinear.post_s"] = solve_end - small_start

    absent = sorted(name for name, (_, labels) in SIMPLE.items() if missing.intersection(labels))
    absent += sorted(name for name, labels in DERIVED.items() if missing.intersection(labels))
    for name in absent:
        out[name] = 0
    return out, absent
