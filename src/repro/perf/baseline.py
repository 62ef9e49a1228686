"""Baseline regression gate: verdicts for a trajectory vs ``baseline.json``.

The committed baseline is a normal trajectory payload plus a per-experiment
``tolerances`` map.  Comparison is noise-aware on two axes:

- **median-of-repeats** — each side's central value ignores one-off stalls;
- **calibration normalization** — when both environments carry
  ``calibration_seconds`` (see :mod:`repro.perf.environment`), medians are
  divided by it first, so a uniformly faster/slower machine cancels out of
  the ratio and only code-relative slowdowns remain.

Wall-time gating is per experiment: ratio ≤ ~1 is ``ok``, ratio within the
experiment's tolerance is ``slower`` (pass, but reported), beyond it is a
``regression``.  On top of wall time, :data:`METRIC_GATES` guards the
invariant counters — ``apsp_run_count``, ``full_apsp_refresh_count``,
``span_excess`` and ``lk_kicks`` must not grow, ``cache_hit_rate`` must
not fall — so a future PR cannot give back the oracle, cache,
incremental-repair, answer-quality or certified-stop wins while staying
inside the timing noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.perf.schema import PerfRecord, Trajectory

#: Current/baseline normalized-median ratio above which an experiment fails.
#: Must stay < 2.0: the acceptance gate is "an injected 2x slowdown fails".
DEFAULT_TOLERANCE = 1.8

#: Ratios up to this are ``ok`` (pure noise); above it but within tolerance
#: they are reported as ``slower``.
_NOISE_FLOOR = 1.15

#: Counter metrics gated by direction, not ratio: ``max`` means the current
#: value may not exceed baseline + slack, ``min`` means it may not fall
#: below baseline - slack, ``floor`` means the current value must reach the
#: stated absolute threshold (baseline-independent — the threshold *is* the
#: acceptance criterion, not a drift bound), and ``ceiling`` means the
#: current value may exceed neither the stated absolute threshold nor the
#: committed baseline by more than :data:`_CEILING_DRIFT` (both at once:
#: the threshold is the acceptance criterion, the baseline check keeps a
#: good value from quietly eroding back up to it).
METRIC_GATES: dict[str, tuple[str, float]] = {
    "apsp_run_count": ("max", 0.0),
    "cache_hit_rate": ("min", 0.02),
    # the dynamic engine may never abandon more incremental repairs per
    # churn stream than the committed baseline records
    "full_apsp_refresh_count": ("max", 0.0),
    # result-cache lock contention per operation (SERVICE scenario): the
    # slack absorbs scheduler noise, but a design change that reintroduces
    # a global-lock hot spot fails here, not in the timing noise
    "shard_lock_wait": ("max", 0.05),
    # the worker pool's raison d'être: 4 serving workers must beat
    # 1 by >= 2x on the cold-only stream.  Enforced only where physically
    # measurable — the record's own ``effective_cpus`` must be >= 4 (the
    # CI pool-scaling leg); a pinned single-core run reports its honest
    # ~1.0 and the floor is skipped, never faked
    "workers_speedup_4": ("floor", 2.0),
    # blocked-oracle residency (ORACLE scaling legs): at fixed n the
    # row-block LRU's byte high-water mark may never rise — a consumer
    # regressing to a dense gather fails here long before it times out —
    # and the block hit rate may never fall below baseline - slack
    "oracle_peak_bytes": ("max", 0.0),
    "row_block_hit_rate": ("min", 0.02),
    # degraded tier quality (QOS scenario): the worst certified
    # span/lower_bound ratio over the deterministic payload pool.  The
    # 1.5 absolute ceiling is the acceptance criterion; the
    # baseline-relative check below it means the ratio may never worsen
    # even while comfortably under the ceiling
    "approx_ratio": ("ceiling", 1.5),
    # the ``auto`` solve over a reduction leg (SOLVE scenario): the summed
    # span excess over the golden optima may never grow, and neither may
    # the LK kicks it took — a deterministic work count, so a change that
    # kicks more fails here even when the extra time hides in the noise
    "span_excess": ("max", 0.0),
    "lk_kicks": ("max", 0.0),
}

#: ``floor``-gated metrics are only enforceable when the measuring run had
#: the cores to show scaling; below this effective-CPU count the floor is
#: skipped (the metric is still recorded and still must be present).
_FLOOR_MIN_CPUS = 4

#: Baseline-relative allowance for ``ceiling``-gated metrics: the current
#: value may sit this far above the committed baseline before it counts as
#: erosion.  The certified ratio is deterministic over a fixed payload
#: pool, so this only needs to absorb pool re-seeds, not measurement noise.
_CEILING_DRIFT = 0.05

#: Verdict statuses that do NOT fail the comparison.
PASSING = frozenset({"ok", "slower", "new", "skipped"})


def _check_tolerance(name: str, tol: float) -> float:
    """Tolerances must keep the acceptance invariant: a 2x slowdown fails.

    The lower bound rejects typos (a tolerance <= 1.0 would flag pure
    noise as regression); the upper bound keeps "injected >=2x slowdown
    exits non-zero" a property of the system, not a convention.
    """
    tol = float(tol)
    if not 1.0 < tol < 2.0:
        raise ReproError(
            f"tolerance for {name!r} must be in (1.0, 2.0), got {tol}"
        )
    return tol


@dataclass(frozen=True)
class Verdict:
    """One experiment's comparison outcome."""

    experiment: str
    status: str  # ok | slower | regression | metric-regression | new | skipped | no-overlap
    detail: str
    ratio: float | None = None

    @property
    def passed(self) -> bool:
        """Whether this verdict's status is non-failing."""
        return self.status in PASSING

    def to_json(self) -> dict:
        """JSON form of the verdict (ratio included when present)."""
        out = {
            "experiment": self.experiment,
            "status": self.status,
            "detail": self.detail,
        }
        if self.ratio is not None:
            out["ratio"] = round(self.ratio, 3)
        return out


@dataclass
class ComparisonReport:
    """Every per-experiment verdict plus the aggregate gate.

    ``warnings`` carries non-failing environment caveats — today the
    calibration-affinity mismatch (baseline and run measured on different
    CPU counts) — rendered as WARN lines so a drifting ratio is read with
    the right suspicion instead of silently trusted.
    """

    verdicts: list[Verdict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every experiment's verdict passed (warnings don't fail)."""
        return all(v.passed for v in self.verdicts)

    def render(self) -> str:
        """Human-readable PASS/FAIL listing plus the aggregate gate line."""
        lines = [f"[WARN] {w}" for w in self.warnings]
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            ratio = f" ({v.ratio:.2f}x)" if v.ratio is not None else ""
            lines.append(f"[{mark}] {v.experiment}: {v.status}{ratio} — {v.detail}")
        failed = [v.experiment for v in self.verdicts if not v.passed]
        lines.append(
            "perf gate: PASS" if not failed else f"perf gate: FAIL ({', '.join(failed)})"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON form: the aggregate flag plus every verdict and warning."""
        return {
            "passed": self.passed,
            "warnings": list(self.warnings),
            "verdicts": [v.to_json() for v in self.verdicts],
        }


def _calibration(environment: dict) -> float | None:
    """The environment's calibration seconds, if present and positive."""
    cal = environment.get("calibration_seconds")
    if isinstance(cal, (int, float)) and cal > 0:
        return float(cal)
    return None


def normalized_median(record: PerfRecord, environment: dict) -> float:
    """Median wall time divided by the environment's calibration (if any).

    Only meaningful for comparison when *both* sides are normalized the
    same way — :func:`compare` applies calibration only when both
    environments carry it, falling back to raw seconds otherwise.
    """
    cal = _calibration(environment)
    return record.median_seconds / cal if cal else record.median_seconds


def _compare_metrics(cur: PerfRecord, base: PerfRecord) -> list[str]:
    """Violation descriptions for the gated metrics.

    A gated metric the baseline has but the current record dropped is
    itself a violation — otherwise renaming/removing ``apsp_run_count``
    would silently disarm the invariant gate.
    """
    violations = []
    for name, (direction, slack) in METRIC_GATES.items():
        if name not in base.metrics:
            continue
        if name not in cur.metrics:
            violations.append(f"gated metric {name} missing from current record")
            continue
        c, b = cur.metrics[name], base.metrics[name]
        if direction == "max" and c > b + slack:
            violations.append(f"{name} rose {b:g} -> {c:g}")
        elif direction == "min" and c < b - slack:
            violations.append(f"{name} fell {b:g} -> {c:g}")
        elif direction == "floor":
            cpus = cur.metrics.get("effective_cpus", 0)
            if cpus >= _FLOOR_MIN_CPUS and c < slack:
                violations.append(
                    f"{name} {c:g} below required floor {slack:g} "
                    f"(effective_cpus={cpus:g})"
                )
        elif direction == "ceiling":
            if c > slack:
                violations.append(
                    f"{name} {c:g} above absolute ceiling {slack:g}"
                )
            elif c > b + _CEILING_DRIFT:
                violations.append(
                    f"{name} worsened {b:g} -> {c:g} "
                    f"(drift allowance {_CEILING_DRIFT:g})"
                )
    return violations


def compare(
    current: Trajectory,
    baseline: Trajectory,
    tolerances: dict[str, float] | None = None,
    default_tolerance: float = DEFAULT_TOLERANCE,
) -> ComparisonReport:
    """Gate ``current`` against ``baseline``, experiment by experiment.

    Experiments only in ``current`` are ``new`` (pass).  Experiments only in
    ``baseline`` are ``skipped`` (pass, but reported): the committed baseline
    is a union of quick and full records, and any single run — the quick CI
    leg or the full local sweep — legitimately covers a subset of it.
    """
    tolerances = tolerances or {}
    report = ComparisonReport()
    # calibration_seconds is measured under the machine's *current* CPU
    # affinity; when the core count changed between the baseline run and
    # this one, normalization no longer cancels machine speed for the
    # multi-core scenarios and every ratio deserves suspicion
    for key in ("cpu_count", "logical_cpu_count"):
        b_val = baseline.environment.get(key)
        c_val = current.environment.get(key)
        if b_val is not None and c_val is not None and b_val != c_val:
            report.warnings.append(
                f"calibration mismatch: {key} changed {b_val} -> {c_val} "
                "between baseline and this run; normalized ratios may "
                "drift — re-baseline on this machine if verdicts look off"
            )
    cur_map = current.record_map()
    base_map = baseline.record_map()
    # calibration cancels machine speed only if BOTH sides carry it;
    # mixing a calibrated side with a raw one would skew ratios ~1/cal
    use_cal = (
        _calibration(baseline.environment) is not None
        and _calibration(current.environment) is not None
    )

    for name, base_rec in base_map.items():
        if name not in cur_map:
            report.verdicts.append(
                Verdict(
                    experiment=name,
                    status="skipped",
                    detail=f"in baseline but not in this {current.kind} trajectory",
                )
            )
            continue
        cur_rec = cur_map[name]
        base_norm = (
            normalized_median(base_rec, baseline.environment)
            if use_cal else base_rec.median_seconds
        )
        cur_norm = (
            normalized_median(cur_rec, current.environment)
            if use_cal else cur_rec.median_seconds
        )
        metric_violations = _compare_metrics(cur_rec, base_rec)
        if base_norm <= 0:
            # wall gate is meaningless, but the counter gates still apply
            report.verdicts.append(
                Verdict(name, "metric-regression", "; ".join(metric_violations))
                if metric_violations
                else Verdict(name, "ok", "baseline median is zero; wall gate skipped")
            )
            continue
        ratio = cur_norm / base_norm
        tol = float(tolerances.get(name, default_tolerance))
        if metric_violations:
            status, detail = "metric-regression", "; ".join(metric_violations)
        elif ratio <= min(_NOISE_FLOOR, tol):
            # a tolerance tighter than the noise floor is still honored
            status, detail = "ok", f"within noise floor {min(_NOISE_FLOOR, tol):.2f}x"
        elif ratio <= tol:
            status, detail = "slower", f"within tolerance {tol:.2f}x"
        else:
            status, detail = "regression", (
                f"normalized median {cur_norm:.4f} vs baseline {base_norm:.4f}, "
                f"tolerance {tol:.2f}x"
            )
        report.verdicts.append(Verdict(name, status, detail, ratio=ratio))

    for name in cur_map:
        if name not in base_map:
            report.verdicts.append(
                Verdict(name, "new", "not in baseline; record with `perf baseline`")
            )
    if not set(cur_map) & set(base_map):
        # all-skipped + all-new would "pass" while gating nothing — a
        # renamed/resized scenario must not silently disarm the gate
        report.verdicts.append(
            Verdict(
                experiment="(overlap)",
                status="no-overlap",
                detail=(
                    "current trajectory and baseline share no experiments; "
                    "refresh the baseline with `perf baseline`"
                ),
            )
        )
    return report


# ---------------------------------------------------------------------------
# Baseline file I/O
# ---------------------------------------------------------------------------
def baseline_payload(
    trajectory: Trajectory, tolerances: dict[str, float] | None = None
) -> dict:
    """The committed-baseline JSON: trajectory + explicit per-experiment
    tolerances (visible and hand-editable in review)."""
    data = trajectory.to_json()
    data["tolerances"] = {
        rec.experiment: _check_tolerance(
            rec.experiment,
            (tolerances or {}).get(rec.experiment, DEFAULT_TOLERANCE),
        )
        for rec in trajectory.records
    }
    return data


def write_baseline(
    trajectory: Trajectory,
    path: str | Path,
    tolerances: dict[str, float] | None = None,
    merge: bool = True,
) -> Path:
    """Write (by default: merge) ``trajectory`` into the baseline at ``path``.

    The committed baseline is a *union* of quick and full records, and no
    single run covers all of it — a full run never produces the quick-size
    records the CI perf-gate compares against.  Merging keeps the records
    (and tolerances) the promoted trajectory doesn't cover, so the
    ROADMAP's refresh workflow (`make perf` + `perf baseline`) cannot
    silently disarm the quick gate.  ``merge=False`` starts over.
    """
    if trajectory.kind == "bench":
        raise ReproError(
            "cannot promote a kind='bench' trajectory (per-test pytest "
            "recordings are uncalibrated and their nodeids would pollute "
            "the baseline); promote a `perf run` trajectory instead"
        )
    if _calibration(trajectory.environment) is None:
        raise ReproError(
            "cannot promote an uncalibrated trajectory: without "
            "calibration_seconds the merged baseline would gate raw "
            "machine-dependent seconds"
        )
    out = Path(path)
    trajectory, tolerances = (
        _merged(out, trajectory, tolerances) if merge and out.exists()
        else (trajectory, tolerances)
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(baseline_payload(trajectory, tolerances), indent=2) + "\n")
    return out


def _merged(
    path: Path, new: Trajectory, tolerances: dict[str, float] | None
) -> tuple[Trajectory, dict[str, float]]:
    """Merge a promoted trajectory into the existing baseline file."""
    old, old_tol = load_baseline(path)
    # the merged file carries ONE environment (the new one), so records kept
    # from the old baseline must be rescaled from the old machine's
    # calibration to the new one — otherwise their seconds would later be
    # normalized by the wrong calibration and the gate would drift by the
    # machines' speed ratio.  Without calibration on both sides the raw
    # seconds are kept (the comparator falls back to raw in that case too).
    old_cal, new_cal = _calibration(old.environment), _calibration(new.environment)
    scale = new_cal / old_cal if old_cal and new_cal else 1.0
    records = {
        r.experiment: PerfRecord(
            r.experiment, tuple(w * scale for w in r.wall_seconds), dict(r.metrics)
        )
        for r in old.records
    }
    records.update(new.record_map())  # promoted records win on shared names
    merged_tol = dict(old_tol)
    merged_tol.update(tolerances or {})
    return (
        Trajectory(
            environment=new.environment,
            records=list(records.values()),
            kind=new.kind if new.kind == old.kind else "full",
        ),
        merged_tol,
    )


def load_baseline(path: str | Path) -> tuple[Trajectory, dict[str, float]]:
    """Parse a baseline file into its trajectory and tolerance map."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read baseline {path}: {exc}") from exc
    trajectory = Trajectory.from_json(data)
    raw = data.get("tolerances", {})
    if not isinstance(raw, dict):
        raise ReproError(f"baseline {path}: tolerances must be an object")
    return trajectory, {
        str(k): _check_tolerance(str(k), v) for k, v in raw.items()
    }
