"""Compile a fitted run's accepted features into a :class:`FeaturePlan`.

Strategy: **rebuild and verify**.  Starting from the *original* input
frame (the fitted result drops some originals, so its frame cannot seed
the rebuild), each accepted feature is compiled to an expression
template, frozen against the rebuild state at its install point (fit-time
statistics — means, quantile edges, group tables, dummy categories — are
captured as constants), evaluated, and compared **bitwise** against the
fitted frame's columns.  Only a feature whose replay is value-, dtype-,
and missingness-identical ships as ``compiled``; a mismatch or an
unrepresentable form falls back to carrying the sandbox source (itself
verified the same way), and anything else is recorded as ``omitted`` with
a reason.  The fitted outputs are installed into the rebuild either way,
so later features always freeze against the exact state fit saw.

Templates come from the same code generator that emitted the sources
(:func:`repro.fm.codegen.generate_transform_expr`); the three forms whose
sources embed run-specific literals (knowledge mappings, bucket edges,
group specs) are lifted from the accepted source via ``ast`` instead, so
the plan reproduces what actually ran, not what would be regenerated.
"""

from __future__ import annotations

import ast
import json
from typing import Any

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe.expr import (
    ExprError,
    evaluate_feature,
    expr_columns,
    freeze_expr,
)
from repro.dataframe.frame import DataFrame
from repro.dataframe.series import Series
from repro.serve.plan import FeaturePlan, FeatureSpec, column_kind

__all__ = ["compile_plan", "frames_identical", "series_identical"]

#: Marker the pipeline stamps on features materialised by per-row FM
#: completion rather than generated code.
_ROW_LEVEL_SENTINEL = "<row-level FM completion>"

_JSON_SCALARS = (str, int, float, bool)


# ----------------------------------------------------------------------
# Bitwise comparison
# ----------------------------------------------------------------------
def series_identical(a: Series, b: Series) -> bool:
    """True when two Series match in dtype, missingness, and every value."""
    if len(a) != len(b) or a.dtype != b.dtype:
        return False
    va, vb = a.values, b.values
    if va.dtype.kind == "f":
        return bool(np.array_equal(va, vb, equal_nan=True))
    if va.dtype == object:
        for x, y in zip(va, vb):
            mx = _kernels.is_missing_scalar(x)
            if mx != _kernels.is_missing_scalar(y):
                return False
            if mx:
                continue
            if type(x) is not type(y) or x != y:
                return False
        return True
    return bool(np.array_equal(va, vb))


def frames_identical(a: DataFrame, b: DataFrame) -> tuple[bool, str]:
    """Column-for-column bitwise identity; returns ``(ok, first difference)``."""
    if a.columns != b.columns:
        return False, f"column sets differ: {a.columns} vs {b.columns}"
    for name in a.columns:
        if not series_identical(a[name], b[name]):
            return False, f"column {name!r} differs (dtype/values/missingness)"
    return True, ""


# ----------------------------------------------------------------------
# AST lifting for literal-bearing sources
# ----------------------------------------------------------------------
def _literal(node: ast.AST) -> Any:
    return ast.literal_eval(node)


def _lift_knowledge_map(source: str) -> dict | None:
    """Recover ``{lookup dict, mapped column, fillna default}`` from source.

    The knowledge mapping was built from FM-time column values the fitted
    result does not retain, so regeneration could diverge; the accepted
    source is the ground truth.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    lookup = column = default = None
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "lookup"
            and isinstance(node.value, ast.Dict)
        ):
            try:
                lookup = _literal(node.value)
            except ValueError:
                return None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fillna"
            and len(node.args) == 1
        ):
            try:
                default = _literal(node.args[0])
            except ValueError:
                return None
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "df"
            and isinstance(node.slice, ast.Constant)
        ):
            column = node.slice.value
    if lookup is None or column is None or default is None:
        return None
    return {
        "op": "fillna",
        "arg": {
            "op": "dict_map",
            "column": column,
            "keys": list(lookup),
            "values": list(lookup.values()),
        },
        "value": default,
    }


def _lift_bucketization(source: str) -> dict | None:
    """Recover the cut edges (or the qcut fallback) the source embeds."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    edges = column = None
    qcut = None
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "edges"
        ):
            try:
                edges = _literal(node.value)
            except ValueError:
                return None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "pd"
            and node.func.attr == "qcut"
        ):
            try:
                q = _literal(node.args[1])
                labels = next(
                    (_literal(kw.value) for kw in node.keywords if kw.arg == "labels"),
                    None,
                )
            except (ValueError, IndexError):
                return None
            qcut = (q, labels)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "df"
            and isinstance(node.slice, ast.Constant)
        ):
            column = node.slice.value
    if column is None:
        return None
    if edges is not None:
        return {
            "op": "cut",
            "column": column,
            "edges": [float(e) for e in edges],
            "labels": list(range(len(edges) - 1)),
            "right": True,
        }
    if qcut is not None:
        q, labels = qcut
        return {"op": "fit_qcut", "column": column, "q": q, "labels": labels}
    return None


def _lift_groupby(source: str) -> dict | None:
    """Recover ``(group keys, agg column, function)`` from a transform call."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "transform"
            and len(node.args) == 1
        ):
            continue
        sub = node.func.value  # df.groupby(keys)[agg_col]
        if not (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Call)):
            continue
        groupby_call = sub.value
        if not (
            isinstance(groupby_call.func, ast.Attribute)
            and groupby_call.func.attr == "groupby"
            and len(groupby_call.args) == 1
        ):
            continue
        try:
            keys = _literal(groupby_call.args[0])
            agg_col = _literal(sub.slice)
            func = _literal(node.args[0])
        except ValueError:
            continue
        if isinstance(keys, str):
            keys = [keys]
        return {
            "op": "fit_group_table",
            "keys": list(keys),
            "agg_col": agg_col,
            "agg": func,
        }
    return None


# ----------------------------------------------------------------------
# Per-feature compilation
# ----------------------------------------------------------------------
def _row_level_template(feature, rebuild: DataFrame, expected: dict[str, Series]):
    """Freeze a small row-level FM completion as an exact input→output map."""
    if len(feature.input_columns) != 1 or len(feature.output_columns) != 1:
        raise ExprError("row-level completion reads multiple columns")
    column = feature.input_columns[0]
    if column not in rebuild:
        raise ExprError(f"row-level input column {column!r} unavailable at serve time")
    outputs = expected[feature.output_columns[0]].tolist()
    mapping: dict = {}
    for key, value in zip(rebuild[column].tolist(), outputs):
        if _kernels.is_missing_scalar(key):
            if value is not None:
                raise ExprError("completion is not missing-preserving")
            continue
        if not isinstance(key, _JSON_SCALARS):
            raise ExprError(f"completion key {key!r} is not a JSON scalar")
        if value is not None and not isinstance(value, _JSON_SCALARS):
            raise ExprError(f"completion value {value!r} is not a JSON scalar")
        if key in mapping:
            if mapping[key] != value or type(mapping[key]) is not type(value):
                raise ExprError("completion is not a function of the input column")
        else:
            mapping[key] = value
    return {
        "op": "dict_map",
        "column": column,
        "keys": list(mapping),
        "values": list(mapping.values()),
    }


def _template_for(feature, rebuild: DataFrame, expected, knowledge) -> dict | None:
    from repro.fm.codegen import generate_transform_expr, parse_op_tag

    if feature.source_code == _ROW_LEVEL_SENTINEL:
        return _row_level_template(feature, rebuild, expected)
    op, _ = parse_op_tag(feature.description)
    if op == "knowledge_map":
        return _lift_knowledge_map(feature.source_code)
    if op == "bucketization":
        return _lift_bucketization(feature.source_code)
    if op == "groupby":
        return _lift_groupby(feature.source_code)
    return generate_transform_expr(
        feature.name, list(feature.input_columns), feature.description, knowledge
    )


def _evaluate_outputs(
    template: dict, rebuild: DataFrame, output_columns: list[str]
) -> tuple[dict, dict[str, Series]]:
    """Freeze + evaluate a template; returns ``(frozen expr, outputs)``."""
    missing = [c for c in expr_columns(template) if c not in rebuild]
    if missing:
        raise ExprError(f"expression reads columns absent at serve time: {missing}")
    frozen = freeze_expr(template, rebuild)
    result = evaluate_feature(frozen, rebuild)
    if isinstance(result, Series):
        if len(output_columns) != 1:
            raise ExprError("expression yields one column, feature has several")
        return frozen, {output_columns[0]: result}
    out = {}
    for name in output_columns:
        if name not in result:
            raise ExprError(f"expression did not produce output column {name!r}")
        out[name] = result[name]
    return frozen, out


def _verify_sandbox(feature, rebuild: DataFrame) -> dict[str, Series] | None:
    """Replay the original source on the rebuild; None when it fails."""
    from repro.core.sandbox import SandboxViolation, TransformError, run_transform

    try:
        result = run_transform(feature.source_code, rebuild)
    except (TransformError, SandboxViolation):
        return None
    if isinstance(result, Series):
        if len(feature.output_columns) != 1:
            return None
        return {feature.output_columns[0]: result}
    out = {}
    for name in feature.output_columns:
        if name not in result:
            return None
        out[name] = result[name]
    return out


def _family_name(family: Any) -> str:
    return getattr(family, "value", None) or str(family)


def compile_plan(
    result,
    frame: DataFrame,
    target: str,
    knowledge=None,
    metadata: dict | None = None,
) -> FeaturePlan:
    """Compile a fitted *result* (over original *frame*) into a FeaturePlan.

    *frame* must be the frame ``fit_transform`` was called with — the
    rebuild starts from it, so the compiler needs the original columns the
    fitted result may have dropped.
    """
    from repro.fm.knowledge import default_knowledge

    knowledge = knowledge if knowledge is not None else default_knowledge()
    input_columns = frame.columns
    input_schema = [
        (name, column_kind(frame[name])) for name in input_columns if name != target
    ]
    rebuild = frame.column_view(input_columns)
    specs: list[FeatureSpec] = []
    for feature in result.new_features.values():
        expected: dict[str, Series] = {}
        reason = ""
        for name in feature.output_columns:
            if name not in result.frame:
                reason = f"output column {name!r} missing from fitted frame"
                break
            expected[name] = result.frame[name]
        spec = None
        if not reason:
            spec = _compile_feature(feature, rebuild, expected, knowledge)
        else:
            spec = _spec(feature, "omitted", reason=reason)
        specs.append(spec)
        # Install the *fitted* outputs regardless of compile status so
        # later features freeze against the exact state fit saw.
        for name, series in expected.items():
            rebuild[name] = series
    plan = FeaturePlan(
        input_columns=input_columns,
        input_schema=input_schema,
        target=target,
        features=specs,
        drop_columns=list(result.dropped),
        metadata=dict(metadata or {}),
    )
    counts = plan.counts()
    plan.metadata.setdefault("compile", {}).update(
        {
            "n_features": len(specs),
            **counts,
            "omitted_features": [
                {"name": s.name, "reason": s.reason}
                for s in specs
                if s.status == "omitted"
            ],
        }
    )
    return plan


def _spec(
    feature, status: str, expr=None, fallback_source=None, reason="", expected=None
) -> FeatureSpec:
    # Freeze the fitted outputs' schema kinds alongside the recipe so the
    # serve-path watchdog can sanity-check what a fallback returns.
    kinds = None
    if expected is not None and all(n in expected for n in feature.output_columns):
        kinds = [column_kind(expected[n]) for n in feature.output_columns]
    return FeatureSpec(
        name=feature.name,
        family=_family_name(feature.family),
        description=feature.description,
        input_columns=list(feature.input_columns),
        output_columns=list(feature.output_columns),
        status=status,
        expr=expr,
        fallback_source=fallback_source,
        reason=reason,
        output_kinds=kinds,
    )


def _compile_feature(feature, rebuild, expected, knowledge) -> FeatureSpec:
    reason = ""
    try:
        template = _template_for(feature, rebuild, expected, knowledge)
    except ExprError as exc:
        template, reason = None, str(exc)
    if template is not None:
        try:
            frozen, outputs = _evaluate_outputs(
                template, rebuild, list(feature.output_columns)
            )
            if all(
                series_identical(outputs[name], expected[name]) for name in expected
            ):
                json.dumps(frozen)  # plans must round-trip; reject exotic scalars
                return _spec(feature, "compiled", expr=frozen, expected=expected)
            reason = "compiled replay not bit-identical to fitted output"
        except ExprError as exc:
            reason = str(exc)
        except (TypeError, ValueError) as exc:
            reason = f"expression not serializable: {exc}"
    elif not reason:
        reason = "no expression template for this form"
    # Fall back to the sandbox source — but only if replaying it on the
    # rebuild reproduces the fitted output (and it is real source at all).
    if feature.source_code and feature.source_code != _ROW_LEVEL_SENTINEL:
        outputs = _verify_sandbox(feature, rebuild)
        if outputs is not None and all(
            series_identical(outputs[name], expected[name]) for name in expected
        ):
            return _spec(
                feature,
                "fallback",
                fallback_source=feature.source_code,
                reason=reason,
                expected=expected,
            )
        reason = f"{reason}; sandbox replay also diverged".lstrip("; ")
    return _spec(feature, "omitted", reason=reason)
