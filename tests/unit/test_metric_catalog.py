"""Every metric name the code registers is in the metric catalog.

``docs/OBSERVABILITY.md`` ("Metric catalog") is where a reader looks up
what a snapshot can contain.  This test scans ``src/`` for the names
passed as string literals to ``.counter(``, ``.gauge(``, ``.histogram(``
and ``.family(``, and requires each to appear in the catalog in
backticks.  Names built with f-strings are checked by the pattern the
catalog documents them under (``FORMATTED``); a new formatted name fails
the test until it is documented and listed there.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
CATALOG = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")

CALL = re.compile(
    r"\.(?:counter|gauge|histogram|family)\(\s*(f?)([\"'])([^\"']+)\2")

_CACHE = ("`cache.{attrs,access,lookups}`", "`.{hits,misses,invalidations}`")

#: Formatted names in src -> the catalog text documenting them.
FORMATTED = {
    "cache.{name}.hits": _CACHE,
    "cache.{name}.misses": _CACHE,
    "cache.{name}.invalidations": _CACHE,
    "control.slo.{spec.name}": ("`control.slo.<name>`",),
    "control.slo.{spec.name}.healthy": ("`control.slo.<name>.healthy`",),
    "fastlane.{group}.{key}": (
        "`fastlane.arc4.{libcrypto,pyblock,reference}_bytes`",
        "`fastlane.sha1.reference_bytes`",
        "`fastlane.marshal.*`",
        "`fastlane.modexp.{libcrypto,builtin}_calls`",
    ),
    "fleet.replica.{key}": tuple(
        f"`fleet.replica.{key}`"
        for key in ("fetches", "failovers", "demotions", "bans",
                    "corrupt_blobs", "backoff_waits")
    ),
    "nfs3.ops.{name.lower()}": ("`nfs3.ops.<proc>`",),
    "nfs3.errors.{name.lower()}": ("`nfs3.errors.<proc>`",),
    # ScopedRegistry prefixing whatever name it is handed.
    "{self.prefix}.{name}": (),
}

#: Literal names registered on a scoped registry -> their full pattern.
SCOPED = {"calls": "`rpc.peer.<name>.calls`"}

#: Names the load driver and its topologies register; the catalog test
#: is what keeps a refactor of the driver from renaming them.
LOAD_METRICS = {"load.op_seconds", "load.think_scale", "fleet.op_seconds",
                "fleet.shard.ops"}


def registered_names() -> tuple[dict, dict]:
    literal: dict[str, list[str]] = {}
    formatted: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for match in CALL.finditer(path.read_text(encoding="utf-8")):
            target = formatted if match.group(1) else literal
            target.setdefault(match.group(3), []).append(where)
    return literal, formatted


def test_every_literal_metric_name_is_catalogued():
    literal, _formatted = registered_names()
    assert len(literal) > 100, "the scan stopped finding metric names"
    assert LOAD_METRICS <= set(literal)
    missing = {
        name: files for name, files in literal.items()
        if SCOPED.get(name, f"`{name}`") not in CATALOG
    }
    assert not missing, f"not in docs/OBSERVABILITY.md: {missing}"


def test_every_formatted_metric_name_has_a_catalogued_pattern():
    _literal, formatted = registered_names()
    unknown = {name: files for name, files in formatted.items()
               if name not in FORMATTED}
    assert not unknown, f"formatted metric names to document: {unknown}"
    missing = {name: [text for text in FORMATTED[name]
                      if text not in CATALOG]
               for name in formatted}
    assert not any(missing.values()), f"catalog lacks: {missing}"
