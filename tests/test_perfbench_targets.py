"""The benchmark's span recorder finds what it wraps.

``perfbench/spans.py`` wraps program functions at the module attribute
where their caller looks them up.  A refactor that moves or renames one
leaves the recorder nothing to wrap, and the per-layer metrics read from
it silently fall to 0, so every target must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# listed by the benchmark, gone from the program since basis-free predicates
# and index-tuple re-validation landed; the benchmark's next revision drops them
KNOWN_MISSING = {
    "zerosum.inverse.enumerate_bases_2x2n",
    "zerosum.inverse.oracle_has_weighted_zero_of_length",
}


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    targets = _span_targets()
    missing = set()
    for module_name, attr, *_ in targets:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.add(f"{module_name}.{attr}")
    assert missing == KNOWN_MISSING
    assert len(targets) > len(KNOWN_MISSING)


def test_the_census_target_is_the_engine_census():
    # the recorder wraps the census where ``inverse`` looks it up, and that
    # name is the engine's one census function, not a wrapper or an alias
    import zerosum.engine
    import zerosum.inverse

    assert zerosum.inverse.failing_census is zerosum.engine.failing_census
