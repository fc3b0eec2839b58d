"""The benchmark's tracer wraps cavforge functions by module and name.

``perfbench/tracer.py`` is loaded from its path, unedited; a deletion or
rename in ``src/`` that it still names fails here, not only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    tracer = _load_tracer()
    missing = [f"{module}.{name}"
               for module, names in tracer.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    for (module, cls_name), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module(module), cls_name, None)
        # the tracer patches methods found in the class's own namespace
        missing += [f"{module}.{cls_name}.{name}" for name in names
                    if cls is None or name not in vars(cls)]
    assert tracer.FUNCTIONS and tracer.METHODS
    assert missing == []
