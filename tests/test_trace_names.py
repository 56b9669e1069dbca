"""perfbench/tracer.py wraps aclab kernels by (owner, attribute) name; a
refactor that renames or removes one must fail here, not in a traced run."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for table in (tracer.REPORTED, tracer.ENTRY_POINTS):
        for targets in table.values():
            for owner, attr in targets:
                mod_name, _, cls_name = owner.partition(".")
                holder = importlib.import_module(f"aclab.{mod_name}")
                if cls_name:
                    holder = getattr(holder, cls_name, None)
                    # The class's own method: wrapping an inherited one would
                    # time object's slot, not the aclab kernel.
                    found = holder is not None and callable(vars(holder).get(attr))
                else:
                    found = callable(getattr(holder, attr, None))
                if not found:
                    missing.append(f"{owner}.{attr}")
    assert missing == []
