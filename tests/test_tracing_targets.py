"""The benchmark tracer (perfbench/tracing.py) wraps charform functions by
name.  Every name it lists must resolve, so that a refactor which deletes or
renames a traced function fails here and not only under `--trace`."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    targets = _load_tracing().TARGETS
    missing = []
    for module, attr, _ in targets:
        mod = importlib.import_module(f"charform.{module}")
        if "." in attr:
            # a method is wrapped where its class defines it
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and callable(vars(cls).get(meth))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(f"{module}.{attr}")
    assert targets
    assert not missing, f"traced names missing from charform: {missing}"
