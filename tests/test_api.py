import importlib
import pkgutil

import asepkpz


def test_every_public_name_resolves():
    # a name left in a module's __all__ after its definition is deleted fails
    # the star import; `import asepkpz` above checks the package's own imports
    declaring = []
    for info in pkgutil.iter_modules(asepkpz.__path__):
        if hasattr(importlib.import_module(f"asepkpz.{info.name}"), "__all__"):
            exec(f"from asepkpz.{info.name} import *", {})
            declaring.append(info.name)
    assert {"engine", "gartner", "greens", "kernels", "params", "she"} <= set(declaring)
